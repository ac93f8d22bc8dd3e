"""Rees quotients: the free monoid modulo the non-factor ideal of a word set.

The nonzero elements of ``M(W)`` are the contiguous factors of the words
in ``W`` (the empty factor is the identity); every other product is the
adjoined zero.  ``M(W)`` is a :class:`FiniteMonoid` whose labels are the
factor words themselves, so that word-level checkers can read values back
without a side table.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import BudgetExceededError, HomomorphismViolationError, NotSubsetError, ParseError
from .monoid import ZERO_LABEL, FiniteMonoid, _cayley_table, from_table
from .words import INFINITY, Word, WordSet, factor_trie, generate_wn, parse_words

# The largest order rees_quotient builds a table for: 256 MB of int32 for
# the table alone.  A build near the limit peaks at about 3.4 times its
# table: a x 8,000 (order 8,002, a 244 MB table) peaks at 827 MB of RSS.
# Live at once are the labels' factor tuples (245 MB here), the gather's
# column array (245 MB), the labels' cached texts (32 MB) and from_table's
# C-order copy (244 MB); Light's test adds about 10 MB, one block of rows
# at a time.  The limit is above every table the claim suite and the
# tests build, and above the quotient of {w_1, ..., w_5}, order 4,277.
TABLE_ORDER_LIMIT = 8192


def _factor_graph(word_set: WordSet, limit=INFINITY):
    """The factors of ``word_set`` and the right Cayley graph of ``M(W)``,
    read off :func:`~monoidlab.words.factor_trie`.

    Returns ``(factors, code, parent, last, delta)``.  ``factors`` lists
    the factors, tuples of letters, in element order: identity first and
    the rest shortlex, by the trie's lemma (its breadth-first walk with
    sorted children lists the factors by length, then by parent, then by
    last letter), so factor ``i`` is element ``i``; the zero is element
    ``len(factors)``.  No factor is looked up here: a caller that needs
    a factor's element, as :func:`quotient_map` does for its target,
    indexes the list itself.  ``code`` numbers the letters of W in
    order.  The factors form the trie: each nonempty factor ``i`` is
    factor ``parent[i]`` followed by letter ``last[i]``, and the trie's
    nodes are exactly the nonzero elements.  ``delta[i, c]`` is the
    element of factor ``i`` followed by letter ``c``, or the zero, in
    every row including the zero's.

    When W has more than ``limit`` factors (the empty one included), the
    trie stops early, and the result is its node count in place of the
    graph: an int that exceeds ``limit`` and is at most the number of
    factors, since the nodes are distinct factors.
    """
    trie = factor_trie((w.letters for w in word_set), limit)
    if isinstance(trie, int):
        return trie
    factors, parent = trie
    code = {l: c for c, l in enumerate(sorted({l for w in word_set for l in w.letters}))}
    last = [0] + [code[t[-1]] for t in factors[1:]]
    delta = np.full((len(factors) + 1, len(code)), len(factors), dtype=np.int32)
    delta[parent[1:], last[1:]] = np.arange(1, len(factors))
    return factors, code, parent, last, delta


def rees_quotient(word_set: WordSet) -> FiniteMonoid:
    """Construct ``M(W)``: identity first, factors shortlex, zero last.

    The table is read off the factor trie and the right Cayley graph of
    :func:`_factor_graph` by :func:`~monoidlab.monoid._cayley_table`, the
    gather that also builds every presented monoid: one numpy gather per
    factor length, O(F^2) numpy work and O(F) Python steps for F factors.
    The labels are the graph's factor list, in element order, as words.
    :func:`from_table` then validates the table; its greedy generating set
    is the letters, and Light's test runs once on each letter as the
    search finds it.

    Raises :class:`BudgetExceededError`, before allocating a table, when
    the order passes :data:`TABLE_ORDER_LIMIT`.  This is the one refusal:
    :func:`_factor_graph` runs with the limit ``TABLE_ORDER_LIMIT - 1`` on
    factors, and its trie stops at the first suffix that passes it.  The
    trie's nodes are distinct factors, listed shortlex by the trie's lemma
    when it finishes, so a capped node count F gives the lower bound
    N = F + 1 on the order (the zero is an element too), and the message
    says "order at least N".  A suffix adds at most its length in nodes,
    so N exceeds the limit by at most the length of the longest word.
    """
    graph = _factor_graph(word_set, TABLE_ORDER_LIMIT - 1)
    if isinstance(graph, int):
        msg = f"the quotient has order at least {graph + 1}, above the table limit of {TABLE_ORDER_LIMIT}"
        raise BudgetExceededError(msg, graph + 1, TABLE_ORDER_LIMIT)
    factors, _, parent, last, delta = graph
    zero = len(factors)
    labels = (*map(Word, factors), ZERO_LABEL)
    monoid = from_table(labels, 0, _cayley_table(parent, last, delta, zero), zero=zero)
    return dataclasses.replace(monoid, word_set=word_set)


def quotient_map(source: WordSet, target: WordSet) -> tuple[int, ...]:
    """The map phi from ``M(source)`` onto ``M(target)`` sending each
    factor of the source set to itself when it is a factor of the target
    set, and to zero otherwise, as the target element of each source
    element.

    Requires the target set to be contained in the source set.  phi is
    read factor by factor: each source factor is looked up in one index
    of the target's factors by their tuples.  It is not derived along the
    trie as phi(u c) = phi(u) phi(c), which the check below would then
    hold by construction, so a wrong tree edge of the target graph would
    pass unseen.  The map is checked to be a surjective homomorphism on
    the right Cayley graphs of :func:`_factor_graph` alone, by the lemma
    below; no table is built.
    A failure names the first element ``s``, and the element of the first
    letter ``c``, at which phi(s c) differs from phi(s) phi(c).

    **Lemma.** If phi(1) = 1, phi(0) = 0 and phi(s c) = phi(s) phi(c)
    for every element s and every letter c of the source set, then
    phi(s t) = phi(s) phi(t) for all elements s and t.  Here phi(s) phi(c)
    is ``delta[phi(s), c]`` of the target, and the zero when c is not a
    letter of the target set.

    **Proof.** Every element t is 1, 0 or a product of letters; induct on
    the length of t.  For t = 1 and t = 0 both sides are phi(s) and 0.
    For t = u c, phi(s u c) = phi(s u) phi(c) = phi(s) phi(u) phi(c) =
    phi(s) phi(u c), by the premise at s u, the induction hypothesis and
    the premise at u.  This is the argument of Light's test in
    :func:`~monoidlab.monoid.from_table` (Clifford and Preston, vol. 1,
    section 1.2).
    """
    if not target.issubset(source):
        raise NotSubsetError(f"{{{target}}} is not a subset of {{{source}}}")
    src_factors, src_code, _, _, src_delta = _factor_graph(source)
    tgt_factors, tgt_code, _, _, tgt_delta = _factor_graph(target)
    zero = len(tgt_factors)
    tgt_element = {t: i for i, t in enumerate(tgt_factors)}
    phi = np.array([tgt_element.get(t, zero) for t in src_factors] + [zero], dtype=np.intp)
    if phi[0] != 0 or phi[-1] != zero:
        raise HomomorphismViolationError("map does not fix the identity and the zero")
    # source letters missing from the target read an appended zero column
    tgt_delta = np.pad(tgt_delta, ((0, 0), (0, 1)), constant_values=zero)
    cols = np.array([tgt_code.get(l, len(tgt_code)) for l in src_code], dtype=np.intp)
    bad = phi[src_delta] != tgt_delta[phi[:, None], cols]
    if bad.any():
        s, c = divmod(int(np.argmax(bad)), len(cols))
        t = int(src_delta[0, c])
        raise HomomorphismViolationError(
            f"map is not a homomorphism at ({s}, {t})", witness=(s, t)
        )
    mapping = tuple(phi.tolist())
    if len(set(mapping)) != zero + 1:
        raise HomomorphismViolationError("map is not surjective")
    return mapping


def parse_word_set(text: str) -> WordSet:
    """Parse a comma-separated word list, or ``wn:N1,N2,...`` expanding to
    the corresponding members of the separating family.  An empty string
    is the empty word set."""
    s = text.strip()
    if not s:
        return WordSet.of([])
    if s.startswith("wn:"):
        body, at = s[3:].strip(), text.index("wn:") + 3
        if not body:
            raise ParseError("wn: needs at least one index", at)
        try:
            indices = [int(p.strip()) for p in body.split(",")]
        except ValueError:
            raise ParseError(f"bad wn index list {body!r}", at) from None
        return WordSet.of(generate_wn(i) for i in indices)
    return WordSet.of(parse_words(text, ","))
