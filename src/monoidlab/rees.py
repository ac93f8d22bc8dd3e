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
from .words import Word, WordSet, factor_tuples, generate_wn, parse_words

# The largest order rees_quotient builds a table for: 256 MB of int32.
# It is above every table the claim suite and the tests build, and above
# the quotient of {w_1, ..., w_5}, order 4,277.
TABLE_ORDER_LIMIT = 8192


def _factor_graph(word_set: WordSet):
    """The factors of ``word_set`` and the right Cayley graph of ``M(W)``.

    Returns ``(element, code, parent, last, delta)``.  ``element`` maps
    each factor, a tuple of letters, to its element, in element order:
    identity first and the rest shortlex; the zero is element
    ``len(element)``.  ``code`` numbers the letters of W in order.  The
    factors form a trie: each nonempty factor ``i`` is factor
    ``parent[i]`` followed by letter ``last[i]``, and the trie's nodes
    are exactly the nonzero elements.  ``delta[i, c]`` is the
    element of factor ``i`` followed by letter ``c``, or the zero, in
    every row including the zero's.
    """
    tuples = factor_tuples(w.letters for w in word_set)
    element = {t: i for i, t in enumerate(tuples)}
    zero = len(tuples)
    code = {l: c for c, l in enumerate(sorted({l for w in word_set for l in w.letters}))}
    parent = np.zeros(zero, dtype=np.intp)
    last = np.zeros(zero, dtype=np.intp)
    parent[1:] = [element[t[:-1]] for t in tuples[1:]]
    last[1:] = [code[t[-1]] for t in tuples[1:]]
    delta = np.full((zero + 1, len(code)), zero, dtype=np.int32)
    delta[parent[1:], last[1:]] = np.arange(1, zero)
    return element, code, parent, last, delta


def _order_floor(word_set: WordSet) -> int:
    """A lower bound on the order of ``M(W)`` that enumerates no factor
    longer than 32 letters.  The longest word's prefixes are distinct
    factors, so the order is at least its length plus 2 (the identity
    and the zero).  When W may have more than :data:`TABLE_ORDER_LIMIT`
    factors (2 plus the sum of L(L+1)/2 over its words counts them with
    repeats), the order is also at least 2 plus the distinct factors of
    lengths 1 to 32, counted one length at a time until the total passes
    the limit; a prefix bound already past the limit skips the count."""
    words = [w.letters for w in word_set]
    floor, count = max(map(len, words), default=0) + 2, 2
    if floor <= TABLE_ORDER_LIMIT < 2 + sum(len(w) * (len(w) + 1) // 2 for w in words):
        for k in range(1, 33):
            if count <= TABLE_ORDER_LIMIT:
                count += len({w[i : i + k] for w in words for i in range(len(w) - k + 1)})
    return max(floor, count)


def rees_quotient(word_set: WordSet) -> FiniteMonoid:
    """Construct ``M(W)``: identity first, factors shortlex, zero last.

    The table is read off the factor trie and the right Cayley graph of
    :func:`_factor_graph` by :func:`~monoidlab.monoid._cayley_table`, the
    gather that also builds every presented monoid: one numpy gather per
    factor length, O(F^2) numpy work and O(F) Python steps for F factors.
    :func:`from_table` then validates the table; its greedy generating set
    is the letters, so Light's test costs one comparison per letter.  Raises
    :class:`BudgetExceededError` before allocating a table of more than
    :data:`TABLE_ORDER_LIMIT` elements, and before enumerating the factors
    when :func:`_order_floor` already passes the limit.
    """
    n, at_least = _order_floor(word_set), "at least "
    if n <= TABLE_ORDER_LIMIT:
        element, _, parent, last, delta = _factor_graph(word_set)
        n, at_least = len(element) + 1, ""
    if n > TABLE_ORDER_LIMIT:
        raise BudgetExceededError(
            f"the quotient has order {at_least}{n}, above the table limit of {TABLE_ORDER_LIMIT}",
            n,
            TABLE_ORDER_LIMIT,
        )
    zero = n - 1
    labels = tuple(Word(t) for t in element) + (ZERO_LABEL,)
    monoid = from_table(labels, 0, _cayley_table(parent, last, delta, zero), zero=zero)
    return dataclasses.replace(monoid, word_set=word_set)


def quotient_map(source: WordSet, target: WordSet) -> tuple[int, ...]:
    """The map phi from ``M(source)`` onto ``M(target)`` sending each
    factor of the source set to itself when it is a factor of the target
    set, and to zero otherwise, as the target element of each source
    element.

    Requires the target set to be contained in the source set.  The map
    is checked to be a surjective homomorphism on the right Cayley graphs
    of :func:`_factor_graph` alone, by the lemma below; no table is built.
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
    src_element, src_code, _, _, src_delta = _factor_graph(source)
    tgt_element, tgt_code, _, _, tgt_delta = _factor_graph(target)
    zero = len(tgt_element)
    phi = np.array([tgt_element.get(t, zero) for t in src_element] + [zero], dtype=np.intp)
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
