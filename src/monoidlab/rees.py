"""Rees quotients: the free monoid modulo the non-factor ideal of a word set.

The nonzero elements of ``M(W)`` are the contiguous factors of the words
in ``W`` (the empty factor is the identity); every other product is the
adjoined zero.  ``M(W)`` is a :class:`FiniteMonoid` whose labels are the
factor words themselves, so that word-level checkers can read values back
without a side table.
"""

from __future__ import annotations

import bisect
import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import HomomorphismViolationError, NotSubsetError, ParseError
from .monoid import ZERO_LABEL, FiniteMonoid, from_table
from .words import EPSILON, Word, WordSet, factors, generate_wn, parse_word


def rees_quotient(word_set: WordSet) -> FiniteMonoid:
    """Construct ``M(W)``: identity first, factors shortlex, zero last.

    The factors form a trie: each nonempty factor ``f = p c`` has the
    factor ``p`` as parent and the letter ``c`` as last letter, and the
    trie's nodes are exactly the nonzero elements.  With ``delta[i, c]``
    the index of factor ``i`` followed by ``c`` (or zero), the identity
    ``x (p c) = (x p) c`` makes column ``j`` of the table one gather,
    ``T[:, j] = delta[T[:, parent(j)], last(j)]``.  Parents are shorter,
    so all factors of one length are gathered at once, in O(F^2) numpy
    work and O(F) Python steps for F factors.  :func:`from_table` then
    validates the table; its greedy generating set is the letters, so
    Light's test costs one comparison per letter.
    """
    factor_words = sorted(
        {f for w in word_set for f in factors(w)} | {EPSILON}, key=Word.shortlex_key
    )
    index = {w: i for i, w in enumerate(factor_words)}
    zero = len(factor_words)
    n = zero + 1
    code = {l: c for c, l in enumerate(sorted({l for w in word_set for l in w.letters}))}
    parent = np.zeros(zero, dtype=np.intp)
    last = np.zeros(zero, dtype=np.intp)
    parent[1:] = [index[Word(f.letters[:-1])] for f in factor_words[1:]]
    last[1:] = [code[f.letters[-1]] for f in factor_words[1:]]
    delta = np.full((n, len(code)), zero, dtype=np.int32)
    delta[parent[1:], last[1:]] = np.arange(1, zero)
    lengths = [len(f) for f in factor_words]   # sorted, as factor_words is shortlex
    cols = np.empty((n, n), dtype=np.int32)    # cols[j] is column j of the table
    cols[0] = np.arange(n)
    cols[zero] = zero
    lo = 1
    while lo < zero:
        hi = bisect.bisect_right(lengths, lengths[lo])
        cols[lo:hi] = delta[cols[parent[lo:hi]], last[lo:hi, None]]
        lo = hi
    monoid = from_table(tuple(factor_words) + (ZERO_LABEL,), 0, cols.T, zero=zero)
    return dataclasses.replace(monoid, word_set=word_set)


@dataclass(frozen=True)
class QuotientMap:
    """A verified surjective homomorphism between two Rees quotients."""

    source: FiniteMonoid
    target: FiniteMonoid
    mapping: tuple[int, ...]

    def apply(self, element: int) -> int:
        return self.mapping[element]


def quotient_map(source: FiniteMonoid, target: FiniteMonoid) -> QuotientMap:
    """The map sending each factor of the source set to itself when it
    remains a factor of the target set, and to zero otherwise.

    Requires the target word set to be contained in the source word set;
    the homomorphism property and surjectivity are checked exhaustively,
    as one comparison of ``m[S]`` with ``T[m][:, m]``.  A failure names
    the first pair ``(s, t)`` in row-major order.
    """
    if not target.word_set.issubset(source.word_set):
        raise NotSubsetError(
            f"{{{target.word_set}}} is not a subset of {{{source.word_set}}}"
        )
    mapping = [target.element_of(lab) for lab in source.elements]
    m = np.array(mapping, dtype=np.intp)
    bad = m[source.table] != target.table[np.ix_(m, m)]
    if bad.any():
        s, t = divmod(int(np.argmax(bad)), source.order)
        raise HomomorphismViolationError(
            f"map is not a homomorphism at ({s}, {t})", witness=(s, t)
        )
    if set(mapping) != set(range(target.order)):
        raise HomomorphismViolationError("map is not surjective")
    return QuotientMap(source, target, tuple(mapping))


def parse_word_set(text: str) -> WordSet:
    """Parse a comma-separated word list, or ``wn:N1,N2,...`` expanding to
    the corresponding members of the separating family.  An empty string
    is the empty word set."""
    s = text.strip()
    if not s:
        return WordSet.of([])
    if s.startswith("wn:"):
        body = s[3:].strip()
        if not body:
            raise ParseError("wn: needs at least one index", 3)
        try:
            indices = [int(p.strip()) for p in body.split(",")]
        except ValueError:
            raise ParseError(f"bad wn index list {body!r}", 3) from None
        return WordSet.of(generate_wn(i) for i in indices)
    return WordSet.of(parse_word(p) for p in s.split(","))
