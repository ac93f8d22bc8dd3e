"""Finite monoids as validated multiplication tables.

Tables can be given directly or read off a right Cayley graph by one
gather: the factor graph of a word set (:mod:`monoidlab.rees`), or the
bounded congruence closure of a finite presentation.  Element labels are
either words (over the generators, or over the ambient alphabet for word
quotients) or opaque strings such as ``"0"`` for a reserved zero class.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BadIdentityError,
    BadZeroError,
    DuplicateLabelsError,
    EmptyGeneratorsError,
    NonAssociativeError,
    NotStabilizedError,
    UnknownPresetError,
)
from .words import EPSILON, Letter, Word, WordSet, parse_word


class _ZeroMark:
    """Marker for the absorbing element in relations and substitutions."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "0"


ZERO = _ZeroMark()

ZERO_LABEL = "0"


@dataclass(frozen=True, eq=False, repr=False)
class FiniteMonoid:
    """An immutable multiplication table with a distinguished identity.

    ``elements`` holds the labels in canonical order, ``table[s, t]`` the
    index of the product, as a read-only int32 array.  ``zero`` is the
    index of an absorbing element when one is declared.  ``word_set`` is
    set when the monoid is the Rees quotient ``M(W)`` of that word set;
    its labels are then the factor words, and every other word is zero.
    Build instances with :func:`from_table`, which validates the table.
    """

    elements: tuple[object, ...]
    one: int
    table: np.ndarray
    zero: int | None = None
    word_set: WordSet | None = None

    @property
    def order(self) -> int:
        return len(self.elements)

    def mul(self, s: int, t: int) -> int:
        n = len(self.elements)
        if not (0 <= s < n and 0 <= t < n):
            raise IndexError(f"element index out of range: ({s}, {t}) with order {n}")
        return self.table.item(s, t)

    def label_text(self, i: int) -> str:
        return str(self.elements[i])

    @cached_property
    def _label_index(self) -> dict[str, int]:
        return {str(lab): i for i, lab in enumerate(self.elements)}

    def element_of(self, label) -> int | None:
        """Index of the element labeled ``label``.  In a Rees quotient a
        word that is not a factor is the zero; otherwise a label that names
        no element gives ``None``."""
        return self._label_index.get(str(label), None if self.word_set is None else self.zero)

    def __repr__(self) -> str:
        source = "" if self.word_set is None else f"{{{self.word_set}}}, "
        return f"FiniteMonoid({source}order={self.order})"

    def to_json_dict(self) -> dict:
        return {
            "elements": [str(lab) for lab in self.elements],
            "one": self.one,
            "zero": self.zero,
            "table": self.table.tolist(),
        }


def _int_table(table, n: int) -> np.ndarray:
    """``table`` as a fresh read-only n x n int32 array.

    Entries must be integers (``bool`` is not) in ``range(n)``; the range
    is checked before narrowing, so large values cannot wrap into range.
    Sequences go through an object array, which holds the caller's own
    int objects, so the checks create no per-entry ints.
    """
    shape_error = ValueError(f"table must be {n}x{n}")
    if isinstance(table, np.ndarray) and table.dtype != object:
        arr = table
    else:
        try:
            arr = np.array(table, dtype=object)
        except ValueError:
            raise shape_error from None
    if arr.shape != (n, n):
        raise shape_error
    if arr.dtype == object:
        for v in arr.flat:
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise ValueError(f"table entry {v!r} is not an integer")
    elif arr.dtype.kind not in "iu":
        raise ValueError(f"table entries must be integers, got dtype {arr.dtype}")
    bad = (arr < 0) | (arr >= n)
    if bad.any():
        raise ValueError(f"table entry {arr.flat[int(np.argmax(bad))]} out of range")
    out = arr.astype(np.int32, order="C")
    out.flags.writeable = False
    return out


# Light's test compares blocks of rows with at most this many entries
_LIGHT_BLOCK = 1 << 20


def _generators(T: np.ndarray, one: int) -> list[int]:
    """A generating set, greedy in index order, each generator passing
    Light's associativity test as it is found.

    Starting from the identity, each element not yet reached becomes a
    generator, and the reached set is closed under right multiplication
    by the generators.  Every element is then a left-bracketed product of
    generators.  For a Rees quotient these are exactly the letters.

    Before an element g joins, Light's test compares (xg)y with x(gy) for
    every x and y, in blocks of rows x that hold at most ``_LIGHT_BLOCK``
    entries (one row at least), so it needs no full n x n gather; at the
    first g that fails it raises :class:`NonAssociativeError` with the
    triple (x, g, y), (x, y) the first failing pair in row-major order,
    since the blocks run in row order.  The elements a that pass,
    (xa)y = x(ay) for all x and y, contain the identity and are closed
    under products: for passing a and b,
    (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) = x((ab)y).  So when every
    generator passes, every left-bracketed product of generators, which is
    every element, passes too, and the table is associative.  (Clifford
    and Preston, vol. 1, section 1.2.)
    """
    n = T.shape[0]
    step = max(1, _LIGHT_BLOCK // n)
    reached = np.zeros(n, dtype=bool)
    reached[one] = True
    gens: list[int] = []
    for g in range(n):
        if reached[g]:
            continue
        for lo in range(0, n, step):
            # [x - lo, y]: T[T[x, g], y] vs T[x, T[g, y]]
            bad = T[T[lo : lo + step, g]] != T[lo : lo + step, T[g]]
            if bad.any():
                x, y = divmod(int(np.argmax(bad)), n)
                raise NonAssociativeError((lo + x, g, y))
        gens.append(g)
        products = T[reached, g]
        while True:
            fresh = np.zeros(n, dtype=bool)
            fresh[products] = True
            fresh &= ~reached
            if not fresh.any():
                break
            reached |= fresh
            products = T[np.ix_(fresh, gens)].ravel()
    return gens


def from_table(elements, one: int, table, zero: int | None = None) -> FiniteMonoid:
    """Validate and freeze a multiplication table.

    Checks the shape and that the entries are integers in range, then
    duplicate labels, a working identity and a working zero when declared.
    Associativity is Light's test, run on each generator of a generating
    set as :func:`_generators` finds it greedily from the table, which is
    exact for any table: a failure names a genuine violating triple, and
    a pass proves the whole table associative.  It costs one n x n
    comparison per generator, so for an arbitrary table it falls back
    toward the full O(n^3) check.
    """
    elems = tuple(elements)
    n = len(elems)
    if n == 0:
        raise ValueError("a monoid needs at least one element")
    T = _int_table(table, n)
    if len({str(lab) for lab in elems}) != n:
        raise DuplicateLabelsError("element labels must be pairwise distinct")
    if not (0 <= one < n):
        raise BadIdentityError(f"identity index {one} out of range")
    every = np.arange(n)
    bad = (T[one] != every) | (T[:, one] != every)
    if bad.any():
        raise BadIdentityError(f"element {one} is not an identity (fails at {int(np.argmax(bad))})")
    if zero is not None:
        if not (0 <= zero < n):
            raise BadZeroError(f"zero index {zero} out of range")
        bad = (T[zero] != zero) | (T[:, zero] != zero)
        if bad.any():
            raise BadZeroError(f"element {zero} is not absorbing (fails at {int(np.argmax(bad))})")
    _generators(T, one)
    return FiniteMonoid(elems, one, T, zero)


def _cayley_table(parent, last, delta, zero: int | None) -> np.ndarray:
    """The multiplication table of a monoid read off its right Cayley graph.

    ``delta[i, c]`` is element ``i`` times generator ``c``, in every row.
    The elements other than the zero are the nodes of a spanning tree
    rooted at the identity, element 0: node ``j > 0`` is node
    ``parent[j]`` times generator ``last[j]``, and ``parent`` never
    decreases, as in a shortlex walk.  The zero, when given, absorbs.
    The identity ``x (p c) = (x p) c`` makes column ``j`` one gather,
    ``T[:, j] = delta[T[:, parent(j)], last(j)]``.  A run of nodes whose
    parents all come before it is gathered at once, which for a shortlex
    walk is one gather per length: O(n^2) numpy work and O(n) Python
    steps for n elements.  The caller validates the result with
    :func:`from_table`.
    """
    parent = np.asarray(parent, dtype=np.intp)
    last = np.asarray(last, dtype=np.intp)
    n = delta.shape[0]
    cols = np.empty((n, n), dtype=np.int32)    # cols[j] is column j of the table
    cols[0] = np.arange(n)
    if zero is not None:
        cols[zero] = zero
    lo = 1
    while lo < len(parent):
        hi = int(np.searchsorted(parent, lo))  # the first node whose parent is lo or later
        cols[lo:hi] = delta[cols[parent[lo:hi]], last[lo:hi, None]]
        lo = hi
    return cols.T


def multiply(m: FiniteMonoid, s: int, t: int) -> int:
    """Product of two elements by table lookup."""
    return m.mul(s, t)


@dataclass(frozen=True)
class Presentation:
    """A monoid presentation: generators and relations, whose sides may be
    the empty word ``1`` and whose right sides may be :data:`ZERO`.

    When no side is empty, no relation reaches the empty word, so the
    presented monoid is S^1, the semigroup with the same presentation
    with an identity adjoined; the presets are of this kind.
    """

    generators: tuple[Letter, ...]
    relations: tuple[tuple[Word, object], ...]
    has_zero: bool = False

    def __post_init__(self) -> None:
        gens = set(self.generators)
        for lhs, rhs in self.relations:
            sides = [lhs] + ([] if rhs is ZERO else [rhs])
            if rhs is ZERO and not self.has_zero:
                raise ValueError("a zero relation needs has_zero")
            for side in sides:
                if not set(side.letters) <= gens:
                    raise ValueError(f"relation side {side} uses undeclared generators")


_PRESETS = {
    "M_SCRIPT": (("a", "e"), (("ee", "e"), ("aaa", None), ("ae", None), ("eaa", "aa"))),
    "A21": (("a", "b"), (("aa", None), ("aba", "a"), ("bab", "b"), ("bb", "b"))),
    "B21": (("a", "b"), (("aa", None), ("bb", None), ("aba", "a"), ("bab", "b"))),
}


def preset(name: str) -> Presentation:
    """One of the built-in presentations: M_SCRIPT, A21 or B21."""
    key = name.strip().upper()
    if key not in _PRESETS:
        raise UnknownPresetError(f"unknown preset {name!r}; choose from {sorted(_PRESETS)}")
    gen_names, rels = _PRESETS[key]
    relations = tuple(
        (parse_word(lhs), ZERO if rhs is None else parse_word(rhs)) for lhs, rhs in rels
    )
    return Presentation(
        generators=tuple(Letter(g) for g in gen_names),
        relations=relations,
        has_zero=True,
    )


def _closure(pres: Presentation, bound: int) -> tuple[FiniteMonoid, dict[Letter, int]]:
    """The table of the presented monoid from the word classes at
    ``bound``, and each generator's element.

    One pass over the relations closes the words of length at most
    ``bound`` in a union-find, ``link``, with :data:`ZERO` as one more
    node: each occurrence of a left side in a word joins the word to
    ``ZERO`` for a zero relation, and to its rewrite, when that fits in
    the bound, for any other; without a zero, ``ZERO`` stays alone.
    When the identity's class is the zero's, the result is the trivial
    monoid.  Otherwise a shortlex walk of the right Cayley graph starts at
    the identity, the empty word's class, and, for each class it has
    found, in order, follows the class's label times each generator; a
    class is labeled by the first word that reaches it, and the zero
    class goes to the zero.  The walk gives the graph ``delta`` and its
    spanning tree (``parent``, ``last``) to :func:`_cayley_table`, and
    raises :class:`NotStabilizedError` when a label times a generator
    leaves the bound.  A generator's element is the identity's edge,
    which can lead to a shorter class, the identity or the zero.
    """
    gens = sorted(pres.generators)
    universe = [w for n in range(bound + 1) for w in itertools.product(gens, repeat=n)]
    link = {w: w for w in (*universe, ZERO)}

    def find(x):
        while link[x] != x:
            link[x] = link[link[x]]            # path halving
            x = link[x]
        return x

    for lhs, rhs in pres.relations:
        lt, k = lhs.letters, len(lhs)
        for w in universe:
            for i in range(len(w) - k + 1):
                if w[i : i + k] != lt:
                    continue
                if rhs is ZERO:
                    link[find(w)] = find(ZERO)
                elif len(w) - k + len(rhs) <= bound:
                    link[find(w)] = find(w[:i] + rhs.letters + w[i + k :])

    zero_root = find(ZERO)
    one_root = find(())
    if one_root == zero_root:
        # 1 = 0, so every element is 0, even words the bound keeps apart
        return from_table((EPSILON,), 0, [[0]], zero=0), dict.fromkeys(pres.generators, 0)
    # the shortlex walk of the right Cayley graph from the identity
    index = {one_root: 0}
    reps: list[tuple[Letter, ...]] = [()]
    parent, last, rows = [0], [0], []
    for i, rep in enumerate(reps):             # reps grows as the walk finds classes
        if len(rep) == bound:
            raise NotStabilizedError(
                f"class {Word(rep)} times {gens[0]} has length {bound + 1}, "
                f"beyond the closure bound {bound}"
            )
        rows.append([find(rep + (g,)) for g in gens])
        for c, root in enumerate(rows[-1]):
            if root != zero_root and root not in index:
                index[root] = len(reps)
                reps.append(rep + (gens[c],))
                parent.append(i)
                last.append(c)
    labels = [EPSILON, *map(Word, reps[1:])]
    zero = None
    if pres.has_zero:
        zero = index[zero_root] = len(reps)
        rows.append([zero_root] * len(gens))
        labels.append(ZERO_LABEL)
    delta = np.array([[index[root] for root in row] for row in rows], dtype=np.int32)
    m = from_table(labels, 0, _cayley_table(parent, last, delta, zero), zero=zero)
    return m, {g: int(delta[0, c]) for c, g in enumerate(gens)}


def _certify(pres: Presentation, m: FiniteMonoid, gen_index: dict[Letter, int]) -> None:
    """Raise :class:`NotStabilizedError` unless every relation of ``pres``
    holds in ``m`` and every word label evaluates to its own element, with
    generator ``g`` sent to ``gen_index[g]`` and words evaluated left to
    right through the table."""

    def value(word: Word) -> int:
        acc = m.one
        for letter in word.letters:
            acc = m.table.item(acc, gen_index[letter])
        return acc

    for lhs, rhs in pres.relations:
        if value(lhs) != (m.zero if rhs is ZERO else value(rhs)):
            raise NotStabilizedError(f"closure not certified: relation {lhs} = {rhs} fails")
    for i, label in enumerate(m.elements):
        if isinstance(label, Word) and value(label) != i:
            raise NotStabilizedError(
                f"closure not certified: {label} evaluates to {m.label_text(value(label))}"
            )


def _certified(pres: Presentation, bound: int) -> FiniteMonoid:
    """The table of :func:`_closure` at ``bound``, certified."""
    try:
        m, gen_index = _closure(pres, bound)
    except NonAssociativeError as exc:
        raise NotStabilizedError(f"closure not certified: table not associative, {exc}") from exc
    _certify(pres, m, gen_index)
    return m


def from_presentation(pres: Presentation, max_len: int = 6) -> FiniteMonoid:
    """Build the presented monoid by congruence closure over words of
    bounded length, trying the bounds 1, 2, ..., ``max_len`` in turn, and
    return the first table that certifies.

    Classes are labeled by the first word that reaches them in the
    shortlex walk of :func:`_closure`; the reserved zero class is labeled
    ``"0"``.  The certificate checks that every defining relation holds in
    the table and that every label evaluates to its own element.

    **Proof that a certified table T is the presented monoid M.**  Each
    edge of the walk, label ``r_i`` times generator ``g`` to class ``j``,
    joins ``r_i g`` to ``r_j`` (for the zero class, to a word holding the
    left side of a zero relation) by a chain of relation applications
    inside the bound, so it is an equation of M.  So the labels' elements of M, with 1 and 0, are closed
    under right multiplication by the generators, and they cover M, which
    therefore has at most ``T.order`` elements.  :func:`from_table` proves
    T a monoid, and the relations hold in T, so sending each generator to
    its element gives a homomorphism from M to T; it is onto, because
    every label evaluates to its own element.  A homomorphism onto T from
    a monoid no larger than T is an isomorphism.

    So a certified table is exact, and a larger bound gives the same one:
    its closure only adds true equations of M, the walk's words already
    lie in distinct classes, so the walk and its labels do not change.
    The first certified bound therefore returns what ``max_len`` would.
    The walk needs each label's length plus one inside the bound, where
    a table of products of labels needs twice the longest label:
    M_SCRIPT, A21 and B21 certify at bound 3.  Raises
    :class:`NotStabilizedError`, with the reason at ``max_len``, when no
    bound certifies: the walk leaves the bound, the table is not
    associative (the bound cut a derivation short) or the certificate
    fails.
    """
    if not pres.generators:
        raise EmptyGeneratorsError("presentation has no generators")
    if max_len < 1:
        raise ValueError("max_len must be positive")
    for bound in range(1, max_len):
        try:
            return _certified(pres, bound)
        except NotStabilizedError:
            pass
    return _certified(pres, max_len)
