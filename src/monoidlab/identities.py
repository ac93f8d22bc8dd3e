"""Identities over variable words, substitution evaluation, and the two
independent satisfaction checkers.

``check_table`` decides satisfaction by brute force over all element
substitutions of a multiplication table, evaluated in odometer blocks of
numpy broadcast products.  ``check_rees`` decides the same
question for a word-set quotient without touching the table, by matching
the identity's sides into the source words.  The two are kept independent
on purpose and are cross-validated by the verify module.
"""

from __future__ import annotations

import collections
import itertools
import operator
from dataclasses import dataclass

import numpy as np

from .errors import BadZeroError, BudgetExceededError, ParseError, UnknownBasisError
from .monoid import ZERO, FiniteMonoid
from .words import (
    EPSILON,
    INFINITY,
    Letter,
    Word,
    WordSet,
    delete_letter,
    depth_map,
    generate_wn,
    letter_positions,
    parse_words,
)

HOLDS = "HOLDS"
FAILS = "FAILS"

DEFAULT_TABLE_BUDGET = 10**8
DEFAULT_MATCH_BUDGET = 10**6

_CHUNK = 1 << 16
_FIRST_BLOCK = 256


@dataclass(frozen=True)
class Identity:
    """An ordered pair of words over variable letters (u = v)."""

    lhs: Word
    rhs: Word

    @property
    def variables(self) -> list[Letter]:
        return sorted(self.lhs.alphabet | self.rhs.alphabet)

    def __str__(self) -> str:
        return f"{self.lhs} = {self.rhs}"


def parse_identity(text: str) -> Identity:
    """Parse ``u = v`` with both sides in word syntax.

    In compact sides a caret is a power (``x^3`` means ``xxx``); dotted
    sides keep carets as superscripts, matching the word parser.
    """
    if text.count("=") != 1:
        raise ParseError("an identity needs exactly one '='", len(text))
    return Identity(*parse_words(text, "="))


@dataclass(frozen=True)
class Substitution:
    """A mapping from variable letters to words, elements, or zero.

    Values are words for word-level checking, int element indices for
    table-level checking, or :data:`ZERO` for the absorbing element.
    Entries are kept sorted by variable so substitutions hash and compare
    structurally.
    """

    assignment: tuple[tuple[Letter, object], ...]

    @classmethod
    def of(cls, mapping: dict) -> "Substitution":
        return cls(tuple(sorted(mapping.items())))

    @classmethod
    def identity_on(cls, alphabet) -> "Substitution":
        return cls.of({l: Word((l,)) for l in alphabet})

    def as_dict(self) -> dict:
        return dict(self.assignment)

    @property
    def domain(self) -> frozenset[Letter]:
        return frozenset(l for l, _ in self.assignment)

    def __getitem__(self, letter: Letter):
        for l, v in self.assignment:
            if l == letter:
                return v
        raise KeyError(str(letter))

    def apply(self, w: Word) -> Word:
        """Image of a word under a word-valued substitution."""
        out: list[Letter] = []
        mapping = self.as_dict()
        for letter in w.letters:
            value = mapping[letter]
            if not isinstance(value, Word):
                raise TypeError(f"{letter} maps to {value!r}, not a word")
            out.extend(value.letters)
        return Word(tuple(out))

    def __str__(self) -> str:
        parts = ", ".join(f"{l} -> {v}" for l, v in self.assignment)
        return "{" + parts + "}"


@dataclass(frozen=True)
class CheckOutcome:
    """Result of a satisfaction check, with a witness when it fails."""

    status: str
    witness: Substitution | None
    evaluations: int

    @property
    def holds(self) -> bool:
        return self.status == HOLDS


def _element_index(value) -> int | None:
    """``value`` as an element index when it is one (any integer type but
    ``bool``, numpy integers included), else None."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        return None
    return operator.index(value)


def evaluate(w: Word, subst: Substitution, monoid: FiniteMonoid) -> int:
    """Left-to-right product of the images of ``w`` in the monoid.

    Word values need a Rees quotient and are resolved by label, a word
    that is not a factor being zero; element indices (any integer type
    but ``bool``, numpy integers included) are used directly, and
    :data:`ZERO` forces the zero element.  Exits early once the running
    product hits zero.
    """
    mapping = subst.as_dict()
    acc = monoid.one
    for letter in w.letters:
        if letter not in mapping:
            raise KeyError(f"substitution does not cover {letter}")
        value = mapping[letter]
        if value is ZERO:
            if monoid.zero is None:
                raise BadZeroError("zero assignment in a monoid without zero")
            return monoid.zero
        if isinstance(value, Word):
            if monoid.word_set is None:
                raise TypeError("word-valued assignments need a Rees quotient")
            e = monoid.element_of(value)
        elif (e := _element_index(value)) is None:
            raise TypeError(f"unsupported assignment value {value!r}")
        elif not (0 <= e < monoid.order):
            raise IndexError(f"element index {e} out of range")
        acc = monoid.mul(acc, e)
        if monoid.zero is not None and acc == monoid.zero:
            return acc
    return acc


def check_table(monoid: FiniteMonoid, ident: Identity, budget: int = DEFAULT_TABLE_BUDGET) -> CheckOutcome:
    """Brute-force satisfaction over all element substitutions.

    Substitutions are enumerated odometer-style over the variables in
    letter order with the last variable moving fastest, so the first
    failing substitution found is the canonical least witness, and
    ``evaluations`` is its one-based position (or the total on HOLDS).

    The enumeration runs in blocks of numpy broadcast products whose
    wanted size starts at ``_FIRST_BLOCK`` and grows eightfold per block
    up to ``_CHUNK``, so a witness near the start costs a small block.
    With n the order and k the number of variables (variables and base-n
    digits counted from 0, most significant first), a block starting at
    odometer position ``start`` with wanted size ``want`` is an aligned
    range: s is the largest count (at most k) with n^(s-1) dividing
    ``start`` and n^(s-1) <= ``want``; the first k-s variables are plain
    ints read off the base-n digits of ``start``; variable k-s runs over
    ``arange(lo, lo + m)`` with lo its digit in ``start`` and
    m = min(n - lo, want // n^(s-1)); the last s-1 variables are full
    ``arange(n)`` axes.  Each side folds left to right through the table
    and stays a scalar until its first letter with an axis, so the
    letters before it cost one lookup per block.  The fold carries row
    offsets, not elements: with ``rows[s * n + t] = table[s, t] * n`` one
    flat gather ``rows[acc + t]`` takes the offset of s to that of st, and
    two offsets are equal exactly when their elements are.  Offsets and
    gather indices stay below n * n, so ``rows`` is int32 while
    n * n < 2^31 (the table's own dtype, with no overflow) and intp above.

    **Lemma.** The blocks tile [0, n^k) in increasing order, and the C
    order of a block's positions is their odometer order, so the first
    mismatch found is the least witness.

    **Proof.** The last s-1 digits of ``start`` are zero, because
    n^(s-1) divides it, and its digit k-s is lo.  Since m >= 1
    (n^(s-1) <= want) and lo + m <= n, the block's substitutions are
    exactly those whose first k-s digits are those of ``start`` and whose
    digit k-s lies in [lo, lo + m), that is the positions
    ``start`` .. ``start`` + m * n^(s-1) - 1 with no carry into the fixed
    digits.  The next block starts right after it, so the blocks are
    consecutive, disjoint and cover [0, n^k).  In the block's shape
    (m, n, ..., n) the C order moves the last axis fastest, which is the
    odometer order on the digits k-s .. k-1, so flat offset ``off`` is
    position ``start + off``.

    Only the first ``budget`` substitutions are searched; a witness-free
    search that stops short of the total raises
    :class:`BudgetExceededError`.
    """
    variables = ident.variables
    k = len(variables)
    n = monoid.order
    total = n**k
    axes = [np.arange(n).reshape((n,) + (1,) * (k - 1 - j)) for j in range(k)]
    var_pos = {v: i for i, v in enumerate(variables)}
    lhs_seq = [var_pos[l] for l in ident.lhs.letters]
    rhs_seq = [var_pos[l] for l in ident.rhs.letters]
    dtype = np.int32 if n * n < 2**31 else np.intp
    rows = (monoid.table.astype(dtype, copy=False) * n).ravel()
    one = monoid.one * n

    def digits(pos):
        return [pos // n ** (k - 1 - j) % n for j in range(k)]

    def fold(seq, values):
        acc = one
        for vi in seq:
            acc = rows[acc + values[vi]]
        return acc

    # with no variables the one substitution is the empty one, and 1 = 1
    start = 0 if k else total
    want = min(_FIRST_BLOCK, _CHUNK)
    while start < min(total, budget):
        s, step = 1, 1
        while s < k and start % (step * n) == 0 and step * n <= want:
            s, step = s + 1, step * n
        *head, lo = digits(start)[: k - s + 1]
        m = min(n - lo, want // step)
        first = np.arange(lo, lo + m).reshape((m,) + (1,) * (s - 1))
        values = head + [first] + axes[k - s + 1 :]
        neq = fold(lhs_seq, values) != fold(rhs_seq, values)
        off = int(np.argmax(neq))
        if neq.flat[off]:
            if start + off >= budget:
                break
            witness = digits(start + off)
            return CheckOutcome(FAILS, Substitution.of(dict(zip(variables, witness))), start + off + 1)
        start += m * step
        want = min(want * 8, _CHUNK)
    if budget < total:
        spent = max(budget, 0)
        raise BudgetExceededError(
            f"table budget exhausted after {spent} of {total} substitutions", spent, budget
        )
    return CheckOutcome(HOLDS, None, total)


def _matcher_exhausted(limit: int, spent: int) -> BudgetExceededError:
    return BudgetExceededError(
        f"matcher budget of {limit} backtracking nodes exhausted", spent, limit
    )


# Letters are coded as supplementary private-use code points (planes 15
# and 16), so the matcher slices and compares plain strings.
_CODE_BASE = 0xF0000
_CODE_LIMIT = 0x110000 - _CODE_BASE


class _Coding:
    """One code point per letter, assigned in letter order.

    Coded segments therefore compare, length first and then as strings,
    exactly as the letter tuples they spell compare shortlex.
    """

    __slots__ = ("code", "letters", "_words")

    def __init__(self, alphabet):
        self.letters = sorted(alphabet)
        if len(self.letters) > _CODE_LIMIT:
            raise ValueError(f"the matcher codes at most {_CODE_LIMIT} distinct letters")
        self.code = {l: chr(_CODE_BASE + i) for i, l in enumerate(self.letters)}
        self._words: dict[str, Word] = {}

    def encode(self, w: Word) -> str:
        code = self.code
        return "".join([code[l] for l in w.letters])

    def word(self, seg: str) -> Word:
        """Decode one segment; words are immutable, so decodings are shared."""
        out = self._words.get(seg)
        if out is None:
            letters = self.letters
            out = self._words[seg] = Word(tuple([letters[ord(c) - _CODE_BASE] for c in seg]))
        return out

    def substitution(self, variables, values) -> Substitution:
        return Substitution(tuple(zip(variables, map(self.word, values))))


def _values_key(vals) -> tuple:
    # coded segments in sorted variable order, each compared shortlex
    return tuple((len(seg), seg) for seg in vals)


def _scan_matches(
    pattern: Word,
    target: str,
    erasing: bool,
    limit: int,
    spent: int,
    on_match,
    other: Word | None = None,
    key: tuple | None = None,
) -> tuple[int, tuple | None]:
    """Drive ``on_match(values, start, end)`` over every factor match of
    the pattern into the coded target, and return ``(spent, key)``:
    ``spent`` plus the nodes this walk took, and the bound key as the walk
    left it.

    ``values`` holds one coded segment per pattern variable in sorted
    variable order and is mutated in place; callbacks must copy whatever
    they keep.  The matched span is ``target[start:end]``.  The same
    assignment can reach the callback once per start position.

    The walk backtracks, with an explicit stack, over the start position
    and the segment of each variable at its first occurrence; later
    occurrences only compare.  Three sound prunes keep the tree small, all
    resting on one fact: the images of the later occurrences of a variable
    lie to the right of the current target position and are disjoint, and
    ``str.count(seg, start)`` is the largest number of disjoint copies of
    ``seg`` in ``target[start:]``.  First, segments already bound in the
    rest of the pattern must still fit into the remaining room.  Second,
    the occurrence lookahead on the own variable: a nonempty segment
    bound at ``target[e0:e]`` to a variable read c more times needs c
    copies in ``target[e:]``.  A longer segment has no more copies to its
    right than its own prefix has, so the first segment that fails ends
    the block.  Third, the lookahead on the live images: before a block
    opens at position p, each nonempty image read c more times from there
    on needs c copies in ``target[p:]``, or the block is not opened.  Every
    start position and every candidate binding is one node, and the walk
    raises :class:`BudgetExceededError` at the node that takes the count
    past ``limit``.

    With ``other`` given (a word over the same variables), a match whose
    erased variables E already make ``pattern`` and ``other`` equal as
    words once E is deleted is skipped along with its whole subtree: E
    only grows deeper in the walk and the equality is upward-closed in E,
    so no completion is reported.  The test is memoized by bitmask of E.

    The walk is a branch and bound for the least :func:`_values_key`.  It
    owns the key: it starts from ``key`` (None, or the key an earlier walk
    returned), and when ``on_match`` returns a true value the walk takes
    the key of that match as the new key.  While the key is None nothing
    compares, so a walk whose callback never returns true is the plain
    walk.  The cut: a binding that lengthens the bound prefix of the
    sorted variables compares that whole prefix with the key, from
    variable 0, and cuts the subtree when the first pair that differs
    compares greater, or when no pair differs and the prefix covers every
    variable.  Every completion then compares greater, or equal.  Only
    keys below the current key reach ``on_match``.  A bound cut ends its
    block, as the own lookahead does.

    **Invariant.** No open prefix compares greater than the key.  A
    greater one is cut at the binding that forms it, and the key changes
    only to the values of the current path, which every open prefix
    equals.  A seeded key is set before any prefix is bound.  So a pair
    that differs before the variables a binding adds is smaller, and the
    path it leaves below the key is walked on with no state kept.

    **Lemma.** Skipping the rest of a block after its first bound cut
    changes nothing but the node count.

    **Proof.** Say the bound cuts block d at segment length s.  Block d
    binds its variable a = ``block_var[d]``, the first variable it adds to
    the prefix.  Every segment of block d shares the variables before a;
    by the invariant they compare no greater than the key, and the cut
    found no smaller pair, so they equal it.  At length s the pair
    ``(s, seg)`` compares at least ``key[a]``: it is greater, or equal
    with a later variable greater or the prefix complete.  Shortlex
    compares length first, so every longer segment of the block compares
    strictly greater at a.  The key changes only at an ``on_match`` call
    that returns true, and only falls, so by induction over the longer
    segments, in the walk one step at a time each of them ends in a bound
    cut against the same key, a failed run or the own lookahead: none
    calls ``on_match`` and none opens a block.
    ``events`` has risen at the first cut, so the same subtrees are
    recorded dead.  The ``on_match`` calls are the same, in the same
    order.  A walk whose key stays None never cuts and is untouched.

    A dead-state memo keeps the walk from proving the same dead end once
    per path.  The state of block d is (d, its start in the target, the
    images of the variables bound before d that are read again at or after
    d); those are the variables of ``room_terms[d]``.  When the subtree of
    a block is exhausted with no ``on_match`` call and no bound cut, its
    state is recorded dead together with its mask of erased variables (one
    mask per state, the last recorded).  A later block with the same state
    is skipped when its mask contains the recorded one.  That is sound:
    below block d the room, run and lookahead checks read only the target,
    the block starts, the live images and what the subtree binds, so both
    openings try the same candidates, and the trivial-erasure cut is
    upward-closed in the mask, so the larger mask cuts at least as much.
    With the bound set aside, the skipped subtree therefore has no
    complete match either.  The bound reads images that need not be live,
    which is why a subtree with a bound cut is never recorded; a skipped
    block counts as neither, since it has nothing to report with or
    without the bound.  The lookahead cuts are not bound cuts: a subtree
    they exhaust holds no complete match, so it is still recorded dead.
    The memo is sound whatever it keeps, so dropping a record costs only
    nodes.  The lookahead and the memo skip only subtrees that report
    nothing, so ``on_match`` sees exactly the calls of the plain walk, in
    the same order, and only the node count falls.
    """
    variables = sorted(pattern.alphabet)
    var_index = {v: i for i, v in enumerate(variables)}
    pat = [var_index[c] for c in pattern.letters]
    n = len(target)
    k = len(variables)
    # The pattern splits into k blocks, one per variable in order of first
    # occurrence: that occurrence, then the run of bound variables after it.
    block_var: list[int] = []
    runs: list[list[int]] = []
    for vi in pat:
        if vi in block_var:
            runs[-1].append(vi)
        else:
            block_var.append(vi)
            runs.append([])
    # Room terms per block: later occurrence counts of the variables bound
    # before it, and of its own variable.
    later_own: list[int] = []
    room_terms: list[list[tuple[int, int]]] = []
    pos = 0
    for d, vi in enumerate(block_var):
        pos += 1
        later = [0] * k
        for j in pat[pos:]:
            later[j] += 1
        later_own.append(later[vi])
        room_terms.append([(j, later[j]) for j in block_var[:d] if later[j]])
        pos += len(runs[d])

    if other is None:
        trivial = None
    else:
        other_idx = [var_index[c] for c in other.letters]
        trivial = {}

    def is_trivial(mask: int) -> bool:
        hit = trivial.get(mask)
        if hit is None:
            hit = trivial[mask] = [i for i in pat if not mask >> i & 1] == [
                i for i in other_idx if not mask >> i & 1
            ]
        return hit

    # ends[d] is the length of the bound prefix of the sorted variables
    # after block d, or 0 when block d lengthens nothing.
    ends = [0] * k
    bound_vars: set[int] = set()
    hi = 0
    for d, vi in enumerate(block_var):
        bound_vars.add(vi)
        while hi in bound_vars:
            hi += 1
            ends[d] = hi

    # The dead-state memo; live[d] reads the images in the state of block d.
    live = [
        operator.itemgetter(*[j for j, _ in terms]) if terms else None for terms in room_terms
    ]
    dead: dict[tuple, int] = {}  # state -> mask its subtree was dead under
    states: list[tuple | None] = [None] * k  # state of open block d
    marks = [0] * k  # events when block d opened
    events = 0  # on_match calls plus bound cuts so far

    values: list[str | None] = [None] * k
    low = 0 if erasing else 1
    count = target.count
    startswith = target.startswith
    base = [0] * k  # target position where block d starts
    masks = [0] * k  # erased variables bound before block d
    nxt = [0] * k  # next segment length to try in block d
    top = [0] * k  # longest segment that still leaves room in block d

    def open_block(d: int, end: int, mask: int) -> None:
        room = n - end
        for j, c in room_terms[d]:
            room -= c * len(values[j])
        base[d] = end
        masks[d] = mask
        nxt[d] = low
        top[d] = room // (1 + later_own[d])

    last = k - 1
    for start in range(n + 1):
        spent += 1
        if spent > limit:
            raise _matcher_exhausted(limit, spent)
        open_block(0, start, 0)
        d = 0
        while d >= 0:
            step = nxt[d]
            if step > top[d]:
                if d and events == marks[d]:
                    dead[states[d]] = masks[d]
                d -= 1
                continue
            nxt[d] = step + 1
            spent += 1
            if spent > limit:
                raise _matcher_exhausted(limit, spent)
            vi = block_var[d]
            e0 = base[d]
            seg = target[e0 : e0 + step]
            mask = masks[d]
            if step:
                # str.count from a start counts disjoint copies to its right
                c = later_own[d]
                if c and count(seg, e0 + step) < c:
                    nxt[d] = top[d] + 1  # longer segments have no more
                    continue
            else:
                mask |= 1 << vi
                if trivial is not None and is_trivial(mask):
                    continue
            values[vi] = seg
            end = e0 + step
            for j in runs[d]:
                s = values[j]
                if not startswith(s, end):
                    break
                end += len(s)
            else:
                b = ends[d]
                if b and key is not None:
                    i = 0
                    while i < b and values[i] == key[i][1]:
                        i += 1
                    if i == k or i < b and (len(values[i]), values[i]) > key[i]:
                        events += 1
                        nxt[d] = top[d] + 1  # longer segments compare greater
                        continue
                if d == last:
                    events += 1
                    if on_match(values, start, end):
                        key = _values_key(values)
                else:
                    # each live image needs its later copies right of end
                    for j, c in room_terms[d + 1]:
                        s = values[j]
                        if s and count(s, end) < c:
                            break
                    else:
                        images = live[d + 1]
                        state = (d + 1, end, images(values)) if images else (d + 1, end)
                        m = dead.get(state)
                        if m is None or m & mask != m:
                            d += 1
                            states[d] = state
                            marks[d] = events
                            open_block(d, end, mask)
    return spent, key


def _distinct_matches(
    pattern: Word, target: Word, erasing: bool, budget: int
) -> tuple[list[Letter], list[Word], list[tuple[int, ...]]]:
    """The distinct factor matches of the pattern into the target.

    Returns the sorted variables, the distinct images in shortlex order,
    and one row per distinct match: the index in the images of each
    variable's image, in variable order, the rows sorted as tuples.  One
    walk of :func:`_scan_matches` numbers each segment the first time it
    is bound; the segments are then ranked once by ``(len, seg)``, which
    is shortlex (see :class:`_Coding`), and each row is remapped to ranks.
    Rank order is ``(len, seg)`` order, so lexicographic order on rank
    tuples is :func:`_values_key` order.
    """
    if len(pattern) == 0:
        raise ValueError("pattern must be nonempty")
    coding = _Coding(target.alphabet)
    ids = collections.defaultdict(itertools.count().__next__)  # segment -> number
    found: set[tuple] = set()

    def on_match(values, start, end):
        found.add(tuple(map(ids.__getitem__, values)))

    _scan_matches(pattern, coding.encode(target), erasing, budget, 0, on_match)
    segs = sorted(ids, key=lambda seg: (len(seg), seg))
    rank = {ids[seg]: r for r, seg in enumerate(segs)}
    # popping frees each numbered row as its ranked copy is made
    rows = sorted(tuple(map(rank.__getitem__, found.pop())) for _ in range(len(found)))
    return sorted(pattern.alphabet), list(map(coding.word, segs)), rows


def match_pattern(
    pattern: Word,
    target: Word,
    erasing: bool = True,
    budget: int = DEFAULT_MATCH_BUDGET,
) -> list[Substitution]:
    """All substitutions sending the pattern to a factor of the target.

    Enumerated by backtracking over the start position and per-variable
    segment lengths, with repeated variables pruned to their first
    binding.  The result is deduplicated and sorted by the images of the
    variables in letter order, each image shortlex.
    """
    variables, images, rows = _distinct_matches(pattern, target, erasing, budget)
    image = images.__getitem__
    return [Substitution(tuple(zip(variables, map(image, row)))) for row in rows]


def scan_matches(
    pattern: Word,
    target: Word,
    on_match,
    erasing: bool = True,
    budget: int = DEFAULT_MATCH_BUDGET,
) -> None:
    """Streaming form of :func:`match_pattern`.

    Calls ``on_match(substitution)`` for every factor match without
    materializing the result list, so memory stays flat however many
    matches there are.  Unlike :func:`match_pattern` the stream is not
    deduplicated: a substitution whose image occurs at several positions
    is reported once per position.
    """
    if len(pattern) == 0:
        raise ValueError("pattern must be nonempty")
    coding = _Coding(target.alphabet)
    variables = sorted(pattern.alphabet)

    def handle(values, start, end):
        on_match(coding.substitution(variables, values))

    _scan_matches(pattern, coding.encode(target), erasing, budget, 0, handle)


def check_rees(
    word_set: WordSet, ident: Identity, budget: int = DEFAULT_MATCH_BUDGET
) -> CheckOutcome:
    """Decide satisfaction in ``M(W)`` without enumerating the table.

    When the two sides use different alphabets the identity always fails:
    sending one extra letter to zero and the rest to the empty word makes
    the sides 0 and 1.  Otherwise any failing substitution is word-valued
    and makes at least one side a factor of some source word, so it is
    enough to enumerate factor matches of each side and require the other
    side's image to be the very same word.  Matches are streamed and only
    the least mismatch is retained, so memory stays flat even when the
    match count is large.

    Matches that erase a variable set E with ``u`` and ``v`` equal as
    words once E is deleted send both sides to the same word, so they can
    never be witnesses.  The matcher cuts each such subtree at the erase
    decision that makes it trivial, at no budget cost beyond that
    decision's tick (the deletion argument for M(W) of Jackson and Sapir,
    "Finitely based, finite sets of words", 2000).

    The witness is the least mismatch under :func:`_values_key` (the
    images in sorted variable order, each shortlex), and the search is a
    branch and bound for it: once a mismatch is known, the matcher
    compares the whole bound prefix of sorted variables with the best key
    at each binding that lengthens it, and cuts the subtree when the
    prefix compares greater, or equal to all of the key; a cut ends its
    block, since every longer segment there compares greater too (see
    :func:`_scan_matches`).  The matcher keeps the key and hands it from
    each walk to the next, and the witness is read back from the key the
    last walk returns.  It is the one the full walk would keep, and a
    search that finds no mismatch sets no bound.  The matcher also skips
    every block whose state it has already shown to be a dead end, a
    subtree with no match to report (its dead-state memo), so a HOLDS
    search proves each dead end once per state and not once per path, and
    it cuts every binding whose variables, bound or being bound, have too
    few disjoint copies to the right of the current position for their
    later occurrences (its occurrence lookahead).  ``evaluations``
    counts the matches examined that were neither trivial nor cut by the
    bound, and the memo and the lookahead leave it unchanged.
    """
    alf_l = ident.lhs.alphabet
    alf_r = ident.rhs.alphabet
    if alf_l != alf_r:
        lone = min(alf_l ^ alf_r)
        assignment = {v: (ZERO if v == lone else EPSILON) for v in alf_l | alf_r}
        return CheckOutcome(FAILS, Substitution.of(assignment), 1)
    if ident.lhs == ident.rhs:
        return CheckOutcome(HOLDS, None, 0)
    spent = 0  # matcher nodes, summed over every scan
    # one coding for the whole set, so witness keys compare across words
    coding = _Coding(frozenset().union(*(w.alphabet for w in word_set)))
    variables = ident.variables
    var_index = {v: i for i, v in enumerate(variables)}
    examined = 0
    key = None  # the least mismatch so far, carried from walk to walk
    for u, v in ((ident.lhs, ident.rhs), (ident.rhs, ident.lhs)):
        v_idx = [var_index[c] for c in v.letters]
        for w in word_set:
            tgt = coding.encode(w)

            def on_match(values, start, end, _tgt=tgt, _v_idx=v_idx):
                nonlocal examined
                examined += 1
                # only keys below the current one get here, so a mismatch is the new key
                return "".join([values[i] for i in _v_idx]) != _tgt[start:end]

            spent, key = _scan_matches(u, tgt, True, budget, spent, on_match, v, key)
    if key is not None:
        witness = coding.substitution(variables, [seg for _, seg in key])
        return CheckOutcome(FAILS, witness, examined)
    return CheckOutcome(HOLDS, None, examined)


_SIGMA_TEXTS = (
    "x^3=x^4",
    "x^3y=yx^3",
    "yzx^3=xyxzx",
    "xyzxty=yxzxty",
    "xzytxy=xzytyx",
)

_LEE_LI_TEXTS = (
    "x^3=x^4",
    "yzx^3=xyxzx",
    "x^3y^3=y^3x^3",
    "ytx^3y=ytyx^3",
    "xyzxty=yxzxty",
    "xzytxy=xzytyx",
)


def basis(name: str) -> list[Identity]:
    """One of the fixed identity lists: SIGMA (5) or LEE_LI (6)."""
    key = name.strip().upper()
    if key == "SIGMA":
        texts = _SIGMA_TEXTS
    elif key == "LEE_LI":
        texts = _LEE_LI_TEXTS
    else:
        raise UnknownBasisError(f"unknown basis {name!r}; choose SIGMA or LEE_LI")
    return [parse_identity(t) for t in texts]


def separation_identity(n: int) -> Identity:
    """The identity equating w_n with x^2 times w_n stripped of x."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    wn = generate_wn(n)
    x = Letter("x")
    return Identity(wn, Word((x, x)) + delete_letter(wn, x))


def check_star_property(wn: Word, wk: Word, subst: Substitution) -> bool:
    """Check the two-occurrence alignment property of a factor match.

    For every multiple letter c of the pattern, its image must be empty
    or a single letter d, multiple in the target, with the images of the
    two c occurrences landing exactly on the first and second occurrences
    of d.  The substitution must be a genuine factor match; its placement
    is recomputed here and the property must hold at every placement.

    Claim C11 does not call this per match: it checks the two premises of
    the alignment lemma on the target (see ``_alignment_premise`` in
    :mod:`monoidlab.verify`).  This function is the per-match oracle that
    the tests check the lemma against.
    """
    image = subst.apply(wn)
    tk = wk.letters
    img = image.letters
    starts = [
        s for s in range(len(tk) - len(img) + 1) if tk[s : s + len(img)] == img
    ]
    if not starts:
        raise ValueError("substitution does not send the pattern into the target")
    mapping = subst.as_dict()
    offsets = list(itertools.accumulate((len(mapping[c]) for c in wn.letters), initial=0))
    pos_k = letter_positions(wk)
    for c, occ in letter_positions(wn).items():
        img_c = mapping[c]
        if len(occ) < 2 or len(img_c) == 0:
            continue
        if len(img_c) != 1:
            return False
        # d sits at two positions of the placed image, so it is multiple
        # in the target
        d = img_c.letters[0]
        first_two = pos_k[d][:2]
        o1, o2 = offsets[occ[0]], offsets[occ[1]]
        if any(first_two != [s + o1, s + o2] for s in starts):
            return False
    return True


def check_no_div_instance(w: Word, subst: Substitution, a: Word, b: Word) -> bool:
    """Check one instance of the first-occurrence containment property.

    Builds u = a phi(w) b and verifies that the image segment of the
    first occurrence of every letter x of finite positive depth in w
    contains no position that is the first occurrence in u of a letter
    whose depth in u is smaller than the depth of x in w.
    """
    mapping = subst.as_dict()
    pos_w = letter_positions(w)
    for letter in pos_w:
        if letter not in mapping:
            raise KeyError(f"substitution does not cover {letter}")
    images = [mapping[c] for c in w.letters]
    u = a + Word(tuple(itertools.chain.from_iterable(img.letters for img in images))) + b
    dw = depth_map(w)
    du = depth_map(u)
    pos_u = letter_positions(u)
    offsets = list(itertools.accumulate(map(len, images), initial=len(a)))
    for x, occ in pos_w.items():
        dx = dw[x]
        if dx == 0 or dx == INFINITY:
            continue
        p = occ[0]
        for q in range(offsets[p], offsets[p + 1]):
            d = u.letters[q]
            if pos_u[d][0] == q and du[d] < dx:
                return False
    return True
