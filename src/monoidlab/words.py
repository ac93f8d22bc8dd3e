"""Structured letters and words, the depth function, and word predicates.

A letter is a lowercase base symbol with an optional nonnegative integer
subscript and superscript, enough to spell families like ``z_1``, ``t_3``
or ``y_2^4``.  A word is a finite, possibly empty, sequence of letters.
Letters order lexicographically on (base, subscript, superscript) with an
absent index sorting before any present one; words order shortlex.  That
single order is used for every canonical enumeration in the package.

Text syntax, accepted by :func:`parse_word` and emitted by ``str()``:

* compact: a run of plain lowercase letters, e.g. ``aabb``; a caret
  denotes repetition (``x^3`` parses as ``xxx``),
* dotted: tokens separated by ``.``, each ``base[_sub][^sup]``, e.g.
  ``z_1.t_1.x.z_1.y_1^1.x.y_1^0.y_1^1``; here a caret is a superscript,
  and one trailing dot is allowed, which is how a one-letter word with a
  superscript and no subscript is spelled (``y^2.``, as ``y^2`` is
  compact for ``yy``),
* the empty word is spelled ``1``.

A text is parsed in dotted mode exactly when it contains a dot or an
underscore, so every word the emitters produce parses back to an equal
value (the emitters never use the repetition shorthand).
"""

from __future__ import annotations

import itertools
import re
from collections import Counter
from dataclasses import dataclass
from functools import total_ordering

from .errors import ParseError

INFINITY = float("inf")

_TOKEN_RE = re.compile(r"([a-z])(?:_(\d+))?(?:\^(\d+))?")


class Letter(tuple):
    """An alphabet symbol: lowercase base plus optional sub/superscript.

    A letter is the int tuple ``(ord(base), sub, sup)`` with -1 for an
    absent index, so equality, hashing and the letter order are the
    tuple's own, and the hash is the same under every PYTHONHASHSEED.  One
    consequence: a letter equals the plain tuple of the same ints, e.g.
    ``Letter("x") == (120, -1, -1)``.  No container in the package mixes
    letters with raw int tuples.
    """

    __slots__ = ()

    def __new__(cls, base: str, sub: int | None = None, sup: int | None = None) -> "Letter":
        if not (isinstance(base, str) and len(base) == 1 and "a" <= base <= "z"):
            raise ValueError(f"letter base must be one lowercase ascii letter, got {base!r}")
        for part in (sub, sup):
            if part is not None and (not isinstance(part, int) or isinstance(part, bool) or part < 0):
                raise ValueError(f"subscript and superscript must be None or ints >= 0, got {part!r}")
        return tuple.__new__(cls, (ord(base), -1 if sub is None else sub, -1 if sup is None else sup))

    def __getnewargs__(self) -> tuple:
        base, sub, sup = self
        return chr(base), (None if sub < 0 else sub), (None if sup < 0 else sup)

    def __repr__(self) -> str:
        return "Letter(base={!r}, sub={!r}, sup={!r})".format(*self.__getnewargs__())

    def __str__(self) -> str:
        base, sub, sup = self
        if sub < 0:
            return chr(base) if sup < 0 else f"{chr(base)}^{sup}"
        return f"{chr(base)}_{sub}" if sup < 0 else f"{chr(base)}_{sub}^{sup}"


@total_ordering
@dataclass(frozen=True)
class Word:
    """A finite sequence of letters; the empty word is the identity."""

    letters: tuple[Letter, ...] = ()

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __getitem__(self, index):
        return self.letters[index]

    def __add__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def shortlex_key(self) -> tuple:
        return (len(self.letters), self.letters)

    def __lt__(self, other: "Word") -> bool:
        return self.shortlex_key() < other.shortlex_key()

    @property
    def alphabet(self) -> frozenset[Letter]:
        return frozenset(self.letters)

    def __str__(self) -> str:
        # words are immutable, so each one is spelled once; the memo sits in
        # the instance dict outside the dataclass fields, so equality and
        # hashing ignore it (a plain memo: before Python 3.12,
        # functools.cached_property takes a lock on each first access)
        text = self.__dict__.get("_text")
        if text is None:
            text = self.__dict__["_text"] = _spell(self.letters)
        return text


class _LetterTexts(dict):
    """``str(letter)`` per letter, each computed on first use."""

    def __missing__(self, letter: Letter) -> str:
        text = self[letter] = str(letter)
        return text


_LETTER_TEXT = _LetterTexts()


def _spell(letters: tuple[Letter, ...]) -> str:
    if not letters:
        return "1"
    parts = list(map(_LETTER_TEXT.__getitem__, letters))
    text = "".join(parts)
    if len(text) == len(letters):
        # a plain letter spells as one character, any other as at least
        # three, so the letters are all plain
        return text
    if len(letters) == 1 and letters[0][1] < 0:
        # the trailing dot keeps y^2 dotted when read back
        return text + "."
    return ".".join(parts)


EPSILON = Word()


def _parse_dotted(text: str) -> list[Letter]:
    out = []
    pos = 0
    for raw in text.removesuffix(".").split("."):
        tok = raw.strip()
        at = pos + len(raw) - len(raw.lstrip())
        if not tok:
            raise ParseError("empty token in dotted word", at)
        m = _TOKEN_RE.fullmatch(tok)
        if not m:
            raise ParseError(f"bad letter token {tok!r}", at)
        base, sub, sup = m.groups()
        out.append(Letter(base, int(sub) if sub is not None else None, int(sup) if sup is not None else None))
        pos += len(raw) + 1
    return out


def _parse_compact(text: str) -> list[Letter]:
    out: list[Letter] = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if not ("a" <= c <= "z"):
            raise ParseError(f"unexpected character {c!r}", i)
        i += 1
        if i < len(text) and text[i] == "^":
            j = i + 1
            while j < len(text) and text[j].isdecimal():   # what int() accepts
                j += 1
            if j == i + 1:
                raise ParseError("caret must be followed by digits", i)
            out.extend([Letter(c)] * int(text[i + 1 : j]))
            i = j
        else:
            out.append(Letter(c))
    return out


def parse_word(text: str) -> Word:
    """Parse either word syntax; ``1`` is the empty word."""
    s = text.strip()
    if not s:
        raise ParseError("empty word text; the empty word is spelled 1", 0)
    if s == "1":
        return EPSILON
    # the parsers skip leading whitespace, so positions count from text[0]
    if "." in s or "_" in s:
        return Word(tuple(_parse_dotted(text.rstrip())))
    return Word(tuple(_parse_compact(text)))


def parse_words(text: str, sep: str) -> list[Word]:
    """The words of ``text`` between the separators ``sep``; an error's
    position counts from the start of ``text``."""
    words, start = [], 0
    for part in text.split(sep):
        try:
            words.append(parse_word(part))
        except ParseError as exc:
            raise ParseError(exc.message, exc.position + start) from None
        start += len(part) + len(sep)
    return words


@dataclass(frozen=True)
class AlphabetProfile:
    """Alphabet of a word split into simple and multiple letters."""

    alf: frozenset[Letter]
    simple: frozenset[Letter]
    multiple: frozenset[Letter]


def alphabet_profile(w: Word) -> AlphabetProfile:
    """Letters of ``w`` partitioned by occurrence count (one vs. several)."""
    counts = Counter(w.letters)
    simple = frozenset(l for l, c in counts.items() if c == 1)
    multiple = frozenset(l for l, c in counts.items() if c >= 2)
    return AlphabetProfile(frozenset(counts), simple, multiple)


def delete_letter(w: Word, x: Letter) -> Word:
    """``w`` with every occurrence of ``x`` removed."""
    return Word(tuple(l for l in w.letters if l != x))


def occurrence_positions(w: Word, x: Letter) -> list[int]:
    """Strictly increasing 1-based positions of ``x`` in ``w``."""
    return [i + 1 for i, l in enumerate(w.letters) if l == x]


def letter_positions(w: Word) -> dict[Letter, list[int]]:
    """Strictly increasing 0-based positions of every letter of ``w``,
    found in one pass; keys are in order of first occurrence."""
    positions: dict[Letter, list[int]] = {}
    for i, l in enumerate(w.letters):
        positions.setdefault(l, []).append(i)
    return positions


def factor_trie(sequences, limit=INFINITY):
    """The distinct contiguous factors of some tuples, the empty one
    included, sorted shortlex (by length, then by element), as a list
    ``factors`` with a list ``parent``: each nonempty ``factors[i]`` is
    ``factors[parent[i]]`` followed by one element, and ``parent[0]`` is 0.

    Every suffix of every tuple goes into a trie of dicts, one element at
    a time, so the trie's nodes are the factors: O(L^2) dict steps for
    length L.  If a suffix leaves more than ``limit`` nodes, insertion
    stops and the node count so far, an int, is returned in place of the
    lists.  The nodes are distinct factors, so that count is a lower
    bound on the number of factors; it exceeds ``limit`` by at most the
    length of the last suffix inserted.

    **Lemma.** A breadth-first walk that visits each node's children in
    sorted order lists the nodes by length, then by parent, then by last
    element, which is shortlex order.  **Proof.** The walk visits the
    nodes of each length after all shorter ones.  Induct on the length:
    the nodes of length k come out sorted, so their children come out
    sorted by parent, then by last element; two factors of length k + 1
    compare as their first k elements, the parents, and then as their
    last elements.
    """
    root, count = {}, 1
    for seq in sequences:
        for i in range(len(seq)):
            node = root
            for x in itertools.islice(seq, i, None):
                if (child := node.get(x)) is None:
                    child = node[x] = {}
                    count += 1
                node = child
            if count > limit:
                return count
    nodes, factors, parent = [root], [()], [0]
    for i, node in enumerate(nodes):   # nodes grows as the walk goes
        for x in sorted(node):
            nodes.append(node[x])
            factors.append(factors[i] + (x,))
            parent.append(i)
    return factors, parent


def factors(w: Word) -> list[Word]:
    """All contiguous factors of ``w`` including the empty word, shortlex sorted."""
    return [Word(t) for t in factor_trie([w.letters])[0]]


def depth_map(w: Word) -> dict[Letter, int | float]:
    """Depth of every letter of ``w``.

    Simple letters have depth 0.  A multiple letter gets depth k when some
    letter of depth k-1 has its first occurrence strictly between the
    first and second occurrences of the letter (later occurrences are
    ignored).  Letters never reached this way get :data:`INFINITY`.
    Computed as a round-based fixpoint; each round only consults the
    letters assigned in the previous round, so the result is minimal.
    """
    pos = letter_positions(w)
    depths: dict[Letter, int | float] = {l: 0 for l, p in pos.items() if len(p) == 1}
    unassigned = {l for l, p in pos.items() if len(p) > 1}
    frontier = set(depths)
    k = 0
    while unassigned and frontier:
        k += 1
        newly = set()
        for x in unassigned:
            lo, hi = pos[x][:2]
            if any(lo < pos[d][0] < hi for d in frontier):
                newly.add(x)
        for x in newly:
            depths[x] = k
        unassigned -= newly
        frontier = newly
    for x in unassigned:
        depths[x] = INFINITY
    return depths


def generate_wn(n: int) -> Word:
    """The n-th member of the separating word family.

    The word is the product of a block of z_i t_i pairs, a first marker
    x, a block of z_i y_i^(n) pairs, a second marker x, and n sweeps of
    y_i^(n-j) y_i^(n+1-j) pairs.  Its length is 2(n+1)^2 and its alphabet
    has n(n+3)+1 letters.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    x = Letter("x")
    parts: list[Letter] = []
    for i in range(1, n + 1):
        parts += [Letter("z", i), Letter("t", i)]
    parts.append(x)
    for i in range(1, n + 1):
        parts += [Letter("z", i), Letter("y", i, n)]
    parts.append(x)
    for j in range(1, n + 1):
        for i in range(1, n + 1):
            parts += [Letter("y", i, n - j), Letter("y", i, n + 1 - j)]
    return Word(tuple(parts))


def is_square_free(w: Word) -> bool:
    """True when no factor of ``w`` has the shape uu with u nonempty."""
    ls = w.letters
    n = len(ls)
    for i in range(n):
        for half in range(1, (n - i) // 2 + 1):
            if ls[i : i + half] == ls[i + half : i + 2 * half]:
                return False
    return True


@dataclass(frozen=True)
class Length2Profile:
    """Occurrence structure of the length-2 factors of a word."""

    all_unique: bool
    all_first_last: bool


def length2_profile(w: Word) -> Length2Profile:
    """Checks the length-2 factors of ``w`` (requires ``len(w) >= 2``).

    ``all_unique`` holds when every length-2 factor occurs at exactly one
    position.  ``all_first_last`` holds when every adjacent pair combines
    the first occurrence of one letter with the last occurrence of the
    other, in either order; a sole occurrence counts as both.
    """
    ls = w.letters
    n = len(ls)
    if n < 2:
        raise ValueError("length2_profile needs a word of length at least 2")
    pair_counts = Counter(ls[i : i + 2] for i in range(n - 1))
    all_unique = all(c == 1 for c in pair_counts.values())
    pos = letter_positions(w)
    all_first_last = True
    for p in range(n - 1):
        o1, o2 = pos[ls[p]], pos[ls[p + 1]]
        forward = o1[0] == p and o2[-1] == p + 1
        backward = o1[-1] == p and o2[0] == p + 1
        if not (forward or backward):
            all_first_last = False
            break
    return Length2Profile(all_unique, all_first_last)


def min_nonlinear_simplefree_factor(w: Word) -> int | None:
    """Least length of a factor with a repeated letter and no letter simple in ``w``.

    Returns None when every such factor is linear (or none exists).
    """
    ls = w.letters
    n = len(ls)
    simple = alphabet_profile(w).simple
    for length in range(2, n + 1):
        for i in range(n - length + 1):
            seg = ls[i : i + length]
            if len(set(seg)) < length and not (set(seg) & simple):
                return length
    return None


@dataclass(frozen=True)
class WordSet:
    """A finite set of nonempty words with deterministic shortlex iteration."""

    words: tuple[Word, ...] = ()

    @classmethod
    def of(cls, words) -> "WordSet":
        uniq = set()
        for w in words:
            if len(w) == 0:
                raise ValueError("word sets contain nonempty words only")
            uniq.add(w)
        return cls(tuple(sorted(uniq, key=Word.shortlex_key)))

    def __iter__(self):
        return iter(self.words)

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, w: Word) -> bool:
        return w in self.words

    def issubset(self, other: "WordSet") -> bool:
        mine = set(self.words)
        return mine <= set(other.words)

    def __str__(self) -> str:
        return ",".join(str(w) for w in self.words)
