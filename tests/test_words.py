"""Letters, words, parsing, depth, and the structural predicates."""

from __future__ import annotations

import copy
import os
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from monoidlab import (
    EPSILON,
    INFINITY,
    Length2Profile,
    Letter,
    ParseError,
    Word,
    WordSet,
    alphabet_profile,
    delete_letter,
    depth_map,
    factors,
    generate_wn,
    is_square_free,
    length2_profile,
    letter_positions,
    match_pattern,
    min_nonlinear_simplefree_factor,
    occurrence_positions,
    parse_word,
)

W1_TEXT = "z_1.t_1.x.z_1.y_1^1.x.y_1^0.y_1^1"


def L(text):
    return parse_word(text).letters[0]


def test_letter_ordering():
    assert Letter("t", 1) < Letter("x") < Letter("y", 1, 0) < Letter("y", 1, 1)
    assert Letter("y", 1, 1) < Letter("y", 2, 0) < Letter("z", 1)
    # an absent index sorts before any present one
    assert Letter("y") < Letter("y", 0) and Letter("y", 1) < Letter("y", 1, 0)


def test_letter_validation():
    with pytest.raises(ValueError):
        Letter("A")
    with pytest.raises(ValueError):
        Letter("ab")
    with pytest.raises(ValueError):
        Letter("a", sub=-1)
    # an index is None or a non-bool int, so none of these can be printed
    # as a letter that equals it or parses back
    for bad in (True, 1.5, "1"):
        with pytest.raises(ValueError):
            Letter("a", bad)
        with pytest.raises(ValueError):
            Letter("a", 1, bad)


letter_parts = st.tuples(
    st.sampled_from("abxyz"),
    st.one_of(st.none(), st.integers(0, 12)),
    st.one_of(st.none(), st.integers(0, 12)),
)


def _documented_key(base, sub, sup):
    return (ord(base), -1 if sub is None else sub, -1 if sup is None else sup)


@given(letter_parts, letter_parts)
def test_letter_equality_hash_and_order_are_the_keys(p, q):
    a, b = Letter(*p), Letter(*q)
    ka, kb = _documented_key(*p), _documented_key(*q)
    assert (a == b) == (ka == kb)
    assert hash(a) == hash(ka)
    assert (a < b) == (ka < kb)
    # a dot makes the text dotted, where a caret is always a superscript
    assert parse_word(f"{a}.{b}") == Word((a, b))
    loaded = pickle.loads(pickle.dumps(a))
    assert type(loaded) is Letter and loaded == a and repr(loaded) == repr(a)


def test_letter_hash_survives_pickling_across_hash_seeds():
    # a letter hashes as its tuple of ints, which no PYTHONHASHSEED changes,
    # so letters pickled by a process with another PYTHONHASHSEED must still
    # find their entries in a dict keyed by fresh equal letters
    import monoidlab

    src = os.path.dirname(os.path.dirname(os.path.abspath(monoidlab.__file__)))
    script = (
        "import pickle, sys\n"
        "from monoidlab import Letter\n"
        "letters = [Letter('x'), Letter('y', 1), Letter('y', 1, 0), Letter('z', None, 2)]\n"
        "sys.stdout.buffer.write(pickle.dumps(letters))\n"
    )
    fresh = [Letter("x"), Letter("y", 1), Letter("y", 1, 0), Letter("z", None, 2)]
    index = {l: i for i, l in enumerate(fresh)}
    for seed in ("1", "2", "3"):
        if seed == os.environ.get("PYTHONHASHSEED"):
            continue
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, check=True)
        loaded = pickle.loads(out.stdout)
        assert loaded == fresh
        assert [index[l] for l in loaded] == [0, 1, 2, 3]
        assert [hash(l) for l in loaded] == [hash(l) for l in fresh]


def test_parse_compact_and_power():
    assert str(parse_word("aabb")) == "aabb"
    assert parse_word("x^3") == parse_word("xxx")
    assert parse_word("x^0") == EPSILON
    assert parse_word("x^3y") == parse_word("xxxy")


def test_parse_dotted():
    w = parse_word(W1_TEXT)
    assert len(w) == 8
    assert w.letters[4] == Letter("y", 1, 1)
    assert parse_word(" z_1 . t_1 ") == Word((Letter("z", 1), Letter("t", 1)))


def test_parse_empty_word_spelling():
    assert parse_word("1") == EPSILON
    with pytest.raises(ParseError):
        parse_word("")
    with pytest.raises(ParseError):
        parse_word("a..b")
    with pytest.raises(ParseError):
        parse_word("a3")
    with pytest.raises(ParseError):
        parse_word("x^")


def test_parse_error_position_counts_leading_whitespace():
    with pytest.raises(ParseError) as info:
        parse_word("  a$")
    assert info.value.position == 3


@pytest.mark.parametrize("text, position", [(" a. $", 4), ("a. $", 3), ("a.. b", 2)])
def test_dotted_error_position_points_at_token(text, position):
    # whitespace after a dot is skipped; an empty token sits at its dot
    with pytest.raises(ParseError) as info:
        parse_word(text)
    assert info.value.position == position


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("x^", "caret must be followed by digits", 1),
        # a superscript two is a digit to str.isdigit but not to int()
        ("x^²", "caret must be followed by digits", 1),
        ("x^1²", "unexpected character '²'", 3),
    ],
)
def test_compact_error_message_and_position(text, message, position):
    with pytest.raises(ParseError) as info:
        parse_word(text)
    assert (info.value.message, info.value.position) == (message, position)


def test_caret_takes_any_decimal_digits():
    # int() reads every Unicode decimal digit, as the dotted tokens' \d does
    assert parse_word("x^٣") == parse_word("xxx")


def test_emit_roundtrip_examples():
    for text in ("aabb", "abab", W1_TEXT, "1", "z_1", "y^2.", "x.y^2"):
        assert str(parse_word(text)) == text
    # a superscript without a subscript: alone the word needs its trailing
    # dot, since y^2 is compact for yy
    assert parse_word("y^2.") == Word((Letter("y", None, 2),))
    assert parse_word("y^2") == parse_word("yy")
    with pytest.raises(ParseError):
        parse_word("y^2..")


def test_word_concat_and_order():
    a, b = parse_word("a"), parse_word("b")
    assert a + b == parse_word("ab")
    assert EPSILON + a == a
    # truth is length: the empty word is false, any other word true
    assert not EPSILON and bool(a)
    assert sorted([parse_word("b"), parse_word("aa"), EPSILON, a], key=Word.shortlex_key) == [
        EPSILON,
        a,
        parse_word("b"),
        parse_word("aa"),
    ]


def test_alphabet_profile_empty():
    prof = alphabet_profile(EPSILON)
    assert prof.alf == prof.simple == prof.multiple == frozenset()


def test_alphabet_profile_aabb():
    prof = alphabet_profile(parse_word("aabb"))
    assert prof.alf == {L("a"), L("b")}
    assert prof.simple == frozenset()
    assert prof.multiple == {L("a"), L("b")}


def test_alphabet_profile_w1():
    prof = alphabet_profile(generate_wn(1))
    assert prof.simple == {Letter("t", 1), Letter("y", 1, 0)}
    assert prof.multiple == {Letter("z", 1), Letter("y", 1, 1), Letter("x")}


def test_delete_letter():
    assert delete_letter(parse_word("aba"), L("a")) == parse_word("b")
    assert delete_letter(parse_word("aabb"), L("c")) == parse_word("aabb")
    assert delete_letter(generate_wn(1), Letter("x")) == parse_word(
        "z_1.t_1.z_1.y_1^1.y_1^0.y_1^1"
    )


def test_factors_frozen_lists():
    assert factors(EPSILON) == [EPSILON]
    assert [str(f) for f in factors(parse_word("aabb"))] == [
        "1", "a", "b", "aa", "ab", "bb", "aab", "abb", "aabb",
    ]
    assert [str(f) for f in factors(parse_word("abab"))] == [
        "1", "a", "b", "ab", "ba", "aba", "bab", "abab",
    ]


def test_occurrence_positions():
    assert occurrence_positions(parse_word("abab"), L("a")) == [1, 3]
    assert occurrence_positions(parse_word("aabb"), L("b")) == [3, 4]
    assert occurrence_positions(generate_wn(1), Letter("x")) == [3, 6]
    assert letter_positions(parse_word("abab")) == {L("a"): [0, 2], L("b"): [1, 3]}
    assert list(letter_positions(parse_word("bab"))) == [L("b"), L("a")]
    assert letter_positions(EPSILON) == {}
    w1 = generate_wn(1)
    assert letter_positions(w1)[Letter("x")] == [2, 5]
    assert all(
        [i + 1 for i in ps] == occurrence_positions(w1, x)
        for x, ps in letter_positions(w1).items()
    )
    assert occurrence_positions(parse_word("ab"), L("c")) == []


def test_depth_examples():
    assert depth_map(parse_word("aba")) == {L("b"): 0, L("a"): 1}
    assert depth_map(parse_word("abab")) == {L("a"): INFINITY, L("b"): INFINITY}


def test_depth_w2_table():
    expected = {
        Letter("t", 1): 0, Letter("t", 2): 0,
        Letter("y", 1, 0): 0, Letter("y", 2, 0): 0,
        Letter("z", 1): 1, Letter("z", 2): 1,
        Letter("y", 1, 1): 1, Letter("y", 2, 1): 1,
        Letter("y", 1, 2): 2, Letter("y", 2, 2): 2,
        Letter("x"): 3,
    }
    assert depth_map(generate_wn(2)) == expected


def test_depth_of_x_is_n_plus_one():
    for n in (1, 2, 3, 4):
        assert depth_map(generate_wn(n))[Letter("x")] == n + 1


def test_generate_wn_smallest():
    assert str(generate_wn(1)) == W1_TEXT
    assert len(generate_wn(1)) == 8


def test_generate_wn_closed_forms():
    for n in (1, 2, 3, 4):
        w = generate_wn(n)
        assert len(w) == 2 * (n + 1) ** 2
        assert len(w.alphabet) == n * (n + 3) + 1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_generate_wn_simple_letters(n):
    expected = {Letter("t", i) for i in range(1, n + 1)} | {
        Letter("y", i, 0) for i in range(1, n + 1)
    }
    prof = alphabet_profile(generate_wn(n))
    assert prof.simple == expected
    assert max(
        len(occurrence_positions(generate_wn(n), x)) for x in prof.alf
    ) == 2


def test_generate_wn_rejects_zero():
    with pytest.raises(ValueError):
        generate_wn(0)


def test_square_free():
    assert not is_square_free(parse_word("aabb"))
    assert is_square_free(parse_word("aba"))
    assert is_square_free(EPSILON)
    for n in (1, 2, 3, 4):
        assert is_square_free(generate_wn(n))


def test_length2_profile():
    prof = length2_profile(parse_word("aabb"))
    assert prof.all_unique and prof.all_first_last
    prof = length2_profile(parse_word("abab"))
    assert not prof.all_unique and not prof.all_first_last
    prof = length2_profile(generate_wn(1))
    assert prof.all_unique and prof.all_first_last
    with pytest.raises(ValueError):
        length2_profile(parse_word("a"))


def test_min_nonlinear_simplefree_factor():
    assert min_nonlinear_simplefree_factor(parse_word("abc")) is None
    assert min_nonlinear_simplefree_factor(generate_wn(1)) == 4
    for k in (1, 2, 3, 4):
        assert min_nonlinear_simplefree_factor(generate_wn(k)) == 2 * k + 2


def test_wordset_normalization():
    ws = WordSet.of([parse_word("b"), parse_word("a"), parse_word("b")])
    assert [str(w) for w in ws] == ["a", "b"]
    assert parse_word("a") in ws
    assert WordSet.of([parse_word("a")]).issubset(ws)
    assert not ws.issubset(WordSet.of([parse_word("a")]))
    with pytest.raises(ValueError):
        WordSet.of([EPSILON])


letters = st.builds(
    Letter,
    st.sampled_from("abcxyz"),
    st.one_of(st.none(), st.integers(0, 3)),
    st.one_of(st.none(), st.integers(0, 3)),
)
words = st.builds(lambda ls: Word(tuple(ls)), st.lists(letters, max_size=8))


@given(words)
def test_depth_zero_is_exactly_simple(w):
    depths = depth_map(w)
    simple = alphabet_profile(w).simple
    assert {l for l, d in depths.items() if d == 0} == set(simple)
    assert set(depths) == set(w.alphabet)


@given(words)
def test_depth_fixpoint_is_minimal(w):
    depths = depth_map(w)
    first = {}
    for i, l in enumerate(w.letters):
        first.setdefault(l, i)
    for x, dx in depths.items():
        positions = occurrence_positions(w, x)
        if dx == 0 or dx == INFINITY:
            if dx == INFINITY:
                between = {
                    d
                    for d in w.alphabet
                    if positions[0] - 1 < first[d] < positions[1] - 1
                }
                assert all(depths[d] == INFINITY for d in between)
            continue
        lo, hi = positions[0] - 1, positions[1] - 1
        certifying = {depths[d] for d in w.alphabet if lo < first[d] < hi}
        assert dx - 1 in certifying
        assert not any(level < dx - 1 for level in certifying)


@given(words)
def test_factors_are_contiguous_and_bounded(w):
    fs = factors(w)
    n = len(w)
    assert len(fs) <= n * (n + 1) // 2 + 1
    text = w.letters
    for f in fs:
        assert any(
            text[i : i + len(f)] == f.letters for i in range(n - len(f) + 1)
        ) or len(f) == 0


@given(words, letters)
def test_delete_letter_removes_all(w, x):
    out = delete_letter(w, x)
    assert x not in out.alphabet
    assert len(out) == len(w) - len(occurrence_positions(w, x))


@given(words)
def test_parser_emit_roundtrip(w):
    assert parse_word(str(w)) == w


@given(
    st.one_of(
        words.filter(lambda w: len(w) >= 2),
        st.text("abc", min_size=2, max_size=10).map(parse_word),
    )
)
def test_length2_profile_matches_definition(w):
    ls = w.letters
    pairs = [ls[p : p + 2] for p in range(len(ls) - 1)]
    unique = all(pairs.count(pair) == 1 for pair in pairs)

    def first(p):
        return occurrence_positions(w, ls[p])[0] == p + 1

    def last(p):
        return occurrence_positions(w, ls[p])[-1] == p + 1

    first_last = all(
        (first(p) and last(p + 1)) or (last(p) and first(p + 1))
        for p in range(len(ls) - 1)
    )
    assert length2_profile(w) == Length2Profile(unique, first_last)


def _spelled(w):
    """The documented text of ``w``, written out independently of ``Word``."""
    if not w.letters:
        return "1"
    tokens = [
        chr(base) + (f"_{sub}" if sub >= 0 else "") + (f"^{sup}" if sup >= 0 else "")
        for base, sub, sup in w.letters
    ]
    if all(t.isalpha() for t in tokens):
        return "".join(tokens)
    text = ".".join(tokens)
    # a text is read dotted only with a dot or an underscore in it
    return text if "." in text or "_" in text else text + "."


plain_words = st.builds(lambda bases: Word(tuple(map(Letter, bases))), st.text("abxyz", max_size=8))
texted_words = st.one_of(
    plain_words,
    words,
    st.just(Word((Letter("y", None, 2),))),
    st.just(EPSILON),
)


@given(texted_words, st.sampled_from([copy.copy, copy.deepcopy, lambda w: pickle.loads(pickle.dumps(w))]))
def test_word_text_is_built_once_and_survives_copies(w, clone):
    before = clone(w)  # a copy taken before this test asks for the text
    text = str(w)
    assert text == _spelled(w)
    assert str(w) is text
    assert parse_word(text) == w
    fresh = Word(tuple(w.letters))
    for other in (before, clone(w)):
        assert str(other) == text
        assert other == fresh and hash(other) == hash(fresh)
    # the fresh word has never been printed: the cached text is not a field
    assert fresh == w and hash(fresh) == hash(w)
    assert str(fresh) == text


def _four_rules(w):
    """The text of ``w`` from ``Letter.__str__`` and the four rules."""
    if not w.letters:
        return "1"
    if all(sub < 0 and sup < 0 for _, sub, sup in w.letters):
        return "".join(str(l) for l in w.letters)
    if len(w.letters) == 1 and w.letters[0][1] < 0:
        return f"{w.letters[0]}."
    return ".".join(str(l) for l in w.letters)


def test_word_text_follows_the_four_rules():
    rng = random.Random(7)

    def letter(kind):
        base = rng.choice("abxyz")
        sub = rng.randint(0, 12) if kind in ("sub", "both") else None
        sup = rng.randint(0, 12) if kind in ("sup", "both") else None
        return Letter(base, sub, sup)

    cases = [EPSILON, Word((Letter("y", None, 2),)), Word((Letter("y", 3, 2),))]
    for mix in (("plain",), ("plain", "sub"), ("plain", "sup"), ("sub", "sup", "both"),
                ("plain", "sub", "sup", "both")):
        for _ in range(40):
            size = rng.randint(1, 9)
            cases.append(Word(tuple(letter(rng.choice(mix)) for _ in range(size))))
    for w in cases:
        unspelled = Word(tuple(w.letters))
        text = str(w)
        assert text == _four_rules(w) == _spelled(w)
        assert parse_word(text) == w
        for clone in (copy.copy(w), pickle.loads(pickle.dumps(w))):
            assert str(clone) == text
            assert clone == unspelled and hash(clone) == hash(unspelled)
        assert w == unspelled and hash(w) == hash(unspelled)
        assert pickle.loads(pickle.dumps(unspelled)) == w
        assert str(unspelled) == text


def test_shared_match_words_print_as_parsed_ones():
    subs = match_pattern(parse_word("xyx"), generate_wn(2))
    values = [v for s in subs for _, v in s.assignment]
    # the matcher shares one word per coded segment
    assert len({id(v) for v in values}) < len(values)
    for v in values:
        assert str(v) == _spelled(v) == str(parse_word(_spelled(v)))
        assert parse_word(str(v)) == v
