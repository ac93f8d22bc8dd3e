"""Word-set quotients, quotient maps, and the word-set syntax."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoidlab import (
    EPSILON,
    HOLDS,
    NotSubsetError,
    ParseError,
    WordSet,
    basis,
    check_rees,
    generate_wn,
    parse_word,
    parse_word_set,
    quotient_map,
    rees_quotient,
)


def ws(*texts):
    return WordSet.of(parse_word(t) for t in texts)


@pytest.mark.parametrize(
    "texts,order",
    [
        (("aabb",), 10),
        (("abab",), 9),
        (("abba",), 10),
        ((), 2),
        (("ab",), 5),
    ],
)
def test_orders(texts, order):
    assert rees_quotient(ws(*texts)).order == order


def test_family_orders():
    w1, w2 = generate_wn(1), generate_wn(2)
    assert rees_quotient(WordSet.of([w1])).order == 35
    assert rees_quotient(WordSet.of([w1, w2])).order == 191


def test_order_formula_against_independent_count():
    # distinct nonempty substrings counted directly, without factors()
    for texts in (("aabb",), ("abab",), ("abba",), ("aabb", "abab")):
        seen = set()
        for t in texts:
            letters = parse_word(t).letters
            for i in range(len(letters)):
                for j in range(i + 1, len(letters) + 1):
                    seen.add(letters[i:j])
        assert rees_quotient(ws(*texts)).order == len(seen) + 2


def test_element_layout():
    q = rees_quotient(ws("aabb"))
    assert q.label(0) == EPSILON
    assert q.label_text(q.order - 1) == "0"
    labels = [q.label_text(i) for i in range(q.order)]
    assert labels == ["1", "a", "b", "aa", "ab", "bb", "aab", "abb", "aabb", "0"]


def test_element_of():
    q = rees_quotient(ws("aabb"))
    assert q.element_of(parse_word("ab")) == 4
    assert q.element_of(parse_word("ba")) == q.zero
    assert q.element_of(EPSILON) == q.one


def test_multiplication_examples():
    q = rees_quotient(ws("aabb"))
    a, ab = q.element_of(parse_word("a")), q.element_of(parse_word("ab"))
    assert q.mul(a, ab) == q.element_of(parse_word("aab"))
    assert q.mul(ab, ab) == q.zero
    assert q.mul(q.one, ab) == ab


def test_table_is_associative_by_independent_scan():
    q = rees_quotient(ws("aabb"))
    t = q.table
    n = q.order
    for s in range(n):
        for u in range(n):
            for v in range(n):
                assert t[t[s][u]][v] == t[s][t[u][v]]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text("abc", min_size=1, max_size=7), max_size=3))
def test_table_entries_are_factor_concatenations(texts):
    # no trie: every entry is "label i + label j if that is a factor, else zero"
    q = rees_quotient(ws(*texts))
    found = {t[i:j] for t in texts for i in range(len(t)) for j in range(i + 1, len(t) + 1)}
    text = ["" if i == q.one else q.label_text(i) for i in range(q.order)]
    assert q.zero == q.order - 1 and q.label_text(q.zero) == "0"
    assert set(text[: q.zero]) == found | {""}
    index = {t: i for i, t in enumerate(text[: q.zero])}
    table = q.table.tolist()
    for i in range(q.order):
        for j in range(q.order):
            if q.zero in (i, j):
                want = q.zero
            else:
                want = index.get(text[i] + text[j], q.zero)
            assert table[i][j] == want


def test_quotient_map_chain():
    big = rees_quotient(WordSet.of([generate_wn(1), generate_wn(2)]))
    small = rees_quotient(WordSet.of([generate_wn(1)]))
    qm = quotient_map(big, small)
    assert set(qm.mapping) == set(range(small.order))
    assert qm.apply(big.one) == small.one
    assert qm.apply(big.zero) == small.zero
    # a factor of w_2 only goes to zero
    z2 = big.element_of(parse_word("z_2"))
    assert qm.apply(z2) == small.zero


def test_quotient_map_identity():
    q = rees_quotient(ws("aabb"))
    qm = quotient_map(q, rees_quotient(ws("aabb")))
    assert qm.mapping == tuple(range(q.order))


def test_quotient_map_not_subset():
    with pytest.raises(NotSubsetError):
        quotient_map(rees_quotient(ws("aabb")), rees_quotient(ws("abab")))


def test_identities_survive_quotients():
    # satisfied identities pass to homomorphic images, checked empirically
    big = WordSet.of([generate_wn(1), generate_wn(2)])
    for ident in basis("SIGMA"):
        assert check_rees(big, ident).status == HOLDS
        for sub in ([generate_wn(1)], [generate_wn(2)]):
            assert check_rees(WordSet.of(sub), ident).status == HOLDS


def test_parse_word_set():
    assert [str(w) for w in parse_word_set("aabb,abab")] == ["aabb", "abab"]
    assert len(parse_word_set("")) == 0
    expanded = parse_word_set("wn:1,2")
    assert list(expanded) == [generate_wn(1), generate_wn(2)]
    with pytest.raises(ParseError):
        parse_word_set("wn:one")
    with pytest.raises(ParseError):
        parse_word_set("wn:")
