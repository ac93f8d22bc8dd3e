"""Word-set quotients, quotient maps, and the word-set syntax."""

from __future__ import annotations

import functools
import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import monoidlab.rees as rees_mod
from monoidlab import (
    EPSILON,
    HOLDS,
    BudgetExceededError,
    HomomorphismViolationError,
    NotSubsetError,
    ParseError,
    Word,
    WordSet,
    basis,
    check_rees,
    from_presentation,
    generate_wn,
    parse_word,
    parse_word_set,
    preset,
    quotient_map,
    rees_quotient,
)
from monoidlab.words import factor_tuples


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
    assert q.elements[0] == EPSILON
    assert q.label_text(q.order - 1) == "0"
    labels = [q.label_text(i) for i in range(q.order)]
    assert labels == ["1", "a", "b", "aa", "ab", "bb", "aab", "abb", "aabb", "0"]


def test_element_of():
    q = rees_quotient(ws("aabb"))
    assert q.element_of(parse_word("ab")) == 4
    assert q.element_of(parse_word("ba")) == q.zero
    assert q.element_of(EPSILON) == q.one


def test_element_of_a_presented_monoid():
    # only a Rees quotient sends an unknown label to the zero: in A21
    # bb = b, which is labeled "b"
    m = from_presentation(preset("A21"))
    assert m.element_of("b") == 2
    assert m.element_of("bb") is None
    assert m.element_of("xyz") is None


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
    big = WordSet.of([generate_wn(1), generate_wn(2)])
    small = WordSet.of([generate_wn(1)])
    mapping = quotient_map(big, small)
    big_q, small_q = rees_quotient(big), rees_quotient(small)
    assert set(mapping) == set(range(small_q.order))
    assert mapping[big_q.one] == small_q.one
    assert mapping[big_q.zero] == small_q.zero
    # a factor of w_2 only goes to zero
    z2 = big_q.element_of(parse_word("z_2"))
    assert mapping[z2] == small_q.zero


def test_quotient_map_identity():
    mapping = quotient_map(ws("aabb"), ws("aabb"))
    assert mapping == tuple(range(rees_quotient(ws("aabb")).order))


def test_quotient_map_not_subset():
    with pytest.raises(NotSubsetError):
        quotient_map(ws("aabb"), ws("abab"))


def test_quotient_map_from_and_onto_the_empty_set():
    # M of the empty set is {1, 0}: the zero is its only generator
    assert quotient_map(ws(), ws()) == (0, 1)
    # M(ab) is 1, a, b, ab, 0, and every factor goes to zero
    assert quotient_map(ws("ab"), ws()) == (0, 1, 1, 1, 1)


@functools.cache
def _family_quotient(indices):
    return rees_quotient(WordSet.of(generate_wn(k) for k in indices))


_SUBSETS_3 = [s for r in range(4) for s in itertools.combinations((1, 2, 3), r)]


@pytest.mark.parametrize(
    "big, small",
    [(big, small) for big in _SUBSETS_3 for small in _SUBSETS_3 if set(small) <= set(big)],
)
def test_quotient_map_agrees_with_the_full_table_comparison(big, small):
    # the oracle: the label map between the two tables, checked on all
    # F^2 products
    S, T = _family_quotient(big), _family_quotient(small)
    m = np.array([T.element_of(lab) for lab in S.elements], dtype=np.intp)
    assert (m[S.table] == T.table[np.ix_(m, m)]).all()
    assert set(m.tolist()) == set(range(T.order))
    assert quotient_map(S.word_set, T.word_set) == tuple(m.tolist())


@pytest.mark.parametrize("n", [1, 2, 3])
def test_quotient_maps_compose_through_every_nested_pair(n):
    # C10's lemma: phi_{F->W'} = phi_{W->W'} o phi_{F->W} for W' in W in F
    subsets = [s for r in range(n + 1) for s in itertools.combinations(range(1, n + 1), r)]
    full = _family_quotient(tuple(range(1, n + 1))).word_set
    for big in subsets:
        onto_big = quotient_map(full, _family_quotient(big).word_set)
        for small in subsets:
            if set(small) <= set(big):
                W, W2 = _family_quotient(big).word_set, _family_quotient(small).word_set
                through = quotient_map(W, W2)
                assert quotient_map(full, W2) == tuple(through[x] for x in onto_big)


def test_quotient_map_names_a_corrupted_graph_entry(monkeypatch):
    source = WordSet.of([generate_wn(1), generate_wn(2)])
    target = WordSet.of([generate_wn(1)])
    mapping = quotient_map(source, target)
    real = rees_mod._factor_graph
    tgt_element, tgt_code, _, _, tgt_delta = real(target)
    letter, c = list(tgt_code.items())[-1]
    # the first nonidentity factor that the last letter extends; zero is a
    # wrong value for its entry
    t = next(i for i in range(1, len(tgt_element)) if tgt_delta[i, c] != len(tgt_element))

    def corrupted(word_set):
        graph = real(word_set)
        if word_set == target:
            delta = graph[4].copy()
            delta[t, c] = len(tgt_element)
            graph = graph[:4] + (delta,)
        return graph

    monkeypatch.setattr(rees_mod, "_factor_graph", corrupted)
    source_q = rees_quotient(source)
    with pytest.raises(HomomorphismViolationError) as info:
        quotient_map(source, target)
    assert info.value.witness == (mapping.index(t), source_q.element_of(Word((letter,))))


def test_table_limit_raises_before_building_the_table():
    # 128 distinct letters have 128 * 129 / 2 nonempty factors
    word = parse_word(".".join(f"a_{i}" for i in range(128)))
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="order 8258, above the table limit of 8192"):
            rees_quotient(WordSet.of([word]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the int32 table alone would take 8258^2 * 4 bytes, about 273 MB
    assert peak < 64 * 2**20, peak


def random_abc(rng, length):
    return "".join(rng.choice("abc") for _ in range(length))


@pytest.mark.parametrize("text, floor", [
    (random_abc(random.Random(0), 1500), None),
    ("a" * 9000, 9002),
], ids=["random-1500", "a^9000"])
def test_table_limit_refuses_before_enumerating_factors(monkeypatch, text, floor):
    # a random 1500-letter word over abc has about 1.1 million factors; a^9000
    # has 9,001, and its prefixes alone pass the limit
    def unreachable(word_set):
        raise AssertionError("the factors were enumerated")

    monkeypatch.setattr(rees_mod, "_factor_graph", unreachable)
    with pytest.raises(BudgetExceededError, match="order at least .*, above the table limit of 8192") as info:
        rees_quotient(WordSet.of([parse_word(text)]))
    assert info.value.spent > rees_mod.TABLE_ORDER_LIMIT
    assert floor in (None, info.value.spent)


def test_order_floor_is_a_lower_bound():
    rng = random.Random(0)
    for _ in range(40):
        words = [random_abc(rng, rng.randint(60, 160)) for _ in range(rng.randint(1, 3))]
        word_set = WordSet.of(parse_word(w) for w in words)
        order = len(factor_tuples(w.letters for w in word_set)) + 1
        assert rees_mod._order_floor(word_set) <= order, words
    # the 128 distinct letters of the table-limit tests: the bound stays under
    # the limit, so the refusal names the exact order 8258
    word = parse_word(".".join(f"a_{i}" for i in range(128)))
    assert rees_mod._order_floor(WordSet.of([word])) == 3602


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
    # the position counts from the start of the whole list
    with pytest.raises(ParseError, match=r"at position 4\)") as info:
        parse_word_set("ab,a$")
    assert info.value.position == 4
    assert info.value.message == "unexpected character '$'"
    with pytest.raises(ParseError) as info:
        parse_word_set("ab,a. $")
    assert info.value.position == 6
