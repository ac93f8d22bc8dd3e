"""Table validation and presentation closure."""

from __future__ import annotations

import itertools
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoidlab import (
    EPSILON,
    ZERO,
    BadIdentityError,
    BadZeroError,
    DuplicateLabelsError,
    EmptyGeneratorsError,
    FiniteMonoid,
    Letter,
    NonAssociativeError,
    NotStabilizedError,
    Presentation,
    UnknownPresetError,
    Word,
    WordSet,
    from_presentation,
    from_table,
    multiply,
    parse_word,
    parse_word_set,
    preset,
    rees_quotient,
)
import monoidlab.monoid as monoid_module
from monoidlab.monoid import ZERO_LABEL, _generators

TRIVIAL = from_table(("1",), 0, [[0]])

TWO = from_table(("1", "0"), 0, [[0, 1], [1, 1]], zero=1)


def test_trivial_monoid():
    assert TRIVIAL.order == 1
    assert multiply(TRIVIAL, 0, 0) == 0


def test_two_element_with_zero():
    assert TWO.order == 2
    assert TWO.zero == 1
    assert multiply(TWO, 1, 0) == 1


def test_multiply_rejects_bad_indices():
    with pytest.raises(IndexError):
        multiply(TWO, 0, 2)
    with pytest.raises(IndexError):
        multiply(TWO, -1, 0)


def test_non_associative_witness():
    # 1 is the identity; x*x = 1 and y*y = 1 but x*y = x, y*x = y
    table = [[0, 1, 2], [1, 0, 1], [2, 2, 0]]
    with pytest.raises(NonAssociativeError) as info:
        from_table(("1", "x", "y"), 0, table)
    s, t, u = info.value.triple
    got = table[table[s][t]][u], table[s][table[t][u]]
    assert got[0] != got[1]


def _violation(table) -> tuple[int, int, int] | None:
    """First (s, t, u) with (st)u != s(tu), by the plain triple loop."""
    n = len(table)
    for s, t, u in itertools.product(range(n), repeat=3):
        if table[table[s][t]][u] != table[s][table[t][u]]:
            return (s, t, u)
    return None


def _is_violation(table, triple) -> bool:
    s, t, u = triple
    return table[table[s][t]][u] != table[s][table[t][u]]


@st.composite
def tables_with_identity(draw):
    n = draw(st.integers(2, 5))
    body = draw(st.lists(st.integers(0, n - 1), min_size=(n - 1) ** 2, max_size=(n - 1) ** 2))
    rows = [list(range(n))]
    for i in range(1, n):
        rows.append([i] + body[(i - 1) * (n - 1) : i * (n - 1)])
    return rows


@settings(max_examples=500, deadline=None)
@given(tables_with_identity())
def test_light_test_agrees_with_triple_loop(table):
    labels = tuple(str(i) for i in range(len(table)))
    try:
        from_table(labels, 0, table)
    except NonAssociativeError as exc:
        assert _is_violation(table, exc.triple)
    else:
        assert _violation(table) is None


def test_generating_set_is_the_letters():
    # Light's test costs one n x n comparison per generator
    for spec in ("aabb", "wn:1,2", "wn:3"):
        q = rees_quotient(parse_word_set(spec))
        letters = sorted({l for w in q.word_set for l in w.letters})
        assert [q.elements[i] for i in _generators(q.table, q.one)] == [Word((l,)) for l in letters]
    for name in ("M_SCRIPT", "A21", "B21"):
        m = from_presentation(preset(name))
        assert [m.label_text(i) for i in _generators(m.table, m.one)] == [
            str(g) for g in preset(name).generators
        ]


def test_every_single_entry_change_of_aabb():
    # M(aabb): identity 0, zero 9.  Each changed entry must be rejected
    # exactly when the identity, the zero or associativity breaks, with the
    # error of the first failing check in that order.
    base = rees_quotient(WordSet.of([parse_word("aabb")])).table.tolist()
    n, zero = len(base), 9
    labels = tuple(str(i) for i in range(n))
    rejected = 0
    for i, j in itertools.product(range(n), repeat=2):
        for v in range(n):
            if v == base[i][j]:
                continue
            table = [row[:] for row in base]
            table[i][j] = v
            if any(table[0][s] != s or table[s][0] != s for s in range(n)):
                want = BadIdentityError
            elif any(table[zero][s] != zero or table[s][zero] != zero for s in range(n)):
                want = BadZeroError
            elif _violation(table) is not None:
                want = NonAssociativeError
            else:
                from_table(labels, 0, table, zero=zero)
                continue
            with pytest.raises(want) as info:
                from_table(labels, 0, table, zero=zero)
            if want is NonAssociativeError:
                assert _is_violation(table, info.value.triple)
            rejected += 1
    assert rejected > 0


def test_bad_identity_and_zero():
    with pytest.raises(BadIdentityError):
        from_table(("1", "a"), 0, [[1, 1], [1, 1]])
    with pytest.raises(BadZeroError):
        from_table(("1", "z"), 0, [[0, 1], [1, 0]], zero=1)


def test_duplicate_labels():
    with pytest.raises(DuplicateLabelsError):
        from_table(("e", "e"), 0, [[0, 1], [1, 1]])


def test_table_shape_errors():
    with pytest.raises(ValueError):
        from_table(("1", "a"), 0, [[0, 1]])
    with pytest.raises(ValueError):
        from_table(("1", "a"), 0, [[0, 5], [1, 1]])
    with pytest.raises(ValueError):
        from_table(("1", "a"), 0, [[0, 1], [1]])  # ragged rows
    with pytest.raises(ValueError):
        from_table(("1", "a"), 0, [[0, 1], [1, 1.5]])
    with pytest.raises(ValueError):
        from_table(("1", "a"), 0, [[0, 1], [1, 1.0]])
    with pytest.raises(ValueError):
        from_table(("1", "a"), 0, [[0, True], [True, True]])
    with pytest.raises(ValueError):
        from_table(("1", "a"), 0, [[0, 1], [1, 2**40]])  # would wrap to 0 in int32
    with pytest.raises(ValueError):
        from_table(("1", "a"), 0, [[0, 1], [1, 2**70]])
    with pytest.raises(ValueError):
        from_table(("1", "a"), 0, np.array([[0, 1], [1, 1]], dtype=float))
    with pytest.raises(ValueError):
        from_table(("1", "a"), 0, np.array([[0, 1], [1, 1 + 2**32]]))


def test_table_is_a_read_only_int32_copy():
    source = np.array([[0, 1], [1, 1]])
    m = from_table(("1", "a"), 0, source)
    source[1, 1] = 0
    assert m.table.dtype == np.int32 and m.mul(1, 1) == 1
    assert type(m.mul(1, 1)) is int
    with pytest.raises(ValueError):
        m.table[1, 1] = 0


def test_preset_contents():
    p = preset("M_SCRIPT")
    assert [str(g) for g in p.generators] == ["a", "e"]
    rels = {(str(l), "0" if r is ZERO else str(r)) for l, r in p.relations}
    assert rels == {("ee", "e"), ("aaa", "0"), ("ae", "0"), ("eaa", "aa")}
    rels = {(str(l), "0" if r is ZERO else str(r)) for l, r in preset("a21").relations}
    assert rels == {("aa", "0"), ("aba", "a"), ("bab", "b"), ("bb", "b")}
    rels = {(str(l), "0" if r is ZERO else str(r)) for l, r in preset("B21").relations}
    assert rels == {("aa", "0"), ("bb", "0"), ("aba", "a"), ("bab", "b")}
    with pytest.raises(UnknownPresetError):
        preset("nope")


def test_presented_orders_and_representatives():
    m = from_presentation(preset("M_SCRIPT"), 5)
    assert m.order == 6
    assert [m.label_text(i) for i in range(6)] == ["1", "a", "e", "aa", "ea", "0"]
    assert from_presentation(preset("A21"), 6).order == 6
    assert from_presentation(preset("B21"), 6).order == 6


def test_presented_default_bound_is_stable():
    small = from_presentation(preset("M_SCRIPT"))
    again = from_presentation(preset("M_SCRIPT"), 6)
    assert np.array_equal(small.table, again.table)


def test_presented_relations_hold_in_table():
    for name in ("M_SCRIPT", "A21", "B21"):
        p = preset(name)
        m = from_presentation(p)
        gen_index = {g: m.element_of(str(g)) for g in p.generators}

        def value(word):
            acc = m.one
            for letter in word.letters:
                acc = m.mul(acc, gen_index[letter])
            return acc

        for lhs, rhs in p.relations:
            want = m.zero if rhs is ZERO else value(rhs)
            assert value(lhs) == want, f"{name}: {lhs}"


def test_presented_products_match_hand_reduction():
    # in A21: ab*ba = abba -> a(bb)a -> aba -> a, while ba*ab contains aa
    a21 = from_presentation(preset("A21"))
    idx = {a21.label_text(i): i for i in range(a21.order)}
    assert a21.label_text(a21.mul(idx["ab"], idx["ba"])) == "a"
    assert a21.label_text(a21.mul(idx["ba"], idx["ab"])) == "0"
    assert a21.label_text(a21.mul(idx["ab"], idx["ab"])) == "ab"
    # in B21 the same product dies on bb instead
    b21 = from_presentation(preset("B21"))
    jdx = {b21.label_text(i): i for i in range(b21.order)}
    assert b21.label_text(b21.mul(jdx["ab"], jdx["ba"])) == "0"
    assert b21.label_text(b21.mul(jdx["ab"], jdx["ab"])) == "ab"


def test_single_relation_collapse_to_identity():
    p = Presentation(
        generators=(Letter("a"),),
        relations=((parse_word("a"), EPSILON),),
    )
    assert from_presentation(p, 4).order == 1


def test_one_equals_zero_collapses_to_trivial():
    # aa = 1 and aaaa = 0 give 1 = aaaa = 0; so do b = 1 and bb = 0.  With
    # b = 0 and b = 1 at bound 1, 1 = b = 0 while the word a stays in its own
    # class (ab is beyond the bound), so only the 1 = 0 test gives order 1
    a, b = Letter("a"), Letter("b")
    cases = [
        ((a,), (("aa", "1"), ("aaaa", None)), 5),
        ((a, b), (("bb", None), ("b", "1"), ("a", "1")), 3),
        ((a, b), (("b", None), ("b", "1")), 1),
    ]
    for gens, rels, bound in cases:
        relations = tuple(
            (parse_word(lhs), ZERO if rhs is None else parse_word(rhs)) for lhs, rhs in rels
        )
        p = Presentation(gens, relations, has_zero=True)
        m = from_presentation(p, bound)
        assert m.order == 1
        assert m.one == m.zero == 0
        assert m.label_text(0) == "1"
        closed, gen_index = monoid_module._closure(p, bound)
        assert closed.order == 1
        assert gen_index == dict.fromkeys(gens, 0)


def test_certificate_rejects_a_failing_relation():
    # B21's table under A21's relations: bb = 0 in B21, but A21 has bb = b
    a21, b21 = preset("A21"), from_presentation(preset("B21"))
    assert [str(x) for x in b21.elements] == [
        str(x) for x in from_presentation(a21).elements
    ]
    with pytest.raises(NotStabilizedError, match="relation bb = b fails"):
        monoid_module._certify(a21, b21, {g: b21.element_of(str(g)) for g in a21.generators})


def test_certificate_rejects_a_representative_off_its_element():
    # <a | aa = 0> against {1, a, aa, 0} with every product of non-identity
    # elements zero: associative, the relation holds, but aa evaluates to 0
    a = Letter("a")
    p = Presentation((a,), ((parse_word("aa"), ZERO),), has_zero=True)
    table = [[0, 1, 2, 3], [1, 3, 3, 3], [2, 3, 3, 3], [3, 3, 3, 3]]
    m = from_table((EPSILON, Word((a,)), parse_word("aa"), ZERO_LABEL), 0, table, zero=3)
    with pytest.raises(NotStabilizedError, match="aa evaluates to 0"):
        monoid_module._certify(p, m, {a: 1})
    assert from_presentation(p).order == 3


def test_from_presentation_stops_at_the_first_certified_bound(monkeypatch):
    # one closure per bound, no rerun, and none past the certified bound 3
    bounds = []
    closure = monoid_module._closure

    def counting(pres, bound):
        bounds.append(bound)
        return closure(pres, bound)

    monkeypatch.setattr(monoid_module, "_closure", counting)
    from_presentation(preset("M_SCRIPT"), 5)
    assert bounds == [1, 2, 3]


def _closure_or_error(build, *args):
    """``to_json_dict()`` of the built monoid, or the message of its
    :class:`NotStabilizedError`."""
    try:
        return build(*args).to_json_dict()
    except NotStabilizedError as exc:
        return str(exc)


def _product_closure(pres: Presentation, bound: int, semigroup: bool = False) -> FiniteMonoid:
    """The presented monoid by the product-of-representatives table, the
    construction the graph walk replaced, certified as
    :func:`from_presentation` certifies: the oracle of the walk.  It keeps
    its own union-find and occurrence scan.

    Classes are labeled by their shortlex-least member, and entry (i, j)
    is the class of the product of the labels, which must stay inside the
    bound; raises :class:`NotStabilizedError` like the walk.  With
    ``semigroup`` the universe leaves out the empty word and a fresh
    identity is adjoined: the semigroup presented, with an identity added,
    for relations whose sides are all nonempty.
    """
    gens = sorted(pres.generators)
    universe = [
        w
        for length in range(1 if semigroup else 0, bound + 1)
        for w in itertools.product(gens, repeat=length)
    ]
    parent = {w: w for w in universe}
    if pres.has_zero:
        parent[ZERO] = ZERO

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        parent[find(x)] = find(y)

    for lhs, rhs in pres.relations:
        lt = lhs.letters
        for w in universe:
            for i in range(len(w) + 1):
                if w[i : i + len(lt)] != lt:
                    continue
                if rhs is ZERO:
                    union(w, ZERO)
                elif len(w) - len(lt) + len(rhs) <= bound:
                    union(w, w[:i] + rhs.letters + w[i + len(lt) :])
    zero_root = find(ZERO) if pres.has_zero else None
    if not semigroup and find(()) == zero_root:
        return from_table((EPSILON,), 0, [[0]], zero=0)
    groups = {}
    for w in universe:
        groups.setdefault(find(w), []).append(w)
    index = {} if semigroup else {find(()): 0}
    reps = [()]
    for rep in sorted(min(map(Word, members)) for members in groups.values()):
        root = find(rep.letters)
        if root != zero_root and root not in index:
            index[root] = len(reps)
            reps.append(rep.letters)
    labels = [EPSILON] + [Word(r) for r in reps[1:]]
    zero = None
    if pres.has_zero:
        zero = index[zero_root] = len(reps)
        labels.append(ZERO_LABEL)
    n = len(labels)
    table = [[zero] * n for _ in range(n)]
    for i, j in itertools.product(range(len(reps)), repeat=2):
        if i == 0 or j == 0:
            table[i][j] = i + j
            continue
        prod = reps[i] + reps[j]
        if len(prod) > bound:
            raise NotStabilizedError(f"{Word(prod)} leaves the bound {bound}")
        table[i][j] = index[find(prod)]
    try:
        m = from_table(labels, 0, table, zero=zero)
    except NonAssociativeError as exc:
        raise NotStabilizedError("table not associative") from exc
    gen_index = {g: index[find((g,))] for g in pres.generators}
    monoid_module._certify(pres, m, gen_index)
    return m


def _random_presentation(rng: random.Random) -> Presentation:
    """1-2 generators and 1-4 relations with sides of at most 4 letters;
    some right sides are the zero, and in about 30% of draws sides may be
    empty."""
    gens = tuple(Letter(c) for c in "ab"[: rng.randint(1, 2)])
    lo = 1 if rng.random() < 0.7 else 0
    has_zero = rng.random() < 0.5

    def side():
        return Word(tuple(rng.choice(gens) for _ in range(rng.randint(lo, 4))))

    relations = tuple(
        (side(), ZERO if has_zero and rng.random() < 0.3 else side())
        for _ in range(rng.randint(1, 4))
    )
    return Presentation(gens, relations, has_zero=has_zero)


def test_adjoining_an_identity_gives_the_monoid_presentation():
    # with no empty side no relation reaches the empty word, so its class
    # is {1}: the closure without the empty word plus a fresh identity is
    # the monoid presentation's, which is why presentations have no
    # semigroup mode
    rng = random.Random(20241123)
    certified = 0
    for _ in range(400):
        pres, bound = _random_presentation(rng), rng.randint(3, 7)
        sides = [side for rel in pres.relations for side in rel if side is not ZERO]
        if not all(sides):
            continue
        want = _closure_or_error(_product_closure, pres, bound, True)
        assert _closure_or_error(_product_closure, pres, bound) == want, (pres, bound)
        if isinstance(want, dict):
            certified += 1
            assert from_presentation(pres, bound).to_json_dict() == want, (pres, bound)
    assert certified > 100


def test_walk_certifies_whenever_the_product_table_does():
    # a label needs its own length + 1 inside the bound, a product of two
    # labels twice the longest: the walk certifies more, and agrees on the rest
    rng = random.Random(20241123)
    both = walk_only = 0
    for _ in range(400):
        pres, bound = _random_presentation(rng), rng.randint(3, 7)
        try:
            want = _product_closure(pres, bound)
        except NotStabilizedError:
            want = None
        try:
            got = from_presentation(pres, bound)
        except NotStabilizedError:
            assert want is None, (pres, bound)
            continue
        if want is None:
            walk_only += 1
            continue
        both += 1
        assert [str(x) for x in got.elements] == [str(x) for x in want.elements], (pres, bound)
        assert np.array_equal(got.table, want.table) and got.zero == want.zero, (pres, bound)
    assert both > 50 and walk_only > 10


def test_first_certified_bound_gives_the_table_of_the_largest():
    # a certified table is exact, so stopping at the first certified bound
    # returns the one-closure table at max_len, and raises where it raises
    rng = random.Random(20241123)
    for _ in range(400):
        pres, bound = _random_presentation(rng), rng.randint(3, 7)
        want = _closure_or_error(monoid_module._certified, pres, bound)
        assert _closure_or_error(from_presentation, pres, bound) == want, (pres, bound)


def test_presets_certify_at_bound_three():
    # from_presentation would stop at bound 3, so the larger bounds are
    # closed on their own
    for name in ("M_SCRIPT", "A21", "B21"):
        small = from_presentation(preset(name), 3)
        for bound in (4, 5, 6):
            for m in (monoid_module._certified(preset(name), bound),
                      _product_closure(preset(name), bound)):
                assert [str(x) for x in m.elements] == [str(x) for x in small.elements]
                assert np.array_equal(m.table, small.table) and m.zero == small.zero
        with pytest.raises(NotStabilizedError):
            _product_closure(preset(name), 3)


def test_free_monoid_does_not_stabilize():
    # with no relations every product of long representatives leaves the bound
    p = Presentation(generators=(Letter("a"),), relations=())
    with pytest.raises(NotStabilizedError):
        from_presentation(p, 4)


def test_bicyclic_presentation_does_not_stabilize():
    p = Presentation(
        generators=(Letter("a"), Letter("b")),
        relations=((parse_word("ab"), EPSILON),),
    )
    with pytest.raises(NotStabilizedError):
        from_presentation(p, 4)


def test_truncated_closure_is_not_certified():
    # a^4 = a = a^3 makes aa = a, but at bound 4 no relation reaches aa:
    # the walk gives 1, a, aa with aa*a = a, where aaaa is aa, not a
    p = Presentation(
        generators=(Letter("a"),),
        relations=((parse_word("aaaa"), parse_word("a")), (parse_word("aaaa"), parse_word("aaa"))),
    )
    with pytest.raises(NotStabilizedError, match="relation aaaa = a fails"):
        from_presentation(p, 4)
    assert list(from_presentation(p, 5).elements) == [EPSILON, parse_word("a")]


def test_truncated_non_associative_closure_is_not_certified():
    # at bound 3, aab = bbb = baa = ba = b, but ab = a.aab = aaab needs length
    # 4; the walk keeps ab apart, so (a*a)*ab = b while a*(a*ab) = ab
    a, b = Letter("a"), Letter("b")
    p = Presentation((a, b), ((parse_word("bb"), parse_word("aa")), (parse_word("ba"), parse_word("b"))))
    with pytest.raises(NotStabilizedError, match="table not associative"):
        from_presentation(p, 3)
    want = ["1", "a", "b", "aa"]
    assert [str(x) for x in from_presentation(p, 4).elements] == want
    assert [str(x) for x in _product_closure(p, 4).elements] == want


def test_empty_generators_rejected():
    with pytest.raises(EmptyGeneratorsError):
        from_presentation(Presentation(generators=(), relations=()), 3)


def test_presentation_validation():
    with pytest.raises(ValueError):
        Presentation((Letter("a"),), ((parse_word("ab"), parse_word("a")),))
    with pytest.raises(ValueError):
        Presentation((Letter("a"),), ((parse_word("aa"), ZERO),), has_zero=False)


def test_json_roundtrip():
    # the JSON text carries the labels as strings and the table as ints;
    # from_table reads it back
    m = from_presentation(preset("M_SCRIPT"))
    data = json.loads(json.dumps(m.to_json_dict()))
    assert data["one"] == 0 and data["zero"] == 5
    assert data["elements"][0] == "1" and data["elements"][-1] == "0"
    back = from_table(data["elements"], data["one"], data["table"], zero=data["zero"])
    assert np.array_equal(back.table, m.table)
    assert [str(x) for x in back.elements] == [str(x) for x in m.elements]
