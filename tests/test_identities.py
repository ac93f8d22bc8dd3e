"""Identity parsing, evaluation, both checkers, and the word predicates
used by them."""

from __future__ import annotations

import itertools
import random
import sys
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monoidlab import (
    EPSILON,
    FAILS,
    HOLDS,
    ZERO,
    BadZeroError,
    BudgetExceededError,
    Identity,
    Letter,
    ParseError,
    Substitution,
    UnknownBasisError,
    Word,
    WordSet,
    basis,
    check_no_div_instance,
    check_rees,
    check_star_property,
    check_table,
    evaluate,
    from_presentation,
    from_table,
    generate_wn,
    match_pattern,
    occurrence_positions,
    parse_identity,
    parse_word,
    preset,
    rees_quotient,
    scan_matches,
    separation_identity,
)
from monoidlab import identities
from monoidlab.verify import random_identity, random_no_div_instance, substitution_to_dict


def ws(*texts):
    return WordSet.of(parse_word(t) for t in texts)


AABB = ws("aabb")
Q_AABB = rees_quotient(AABB)


def test_parse_identity():
    ident = parse_identity("x^3 = x^4")
    assert (str(ident.lhs), str(ident.rhs)) == ("xxx", "xxxx")
    ident = parse_identity("xyzxty = yxzxty")
    assert len(ident.lhs) == len(ident.rhs) == 6
    ident = parse_identity("1 = x")
    assert ident.lhs == EPSILON and str(ident.rhs) == "x"


def test_parse_identity_errors():
    with pytest.raises(ParseError):
        parse_identity("xx")
    with pytest.raises(ParseError):
        parse_identity("x = y = z")
    with pytest.raises(ParseError):
        parse_identity("x = ?")
    # positions count from the start of the identity text
    for text, position in (("xy = x$", 6), (" x = y.z_", 7), ("x$ = y", 1), ("x = a. $", 7)):
        with pytest.raises(ParseError) as info:
            parse_identity(text)
        assert info.value.position == position, text


def test_parse_identity_dotted_superscripts():
    ident = parse_identity("y_1^1 = y_1^0")
    assert ident.lhs.letters == (Letter("y", 1, 1),)
    assert ident.rhs.letters == (Letter("y", 1, 0),)


def test_identity_text_roundtrip():
    for n in (1, 2):
        ident = separation_identity(n)
        again = parse_identity(str(ident))
        assert again == ident


def test_substitution_basics():
    phi = Substitution.of({Letter("x"): parse_word("ab"), Letter("y"): EPSILON})
    assert phi[Letter("x")] == parse_word("ab")
    assert phi.apply(parse_word("xyx")) == parse_word("abab")
    assert phi.domain == {Letter("x"), Letter("y")}
    with pytest.raises(KeyError):
        phi[Letter("z")]


def test_evaluate_examples():
    phi = Substitution.of({Letter("x"): parse_word("a"), Letter("y"): parse_word("b")})
    assert evaluate(EPSILON, phi, Q_AABB) == Q_AABB.one
    assert Q_AABB.label_text(evaluate(parse_word("xy"), phi, Q_AABB)) == "ab"
    phi2 = Substitution.of({Letter("x"): parse_word("ab")})
    assert evaluate(parse_word("xx"), phi2, Q_AABB) == Q_AABB.zero


def test_evaluate_zero_mark():
    phi = Substitution.of({Letter("x"): ZERO})
    assert evaluate(parse_word("x"), phi, Q_AABB) == Q_AABB.zero
    no_zero = from_table(("1",), 0, [[0]])
    with pytest.raises(BadZeroError):
        evaluate(parse_word("x"), phi, no_zero)


def test_evaluate_missing_variable():
    with pytest.raises(KeyError):
        evaluate(parse_word("xy"), Substitution.of({Letter("x"): parse_word("a")}), Q_AABB)


def test_evaluate_element_indices():
    m = from_presentation(preset("M_SCRIPT"))
    a = m.element_of("a")
    phi = Substitution.of({Letter("x"): a})
    assert evaluate(parse_word("xx"), phi, m) == m.element_of("aa")
    assert evaluate(parse_word("xxx"), phi, m) == m.zero


def test_evaluate_accepts_numpy_element_indices():
    m = from_presentation(preset("M_SCRIPT"))
    a = m.element_of("a")
    aa = m.table[a, a]  # a numpy integer, not an int
    phi = Substitution.of({Letter("x"): aa})
    assert evaluate(parse_word("x"), phi, m) == m.element_of("aa")
    assert evaluate(parse_word("xx"), phi, m) == m.zero


def test_evaluate_rejects_bool_element_index():
    phi = Substitution.of({Letter("x"): True})
    with pytest.raises(TypeError, match="unsupported assignment value True"):
        evaluate(parse_word("x"), phi, Q_AABB)


def test_check_table_holds():
    m = from_presentation(preset("M_SCRIPT"))
    out = check_table(m, parse_identity("x^3=x^4"))
    assert out.status == HOLDS
    assert out.evaluations == m.order


def test_check_table_canonical_witness():
    out = check_table(Q_AABB, parse_identity("xy=yx"))
    assert out.status == FAILS
    witness = {str(l): Q_AABB.label_text(v) for l, v in out.witness.assignment}
    assert witness == {"x": "a", "y": "b"}
    assert out.evaluations == 13  # flat odometer position of (a, b), one-based


def test_check_table_trivial_and_degenerate():
    assert check_table(Q_AABB, parse_identity("xyx=xyx")).status == HOLDS
    assert check_table(Q_AABB, parse_identity("1=1")).status == HOLDS


@pytest.mark.parametrize("budget", [-1, 0])
def test_check_table_variable_free_identity_needs_one_substitution(budget):
    with pytest.raises(BudgetExceededError) as info:
        check_table(Q_AABB, parse_identity("1=1"), budget)
    assert str(info.value) == "table budget exhausted after 0 of 1 substitutions"
    assert (info.value.spent, info.value.limit) == (0, budget)


def test_check_table_variable_free_identity_within_budget():
    out = check_table(Q_AABB, parse_identity("1=1"), 1)
    assert (out.status, out.witness, out.evaluations) == (HOLDS, None, 1)


def test_check_table_witness_revalidates():
    ident = parse_identity("xxy=yxx")
    out = check_table(Q_AABB, ident)
    assert out.status == FAILS
    left = evaluate(ident.lhs, out.witness, Q_AABB)
    right = evaluate(ident.rhs, out.witness, Q_AABB)
    assert left != right


def test_check_table_budget():
    with pytest.raises(BudgetExceededError):
        check_table(Q_AABB, parse_identity("x^3=x^4"), budget=5)


def test_check_table_deterministic():
    ident = parse_identity("xy=yx")
    assert check_table(Q_AABB, ident) == check_table(Q_AABB, ident)


def test_check_table_against_plain_evaluate_loop():
    # independent status oracle: evaluate() over every element assignment
    rng = random.Random(3)
    small = rees_quotient(ws("ab"))
    for _ in range(60):
        ident = random_identity(rng)
        variables = sorted(ident.lhs.alphabet | ident.rhs.alphabet)
        failing = None
        for combo in itertools.product(range(small.order), repeat=len(variables)):
            phi = Substitution.of(dict(zip(variables, combo)))
            if evaluate(ident.lhs, phi, small) != evaluate(ident.rhs, phi, small):
                failing = phi
                break
        out = check_table(small, ident)
        assert (out.status == FAILS) == (failing is not None)
        if failing is not None:
            assert out.witness == failing  # same odometer order, same witness


def _least_witness(m, ident):
    """One-based odometer index and assignment of the least failing
    substitution, by evaluate() over every element assignment."""
    variables = sorted(ident.lhs.alphabet | ident.rhs.alphabet)
    for i, combo in enumerate(itertools.product(range(m.order), repeat=len(variables)), 1):
        phi = Substitution.of(dict(zip(variables, combo)))
        if evaluate(ident.lhs, phi, m) != evaluate(ident.rhs, phi, m):
            return i, phi
    return None, None


def _block_test_identity(rng, k):
    # Mostly balanced: the sides then agree whenever all but one variable
    # is the identity element, which pushes the least witness past the
    # first block.
    variables = [Letter(c) for c in "xyzt"[:k]]
    lhs = [rng.choice(variables) for _ in range(rng.randint(1, 6))]
    rhs = rng.sample(lhs, len(lhs)) if rng.random() < 0.7 else [
        rng.choice(variables) for _ in range(rng.randint(0, 6))]
    return Identity(Word(tuple(lhs)), Word(tuple(rhs)))


_BLOCK_SIZES = [(1, 1), (1, 4), (1, 7), (2, 25), (3, 26), (4, 100), (256, 125)]


@pytest.mark.parametrize("first, chunk", _BLOCK_SIZES, ids=[str(c) for _, c in _BLOCK_SIZES])
def test_check_table_blocks_agree_with_plain_loop(monkeypatch, first, chunk):
    # Small first blocks and chunks split order-5 and order-10 tables into
    # aligned ranges whose first axis is partial (m < n) and whose count of
    # axes changes in mid-walk, behind zero to three leading ints.
    monkeypatch.setattr(identities, "_FIRST_BLOCK", first)
    monkeypatch.setattr(identities, "_CHUNK", chunk)
    rng = random.Random(chunk)
    q_ab = rees_quotient(ws("ab"))
    for m, sweep_k, wide_k in ((q_ab, 3, 4), (Q_AABB, 2, 3)):
        for k in [1, 2, 2, sweep_k, sweep_k, sweep_k, wide_k, wide_k]:
            ident = _block_test_identity(rng, k)
            index, failing = _least_witness(m, ident)
            total = m.order ** len(ident.lhs.alphabet | ident.rhs.alphabet)
            out = check_table(m, ident)
            if failing is None:
                assert (out.status, out.witness, out.evaluations) == (HOLDS, None, total)
            else:
                assert (out.status, out.witness, out.evaluations) == (FAILS, failing, index)
            if k == wide_k:
                continue
            for budget in range(total + 2):
                if (index is None or index > budget) and budget < total:
                    with pytest.raises(BudgetExceededError) as info:
                        check_table(m, ident, budget)
                    message = f"table budget exhausted after {budget} of {total} substitutions"
                    err = info.value
                    assert (err.args, err.spent, err.limit) == ((message,), budget, budget)
                else:
                    assert check_table(m, ident, budget) == out


@pytest.mark.parametrize(
    "text, index",
    [
        ("yzxx = xzxyxx", 38),
        ("xyyz = yxzxy", 83),
        ("yxy = yxyy", 216),
        ("zyyzy = yyxzxz", 1226),
        ("xzzyx = zxxzyx", 2871),
        ("yzxz = yxzz", 7356),
    ],
)
def test_check_table_witness_past_first_axis_on_w1(text, index):
    # M({w_1}) has order 35: these witnesses (random_identity draws) lie
    # past position n, the last three past n^2, in the default blocks
    m = rees_quotient(WordSet.of([generate_wn(1)]))
    ident = parse_identity(text)
    out = check_table(m, ident)
    assert (out.status, out.evaluations) == (FAILS, index)
    assert (out.evaluations, out.witness) == _least_witness(m, ident)


def test_match_pattern_xy_into_ab():
    subs = match_pattern(parse_word("xy"), parse_word("ab"))
    assert len(subs) == 8
    pairs = {(str(s[Letter("x")]), str(s[Letter("y")])) for s in subs}
    assert pairs == {
        ("1", "1"), ("1", "a"), ("1", "b"), ("1", "ab"),
        ("a", "1"), ("a", "b"), ("b", "1"), ("ab", "1"),
    }


def test_match_pattern_square_non_erasing():
    subs = match_pattern(parse_word("xx"), parse_word("aabb"), erasing=False)
    assert {str(s[Letter("x")]) for s in subs} == {"a", "b"}


def test_match_pattern_single_variable():
    w = parse_word("aab")
    subs = match_pattern(parse_word("x"), w)
    from monoidlab import factors

    assert len(subs) == len(factors(w))


def test_match_pattern_rejects_empty_pattern():
    with pytest.raises(ValueError):
        match_pattern(EPSILON, parse_word("ab"))
    with pytest.raises(ValueError):
        scan_matches(EPSILON, parse_word("ab"), lambda sub: None)


def test_scan_matches_streams_same_set():
    rng = random.Random(17)
    for _ in range(40):
        pattern = Word(tuple(Letter(rng.choice("xyz")) for _ in range(rng.randint(1, 3))))
        target = Word(tuple(Letter(rng.choice("ab")) for _ in range(rng.randint(0, 5))))
        streamed: list = []
        scan_matches(pattern, target, streamed.append)
        assert set(streamed) == set(match_pattern(pattern, target))


def test_match_pattern_deep_pattern():
    # longer than the recursion limit: the walker keeps its own stack
    assert 1500 > sys.getrecursionlimit()
    subs = match_pattern(parse_word("x^1500"), parse_word("ab"))
    assert subs == [Substitution.of({Letter("x"): EPSILON})]


def test_match_pattern_budget():
    with pytest.raises(BudgetExceededError):
        match_pattern(generate_wn(2), generate_wn(2), budget=100)


def naive_matches(pattern, target, erasing):
    from monoidlab import factors

    fac_words = factors(target)
    if not erasing:
        fac_words = [f for f in fac_words if len(f)]
    fac_set = {f.letters for f in factors(target)}
    variables = sorted(pattern.alphabet)
    out = set()
    for combo in itertools.product(fac_words, repeat=len(variables)):
        phi = dict(zip(variables, combo))
        image = tuple(l for c in pattern.letters for l in phi[c].letters)
        if image in fac_set:
            out.add(tuple((v, phi[v].letters) for v in variables))
    return out


def naive_scan(pattern, target, erasing=True):
    """Every factor match of the pattern into the target, once per start
    position, by plain recursion over the pattern letters: no memo, no
    erasure cut and no bound."""
    letters = target.letters
    variables = sorted(pattern.alphabet)
    out = []

    def walk(i, pos, phi):
        if i == len(pattern):
            out.append(Substitution.of({v: Word(phi[v]) for v in variables}))
            return
        c = pattern.letters[i]
        if c in phi:
            if letters[pos : pos + len(phi[c])] == phi[c]:
                walk(i + 1, pos + len(phi[c]), phi)
            return
        for end in range(pos + (not erasing), len(letters) + 1):
            phi[c] = letters[pos:end]
            walk(i + 1, end, phi)
        phi.pop(c, None)

    for start in range(len(letters) + 1):
        walk(0, start, {})
    return out


def test_scan_matches_stream_is_the_naive_multiset():
    # one entry per start position: the memo skips only subtrees that
    # report nothing, so no match is lost or repeated
    rng = random.Random(23)
    for _ in range(120):
        pattern = Word(tuple(Letter(rng.choice("xyz")) for _ in range(rng.randint(1, 5))))
        target = Word(tuple(Letter(rng.choice("abc")) for _ in range(rng.randint(0, 7))))
        erasing = rng.random() < 0.5
        streamed: list = []
        scan_matches(pattern, target, streamed.append, erasing)
        assert Counter(streamed) == Counter(naive_scan(pattern, target, erasing))


def test_scan_matches_stream_is_the_naive_list():
    # order included: the occurrence lookahead and the memo cut only
    # subtrees that hold no complete match.  Variables repeat up to eight
    # times, so both lookahead cuts fire.  A callback that returns True
    # gets the same stream: what it returns starts no bound
    rng = random.Random(29)
    for _ in range(300):
        pattern = Word(tuple(Letter(rng.choice("xyz")) for _ in range(rng.randint(1, 8))))
        target = Word(tuple(Letter(rng.choice("ab")) for _ in range(rng.randint(0, 10))))
        erasing = rng.random() < 0.5
        streamed: list = []
        scan_matches(pattern, target, streamed.append, erasing)
        assert streamed == naive_scan(pattern, target, erasing)
        truthy: list = []
        scan_matches(pattern, target, lambda sub: truthy.append(sub) or True, erasing)
        assert truthy == streamed


def test_match_pattern_complete_on_small_inputs():
    rng = random.Random(11)
    for _ in range(120):
        pattern = Word(tuple(Letter(rng.choice("xyz")) for _ in range(rng.randint(1, 4))))
        target = Word(tuple(Letter(rng.choice("ab")) for _ in range(rng.randint(0, 6))))
        erasing = rng.random() < 0.5
        mine = {
            tuple((l, w.letters) for l, w in s.assignment)
            for s in match_pattern(pattern, target, erasing)
        }
        assert mine == naive_matches(pattern, target, erasing)


def test_distinct_matches_are_in_values_key_order():
    # the order argument of _distinct_matches: ranking the distinct images
    # shortlex once makes plain tuple order on the rows _values_key order.
    # Over 2-3 letters, string order and shortlex order often disagree
    # (b before aa)
    rng = random.Random(37)
    disagree = 0
    for _ in range(300):
        names = "xyzt"[: rng.randint(1, 4)]
        pattern = Word(tuple(Letter(rng.choice(names)) for _ in range(rng.randint(1, 6))))
        letters = "abc"[: rng.randint(2, 3)]
        target = Word(tuple(Letter(rng.choice(letters)) for _ in range(rng.randint(0, 8))))
        erasing = rng.random() < 0.5
        variables, images, rows = identities._distinct_matches(pattern, target, erasing, 10**9)
        assert variables == sorted(pattern.alphabet)
        assert all((len(a), a.letters) < (len(b), b.letters) for a, b in zip(images, images[1:]))
        assert all(len(row) == len(variables) for row in rows)
        assert {i for row in rows for i in row} == set(range(len(images)))
        assert all(a < b for a, b in zip(rows, rows[1:]))
        coding = identities._Coding(target.alphabet)
        found: set = set()
        identities._scan_matches(
            pattern, coding.encode(target), erasing, 10**9, 0,
            lambda values, start, end: found.add(tuple(values)),
        )
        want = sorted(found, key=identities._values_key)
        assert [[images[i] for i in row] for row in rows] == [list(map(coding.word, row)) for row in want]
        disagree += sorted(found) != want
    assert disagree > 0


def test_distinct_matches_order_is_shortlex_per_variable():
    subs = match_pattern(parse_word("x"), parse_word("aab"))
    assert [str(s[Letter("x")]) for s in subs] == ["1", "a", "b", "aa", "ab", "aab"]
    subs = match_pattern(parse_word("xy"), parse_word("ab"))
    pairs = [(str(s[Letter("x")]), str(s[Letter("y")])) for s in subs]
    assert pairs == [
        ("1", "1"), ("1", "a"), ("1", "b"), ("1", "ab"),
        ("a", "1"), ("a", "b"), ("b", "1"), ("ab", "1"),
    ]
    empty = identities._distinct_matches(parse_word("xx"), parse_word("ab"), False, 10**9)
    assert empty == ([Letter("x")], [], [])


def test_check_rees_sigma_on_aabb():
    out = check_rees(AABB, parse_identity("x^3=x^4"))
    assert out.status == HOLDS


def test_check_rees_alphabet_mismatch_rule():
    out = check_rees(AABB, parse_identity("xy=x"))
    assert out.status == FAILS
    assert out.witness[Letter("y")] is ZERO
    assert out.witness[Letter("x")] == EPSILON
    assert evaluate(parse_word("xy"), out.witness, Q_AABB) != evaluate(
        parse_word("x"), out.witness, Q_AABB
    )
    # the rule holds for the empty word set too
    assert check_rees(WordSet.of([]), parse_identity("xy=x")).status == FAILS


def test_check_rees_separation_diagonal_witness():
    for n in (1, 2):
        out = check_rees(WordSet.of([generate_wn(n)]), separation_identity(n))
        assert out.status == FAILS
        assert out.witness == Substitution.identity_on(generate_wn(n).alphabet)


def test_check_rees_separation_off_diagonal():
    assert check_rees(WordSet.of([generate_wn(2)]), separation_identity(1)).status == HOLDS
    assert check_rees(WordSet.of([generate_wn(1)]), separation_identity(2)).status == HOLDS


def test_check_rees_separation_off_diagonal_three_default_budget():
    # sep(2) in w_3 and sep(3) in w_2 fit the default budget because the
    # subtrees of trivial erasures are cut
    for k in (1, 2):
        assert check_rees(WordSet.of([generate_wn(3)]), separation_identity(k)).status == HOLDS
        assert check_rees(WordSet.of([generate_wn(k)]), separation_identity(3)).status == HOLDS


def test_check_rees_separation_diagonal_three_default_budget():
    # the least-witness bound brings the (3,3) diagonal within the default
    # budget (11,640 nodes), with the canonical witness
    out = check_rees(WordSet.of([generate_wn(3)]), separation_identity(3))
    assert out.status == FAILS
    assert out.witness == Substitution.identity_on(generate_wn(3).alphabet)


def test_check_rees_separation_diagonal_four_default_budget():
    # the occurrence lookahead brings the (4,4) diagonal to about 127k
    # nodes (3.6M with the memo alone), within the default budget
    out = check_rees(WordSet.of([generate_wn(4)]), separation_identity(4))
    assert out.status == FAILS
    assert out.witness == Substitution.identity_on(generate_wn(4).alphabet)


def test_check_rees_holds_search_pays_nothing_for_the_bound():
    # a search that finds no mismatch never sets a best key, so it walks
    # exactly the nodes of the unbounded walk of both sides, memo and
    # occurrence lookahead included: 5,543 for sep(2) in w_3
    word_set, ident = WordSet.of([generate_wn(3)]), separation_identity(2)
    coding = identities._Coding(generate_wn(3).alphabet)
    spent = 0
    for u, v in ((ident.lhs, ident.rhs), (ident.rhs, ident.lhs)):
        for w in word_set:
            spent, key = identities._scan_matches(
                u, coding.encode(w), True, 10**9, spent, lambda *m: None, other=v
            )
            assert key is None
    assert spent == 5_543
    assert check_rees(word_set, ident, budget=5_543).status == HOLDS
    with pytest.raises(BudgetExceededError) as info:
        check_rees(word_set, ident, budget=5_542)
    assert info.value.spent == 5_543


def _budget_edge(k, text, nodes, evaluations, witness, *marks):
    return pytest.param(k, text, nodes, evaluations, witness, id=f"{k}-{nodes}", marks=marks)


@pytest.mark.parametrize(
    "k, text, nodes, evaluations, witness",
    [
        # the diagonal sep(k) in w_k, with the identity witness found at
        # the first match examined
        _budget_edge(2, None, 1_022, 1, None),
        _budget_edge(3, None, 11_640, 1, None),
        _budget_edge(4, None, 126_582, 1, None),
        _budget_edge(5, None, 1_269_098, 1, None, pytest.mark.stretch),
        # searches whose best key falls several times
        _budget_edge(3, "xzty=xzyt", 176_185, 4, {"t": "t_1", "x": "1", "y": "z_1", "z": "1"}),
        _budget_edge(
            3,
            "xxzty=zxyxt",
            23_523,
            12,
            {"t": "1", "x": "x", "y": "z_1.y_1^3.z_2.y_2^3.z_3.y_3^3", "z": "1"},
        ),
        _budget_edge(
            3, "ytxzz=zyxzt", 22_222, 11, {"t": "1", "x": "1", "y": "t_1.z_2.t_2.z_3.t_3.x", "z": "z_1"}
        ),
        _budget_edge(2, "xyzt=ytzx", 20_945, 4, {"t": "1", "x": "t_1", "y": "1", "z": "z_1"}),
        _budget_edge(2, "xzty=zxyt", 20_466, 5, {"t": "1", "x": "t_1", "y": "1", "z": "z_1"}),
    ],
)
def test_check_rees_diagonal_budget_edge(k, text, nodes, evaluations, witness):
    # a bound cut ends its block, so each FAIL search needs exactly these
    # nodes and examines exactly these matches; a row with no identity is
    # the diagonal sep(k), whose witness is the identity on w_k's letters
    word_set = WordSet.of([generate_wn(k)])
    ident = separation_identity(k) if text is None else parse_identity(text)
    if witness is None:
        witness = substitution_to_dict(Substitution.identity_on(generate_wn(k).alphabet))
    out = check_rees(word_set, ident, budget=nodes)
    assert (out.status, substitution_to_dict(out.witness), out.evaluations) == (
        FAILS,
        witness,
        evaluations,
    )
    with pytest.raises(BudgetExceededError) as info:
        check_rees(word_set, ident, budget=nodes - 1)
    assert info.value.spent == nodes


def test_bounded_walk_reports_the_running_minimum():
    # independent rule: of the unbounded walk's matches, the bounded walk
    # reports exactly those whose key is below every key reported before,
    # in the same order, and returns the key of the last one.  The fixed
    # case catches a cut that ends a block on a comparison that fell below
    # the best key.  A walk seeded with that key reports nothing and hands
    # it back unchanged, as check_rees seeds each walk.  A walk seeded with
    # the key of a random match reports the running minimum below that
    # seed, so seeded walks are also compared mid-range
    rng = random.Random(31)
    cases = [("yzzz", "abbaaab", False, None)]
    for _ in range(3000):
        pattern = "".join(rng.choice("xyz") for _ in range(rng.randint(1, 6)))
        target = "".join(rng.choice("ab") for _ in range(rng.randint(1, 10)))
        other = None
        if rng.random() < 0.5:
            other = "".join(rng.choice(sorted(set(pattern))) for _ in range(rng.randint(1, 6)))
        cases.append((pattern, target, rng.random() < 0.5, other))
    coding = identities._Coding(parse_word("ab").alphabet)
    for pattern, target, erasing, other in cases:
        args = (parse_word(pattern), coding.encode(parse_word(target)), erasing, 10**9, 0)
        other = None if other is None else parse_word(other)
        every: list = []
        identities._scan_matches(
            *args, lambda values, start, end: every.append((tuple(values), start, end)), other
        )

        def running_minimum(low):
            want = []
            for match in every:
                key = identities._values_key(match[0])
                if low is None or key < low:
                    want.append(match)
                    low = key
            return want

        got: list = []

        def keep(values, start, end):
            got.append((tuple(values), start, end))
            return True

        want = running_minimum(None)
        _, key = identities._scan_matches(*args, keep, other)
        assert got == want, (pattern, target, erasing, other)
        assert key == (identities._values_key(got[-1][0]) if got else None)
        got.clear()
        _, seeded = identities._scan_matches(*args, keep, other, key)
        assert got == [] and seeded == key
        if every:
            seed = identities._values_key(rng.choice(every)[0])
            want = running_minimum(seed)
            got.clear()
            _, seeded = identities._scan_matches(*args, keep, other, seed)
            assert got == want, (pattern, target, erasing, other, seed)
            assert seeded == (identities._values_key(got[-1][0]) if got else seed)


@pytest.mark.stretch
def test_check_rees_separation_row_three_raised_budget():
    raised = 2 * 10**8
    out = check_rees(WordSet.of([generate_wn(3)]), separation_identity(3), budget=raised)
    assert out.status == FAILS
    assert out.witness == Substitution.identity_on(generate_wn(3).alphabet)
    for k in (1, 2):
        assert check_rees(
            WordSet.of([generate_wn(k)]), separation_identity(3), budget=raised
        ).status == HOLDS
        assert check_rees(
            WordSet.of([generate_wn(3)]), separation_identity(k), budget=raised
        ).status == HOLDS


def test_check_rees_witness_revalidates():
    ident = separation_identity(1)
    word_set = WordSet.of([generate_wn(1)])
    out = check_rees(word_set, ident)
    q = rees_quotient(word_set)
    assert evaluate(ident.lhs, out.witness, q) != evaluate(ident.rhs, out.witness, q)


def reference_rees(word_set, ident):
    """check_rees rebuilt without the erasure prune, the least-witness
    bound or the dead-state memo: the alphabet rule, then every match of
    either side through :func:`naive_scan`, keeping the least mismatch with
    each image compared shortlex in variable order."""
    alf_l, alf_r = ident.lhs.alphabet, ident.rhs.alphabet
    if alf_l != alf_r:
        lone = min(alf_l ^ alf_r)
        return FAILS, Substitution.of({v: ZERO if v == lone else EPSILON for v in alf_l | alf_r})
    best = None
    for u, v in ((ident.lhs, ident.rhs), (ident.rhs, ident.lhs)):
        for w in word_set:
            for sub in naive_scan(u, w):
                if sub.apply(u) != sub.apply(v):
                    key = tuple(image.shortlex_key() for _, image in sub.assignment)
                    if best is None or key < best[0]:
                        best = (key, sub)
    return (HOLDS, None) if best is None else (FAILS, best[1])


small_word_sets = st.lists(st.text("abc", min_size=1, max_size=8), max_size=3).map(
    lambda texts: ws(*texts)
)
side_texts = st.text("xyz", min_size=1, max_size=6)
# half the pairs share an alphabet, so the matcher, not the alphabet rule,
# decides them
side_pairs = st.tuples(side_texts, side_texts) | side_texts.flatmap(
    lambda lhs: st.tuples(st.just(lhs), st.text("".join(sorted(set(lhs))), min_size=1, max_size=6))
)


@settings(max_examples=300, deadline=None)
@given(small_word_sets, side_pairs)
# In each example two mismatches tie on x and differ on a later variable.
# {x -> a, y -> c} is found after {x -> a, y -> aac}, below an equal,
# incomplete prefix x -> a:
@example(ws("aaac"), ("xy", "yx"))
# zyx binds z and y before x, so they form no sorted prefix: z -> a,
# below the best z -> b, must not let {x -> 1, y -> b, z -> a} replace
# {x -> 1, y -> a, z -> b}:
@example(ws("ab"), ("yzx", "zyx"))
# the best key improves inside a subtree whose prefix compared below the
# old one, so the cached comparison must be refreshed:
@example(ws("ab"), ("yyx", "xyx"))
@example(ws("accc"), ("xzyx", "xyz"))
# The memo's masks: in the yzx pass the block of x at position 2 is
# recorded dead under the erasure {y}, then opens with nothing erased and
# finds the witness {x -> 1, y -> a, z -> b}; the block of z at position 2
# is recorded dead with nothing erased, then skipped under {y}:
@example(ws("ab"), ("xxzy", "yzx"))
# A subtree with a bound cut is not recorded: x at position 2 first opens
# under z -> ba, worse than the best z -> b, and the bound cuts x -> 1;
# it opens again under z -> a, where {x -> 1, z -> a} is the new least
# witness:
@example(ws("ba"), ("zx", "xzz"))
def test_check_rees_matches_unpruned_reference(word_set, sides):
    ident = Identity(*map(parse_word, sides))
    out = check_rees(word_set, ident)
    assert (out.status, out.witness) == reference_rees(word_set, ident)


join_sides = st.text("xyz", max_size=5)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.text("abc", min_size=1, max_size=6), max_size=3),
    st.tuples(join_sides, join_sides) | join_sides.map(lambda side: (side, side)),
)
@example([], ("xy", "yzx"))
def test_check_rees_is_the_join_of_its_words(texts, sides):
    # var M(W) is the join of var M({w}), w in W; the empty set carries the
    # alphabet rule, which no word of W decides
    ident = Identity(*(parse_word(side or "1") for side in sides))
    parts = [ws()] + [ws(t) for t in texts]
    joined = HOLDS if all(check_rees(p, ident).status == HOLDS for p in parts) else FAILS
    assert check_rees(ws(*texts), ident).status == joined


def test_check_rees_equal_sides():
    assert check_rees(AABB, parse_identity("xyx=xyx")).status == HOLDS


def test_checkers_agree_on_seeded_sample():
    rng = random.Random(5)
    corpus = [ws(), ws("ab"), ws("aabb"), ws("abab")]
    quotients = [rees_quotient(c) for c in corpus]
    for _ in range(40):
        ident = random_identity(rng)
        for word_set, q in zip(corpus, quotients):
            assert check_rees(word_set, ident).status == check_table(q, ident).status


def test_basis_contents():
    sigma = [str(i) for i in basis("SIGMA")]
    assert sigma == [
        "xxx = xxxx",
        "xxxy = yxxx",
        "yzxxx = xyxzx",
        "xyzxty = yxzxty",
        "xzytxy = xzytyx",
    ]
    lee_li = [str(i) for i in basis("LEE_LI")]
    assert lee_li == [
        "xxx = xxxx",
        "yzxxx = xyxzx",
        "xxxyyy = yyyxxx",
        "ytxxxy = ytyxxx",
        "xyzxty = yxzxty",
        "xzytxy = xzytyx",
    ]
    for ident in basis("SIGMA") + basis("LEE_LI"):
        assert ident.lhs.alphabet == ident.rhs.alphabet
    with pytest.raises(UnknownBasisError):
        basis("nope")


def test_separation_identity_shape():
    ident = separation_identity(1)
    assert str(ident.lhs) == "z_1.t_1.x.z_1.y_1^1.x.y_1^0.y_1^1"
    assert str(ident.rhs) == "x.x.z_1.t_1.z_1.y_1^1.y_1^0.y_1^1"
    for n in (1, 2, 3):
        ident = separation_identity(n)
        assert ident.lhs.alphabet == ident.rhs.alphabet
        from monoidlab import is_square_free

        assert is_square_free(ident.lhs)
        assert not is_square_free(ident.rhs)
    with pytest.raises(ValueError):
        separation_identity(0)


def test_star_property_identity_and_empty():
    w1 = generate_wn(1)
    assert check_star_property(w1, w1, Substitution.identity_on(w1.alphabet))
    all_empty = Substitution.of({l: EPSILON for l in w1.alphabet})
    assert check_star_property(w1, generate_wn(2), all_empty)


@pytest.mark.parametrize(
    "n, k, matches",
    [
        pytest.param(1, 2, 1_432, id="w1_into_w2"),
        pytest.param(1, 3, 6_892, id="w1_into_w3"),
        pytest.param(2, 3, 480_185, id="w2_into_w3", marks=pytest.mark.stretch),
    ],
)
def test_star_property_all_matches(n, k, matches):
    # the per-match oracle at the scale of the family, where claim C11
    # checks only the premises of the alignment lemma
    wn, wk = generate_wn(n), generate_wn(k)
    seen = 0

    def on_match(sub):
        nonlocal seen
        assert check_star_property(wn, wk, sub), sub
        seen += 1

    # (2,3) walks more than the default 10^6 nodes
    scan_matches(wn, wk, on_match, budget=2 * 10**8)
    assert seen == matches


def test_star_property_rejects_non_match():
    w1 = generate_wn(1)
    bogus = Substitution.of(
        {l: parse_word("a") for l in w1.alphabet}
    )
    with pytest.raises(ValueError):
        check_star_property(w1, generate_wn(2), bogus)


def test_star_property_detects_misaligned_single_letter():
    # map both occurrences of x onto the two occurrences of b in abab:
    # the aligned case passes, a fat image fails
    pattern = parse_word("xyx")
    target = parse_word("bab")
    aligned = Substitution.of({Letter("x"): parse_word("b"), Letter("y"): parse_word("a")})
    assert check_star_property(pattern, target, aligned)
    fat = Substitution.of({Letter("x"): parse_word("ba"), Letter("y"): EPSILON})
    assert not check_star_property(pattern, parse_word("baba"), fat)
    # bab sits at two places in babab: the second puts x on the 2nd and
    # 3rd b, so the property fails although the first placement aligns
    assert not check_star_property(pattern, parse_word("babab"), aligned)


def reference_star(wn, wk, subst):
    """The docstring of check_star_property, position by position."""
    mapping = subst.as_dict()
    image = subst.apply(wn)
    starts = [
        s
        for s in range(len(wk) - len(image) + 1)
        if wk.letters[s : s + len(image)] == image.letters
    ]
    if not starts:
        raise ValueError("not a match")

    def placed(s, i):
        # 1-based target position of the image of the letter at 1-based position i
        return s + sum(len(mapping[c]) for c in wn.letters[: i - 1]) + 1

    for s in starts:
        for c in wn.alphabet:
            occ = occurrence_positions(wn, c)
            if len(occ) < 2 or len(mapping[c]) == 0:
                continue
            if len(mapping[c]) != 1:
                return False
            occ_d = occurrence_positions(wk, mapping[c].letters[0])
            if len(occ_d) < 2:
                return False
            if [placed(s, occ[0]), placed(s, occ[1])] != occ_d[:2]:
                return False
    return True


@settings(max_examples=300, deadline=None)
@given(st.text("xyz", min_size=1, max_size=5), st.text("abc", min_size=1, max_size=7))
def test_star_property_matches_reference(pattern_text, target_text):
    pattern, target = parse_word(pattern_text), parse_word(target_text)
    for sub in match_pattern(pattern, target):
        assert check_star_property(pattern, target, sub) == reference_star(pattern, target, sub)


def test_no_div_hand_instance():
    aba = parse_word("aba")
    assert check_no_div_instance(aba, Substitution.identity_on(aba.alphabet), EPSILON, EPSILON)


def test_no_div_vacuous_without_positive_depth():
    w = parse_word("abc")
    phi = Substitution.of({l: parse_word("ab") for l in w.alphabet})
    assert check_no_div_instance(w, phi, parse_word("a"), parse_word("b"))


def test_no_div_incomplete_substitution():
    with pytest.raises(KeyError):
        check_no_div_instance(
            parse_word("aba"), Substitution.of({Letter("a"): EPSILON}), EPSILON, EPSILON
        )


def test_no_div_random_instances():
    from monoidlab import INFINITY, depth_map

    rng = random.Random(99)
    exercised = 0
    for _ in range(300):
        w, phi, a, b = random_no_div_instance(rng)
        assert check_no_div_instance(w, phi, a, b)
        depths = depth_map(w)
        if any(
            d != INFINITY and d > 0 and len(phi[x])
            for x, d in depths.items()
        ):
            exercised += 1
    # the sample must actually hit the positive-depth path, not pass vacuously
    assert exercised > 50
