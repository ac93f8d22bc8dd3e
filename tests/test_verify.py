"""Claim suite behavior, enumeration, cross-validation, determinism."""

from __future__ import annotations

import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monoidlab import (
    BudgetExceededError,
    EPSILON,
    HomomorphismViolationError,
    Length2Profile,
    Letter,
    Substitution,
    VerifyConfig,
    Word,
    WordSet,
    check_star_property,
    cross_check_checkers,
    enumerate_small_rees,
    evaluate,
    generate_wn,
    parse_identity,
    parse_word,
    rees_quotient,
    run_claims,
    scan_matches,
    separation_identity,
)
from monoidlab.identities import FAILS, HOLDS, CheckOutcome
from monoidlab.words import INFINITY
import monoidlab.verify as verify_mod


def slice_factors(sequences):
    # brute-force oracle: every slice of every tuple, sorted shortlex
    seen = {()}
    for seq in sequences:
        n = len(seq)
        seen.update(seq[i:j] for i in range(n) for j in range(i + 1, n + 1))
    # the sort by length is stable, so each length keeps the element order
    return sorted(sorted(seen), key=len)


@pytest.fixture(scope="module")
def default_report():
    return run_claims(VerifyConfig())


def test_registry_order_and_ids(default_report):
    assert [c.id for c in default_report.claims] == [f"C{i}" for i in range(1, 15)]


def test_all_claims_pass(default_report):
    bad = [(c.id, c.status, c.witness) for c in default_report.claims if c.status != "PASS"]
    assert not bad, bad


def test_summary_counts(default_report):
    s = default_report.summary
    assert s == {"pass": 14, "fail": 0, "skipped": 0, "budget": 0}
    assert default_report.all_passed


def test_report_json_schema(default_report):
    data = json.loads(default_report.to_json())
    assert set(data) == {"config", "claims", "summary"}
    assert set(data["config"]) == {"max_n", "seed", "table_budget", "match_budget"}
    for claim in data["claims"]:
        assert set(claim) == {"id", "title", "status", "witness", "millis"}
    assert set(data["summary"]) == {"pass", "fail", "skipped", "budget"}


def test_max_n_one_skips_distinctness():
    report = run_claims(VerifyConfig(max_n=1))
    by_id = {c.id: c for c in report.claims}
    assert by_id["C9"].status == "SKIPPED"
    assert all(
        c.status in ("PASS", "SKIPPED") for c in report.claims
    ), report.to_text()


def test_run_claims_rejects_bad_config():
    with pytest.raises(ValueError):
        run_claims(VerifyConfig(max_n=0))


def _without_millis(report):
    data = report.to_dict()
    for claim in data["claims"]:
        claim["millis"] = 0
    return data


def test_determinism_modulo_millis():
    first = run_claims(VerifyConfig(max_n=1, seed=7))
    second = run_claims(VerifyConfig(max_n=1, seed=7))
    assert _without_millis(first) == _without_millis(second)


def test_determinism_modulo_millis_with_distinctness(default_report):
    # at max_n = 1 C9 is SKIPPED; max_n = 2 (the default) runs it
    again = run_claims(default_report.config)
    assert _without_millis(default_report) == _without_millis(again)


def test_substitution_to_dict_reads_element_indices_as_evaluate_does():
    # a numpy integer is an element index and a bool is not, in the
    # renderer as in evaluate
    q = rees_quotient(WordSet.of([parse_word("aabb")]))
    x, y = Letter("x"), Letter("y")
    sub = Substitution.of({x: np.int64(3), y: True})
    assert verify_mod.substitution_to_dict(sub, q) == {"x": q.label_text(3), "y": "True"}
    assert verify_mod.substitution_to_dict(sub) == {"x": "3", "y": "True"}
    assert evaluate(Word((x,)), sub, q) == 3
    with pytest.raises(TypeError):
        evaluate(Word((y,)), sub, q)


def test_enumerate_defaults():
    assert [(str(w), o) for w, o in enumerate_small_rees()] == [
        ("aabb", 10),
        ("abab", 9),
        ("abba", 10),
    ]


def test_enumerate_tighter_order():
    assert [(str(w), o) for w, o in enumerate_small_rees(max_order=9)] == [("abab", 9)]


def test_enumerate_short_words():
    assert enumerate_small_rees(max_len=3) == []


def _restricted_growth_shapes(length: int):
    """Brute-force oracle: every restricted-growth tuple of the given
    length, one per letter-renaming class of words, in lexicographic
    order."""

    def extend(prefix: list[int], used: int):
        if len(prefix) == length:
            yield tuple(prefix)
            return
        for v in range(used + 1):
            prefix.append(v)
            yield from extend(prefix, max(used, v + 1))
            prefix.pop()

    return extend([], 0)


def test_factor_count_is_the_quotient_order_on_canonical_shapes():
    # C14 reads each order off the factor count; the table builder checks it
    for length in range(1, 7):
        for shape in _restricted_growth_shapes(length):
            word = Word(tuple(Letter(chr(ord("a") + v)) for v in shape))
            order = rees_quotient(WordSet.of([word])).order
            assert len(slice_factors([shape])) + 1 == order, shape


def test_enumerate_equals_the_brute_force_search():
    # every shape of length <= 8 (5,295 of them), in shortlex order, with
    # its order and whether two of its letters repeat
    shapes = [
        (shape, len(slice_factors([shape])) + 1, sum(c >= 2 for c in Counter(shape).values()) >= 2)
        for length in range(1, 9)
        for shape in _restricted_growth_shapes(length)
    ]
    for max_len in range(9):
        for max_order in range(13):
            want = [
                ("".join(chr(ord("a") + v) for v in shape), order)
                for shape, order, repeated in shapes
                if repeated and len(shape) <= max_len and order <= max_order
            ]
            got = [(str(w), o) for w, o in enumerate_small_rees(max_len, max_order)]
            assert got == want, (max_len, max_order)


def test_enumerate_examines_only_shapes_within_the_order(monkeypatch):
    # a search of every shape up to length 12 would examine 5,034,584
    calls = 0
    real = verify_mod.factor_trie

    def counting(sequences, limit=INFINITY):
        nonlocal calls
        calls += 1
        if calls > 100:
            raise AssertionError("the search examines shapes past the order bound")
        return real(sequences, limit)

    monkeypatch.setattr(verify_mod, "factor_trie", counting)
    assert enumerate_small_rees(max_len=12, max_order=3) == []
    calls = 0
    assert [(str(w), o) for w, o in enumerate_small_rees()] == [
        ("aabb", 10),
        ("abab", 9),
        ("abba", 10),
    ]


def test_cross_check_small_run():
    result = cross_check_checkers(seed=42, count=30)
    assert result.ok
    assert result.checked == 30 * 7
    assert result.discrepancy is None


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_cross_check_full_run_on_more_corpora(seed):
    result = cross_check_checkers(seed, 200)
    assert (result.ok, result.checked, result.discrepancy) == (True, 200 * 7, None)


def test_cross_check_vacuous():
    result = cross_check_checkers(seed=1, count=0)
    assert result.ok and result.checked == 0


def test_cross_check_detects_broken_checker(monkeypatch):
    # simulate a matcher bug: the word-level checker blindly reports HOLDS
    monkeypatch.setattr(
        verify_mod, "check_rees", lambda ws, ident, budget: CheckOutcome(HOLDS, None, 0)
    )
    result = verify_mod.cross_check_checkers(seed=0, count=40)
    assert not result.ok
    assert result.discrepancy is not None
    assert result.discrepancy["rees"] != result.discrepancy["table"]


def _recording_rees(monkeypatch, forced=()):
    """Patch the claims' ``check_rees`` to record each call as (indices of
    the family words, identity), and to report ``forced[call]`` in place of
    the real status where given."""
    forced = dict(forced)
    index = {generate_wn(k): k for k in (1, 2)}
    calls = []
    real = verify_mod.check_rees

    def fake(word_set, ident, budget):
        call = (tuple(sorted(index[w] for w in word_set)), ident)
        calls.append(call)
        if call in forced:
            witness = Substitution.of({v: EPSILON for v in ident.lhs.alphabet | ident.rhs.alphabet})
            return CheckOutcome(forced[call], witness, 0)
        return real(word_set, ident, budget)

    monkeypatch.setattr(verify_mod, "check_rees", fake)
    return calls


@pytest.mark.parametrize("claim", ["_claim_sigma_truncations", "_claim_distinct_varieties"])
def test_subset_claims_check_single_words_once(monkeypatch, claim):
    calls = _recording_rees(monkeypatch)
    cfg = VerifyConfig(max_n=2)
    rows = (verify_mod._separation_rows(cfg),) if claim == "_claim_distinct_varieties" else ()
    status, _ = getattr(verify_mod, claim)(cfg, *rows)
    assert status == "PASS"
    assert all(len(ks) <= 1 for ks, _ in calls), calls
    assert len(calls) == len(set(calls))


def test_sigma_failure_on_one_word_fails_its_subset(monkeypatch):
    ident = parse_identity("x^3y=yx^3")
    _recording_rees(monkeypatch, {((2,), ident): FAILS})
    status, witness = verify_mod._claim_sigma_truncations(VerifyConfig(max_n=2))
    assert status == "FAIL"
    assert (witness["subset"], witness["identity"], witness["status"]) == ([2], str(ident), FAILS)


@pytest.mark.parametrize(
    "n, word_indices, status, subsets",
    [
        # sep(2) holding in M({w_2}) no longer tells {w_2} from the empty set
        (2, (2,), HOLDS, [[], [2]]),
        # sep(1) failing on the empty set, as the alphabet rule would, fails
        # on every subset, so it separates none
        (1, (), FAILS, [[], [1]]),
    ],
)
def test_distinctness_reads_the_verdict_matrix(monkeypatch, n, word_indices, status, subsets):
    _recording_rees(monkeypatch, {(word_indices, separation_identity(n)): status})
    cfg = VerifyConfig(max_n=2)
    got = verify_mod._claim_distinct_varieties(cfg, verify_mod._separation_rows(cfg))
    assert got == ("FAIL", {"subsets": subsets})


def test_run_claims_checks_each_separation_entry_once(monkeypatch):
    seps = {separation_identity(n) for n in (1, 2)}
    counts = Counter()
    real = verify_mod.check_rees

    def counting(word_set, ident, budget):
        if ident in seps:
            counts[word_set, ident] += 1
        return real(word_set, ident, budget)

    monkeypatch.setattr(verify_mod, "check_rees", counting)
    # the second run checks again: no row outlives the run that computed it
    for _ in range(2):
        counts.clear()
        assert run_claims(VerifyConfig(max_n=2)).all_passed
        # sep(1) and sep(2), each on the empty word set, {w_1} and {w_2}
        assert len(counts) == 6 and set(counts.values()) == {1}, counts


def test_separation_budget_error_is_checked_once_for_both_claims(monkeypatch):
    entry = (WordSet.of([generate_wn(2)]), separation_identity(2))
    error = BudgetExceededError("matcher budget of 10 backtracking nodes exhausted", 11, 10)
    counts = Counter()
    real = verify_mod.check_rees

    def raising(word_set, ident, budget):
        counts[word_set, ident] += 1
        if (word_set, ident) == entry:
            raise error
        return real(word_set, ident, budget)

    monkeypatch.setattr(verify_mod, "check_rees", raising)
    by_id = {c.id: c for c in run_claims(VerifyConfig(max_n=2)).claims}
    assert by_id["C7"].status == by_id["C9"].status == "BUDGET"
    assert by_id["C7"].witness == by_id["C9"].witness == {"error": str(error)}
    # C9 re-raises the error stored by C7's row instead of checking again
    assert counts[entry] == 1


def test_zero_match_budget_exhausts_both_separation_claims():
    # C9 re-raises the budget error that C7's row stored
    report = run_claims(VerifyConfig(max_n=2, match_budget=0))
    by_id = {c.id: c.status for c in report.claims}
    assert by_id["C7"] == by_id["C9"] == "BUDGET"


# targets that break one premise of the alignment lemma, each with a
# match that breaks the alignment
_BROKEN_PREMISES = {
    # x's two occurrences land on the 2nd and 3rd a
    ("xyx", "abaca"): ("max_occurrences", {"x": "a", "y": "c"}),
    # x's image ab is a length-2 factor at two positions
    ("xx", "abab"): ("length2_unique", {"x": "ab"}),
}


@settings(max_examples=300, deadline=None)
@given(st.text("xyz", min_size=1, max_size=6), st.text("abcd", min_size=1, max_size=9))
@example("xyx", "abaca")
@example("xx", "abab")
def test_alignment_premises_imply_the_property(pattern_text, target_text):
    pattern, target = parse_word(pattern_text), parse_word(target_text)
    breaking = []

    def on_match(sub):
        if not check_star_property(pattern, target, sub):
            breaking.append({str(v): str(img) for v, img in sub.as_dict().items()})

    scan_matches(pattern, target, on_match)
    premise = verify_mod._alignment_premise(target)
    if premise is None:
        assert not breaking
    if (pattern_text, target_text) in _BROKEN_PREMISES:
        name, match = _BROKEN_PREMISES[pattern_text, target_text]
        assert premise == name
        assert match in breaking


def _raise(*args, **kwargs):
    raise AssertionError("C11 enumerates matches")


def test_star_property_claim_checks_the_premises_only(monkeypatch):
    monkeypatch.setattr(verify_mod, "scan_matches", _raise, raising=False)
    monkeypatch.setattr(verify_mod, "check_star_property", _raise, raising=False)
    assert verify_mod._claim_star_property(VerifyConfig(max_n=3)) == ("PASS", None)
    monkeypatch.setattr(verify_mod, "length2_profile", lambda w: Length2Profile(False, True))
    got = verify_mod._claim_star_property(VerifyConfig(max_n=3))
    assert got == ("FAIL", {"k": 2, "premise": "length2_unique"})


def _no_table(*args, **kwargs):
    raise AssertionError("C10 builds a table")


def test_quotient_map_claim_builds_no_table(monkeypatch):
    import monoidlab.rees as rees_mod

    monkeypatch.setattr(verify_mod, "rees_quotient", _no_table)
    monkeypatch.setattr(rees_mod, "rees_quotient", _no_table)
    monkeypatch.setattr(rees_mod, "from_table", _no_table)
    assert verify_mod._claim_quotient_maps(VerifyConfig(max_n=3)) == ("PASS", None)


def test_quotient_map_claim_maps_out_of_the_full_set_only(monkeypatch):
    calls = []
    real = verify_mod.quotient_map

    def counting(source, target):
        calls.append((source, target))
        return real(source, target)

    monkeypatch.setattr(verify_mod, "quotient_map", counting)
    for n in (1, 2, 3):
        calls.clear()
        assert verify_mod._claim_quotient_maps(VerifyConfig(max_n=n)) == ("PASS", None)
        full = WordSet.of(generate_wn(k) for k in range(1, n + 1))
        assert len(calls) == 2**n and {source for source, _ in calls} == {full}
        assert len({target for _, target in calls}) == 2**n


def test_quotient_map_claim_fails_when_a_map_fails(monkeypatch):
    real = verify_mod.quotient_map

    def failing(source, target):
        if target == WordSet.of([generate_wn(1)]):
            raise HomomorphismViolationError("map is not surjective")
        return real(source, target)

    monkeypatch.setattr(verify_mod, "quotient_map", failing)
    by_id = {c.id: c for c in run_claims(VerifyConfig(max_n=1)).claims}
    assert by_id["C10"].status == "FAIL"
    assert by_id["C10"].witness == {"error": "HomomorphismViolationError: map is not surjective"}
