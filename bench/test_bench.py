"""Tests of the benchmark itself: seeded inputs, output checks, budget failures.

    python -m pytest bench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import run

sys.path.insert(0, run.SRC)

import monoidlab as ml  # noqa: E402
import reference as ref  # noqa: E402
import workloads  # noqa: E402
from workloads import Rejected  # noqa: E402


def labels(workload: str, seed: int) -> list[str]:
    return [op.label for op in workloads.build(workload, seed)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_repeat_for_a_seed(workload):
    assert labels(workload, 7) == labels(workload, 7)
    assert labels(workload, 7) != labels(workload, 8)


def test_benchmark_json_names_every_metric():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_reference_verdicts():
    aabb = ref.factor_set([tuple("aabb")])
    assert ref.verdict(tuple("xxx"), tuple("xxxx"), aabb) == "HOLDS"
    assert ref.verdict(tuple("xy"), tuple("yx"), aabb) == "FAILS"
    assert ref.verdict(tuple("xy"), tuple("x"), aabb) == "FAILS"
    # every distinct assignment of xy onto a factor of ab
    ab = ref.factor_set([tuple("ab")])
    assert len(ref.matches(tuple("xy"), ab)) == 1 + 2 + 2 + 3


def _op(workload: str, seed: int, prefix: str):
    return next(op for op in workloads.build(workload, seed) if op.label.startswith(prefix))


def test_separation_check_rejects_flipped_verdict_and_bad_witness():
    op = _op("separation", 0, "sep(1) in w_1")
    out = op.call()
    op.check(out)
    with pytest.raises(Rejected):
        op.check(ml.CheckOutcome("HOLDS", None, out.evaluations))
    x = ml.Letter("x")
    bad = ml.Substitution(tuple(
        (v, ml.EPSILON if v == x else w) for v, w in out.witness.assignment))
    with pytest.raises(Rejected):
        op.check(ml.CheckOutcome("FAILS", bad, out.evaluations))


def test_balanced_check_rejects_flipped_verdict_and_bad_witness():
    ops = [op for op in workloads.build("separation", 0) if " in w_2" in op.label
           and not op.label.startswith("sep")]
    outs = [(op, op.call()) for op in ops]
    op, fails = next((op, out) for op, out in outs if out.status == "FAILS")
    op.check(fails)
    erased = ml.Substitution(tuple((v, ml.EPSILON) for v, _ in fails.witness.assignment))
    with pytest.raises(Rejected):
        op.check(ml.CheckOutcome("FAILS", erased, fails.evaluations))
    with pytest.raises(Rejected):
        op.check(ml.CheckOutcome("HOLDS", None, fails.evaluations))
    op, holds = next((op, out) for op, out in outs if out.status == "HOLDS")
    op.check(holds)
    with pytest.raises(Rejected):
        op.check(ml.CheckOutcome("FAILS", ml.Substitution(()), holds.evaluations))


def test_query_checks_reject_flipped_verdicts():
    ops = workloads.build("queries", 0)
    for op in ops:
        if op.kind == "check-table":
            code, stdout, err = out = op.call()
            op.check(out)
            flipped = "HOLDS\n" if code else 'FAILS  witness {"x": "1"}\n'
            with pytest.raises(Rejected):
                op.check((1 - code, flipped, err))
        if op.kind == "check-both":
            code, stdout, err = out = op.call()
            op.check(out)
            data = json.loads(stdout)
            data["agree"] = False
            with pytest.raises(Rejected):
                op.check((code, json.dumps(data), err))


def test_query_checks_reject_corrupted_witness_and_matches():
    ops = workloads.build("queries", 0)
    match = next(op for op in ops if op.kind == "match")
    code, stdout, err = out = match.call()
    match.check(out)
    subs = json.loads(stdout)
    with pytest.raises(Rejected):
        match.check((code, json.dumps(subs[1:]), err))
    wrong = dict(subs[0], **{next(iter(subs[0])): "z_9"})
    with pytest.raises(Rejected):
        match.check((code, json.dumps([wrong] + subs[1:]), err))
    sep1 = str(ml.separation_identity(1))
    code, stdout, err = out = workloads.run_cli(
        ["check", "--method", "rees", "--monoid", "rees:wn:1,2", "--identity", sep1])
    workloads._check_wn_rees((1, 2), sep1, out)
    erased = {v: "1" for v in json.loads(stdout.partition("witness ")[2])}
    with pytest.raises(Rejected):
        workloads._check_wn_rees((1, 2), sep1, (code, "FAILS  witness " + json.dumps(erased), err))


def test_claims_check_rejects_a_failing_claim():
    report = ml.Report(ml.VerifyConfig(), [
        ml.verify.ClaimResult(f"C{i}", "t", "PASS", None, 1) for i in range(1, 15)])
    workloads._check_report(report)
    report.claims[6].status = "FAIL"
    with pytest.raises(Rejected):
        workloads._check_report(report)


@pytest.mark.parametrize("workload", ["separation", "queries"])
def test_tiny_budget_counts_as_failed_ops(workload):
    outcome = run.Outcome(workloads.build(workload, 0, budget=10)[:12])
    outcome.run_rounds(rounds=1)
    failures = outcome.check()
    exhausted = [r for _, r in outcome.results
                 if isinstance(r, ml.BudgetExceededError) or r[0] == 3]
    # one round, and a rerun of the first op that gave an output
    assert len(outcome.results) == 12 + bool(outcome.first)
    assert len(failures) == len(exhausted) > 0
    if workload == "separation":
        assert len(failures) == 12 and not outcome.first


def test_tiny_budget_claims_pass_is_a_failed_op():
    outcome = run.Outcome(workloads.build("claims", 0, budget=10)[:1])
    outcome.run_rounds(rounds=1)
    failures = outcome.check()
    assert len(outcome.results) == 2   # the timed pass and its same-seed rerun
    assert len(failures) == 2 and "BUDGET" in failures[0]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "queries", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
