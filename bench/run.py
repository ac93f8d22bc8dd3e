"""Run one benchmark workload against the package in ``src/`` and print its metrics.

    python3 bench/run.py --workload claims --seed 0 --seconds 30 --trace 0

Run from the repository root.  One client runs a closed loop: the round
of operations built from ``--seed`` repeats, in whole rounds, for about
``--seconds`` of timed operation time.  Outputs are checked after
timing.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A traced run
makes one round in which each op runs once traced and once untraced, in
alternating order, for the overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

# Fixed per workload so that runs of any length, on any commit, read the
# tail at the same percentile.  Separation and queries leave at least 10
# samples beyond it in one round.  A claims run is one round of 8 passes,
# too few for that, so its tail is p75 (2 beyond).
TAIL_PERCENTILE = {"claims": 75, "separation": 90, "queries": 85}
# Set-up probes, spread over the run so that their median samples the
# machine across the whole run rather than in one short stretch.
SETUP_PROBES = 11
# Set up as a run does, in a fresh interpreter: import, inputs, warm-up.
PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import monoidlab, workloads
workloads.build(sys.argv[3], int(sys.argv[4]))
workloads.warm_up()
print(repr(time.perf_counter() - t0))
"""

END_TO_END = {
    "ops_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s",
    "setup_s": "s", "peak_rss_mb": "MB",
}
CLAIM_IDS = [f"C{i}" for i in range(1, 15)]
PER_LAYER = {
    "words.parse_s": "s", "words.factors_s": "s", "words.depth_s": "s",
    "words.self_s": "s", "words.calls": "count",
    "rees.quotient_s": "s", "rees.quotients": "count", "rees.elements": "count",
    "rees.quotient_map_s": "s", "rees.self_s": "s",
    "monoid.from_table_s": "s", "monoid.tables": "count", "monoid.closure_s": "s",
    "monoid.presentations": "count", "monoid.self_s": "s",
    "identities.table.check_s": "s", "identities.table.checks": "count",
    "identities.table.substitutions": "count", "identities.table.subs_per_s": "1/s",
    "identities.table.self_s": "s",
    "identities.match.check_s": "s", "identities.match.checks": "count",
    "identities.match.matches": "count", "identities.match.matches_per_s": "1/s",
    "identities.match.enum_s": "s", "identities.match.enum_matches": "count",
    "identities.match.erasure_trivial_share": "ratio", "identities.match.self_s": "s",
    "identities.other.self_s": "s",
    **{f"verify.claim_s.{cid}": "s" for cid in CLAIM_IDS},
    "verify.self_s": "s",
    "cli.self_s": "s",
    "bench.self_s": "s",
    "trace.wall_s": "s", "trace.overhead_ratio": "ratio", "trace.accounted_share": "ratio",
    "trace.spans": "count",
    "fail_ratio": "ratio",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("claims", "separation", "queries"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Outcome:
    """Timed latencies and per-operation results of repeated rounds."""

    def __init__(self, ops):
        self.ops = ops
        self.latencies: list[float] = []
        self.first: dict[int, object] = {}
        self.results: list[tuple[int, object]] = []   # (op index, fingerprint or exception)
        self.rounds = 0

    @property
    def timed_s(self) -> float:
        return sum(self.latencies)

    def run_op(self, i: int, tracer=None, timed: bool = True) -> None:
        op = self.ops[i]
        call = op.call if tracer is None else (lambda: tracer.op(op.call))
        t0 = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # an op that raises is a failed op
            result = exc
        dt = time.perf_counter() - t0
        if timed:
            self.latencies.append(dt)
        if isinstance(result, Exception):
            self.results.append((i, result))
            return
        self.first.setdefault(i, result)
        self.results.append((i, op.fingerprint(result)))

    def run_rounds(self, *, seconds: float | None = None, rounds: int | None = None,
                   between=None) -> None:
        """Run whole rounds: ``rounds`` of them, or as many as bring the
        timed total nearest to ``seconds``, judged by the first round.
        ``between`` is called after each op, outside its timing."""
        while True:
            for i in range(len(self.ops)):
                self.run_op(i)
                if between is not None:
                    between(self.timed_s)
            self.rounds += 1
            if rounds is None:
                rounds = max(1, round(seconds / self.timed_s))
            if self.rounds >= rounds:
                return

    def check(self) -> list[str]:
        """Check every result; returns one message per failed op run."""
        counts: dict[int, int] = {}
        for i, _ in self.results:
            counts[i] = counts.get(i, 0) + 1
        for i in range(len(self.ops)):
            if i in self.first and counts.get(i) == 1:
                self.run_op(i, timed=False)   # the same input twice must agree
                break
        import workloads

        verdict: dict[int, tuple[object, str | None]] = {}
        for i, result in self.first.items():
            try:
                self.ops[i].check(result)
                problem = None
            except workloads.Rejected as exc:
                problem = str(exc)
            except Exception as exc:  # output the checker cannot read
                problem = f"unreadable output: {type(exc).__name__}: {exc}"
            verdict[i] = (self.ops[i].fingerprint(result), problem)
        failures = []
        for i, result in self.results:
            label = self.ops[i].label[:120]
            if isinstance(result, Exception):
                failures.append(f"{label}: raised {type(result).__name__}: {result}")
            elif result != verdict[i][0]:
                failures.append(f"{label}: output differs from its first run")
            elif verdict[i][1] is not None:
                failures.append(f"{label}: {verdict[i][1]}")
        return failures


def percentile(sorted_values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


class SetupProbes:
    """Set-up time of fresh interpreters, probed at even steps of the timed
    total: one before timing starts, the rest between ops."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.argv = [sys.executable, "-c", PROBE, SRC, HERE, workload, str(seed)]
        self.due = [seconds * j / SETUP_PROBES for j in range(SETUP_PROBES)]
        self.times: list[float] = []

    def probe(self) -> None:
        proc = subprocess.run(self.argv, capture_output=True, text=True, timeout=120, check=True)
        self.times.append(float(proc.stdout.strip().splitlines()[-1]))

    def __call__(self, timed_s: float) -> None:
        while len(self.times) < SETUP_PROBES and timed_s >= self.due[len(self.times)]:
            self.probe()

    def median(self) -> float:
        while len(self.times) < SETUP_PROBES:   # a run that ended short of the last steps
            self.probe()
        return statistics.median(self.times)


def layer_metrics(tracer, outcome: Outcome, untraced_s: float, erasure: tuple[int, int],
                  fail_ratio: float) -> dict[str, float]:
    self_s, calls = tracer.self_times()

    def layer(name: str) -> float:
        return sum(v for k, v in self_s.items() if k.rsplit(".", 1)[0] == name)

    def fn(name: str) -> float:
        return self_s.get(name, 0.0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    table_s = fn("identities.table.check_table")
    match_s = fn("identities.match.check_rees")
    subs = tracer.evaluations["check_table"]
    matches = tracer.evaluations["check_rees"]
    reports = [r for r in outcome.first.values() if hasattr(r, "claims")]
    wall = outcome.timed_s
    m = {
        "words.parse_s": fn("words.parse_word"),
        "words.factors_s": fn("words.factors"),
        "words.depth_s": fn("words.depth_map"),
        "words.self_s": layer("words"),
        "words.calls": sum(v for k, v in calls.items() if k.startswith("words.")),
        "rees.quotient_s": fn("rees.rees_quotient"),
        "rees.quotients": calls.get("rees.rees_quotient", 0),
        "rees.elements": tracer.elements,
        "rees.quotient_map_s": fn("rees.quotient_map"),
        "rees.self_s": layer("rees"),
        "monoid.from_table_s": fn("monoid.from_table"),
        "monoid.tables": calls.get("monoid.from_table", 0),
        "monoid.closure_s": fn("monoid.from_presentation"),
        "monoid.presentations": calls.get("monoid.from_presentation", 0),
        "monoid.self_s": layer("monoid"),
        "identities.table.check_s": table_s,
        "identities.table.checks": calls.get("identities.table.check_table", 0),
        "identities.table.substitutions": subs,
        "identities.table.subs_per_s": ratio(subs, table_s),
        "identities.table.self_s": layer("identities.table"),
        "identities.match.check_s": match_s,
        "identities.match.checks": calls.get("identities.match.check_rees", 0),
        "identities.match.matches": matches,
        "identities.match.matches_per_s": ratio(matches, match_s),
        "identities.match.enum_s": fn("identities.match.match_pattern")
        + fn("identities.match.scan_matches"),
        "identities.match.enum_matches": tracer.enum_matches,
        "identities.match.erasure_trivial_share": ratio(*erasure),
        "identities.match.self_s": layer("identities.match"),
        "identities.other.self_s": layer("identities.other"),
        **{f"verify.claim_s.{cid}": ratio(
            sum(c.millis for r in reports for c in r.claims if c.id == cid) / 1000, len(reports))
           for cid in CLAIM_IDS},
        "verify.self_s": layer("verify"),
        "cli.self_s": layer("cli"),
        "bench.self_s": layer("bench"),
        "trace.wall_s": wall,
        "trace.overhead_ratio": ratio(wall, untraced_s),
        "trace.accounted_share": ratio(sum(self_s.values()) - layer("bench"), wall),
        "trace.spans": len(tracer.spans),
        "fail_ratio": fail_ratio,
    }
    assert set(m) == set(PER_LAYER)
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "monoidlab", "__init__.py")):
        print(f"error: no package at {SRC}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import monoidlab

    if os.path.dirname(os.path.abspath(monoidlab.__file__)) != os.path.join(SRC, "monoidlab"):
        print(f"error: imported monoidlab from {monoidlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    ops = workloads.build(args.workload, args.seed)
    workloads.warm_up()

    outcome = Outcome(ops)
    if args.trace:
        import spans

        # One round, whatever --seconds says, so that the counts repeat
        # exactly for a seed.  Each op runs once traced and once untraced,
        # in alternating order, so that the overhead ratio compares runs
        # made side by side and not in two stretches of drift.
        tracer = spans.Tracer()
        untraced = Outcome(ops)
        for i in range(len(ops)):
            for traced in ((True, False) if i % 2 == 0 else (False, True)):
                if traced:
                    with tracer.installed():
                        outcome.run_op(i, tracer)
                else:
                    untraced.run_op(i)
        outcome.rounds = 1
        erasure = spans.erasure_trivial_share(tracer.rees_inputs, workloads.SEPARATION_BUDGET)
        outcome.results += untraced.results
    else:
        probes = SetupProbes(args.workload, args.seed, args.seconds)
        probes(0.0)
        outcome.run_rounds(seconds=args.seconds, between=probes)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup_s = probes.median()

    failures = outcome.check()
    attempted = len(outcome.results)
    fail_ratio = len(failures) / attempted
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)

    lat = sorted(outcome.latencies)
    print(f"workload {args.workload}  seed {args.seed}  rounds {outcome.rounds}  "
          f"ops/round {len(ops)}  attempted {attempted}  failed {len(failures)}")
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl")
        tracer.write(path)
        print(f"spans written to {os.path.relpath(path, ROOT)}")
        values = layer_metrics(tracer, outcome, untraced.timed_s, erasure, fail_ratio)
        units = PER_LAYER
    else:
        tail, beyond = percentile(lat, TAIL_PERCENTILE[args.workload])
        values = {
            "ops_per_s": len(lat) / outcome.timed_s,
            "op_p50_s": statistics.median(lat),
            "op_tail_s": tail,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
        print(f"op_tail_s is p{TAIL_PERCENTILE[args.workload]} of {len(lat)} samples, "
              f"{beyond} beyond it")
        print(f"{'fail_ratio':<40} {fail_ratio:<14.6g} ratio")
    for name, value in values.items():
        print(f"{name:<40} {value:<14.6g} {units[name]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
