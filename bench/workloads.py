"""Seeded inputs, operations and output checks for the three workloads.

A workload is one round: a fixed list of operations built from the seed.
The runner repeats the round and times each operation's call alone.  The
output of the first run of every operation is checked here, through a
route independent of the call that was timed; later runs of the same
operation must give the same fingerprint.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from functools import cache
from typing import Any, Callable

import monoidlab as ml
import monoidlab.cli as mcli
from monoidlab.identities import DEFAULT_TABLE_BUDGET

import reference as ref

WORKLOADS = ("claims", "separation", "queries")

# The raised matcher budget of the README's stretch route: sep(2) in w_3
# needs more than the default 10^6 nodes.
SEPARATION_BUDGET = 200_000_000

CLAIM_PASSES = 8          # passes per claims round, each with its own claim seed
BALANCED_REPEATS = {0: 4, 1: 8, 2: 4}   # per (target, variable count), by linear-variable count
CHECK_BOTH_OPS = 16
REES_JSON_OPS = 8
MATCH_OPS = 48

VARIABLES = "xyzt"
PRESETS = ("M_SCRIPT", "A21", "B21")
WN_SETS = ((3,), (1, 2), (1, 2, 3))


class Rejected(Exception):
    """An operation's output failed its check."""


@dataclass
class Op:
    kind: str
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], None]
    fingerprint: Callable[[Any], Any]


def build(workload: str, seed: int, budget: int | None = None) -> list[Op]:
    """One round of the workload.  ``budget`` overrides every budget the
    operations use; the benchmark's tests force a tiny one."""
    if workload == "claims":
        return claims_ops(seed, budget)
    if workload == "separation":
        return separation_ops(seed, budget)
    if workload == "queries":
        return queries_ops(seed, budget)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def warm_up() -> None:
    """Touch every layer once on tiny inputs before timing starts."""
    ws = ml.parse_word_set("aabb")
    q = ml.rees_quotient(ws)
    ident = ml.parse_identity("xy=yx")
    ml.check_table(q, ident)
    ml.check_rees(ws, ident)
    ml.from_presentation(ml.preset("A21"))
    ml.match_pattern(ml.parse_word("xy"), ml.parse_word("ab"))
    run_cli(["wn", "2"])


def word_tokens(w) -> tuple[str, ...]:
    return tuple(str(letter) for letter in w.letters)


# ---------------------------------------------------------------- claims


def claims_ops(seed: int, budget: int | None) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for _ in range(CLAIM_PASSES):
        s = rng.randrange(1_000_000)
        cfg = ml.VerifyConfig(max_n=2, seed=s)
        if budget is not None:
            cfg = ml.VerifyConfig(max_n=2, seed=s, table_budget=budget, match_budget=budget)
        ops.append(Op(
            "claims", f"run_claims(max_n=2, seed={s})",
            lambda cfg=cfg: ml.run_claims(cfg),
            _check_report, _report_fingerprint,
        ))
    return ops


def _check_report(report) -> None:
    bad = [f"{c.id} {c.status}" for c in report.claims if c.status != "PASS"]
    if bad or len(report.claims) != 14:
        raise Rejected(f"claims not all PASS: {bad or len(report.claims)}")


def _report_fingerprint(report) -> str:
    data = report.to_dict()
    for claim in data["claims"]:
        del claim["millis"]
    return json.dumps(data, sort_keys=True)


# ------------------------------------------------------------ separation


# Identity and pattern *shapes* are fixed per slot, drawn once from a
# constant seed; a workload seed renames their variables.  Op costs then do
# not depend on the workload seed, so its medians and tails are comparable
# across seeds, while word sets, claim seeds and names still vary with it.


def _balanced(rng: random.Random, counts) -> str:
    """``u=v`` with the same letters, the same number of times, on both sides."""
    lhs = [VARIABLES[i] for i, c in enumerate(counts) for _ in range(c)]
    rng.shuffle(lhs)
    rhs = lhs[:]
    while rhs == lhs:
        rng.shuffle(rhs)
    return "".join(lhs) + "=" + "".join(rhs)


@cache
def _balanced_shapes() -> tuple[str, ...]:
    """Per variable count 2..4, by the number of variables occurring once
    (0, 1 or 2): those are what make matches many, so they size the op."""
    rng = random.Random(1)
    return tuple(
        _balanced(rng, [1] * linear + [2 + (i + j) % 2 for i in range(k - linear)])
        for k in (2, 3, 4)
        for linear, repeats in BALANCED_REPEATS.items()
        for j in range(repeats)
    )


@cache
def _check_both_shapes() -> tuple[str, ...]:
    """At most 3 variables up to order 100 and 2 above (10^6 substitutions
    at most).  Odd slots repeat every variable, so they often hold and the
    table is swept."""
    rng = random.Random(2)
    shapes = []
    for i in range(CHECK_BOTH_OPS):
        k = 3 if _grid(i, CHECK_BOTH_OPS) <= 100 else 2
        if i % 2:
            shapes.append(_balanced(rng, [2] * k))
        else:
            sides = ("".join(rng.choice(VARIABLES[:k]) for _ in range(rng.randint(1, 5)))
                     for _ in range(2))
            shapes.append("=".join(sides))
    return tuple(shapes)


@cache
def _match_shapes() -> tuple[str, ...]:
    """One to three variables, at most two of them occurring once."""
    rng = random.Random(3)
    shapes = []
    for i in range(MATCH_OPS):
        names = VARIABLES[: 1 + i % 3]
        letters = [v for j, v in enumerate(names) for _ in range(1 if j < 2 else 2)]
        letters += rng.choices(names, k=i // 3 % 2)
        rng.shuffle(letters)
        shapes.append("".join(letters))
    return tuple(shapes)


def _rename(rng: random.Random, text: str) -> str:
    names = list(VARIABLES)
    rng.shuffle(names)
    return text.translate(str.maketrans(VARIABLES, "".join(names)))


def separation_ops(seed: int, budget: int | None) -> list[Op]:
    budget = SEPARATION_BUDGET if budget is None else budget
    rng = random.Random(seed)
    sets = {k: ml.WordSet.of([ml.generate_wn(k)]) for k in (1, 2, 3)}
    seps = []
    for n in (1, 2, 3):
        ident = ml.separation_identity(n)
        for k in (1, 2, 3):
            if (n, k) != (3, 3):
                seps.append(_rees_op(f"sep({n}) in w_{k}", sets[k], ident, budget,
                                     lambda out, n=n, k=k: _check_separation(n, k, out)))
    balanced = []
    for k in (2, 3):
        for shape in _balanced_shapes():
            ident = ml.parse_identity(_rename(rng, shape))
            balanced.append(_rees_op(f"{ident} in w_{k}", sets[k], ident, budget,
                                     lambda out, k=k, ident=ident: _check_balanced(k, ident, out)))
    rng.shuffle(balanced)
    # Spread the light ops evenly between the separation ops, so that their
    # latencies sample the whole run rather than one stretch of it.
    step = len(balanced) // len(seps)
    return [op for j, sep in enumerate(seps) for op in [sep] + balanced[j * step:(j + 1) * step]]


def _rees_op(label, word_set, ident, budget, check) -> Op:
    return Op("check_rees", label, lambda: ml.check_rees(word_set, ident, budget), check,
              lambda out: (out.status, str(out.witness), out.evaluations))


def _check_separation(n: int, k: int, out) -> None:
    want = "FAILS" if n == k else "HOLDS"
    if out.status != want:
        raise Rejected(f"sep({n}) in w_{k}: {out.status}, want {want}")
    if n == k:
        alphabet = ml.generate_wn(n).alphabet
        pairs = out.witness.assignment
        if {v for v, _ in pairs} != alphabet or any(w.letters != (v,) for v, w in pairs):
            raise Rejected(f"sep({n}) in w_{k}: witness {out.witness} is not the identity map")


@cache
def _wn_factors(k: int) -> frozenset:
    return frozenset(ref.factor_set([word_tokens(ml.generate_wn(k))]))


@cache
def _wn_quotient(k: int):
    return ml.rees_quotient(ml.WordSet.of([ml.generate_wn(k)]))


def _check_balanced(k: int, ident, out) -> None:
    factors = _wn_factors(k)
    lhs, rhs = word_tokens(ident.lhs), word_tokens(ident.rhs)
    if out.status == "FAILS":
        if out.witness.domain != set(ident.variables):
            raise Rejected(f"{ident} in w_{k}: witness {out.witness} has the wrong variables")
        left = word_tokens(out.witness.apply(ident.lhs))
        right = word_tokens(out.witness.apply(ident.rhs))
        if left == right or (left not in factors and right not in factors):
            raise Rejected(f"{ident} in w_{k}: witness {out.witness} does not separate")
        return
    if out.status != "HOLDS":
        raise Rejected(f"{ident} in w_{k}: status {out.status}")
    order = len(factors) + 1
    if order ** len(ident.variables) <= DEFAULT_TABLE_BUDGET:
        other, route = ml.check_table(_wn_quotient(k), ident).status, "the table checker"
    else:
        other, route = ref.verdict(lhs, rhs, factors), "the reference"
    if other != "HOLDS":
        raise Rejected(f"{ident} in w_{k}: HOLDS, {route} says {other}")


# --------------------------------------------------------------- queries


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """``monoidlab.cli.main`` in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = mcli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def random_word_set(rng: random.Random, order: int) -> list[str]:
    """One to three words over {a, b, c}, grown a letter at a time until
    the quotient order (nonempty factors + 2) reaches ``order``."""
    words = [[rng.choice("abc")] for _ in range(rng.randint(1, 3))]
    while len(ref.factor_set(tuple(w) for w in words)) + 1 < order:
        rng.choice(words).append(rng.choice("abc"))
    return ["".join(w) for w in words]


def _grid(i: int, count: int, lo: int = 20, hi: int = 250) -> int:
    return lo + (hi - lo) * i // (count - 1)


def queries_ops(seed: int, budget: int | None) -> list[Op]:
    rng = random.Random(seed)
    extra = [] if budget is None else ["--budget", str(budget)]
    ops = []
    for i, shape in enumerate(_check_both_shapes()):
        words = random_word_set(rng, _grid(i, CHECK_BOTH_OPS))
        ident = _rename(rng, shape)
        argv = ["check", "--json", "--method", "both", "--monoid", "rees:" + ",".join(words),
                "--identity", ident] + extra
        ops.append(_cli_op("check-both", argv, lambda out, w=words, e=ident: _check_both(w, e, out)))
    for indices in WN_SETS:
        pool = [str(i) for i in ml.basis("SIGMA")]
        pool += [str(ml.separation_identity(n)) for n in (1, 2) if n == 1 or max(indices) < 3]
        ident = rng.choice(pool)
        spec = "wn:" + ",".join(map(str, indices))
        argv = ["check", "--method", "rees", "--monoid", "rees:" + spec, "--identity", ident] + extra
        ops.append(_cli_op("check-rees", argv,
                           lambda out, s=indices, e=ident: _check_wn_rees(s, e, out)))
    for name in PRESETS:
        ident = rng.choice([str(i) for i in ml.basis("LEE_LI") + ml.basis("SIGMA")])
        argv = ["check", "--method", "table", "--monoid", "preset:" + name, "--identity", ident] + extra
        ops.append(_cli_op("check-table", argv, lambda out, n=name, e=ident: _check_preset(n, e, out)))
    for i in range(REES_JSON_OPS):
        words = random_word_set(rng, _grid(i, REES_JSON_OPS))
        argv = ["rees", ",".join(words), "--json"]
        ops.append(_cli_op("rees-json", argv, lambda out, w=words: _check_rees_json(w, out)))
    for i, shape in enumerate(_match_shapes()):
        pattern = _rename(rng, shape)
        target = str(ml.generate_wn(1 + i % 2))
        argv = ["match", pattern, target, "--json"] + extra
        ops.append(_cli_op("match", argv, lambda out, p=pattern, t=target: _check_match(p, t, out)))
    rng.shuffle(ops)
    return ops


def _cli_op(kind: str, argv: list[str], check) -> Op:
    return Op(kind, " ".join(argv), lambda: run_cli(argv), lambda out: _check_cli(out, check),
              lambda out: (out[0], hashlib.sha1(out[1].encode()).hexdigest()))


def _check_cli(out, check) -> None:
    code, _, stderr = out
    if code not in (0, 1):
        raise Rejected(f"exit {code}: {stderr.strip()[:200]}")
    check(out)


def _status_exit(status: str, code: int) -> None:
    if code != (0 if status == "HOLDS" else 1):
        raise Rejected(f"status {status} with exit {code}")


def _separates(ident_text: str, witness: dict, factors: set) -> bool:
    lhs, rhs = (ref.tokens(side) for side in ident_text.split("="))
    env = {var: (ref.ZERO if label == "0" else ref.tokens(label)) for var, label in witness.items()}
    return ref.value(lhs, env, factors) != ref.value(rhs, env, factors)


def _check_both(words, ident, out) -> None:
    code, stdout, _ = out
    data = json.loads(stdout)
    if data.get("agree") is not True:
        raise Rejected(f"checkers disagree: {data}")
    status = data["table"]["status"]
    _status_exit(status, code)
    factors = ref.factor_set([tuple(w) for w in words])
    lhs, rhs = (ref.tokens(side) for side in ident.split("="))
    want = ref.verdict(lhs, rhs, factors)
    if status != want:
        raise Rejected(f"{ident}: {status}, reference says {want}")
    for name in ("table", "rees"):
        witness = data[name]["witness"]
        if status == "FAILS" and not _separates(ident, witness, factors):
            raise Rejected(f"{name} witness {witness} does not separate {ident}")


def _text_verdict(stdout: str) -> tuple[str, dict | None]:
    line = stdout.strip()
    if line == "HOLDS":
        return "HOLDS", None
    status, _, rest = line.partition("  witness ")
    if status != "FAILS" or not rest:
        raise Rejected(f"unreadable verdict {line[:200]!r}")
    return status, json.loads(rest)


def _check_wn_rees(indices, ident, out) -> None:
    code, stdout, _ = out
    status, witness = _text_verdict(stdout)
    _status_exit(status, code)
    seps = {str(ml.separation_identity(n)): n for n in (1, 2, 3)}
    # The five-identity list holds in every M(W_N) (C8); sep(n) fails exactly
    # when w_n is in the set (C7).
    want = "FAILS" if seps.get(ident) in indices else "HOLDS"
    if status != want:
        raise Rejected(f"{ident} in wn:{indices}: {status}, want {want}")
    if witness is not None:
        factors = ref.factor_set([word_tokens(ml.generate_wn(i)) for i in indices])
        if not _separates(ident, witness, factors):
            raise Rejected(f"witness {witness} does not separate {ident}")


@cache
def _preset_monoid(name: str):
    return ml.from_presentation(ml.preset(name))


def _check_preset(name: str, ident_text: str, out) -> None:
    """Re-decide by exhaustive ``evaluate`` in odometer order, which also
    gives the least witness the table checker promises."""
    code, stdout, _ = out
    status, witness = _text_verdict(stdout)
    _status_exit(status, code)
    mon = _preset_monoid(name)
    ident = ml.parse_identity(ident_text)
    variables = ident.variables
    want, want_witness = "HOLDS", None
    for values in itertools.product(range(mon.order), repeat=len(variables)):
        sub = ml.Substitution.of(dict(zip(variables, values)))
        if ml.evaluate(ident.lhs, sub, mon) != ml.evaluate(ident.rhs, sub, mon):
            want = "FAILS"
            want_witness = {str(v): mon.label_text(e) for v, e in zip(variables, values)}
            break
    if (status, witness) != (want, want_witness):
        raise Rejected(f"{ident_text} in {name}: {status} {witness}, want {want} {want_witness}")


def _check_rees_json(words, out) -> None:
    data = json.loads(out[1])
    factors = ref.factor_set([tuple(w) for w in words])
    labels = data["elements"]
    n = len(labels)
    if n != len(factors) + 1:
        raise Rejected(f"order {n}, want {len(factors) + 1} (factor count + 2)")
    index = {ref.tokens(lab): i for i, lab in enumerate(labels[:-1])}
    if set(index) != factors or (labels[-1], data["one"], data["zero"]) != ("0", 0, n - 1):
        raise Rejected("elements are not the factors, the identity and zero")
    keys = list(index)
    table = data["table"]
    for i, u in enumerate(keys):
        row = table[i]
        for j, v in enumerate(keys):
            if row[j] != index.get(u + v, n - 1):
                raise Rejected(f"table[{i}][{j}] = {row[j]}")
    if any(row != [n - 1] * n for row in table[n - 1:]) or any(row[n - 1] != n - 1 for row in table):
        raise Rejected("zero does not absorb")


def _check_match(pattern: str, target: str, out) -> None:
    subs = json.loads(out[1])
    factors = ref.factor_set([ref.tokens(target)])
    pat = ref.tokens(pattern)
    got = set()
    for sub in subs:
        env = {var: ref.tokens(word) for var, word in sub.items()}
        if ref.apply(pat, env) not in factors:
            raise Rejected(f"{pattern} under {sub} is not a factor of {target}")
        got.add(tuple(sorted(env.items())))
    want = {tuple(sorted(env.items())) for env in ref.matches(pat, factors)}
    if len(got) != len(subs) or got != want:
        raise Rejected(f"{pattern} into {target}: {len(subs)} substitutions, reference finds {len(want)}")
