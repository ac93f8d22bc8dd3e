"""Command-line frontend.

Exit codes: 0 on success / HOLDS / all claims passing, 1 on FAILS or any
failing claim, 2 on usage, parse or file errors, 3 on budget exhaustion
or running out of memory, 4 on an internal error (an unexpected
exception, reported on stderr, or the two checkers of ``check --method
both`` disagreeing).
"""

from __future__ import annotations

import argparse
import json
import operator
import sys

import numpy as np

from .errors import BudgetExceededError, ParseError, WorkbenchError
from .identities import (
    DEFAULT_MATCH_BUDGET,
    DEFAULT_TABLE_BUDGET,
    HOLDS,
    _distinct_matches,
    check_rees,
    check_table,
    parse_identity,
)
from .monoid import from_presentation, preset
from .rees import parse_word_set, rees_quotient
from .verify import (
    VerifyConfig,
    enumerate_small_rees,
    run_claims,
    substitution_to_dict,
)
from .words import INFINITY, depth_map, generate_wn, parse_word


def _print_json(payload) -> None:
    # one compact line: pretty-printing routes json.dumps through its
    # pure-Python encoder, which costs more than building most payloads
    print(json.dumps(payload))


# values per block of printed rows, so the text of the whole output is
# never all live at once
_BLOCK = 1 << 16


def _write_blocks(head: str, count: int, width: int, block, sep: str, tail: str) -> None:
    """Write ``head``, then ``block(lo, hi)`` for consecutive row ranges
    covering ``range(count)``, ``width`` values to a row and about
    ``_BLOCK`` values to a range, with ``sep`` between blocks, then
    ``tail``."""
    write = sys.stdout.write
    write(head)
    step = max(1, _BLOCK // width)
    for lo in range(0, count, step):
        if lo:
            write(sep)
        write(block(lo, lo + step))
    write(tail)


def _cmd_rees(args) -> int:
    q = rees_quotient(parse_word_set(args.wordset))
    if args.json:
        # the bytes of json.dumps(q.to_json_dict()): str(i) is the JSON
        # spelling of an int, and each index is spelled once
        head = {"elements": [str(lab) for lab in q.elements], "one": q.one, "zero": q.zero}
        spelled = np.array([str(i) for i in range(q.order)], dtype=object)

        def block(lo, hi):
            return ", ".join(["[" + ", ".join(r) + "]" for r in spelled[q.table[lo:hi]].tolist()])

        _write_blocks(json.dumps(head)[:-1] + ', "table": [', q.order, q.order, block, ", ", "]}\n")
        return 0
    print(f"order {q.order}")
    labels = [q.label_text(i) for i in range(q.order)]
    width = max(len(l) for l in labels)
    header = " " * (width + 2) + " ".join(l.rjust(width) for l in labels)
    print(header)
    for i, row in enumerate(q.table):
        cells = " ".join(labels[v].rjust(width) for v in row.tolist())
        print(f"{labels[i].rjust(width)} | {cells}")
    return 0


def _cmd_depth(args) -> int:
    w = parse_word(args.word)
    depths = depth_map(w)
    ordered = sorted(depths.items())
    if args.json:
        _print_json({str(l): ("inf" if d == INFINITY else d) for l, d in ordered})
        return 0
    for letter, d in ordered:
        print(f"{letter}\t{'inf' if d == INFINITY else d}")
    return 0


def _cmd_wn(args) -> int:
    print(generate_wn(args.n))
    return 0


def _resolve_monoid(spec: str, method: str):
    """The word set (rees: specs only) and the monoid; the table is not
    built when only the rees method will run, as it never reads it, and a
    preset the rees method cannot check is refused before it is built."""
    kind, sep, rest = spec.partition(":")
    if not sep:
        raise ParseError(f"monoid spec needs a kind prefix, got {spec!r}", 0)
    if kind == "rees":
        word_set = parse_word_set(rest)
        return word_set, (None if method == "rees" else rees_quotient(word_set))
    if kind == "preset":
        if method != "table":
            raise ValueError("the rees method needs a rees: monoid")
        return None, from_presentation(preset(rest))
    raise ParseError(f"unknown monoid kind {kind!r} (use rees: or preset:)", 0)


def _outcome_dict(outcome, monoid) -> dict:
    witness = None
    if outcome.witness is not None:
        witness = substitution_to_dict(outcome.witness, monoid)
    return {
        "status": outcome.status,
        "witness": witness,
        "evaluations": outcome.evaluations,
    }


def _cmd_check(args) -> int:
    method = args.method
    word_set, monoid = _resolve_monoid(args.monoid, method)
    ident = parse_identity(args.identity)
    table_budget = DEFAULT_TABLE_BUDGET if args.budget is None else args.budget
    match_budget = DEFAULT_MATCH_BUDGET if args.budget is None else args.budget
    results = {}
    if method in ("table", "both"):
        results["table"] = check_table(monoid, ident, table_budget)
    if method in ("rees", "both"):
        results["rees"] = check_rees(word_set, ident, match_budget)
    statuses = {out.status for out in results.values()}
    if args.json:
        payload = {name: _outcome_dict(out, monoid) for name, out in results.items()}
        payload["agree"] = len(statuses) == 1
        _print_json(payload)
    else:
        for name, out in results.items():
            line = f"{out.status}" if len(results) == 1 else f"{name}: {out.status}"
            if out.witness is not None:
                line += f"  witness {json.dumps(substitution_to_dict(out.witness, monoid))}"
            print(line)
    if len(statuses) > 1:
        # the checkers are each other's oracle: a split verdict is a bug
        print("warning: checkers disagree", file=sys.stderr)
        return 4
    return 0 if statuses == {HOLDS} else 1


def _cmd_match(args) -> int:
    pattern = parse_word(args.pattern)
    target = parse_word(args.target)
    variables, images, rows = _distinct_matches(pattern, target, not args.no_erasing, args.budget)
    # each variable and each distinct image is spelled once (in JSON when
    # asked), and each row is joined from those pieces
    spell = json.dumps if args.json else str
    image = [spell(str(w)) for w in images].__getitem__
    if args.json:
        heads = [json.dumps(str(v)) + ": " for v in variables]

        def block(lo, hi):
            return ", ".join(["{" + ", ".join(map(operator.add, heads, map(image, row))) + "}"
                              for row in rows[lo:hi]])

        _write_blocks("[", len(rows), len(variables), block, ", ", "]\n")
        return 0
    heads = [f"{v} -> " for v in variables]

    def block(lo, hi):
        return "".join(["\n  " + ", ".join(map(operator.add, heads, map(image, row))) for row in rows[lo:hi]])

    _write_blocks(f"{len(rows)} substitutions", len(rows), len(variables), block, "", "\n")
    return 0


def _cmd_enumerate(args) -> int:
    found = enumerate_small_rees(args.max_len, args.max_order)
    if args.json:
        _print_json([{"word": str(w), "order": o} for w, o in found])
        return 0
    for w, o in found:
        print(f"{w}\t{o}")
    return 0


def _cmd_verify(args) -> int:
    cfg = VerifyConfig(
        max_n=args.max_n,
        seed=args.seed,
        table_budget=args.table_budget,
        match_budget=args.match_budget,
    )
    report = run_claims(cfg)
    print(report.to_text())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
            fh.write("\n")
        print(f"report written to {args.out}")
    statuses = {c.status for c in report.claims}
    if "FAIL" in statuses:
        return 1
    if "BUDGET" in statuses:
        return 3
    return 0


def _budget(text: str) -> int:
    """A budget flag's value: a non-negative int, else a usage error (exit 2)."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"budget must be a non-negative integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monoidlab",
        description="Finite monoids from word factors: construction, identity checking, and the built-in claim suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rees", help="build the quotient of a word set and print its table")
    p.add_argument("wordset", help="comma-separated words, wn:N1,N2,..., or '' for the empty set")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_rees)

    p = sub.add_parser("depth", help="print the depth of every letter of a word")
    p.add_argument("word")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_depth)

    p = sub.add_parser("wn", help="print the n-th separating word in dotted form")
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_wn)

    p = sub.add_parser("check", help="decide whether an identity holds in a monoid")
    p.add_argument("--monoid", required=True, help="rees:<wordset> or preset:<name>")
    p.add_argument("--identity", required=True, help='identity text, e.g. "x^3=x^4"')
    p.add_argument("--method", choices=("table", "rees", "both"), default="table")
    p.add_argument("--budget", type=_budget, default=None,
                   help=f"budget for every checker that runs (default: table "
                   f"{DEFAULT_TABLE_BUDGET} substitutions, rees {DEFAULT_MATCH_BUDGET} "
                   "matcher nodes); 0 is a zero budget")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("match", help="enumerate substitutions matching a pattern into a word")
    p.add_argument("pattern")
    p.add_argument("target")
    p.add_argument("--no-erasing", action="store_true", help="forbid empty images")
    p.add_argument("--budget", type=_budget, default=DEFAULT_MATCH_BUDGET,
                   help=f"matcher budget in backtracking nodes (default {DEFAULT_MATCH_BUDGET})")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_match)

    p = sub.add_parser("enumerate", help="search small canonical words by quotient order")
    p.add_argument("--max-len", type=int, default=8)
    p.add_argument("--max-order", type=int, default=10)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify-paper", help="run the full claim suite and report")
    p.add_argument("--max-n", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the JSON report to this file")
    p.add_argument("--match-budget", type=_budget, default=DEFAULT_MATCH_BUDGET,
                   help=f"matcher budget per check (default {DEFAULT_MATCH_BUDGET}; "
                   "--max-n 5 needs 2000000)")
    p.add_argument("--table-budget", type=_budget, default=DEFAULT_TABLE_BUDGET,
                   help=f"table checker budget per check (default {DEFAULT_TABLE_BUDGET})")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        # a scale limit of the machine, like a budget, not a bug
        print("error: out of memory", file=sys.stderr)
        return 3
    except (WorkbenchError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
