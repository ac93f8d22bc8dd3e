"""The command-line surface: outputs, exit codes, JSON round trips."""

from __future__ import annotations

import dataclasses
import json
import random

import pytest

from monoidlab import (
    FAILS,
    HOLDS,
    INFINITY,
    HomomorphismViolationError,
    Letter,
    Word,
    check_rees,
    check_table,
    cli,
    depth_map,
    enumerate_small_rees,
    generate_wn,
    match_pattern,
    parse_identity,
    parse_word,
    parse_word_set,
    rees_quotient,
)
from monoidlab.cli import main
from monoidlab.verify import substitution_to_dict

W1_TEXT = "z_1.t_1.x.z_1.y_1^1.x.y_1^0.y_1^1"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_wn(capsys):
    code, out, _ = run(capsys, "wn", "1")
    assert code == 0
    assert out.strip() == W1_TEXT
    assert parse_word(out.strip()) == parse_word(W1_TEXT)


def test_depth_text_and_json(capsys):
    code, out, _ = run(capsys, "depth", "aba")
    assert code == 0
    assert out.splitlines() == ["a\t1", "b\t0"]
    code, out, _ = run(capsys, "depth", "abab", "--json")
    assert code == 0
    assert json.loads(out) == {"a": "inf", "b": "inf"}


def test_check_holds(capsys):
    code, out, _ = run(capsys, "check", "--monoid", "rees:aabb", "--identity", "x^3=x^4")
    assert code == 0
    assert out.strip() == "HOLDS"


def test_check_fails_with_witness(capsys):
    code, out, _ = run(capsys, "check", "--monoid", "rees:aabb", "--identity", "xy=yx")
    assert code == 1
    assert out.startswith("FAILS")
    assert '"x": "a"' in out and '"y": "b"' in out


def test_check_both_methods_agree(capsys):
    code, out, _ = run(
        capsys,
        "check", "--monoid", "rees:aabb", "--identity", "x^3y=yx^3", "--method", "both",
    )
    assert code == 0
    assert "table: HOLDS" in out and "rees: HOLDS" in out


@pytest.mark.parametrize("as_json", [False, True])
def test_checker_disagreement_exits_four(capsys, monkeypatch, as_json):
    real = cli.check_rees

    def flipped(*args):
        out = real(*args)
        return dataclasses.replace(out, status=FAILS if out.status == HOLDS else HOLDS)

    monkeypatch.setattr(cli, "check_rees", flipped)
    argv = ["check", "--monoid", "rees:aabb", "--identity", "x^3y=yx^3", "--method", "both"]
    code, out, err = run(capsys, *argv, *(["--json"] if as_json else []))
    assert code == 4
    assert "warning: checkers disagree" in err
    if as_json:
        data = json.loads(out)
        assert data["agree"] is False
        assert (data["table"]["status"], data["rees"]["status"]) == (HOLDS, FAILS)
    else:
        assert out.split("\n")[:2] == ["table: HOLDS", "rees: FAILS"]


def test_check_rees_method_builds_no_table(capsys, monkeypatch):
    def refuse(word_set):
        raise AssertionError("the rees method never reads the table")

    monkeypatch.setattr("monoidlab.cli.rees_quotient", refuse)
    code, out, _ = run(
        capsys, "check", "--monoid", "rees:wn:4", "--method", "rees", "--identity", "x^3=x^4"
    )
    assert code == 0
    assert out.strip() == "HOLDS"
    code, out, _ = run(
        capsys, "check", "--monoid", "rees:aabb", "--method", "rees", "--identity", "xy=yx"
    )
    assert code == 1
    assert out.strip() == 'FAILS  witness {"x": "a", "y": "b"}'


def test_check_preset(capsys):
    code, out, _ = run(
        capsys, "check", "--monoid", "preset:M_SCRIPT", "--identity", "x^3=x^4"
    )
    assert code == 0 and out.strip() == "HOLDS"


def test_check_rees_method_needs_rees_monoid(capsys, monkeypatch):
    # refused before the preset is built
    def build(*args, **kwargs):
        raise AssertionError("the preset was built")

    monkeypatch.setattr(cli, "from_presentation", build)
    for method in ("rees", "both"):
        code, _, err = run(
            capsys,
            "check", "--monoid", "preset:A21", "--identity", "x=x", "--method", method,
        )
        assert code == 2
        assert err == "error: the rees method needs a rees: monoid\n"


def test_check_rees_deep_identity(capsys):
    # sides longer than the recursion limit
    code, out, _ = run(
        capsys,
        "check", "--monoid", "rees:ab", "--identity", "x^1500y=yx^1500", "--method", "rees",
    )
    assert code == 0
    assert out.strip() == "HOLDS"


def test_check_json(capsys):
    code, out, _ = run(
        capsys,
        "check", "--monoid", "rees:aabb", "--identity", "xy=yx",
        "--method", "both", "--json",
    )
    assert code == 1
    data = json.loads(out)
    assert data["agree"] is True
    assert data["table"]["status"] == data["rees"]["status"] == "FAILS"
    assert data["table"]["witness"] == {"x": "a", "y": "b"}


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "depth", "a3b")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "check", "--monoid", "rees:aabb", "--identity", "xx")
    assert code == 2
    code, _, err = run(capsys, "check", "--monoid", "rees:aabb", "--identity", "xy = x$")
    assert code == 2 and "at position 6" in err
    code, _, err = run(capsys, "check", "--monoid", "rees:aabb", "--identity", "x = a. $")
    assert code == 2 and "at position 7" in err
    # a ValueError from the library exits 2 as well
    code, _, err = run(capsys, "wn", "0")
    assert code == 2 and err.startswith("error: ")


def test_unknown_preset_exit_code(capsys):
    code, _, err = run(capsys, "check", "--monoid", "preset:none", "--identity", "x=x")
    assert code == 2


def test_budget_exit_code(capsys):
    code, _, err = run(capsys, "match", "x", "ab", "--budget", "0")
    assert code == 3 and "budget" in err


def test_table_limit_exit_code(capsys):
    word = ".".join(f"a_{i}" for i in range(128))
    code, out, err = run(capsys, "rees", word)
    assert code == 3 and out == ""
    assert "order at least 8203, above the table limit of 8192" in err


@pytest.mark.parametrize("argv", [
    ["check", "--monoid", "rees:aabb", "--identity", "xy=yx", "--budget", "-5"],
    ["match", "x", "ab", "--budget", "-1"],
    ["verify-paper", "--max-n", "1", "--table-budget", "-1"],
    ["verify-paper", "--max-n", "1", "--match-budget", "-1"],
    ["check", "--monoid", "rees:aabb", "--identity", "xy=yx", "--budget", "lots"],
])
def test_negative_budget_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "budget must be a non-negative integer" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["table", "rees", "both"])
def test_check_zero_budget_is_a_zero_budget(capsys, method):
    argv = ["check", "--monoid", "rees:aabb", "--identity", "x^3y=yx^3", "--method", method]
    code, _, err = run(capsys, *argv, "--budget", "0")
    assert code == 3 and "budget" in err
    code, out, _ = run(capsys, *argv)
    assert code == 0 and "HOLDS" in out


def test_check_variable_free_identity_zero_budget(capsys):
    argv = ["check", "--monoid", "rees:ab", "--identity", "1=1"]
    code, _, err = run(capsys, *argv, "--budget", "0")
    assert code == 3 and "budget" in err
    code, out, _ = run(capsys, *argv, "--budget", "1")
    assert code == 0 and "HOLDS" in out


@pytest.mark.parametrize("flag", ["--table-budget", "--match-budget"])
def test_verify_zero_budget_is_a_zero_budget(capsys, tmp_path, flag):
    out_file = tmp_path / "report.json"
    code, _, _ = run(capsys, "verify-paper", "--max-n", "1", flag, "0", "--out", str(out_file))
    data = json.loads(out_file.read_text())
    assert code == 3
    assert data["config"][flag[2:].replace("-", "_")] == 0
    # C13 runs both checkers, so either budget at zero exhausts it
    assert "C13" in {c["id"] for c in data["claims"] if c["status"] == "BUDGET"}


def test_match_output(capsys):
    code, out, _ = run(capsys, "match", "xy", "ab")
    assert code == 0
    assert out.splitlines()[0] == "8 substitutions"
    code, out, _ = run(capsys, "match", "xx", "aabb", "--no-erasing", "--json")
    assert json.loads(out) == [{"x": "a"}, {"x": "b"}]


def test_rees_json_schema(capsys):
    code, out, _ = run(capsys, "rees", "aabb", "--json")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"elements", "one", "zero", "table"}
    assert len(data["elements"]) == 10
    assert data["elements"][0] == "1" and data["elements"][-1] == "0"
    assert all(len(row) == 10 for row in data["table"])


def _expected_check_both(words: str, identity: str) -> dict:
    word_set, ident = parse_word_set(words), parse_identity(identity)
    q = rees_quotient(word_set)
    payload = {}
    for name, out in (("table", check_table(q, ident)), ("rees", check_rees(word_set, ident))):
        witness = None if out.witness is None else substitution_to_dict(out.witness, q)
        payload[name] = {"status": out.status, "witness": witness, "evaluations": out.evaluations}
    payload["agree"] = payload["table"]["status"] == payload["rees"]["status"]
    return payload


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("rees", "aabb"), lambda: rees_quotient(parse_word_set("aabb")).to_json_dict()),
        (
            ("depth", "abab"),
            lambda: {
                str(l): ("inf" if d == INFINITY else d)
                for l, d in sorted(depth_map(parse_word("abab")).items())
            },
        ),
        (
            ("check", "--monoid", "rees:aabb", "--identity", "xy=yx", "--method", "both"),
            lambda: _expected_check_both("aabb", "xy=yx"),
        ),
        (
            ("match", "xy", "aabb"),
            lambda: [substitution_to_dict(s) for s in match_pattern(parse_word("xy"), parse_word("aabb"))],
        ),
        (
            ("enumerate",),
            lambda: [{"word": str(w), "order": o} for w, o in enumerate_small_rees()],
        ),
    ],
    ids=["rees", "depth", "check-both", "match", "enumerate"],
)
def test_json_output_is_one_compact_line(capsys, argv, expected):
    _, out, err = run(capsys, *argv, "--json")
    assert err == ""
    assert out == json.dumps(expected()) + "\n"


def test_match_output_is_the_substitution_route(capsys, monkeypatch):
    # match joins each row from pieces spelled once and writes in blocks
    # of rows; its bytes must be those of rendering match_pattern's
    # substitutions one by one, at every block size.  w_1 and w_2 spell
    # letters with subscripts and superscripts, y^2. is a one-letter word
    # with a superscript, and erasing matches spell empty images as 1
    rng = random.Random(41)
    pool = [Letter("x"), Letter("y"), Letter("z", 1), Letter("u", None, 2)]
    targets = [generate_wn(1), generate_wn(2), parse_word("y^2."), parse_word("aabab"), parse_word("abcab")]
    cases = [(Word((Letter("x"),) * 20), generate_wn(1))]  # no non-erasing match
    for i in range(30):
        variables = rng.sample(pool, rng.randint(1, 3))
        pattern = Word(tuple(rng.choice(variables) for _ in range(rng.randint(1, 4))))
        cases.append((pattern, targets[i % len(targets)]))
    for pattern, target in cases:
        width = len(pattern.alphabet)
        for erasing in (True, False):
            flags = [] if erasing else ["--no-erasing"]
            subs = match_pattern(pattern, target, erasing)
            as_json = json.dumps([substitution_to_dict(s) for s in subs]) + "\n"
            lines = [f"{len(subs)} substitutions"]
            lines += ["  " + ", ".join(f"{l} -> {v}" for l, v in s.assignment) for s in subs]
            as_text = "\n".join(lines) + "\n"
            for rows in (1, 2, 3, None):
                if rows is not None:
                    monkeypatch.setattr(cli, "_BLOCK", rows * width)
                _, out, err = run(capsys, "match", str(pattern), str(target), "--json", *flags)
                assert err == "" and out == as_json
                _, out, err = run(capsys, "match", str(pattern), str(target), *flags)
                assert err == "" and out == as_text
            monkeypatch.undo()
    assert match_pattern(*cases[0], erasing=False) == []
    # the inputs reach a one-letter target with a superscript, and empty
    # images
    assert any(str(t) == "y^2." for _, t in cases)
    assert any(len(v) == 0 for p, t in cases for s in match_pattern(p, t) for _, v in s.assignment)


def test_rees_json_in_row_blocks(capsys, monkeypatch):
    # blocks of one, two or three rows, or one block, print the bytes of
    # the whole dict; wn:1,2 (order 191) has dotted labels and indices of
    # several digits
    for spec, order in (("aabb", 10), ("wn:1,2", 191)):
        q = rees_quotient(parse_word_set(spec))
        assert q.order == order
        expected = json.dumps(q.to_json_dict()) + "\n"
        for block in (1, 2 * q.order, 3 * q.order, q.order * q.order):
            monkeypatch.setattr(cli, "_BLOCK", block)
            _, out, _ = run(capsys, "rees", spec, "--json")
            assert out == expected


def test_rees_empty_set(capsys):
    code, out, _ = run(capsys, "rees", "", "--json")
    assert code == 0
    assert json.loads(out)["elements"] == ["1", "0"]


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "--json")
    assert code == 0
    assert json.loads(out) == [
        {"word": "aabb", "order": 10},
        {"word": "abab", "order": 9},
        {"word": "abba", "order": 10},
    ]


def test_verify_subcommand_writes_report(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify-paper", "--max-n", "1", "--out", str(out_file))
    assert code == 0
    assert "summary:" in out
    data = json.loads(out_file.read_text())
    assert data["summary"]["fail"] == 0
    assert data["config"]["max_n"] == 1


def test_unwritable_out_path_exits_two(capsys, tmp_path):
    out_file = tmp_path / "missing" / "report.json"
    code, out, err = run(capsys, "verify-paper", "--max-n", "1", "--out", str(out_file))
    assert code == 2
    assert "summary:" in out
    assert err.startswith("error: ") and "report.json" in err


def test_unexpected_exception_exits_four(capsys, monkeypatch):
    def crash(args):
        raise RuntimeError("boom")

    monkeypatch.setattr("monoidlab.cli._cmd_wn", crash)
    code, _, err = run(capsys, "wn", "1")
    assert code == 4
    assert err.strip() == "internal error: RuntimeError: boom"


def _crash_first_claim(monkeypatch, exc):
    def crash(cfg):
        raise exc

    monkeypatch.setattr("monoidlab.verify._claim_orders", crash)


def test_crashing_claim_exits_four(capsys, monkeypatch):
    _crash_first_claim(monkeypatch, TypeError("boom"))
    code, _, err = run(capsys, "verify-paper", "--max-n", "1")
    assert code == 4
    assert err.strip() == "internal error: RuntimeError: claim C1: TypeError: boom"


def test_running_out_of_memory_exits_three(capsys, monkeypatch):
    # raised, never allocated: a real exhaustion would starve the machine
    def exhaust(word_set):
        raise MemoryError

    monkeypatch.setattr("monoidlab.cli.rees_quotient", exhaust)
    code, out, err = run(capsys, "rees", "aabb")
    assert (code, out) == (3, "")
    assert err.strip() == "error: out of memory"


def test_running_out_of_memory_in_a_claim_exits_three(capsys, monkeypatch):
    _crash_first_claim(monkeypatch, MemoryError())
    code, _, err = run(capsys, "verify-paper", "--max-n", "1")
    assert code == 3
    assert err.strip() == "error: out of memory"


def test_workbench_error_in_a_claim_fails_it(capsys, monkeypatch, tmp_path):
    _crash_first_claim(monkeypatch, HomomorphismViolationError("boom"))
    out_file = tmp_path / "report.json"
    code, _, err = run(capsys, "verify-paper", "--max-n", "1", "--out", str(out_file))
    assert code == 1 and err == ""
    first = json.loads(out_file.read_text())["claims"][0]
    assert (first["status"], first["witness"]) == ("FAIL", {"error": "HomomorphismViolationError: boom"})


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2


def test_printed_identity_reparses(capsys):
    code, out, _ = run(capsys, "wn", "2")
    text = out.strip()
    ident = parse_identity(f"{text} = {text}")
    assert str(ident.lhs) == text
