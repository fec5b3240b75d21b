import json
import os
import stat
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from iwalab import (
    CrossedModule,
    PadicContext,
    ParseError,
    SizeCapExceededError,
    UsageError,
    ValidationError,
    exactint,
    series,
    workbench,
)
from iwalab.cli import main
from iwalab.crossed import BUDGET_CAP, LENGTH_CAP, PRECISION_CAP, RANK_CAP
from iwalab.problems import ProblemFile, parse_problem
from iwalab.workbench import run

SRC = Path(__file__).resolve().parents[1] / "src"

MINIMAL_GAMMA = {"kind": "gamma", "p": 3, "d": 1, "F": [[["-3", "1"]]]}
MINIMAL_CROSSED = {
    "kind": "crossed",
    "p": 3,
    "d": 1,
    "kappa": "4",
    "A": [[["1"]]],
    "levels": [[1, 1]],
}


def parse(obj):
    return parse_problem(json.dumps(obj))


class TestParse:
    def test_minimal_gamma(self):
        pf = parse(MINIMAL_GAMMA)
        assert pf.kind == "gamma" and pf.module.d == 1
        assert pf.module.char_invariants() == (1, 0)

    def test_unicode_minus_accepted(self):
        pf = parse({"kind": "gamma", "p": 3, "d": 1, "F": [[["−3", "1"]]]})
        assert pf.module.exact_entries == (((-3, 1),),)

    def test_schema_other_than_one_refused(self):
        assert not hasattr(parse(dict(MINIMAL_GAMMA, schema=1)), "schema")
        for kind in (MINIMAL_GAMMA, MINIMAL_CROSSED):
            with pytest.raises(ParseError, match="^unsupported schema version 2$"):
                parse(dict(kind, schema=2))

    def test_unknown_key_rejected(self):
        bad = dict(MINIMAL_GAMMA, foo=1)
        with pytest.raises(ParseError):
            parse(bad)

    def test_missing_key(self):
        with pytest.raises(ParseError):
            parse({"kind": "gamma", "p": 3, "d": 1})

    def test_not_json(self):
        with pytest.raises(ParseError):
            parse_problem("{ not json")

    def test_normality_violation(self):
        bad = dict(MINIMAL_CROSSED, levels=[[0, 2]])
        with pytest.raises(ValidationError) as exc:
            parse(bad)
        assert "normality" in str(exc.value)

    def test_character_invariant_checked(self):
        bad = dict(MINIMAL_GAMMA, characters=["2"])
        with pytest.raises(ValidationError):
            parse(bad)

    def test_non_torsion_rejected(self):
        bad = {"kind": "gamma", "p": 3, "d": 1, "F": [[["0"]]]}
        from iwalab import ZeroDeterminantError

        with pytest.raises(ZeroDeterminantError):
            parse(bad)

    def test_strings_and_ints_equivalent(self):
        a = parse(MINIMAL_GAMMA)
        b = parse({"kind": "gamma", "p": "3", "d": "1", "F": [[[-3, 1]]]})
        assert a.module.exact_entries == b.module.exact_entries

    def test_crossed_requires_kappa(self):
        bad = {k: v for k, v in MINIMAL_CROSSED.items() if k != "kappa"}
        with pytest.raises(ParseError):
            parse(bad)

    def test_wrong_shape_matrix(self):
        bad = dict(MINIMAL_GAMMA, F=[[["1"], ["2"]]])
        with pytest.raises(ParseError):
            parse(bad)

    @pytest.mark.parametrize(
        "stanza", [{"n_levels": []}, {"n_max": -1}], ids=["empty-levels", "negative-n-max"]
    )
    def test_level_range_rejected(self, stanza):
        with pytest.raises(ValidationError):
            parse(dict(MINIMAL_GAMMA, **stanza))

    @pytest.mark.parametrize("stanza", [MINIMAL_GAMMA, MINIMAL_CROSSED], ids=["gamma", "crossed"])
    def test_empty_characters_rejected(self, stanza):
        with pytest.raises(ValidationError) as exc:
            parse(dict(stanza, characters=[]))
        assert exc.value.invariant == "characters-nonempty"

    @pytest.mark.parametrize(
        "stanza",
        [
            dict(MINIMAL_GAMMA, n_levels=[12]),  # a dense 3^12-square matrix
            dict(MINIMAL_GAMMA, n_levels=[0], n_max=7),  # find-twist would reach 3^7 = 2187
            dict(MINIMAL_GAMMA, d=3, F=[[["1"] if i == j else ["0"] for j in range(3)] for i in range(3)],
                 n_levels=[6]),  # 3 * 729
            dict(MINIMAL_CROSSED, kappa="1", levels=[[0, 0], [3, 4]]),  # 3^7 at m = 4
            dict(MINIMAL_CROSSED, levels=[[10**9, 1]]),  # p^n is never formed
        ],
        ids=["gamma-level", "gamma-n-max", "gamma-rank-d", "crossed-level", "crossed-huge-n"],
    )
    def test_rank_above_cap_refused(self, stanza):
        with pytest.raises(SizeCapExceededError, match=str(RANK_CAP)):
            parse(stanza)

    def test_rank_at_cap_accepted(self):
        # 2 * 3^6 = 1458 and 3^6 = 729 stay under 2000; one more factor of p does not
        assert RANK_CAP == 2000
        identity = [[["1"] if i == j else ["0"] for j in range(2)] for i in range(2)]
        assert parse(dict(MINIMAL_GAMMA, d=2, F=identity, n_levels=[6])).levels == [6]
        pf = parse(dict(MINIMAL_CROSSED, kappa="1", levels=[[2, 4]]))
        assert [(lv.n, lv.m) for lv in pf.levels] == [(2, 4)]

    @pytest.mark.parametrize("stanza", [MINIMAL_GAMMA, MINIMAL_CROSSED], ids=["gamma", "crossed"])
    def test_rank_d_above_cap_refused_before_the_matrix(self, stanza):
        # d alone is over the cap: refused before the rows are read or a determinant is taken
        rows = "F" if stanza["kind"] == "gamma" else "A"
        with pytest.raises(SizeCapExceededError, match="d: rank 2001"):
            parse(dict(stanza, d=2001, **{rows: []}))

    @pytest.mark.parametrize("stanza", [MINIMAL_GAMMA, MINIMAL_CROSSED], ids=["gamma", "crossed"])
    def test_precision_cap(self, stanza):
        # p^N is formed at parse time, so N is bounded before any arithmetic
        assert PRECISION_CAP == 1024
        assert parse(dict(stanza, precision=1024)).module.context.N == 1024
        with pytest.raises(SizeCapExceededError, match="precision 1025 exceeds the cap 1024"):
            parse(dict(stanza, precision=1025))
        with pytest.raises(SizeCapExceededError):
            parse(dict(stanza, precision=10**9))

    @pytest.mark.parametrize("stanza", [MINIMAL_GAMMA, MINIMAL_CROSSED], ids=["gamma", "crossed"])
    def test_budget_cap(self, stanza):
        # find-twist reports every candidate, so the budget bounds its time and report
        assert BUDGET_CAP == 1000
        assert parse(dict(stanza, budget=1000)).budget == 1000
        with pytest.raises(SizeCapExceededError, match="budget 1001 exceeds the cap 1000"):
            parse(dict(stanza, budget=1001))
        with pytest.raises(SizeCapExceededError):
            parse(dict(stanza, budget=str(10**30)))

    @pytest.mark.parametrize("stanza", [MINIMAL_GAMMA, MINIMAL_CROSSED], ids=["gamma", "crossed"])
    def test_entry_length_cap(self, stanza):
        # an entry's h-basis shift and the presentation determinant grow with its
        # length squared or more, so the length is bounded before either runs
        assert LENGTH_CAP == 1024
        key = "F" if stanza["kind"] == "gamma" else "A"
        for length in (LENGTH_CAP, LENGTH_CAP + 1):
            entry = [stanza[key][0][0][0]] + ["0"] * (length - 2) + ["1"]
            text = json.dumps(dict(stanza, **{key: [[entry]]}))
            if length == LENGTH_CAP:
                parse_problem(text)
            else:
                with pytest.raises(SizeCapExceededError,
                                   match=rf"{key}\[0\]\[0\]: 1025 coefficients exceed the cap 1024"):
                    parse_problem(text)

    def test_override_replaces_the_file_key(self):
        text = json.dumps(dict(MINIMAL_GAMMA, precision=2000))
        assert parse_problem(text, {"precision": 16}).precision == 16
        with pytest.raises(SizeCapExceededError):
            parse_problem(text)


class TestRun:
    def test_euler_gamma(self):
        pf = parse(dict(MINIMAL_GAMMA, characters=["1", "4"], n_levels=[0, 1]))
        report, code = run(pf, "euler", input_digest="sha256:x")
        assert code == 0
        assert [t["chi_exponent"] for t in report["tasks"]] == ["1", "2", "1", "2"]
        assert all(t["routes_agree"] for t in report["tasks"])

    def test_euler_crossed(self):
        pf = parse(dict(MINIMAL_CROSSED, characters=["4"]))
        report, code = run(pf, "euler")
        assert code == 0
        (task,) = report["tasks"]
        assert task["chi_exponent"] == "6" and task["akashi_exponent"] == "6"

    def test_akashi(self):
        pf = parse(MINIMAL_CROSSED)
        report, code = run(pf, "akashi")
        assert code == 0
        assert report["tasks"][0]["coefficients"] == ["0", "0", "0", "1"]

    def test_char(self):
        pf = parse(MINIMAL_GAMMA)
        report, code = run(pf, "char")
        assert report["tasks"][0]["lambda"] == "1"

    def test_command_stanza_mismatch(self):
        pf = parse(MINIMAL_CROSSED)
        with pytest.raises(ValidationError):
            run(pf, "char")

    def test_find_twist_gamma(self):
        pf = parse({"kind": "gamma", "p": 3, "d": 1, "F": [[["0", "1"]]], "n_max": 1})
        report, code = run(pf, "find-twist")
        assert code == 0
        task = report["tasks"][0]
        assert task["accepted_u"] == "4"
        assert task["reverified_ok"] is True

    def test_escalation_from_low_precision(self):
        pf = parse(dict(MINIMAL_GAMMA, precision=1, n_levels=[0]))
        report, code = run(pf, "euler")
        assert code == 0
        assert report["escalations"]
        (task,) = report["tasks"]
        assert task["status"] == "exists" and task["precision"] == "2"

    def test_escalation_reruns_only_the_undecided_route(self, monkeypatch):
        # kappa = 28, A = 1 + 3Y at level (1, 4), u = 4: the staged route reads
        # chi = 219 from N = 6 on, the Akashi route only at N = 384; a decided
        # verdict is exact, so the staged route runs at N = 3 and 6 and no more
        calls = {"euler_reduced": [], "euler_akashi": []}
        for name, seen in calls.items():
            real = getattr(CrossedModule, name)

            def spy(self, rho, lv, real=real, seen=seen):
                seen.append(self.context.N)
                return real(self, rho, lv)

            monkeypatch.setattr(CrossedModule, name, spy)
        pf = parse(dict(MINIMAL_CROSSED, kappa="28", A=[[["1", "3"]]], levels=[[1, 4]],
                        characters=["4"], precision="3"))
        report, code = run(pf, "euler")
        assert code == 0
        chain = [3 * 2**i for i in range(8)]
        assert [int(e["to"]) for e in report["escalations"]] == chain[1:]
        (task,) = report["tasks"]
        assert (task["chi_exponent"], task["akashi_exponent"], task["precision"]) == ("219", "219", "384")
        assert calls == {"euler_reduced": [3, 6], "euler_akashi": chain}

    def test_escalation_respects_cap(self):
        pf = parse(dict(MINIMAL_GAMMA, precision=1, n_levels=[0]))
        report, code = run(pf, "euler", max_precision=1)
        assert code == 2
        assert report["tasks"][0]["status"] == "indeterminate-at-precision"

    def test_determinism_modulo_timing(self):
        pf1 = parse(dict(MINIMAL_CROSSED, characters=["1", "4"]))
        pf2 = parse(dict(MINIMAL_CROSSED, characters=["1", "4"]))
        r1, _ = run(pf1, "euler", input_digest="sha256:y")
        r2, _ = run(pf2, "euler", input_digest="sha256:y")
        r1.pop("timing")
        r2.pop("timing")
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)

    def test_selftest_passes(self):
        report, code = run(None, "selftest")
        assert code == 0
        assert all(c["pass"] for c in report["tasks"])


class TestCli:
    def test_euler_roundtrip(self, tmp_path, capsys):
        inp = tmp_path / "prob.json"
        inp.write_text(json.dumps(dict(MINIMAL_GAMMA, characters=["4"], n_levels=[0])))
        out = tmp_path / "rep.json"
        code = main(["euler", "--input", str(inp), "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["tasks"][0]["chi_exponent"] == "1"
        assert report["input_digest"].startswith("sha256:")
        assert "exists" in capsys.readouterr().out

    def test_a_wide_character_keeps_the_table_width(self, tmp_path, capsys):
        u = str(1 + 3**200)
        inp = tmp_path / "prob.json"
        inp.write_text(json.dumps(dict(MINIMAL_GAMMA, characters=["4", u], n_levels=[0, 1])))
        out = tmp_path / "rep.json"
        assert main(["euler", "--input", str(inp), "--out", str(out)]) == 0
        header, *rows = capsys.readouterr().out.splitlines()[1:6]
        assert [len(r) for r in rows] == [len(header)] * 4
        assert [r.split()[0] for r in rows] == ["4", "4"] + [u[:4] + ".." + u[-4:]] * 2
        assert [t["u"] for t in json.loads(out.read_text())["tasks"]] == ["4", "4", u, u]

    def test_a_wide_candidate_keeps_its_column(self, tmp_path, capsys):
        p = 100000007
        inp = tmp_path / "prob.json"
        inp.write_text(json.dumps(dict(MINIMAL_GAMMA, p=p, F=[[[str(-p), "1"]]], n_levels=[0],
                                       n_max=0, budget=1)))
        out = tmp_path / "rep.json"
        main(["find-twist", "--input", str(inp), "--out", str(out)])
        lines = capsys.readouterr().out.splitlines()
        assert lines[2].startswith("  u = 100..008  ")
        assert json.loads(out.read_text())["tasks"][0]["candidates"][0]["u"] == str(p + 1)

    def test_parse_error_exit_code(self, tmp_path, capsys):
        inp = tmp_path / "bad.json"
        inp.write_text('{"kind": "gamma", "foo": 1}')
        assert main(["euler", "--input", str(inp)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("quote", ["", '"'], ids=["literal", "string"])
    def test_integer_over_the_digit_limit(self, quote, tmp_path, capsys):
        # json.loads and int() raise a plain ValueError past Python's int-conversion limit
        digits = "1" * (sys.get_int_max_str_digits() + 700)
        inp = tmp_path / "big.json"
        inp.write_text('{"kind": "gamma", "p": 3, "d": 1, "F": [[[%s%s%s, 1]]]}'
                       % (quote, digits, quote))
        assert main(["euler", "--input", str(inp)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert f"over the {sys.get_int_max_str_digits()}-digit limit" in err
        assert "not a decimal integer" not in err

    @pytest.mark.parametrize("stanza", [MINIMAL_GAMMA, MINIMAL_CROSSED], ids=["gamma", "crossed"])
    def test_empty_characters_exit_code(self, stanza, tmp_path, capsys):
        inp = tmp_path / "prob.json"
        inp.write_text(json.dumps(dict(stanza, characters=[])))
        assert main(["euler", "--input", str(inp)]) == 1
        err = capsys.readouterr().err
        assert "characters-nonempty" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "stanza",
        [dict(MINIMAL_GAMMA, n_levels=[12]), dict(MINIMAL_CROSSED, levels=[[5, 2]])],
        ids=["gamma", "crossed"],
    )
    def test_rank_cap_exit_code(self, stanza, tmp_path, capsys):
        inp = tmp_path / "prob.json"
        inp.write_text(json.dumps(stanza))
        out = tmp_path / "r.json"
        assert main(["euler", "--input", str(inp), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "exceeds the cap 2000" in err
        assert "Traceback" not in err and not out.exists()

    def test_unreadable_input_named(self, tmp_path, capsys):
        missing = tmp_path / "absent.json"
        assert main(["euler", "--input", str(missing)]) == 1
        assert capsys.readouterr().err.startswith("error: cannot read")
        binary = tmp_path / "binary.json"
        binary.write_bytes(b"\xff\xfe{")
        assert main(["euler", "--input", str(binary)]) == 1
        assert capsys.readouterr().err.startswith("error: cannot read")

    def test_unwritable_report_named(self, tmp_path, capsys):
        inp = tmp_path / "prob.json"
        inp.write_text(json.dumps(dict(MINIMAL_GAMMA, n_levels=[0])))
        out = tmp_path / "missing-dir" / "r.json"
        assert main(["euler", "--input", str(inp), "--out", str(out)]) == 1
        assert "error: cannot write the report" in capsys.readouterr().err

    def test_missing_input(self, capsys):
        assert main(["euler"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: command-stanza")
        assert "Traceback" not in err

    def test_precision_override(self, tmp_path, capsys):
        inp = tmp_path / "prob.json"
        inp.write_text(json.dumps(dict(MINIMAL_GAMMA, n_levels=[0])))
        code = main(["euler", "--input", str(inp), "--precision", "8", "--out",
                     str(tmp_path / "r.json")])
        assert code == 0
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["context"]["precision"] == "8"
        capsys.readouterr()

    def test_override_does_not_reach_next_call(self, tmp_path, capsys):
        # the parser is built once per process, so one call's options must not leak
        inp = tmp_path / "prob.json"
        inp.write_text(json.dumps(dict(MINIMAL_GAMMA, n_levels=[0], precision=16)))
        out = tmp_path / "r.json"
        for flags, want in ((["--precision", "128"], "128"), ([], "16")):
            assert main(["euler", "--input", str(inp), "--out", str(out), *flags]) == 0
            assert json.loads(out.read_text())["context"]["precision"] == want
        capsys.readouterr()

    @pytest.mark.parametrize(
        "command, flag, value, invariant",
        [
            ("euler", "--precision", "0", "precision-positive"),
            ("euler", "--precision", "-5", "precision-positive"),
            ("find-twist", "--budget", "0", "budget-positive"),
            ("find-twist", "--budget", "-1", "budget-positive"),
        ],
    )
    def test_override_refused_like_file_key(self, command, flag, value, invariant,
                                            tmp_path, capsys):
        inp = tmp_path / "prob.json"
        inp.write_text(json.dumps(MINIMAL_CROSSED))
        out = tmp_path / "r.json"
        assert main([command, "--input", str(inp), flag, value, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert invariant in err and "Traceback" not in err
        assert not out.exists()
        key = flag.lstrip("-")
        with pytest.raises(ValidationError, match=invariant):
            parse(dict(MINIMAL_CROSSED, **{key: int(value)}))

    def test_budget_override(self, tmp_path, capsys):
        inp = tmp_path / "prob.json"
        inp.write_text(json.dumps(MINIMAL_CROSSED))
        code = main(["find-twist", "--input", str(inp), "--budget", "3", "--out",
                     str(tmp_path / "r.json")])
        assert code == 0
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["tasks"][0]["budget"] == "3"
        capsys.readouterr()

    def test_budget_override_above_cap(self, tmp_path, capsys):
        inp = tmp_path / "prob.json"
        inp.write_text(json.dumps(MINIMAL_GAMMA))
        out = tmp_path / "r.json"
        argv = ["find-twist", "--input", str(inp), "--budget", "20000", "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "error: budget 20000 exceeds the cap 1000" in err and "Traceback" not in err
        assert not out.exists()

    def test_find_twist_cli(self, tmp_path, capsys):
        inp = tmp_path / "prob.json"
        inp.write_text(json.dumps(MINIMAL_CROSSED))
        code = main(["find-twist", "--input", str(inp), "--out", str(tmp_path / "r.json")])
        assert code == 0
        assert "ACCEPTED" in capsys.readouterr().out

    @pytest.mark.parametrize("stanza", [MINIMAL_GAMMA, MINIMAL_CROSSED], ids=["gamma", "crossed"])
    def test_find_twist_budget_exhausted(self, stanza, tmp_path, capsys):
        # at N = 1 every exponent >= 1 is indeterminate, so no candidate certifies
        inp = tmp_path / "prob.json"
        inp.write_text(json.dumps(stanza))
        out = tmp_path / "r.json"
        argv = ["find-twist", "--input", str(inp), "--precision", "1", "--budget", "3"]
        assert main(argv + ["--out", str(out)]) == 2
        task = json.loads(out.read_text())["tasks"][0]
        assert task["accepted_u"] is None
        assert len(task["candidates"]) == 3
        assert not any(c["accepted"] for c in task["candidates"])
        assert "accepted u = None" in capsys.readouterr().out

    def test_prepare_cli(self, tmp_path, capsys):
        inp = Path(__file__).resolve().parent.parent / "problems" / "gamma_x_minus_3.json"
        out = tmp_path / "r.json"
        assert main(["prepare", "--input", str(inp), "--out", str(out)]) == 0
        task = json.loads(out.read_text())["tasks"][0]
        # X - 3 is already distinguished: lambda 1, mu 0, unit 1
        assert (task["lambda"], task["mu"]) == ("1", "0")
        assert task["distinguished"] == [str(3**64 - 3), "1"]
        assert task["unit"] == ["1"] and task["unit_precision"] == "64"
        assert "lambda = 1  mu = 0" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "stanza",
        [dict(MINIMAL_GAMMA, F=[[[]]]), dict(MINIMAL_CROSSED, A=[[[]]])],
        ids=["gamma", "crossed"],
    )
    def test_empty_entry_exit_code(self, stanza, tmp_path, capsys):
        inp = tmp_path / "prob.json"
        inp.write_text(json.dumps(stanza))
        out = tmp_path / "r.json"
        assert main(["euler", "--input", str(inp), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "nonempty" in err and "Traceback" not in err
        assert not out.exists()


class TestCliUsage:
    @pytest.mark.parametrize(
        "argv",
        [["euler", "--precision", "x"], ["bogus"], ["euler", "--frobnicate"], []],
        ids=["bad-value", "unknown-command", "unknown-option", "no-command"],
    )
    def test_usage_error_exits_one(self, argv, capsys):
        # exit 2 is reserved for "undecided at the cap"
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "usage:" not in err

    def test_usage_error_is_named(self):
        from iwalab.cli import _build_parser

        with pytest.raises(UsageError, match="invalid choice"):
            _build_parser().parse_args(["bogus"])

    def test_unknown_command_lists_the_commands_in_order(self, capsys):
        assert main(["bogus"]) == 1
        assert capsys.readouterr().err == (
            "error: argument command: invalid choice: 'bogus' (choose from 'prepare', "
            "'char', 'euler', 'akashi', 'find-twist', 'selftest')\n"
        )

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out


class TestCliPrecisionCap:
    @pytest.mark.parametrize("stanza", [MINIMAL_GAMMA, MINIMAL_CROSSED], ids=["gamma", "crossed"])
    def test_precision_flag(self, stanza, tmp_path, capsys):
        inp = tmp_path / "prob.json"
        inp.write_text(json.dumps(dict(stanza, n_levels=[0]) if stanza is MINIMAL_GAMMA else stanza))
        out = tmp_path / "r.json"
        assert main(["euler", "--input", str(inp), "--precision", "1024", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["context"]["precision"] == "1024"
        out.unlink()
        assert main(["euler", "--input", str(inp), "--precision", "1025", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "error: precision 1025 exceeds the cap 1024" in err and not out.exists()

    def test_file_precision(self, tmp_path, capsys):
        inp = tmp_path / "prob.json"
        inp.write_text(json.dumps(dict(MINIMAL_CROSSED, precision=1025)))
        assert main(["euler", "--input", str(inp)]) == 1
        assert "exceeds the cap 1024" in capsys.readouterr().err

    def test_max_precision_flag(self, tmp_path, capsys):
        inp = tmp_path / "prob.json"
        inp.write_text(json.dumps(MINIMAL_CROSSED))
        out = tmp_path / "r.json"
        assert main(["euler", "--input", str(inp), "--max-precision", "1025", "--out", str(out)]) == 1
        assert "--max-precision 1025 exceeds the cap 1024" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_max_precision_below_one_refused(self, value, tmp_path, capsys):
        # refused like --precision 0, not run without escalating and reported undecided (exit 2)
        inp = tmp_path / "prob.json"
        inp.write_text(json.dumps(MINIMAL_CROSSED))
        out = tmp_path / "r.json"
        assert main(["euler", "--input", str(inp), "--max-precision", value, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"error: max-precision-positive: --max-precision must be >= 1, got {value}" in err
        assert not out.exists()


class TestDetIntReuse:
    """det F over Z[X] is independent of N: one poly_mat_det per escalation chain."""

    @pytest.fixture
    def calls(self, monkeypatch):
        count = []
        real = exactint.poly_mat_det

        def counting(entries):
            count.append(1)
            return real(entries)

        monkeypatch.setattr(exactint, "poly_mat_det", counting)
        return count

    def test_cli_escalation_chain(self, calls, tmp_path, capsys):
        # F = X - 3^5 at the trivial character needs N > 5: 1 -> 2 -> 4 -> 8
        inp = tmp_path / "prob.json"
        inp.write_text(json.dumps(dict(MINIMAL_GAMMA, F=[[["-243", "1"]]], n_levels=[0])))
        out = tmp_path / "r.json"
        assert main(["euler", "--input", str(inp), "--precision", "1", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert [e["to"] for e in report["escalations"]] == ["2", "4", "8"]
        assert report["tasks"][0]["chi_exponent"] == "5"
        assert len(calls) == 1
        capsys.readouterr()

    def test_with_precision_and_reverification(self, calls):
        pf = parse({"kind": "gamma", "p": 3, "d": 1, "F": [[["0", "1"]]], "n_max": 1})
        assert pf.build_module(128).det_int == pf.module.det_int
        report, code = run(pf, "find-twist")
        assert code == 0 and report["tasks"][0]["reverified_ok"] is True
        assert len(calls) == 1


class TestLazyPreparation:
    """det F is prepared only by the commands that print its Weierstrass data."""

    @pytest.fixture
    def prepares(self, monkeypatch):
        """Count weierstrass_prepare calls at every iwalab binding site."""
        count = []
        real = series.weierstrass_prepare

        def counting(f):
            count.append(f.context.N)
            return real(f)

        for name, mod in list(sys.modules.items()):
            if name.startswith("iwalab") and getattr(mod, "weierstrass_prepare", None) is real:
                monkeypatch.setattr(mod, "weierstrass_prepare", counting)
        return count

    @pytest.mark.parametrize(
        "command, stanza, escalated",
        [
            ("euler", dict(MINIMAL_GAMMA, characters=["1", "4"], n_levels=[0, 1, 2]), False),
            ("find-twist", dict(MINIMAL_GAMMA, n_max=2), False),
            # det F = (X + 2*3^70)(1 + X): chi = 70 + n at u = 1 escalates 64 -> 128
            ("euler", dict(MINIMAL_GAMMA, d=2, F=[[[str(2 * 3**70), "1"], ["0"]],
                                                  [["0"], ["1", "1"]]], n_levels=[0, 1]), True),
        ],
        ids=["euler", "find-twist", "euler-escalating"],
    )
    def test_level_commands_never_prepare(self, prepares, command, stanza, escalated,
                                          tmp_path, capsys):
        inp = tmp_path / "prob.json"
        inp.write_text(json.dumps(stanza))
        out = tmp_path / "r.json"
        assert main([command, "--input", str(inp), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert bool(report["escalations"]) == escalated
        if escalated:
            assert report["tasks"][0]["chi_exponent"] == "70"
        assert prepares == []
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["prepare", "char"])
    def test_prepare_and_char_prepare_once(self, prepares, command):
        pf = parse(dict(MINIMAL_GAMMA, F=[[["-3", "1", "9"]]]))
        assert prepares == []
        assert pf.module.char_invariants() == (1, 0)
        assert prepares == []
        report, code = run(pf, command)
        assert code == 0 and report["tasks"][0]["lambda"] == "1"
        assert prepares == [64]


class TestOneCommandPath:
    """Both stanza kinds share one command path: one refusal per missing input."""

    @pytest.mark.parametrize(
        "stanza",
        [
            {k: v for k, v in MINIMAL_CROSSED.items() if k != "levels"},
            dict(MINIMAL_CROSSED, levels=[]),
        ],
        ids=["missing", "empty"],
    )
    def test_crossed_levels_required_at_parse(self, stanza):
        with pytest.raises(ValidationError) as exc:
            parse(stanza)
        assert exc.value.invariant == "levels-nonempty"

    @pytest.mark.parametrize("command", ["euler", "akashi", "find-twist"])
    @pytest.mark.parametrize("levels", [None, []], ids=["missing", "empty"])
    def test_crossed_levels_required_cli(self, command, levels, tmp_path, capsys):
        stanza = {k: v for k, v in MINIMAL_CROSSED.items() if k != "levels"}
        if levels is not None:
            stanza["levels"] = levels
        inp = tmp_path / "prob.json"
        inp.write_text(json.dumps(stanza))
        out = tmp_path / "r.json"
        assert main([command, "--input", str(inp), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: levels-nonempty") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["prepare", "char", "euler", "akashi", "find-twist"])
    def test_stanza_commands_need_a_problem(self, command):
        with pytest.raises(ValidationError, match="needs an --input problem file") as exc:
            run(None, command)
        assert exc.value.invariant == "command-stanza"

    @pytest.mark.parametrize(
        "command, refused",
        [("prepare", "crossed"), ("char", "crossed"), ("akashi", "gamma"),
         ("euler", None), ("find-twist", None)],
    )
    def test_stanza_kind_each_command_needs(self, command, refused):
        for stanza in (MINIMAL_GAMMA, MINIMAL_CROSSED):
            pf = parse(stanza)
            if pf.kind == refused:
                needed = "gamma" if refused == "crossed" else "crossed"
                message = f": {command} needs a '{needed}' stanza, got '{refused}'$"
                with pytest.raises(ValidationError, match=message) as exc:
                    run(pf, command)
                assert exc.value.invariant == "command-stanza"
            else:
                assert run(pf, command)[0]["kind"] == pf.kind

    def test_each_precision_built_once(self, monkeypatch, tmp_path, capsys):
        # four tasks escalate from N = 1; the two u = 4 chains reach N = 8 and N = 32
        built = []
        real = ProblemFile.build_module

        def counting(self, N):
            built.append(N)
            return real(self, N)

        monkeypatch.setattr(ProblemFile, "build_module", counting)
        inp = Path(__file__).resolve().parent.parent / "problems" / "crossed_trivial.json"
        out = tmp_path / "r.json"
        argv = ["euler", "--input", str(inp), "--precision", "1", "--out", str(out)]
        assert main(argv) == 0
        assert built == [2, 4, 8, 16, 32]
        capsys.readouterr()


class TestRefusalsNamed:
    """Each refusal of a malformed stanza is a named error: exit 1, one `error:` line, no traceback."""

    @pytest.mark.parametrize(
        "stanza, message",
        [
            (dict(MINIMAL_GAMMA, p=True), "p: expected an integer, got a boolean"),
            ({k: v for k, v in MINIMAL_GAMMA.items() if k != "d"}, "missing key 'd'"),
            (dict(MINIMAL_GAMMA, d=0), "rank-positive: d must be >= 1, got 0"),
            (dict(MINIMAL_GAMMA, n_levels=[0, -1]), "level: levels must be >= 0"),
            ({k: v for k, v in MINIMAL_CROSSED.items() if k != "A"}, "missing key 'A'"),
            (dict(MINIMAL_CROSSED, levels={"n": 1, "m": 1}),
             "levels: expected a list of [n, m] pairs"),
            (dict(MINIMAL_CROSSED, levels=[[1, 1], [1]]), "levels: each level is a pair [n, m]"),
            (dict(MINIMAL_CROSSED, levels=[3]), "levels: each level is a pair [n, m]"),
            # a malformed entry is named by its row and column
            (dict(MINIMAL_GAMMA, F=[["5"]]), "F[0][0]: expected a list"),
            (dict(MINIMAL_GAMMA, d=2, F=[[["1"], ["x", "1"]], [["0"], ["1"]]]),
             "F[0][1]: 'x' is not a decimal integer"),
            (dict(MINIMAL_CROSSED, d=2, A=[[["1"], ["0"]], [["0"], "5"]]),
             "A[1][1]: expected a list"),
            (dict(MINIMAL_CROSSED, A=[[["1", "x"]]]), "A[0][0]: 'x' is not a decimal integer"),
        ],
        ids=["boolean", "missing-d", "d-zero", "negative-level", "missing-A",
             "levels-not-a-list", "level-not-a-pair", "level-not-a-list",
             "F-entry-not-a-list", "F-entry-not-an-integer", "A-entry-not-a-list",
             "A-entry-not-an-integer"],
    )
    def test_stanza_refused(self, stanza, message, tmp_path, capsys):
        with pytest.raises((ParseError, ValidationError)) as exc:
            parse(stanza)
        assert str(exc.value) == message
        inp = tmp_path / "prob.json"
        inp.write_text(json.dumps(stanza))
        assert main(["euler", "--input", str(inp)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "prob.json.report.json").exists()

    def test_non_square_action_refused(self):
        ctx = PadicContext(3, 8)
        with pytest.raises(ValidationError) as exc:
            CrossedModule.from_int_data(ctx, 4, [[[1], [0]]])
        assert exc.value.invariant == "square-action"
        with pytest.raises(ValidationError, match="square-action"):
            CrossedModule.from_int_data(ctx, 4, [])

    def test_unknown_command_refused_by_run(self):
        with pytest.raises(ValidationError, match="unknown command 'bogus'") as exc:
            run(None, "bogus")
        assert exc.value.invariant == "command"


class TestCliOutput:
    def test_default_sidecar_path(self, tmp_path, capsys):
        inp = tmp_path / "prob.json"
        inp.write_text(json.dumps(dict(MINIMAL_GAMMA, characters=["4"], n_levels=[0])))
        assert main(["euler", "--input", str(inp)]) == 0
        sidecar = tmp_path / "prob.json.report.json"
        out = capsys.readouterr().out
        assert out.endswith(f"report written to {sidecar}\n")
        assert json.loads(sidecar.read_text())["tasks"][0]["chi_exponent"] == "1"

    STANZA = dict(MINIMAL_GAMMA, characters=["4"], n_levels=[0])

    def _euler(self, tmp_path, out):
        inp = tmp_path / "prob.json"
        inp.write_text(json.dumps(self.STANZA))
        return main(["euler", "--input", str(inp), "--out", str(out)])

    def test_sidecar_opened_without_truncation(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "r.json"
        out.write_text("x" * 100_000)
        flags = []
        real = os.open

        def recording(path, flag, *args, **kwargs):
            if str(path) == str(out):
                flags.append(flag)
            return real(path, flag, *args, **kwargs)

        monkeypatch.setattr(os, "open", recording)
        assert self._euler(tmp_path, out) == 0
        assert len(flags) == 1 and not flags[0] & os.O_TRUNC
        capsys.readouterr()

    @pytest.mark.parametrize("old", [b"x" * 100_000, b"{}"], ids=["longer", "shorter"])
    def test_overwrite_equals_fresh_write(self, old, tmp_path, monkeypatch, capsys):
        # a fixed clock makes the timing field, and so the whole file, reproducible
        monkeypatch.setattr(workbench, "time", SimpleNamespace(perf_counter=lambda: 0.0))
        fresh, over = tmp_path / "fresh.json", tmp_path / "over.json"
        over.write_bytes(old)
        assert self._euler(tmp_path, fresh) == 0
        assert self._euler(tmp_path, over) == 0
        assert over.read_bytes() == fresh.read_bytes()
        capsys.readouterr()

    def test_short_writes_are_retried(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(workbench, "time", SimpleNamespace(perf_counter=lambda: 0.0))
        fresh, short = tmp_path / "fresh.json", tmp_path / "short.json"
        assert self._euler(tmp_path, fresh) == 0
        real, sizes = os.write, []

        def seven_bytes(fd, data):
            sizes.append(real(fd, bytes(data[:7])))
            return sizes[-1]

        monkeypatch.setattr(os, "write", seven_bytes)
        assert self._euler(tmp_path, short) == 0
        assert short.read_bytes() == fresh.read_bytes()
        assert len(sizes) == -(-len(fresh.read_bytes()) // 7) > 1
        capsys.readouterr()

    def test_a_write_without_progress_is_an_error(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "r.json"
        monkeypatch.setattr(os, "write", lambda fd, data: 0)
        assert self._euler(tmp_path, out) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write the report to {out}: ")
        assert "no progress" in err

    def test_out_dev_null(self, tmp_path, capsys):
        assert self._euler(tmp_path, os.devnull) == 0
        assert capsys.readouterr().out.endswith(f"report written to {os.devnull}\n")

    def test_out_dev_stdout_pipe(self, tmp_path):
        inp = tmp_path / "prob.json"
        inp.write_text(json.dumps(self.STANZA))
        env = dict(os.environ, PYTHONPATH=str(SRC))
        argv = ["euler", "--input", str(inp), "--out", "/dev/stdout"]
        proc = subprocess.run([sys.executable, "-m", "iwalab.cli", *argv], capture_output=True,
                              env=env, timeout=60, text=True)
        assert proc.returncode == 0, proc.stderr
        # the sidecar goes through its own descriptor, so it may precede the buffered table
        start = proc.stdout.index("{\n")
        report, _ = json.JSONDecoder().raw_decode(proc.stdout, start)
        assert report["command"] == "euler" and report["tasks"][0]["chi_exponent"] == "1"

    def test_new_sidecar_mode(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        umask = os.umask(0o027)
        try:
            assert self._euler(tmp_path, out) == 0
        finally:
            os.umask(umask)
        assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~0o027
        capsys.readouterr()

    def test_selftest_table(self, capsys):
        assert main(["selftest"]) == 0
        header, *lines = capsys.readouterr().out.splitlines()
        assert header.startswith("# iwalab ") and "  selftest  input sha256:" in header
        report, _ = run(None, "selftest")
        want = [f"PASS  {c['name']}" + (f"  [{c['detail']}]" if c["detail"] else "")
                for c in report["tasks"]]
        assert lines == want and len(want) > 1
