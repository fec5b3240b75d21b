"""Every command's report and table on the checked-in problems, byte for byte except `timing`.

Record (or re-record, after a declared report change) with

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from iwalab.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

GAMMA = "gamma_x_minus_3"
CROSSED = "crossed_trivial"

# (problem file stem, command, extra options, expected exit code)
CASES = [
    (GAMMA, "euler", [], 0),
    (GAMMA, "char", [], 0),
    (GAMMA, "prepare", [], 0),
    (GAMMA, "find-twist", [], 0),
    (CROSSED, "euler", [], 0),
    (CROSSED, "akashi", [], 0),
    (CROSSED, "find-twist", [], 0),
    # escalation: the task ids and the chains to N = 4 (gamma) and N = 32 (crossed)
    (GAMMA, "euler", ["--precision", "1"], 0),
    (CROSSED, "euler", ["--precision", "1"], 0),
    # a budget-exhausted search keeps every rejected candidate's record
    (GAMMA, "find-twist", ["--precision", "1", "--budget", "3"], 2),
    (CROSSED, "find-twist", ["--precision", "1", "--budget", "3"], 2),
]


def _name(stem, command, extra):
    return ".".join([stem, command] + [a.lstrip("-") for a in extra])


def _run(stem, command, extra):
    """(exit code, report without timing, stdout without the sidecar line) of one CLI call."""
    with tempfile.TemporaryDirectory() as tmp:
        out_path = Path(tmp) / "report.json"
        argv = [command, "--input", f"problems/{stem}.json", "--out", str(out_path), *extra]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        raw = out_path.read_text(encoding="utf-8")
    report = json.loads(raw)
    # the file itself, timing included, is the serialization the golden files hold
    assert raw == _report_text(report)
    report.pop("timing")
    lines = [ln for ln in buf.getvalue().splitlines() if not ln.startswith("report written to")]
    return code, report, "\n".join(lines) + "\n"


def _report_text(report):
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "stem, command, extra, code", CASES, ids=[_name(*c[:3]) for c in CASES]
)
def test_golden_report(stem, command, extra, code, monkeypatch):
    monkeypatch.chdir(ROOT)
    name = _name(stem, command, extra)
    got_code, report, table = _run(stem, command, extra)
    assert got_code == code
    assert _report_text(report) == (GOLDEN / f"{name}.report.json").read_text(encoding="utf-8")
    assert table == (GOLDEN / f"{name}.stdout").read_text(encoding="utf-8")


def record():
    import os

    os.chdir(ROOT)
    for stem, command, extra, _code in CASES:
        name = _name(stem, command, extra)
        _, report, table = _run(stem, command, extra)
        (GOLDEN / f"{name}.report.json").write_text(_report_text(report), encoding="utf-8")
        (GOLDEN / f"{name}.stdout").write_text(table, encoding="utf-8")
        print(f"recorded {name}", file=sys.stderr)


if __name__ == "__main__":
    record()
