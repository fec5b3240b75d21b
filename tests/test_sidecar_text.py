"""`cli._sidecar_text` writes exactly json.dumps(report, sort_keys=True, indent=2) plus a newline.

The CLI builds the sidecar with its own emitter, since json.dumps falls back
to its pure-Python encoder whenever `indent` is set.  json.dumps stays the
reference here: on every golden report, on the report of every command on
every checked-in problem file, and on generated values nested at least four
deep, the two must give the same bytes.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from iwalab import cli
from iwalab.workbench import COMMANDS

ROOT = Path(__file__).resolve().parent.parent


def reference(value):
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("path", sorted((ROOT / "tests" / "golden").glob("*.report.json")),
                         ids=lambda p: p.name)
def test_golden_reports(path):
    report = json.loads(path.read_text(encoding="utf-8"))
    # the golden files hold no timing; a live report carries a float there
    report["timing"] = {"seconds": 0.000473}
    assert cli._sidecar_text(report) == reference(report)


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("path", sorted((ROOT / "problems").glob("*.json")), ids=lambda p: p.name)
def test_every_command_on_the_problem_files(command, path, tmp_path, monkeypatch, capsys):
    reports = []

    def recording(report):
        reports.append(report)
        return real(report)

    real = cli._sidecar_text
    monkeypatch.setattr(cli, "_sidecar_text", recording)
    out = tmp_path / "report.json"
    code = cli.main([command, "--input", str(path), "--out", str(out)])
    capsys.readouterr()
    if code == 1:  # a stanza the command does not take: no report, no file
        assert reports == [] and not out.exists()
        return
    assert len(reports) == 1
    assert out.read_bytes() == reference(reports[0]).encode("ascii")


# quotes, backslashes, control characters, non-ASCII and astral characters
_TEXT = st.text(st.sampled_from('a"\\/\x00\x08\x1f\x7fé ퟿\U0001f600') | st.characters())
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64 - 2, max_value=2**70)
    | st.integers(max_value=-(2**64))
    | st.sampled_from([0.1, 1e-7, 1e16, -0.0, 0.0, 5e-324, 1.7976931348623157e308])
    | st.floats(allow_nan=False, allow_infinity=False)
    | _TEXT
)


def _containers(inner, min_size=0):
    return (
        st.lists(inner, min_size=min_size, max_size=2)
        | st.lists(inner, min_size=min_size, max_size=2).map(tuple)
        | st.dictionaries(_TEXT, inner, min_size=min_size, max_size=2)
    )


_DEEP = st.recursive(_SCALARS, _containers, max_leaves=6)
for _ in range(4):
    _DEEP = _containers(_DEEP, min_size=1)


@settings(max_examples=150)
@given(_DEEP)
def test_generated_values(value):
    assert cli._sidecar_text(value) == reference(value)


@pytest.mark.parametrize(
    "value",
    [{1, 2}, b"bytes", {"a": [frozenset()]}, {1: "int key"}, {None: 0}, {("a",): 0},
     float("nan"), [float("inf")], object()],
    ids=["set", "bytes", "nested-frozenset", "int-key", "none-key", "tuple-key", "nan", "inf",
         "object"],
)
def test_other_types_raise(value):
    with pytest.raises(TypeError):
        cli._sidecar_text(value)
