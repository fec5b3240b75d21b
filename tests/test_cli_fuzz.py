"""Fuzzing the CLI over small random problem stanzas: a report or a named error, never a traceback."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from iwalab.cli import main

# what a hand-written file may hold where an integer or a list belongs; no large
# integers, since a large precision or budget is a request for that much work
junk = st.sampled_from([True, None, 1.5, "x", "", [], {}, [[]], -1, 0, 7, "1e3"])


def as_json_int(value):
    return st.sampled_from([value, str(value)])


@st.composite
def stanzas(draw):
    """A well-formed small stanza, then up to two keys dropped or junk put in or under them."""
    kind = draw(st.sampled_from(["gamma", "crossed"]))
    p = draw(st.sampled_from([3, 5]))
    d = draw(st.integers(1, 2))
    coeff = st.integers(-9, 9).flatmap(as_json_int)
    matrix = st.lists(
        st.lists(st.lists(coeff, min_size=1, max_size=3), min_size=d, max_size=d),
        min_size=d,
        max_size=d,
    )
    out = {"kind": kind, "p": draw(as_json_int(p)), "d": d}
    out["characters"] = draw(st.lists(st.integers(0, 3).map(lambda k: 1 + k * p), min_size=1, max_size=3))
    if draw(st.booleans()):
        out["precision"] = draw(st.sampled_from([1, 2, 4, 16, 64]))
    if draw(st.booleans()):
        out["budget"] = draw(st.integers(1, 3))
    else:
        out["budget"] = 3  # keeps find-twist short
    if kind == "gamma":
        out["F"] = draw(matrix)
        out["n_levels"] = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3))
        if draw(st.booleans()):
            out["n_max"] = draw(st.integers(0, 2))
    else:
        out["kappa"] = draw(st.sampled_from([1, 1 + p, 1 + 2 * p, 1 + p * p, 2]))
        out["A"] = draw(matrix)
        out["levels"] = draw(
            st.lists(st.lists(st.integers(0, 2), min_size=2, max_size=2), min_size=1, max_size=3)
        )
    for _ in range(draw(st.integers(0, 2))):
        key = draw(st.sampled_from(sorted(out)))
        how = draw(st.sampled_from(["junk", "drop", "nested"]))
        if how == "junk":
            out[key] = draw(junk)
        elif how == "drop":
            del out[key]
        else:
            # junk one level down, or two for a matrix row or level pair
            node = out[key]
            while isinstance(node, list) and node and isinstance(node[0], list) and draw(st.booleans()):
                node = draw(st.sampled_from(node))
            if isinstance(node, list) and node:
                node[draw(st.integers(0, len(node) - 1))] = draw(junk)
    return out


@settings(max_examples=200)
@given(
    content=st.one_of(stanzas().map(lambda s: json.dumps(s).encode()), st.binary(max_size=40)),
    command=st.sampled_from(["euler", "akashi", "find-twist", "prepare", "char"]),
    extra=st.sampled_from([[], ["--max-precision", "64"], ["--precision", "3"]]),
    input_exists=st.booleans(),
    out_dir_exists=st.booleans(),
)
def test_cli_reports_or_names_its_error(content, command, extra, input_exists, out_dir_exists):
    with tempfile.TemporaryDirectory() as tmp:
        inp = Path(tmp) / "prob.json"
        if input_exists:
            inp.write_bytes(content)
        out_path = Path(tmp) / ("" if out_dir_exists else "missing") / "r.json"
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--input", str(inp), "--out", str(out_path), *extra])
    assert code in (0, 1, 2)
    if code == 1:
        assert err.getvalue().startswith("error: ")
