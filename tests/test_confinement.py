"""Each confined construct of the package is written once, in the one place a rule allows.

`RULES` names, per rule, the references it confines and the places that may
hold them; one `ast` walker finds the references in every module.

* Elimination internals stay in `kernels.py`.  `smith_exponents` and
  `det_mod` store each row of their copy last column first, and `_smith`,
  `_eliminate`, `_unit_pivot` and `_divide_out_p` work on rows in that
  order.  Code elsewhere that handed them rows in logical order would still
  get an answer, but a different pivot sequence.
* File I/O stays in `cli.py`: only it references `open` or `os.open`.  The
  CLI reads the problem file and writes the sidecar report; every other
  module computes on values it is handed.  An `open` anywhere else would be
  a second I/O policy (encoding, sidecar truncation, error messages) to keep
  in step with the first.
* The Smith precision ladder stays in `kernels.smith_ladder`: only it
  references `precisions`.  Every route that eliminates at the word precision
  first and at p^N only when a divisor reaches p^k hands `smith_ladder` a
  builder of its rows; a reference elsewhere would be a second copy of it.
* Verdicts are constructed only in `results.py`: only it calls
  `EulerResult(...)`.  Every route answers through the interned
  `EulerResult.from_h0` and `from_exact`; a verdict built elsewhere would
  be a second, uncached instance of one answer.

A reference is a bare name, an import, or an attribute: `.x` for any object's
attribute x and `m.x` for the attribute x of the name m.  A call of a
reference r is also the reference `r()`, so a rule can confine calls and
leave imports, annotations and attribute reads alone.  A place is a module
and, when the rule needs it, the outermost function around the reference.
Every confined name must still be referenced, so that a rule whose names left
the package fails instead of passing unread.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "iwalab"

_INTERNALS = ("_smith", "_eliminate", "_unit_pivot", "_divide_out_p")

# rule -> (confined references, allowed places: (module, outermost function or None for any))
RULES = {
    "elimination-internals": (
        {k + name for name in _INTERNALS for k in ("", ".")},
        {("kernels.py", None)},
    ),
    "file-io": ({"open", "os.open"}, {("cli.py", None)}),
    "precision-ladder": ({"precisions", ".precisions"}, {("kernels.py", "smith_ladder")}),
    "interned-verdicts": ({"EulerResult()", ".EulerResult()"}, {("results.py", None)}),
}


def references(source, filename, confined):
    """(filename, outermost function or "<module>", line, reference) of each confined reference."""
    found = []

    def keys(node):
        if isinstance(node, ast.Name):
            return {node.id}
        if isinstance(node, ast.alias):
            return {node.name}
        if isinstance(node, ast.Attribute):
            out = {"." + node.attr}
            if isinstance(node.value, ast.Name):
                out.add(f"{node.value.id}.{node.attr}")
            return out
        if isinstance(node, ast.Call):
            return {key + "()" for key in keys(node.func)}
        return set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            owner = owner or getattr(node, "name", "<lambda>")
        for key in sorted(keys(node) & confined):
            found.append((filename, owner or "<module>", node.lineno, key))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), None)
    return found


def allowed(hit, places):
    filename, owner = hit[:2]
    return (filename, None) in places or (filename, owner) in places


@pytest.mark.parametrize("rule", sorted(RULES))
def test_each_rule_holds_in_the_package(rule):
    confined, places = RULES[rule]
    hits = []
    for path in sorted(SRC.glob("*.py")):
        hits += references(path.read_text(), path.name, confined)
    assert [h for h in hits if not allowed(h, places)] == [], rule
    held = {key.lstrip(".") for *_, key in hits}
    assert held == {key.lstrip(".") for key in confined}, rule


PLANTED = {
    "elimination-internals": (
        "from . import kernels\n"
        "from .kernels import _unit_pivot\n"
        "def route(rows, p, N):\n"
        "    return kernels._smith([list(r) for r in rows], p, N)\n",
        [("gamma.py", "<module>", 2, "_unit_pivot"), ("gamma.py", "route", 4, "._smith")],
    ),
    "file-io": (
        "import os\n"
        "def load(path):\n"
        "    with open(path) as fh:\n"
        "        return fh.read()\n"
        "def raw(path):\n"
        "    return os.open(path, os.O_RDONLY)\n"
        "def unrelated(z):\n"
        "    return z.open()\n",
        [("gamma.py", "load", 3, "open"), ("gamma.py", "raw", 6, "os.open")],
    ),
    "precision-ladder": (
        "from . import kernels\n"
        "def route(p, N):\n"
        "    for P in kernels.precisions(p, N):\n"
        "        pass\n"
        "def other():\n"
        "    return [precisions for _ in ()]\n",
        [("gamma.py", "route", 3, ".precisions"), ("gamma.py", "other", 6, "precisions")],
    ),
    "interned-verdicts": (
        "from .results import EulerResult, EulerStatus\n"
        "def route(rho, n) -> EulerResult:\n"
        "    if n:\n"
        "        return EulerResult.from_h0(0)\n"
        "    return EulerResult(EulerStatus.EXISTS, 0, 0, 0)\n",
        [("gamma.py", "route", 5, "EulerResult()")],
    ),
}


@pytest.mark.parametrize("rule", sorted(RULES))
def test_a_planted_breach_is_reported(rule):
    source, want = PLANTED[rule]
    hits = references(source, "gamma.py", RULES[rule][0])
    assert hits == want
    assert not any(allowed(h, RULES[rule][1]) for h in hits)
