"""Every local name a package function stores is loaded in that function.

A name counts as loaded when the function reads it anywhere in its body,
nested functions and comprehensions included, so a closure's read counts for
the function that binds the name.  `_` and the names a function declares
`global` or `nonlocal` are left out.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "iwalab"
MODULES = sorted(SRC.glob("*.py"))


def dead_locals(source):
    """(line, function, name) of every name a function stores and never loads."""
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored, loaded = {}, {"_"}
        for node in ast.walk(fn):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                stored.setdefault(node.id, node.lineno)
            elif isinstance(node, ast.Name):
                loaded.add(node.id)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                loaded.update(node.names)
        found |= {(line, fn.name, name) for name, line in stored.items() if name not in loaded}
    return sorted(found)


def test_modules_are_found():
    assert {"exactint.py", "workbench.py", "cli.py", "__init__.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_dead_local(path):
    assert dead_locals(path.read_text()) == []


def test_a_dead_local_is_reported():
    source = (
        "def f(xs):\n"
        "    size = len(xs)\n"
        "    total, _ = 0, None\n"
        "    for x in xs:\n"
        "        total += x\n"
        "    def g():\n"
        "        nonlocal total\n"
        "        total = 1\n"
        "    return [y for y in xs], total, g\n"
    )
    assert dead_locals(source) == [(2, "f", "size")]
