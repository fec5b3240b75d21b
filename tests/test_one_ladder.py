"""The Smith precision ladder is written once: only `kernels.smith_ladder` loops over `precisions`.

Every route that eliminates at the word precision first and at p^N only when
a divisor reaches p^k hands `kernels.smith_ladder` a builder of its rows.  A
function that references `precisions` (a bare name or an attribute
`kernels.precisions`) anywhere else would be a second copy of that ladder.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "iwalab"
ALLOWED = {("kernels.py", "smith_ladder")}


def precision_references(source, filename):
    """(filename, outermost enclosing function) of every reference to `precisions`, in order."""
    tree = ast.parse(source)
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            owner = owner or getattr(node, "name", "<lambda>")
        if isinstance(node, ast.Name) and node.id == "precisions":
            found.append((filename, owner or "<module>"))
        if isinstance(node, ast.Attribute) and node.attr == "precisions":
            found.append((filename, owner or "<module>"))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return found


def test_only_the_ladder_references_precisions():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += precision_references(path.read_text(), path.name)
    assert set(found) == ALLOWED, found


def test_a_forked_ladder_is_reported():
    source = (
        "from . import kernels\n"
        "def route(p, N):\n"
        "    for P in kernels.precisions(p, N):\n"
        "        pass\n"
        "def other():\n"
        "    return [precisions for _ in ()]\n"
    )
    assert precision_references(source, "x.py") == [("x.py", "route"), ("x.py", "other")]
