"""The Smith elimination's row storage stays inside `kernels`.

`smith_exponents` and `det_mod` store each row of their copy last column
first, and `_smith`, `_eliminate`, `_unit_pivot` and `_divide_out_p` work on
rows in that order.  Code elsewhere that handed them rows in logical order
would still get an answer, but a different pivot sequence, so no other
module of the package may reference them.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "iwalab"
PRIVATE = {"_smith", "_eliminate", "_unit_pivot", "_divide_out_p"}


def private_references(source, filename):
    """(filename, name) of every name, attribute or import of PRIVATE in `source`, in order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if name in PRIVATE:
            found.append((filename, name))
    return found


def test_only_kernels_references_the_elimination_internals():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name != "kernels.py":
            found += private_references(path.read_text(), path.name)
    assert found == [], found
    own = private_references((SRC / "kernels.py").read_text(), "kernels.py")
    assert {name for _, name in own} == PRIVATE


def test_a_reference_from_another_module_is_reported():
    source = (
        "from . import kernels\n"
        "from .kernels import _unit_pivot\n"
        "def route(rows, p, N):\n"
        "    return kernels._smith([list(r) for r in rows], p, N)\n"
    )
    assert private_references(source, "x.py") == [("x.py", "_unit_pivot"), ("x.py", "_smith")]
