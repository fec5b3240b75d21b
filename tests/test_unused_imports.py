"""Every name a package module imports is used in that module.

`__init__.py` re-exports by import, so it is left out.  A name counts as used
when it appears as a bare name anywhere in the module's syntax tree (an
attribute access `po.trim_int` uses `po`).
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "iwalab"
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_modules_are_found():
    assert {"exactint.py", "gamma.py", "crossed.py", "series.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_reported():
    source = "from .series import Character, lambda_mu\nimport json\n\nCharacter(json)\n"
    assert unused_imports(source) == [(1, "lambda_mu")]
