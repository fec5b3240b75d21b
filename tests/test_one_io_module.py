"""File I/O is written once: only `cli.py` calls `open` or `os.open`.

The CLI reads the problem file and writes the sidecar report; every other
module computes on values it is handed.  A call to `open` or `os.open`
anywhere else would be a second I/O policy (encoding, sidecar truncation,
error messages) to keep in step with the first.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "iwalab"
ALLOWED = {"cli.py"}


def open_calls(source, filename):
    """(filename, line) of every call of `open` or `os.open`, in order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if (isinstance(f, ast.Name) and f.id == "open") or (
            isinstance(f, ast.Attribute)
            and f.attr == "open"
            and isinstance(f.value, ast.Name)
            and f.value.id == "os"
        ):
            found.append((filename, node.lineno))
    return sorted(found, key=lambda item: item[1])


def test_only_the_cli_opens_files():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += open_calls(path.read_text(), path.name)
    assert {name for name, _ in found} == ALLOWED, found


def test_an_open_elsewhere_is_reported():
    source = (
        "import os\n"
        "def load(path):\n"
        "    with open(path) as fh:\n"
        "        return fh.read()\n"
        "def raw(path):\n"
        "    return os.open(path, os.O_RDONLY)\n"
        "def unrelated(z):\n"
        "    return z.open()\n"
    )
    assert open_calls(source, "x.py") == [("x.py", 3), ("x.py", 6)]
