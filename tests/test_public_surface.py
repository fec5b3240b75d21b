"""Every name in `iwalab.__all__` has a reader in the package or the benchmark.

A name is read when a module of `src/iwalab` other than `__init__.py`, or a
module of `perfbench/`, references it outside its own definition: as a bare
name, as an attribute (`iwalab.KERNEL_IMPL`), or as an imported alias
(`from .series import Character`).  The benchmark's tracer binds the layers
it times by string, so each dotted component of an attribute path in
`perfbench/layers.py`'s `TRACED` table counts as a reference too.  Mentions
in docstrings and comments do not count.  An exported name that only its own
unit tests call is a public surface with no reader.
"""

import ast
from pathlib import Path

import iwalab

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "iwalab"
BENCH = ROOT / "perfbench"
READERS = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
READERS += sorted(BENCH.glob("*.py"))


def references(source):
    """Names the module reads, leaving out those inside a definition of the same name."""
    found = set()

    def visit(node, defining):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defining = defining | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in defining:
                found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if node.attr not in defining:
                found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
        for child in ast.iter_child_nodes(node):
            visit(child, defining)

    visit(ast.parse(source), frozenset())
    return found


def unread(exports, sources, traced=()):
    """The exports that no source references and no traced path names, sorted."""
    read = set(traced)
    for source in sources:
        read |= references(source)
    return sorted(set(exports) - read)


def traced_names(source):
    """Dotted components of the attribute paths in a `TRACED = [(name, module, attr), ...]` table."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED" for t in node.targets):
            table = ast.literal_eval(node.value)
            return {part for _, _, attr in table for part in attr.split(".")}
    return set()


def test_readers_are_found():
    names = {p.name for p in READERS}
    assert {"gamma.py", "series.py", "layers.py", "workloads.py"} <= names
    assert "__init__.py" not in names


def test_every_export_has_a_reader():
    traced = traced_names((BENCH / "layers.py").read_text())
    assert unread(iwalab.__all__, [p.read_text() for p in READERS], traced) == []


def test_an_unread_export_is_reported():
    source = (
        '"""omega is only named in this docstring."""\n'
        "from .m import imported\n"
        "def omega(n):\n"
        "    return omega(n - 1) if n else used()\n"
        "class Box:\n"
        "    def make(self):\n"
        "        return Box()\n"
        "def used():\n"
        "    return imported.attribute\n"
    )
    exports = ["Box", "attribute", "imported", "omega", "used"]
    assert unread(exports, [source]) == ["Box", "omega"]
    assert unread(exports, [source], traced={"omega"}) == ["Box"]


def test_traced_paths_count_as_references():
    source = (
        "TRACED = [\n"
        '    ("series.twist_series", "iwalab.series", "twist_series"),\n'
        '    ("gamma.euler_direct", "iwalab.gamma", "GammaModule.euler_direct"),\n'
        "]\n"
    )
    assert traced_names(source) == {"twist_series", "GammaModule", "euler_direct"}
