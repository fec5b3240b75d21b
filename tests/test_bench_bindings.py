"""The bindings into the package still resolve.

`perfbench/layers.py` wraps the functions named in its TRACED table, and
`perfbench/run.py` reads `iwalab.KERNEL_IMPL` into its run header.  Removing
or renaming any of them breaks `run.py --trace 1` without any other test
failing, so this test reads the table and resolves every name in it.  The
same holds for the names `iwalab.__all__` exports.
"""

import importlib
import importlib.util
from pathlib import Path

import iwalab

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_name_resolves():
    traced = load_layers().TRACED
    assert traced
    for name, modname, attr in traced:
        owner = importlib.import_module(modname)
        for part in attr.split("."):
            assert hasattr(owner, part), (name, modname, attr)
            owner = getattr(owner, part)
        assert callable(owner), (name, modname, attr)


def test_every_exported_name_resolves():
    assert iwalab.__all__
    for name in iwalab.__all__:
        assert hasattr(iwalab, name), name


def test_kernel_impl_is_exported():
    assert isinstance(iwalab.KERNEL_IMPL, str)
