"""The bindings into the package still resolve, and the benchmark's workloads still run.

`perfbench/layers.py` wraps the functions named in its TRACED table, and
`perfbench/run.py` reads `iwalab.KERNEL_IMPL` into its run header.  Removing
or renaming any of them breaks `run.py --trace 1` without any other test
failing, so this test reads the table and resolves every name in it.  The
same holds for the names `iwalab.__all__` exports.  `perfbench/workloads.py`
calls much more of the package (the corpus generators, `Character.from_int`,
`context`, `with_precision`, every `euler_*` route and `cli.main`), so one
round of each workload is built and run here at seed 0, and every answer
must pass the workload's own failure rule.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import iwalab

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    """A module of perfbench/ by file name, without putting perfbench/ on the import path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class body runs
    sys.modules[spec.name] = mod
    try:
        spec.loader.exec_module(mod)
    finally:
        del sys.modules[spec.name]
    return mod


def test_every_traced_name_resolves():
    traced = load_perfbench("layers").TRACED
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


@pytest.mark.parametrize("name", ["gamma-sweep", "crossed-triple", "cli-escalate"])
def test_one_round_of_each_workload_passes_its_failure_rule(name, tmp_path):
    workload = load_perfbench("workloads").WORKLOADS[name]
    first = workload.build(0, 1, tmp_path)[0]
    assert first
    for task in first:
        answer = task.run()
        if task.finish is not None:
            answer = task.finish(answer)
        assert workload.failure(task, answer) is None, (task.key, answer)
