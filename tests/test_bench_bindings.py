"""The bindings into the package still resolve, and the benchmark's workloads still run.

`perfbench/layers.py` wraps the functions named in its TRACED table, and
`perfbench/run.py` reads `iwalab.KERNEL_IMPL` into its run header.  Removing
or renaming any of them breaks `run.py --trace 1` without any other test
failing, so this test reads the table and resolves every name in it.  The
same holds for the names `iwalab.__all__` exports.  `perfbench/workloads.py`
calls much more of the package (the corpus generators, `Character.from_int`,
`context`, `with_precision`, every `euler_*` route and `cli.main`), so one
round of each workload is built and run here at seed 0, and every answer
must pass the workload's own failure rule.  The recorded rounds of seeds 0,
1 and 13 must reproduce their digests in `perfbench/answers.json`, so a
changed answer fails here and not only in the benchmark's answer gate.
"""

import hashlib
import importlib
import importlib.util
import json
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


def round_digest(pairs, skip):
    """`round_digest` of perfbench/run.py: sha256 of the compact, key-sorted JSON list of
    [task key, answer] pairs, recorded failures left out, to 16 hex digits."""
    text = json.dumps([[key, answer] for key, answer in pairs if key not in skip],
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", ["gamma-sweep", "crossed-triple", "cli-escalate"])
def test_recorded_rounds_of_three_seeds_match_the_recorded_answers(name, tmp_path):
    answers = json.loads((PERFBENCH / "answers.json").read_text(encoding="utf-8"))[name]
    workload = load_perfbench("workloads").WORKLOADS[name]
    for seed in (0, 1, 13):
        recorded = answers[str(seed)]
        skip = set(recorded["failed"])
        rounds = workload.build(seed, len(recorded["digests"]), tmp_path / str(seed))
        assert len(rounds) == len(recorded["digests"]) == 8
        for r, (tasks, digest) in enumerate(zip(rounds, recorded["digests"])):
            pairs = []
            for task in tasks:
                # as run.run_pass records it: a raised exception is the answer, and is not finished
                try:
                    answer = task.run()
                except Exception as exc:
                    answer = {"raised": type(exc).__name__, "message": str(exc)}
                if task.finish is not None and "raised" not in answer:
                    answer = task.finish(answer)
                pairs.append((task.key, answer))
            assert round_digest(pairs, skip) == digest, (seed, r)
