"""iwalab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload gamma-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from `src/`.
Set-up (a fresh import of `iwalab` plus generating the workload's inputs) is
repeated SETUP_REPS times and its median reported as `setup_s`.  The timed
pass is a closed loop on one thread: task after task, whole rounds, until
`--seconds` have passed.  With `--trace 1` the same rounds then run again on a
second copy of the inputs with every layer function wrapped (see layers.py),
and the per-layer metrics replace the end-to-end ones.

Times in the end-to-end metrics are scaled by the machine-speed reference
(see reference.py); the raw ones go to the result file and to stdout.

Every task's answer (status, chi/h0/h1 exponents, precision, route agreement,
CLI exit code) goes to a result file under `.perfbench_out/`.  The answer
gate marks the run incorrect when a task's answer is wrong by construction
(routes disagree, or a property the input was built to have is missing), when
the traced and untraced passes disagree, or when the answers of the rounds
recorded in `answers.json` for this seed differ.  Tasks that miss their
expected outcome (a traceback instead of a named IwalabError, undecided at
the cap) are counted in `failed` and the run goes on.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics of this mode.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from array import array
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
ANSWERS = HERE / "answers.json"
SETUP_REPS = 3

sys.path.insert(0, str(HERE))
from reference import NOMINAL_SECONDS, reference_seconds, scale_factors  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _purge_iwalab():
    for k in [k for k in sys.modules if k == "iwalab" or k.startswith("iwalab.")]:
        del sys.modules[k]


def _import_iwalab():
    importlib.import_module("iwalab")
    importlib.import_module("iwalab.corpus")
    importlib.import_module("iwalab.cli")


def setup(workload, seed, rounds, tag):
    """SETUP_REPS fresh imports plus input generation.

    Returns (raw seconds, scaled seconds, inputs of the last repetition).
    """
    raw, scaled = [], []
    inputs = None
    # every repetition writes the same files into the same directory
    workdir = OUT / f"work-{workload}-{seed}-{os.getpid()}-{tag}"
    for _rep in range(SETUP_REPS):
        inputs = None
        _purge_iwalab()
        # the purged modules and the previous inputs are cyclic garbage; left
        # in place they slow every later repetition's collections
        gc.collect()
        before = min(reference_seconds() for _ in range(2))
        t0 = time.perf_counter()
        _import_iwalab()
        inputs = WORKLOADS[workload].build(seed, rounds, workdir)
        raw.append(time.perf_counter() - t0)
        after = min(reference_seconds() for _ in range(2))
        scaled.append(raw[-1] * NOMINAL_SECONDS / ((before + after) / 2))
    return raw, scaled, inputs


class Pass:
    """One timed pass: first-run records of each task plus every task's time.

    A cycled workload runs its tasks many times; only the first run of each
    keeps its answer (later runs must repeat it), so the harness's memory
    does not grow with the speed of the code under test.
    """

    def __init__(self):
        self.records = []  # first run of each task: round, task, answer, seconds, traceback
        self.times = array("d")  # every task run, in order
        self.rounds = []  # per pass round: (generated round, first index into times, count)
        self.refs = []  # reference seconds before each pass round
        self.repeat_mismatch = []
        self.wall = 0.0

    def scaled_times(self):
        out = array("d", self.times)
        for (_r, first, count), f in zip(self.rounds, scale_factors(self.refs)):
            for i in range(first, first + count):
                out[i] *= f
        return out

    def round_rates(self, times):
        return [count / sum(times[first:first + count]) for _r, first, count in self.rounds]

    def total(self, value):
        """Sum of value(record) over every task run, repeats included."""
        visits = Counter(r for r, _first, _count in self.rounds)
        return sum(value(rec) * visits[rec["round"]] for rec in self.records)


def run_pass(workload, rounds, deadline=None, limit=None, tracer=None):
    """Run whole rounds until `deadline` (or `limit` rounds).

    Stateless workloads cycle through their rounds; the others stop when
    every generated round has run.  The machine-speed reference runs before
    each round.
    """
    cycle = WORKLOADS[workload].cycle
    clock = time.perf_counter
    p = Pass()
    first_answers = {}
    gc.collect()
    start = clock()
    n = 0
    while (limit is None or n < limit) and (cycle or n < len(rounds)):
        r = n % len(rounds)
        p.refs.append(reference_seconds())
        p.rounds.append((r, len(p.times), len(rounds[r])))
        for task in rounds[r]:
            if tracer is not None:
                tracer.task = task.key
            t0 = clock()
            tb = None
            try:
                answer = task.run()
            except Exception as exc:  # one task's crash must not end the run
                answer = {"raised": type(exc).__name__, "message": str(exc)}
                tb = traceback.format_exc()
            seconds = clock() - t0
            p.times.append(seconds)
            if task.finish is not None and "raised" not in answer:
                answer = task.finish(answer)
            if n < len(rounds):
                first_answers[task.key] = answer
                p.records.append({"round": r, "task": task, "answer": answer, "seconds": seconds, "traceback": tb})
            elif first_answers[task.key] != answer:
                p.repeat_mismatch.append(task.key)
        if not cycle:
            # let the round's modules and their caches go, as a caller done
            # with them would, so memory does not grow with the rounds run
            for task in rounds[r]:
                task.run = None
        n += 1
        if deadline is not None and clock() >= deadline:
            break
    p.wall = clock() - start
    if deadline is not None and p.wall < deadline - start:
        print(f"note: all {len(rounds)} generated rounds ran before the deadline", file=sys.stderr)
    return p


def judge(workload, records):
    """Set each record's failure (reason or None) and whether its answer is wrong."""
    rule = WORKLOADS[workload].failure
    for rec in records:
        task, answer = rec["task"], rec["answer"]
        if "raised" in answer:
            rec["failure"], rec["wrong"] = f"raised {answer['raised']}", False
        else:
            rec["failure"], rec["wrong"] = rule(task, answer) or (None, False)


def round_digest(records, skip=()):
    text = json.dumps(
        [[rec["task"].key, rec["answer"]] for rec in records if rec["task"].key not in skip],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def by_round(records):
    rounds = {}
    for rec in records:
        rounds.setdefault(rec["round"], []).append(rec)
    return [rounds[r] for r in sorted(rounds)]


def load_answers():
    if not ANSWERS.is_file():
        return {}
    return json.loads(ANSWERS.read_text(encoding="utf-8"))


def gate(workload, seed, p, traced_records=None):
    """List of reasons the outputs are wrong (empty when correct)."""
    records = p.records
    problems = [f"{rec['task'].key}: {rec['failure']}" for rec in records if rec["wrong"]]
    problems += [f"{key}: a repeated run gave another answer" for key in p.repeat_mismatch]
    if traced_records is not None:
        for a, b in zip(records, traced_records):
            if a["answer"] != b["answer"]:
                problems.append(f"{a['task'].key}: traced answer differs from untraced")
    recorded = load_answers().get(workload, {}).get(str(seed))
    if recorded is not None:
        skip = set(recorded["failed"])
        for r, (want, got) in enumerate(zip(recorded["digests"], by_round(records))):
            if round_digest(got, skip) != want:
                problems.append(f"round {r}: answers differ from those recorded for seed {seed}")
    return problems


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def header(args):
    from importlib import metadata

    import iwalab

    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "kernel_impl": iwalab.KERNEL_IMPL,
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
    }


def timings(p, times, setup_seconds):
    """Throughput, p50/p90 and set-up from one set of task times (raw or scaled)."""
    lat = [t * 1000 for t in times]
    cuts = statistics.quantiles(lat, n=10, method="inclusive")
    # Every round holds the same mix, so the median round rate is robust to
    # a burst of machine noise that the mean over the pass would absorb.
    return {
        "tasks_per_s": (statistics.median(p.round_rates(times)), "1/s"),
        "task_p50_ms": (statistics.median(lat), "ms"),
        "task_p90_ms": (cuts[8], "ms"),
        "setup_s": (statistics.median(setup_seconds), "s"),
    }


def _task_rows(records):
    return [
        {
            "task": rec["task"].key,
            "seconds": rec["seconds"],
            "answer": rec["answer"],
            "failure": rec["failure"],
            **({"traceback": rec["traceback"]} if rec["traceback"] else {}),
        }
        for rec in records
    ]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "iwalab" / "__init__.py").is_file():
        print(f"error: no iwalab sources under {src}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    OUT.mkdir(exist_ok=True)

    rounds_wanted = WORKLOADS[args.workload].rounds(args.seconds)
    try:
        setup_raw, setup_scaled, inputs = setup(args.workload, args.seed, rounds_wanted, "a")
        timed = run_pass(args.workload, inputs, deadline=time.perf_counter() + args.seconds)
        # before the harness builds its reports
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        judge(args.workload, timed.records)
        attempted = len(timed.times)
        failed = timed.total(lambda rec: rec["failure"] is not None)
        raw = timings(timed, timed.times, setup_raw)
        result = {"header": header(args), "setup_s": setup_raw, "pass_seconds": timed.wall, "unscaled": raw}

        traced = None
        if args.trace:
            from layers import Tracer

            workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}-traced"
            copy = WORKLOADS[args.workload].build(args.seed, rounds_wanted, workdir)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_pass(args.workload, copy, limit=len(timed.rounds), tracer=tracer)
            finally:
                tracer.uninstall()
            judge(args.workload, traced.records)
            escalations = traced.total(
                lambda rec: len(rec["answer"].get("report", {}).get("escalations", []))
            )
            overhead = sum(traced.scaled_times()) / sum(timed.scaled_times()) - 1
            metrics, ranks = tracer.layer_metrics(sum(traced.times), overhead, escalations)
            metrics["failed_share"] = (failed / attempted, "ratio")
            result["trace"] = {"by_rank": ranks, "binding_sites": tracer.binding_sites}
            spans_path = OUT / f"{args.workload}-seed{args.seed}.spans.jsonl"
            with open(spans_path, "w", encoding="utf-8") as fh:
                for span in tracer.span_records():
                    fh.write(json.dumps(span) + "\n")
        else:
            metrics = timings(timed, timed.scaled_times(), setup_scaled)
            metrics["peak_rss_mb"] = (peak_rss_mb, "MB")

        problems = gate(args.workload, args.seed, timed, traced and traced.records)
        result.update(
            correct=not problems,
            problems=problems,
            attempted=attempted,
            failed=failed,
            metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            tasks=_task_rows(timed.records),
        )
        out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        out_path.write_text(json.dumps(result, indent=1, default=str) + "\n", encoding="utf-8")
    finally:
        for work in OUT.glob(f"work-{args.workload}-{args.seed}-{os.getpid()}-*"):
            shutil.rmtree(work, ignore_errors=True)

    for p in problems:
        print(f"incorrect: {p}", file=sys.stderr)
    for rec in timed.records:
        if rec["failure"]:
            print(f"failed: {rec['task'].key}: {rec['failure']}", file=sys.stderr)
    print(f"# {args.workload} seed {args.seed}: {attempted} tasks, {failed} failed, result in {out_path}")
    if "failed_share" not in metrics:
        print(f"{'failed_share':<44} {failed / attempted:>16.6g} ratio")
    for name, (value, unit) in metrics.items():
        extra = f"  (unscaled {raw[name][0]:.6g})" if name in raw else ""
        print(f"{name:<44} {value:>16.6g} {unit}{extra}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": result["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
