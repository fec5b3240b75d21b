"""Record the answers of the first rounds of each workload for a range of seeds.

    python3 perfbench/record_answers.py --seeds 0-20 [--workload gamma-sweep]

For each (workload, seed) it runs the first ANSWER_ROUNDS rounds untimed and
stores one digest of the task answers per round in `answers.json`, with the
keys of the tasks that failed.  `run.py` compares its rounds against these
digests; a failed task is left out of the digest so that fixing it is not
reported as a changed answer.  Re-record only when an answer is meant to
change, and say why in the change that does it.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run

ANSWER_ROUNDS = 8


def record(workload, seed):
    _raw, _scaled, inputs = run.setup(workload, seed, ANSWER_ROUNDS, "record")
    records = run.run_pass(workload, inputs, limit=ANSWER_ROUNDS).records
    run.judge(workload, records)
    failed = sorted(rec["task"].key for rec in records if rec["failure"])
    wrong = [rec["task"].key for rec in records if rec["wrong"]]
    if wrong:
        raise SystemExit(f"{workload} seed {seed}: wrong answers, not recording: {wrong}")
    digests = [run.round_digest(rnd, set(failed)) for rnd in run.by_round(records)]
    return {"digests": digests, "failed": failed}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    ap.add_argument("--seeds", required=True, help="first-last, inclusive")
    ap.add_argument("--workload", choices=sorted(run.WORKLOADS))
    args = ap.parse_args(argv)
    lo, hi = (int(x) for x in args.seeds.split("-"))
    sys.path.insert(0, str(run.ROOT / "src"))
    run.OUT.mkdir(exist_ok=True)
    answers = run.load_answers()
    workloads = [args.workload] if args.workload else sorted(run.WORKLOADS)
    try:
        for workload in workloads:
            for seed in range(lo, hi + 1):
                answers.setdefault(workload, {})[str(seed)] = record(workload, seed)
                print(f"{workload} seed {seed}: recorded", flush=True)
    finally:
        for work in run.OUT.glob("work-*-record*"):
            shutil.rmtree(work, ignore_errors=True)
        run.ANSWERS.write_text(json.dumps(answers, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
