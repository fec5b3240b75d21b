"""The three benchmark workloads, each generated from a seed.

A workload is a list of rounds and a round is a list of tasks.  Every round
holds the same number of modules (or problem files) of each stratum, so a run
that stops after a whole round always measures the same mix of task costs
whatever the seed; the seed only changes the coefficients.  Round r never depends on how
many rounds were generated, which keeps the recorded answers of a seed valid
for every run length.

Each task runs a closure and returns a plain JSON-able answer.  The
workload's failure rule says whether that answer misses the task's
expectation, as (reason, wrong): `wrong` marks an answer that is incorrect
(routes disagree, or a property the input was built to have is missing), as
opposed to an outcome of the wrong kind (undecided at the cap, a report where
a named IwalabError was due).  The workload functions import the package
themselves, so the tasks use the import that the set-up just timed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Corpus tasks double N while a route is indeterminate, like the acceptance
# suite, and give up past this cap.
CORPUS_PRECISION_CAP = 512


@dataclass
class Task:
    key: str
    run: Callable[[], dict]
    expect: str  # "report": a decided answer; "error": a named IwalabError
    # untimed: completes the answer from what the run left behind
    finish: Callable[[dict], dict] | None = None
    # untimed: a property the answer must have by construction of the input
    check: Callable[[dict], str | None] | None = None


def _status(r):
    return [r.status.value, r.chi_exponent, r.h0_exponent, r.h1_exponent]


def _escalating(module, compute, indeterminate):
    """compute(module) at its precision, doubling N while a route is indeterminate."""
    while True:
        results = compute(module)
        undecided = any(r.status is indeterminate for r in results)
        N = module.context.N
        if not undecided or N * 2 > CORPUS_PRECISION_CAP:
            return N, results
        module = module.with_precision(N * 2)


def _by_stratum(corpus, seed, strata, rounds):
    """Deal corpus modules into rounds: `mult` modules of each (p, d) stratum per round.

    Each stratum draws from its own seeded corpus with d_max = d and keeps the
    modules of dimension d, so round r does not depend on how many rounds
    are generated.
    """
    pools = {}
    for (p, d), mult in strata.items():
        need = mult * rounds
        mods = corpus(seed * 1000 + p * 10 + d, int(1.2 * d * need) + 10, p, d_max=d)
        pools[(p, d)] = [m for m in mods if m.d == d]
    rounds = min([rounds] + [len(v) // strata[k] for k, v in pools.items()])
    return [
        [m for k, mult in strata.items() for m in pools[k][r * mult:(r + 1) * mult]]
        for r in range(rounds)
    ]


# Module costs are heavy-tailed (the Smith kernel's fill-in depends on where
# the pivots fall), so a run must cover many distinct modules to be steady.
# Each module therefore runs one character, rotating through the set, rather
# than every character.  The multiplicities place the median and the 90th
# percentile of task times inside a class of similar tasks rather than on
# the edge between two classes, where they would jump from seed to seed.
GAMMA_STRATA = {(3, 1): 3, (3, 2): 2, (3, 3): 2, (5, 1): 1, (5, 2): 1, (5, 3): 1}
CROSSED_STRATA = {(3, 1): 2, (3, 2): 1, (5, 1): 1, (5, 2): 2}

# -- gamma-sweep ---------------------------------------------------------------


def gamma_sweep(seed: int, rounds: int, workdir: Path):
    """Seeded gamma corpora over p in {3, 5}, d <= 3: both routes at n = 0..2."""
    from iwalab.corpus import gamma_corpus
    from iwalab.results import EulerStatus
    from iwalab.series import Character

    out = []
    for r, modules in enumerate(_by_stratum(gamma_corpus, seed, GAMMA_STRATA, rounds)):
        tasks = []
        for k, module in enumerate(modules):
            p = module.context.p
            u = (1, 1 + p, 1 + 2 * p, 1 + p * p, 1 + p + p * p)[(r + k) % 5]
            for n in range(3):
                key = f"r{r}/m{k}p{p}d{module.d}/u{u}/n{n}"
                tasks.append(Task(key, _gamma_run(module, u, n, Character, EulerStatus), "report"))
        out.append(tasks)
    return out


def _gamma_run(module, u, n, Character, EulerStatus):
    def compute(m):
        rho = Character.from_int(m.context, u)
        return m.euler_direct(rho, n), m.euler_analytic(rho, n)

    def run():
        N, (rd, ra) = _escalating(module, compute, EulerStatus.INDETERMINATE)
        return {"N": N, "direct": _status(rd), "analytic": _status(ra)}

    return run


# -- crossed-triple --------------------------------------------------------------


def crossed_triple(seed: int, rounds: int, workdir: Path):
    """Seeded crossed corpora over p in {3, 5}, d <= 2: three routes per level."""
    from iwalab.corpus import admissible_levels, crossed_corpus
    from iwalab.results import EulerStatus
    from iwalab.series import Character

    out = []
    for r, modules in enumerate(_by_stratum(crossed_corpus, seed, CROSSED_STRATA, rounds)):
        tasks = []
        for k, module in enumerate(modules):
            p = module.context.p
            for j, lv in enumerate(admissible_levels(module, 2, 2, rank_cap=162)):
                u = (1, 1 + p, 1 + p * p)[(r + k + j) % 3]
                key = f"r{r}/m{k}p{p}d{module.d}/L{lv.n}.{lv.m}/u{u}"
                tasks.append(Task(key, _crossed_run(module, u, lv, Character, EulerStatus), "report"))
        out.append(tasks)
    return out


def _crossed_run(module, u, lv, Character, EulerStatus):
    def compute(m):
        rho = Character.from_int(m.context, u)
        return (
            m.euler_reduced(rho, lv),
            m.euler_akashi(rho, lv),
            m.group_ring_oracle(rho, lv),
        )

    def run():
        N, (r1, r2, r3) = _escalating(module, compute, EulerStatus.INDETERMINATE)
        return {"N": N, "reduced": _status(r1), "akashi": _status(r2), "group_ring": _status(r3)}

    return run


def _corpus_failure(task: Task, answer: dict):
    routes = [v for k, v in answer.items() if k != "N"]
    if any(r[:2] != routes[0][:2] for r in routes):
        return "routes disagree", True
    if routes[0][0] == "indeterminate-at-precision":
        return "undecided at the precision cap", False
    return None


# -- cli-escalate ----------------------------------------------------------------

_P70 = 3**70
_P150 = 3**150


def _ints(rng, k, bound):
    return [rng.randint(-bound, bound) for _ in range(k)]


def _unit(rng, p, bound=8):
    """A random integer prime to p."""
    while True:
        c = rng.randint(-bound, bound)
        if c % p:
            return c


def _matrix_xx(rng, d, bound):
    """F = X^2 I + X C1 + C0: det is monic of degree 2d, so F is always torsion."""
    return [
        [[rng.randint(-bound, bound), rng.randint(-bound, bound)] + ([1] if i == j else [])
         for j in range(d)]
        for i in range(d)
    ]


def _matrix_x(rng, d, bound):
    """F = X I + C: dense, det monic of degree d."""
    return [[[rng.randint(-bound, bound)] + ([1] if i == j else []) for j in range(d)] for i in range(d)]


def _escalating_gamma(rng, big):
    """det F = (X + c*big) * g with g(0) a unit, so chi = v_3(big) at n = 0, u = 1."""
    f11 = [_unit(rng, 3) * big, 1]
    f12 = _ints(rng, 2, 5)
    g = [_unit(rng, 3)] + _ints(rng, 2, 5)
    r = rng.randint(1, 4)
    # right-multiply the upper-triangular [[f11, f12], [0, g]] by [[1, 0], [r, 1]]
    first = [a + r * b for a, b in zip(f11, f12)]
    return [[first, f12], [[r * c for c in g], g]]


def _action_near_identity(rng, d, p):
    """A = I + pC0 + Y C1: det(A) is 1 mod (p, Y), a unit."""
    return [
        [[(1 if i == j else 0) + p * rng.randint(-2, 2), rng.randint(-3, 3)] for j in range(d)]
        for i in range(d)
    ]


def _gamma(p, F, **kw):
    return {"kind": "gamma", "p": str(p), "d": len(F), "F": [[[str(c) for c in e] for e in row] for row in F], **kw}


def _crossed(p, kappa, A, **kw):
    return {
        "kind": "crossed",
        "p": str(p),
        "d": len(A),
        "kappa": str(kappa),
        "A": [[[str(c) for c in e] for e in row] for row in A],
        **kw,
    }


def _cli_round(rng):
    """(name, command, expected outcome, stanza, answer check) for one round.

    Every command runs on gamma and on crossed stanzas.  The malformed stanzas
    include two that the parser does not refuse yet (`"n_levels": []` raises
    ValueError, `"n_max": -1` is accepted); they count as failures until it does.
    """
    kappa = rng.choice((4, 7))
    g_not_finite = [[[0] + [_unit(rng, 3)] + _ints(rng, 2, 5)]]
    a_not_finite = [[[1] + _ints(rng, 2, 4)]]
    c = _unit(rng, 3)
    a_escalate = [[[1 + c * _P70] + _ints(rng, 2, 4)]]
    return [
        ("euler-gamma-p3", "euler", "report",
         _gamma(3, _matrix_xx(rng, 2, 9), characters=["1", "4", "7"], n_levels=[0, 1, 2]), None),
        ("euler-gamma-p5", "euler", "report",
         _gamma(5, _matrix_xx(rng, 2, 9), characters=["1", "6", "26"], n_levels=[0, 1, 2]), None),
        ("euler-gamma-d8", "euler", "report",
         _gamma(3, _matrix_x(rng, 8, 4), characters=["4"], n_levels=[0, 1]), None),
        ("euler-gamma-d10", "euler", "report",
         _gamma(3, _matrix_x(rng, 10, 4), characters=["4"], n_levels=[0]), None),
        ("euler-gamma-escalate-128", "euler", "report",
         _gamma(3, _escalating_gamma(rng, _P70), characters=["1"], n_levels=[0, 1]),
         _first_task(chi="70", precision="128")),
        ("euler-gamma-escalate-256", "euler", "report",
         _gamma(3, _escalating_gamma(rng, _P150), characters=["1"], n_levels=[0, 1]),
         _first_task(chi="150", precision="256")),
        ("euler-gamma-not-finite", "euler", "report",
         _gamma(3, g_not_finite, characters=["1", "4"], n_levels=[0, 1]),
         _first_task(status="not-finite-detected")),
        ("find-twist-gamma", "find-twist", "report",
         _gamma(3, _matrix_xx(rng, 2, 9), n_max=2), None),
        ("prepare-gamma", "prepare", "report", _gamma(5, _matrix_xx(rng, 2, 9)), None),
        ("char-gamma", "char", "report", _gamma(3, _matrix_xx(rng, 2, 9)), None),
        ("akashi-gamma", "akashi", "error", _gamma(3, _matrix_xx(rng, 2, 9)), None),
        ("euler-crossed-d1", "euler", "report",
         _crossed(3, kappa, _action_near_identity(rng, 1, 3),
                  levels=[[1, 1], [1, 2], [2, 1]], characters=["1", "4"]), None),
        ("euler-crossed-d2", "euler", "report",
         _crossed(3, kappa, _action_near_identity(rng, 2, 3),
                  levels=[[1, 1], [2, 2]], characters=["4", "10"]), None),
        ("euler-crossed-not-finite", "euler", "report",
         _crossed(3, kappa, a_not_finite, levels=[[1, 1]], characters=["1", "4"]),
         _first_task(status="not-finite-detected")),
        ("euler-crossed-escalate-128", "euler", "report",
         _crossed(3, kappa, a_escalate, levels=[[0, 0], [1, 0]], characters=["1"]),
         _first_task(chi="70", precision="128")),
        ("akashi-crossed", "akashi", "report",
         _crossed(3, kappa, _action_near_identity(rng, 2, 3), levels=[[1, 1], [2, 2]]), None),
        ("find-twist-crossed", "find-twist", "report",
         _crossed(3, kappa, _action_near_identity(rng, 1, 3), levels=[[1, 1], [1, 2]]), None),
        ("prepare-crossed", "prepare", "error",
         _crossed(3, kappa, _action_near_identity(rng, 1, 3), levels=[[1, 1]]), None),
        ("char-crossed", "char", "error",
         _crossed(3, kappa, _action_near_identity(rng, 1, 3), levels=[[1, 1]]), None),
        ("malformed-empty-levels", "euler", "error",
         _gamma(3, _matrix_xx(rng, 1, 9), n_levels=[]), None),
        ("malformed-negative-n-max", "find-twist", "error",
         _gamma(3, _matrix_xx(rng, 1, 9), n_max=-1), None),
        ("malformed-unknown-key", "euler", "error",
         _gamma(3, _matrix_xx(rng, 1, 9), levels=[[1, 1]]), None),
        ("malformed-kappa", "euler", "error",
         _crossed(3, rng.choice((2, 5, 8)), _action_near_identity(rng, 1, 3), levels=[[1, 1]]), None),
        ("malformed-normality", "euler", "error",
         _crossed(3, kappa, _action_near_identity(rng, 1, 3), levels=[[0, 2]]), None),
        ("malformed-rank", "euler", "error",
         {**_gamma(3, _matrix_xx(rng, 1, 9)), "d": rng.randint(2, 4)}, None),
        ("malformed-zero-det", "euler", "error",
         _gamma(3, _rank_one(rng)), None),
        ("malformed-non-integer", "euler", "error",
         {**_gamma(3, _matrix_xx(rng, 1, 9)), "p": f"{rng.randint(3, 9)}.5"}, None),
    ]


def _rank_one(rng):
    f = [_unit(rng, 3), rng.randint(-5, 5)]
    g = [rng.randint(-5, 5), 1]
    k = rng.randint(2, 4)
    return [[f, g], [[k * c for c in f], [k * c for c in g]]]


def _first_task(**want):
    """Check fields of the first report task (the trivial character at the first level)."""

    def check(report):
        first = report["tasks"][0]
        bad = {k: first.get(f"{k}_exponent" if k == "chi" else k) for k in want}
        if any(bad[k] != v for k, v in want.items()):
            return f"first task {bad} != {want}"
        return None

    return check


def cli_escalate(seed: int, rounds: int, workdir: Path):
    """Problem files from the seed, each run through `iwalab.cli.main` in-process."""
    from iwalab import cli

    workdir.mkdir(parents=True, exist_ok=True)
    out = []
    for r in range(rounds):
        rng = random.Random(seed * 100_003 + r)
        tasks = []
        for name, cmd, expect, stanza, check in _cli_round(rng):
            path = workdir / f"r{r}-{name}.json"
            path.write_text(json.dumps(stanza), encoding="utf-8")
            report_path = workdir / f"r{r}-{name}.report.json"
            tasks.append(
                Task(
                    f"r{r}/{name}",
                    _cli_run(cli, cmd, path, report_path),
                    expect,
                    finish=lambda raw, rp=report_path: _cli_answer(raw, rp),
                    check=check,
                )
            )
        out.append(tasks)
    return out


def _cli_run(cli, cmd, path, report_path):
    argv = [cmd, "--input", str(path), "--out", str(report_path)]

    def run():
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            # looked up per call, so the traced run sees the wrapped entry point
            code = cli.main(argv)
        return {"exit": code, "stderr": err.getvalue().strip()}

    return run


def _cli_answer(raw: dict, report_path: Path) -> dict:
    """Add the sidecar report (without its timing) to a CLI task's answer."""
    if raw.get("exit") in (0, 2) and report_path.is_file():
        report = json.loads(report_path.read_text(encoding="utf-8"))
        report.pop("timing", None)
        raw = {**raw, "report": report}
    return raw


def _cli_failure(task: Task, answer: dict):
    code = answer["exit"]
    if task.expect == "error":
        return None if code == 1 else (f"expected a named IwalabError, got exit {code}", False)
    if code == 2:
        return "undecided at the precision or budget cap", False
    if code != 0:
        return f"expected a report, got exit {code}: {answer['stderr']}", False
    report = answer["report"]
    for t in report["tasks"]:
        if t.get("routes_agree") is False or t.get("reverified_ok") is False:
            return "routes disagree", True
    bad = task.check(report) if task.check else None
    return (bad, True) if bad else None


@dataclass
class Workload:
    build: Callable[[int, int, Path], list]
    rounds: Callable[[float], int]  # rounds to generate for a run of that many seconds
    # True when a task can run again with the same cost and answer: the pass
    # then cycles through the generated rounds.  Crossed modules cache per
    # level, so their rounds are never repeated.
    cycle: bool
    failure: Callable


WORKLOADS = {
    "gamma-sweep": Workload(gamma_sweep, lambda seconds: 64, True, _corpus_failure),
    "crossed-triple": Workload(crossed_triple, lambda seconds: max(8, round(12 * seconds)), False, _corpus_failure),
    # Each invocation parses its file afresh and nothing is cached between
    # invocations, so a repeated file costs what a new one would.
    "cli-escalate": Workload(cli_escalate, lambda seconds: 32, True, _cli_failure),
}
