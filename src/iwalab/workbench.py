"""Command dispatch, precision-escalation orchestration and report assembly.

Reports are deterministic: identical inputs and tool version produce identical
result blocks (fixed enumeration and basis orders); only the timing field may
differ between runs.  Indeterminate verdicts escalate the working precision by
doubling, up to the configured cap.
"""

from __future__ import annotations

import hashlib
import time

from . import __version__
from .corpus import admissible_levels, crossed_corpus
from .crossed import PRECISION_CAP, CrossedModule, Level, find_twist_crossed
from .errors import BudgetExhaustedError, ValidationError
from .gamma import find_twist
from .padic import PadicContext
from .problems import ProblemFile
from .results import EulerStatus
from .series import Character

_DECIDED = (EulerStatus.EXISTS, EulerStatus.NOT_FINITE)


def _s(x):
    return None if x is None else str(x)


class _ModuleCache:
    """Rebuilds the problem's module lazily per precision level."""

    def __init__(self, problem: ProblemFile):
        self.problem = problem
        self._modules = {problem.precision: problem.module}

    def at(self, N: int):
        if N not in self._modules:
            self._modules[N] = self.problem.build_module(N)
        return self._modules[N]


def _escalating(problem, max_precision, escalations, task_id, compute):
    """Run compute(N) doubling N while any returned status is indeterminate."""
    N = problem.precision
    while True:
        results = compute(N)
        undecided = any(r.status is EulerStatus.INDETERMINATE for r in results)
        if not undecided or N * 2 > max_precision:
            return N, results
        escalations.append({"task": task_id, "from": str(N), "to": str(N * 2)})
        N *= 2


def run(problem: ProblemFile | None, command: str, *, max_precision: int = PRECISION_CAP,
        input_digest: str = ""):
    """Execute one command; returns (report dict, exit code)."""
    t0 = time.perf_counter()
    report = {
        "tool": "iwalab",
        "version": __version__,
        "command": command,
        "input_digest": input_digest,
        "tasks": [],
        "escalations": [],
    }
    if problem is not None:
        report["context"] = {
            "p": str(problem.p),
            "precision": str(problem.precision),
            "truncation": str(problem.truncation),
        }
        report["kind"] = problem.kind

    handlers = {
        "prepare": _cmd_prepare,
        "char": _cmd_char,
        "euler": _cmd_euler,
        "akashi": _cmd_akashi,
        "find-twist": _cmd_find_twist,
        "selftest": _cmd_selftest,
    }
    if command not in handlers:
        raise ValidationError("command", f"unknown command {command!r}")
    code = handlers[command](problem, report, max_precision)
    report["timing"] = {"seconds": round(time.perf_counter() - t0, 6)}
    return report, code


def _require(problem, kind, command):
    if problem is None:
        raise ValidationError("command-stanza", f"{command} needs an --input problem file")
    if problem.kind != kind:
        raise ValidationError(
            "command-stanza", f"{command} needs a {kind!r} stanza, got {problem.kind!r}"
        )


def _cmd_prepare(problem, report, max_precision):
    _require(problem, "gamma", "prepare")
    w = problem.module._wdata
    report["tasks"].append(
        {
            "lambda": str(w.lam),
            "mu": str(w.mu),
            "distinguished": [str(c) for c in w.distinguished.coeffs],
            "unit": [str(c) for c in w.unit.coeffs],
            "unit_precision": str(w.distinguished.context.N),
        }
    )
    return 0


def _cmd_char(problem, report, max_precision):
    _require(problem, "gamma", "char")
    c = problem.module.characteristic_element()
    lam, mu = problem.module.char_invariants()
    report["tasks"].append(
        {
            "lambda": str(lam),
            "mu": str(mu),
            "coefficients": [str(x) for x in c.coeffs],
        }
    )
    return 0


def _cmd_euler(problem, report, max_precision):
    if problem is None or problem.kind not in ("gamma", "crossed"):
        raise ValidationError("command-stanza", "euler needs a gamma or crossed stanza")
    cache = _ModuleCache(problem)
    undecided = 0
    if problem.kind == "gamma":
        for u in problem.characters:
            for n in problem.gamma_levels:
                def compute(N, u=u, n=n):
                    m = cache.at(N)
                    rho = Character.from_int(m.context, u)
                    return m.euler_direct(rho, n), m.euler_analytic(rho, n)

                N, (rd, ra) = _escalating(
                    problem, max_precision, report["escalations"], f"u={u},n={n}", compute
                )
                agree = rd.status is ra.status and rd.chi_exponent == ra.chi_exponent
                report["tasks"].append(
                    {
                        "u": str(u),
                        "level": str(n),
                        "status": rd.status.value,
                        "chi_exponent": _s(rd.chi_exponent),
                        "h0_exponent": _s(rd.h0_exponent),
                        "h1_exponent": _s(rd.h1_exponent),
                        "analytic_status": ra.status.value,
                        "analytic_exponent": _s(ra.chi_exponent),
                        "routes_agree": agree,
                        "precision": str(N),
                    }
                )
                if rd.status not in _DECIDED or ra.status not in _DECIDED:
                    undecided += 1
        return 2 if undecided else 0

    levels = problem.crossed_levels or []
    if not levels:
        raise ValidationError("command-stanza", "euler on a crossed stanza needs 'levels'")
    for u in problem.characters:
        for lv in levels:
            def compute(N, u=u, lv=lv):
                m = cache.at(N)
                rho = Character.from_int(m.context, u)
                return m.euler_reduced(rho, lv), m.euler_akashi(rho, lv)

            N, (rr, ra) = _escalating(
                problem,
                max_precision,
                report["escalations"],
                f"u={u},level=({lv.n},{lv.m})",
                compute,
            )
            agree = rr.status is ra.status and rr.chi_exponent == ra.chi_exponent
            report["tasks"].append(
                {
                    "u": str(u),
                    "level": [str(lv.n), str(lv.m)],
                    "status": rr.status.value,
                    "chi_exponent": _s(rr.chi_exponent),
                    "h0_exponent": _s(rr.h0_exponent),
                    "h1_exponent": _s(rr.h1_exponent),
                    "akashi_status": ra.status.value,
                    "akashi_exponent": _s(ra.chi_exponent),
                    "routes_agree": agree,
                    "precision": str(N),
                }
            )
            if rr.status not in _DECIDED or ra.status not in _DECIDED:
                undecided += 1
    return 2 if undecided else 0


def _cmd_akashi(problem, report, max_precision):
    _require(problem, "crossed", "akashi")
    levels = problem.crossed_levels or []
    if not levels:
        raise ValidationError("command-stanza", "akashi needs 'levels'")
    for lv in levels:
        ak = problem.module.akashi_series(lv)
        report["tasks"].append(
            {
                "level": [str(lv.n), str(lv.m)],
                "degree": str(ak.exact_degree),
                "coefficients": [str(c) for c in ak.coeffs],
            }
        )
    return 0


def _outcome_dicts(outcomes):
    out = []
    for oc in outcomes:
        lv = oc.level
        out.append(
            {
                "level": [str(lv[0]), str(lv[1])] if isinstance(lv, tuple) else str(lv),
                "status": oc.status.value,
                "chi_exponent": _s(oc.chi_exponent),
                "cross_exponent": _s(oc.cross_exponent),
            }
        )
    return out


def _cmd_find_twist(problem, report, max_precision):
    if problem is None or problem.kind not in ("gamma", "crossed"):
        raise ValidationError("command-stanza", "find-twist needs a gamma or crossed stanza")
    try:
        if problem.kind == "gamma":
            rho, search = find_twist(problem.module, problem.n_max, budget=problem.budget)
        else:
            levels = problem.crossed_levels or []
            if not levels:
                raise ValidationError("command-stanza", "find-twist on crossed needs 'levels'")
            rho, search = find_twist_crossed(problem.module, levels, budget=problem.budget)
        accepted = search.accepted_u
    except BudgetExhaustedError as exc:
        search = exc.report
        accepted = None

    task = {
        "accepted_u": _s(accepted),
        "budget": str(problem.budget),
        "candidates": [
            {"u": str(c.u), "accepted": c.accepted, "outcomes": _outcome_dicts(c.outcomes)}
            for c in search.candidates
        ],
    }
    if problem.kind == "gamma":
        task["n_max"] = str(problem.n_max)

    if accepted is not None:
        n2 = problem.precision * 2
        if n2 <= max_precision:
            module2 = problem.build_module(n2)
            rho2 = Character.from_int(module2.context, accepted)
            ok = True
            if problem.kind == "gamma":
                for oc in search.candidates[-1].outcomes:
                    r = module2.euler_direct(rho2, oc.level)
                    ok = ok and r.exists and r.chi_exponent == oc.chi_exponent
            else:
                for oc in search.candidates[-1].outcomes:
                    r = module2.euler_reduced(rho2, Level(*oc.level))
                    ok = ok and r.exists and r.chi_exponent == oc.chi_exponent
            task["reverified_at"] = str(n2)
            task["reverified_ok"] = ok
    report["tasks"].append(task)
    return 0 if accepted is not None else 2


def _cmd_selftest(problem, report, max_precision):
    """Triple-agreement corpus run end to end, plus the checked-in golden case."""
    checks = []

    def check(name, ok, detail=""):
        checks.append({"name": name, "pass": bool(ok), "detail": detail})

    ctx = PadicContext(3, 64)
    gold = CrossedModule.from_int_data(ctx, 4, [[[1]]])
    u4 = Character.from_int(ctx, 4)
    triv = Character.trivial(ctx)
    lvl = Level(1, 1)
    exps = (
        gold.euler_reduced(u4, lvl).chi_exponent,
        gold.euler_akashi(u4, lvl).chi_exponent,
        gold.group_ring_oracle(u4, lvl).chi_exponent,
    )
    check("golden-3^6", exps == (6, 6, 6), f"exponents {exps}")
    stats = (
        gold.euler_reduced(triv, lvl).status,
        gold.euler_akashi(triv, lvl).status,
        gold.group_ring_oracle(triv, lvl).status,
    )
    check(
        "golden-trivial-not-finite",
        all(s is EulerStatus.NOT_FINITE for s in stats),
        ",".join(s.value for s in stats),
    )

    for p, count, seed in ((3, 6, 101), (5, 2, 102)):
        modules = crossed_corpus(seed, count, p)
        for idx, mod in enumerate(modules):
            levels = admissible_levels(mod, n_max=1, m_max=1)
            us = [1, 1 + p]
            ok = True
            detail = ""
            for lv in levels:
                for uv in us:
                    rho = Character.from_int(mod.context, uv)
                    r1 = mod.euler_reduced(rho, lv)
                    r2 = mod.euler_akashi(rho, lv)
                    r3 = mod.group_ring_oracle(rho, lv)
                    same = (
                        r1.status is r2.status is r3.status
                        and r1.chi_exponent == r2.chi_exponent == r3.chi_exponent
                    )
                    if not same:
                        ok = False
                        detail = (
                            f"level ({lv.n},{lv.m}) u={uv}: "
                            f"{r1.status.value}/{r1.chi_exponent} "
                            f"{r2.status.value}/{r2.chi_exponent} "
                            f"{r3.status.value}/{r3.chi_exponent}"
                        )
            check(f"triple-agreement-p{p}-module{idx}", ok, detail)

    report["tasks"] = checks
    return 0 if all(c["pass"] for c in checks) else 1


def digest_text(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()
