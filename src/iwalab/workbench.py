"""Command dispatch, precision-escalation orchestration and report assembly.

The command table `COMMANDS` gives each command its handler and the stanza it
needs; the CLI reads its commands from it.  Both stanza kinds run one command
path.  The route table `_ROUTES` gives each
kind its primary route, its cross-check route and the report-key prefix of
the cross-check (gamma: euler_direct / euler_analytic / "analytic"; crossed:
euler_reduced / euler_akashi / "akashi"), and `_level` writes a level n or
(n, m) into a report and an escalation tag.

Reports are deterministic: identical inputs and tool version produce identical
result blocks (fixed enumeration and basis orders); only the timing field may
differ between runs.  Indeterminate verdicts escalate the working precision by
doubling, up to the configured cap; a command builds the module at each
precision it reaches once, whatever the number of its tasks.
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

# stanza kind -> (primary route, cross-check route, report-key prefix of the
# cross-check); `euler` reports the primary verdict against the cross-check and
# `find-twist` re-verifies its certificate on the primary route
_ROUTES = {
    "gamma": ("euler_direct", "euler_analytic", "analytic"),
    "crossed": ("euler_reduced", "euler_akashi", "akashi"),
}


def _s(x):
    return None if x is None else str(x)


def _level(lv):
    """Report value and escalation tag of a gamma level n or a crossed level (n, m)."""
    if isinstance(lv, int):
        return str(lv), f"n={lv}"
    n, m = lv
    return [str(n), str(m)], f"level=({n},{m})"


def _escalating(problem, modules, max_precision, escalations, task_id, compute):
    """Run compute(module at N), doubling N while any returned status is indeterminate.

    `modules` maps each precision to the module built there; one command
    shares it among all its tasks, so each precision is built once.
    """
    N = problem.precision
    while True:
        if N not in modules:
            modules[N] = problem.build_module(N)
        results = compute(modules[N])
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

    if command not in COMMANDS:
        raise ValidationError("command", f"unknown command {command!r}")
    handler, stanza = COMMANDS[command]
    if stanza is not None and problem is None:
        raise ValidationError("command-stanza", f"{command} needs an --input problem file")
    if stanza not in (None, "any") and problem.kind != stanza:
        raise ValidationError(
            "command-stanza", f"{command} needs a {stanza!r} stanza, got {problem.kind!r}"
        )
    code = handler(problem, report, max_precision)
    report["timing"] = {"seconds": round(time.perf_counter() - t0, 6)}
    return report, code


def _cmd_prepare(problem, report, max_precision):
    w = problem.module.weierstrass
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
    primary, cross, prefix = _ROUTES[problem.kind]
    modules = {problem.precision: problem.module}
    undecided = 0
    for u in problem.characters:
        rho = Character.from_int(problem.module.context, u)
        for lv in problem.levels:
            level, tag = _level(lv)

            def compute(m, rho=rho, lv=lv):
                return getattr(m, primary)(rho, lv), getattr(m, cross)(rho, lv)

            N, (rp, rc) = _escalating(
                problem, modules, max_precision, report["escalations"], f"u={u},{tag}", compute
            )
            report["tasks"].append(
                {
                    "u": str(u),
                    "level": level,
                    "status": rp.status.value,
                    "chi_exponent": _s(rp.chi_exponent),
                    "h0_exponent": _s(rp.h0_exponent),
                    "h1_exponent": _s(rp.h1_exponent),
                    f"{prefix}_status": rc.status.value,
                    f"{prefix}_exponent": _s(rc.chi_exponent),
                    "routes_agree": rp.status is rc.status and rp.chi_exponent == rc.chi_exponent,
                    "precision": str(N),
                }
            )
            if rp.status not in _DECIDED or rc.status not in _DECIDED:
                undecided += 1
    return 2 if undecided else 0


def _cmd_akashi(problem, report, max_precision):
    for lv in problem.levels:
        ak = problem.module.akashi_series(lv)
        report["tasks"].append(
            {
                "level": _level(lv)[0],
                "degree": str(ak.exact_degree),
                "coefficients": [str(c) for c in ak.coeffs],
            }
        )
    return 0


def _outcome_dicts(outcomes):
    return [
        {
            "level": _level(oc.level)[0],
            "status": oc.status.value,
            "chi_exponent": _s(oc.chi_exponent),
            "cross_exponent": _s(oc.cross_exponent),
        }
        for oc in outcomes
    ]


def _cmd_find_twist(problem, report, max_precision):
    try:
        if problem.kind == "gamma":
            rho, search = find_twist(problem.module, problem.n_max, budget=problem.budget)
        else:
            rho, search = find_twist_crossed(problem.module, problem.levels, budget=problem.budget)
    except BudgetExhaustedError as exc:
        search = exc.report
    accepted = search.accepted_u

    task = {
        "accepted_u": _s(accepted),
        "budget": str(problem.budget),
        "candidates": [
            {"u": str(c.u), "accepted": c.accepted, "outcomes": _outcome_dicts(c.outcomes)}
            for c in search.candidates
        ],
    }
    if problem.n_max is not None:
        task["n_max"] = str(problem.n_max)

    n2 = problem.precision * 2
    if accepted is not None and n2 <= max_precision:
        # the accepted certificate again, on the primary route at twice the precision
        route = getattr(problem.build_module(n2), _ROUTES[problem.kind][0])
        ok = True
        for oc in search.candidates[-1].outcomes:
            r = route(rho, oc.level)
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

    def routes(mod, u, lv):
        """The three crossed routes' results for character u at level lv."""
        rho = Character.from_int(mod.context, u)
        triple = (mod.euler_reduced, mod.euler_akashi, mod.group_ring_oracle)
        return [route(rho, lv) for route in triple]

    gold = CrossedModule.from_int_data(PadicContext(3, 64), 4, [[[1]]])
    exps = tuple(r.chi_exponent for r in routes(gold, 4, Level(1, 1)))
    check("golden-3^6", exps == (6, 6, 6), f"exponents {exps}")
    stats = [r.status for r in routes(gold, 1, Level(1, 1))]
    check(
        "golden-trivial-not-finite",
        all(s is EulerStatus.NOT_FINITE for s in stats),
        ",".join(s.value for s in stats),
    )

    for p, count, seed in ((3, 6, 101), (5, 2, 102)):
        for idx, mod in enumerate(crossed_corpus(seed, count, p)):
            # the routes agree when all three give one (status, chi) pair
            detail = ""
            for lv in admissible_levels(mod, n_max=1, m_max=1):
                for uv in (1, 1 + p):
                    rs = routes(mod, uv, lv)
                    if len({(r.status, r.chi_exponent) for r in rs}) > 1:
                        detail = f"level ({lv.n},{lv.m}) u={uv}: " + " ".join(
                            f"{r.status.value}/{r.chi_exponent}" for r in rs
                        )
            check(f"triple-agreement-p{p}-module{idx}", not detail, detail)

    report["tasks"] = checks
    return 0 if all(c["pass"] for c in checks) else 1


# command -> (handler, the stanza it needs: "gamma", "crossed", "any" for either
# kind, or None for no problem file); `run` checks the stanza before the
# handler runs, and the CLI offers these commands in this order
COMMANDS = {
    "prepare": (_cmd_prepare, "gamma"),
    "char": (_cmd_char, "gamma"),
    "euler": (_cmd_euler, "any"),
    "akashi": (_cmd_akashi, "crossed"),
    "find-twist": (_cmd_find_twist, "any"),
    "selftest": (_cmd_selftest, None),
}


def digest_text(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()
