"""Problem-file ingestion: strict JSON stanzas for gamma and crossed modules.

A problem file is the module stanza itself plus optional orchestration keys.
All integers may be decimal strings (arbitrary precision survives the text
format) or plain JSON ints; unknown keys are rejected so result provenance is
unambiguous.  Module invariants (torsion, unit determinant, level normality,
character image) are checked here, before any computation, and so is the
size of the request: the working precision may not exceed PRECISION_CAP, the
dense matrix rank of any requested level RANK_CAP, the length of a series
entry LENGTH_CAP, nor the twist-search budget BUDGET_CAP.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

from .crossed import BUDGET_CAP, LENGTH_CAP, PRECISION_CAP, RANK_CAP, CrossedModule, Level
from .errors import ParseError, SizeCapExceededError, ValidationError
from .gamma import GammaModule
from .padic import PadicContext
from .results import DEFAULT_BUDGET
from .series import Character

_COMMON_KEYS = {"schema", "kind", "p", "d", "precision", "truncation", "characters", "budget"}
_GAMMA_KEYS = _COMMON_KEYS | {"F", "n_levels", "n_max"}
_CROSSED_KEYS = _COMMON_KEYS | {"kappa", "A", "levels"}

DEFAULT_PRECISION = 64
# the `truncation` key is parsed and echoed into every report; no computation reads it
DEFAULT_TRUNCATION = 128


def _as_int(value, what: str) -> int:
    if isinstance(value, bool):
        raise ParseError(f"{what}: expected an integer, got a boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        s = value.strip().replace("−", "-")
        try:
            return int(s)
        except ValueError:
            digits = s.lstrip("+-")
            if digits.isdecimal() and len(digits) > sys.get_int_max_str_digits():
                raise ParseError(f"{what}: {_over_the_digit_limit()}") from None
            raise ParseError(f"{what}: {value!r} is not a decimal integer") from None
    raise ParseError(f"{what}: expected an integer or decimal string, got {type(value).__name__}")


def _over_the_digit_limit() -> str:
    return f"an integer is over the {sys.get_int_max_str_digits()}-digit limit"


def _as_int_list(value, what: str):
    if not isinstance(value, list):
        raise ParseError(f"{what}: expected a list")
    return [_as_int(v, what) for v in value]


def _as_matrix(value, d: int, what: str):
    if not isinstance(value, list) or len(value) != d:
        raise ParseError(f"{what}: expected {d} rows")
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != d:
            raise ParseError(f"{what}: row {i} must have {d} series entries")
        for j, e in enumerate(row):
            if isinstance(e, list) and len(e) > LENGTH_CAP:
                raise SizeCapExceededError(
                    f"{what}[{i}][{j}]: {len(e)} coefficients exceed the cap {LENGTH_CAP}"
                )
        rows.append([_as_int_list(e, f"{what}[{i}][{j}]") for j, e in enumerate(row)])
    return rows


def _check_rank(d: int, p: int, e: int, what: str):
    """Refuse a level whose matrix rank d*p^e exceeds RANK_CAP, without forming p^e past it."""
    rank = d
    for _ in range(e):
        if rank > RANK_CAP:
            break
        rank *= p
    if rank > RANK_CAP:
        raise SizeCapExceededError(f"{what}: rank {d}*{p}^{e} exceeds the cap {RANK_CAP}")


@dataclass
class ProblemFile:
    """Validated problem: the module built at `precision` plus the orchestration keys.

    `levels` is nonempty: the gamma `n_levels` (ints) or the crossed `levels`
    (`Level`s); `n_max` is the gamma twist search's top level, None for crossed.
    """

    kind: str
    p: int
    precision: int
    truncation: int
    budget: int
    characters: list
    module: object
    levels: list
    n_max: int | None = None

    def build_module(self, N: int):
        """Re-embed the exact input data at precision N (for escalation)."""
        return self.module.with_precision(N)


def parse_problem(text: str, overrides: dict | None = None) -> ProblemFile:
    """Parse and validate a problem file; `overrides` replace its keys before any check."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from None
    except ValueError:  # an integer literal past Python's int-conversion limit
        raise ParseError(_over_the_digit_limit()) from None
    if not isinstance(data, dict):
        raise ParseError("the problem file must be a JSON object")
    if overrides:
        data = {**data, **overrides}

    kind = data.get("kind")
    if kind not in ("gamma", "crossed"):
        raise ParseError(f"kind must be 'gamma' or 'crossed', got {kind!r}")
    allowed = _GAMMA_KEYS if kind == "gamma" else _CROSSED_KEYS
    unknown = set(data) - allowed
    if unknown:
        raise ParseError(f"unknown keys: {sorted(unknown)}")

    schema = _as_int(data.get("schema", 1), "schema")
    if schema != 1:
        raise ParseError(f"unsupported schema version {schema}")
    if "p" not in data:
        raise ParseError("missing key 'p'")
    if "d" not in data:
        raise ParseError("missing key 'd'")
    p = _as_int(data["p"], "p")
    d = _as_int(data["d"], "d")
    if d < 1:
        raise ValidationError("rank-positive", f"d must be >= 1, got {d}")
    _check_rank(d, p, 0, "d")
    precision = _as_int(data.get("precision", DEFAULT_PRECISION), "precision")
    if precision > PRECISION_CAP:
        raise SizeCapExceededError(f"precision {precision} exceeds the cap {PRECISION_CAP}")
    truncation = _as_int(data.get("truncation", DEFAULT_TRUNCATION), "truncation")
    budget = _as_int(data.get("budget", DEFAULT_BUDGET), "budget")
    if budget < 1:
        raise ValidationError("budget-positive", f"budget must be >= 1, got {budget}")
    if budget > BUDGET_CAP:
        raise SizeCapExceededError(f"budget {budget} exceeds the cap {BUDGET_CAP}")
    characters = _as_int_list(data.get("characters", [1]), "characters")
    if not characters:
        raise ValidationError("characters-nonempty", "characters must name at least one character")

    ctx = PadicContext(p, precision)
    for u in characters:
        Character.from_int(ctx, u)

    if kind == "gamma":
        if "F" not in data:
            raise ParseError("missing key 'F'")
        entries = _as_matrix(data["F"], d, "F")
        module = GammaModule.from_int_matrix(ctx, entries)
        levels = _as_int_list(data.get("n_levels", [0, 1]), "n_levels")
        if not levels:
            raise ValidationError("levels-nonempty", "n_levels must name at least one level")
        for n in levels:
            if n < 0:
                raise ValidationError("level", "levels must be >= 0")
        n_max = _as_int(data["n_max"], "n_max") if "n_max" in data else max(levels)
        if n_max < 0:
            raise ValidationError("level", f"n_max must be >= 0, got {n_max}")
        for n in levels + [n_max]:
            _check_rank(d, p, n, f"level {n}")
    else:
        if "kappa" not in data:
            raise ParseError("missing key 'kappa'")
        if "A" not in data:
            raise ParseError("missing key 'A'")
        kappa = _as_int(data["kappa"], "kappa")
        entries = _as_matrix(data["A"], d, "A")
        module = CrossedModule.from_int_data(ctx, kappa, entries)
        raw_levels = data.get("levels", [])
        if not isinstance(raw_levels, list):
            raise ParseError("levels: expected a list of [n, m] pairs")
        if not raw_levels:
            raise ValidationError("levels-nonempty", "levels must name at least one [n, m] level")
        levels = []
        for lv in raw_levels:
            if not isinstance(lv, list) or len(lv) != 2:
                raise ParseError("levels: each level is a pair [n, m]")
            level = module.check_level(Level(_as_int(lv[0], "level"), _as_int(lv[1], "level")))
            _check_rank(d, p, level.index_exponent, f"level ({level.n},{level.m})")
            levels.append(level)
        n_max = None
    return ProblemFile(
        kind=kind,
        p=p,
        precision=precision,
        truncation=truncation,
        budget=budget,
        characters=characters,
        module=module,
        levels=levels,
        n_max=n_max,
    )
