"""Batch verification: sweep a parameter grid, run the search oracle on
every row, compare with the closed-form bound, and check the maximizer
classes against the expected equality families."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from ..bounds import Params
from ..errors import InfeasibleInstanceError, ParamRangeError, TimeBudgetExceededError
from ..family import are_isomorphic
from . import THEOREMS
from .expected import expected_classes
from .problems import Problem, SearchReport, bound_for, solve

__all__ = ["THEOREMS", "parse_grid", "verify_grid", "VerifyRow", "VerifyResult"]


_TERM = re.compile(r"([+-]?)\s*(\d+)?\s*([a-z]?)\s*", re.ASCII)


def _eval_expr(expr: str, env: dict[str, int]) -> int:
    """Affine integer expressions over previously bound grid variables:
    e.g. '2k+t+2'.  A bare coefficient next to a variable multiplies it;
    every later term needs its own sign, so 'k2' or '2 3' is an error."""
    pos = 0
    total = 0
    expr = expr.strip()
    if not expr:
        raise ParamRangeError("empty expression in grid spec")
    while pos < len(expr):
        m = _TERM.match(expr, pos)
        if not m or m.end() == pos or (pos and not m.group(1)):
            raise ParamRangeError(f"bad grid expression {expr!r}")
        sign = -1 if m.group(1) == "-" else 1
        coef = int(m.group(2)) if m.group(2) else 1
        var = m.group(3)
        if var:
            if var not in env:
                raise ParamRangeError(f"unknown variable {var!r} in grid expression {expr!r}")
            total += sign * coef * env[var]
        elif m.group(2):
            total += sign * coef
        else:
            raise ParamRangeError(f"bad grid expression {expr!r}")
        pos = m.end()
    return total


def parse_grid(spec: str) -> list[dict[str, int]]:
    """Expand a grid spec like 'k=2;t=0,1;n=2k+t..2k+t+2' into assignments.
    Clauses are evaluated left to right; ranges and values may reference
    variables bound by earlier clauses.  Each variable is bound once, and a
    grid must give at least one row."""
    clauses = []
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ParamRangeError(f"grid clause {part!r} is not of the form var=...")
        name, rhs = part.split("=", 1)
        name = name.strip()
        if len(name) != 1 or not name.isalpha():
            raise ParamRangeError(f"grid variable must be a single letter: {name!r}")
        if any(name == bound for bound, _ in clauses):
            raise ParamRangeError(f"grid variable {name!r} is bound twice")
        clauses.append((name, rhs.strip()))
    rows: list[dict[str, int]] = [{}]
    for name, rhs in clauses:
        new_rows = []
        for env in rows:
            if ".." in rhs:
                lo_s, hi_s = rhs.split("..", 1)
                lo = _eval_expr(lo_s, env)
                hi = _eval_expr(hi_s, env)
                values = list(range(lo, hi + 1))
            else:
                values = [_eval_expr(v, env) for v in rhs.split(",")]
            for v in values:
                e2 = dict(env)
                e2[name] = v
                new_rows.append(e2)
        rows = new_rows
    if not rows:
        raise ParamRangeError(f"grid {spec!r} has no rows")
    return rows


@dataclass(frozen=True)
class VerifyRow:
    params: Params
    skipped: Optional[str]  # out-of-range reason, or None
    report: Optional[SearchReport]
    bound_ok: Optional[bool]
    classes_ok: Optional[bool]  # None when no characterization is asserted
    timeout: Optional[TimeBudgetExceededError] = None  # the search ran out of time
    infeasible: Optional[InfeasibleInstanceError] = None  # an instance limit stopped it


@dataclass(frozen=True)
class VerifyResult:
    theorem: str
    rows: list[VerifyRow]

    @property
    def ok(self) -> bool:
        for row in self.rows:
            if row.skipped:
                continue
            if row.report is None or row.bound_ok is False or row.classes_ok is False:
                return False
        return True


def _classes_match(found: list, expected: list) -> bool:
    if len(found) != len(expected):
        return False
    taken = [False] * len(expected)
    for rep in found:
        fam = rep[0] if isinstance(rep, tuple) else rep
        for i, exp in enumerate(expected):
            if taken[i]:
                continue
            exp_fam = exp[0] if isinstance(exp, tuple) else exp
            if len(fam) == len(exp_fam) and are_isomorphic(fam, exp_fam):
                taken[i] = True
                break
        else:
            return False
    return all(taken)


def _run_row(theorem: str, env: dict[str, int], engine: str, max_seconds) -> VerifyRow:
    kind, variables, fixed, mode = THEOREMS[theorem]
    values = dict(fixed)
    for v in variables:
        if v not in env:
            raise ParamRangeError(f"theorem {theorem} needs grid variable {v!r}")
        values[v] = env[v]
    params = Params(**values)
    try:
        bound_for(kind, params)
    except ParamRangeError as exc:
        return VerifyRow(params, str(exc), None, None, None)
    try:
        report = solve(Problem(kind, params, engine), max_seconds=max_seconds)
        # the class check has instance limits of its own (the isomorphism search)
        expected = expected_classes(kind, params) if mode == "equality" else None
        classes_ok = None
        if expected is not None:
            classes_ok = _classes_match(report.class_representatives, expected)
    except TimeBudgetExceededError as exc:
        return VerifyRow(params, None, None, None, None, timeout=exc.with_traceback(None))
    except InfeasibleInstanceError as exc:
        return VerifyRow(params, None, None, None, None, infeasible=exc.with_traceback(None))
    if mode == "equality":
        bound_ok = report.optimum == report.bound.value
    else:
        bound_ok = report.optimum <= report.bound.value
    return VerifyRow(params, None, report, bound_ok, classes_ok)


def verify_grid(
    theorem: str,
    grid: str,
    engine: str = "auto",
    threads: int = 1,
    max_seconds: float | None = None,
) -> VerifyResult:
    if theorem not in THEOREMS:
        raise ParamRangeError(f"unknown theorem id {theorem!r} (known: {', '.join(THEOREMS)})")
    envs = parse_grid(grid)
    if threads <= 1:
        rows = [_run_row(theorem, env, engine, max_seconds) for env in envs]
    else:
        from concurrent.futures import ThreadPoolExecutor  # loaded only for a thread pool

        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(lambda e: _run_row(theorem, e, engine, max_seconds), envs))
    return VerifyResult(theorem, rows)
