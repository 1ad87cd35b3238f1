"""Command-line surface.

Subcommands: bound, construct, check, search, verify.  Exit codes:
0 success / verified, 1 verification mismatch, 2 usage or format error,
3 infeasible instance, 4 time budget exceeded.  ``--json`` switches every
subcommand to machine-readable output; numeric results are emitted as
decimal strings.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import import_module

from .bounds import (
    Params,
    bound_classic,
    bound_diversity,
    bound_hemibundled,
    bound_pairs,
    bound_union,
    binomial,
)
from .constructions import TAGS, ConstructionId, construct, expected_size, is_pair_tag
from .errors import (
    FamilyFormatError,
    InfeasibleInstanceError,
    ParamRangeError,
    SetfamError,
    TimeBudgetExceededError,
)
from .family import (
    are_cross_intersecting,
    degree_profile,
    is_s_union,
    is_t_intersecting,
    read_family,
    write_family,
)
from .search import ENGINES, KINDS, THEOREMS
from .shifting import is_shifted

# Loaded with their search layers on first access (PEP 562), so that bound,
# construct and check never import them.
_LAZY = {"solve": ".search.problems", "verify_grid": ".search.verify"}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(_LAZY[name], __package__), name)
    globals()[name] = value
    return value


def _layer(name: str):
    """This module's attribute ``name`` as it stands: what a test or a
    tracer set there is what runs."""
    return getattr(sys.modules[__name__], name)


# Each bound name maps to the bounds function that evaluates it.
_BOUNDS = {
    **dict.fromkeys(("ekr", "hm", "ft", "ft_nontrivial"), bound_classic),
    **dict.fromkeys(("f16", "w23", "main1"), bound_hemibundled),
    **dict.fromkeys(("f24_i", "f24_ii", "main3_i", "main3_ii"), bound_pairs),
    **dict.fromkeys(("katona_even", "katona_odd", "main5_even", "main5_odd"), bound_union),
    "diversity": bound_diversity,
    "binomial": binomial,
}


def _add_param_flags(ap: argparse.ArgumentParser) -> None:
    for flag in ("n", "k", "l", "t", "r", "s", "d"):
        ap.add_argument(f"--{flag}", type=int, default=None)


def _params_from(args) -> Params:
    return Params(
        n=args.n, k=args.k, l=getattr(args, "l", None), t=args.t,
        r=args.r, s=args.s, d=args.d,
    )


def _params_dict(p: Params) -> dict:
    return {name: getattr(p, name) for name in ("n", "k", "l", "t", "r", "s", "d")
            if getattr(p, name) is not None}


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _cmd_bound(args) -> int:
    p = _params_from(args)
    if args.which.startswith(("katona", "main5")) and p.s is not None:
        odd = args.which.endswith("odd")
        if p.s % 2 != (1 if odd else 0):
            raise ParamRangeError(f"{args.which} needs s of matching parity (got s={p.s})")
        if p.d not in (None, p.s // 2):
            raise ParamRangeError(f"{args.which} needs d = s // 2 (got s={p.s}, d={p.d})")
        p = Params(n=p.n, k=p.k, l=p.l, t=p.t, r=p.r, s=p.s, d=p.s // 2)
    fn = _BOUNDS[args.which]
    if fn is binomial:
        bv = binomial(*p.require("n", "k"))
    elif fn is bound_diversity:
        bv = bound_diversity(p, args.unchecked)
    else:
        bv = fn(args.which, p, args.unchecked)
    if args.json:
        _emit({
            "which": args.which,
            "params": _params_dict(p),
            "regime": bv.regime,
            "value": str(bv.value),
        })
    else:
        print(bv.value)
    return 0


def _cmd_construct(args) -> int:
    p = _params_from(args)
    cid = ConstructionId(args.tag, p, y=args.y)
    built = construct(cid)
    size = expected_size(cid).value
    files = []
    if is_pair_tag(args.tag):
        F, G = built
        if not args.out2:
            raise ParamRangeError(f"{args.tag} builds a pair; --out2 is required")
        with open(args.out, "w") as fh:
            write_family(F, fh)
        with open(args.out2, "w") as fh:
            write_family(G, fh)
        files = [args.out, args.out2]
        got = len(F) + len(G)
    else:
        with open(args.out, "w") as fh:
            write_family(built, fh)
        files = [args.out]
        got = len(built)
    if got != size:
        raise SetfamError(f"constructed size {got} != closed form {size}")
    if args.json:
        _emit({"tag": args.tag, "params": _params_dict(p), "size": str(size), "files": files})
    else:
        print(f"wrote {args.tag} (size {size}) to {', '.join(files)}")
    return 0


def _cmd_check(args) -> int:
    with open(args.family) as fh:
        fam = read_family(fh)
    pred = args.pred
    if pred == "t-intersecting":
        if args.t is None:
            raise ParamRangeError("--t is required for t-intersecting")
        result = is_t_intersecting(fam, args.t)
    elif pred == "s-union":
        if args.s is None:
            raise ParamRangeError("--s is required for s-union")
        result = is_s_union(fam, args.s)
    elif pred == "shifted":
        result = is_shifted(fam)
    elif pred == "diversity":
        maxdeg, div = degree_profile(fam)
        if args.json:
            _emit({"pred": pred, "max_degree": str(maxdeg), "diversity": str(div)})
        else:
            print(f"max_degree={maxdeg} diversity={div}")
        return 0
    elif pred == "cross":
        if not args.family2:
            raise ParamRangeError("--family2 is required for cross")
        with open(args.family2) as fh:
            fam2 = read_family(fh)
        result = are_cross_intersecting(fam, fam2)
    else:  # pragma: no cover - argparse restricts choices
        raise ParamRangeError(f"unknown predicate {pred!r}")
    if args.json:
        _emit({"pred": pred, "result": result})
    else:
        print("true" if result else "false")
    return 0


def _report_json(report, with_timing: bool) -> dict:
    classes = []
    for cls in report.classes:
        rep = cls.representative
        if isinstance(rep, tuple):
            entry = {
                "representative": rep[0].sets(),
                "partner": rep[1].sets(),
                "size": cls.size,
            }
        else:
            entry = {"representative": rep.sets(), "size": cls.size}
        classes.append(entry)
    out = {
        "kind": report.kind,
        "params": _params_dict(report.params),
        "engine": report.engine,
        "backend": report.backend,
        "optimum": str(report.optimum),
        "bound": str(report.bound.value),
        "matches_bound": report.matches_bound,
        "maximizer_count": report.maximizer_count,
        "classes": classes,
        "nodes": report.nodes,
    }
    if report.note:
        out["note"] = report.note
    if with_timing:
        out["elapsed_ms"] = int(report.elapsed * 1000)
    return out


def _cmd_search(args) -> int:
    from .search.problems import Problem

    p = _params_from(args)
    report = _layer("solve")(
        Problem(args.kind, p, args.engine),
        max_seconds=args.max_seconds,
        backend=args.backend,
    )
    if args.json:
        _emit(_report_json(report, not args.no_timing))
        return 0
    print(f"kind      : {report.kind}")
    print(f"params    : {_params_dict(report.params)}")
    print(f"engine    : {report.engine} ({report.backend})")
    print(f"optimum   : {report.optimum}")
    print(f"bound     : {report.bound.value} [{report.bound.regime}]")
    print(f"matches   : {report.matches_bound}")
    print(f"maximizers: {report.maximizer_count} in {len(report.classes)} classes")
    for cls in report.classes:
        rep = cls.representative
        fam = rep[0] if isinstance(rep, tuple) else rep
        print(f"  class x{cls.size}: {fam}")
    if report.note:
        print(f"note      : {report.note}")
    if not args.no_timing:
        print(f"elapsed   : {report.elapsed:.3f}s ({report.nodes} nodes)")
    return 0


def _cmd_verify(args) -> int:
    res = _layer("verify_grid")(
        args.theorem, args.grid, engine=args.engine,
        threads=args.threads, max_seconds=args.max_seconds,
    )
    rows_json = []
    for row in res.rows:
        entry = {"params": _params_dict(row.params)}
        if row.skipped:
            entry["status"] = "skipped"
            entry["reason"] = row.skipped
        elif row.timeout is not None:
            entry["status"] = "timeout"
            entry["reason"] = str(row.timeout)
            entry["best_so_far"] = str(row.timeout.best_so_far)
        elif row.infeasible is not None:
            entry["status"] = "infeasible"
            entry["reason"] = str(row.infeasible)
        else:
            rep = row.report
            entry["status"] = "ok" if (row.bound_ok and row.classes_ok is not False) else "mismatch"
            entry["optimum"] = str(rep.optimum)
            entry["bound"] = str(rep.bound.value)
            entry["bound_ok"] = row.bound_ok
            entry["classes_ok"] = row.classes_ok
            entry["maximizer_count"] = rep.maximizer_count
            entry["class_count"] = len(rep.classes)
            if not args.no_timing:
                entry["elapsed_ms"] = int(rep.elapsed * 1000)
        rows_json.append(entry)
    if args.json:
        _emit({
            "theorem": args.theorem,
            "grid": args.grid,
            "engine": args.engine,
            "rows": rows_json,
            "ok": res.ok,
        })
    else:
        for entry in rows_json:
            status = entry["status"]
            pstr = " ".join(f"{k}={v}" for k, v in entry["params"].items())
            if status == "skipped":
                print(f"SKIP  {pstr:30s} {entry['reason']}")
            elif status == "timeout":
                best = entry["best_so_far"]
                print(f"TIME  {pstr:30s} {entry['reason']} (best so far: {best})")
            elif status == "infeasible":
                print(f"INFS  {pstr:30s} {entry['reason']}")
            else:
                cls_note = "" if entry["classes_ok"] is None else f" classes_ok={entry['classes_ok']}"
                print(
                    f"{'OK  ' if status == 'ok' else 'FAIL'}  {pstr:30s} "
                    f"optimum={entry['optimum']} bound={entry['bound']}{cls_note}"
                )
    statuses = {entry["status"] for entry in rows_json}
    if "mismatch" in statuses:
        verdict, code = "MISMATCH", 1
    elif "infeasible" in statuses:
        verdict, code = "INFEASIBLE", 3  # the exit code of an infeasible search
    elif "timeout" in statuses:
        verdict, code = "TIMEOUT", 4  # the exit code of a timed-out search
    else:
        verdict, code = "verified", 0
    if not args.json:
        print(verdict)
    return code


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="setfam", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bound", help="evaluate a closed-form bound")
    b.add_argument("which", choices=sorted(_BOUNDS))
    _add_param_flags(b)
    b.add_argument("--unchecked", action="store_true",
                   help="evaluate the raw formula outside its stated range")
    b.add_argument("--json", action="store_true")
    b.set_defaults(func=_cmd_bound)

    c = sub.add_parser("construct", help="build a named family and write it")
    c.add_argument("tag", choices=sorted(TAGS))
    _add_param_flags(c)
    c.add_argument("--y", type=int, default=1, help="distinguished element (odd Katona family)")
    c.add_argument("--out", required=True)
    c.add_argument("--out2", default=None, help="partner output file for pair constructions")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=_cmd_construct)

    k = sub.add_parser("check", help="evaluate a predicate on a family file")
    k.add_argument("--pred", required=True,
                   choices=("t-intersecting", "s-union", "shifted", "diversity", "cross"))
    k.add_argument("--family", required=True)
    k.add_argument("--family2", default=None)
    k.add_argument("--t", type=int, default=None)
    k.add_argument("--s", type=int, default=None)
    k.add_argument("--json", action="store_true")
    k.set_defaults(func=_cmd_check)

    s = sub.add_parser("search", help="run an exact search oracle")
    s.add_argument("kind", choices=KINDS)
    _add_param_flags(s)
    s.add_argument("--engine", default="auto", choices=ENGINES)
    s.add_argument("--backend", default=None, choices=("compiled", "python"))
    s.add_argument(
        "--max-seconds", type=float, default=None,
        help="time budget of the kernel search, counted from the start of the solve; "
        "table building and classification are not bounded (exit 4 when it runs out)",
    )
    s.add_argument("--json", action="store_true")
    s.add_argument("--no-timing", action="store_true")
    s.set_defaults(func=_cmd_search)

    v = sub.add_parser(
        "verify", help="sweep a grid: search vs bound vs expected classes",
        description="Sweep a grid: search vs bound vs expected classes.  Exit codes: 0 every "
        "row verified or skipped, 1 any mismatch, else 3 any infeasible row, else 4 any "
        "timed-out row.",
    )
    v.add_argument("theorem", choices=sorted(THEOREMS))
    v.add_argument("--grid", required=True)
    v.add_argument("--engine", default="auto", choices=ENGINES)
    v.add_argument(
        "--threads", type=int, default=1,
        help="run rows in this many threads; only the compiled kernels release the GIL, "
        "so threads do not speed up the pure-Python kernels",
    )
    v.add_argument(
        "--max-seconds", type=float, default=None,
        help="time budget of each row's kernel search, counted from the start of its solve; "
        "table building, classification and expected classes are not bounded",
    )
    v.add_argument("--json", action="store_true")
    v.add_argument("--no-timing", action="store_true")
    v.set_defaults(func=_cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (ParamRangeError, FamilyFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleInstanceError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except TimeBudgetExceededError as exc:
        best = f" (best so far: {exc.best_so_far})" if exc.best_so_far is not None else ""
        print(f"timeout: {exc}{best}", file=sys.stderr)
        return 4
    except SetfamError as exc:  # pragma: no cover - catch-all for package errors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
