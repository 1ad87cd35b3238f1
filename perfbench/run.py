"""setfam benchmark: one workload for a fixed time, outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; setfam is imported from ./src.  Workloads:
verify-shifted, verify-exhaustive, cli-oneshot (see perfbench/README.md).

Each timed pass runs every op of the workload, in the seed's order, in a
fresh worker interpreter on the backend ``setfam.engines`` selects.  Passes
repeat until S seconds have gone.  Every time reported is scaled by a
reference timed right before and after it (calibrate.py), so that the
host's changing speed cancels out; the wall times are in the notes.  The
whole run is pinned to one CPU.  Every op's output is checked against
perfbench/golden/<workload>.json.  The last line of stdout is one JSON
object: correct, attempted, failed and metrics.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 untraced and traced passes
alternate and the metrics are the per-layer ones from the traced passes,
with the spans written to perfbench/out/.  The exit code is 1 when any op
failed, 2 on a usage or set-up error.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import calibrate
import stats
import workloads
from spans import LAYER_METRICS, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDEN = HERE / "golden"

SETUP_PROBES = 25
PASS_TIMEOUT_S = 100
END_TO_END = (
    ("sweep_s", "s"),
    ("op_ms.p50", "ms"),
    ("op_ms.tail", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class SetupError(Exception):
    pass


def pin_to_one_cpu() -> None:
    """Keep this process and every process it starts on one CPU.  On a
    shared host each CPU's speed changes on its own, so a reference must
    run on the CPU that runs the work it scales."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def worker_kind(workload: str) -> str:
    return "cli" if workload == "cli-oneshot" else "verify"


def child_env() -> dict:
    """setfam from ./src; bytecode caching on, as after an install."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(kind: str, args: list[str]) -> tuple[float, int]:
    """Start a worker, wait for it; return (set-up seconds, exit code)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), kind, *args],
        stdout=subprocess.PIPE, bufsize=0, env=child_env(), cwd=ROOT,
    )
    timer = threading.Timer(PASS_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        line = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line != b"ready\n":
        raise SetupError(f"worker {kind} did not start (exit {code})")
    return setup_s, code


def probes(workload: str, count: int) -> tuple[list[float], list[float]]:
    """Set-up times of count fresh workers, scaled and wall."""
    spawn(worker_kind(workload), ["--probe"])  # untimed: fills the bytecode cache
    env = child_env()
    walls, refs = [], [calibrate.start_ms(env)]
    for _ in range(count):
        walls.append(spawn(worker_kind(workload), ["--probe"])[0])
        refs.append(calibrate.start_ms(env))
    scaled = [calibrate.scaled(s, refs[i], refs[i + 1], calibrate.NOMINAL_START_MS) for i, s in enumerate(walls)]
    return scaled, walls


def run_pass(workload: str, ops: list[dict], traced: bool = False, backend: str | None = None) -> dict:
    OUT.mkdir(exist_ok=True)
    ops_path = OUT / f"ops-{os.getpid()}.json"
    result_path = OUT / f"pass-{os.getpid()}.json"
    ops_path.write_text(json.dumps(ops))
    result_path.unlink(missing_ok=True)
    flags = (["--trace"] if traced else []) + (["--backend", backend] if backend else [])
    try:
        _, code = spawn(worker_kind(workload), [str(ops_path), str(result_path), *flags])
        if code != 0 or not result_path.exists():
            return {"crashed": f"worker exit {code}", "ops": []}
        return json.loads(result_path.read_text())
    finally:
        ops_path.unlink(missing_ok=True)
        result_path.unlink(missing_ok=True)


def check(result: dict, ops: list[dict], golden: dict) -> list[str]:
    """Failures of one pass: every op must run, pass its own checks and
    match its golden record."""
    if "crashed" in result:
        return [f"{op['id']}: {result['crashed']}" for op in ops]
    failures = []
    for entry in result["ops"]:
        if entry["error"]:
            failures.append(f"{entry['id']}: {entry['error']}")
        elif entry.get("digest") != golden.get(entry["id"]):
            failures.append(f"{entry['id']}: output differs from the golden record")
        elif entry["digest"].get("stdout_canonical") is False:
            failures.append(f"{entry['id']}: stdout is not the canonical JSON line")
    return failures


def latencies(passes: list[dict], key: str = "ms") -> list[float]:
    return [e[key] for p in passes for e in p["ops"]]


def end_to_end(workload: str, passes: list[dict], setups: list[float], wall_setups: list[float]) -> tuple[dict, dict]:
    percentile = workloads.TAIL_PERCENTILE[workload]
    scaled, walls = latencies(passes), latencies(passes, "wall_ms")
    refs = [r for p in passes for r in p["ref_ms"]]
    nominal = calibrate.NOMINAL_START_MS if worker_kind(workload) == "cli" else calibrate.NOMINAL_MS
    tail = stats.tail(scaled, percentile)
    values = {
        "sweep_s": statistics.median([p["sweep_s"] for p in passes]),
        "op_ms.p50": statistics.median(scaled),
        "op_ms.tail": tail["value"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median([p["rss_mb"] for p in passes]),
    }
    notes = {
        "passes": len(passes),
        "setups": len(setups),
        "op_ms.tail": {k: tail[k] for k in ("percentile", "samples", "beyond")},
        "ref_ms": {"nominal": nominal, "min": min(refs), "p50": statistics.median(refs), "max": max(refs)},
        "wall": {
            "sweep_s": statistics.median([p["wall_sweep_s"] for p in passes]),
            "op_ms.p50": statistics.median(walls),
            "op_ms.tail": stats.tail(walls, percentile)["value"],
            "setup_s": statistics.median(wall_setups),
        },
    }
    return values, notes


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    per_pass = [layer_metrics(p["spans"], p["counts"]) for p in traced]
    values = {
        name: statistics.median([m[name] for m in per_pass])
        for name, _, _ in LAYER_METRICS
        if name != "trace.overhead_frac"
    }
    values["trace.overhead_frac"] = (
        statistics.median([p["sweep_s"] for p in traced]) / statistics.median([p["sweep_s"] for p in untraced]) - 1
    )
    return values


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    ops = workloads.ops(workload, seed)
    golden = json.loads((GOLDEN / f"{workload}.json").read_text())["ops"]
    setups, wall_setups = probes(workload, SETUP_PROBES)
    untraced, traced, failures = [], [], []
    attempted = 0
    percentile = workloads.TAIL_PERCENTILE[workload]
    deadline = time.perf_counter() + seconds

    def more() -> bool:
        """Until the time is up; then until the tail has MIN_BEYOND samples
        above it (untraced) or one traced pass is done (traced)."""
        if time.perf_counter() < deadline:
            return True
        if trace:
            return not traced
        return bool(untraced) and stats.tail(latencies(untraced), percentile)["beyond"] < stats.MIN_BEYOND

    while more():
        tracing = trace and len(untraced) > len(traced)
        result = run_pass(workload, ops, traced=tracing)
        attempted += len(ops)
        failures += check(result, ops, golden)
        if "crashed" in result:
            break
        (traced if tracing else untraced).append(result)
    env = (untraced or [{"env": {}}])[0]["env"]
    parity = {}
    if env.get("have_compiled"):
        # the backend-disagreement check: every backend must match the record
        for backend in ("python", "compiled"):
            if backend == env["default_backend"]:
                continue
            result = run_pass(workload, ops, backend=backend)
            parity[backend] = check(result, ops, golden)
            failures += parity[backend]
            attempted += len(ops)
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "env": env,
        "parity_backends": sorted(parity),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
    }
    if not untraced or (trace and not traced):  # a worker crashed before any metric
        report["metrics"], report["notes"] = {}, {}
    elif trace:
        report["metrics"] = per_layer(untraced, traced)
        report["notes"] = {"passes": len(untraced), "traced_passes": len(traced)}
        spans_path = OUT / f"spans-{workload}-seed{seed}.json"
        spans_path.write_text(json.dumps([{"spans": p["spans"], "counts": p["counts"]} for p in traced]))
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        report["metrics"], report["notes"] = end_to_end(workload, untraced, setups, wall_setups)
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "setfam" / "__init__.py").is_file():
        print(f"error: setfam sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    pin_to_one_cpu()
    try:
        report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1))

    units = dict(END_TO_END) if not args.trace else {n: u for n, u, _ in LAYER_METRICS}
    print(f"env: {json.dumps(dict(report['env'], seed=args.seed, workload=args.workload))}")
    print(f"notes: {json.dumps(report['notes'])}")
    frac = report["failed"] / report["attempted"] if report["attempted"] else 1.0
    print(f"failed_frac = {frac:.6g} frac ({report['failed']} of {report['attempted']} ops)")
    for failure in report["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    for metric, value in report["metrics"].items():
        print(f"{metric} = {value:.6g} {units[metric]}")
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": max(1, report["attempted"]),
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in report["metrics"].items()},
    }))
    return 0 if report["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
