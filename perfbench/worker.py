"""One pass of a workload, in a fresh interpreter.

    python worker.py {verify|cli} OPS_JSON RESULT_JSON [--trace] [--backend NAME]
    python worker.py {verify|cli} --probe

The worker imports what the workload's first op needs, selects the backend,
and writes ``ready`` on stdout: the parent times set-up up to that line.
It then runs the ops in order, times each between two samples of a
reference (calibrate.py), and writes one JSON result: per-op latency
(scaled and wall), error and output digest, the pass time, peak resident
memory, the environment, and (with --trace) the spans.  setfam is found on
PYTHONPATH.

This is a script, not a module to import: the set-up it times runs at the
top, before anything the benchmark itself needs is imported.
"""

import sys

KIND = sys.argv[1]
# A CLI pass only launches CLI processes.  It imports no setfam, so that its
# memory, which the kernel counts into each child's peak RSS, stays below
# the children's own.
if KIND == "verify" or "--probe" in sys.argv:
    if KIND == "cli":
        import setfam.cli  # noqa: F401
    else:
        import setfam.search.verify  # noqa: F401
    from setfam import engines

    engines.backend_module()
sys.stdout.write("ready\n")
sys.stdout.flush()
if "--probe" in sys.argv:
    sys.exit(0)

import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402

import calibrate  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
OP_TIMEOUT_S = 60
DROP_KEYS = ("backend", "nodes")  # may change without the answer changing


def environment(backends_used) -> dict:
    from setfam import engines

    env = {
        "backend": sorted(backends_used) or [engines.DEFAULT_BACKEND],
        "default_backend": engines.DEFAULT_BACKEND,
        "have_compiled": engines.HAVE_COMPILED,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }
    if not engines.HAVE_COMPILED:
        try:
            importlib.import_module("setfam.engines._fastcore")
        except ImportError as exc:
            env["compiled_missing"] = f"setfam.engines._fastcore: {exc}"
    return env


def family_masks(item):
    if isinstance(item, tuple):
        return [list(f.members) for f in item]
    return list(item.members)


def verify_digest(result) -> dict:
    rows = []
    for row in result.rows:
        if row.skipped:
            rows.append({"status": "skipped"})
            continue
        rep = row.report
        rows.append({
            "optimum": rep.optimum,
            "bound": rep.bound.value,
            "maximizer_count": rep.maximizer_count,
            "classes": [family_masks(c.representative) for c in rep.classes],
        })
    return {"rows": rows}


def cli_digest(proc, files: dict) -> dict:
    """Exit code, stdout without DROP_KEYS, written files.  The stdout must
    be exactly the sorted-key JSON line the CLI emits."""
    digest = {"rc": proc.returncode, "files": files}
    try:
        obj = json.loads(proc.stdout)
    except ValueError:
        digest["stdout"] = proc.stdout
        return digest
    digest["stdout_canonical"] = proc.stdout == json.dumps(obj, sort_keys=True) + "\n"
    for key in DROP_KEYS:
        obj.pop(key, None)
    digest["stdout"] = json.dumps(obj, sort_keys=True) + "\n"
    return digest


def own_peak_rss_kb() -> int:
    """Peak RSS of this process alone.  ru_maxrss also counts the memory of
    the parent that spawned it."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def timing(op, wall_ms, ref_before, ref_after, nominal=calibrate.NOMINAL_MS) -> dict:
    """An op's latency, scaled by the reference samples taken around it."""
    return {
        "id": op["id"],
        "ms": calibrate.scaled(wall_ms, ref_before, ref_after, nominal),
        "wall_ms": wall_ms,
        "ref_ms": (ref_before + ref_after) / 2,
    }


def run_verify(ops, tracer, backend):
    from setfam import engines
    from setfam.search import verify

    if backend:
        engines.DEFAULT_BACKEND = backend
    done, refs = [], [calibrate.sample_ms()]
    for op in ops:
        t0 = time.perf_counter()
        result, error = None, None
        try:
            with tracer.span("search.verify", op=op["id"]) if tracer else nullcontext():
                result = verify.verify_grid(op["theorem"], op["grid"], engine=op["engine"])
        except Exception as exc:  # an op that raises is a failed op, not a failed pass
            error = f"{type(exc).__name__}: {exc}"
        done.append((op, (time.perf_counter() - t0) * 1000, result, error))
        refs.append(calibrate.sample_ms())
    out, backends = [], set()
    for i, (op, ms, result, error) in enumerate(done):
        entry = timing(op, ms, refs[i], refs[i + 1])
        entry["error"] = error
        if result is not None:
            if not result.ok:
                entry["error"] = "bound_ok or classes_ok is false"
            entry["digest"] = verify_digest(result)
            backends.update(r.report.backend for r in result.rows if r.report)
        out.append(entry)
    return out, own_peak_rss_kb(), backends


def run_cli(ops, tracer, backend):
    work = os.path.join(HERE, "out", f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    spans_path = os.path.join(work, "spans.json")
    env = dict(os.environ)
    if tracer:
        env["PERFBENCH_SPANS"] = spans_path
        prefix = [sys.executable, os.path.join(HERE, "cli_shim.py")]
    else:
        prefix = [sys.executable, "-m", "setfam.cli"]
    done, refs = [], [calibrate.start_ms(env)]
    try:
        for op in ops:
            argv = op["argv"]
            if backend and argv[0] == "search":
                argv = argv + ["--backend", backend]
            t0 = time.perf_counter()
            proc, error = None, None
            with tracer.span("cli.invocation", op=op["id"]) if tracer else nullcontext():
                try:
                    proc = subprocess.run(
                        prefix + argv, cwd=work, env=env, capture_output=True, text=True,
                        timeout=OP_TIMEOUT_S,
                    )
                except subprocess.TimeoutExpired:
                    error = f"timed out after {OP_TIMEOUT_S} s"
                if tracer and os.path.exists(spans_path):
                    with open(spans_path) as fh:
                        child = json.load(fh)
                    os.remove(spans_path)
                    tracer.adopt(child["spans"], child["counts"], tracer.current())
            done.append((op, (time.perf_counter() - t0) * 1000, proc, error))
            refs.append(calibrate.start_ms(env))
        out = []
        for i, (op, ms, proc, error) in enumerate(done):
            entry = timing(op, ms, refs[i], refs[i + 1], calibrate.NOMINAL_START_MS)
            entry["error"] = error
            if proc is not None:
                files = {}
                for name in op["files"]:
                    path = os.path.join(work, name)
                    if os.path.exists(path):
                        with open(path) as fh:
                            files[name] = fh.read()
                entry["digest"] = cli_digest(proc, files)
                if proc.returncode != 0:
                    entry["error"] = f"exit {proc.returncode}: {proc.stderr.strip()}"
            out.append(entry)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return out, rss_kb, {backend} if backend else set()


def main() -> None:
    ops_path, result_path = sys.argv[2], sys.argv[3]
    flags = sys.argv[4:]
    backend = flags[flags.index("--backend") + 1] if "--backend" in flags else None
    with open(ops_path) as fh:
        ops = json.load(fh)
    tracer = None
    if "--trace" in flags:
        from spans import Tracer

        tracer = Tracer()
    run = run_cli if KIND == "cli" else run_verify
    with tracer.installed() if tracer and KIND != "cli" else nullcontext():
        out, rss_kb, backends = run(ops, tracer, backend)
    result = {
        "ops": out,
        "sweep_s": sum(e["ms"] for e in out) / 1000,
        "wall_sweep_s": sum(e["wall_ms"] for e in out) / 1000,
        "ref_ms": [e["ref_ms"] for e in out],
        "rss_mb": rss_kb / 1024,
        "env": environment(backends),
    }
    if tracer:
        result["spans"] = tracer.spans
        result["counts"] = dict(tracer.counts)
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
