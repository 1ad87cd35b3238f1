"""Spans recorded around setfam's layers, from outside the package.

``Tracer.installed()`` replaces public functions at the name each caller
looks up (``problems.build_pair_tables``, ``verify.solve``, the kernel
attributes of every backend module, ...) with wrappers that record a span:
name, start, end, parent span and op id.  Leaving the block restores the
originals, so untraced passes run the unmodified program.  Spans stay in
memory; the caller writes them out when the pass ends.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from stats import covered

# Per-layer metrics of one pass: (name, unit, better).  BENCHMARK.json lists
# the same names; layer_metrics() returns exactly these keys.
LAYER_METRICS = (
    ("search.tables.calls", "count", "lower"),
    ("search.tables.busy_ms", "ms", "lower"),
    ("search.tables.candidates", "count", "lower"),
    ("shifting.dominates.calls", "count", "lower"),
    *(
        (f"engines.{kern}.{field}", unit, better)
        for kern in ("pair_bnb", "clique_bnb", "diversity_bnb")
        for field, unit, better in (
            ("calls", "count", "lower"),
            ("busy_ms", "ms", "lower"),
            ("nodes", "count", "lower"),
            ("nodes_per_ms", "1/ms", "higher"),
            ("maximizers", "count", "lower"),
        )
    ),
    ("search.problems.classify.busy_ms", "ms", "lower"),
    ("search.problems.classify.maximizers_in", "count", "lower"),
    ("search.problems.classify.classes_out", "count", "lower"),
    *(
        (f"family.are_isomorphic.{caller}.{field}", unit, better)
        for caller in ("classify", "verify")
        for field, unit, better in (
            ("calls", "count", "lower"),
            ("busy_ms", "ms", "lower"),
            ("hit_ratio", "ratio", "higher"),
        )
    ),
    ("search.problems.solve.self_ms", "ms", "lower"),
    ("search.expected.busy_ms", "ms", "lower"),
    ("constructions.construct.calls", "count", "lower"),
    ("search.verify.self_ms", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("cli.main.self_ms", "ms", "lower"),
    ("cli.startup_ms", "ms", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)

KERNELS = ("pair_bnb", "clique_bnb", "diversity_bnb")


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._ids = iter(range(1, 1 << 62))
        self._lock = threading.Lock()
        self._tallies: list[tuple[str, list[int]]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, op: str | None = None, start: int | None = None):
        """Record a span around the block; yields a dict for attributes."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            sid = next(self._ids)
        rec = {
            "id": sid,
            "name": name,
            "parent": parent["id"] if parent else None,
            "op": op if op is not None else (parent["op"] if parent else None),
            "start": time.monotonic_ns() if start is None else start,
            "end": None,
            "attrs": {},
        }
        stack.append(rec)
        try:
            yield rec["attrs"]
        finally:
            rec["end"] = time.monotonic_ns()
            stack.pop()
            with self._lock:
                self.spans.append(rec)

    def adopt(self, spans: list[dict], counts: dict, parent: dict) -> None:
        """Merge spans recorded by a child process under ``parent``."""
        remap = {}
        with self._lock:
            for rec in spans:
                remap[rec["id"]] = next(self._ids)
        for rec in spans:
            rec = dict(rec, id=remap[rec["id"]], op=parent["op"])
            rec["parent"] = remap.get(rec["parent"], parent["id"])
            with self._lock:
                self.spans.append(rec)
        self.counts.update(counts)

    def current(self) -> dict | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def _wrap(self, name: str, fn, attrs_of=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name) as attrs:
                result = fn(*args, **kwargs)
                if attrs_of is not None:
                    attrs.update(attrs_of(args, result))
                return result

        return wrapper

    def _count(self, key: str, fn):
        """Count calls of a two-argument hot function; no span, so that the
        wrapper adds as little as it can to the span around its caller."""
        cell = [0]
        self._tallies.append((key, cell))

        @functools.wraps(fn)
        def wrapper(a, b):
            cell[0] += 1
            return fn(a, b)

        return wrapper

    def _targets(self):
        """(owner, attribute, wrapper factory) for every traced call site."""
        from setfam import engines
        from setfam.search import expected, problems, tables, verify

        def kern_attrs(args, result):
            return {"nodes": result[2], "maximizers": len(result[1])}

        iso = lambda args, result: {"hit": bool(result)}  # noqa: E731
        targets = [
            (problems, "build_pair_tables", "search.tables", lambda a, r: {"candidates": len(r.cands)}),
            (problems, "build_union_tables", "search.tables", lambda a, r: {"candidates": len(r.vmasks)}),
            (problems, "build_diversity_tables", "search.tables",
             lambda a, r: {"candidates": len(r.hmasks) + len(r.amasks)}),
            (problems, "classify_maximizers", "search.problems.classify",
             lambda a, r: {"maximizers_in": len(a[0]), "classes_out": len(r)}),
            (problems, "bound_for", "search.problems.bound_for", None),
            (problems, "are_isomorphic", "family.are_isomorphic.classify", iso),
            (verify, "are_isomorphic", "family.are_isomorphic.verify", iso),
            (verify, "expected_classes", "search.expected", None),
            (verify, "solve", "search.problems.solve", None),
            (expected, "construct", "constructions.construct", None),
        ]
        for backend in engines.BACKENDS:
            module = engines.backend_module(backend)
            for kern in KERNELS:
                targets.append((module, kern, f"engines.{kern}", kern_attrs))
        cli = sys.modules.get("setfam.cli")
        if cli is not None:
            targets += [
                (cli, "solve", "search.problems.solve", None),
                (cli, "verify_grid", "search.verify", None),
                (cli, "construct", "constructions.construct", None),
            ]
        out = [(o, a, lambda fn, n=n, f=f: self._wrap(n, fn, f)) for o, a, n, f in targets]
        out.append((tables, "dominates", lambda fn: self._count("shifting.dominates.calls", fn)))
        return out

    @contextmanager
    def installed(self):
        """Install every wrapper for the duration of the block."""
        saved = []
        try:
            for owner, attr, factory in self._targets():
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, factory(original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            for key, cell in self._tallies:
                self.counts[key] += cell[0]
            self._tallies.clear()


def self_times(spans: list[dict]) -> dict[int, int]:
    """Span id -> duration minus the part of it covered by its children."""
    children = defaultdict(list)
    for rec in spans:
        if rec["parent"] is not None:
            children[rec["parent"]].append((rec["start"], rec["end"]))
    return {
        rec["id"]: rec["end"] - rec["start"] - covered(children[rec["id"]], rec["start"], rec["end"])
        for rec in spans
    }


def layer_metrics(spans: list[dict], counts: dict) -> dict[str, float]:
    """Per-layer totals of one traced pass (every LAYER_METRICS name except
    trace.overhead_frac, which compares passes)."""
    by_name = defaultdict(list)
    for rec in spans:
        by_name[rec["name"]].append(rec)
    selfs = self_times(spans)

    def busy_ms(name):
        return sum(r["end"] - r["start"] for r in by_name[name]) / 1e6

    def attr_sum(name, key):
        return sum(r["attrs"].get(key, 0) for r in by_name[name])

    def self_ms(name):
        return sum(selfs[r["id"]] for r in by_name[name]) / 1e6

    m = {
        "search.tables.calls": len(by_name["search.tables"]),
        "search.tables.busy_ms": busy_ms("search.tables"),
        "search.tables.candidates": attr_sum("search.tables", "candidates"),
        "shifting.dominates.calls": counts.get("shifting.dominates.calls", 0),
    }
    for kern in KERNELS:
        name = f"engines.{kern}"
        busy, nodes = busy_ms(name), attr_sum(name, "nodes")
        m[f"{name}.calls"] = len(by_name[name])
        m[f"{name}.busy_ms"] = busy
        m[f"{name}.nodes"] = nodes
        m[f"{name}.nodes_per_ms"] = nodes / busy if busy else 0.0
        m[f"{name}.maximizers"] = attr_sum(name, "maximizers")
    m["search.problems.classify.busy_ms"] = busy_ms("search.problems.classify")
    m["search.problems.classify.maximizers_in"] = attr_sum("search.problems.classify", "maximizers_in")
    m["search.problems.classify.classes_out"] = attr_sum("search.problems.classify", "classes_out")
    for caller in ("classify", "verify"):
        name = f"family.are_isomorphic.{caller}"
        calls = len(by_name[name])
        m[f"{name}.calls"] = calls
        m[f"{name}.busy_ms"] = busy_ms(name)
        m[f"{name}.hit_ratio"] = attr_sum(name, "hit") / calls if calls else 0.0
    m["search.problems.solve.self_ms"] = self_ms("search.problems.solve")
    m["search.expected.busy_ms"] = busy_ms("search.expected")
    m["constructions.construct.calls"] = len(by_name["constructions.construct"])
    m["search.verify.self_ms"] = self_ms("search.verify")
    m["cli.import_ms"] = busy_ms("cli.import")
    m["cli.main.self_ms"] = self_ms("cli.main")
    process_ns = {r["parent"]: r["end"] - r["start"] for r in by_name["cli.process"]}
    m["cli.startup_ms"] = sum(
        r["end"] - r["start"] - process_ns.get(r["id"], 0) for r in by_name["cli.invocation"]
    ) / 1e6
    return m
