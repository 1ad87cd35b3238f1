"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import calibrate  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from spans import LAYER_METRICS, Tracer, layer_metrics, self_times  # noqa: E402


def span(sid, name, start, end, parent=None):
    return {"id": sid, "name": name, "parent": parent, "op": None,
            "start": start, "end": end, "attrs": {}}


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        span(1, "search.verify", 0, 100),
        span(2, "search.problems.solve", 10, 40, parent=1),
        span(3, "search.expected", 30, 60, parent=1),   # overlaps span 2
        span(4, "search.expected", 80, 120, parent=1),  # runs past the parent
        span(5, "search.tables", 15, 20, parent=2),     # grandchild: not subtracted from 1
    ]
    selfs = self_times(spans)
    assert selfs[1] == 100 - (60 - 10) - (100 - 80)
    assert selfs[2] == 30 - 5
    assert selfs[5] == 5


def test_covered_merges_touching_and_nested_intervals():
    assert stats.covered([(0, 10), (10, 20), (2, 5)], 0, 100) == 20
    assert stats.covered([], 0, 100) == 0
    assert stats.covered([(50, 40)], 0, 100) == 0


def test_tail_is_the_fixed_percentile_with_the_samples_above_it():
    t = stats.tail(list(range(1, 101)), 90)
    assert (t["value"], t["percentile"], t["samples"], t["beyond"]) == (90.1, 90, 100, 10)
    t = stats.tail(list(range(1000, 0, -1)), 99)
    assert (t["value"], t["beyond"]) == (pytest.approx(990.01), 10)
    assert stats.tail([3.0] * 11 + [1.0], 90)["value"] == 3.0
    assert stats.tail([7.0], 99) == {"value": 7.0, "percentile": 99, "samples": 1, "beyond": 0}


def test_tail_does_not_move_with_the_number_of_passes():
    one_pass = [1.0] * 27 + [5.0, 6.0, 7.0, 8.0]  # ops of one pass, four slow ones
    values = {stats.tail(one_pass * passes, 90)["value"] for passes in (4, 5, 6, 9)}
    assert values == {5.0}


def test_times_are_scaled_by_the_reference_samples_around_them():
    nominal = calibrate.NOMINAL_MS
    assert calibrate.scaled(100.0, nominal, nominal) == 100.0
    assert calibrate.scaled(100.0, 2 * nominal, 2 * nominal) == 50.0  # a host at half speed
    assert calibrate.scaled(90.0, nominal, 2 * nominal) == 60.0  # the mean of both samples
    assert calibrate.scaled(90.0, 30.0, 60.0, nominal=45.0) == 90.0
    assert calibrate.task() == calibrate.EXPECTED
    assert calibrate.sample_ms() > 0
    assert calibrate.start_ms(dict(os.environ)) > 0


def _targets_now(tracer):
    return {(id(owner), attr): getattr(owner, attr) for owner, attr, _ in tracer._targets()}


def test_wrappers_are_removed_after_the_traced_run():
    from setfam.search import verify

    tracer = Tracer()
    before = _targets_now(tracer)
    with tracer.installed():
        during = _targets_now(tracer)
        assert all(during[key] is not before[key] for key in before)
        with tracer.span("search.verify", op="row"):
            verify.verify_grid("f16", "k=3;t=0;n=7", engine="shifted")
    names = {s["name"] for s in tracer.spans}
    assert {"search.tables", "engines.pair_bnb", "search.problems.classify",
            "search.problems.solve", "search.expected"} <= names
    assert all(s["op"] == "row" for s in tracer.spans)
    assert tracer.counts["shifting.dominates.calls"] > 0

    after = _targets_now(tracer)
    assert all(after[key] is before[key] for key in before)
    recorded = len(tracer.spans)
    verify.verify_grid("f16", "k=3;t=0;n=7", engine="shifted")
    assert len(tracer.spans) == recorded


def test_wrappers_are_removed_when_the_traced_block_raises():
    tracer = Tracer()
    before = _targets_now(tracer)
    try:
        with tracer.installed():
            raise KeyboardInterrupt
    except KeyboardInterrupt:
        pass
    after = _targets_now(tracer)
    assert all(after[key] is before[key] for key in before)


def test_layer_metrics_cover_every_declared_per_layer_metric():
    declared = [name for name, _, _ in LAYER_METRICS]
    assert set(layer_metrics([], {})) == set(declared) - {"trace.overhead_frac"}
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(LAYER_METRICS)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.NAMES)


def test_seed_permutes_a_fixed_set_of_ops():
    for name in workloads.NAMES:
        a, b = workloads.ops(name, 1), workloads.ops(name, 2)
        assert a == workloads.ops(name, 1)
        assert sorted(op["id"] for op in a) == sorted(op["id"] for op in b)
        assert len({op["id"] for op in a}) == len(a)
    for seed in range(5):
        ids = [op["id"] for op in workloads.ops("cli-oneshot", seed)]
        for group in workloads.CLI_SCRIPT:
            positions = [ids.index(" ".join(argv)) for argv in group]
            assert positions == sorted(positions)


def test_golden_records_cover_every_op():
    for name in workloads.NAMES:
        golden = json.loads((BENCH / "golden" / f"{name}.json").read_text())["ops"]
        assert set(golden) == {op["id"] for op in workloads.ops(name, 0)}


def test_peak_rss_counts_the_worker_not_the_process_that_spawned_it():
    import run

    ballast = bytearray(96 * 1024 * 1024)
    for i in range(0, len(ballast), 4096):
        ballast[i] = 1
    for name in ("verify-shifted", "cli-oneshot"):
        result = run.run_pass(name, workloads.ops(name, 0)[:2])
        assert not result["ops"][0]["error"]
        assert 5 < result["rss_mb"] < 64, (name, result["rss_mb"])
    del ballast
