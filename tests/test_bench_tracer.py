"""The benchmark's tracer (``perfbench/spans.py``) wraps library functions
by name: the kernels on every backend, the table builders, classification
and the expected-class step.  A rename on the library side would leave its
layers silently empty, so this guards those names from here."""

from pathlib import Path

import pytest

from setfam import engines
from setfam.search.verify import verify_grid

BENCH = Path(__file__).resolve().parents[1] / "perfbench"

# one row per kernel: pair_bnb, diversity_bnb, clique_bnb
ROWS = [
    ("main3", "k=2;n=5;r=1", "brute"),
    ("diversity", "k=3;n=7;r=1", "clique"),
    ("katona", "n=5;s=2", "auto"),
]


@pytest.mark.parametrize("backend", ["python", "compiled"])
def test_benchmark_tracer_sees_every_layer(request, monkeypatch, backend):
    if backend == "compiled":
        request.getfixturevalue("compiled")
    else:
        monkeypatch.setattr(engines, "DEFAULT_BACKEND", "python")
    monkeypatch.syspath_prepend(str(BENCH))  # its modules import each other by bare name
    from spans import Tracer

    tracer = Tracer()
    with tracer.installed():
        for theorem, grid, engine in ROWS:
            result = verify_grid(theorem, grid, engine)
            assert result.ok and [row.report.backend for row in result.rows] == [backend]
    names = {rec["name"] for rec in tracer.spans}
    assert {
        "engines.pair_bnb",
        "engines.diversity_bnb",
        "engines.clique_bnb",
        "search.tables",
        "search.problems.classify",
        "search.expected",
    } <= names
