"""The benchmark's tracer (``perfbench/spans.py``) wraps library functions
by name: the kernels on every backend, the table builders, classification
and the expected-class step.  A rename on the library side would leave its
layers silently empty, so this guards those names from here."""

from pathlib import Path

import pytest

import setfam.cli
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


def test_benchmark_tracer_sees_the_cli_layers(monkeypatch, tmp_path, capsys):
    """The tracer wraps ``setfam.cli.solve``, ``verify_grid`` and ``construct``
    by name, and the handlers must call them through those attributes."""
    monkeypatch.syspath_prepend(str(BENCH))
    from spans import Tracer

    tracer = Tracer()
    with tracer.installed():
        for argv in (
            ["search", "s_union_max", "--n", "5", "--s", "2", "--json"],
            ["verify", "katona", "--grid", "n=5;s=2", "--json"],
            ["construct", "full_star", "--n", "5", "--k", "2", "--out", str(tmp_path / "star.fam")],
        ):
            assert setfam.cli.main(argv) == 0
    top = [rec["name"] for rec in tracer.spans if rec["parent"] is None]
    assert top == ["search.problems.solve", "search.verify", "constructions.construct"]
