"""The benchmark's tracer (``perfbench/spans.py``) wraps library functions
by name: the kernels on every backend, the table builders, classification
and the expected-class step.  A rename on the library side would leave its
layers silently empty, so this guards those names from here."""

from pathlib import Path

import pytest

import setfam.cli
from setfam import engines
from setfam.constructions import construct
from setfam.family import _element_signatures, are_isomorphic
from setfam.search import tables
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
        "family.are_isomorphic.classify",
        "search.expected",
    } <= names


def test_benchmark_tracer_counts_memoized_calls(monkeypatch):
    """The table builders, ``construct`` and ``are_isomorphic`` are memoized
    where they are defined, behind the names the tracer wraps, so a warm call
    is still a traced call: the same row run twice, cold and then warm,
    records one ``search.tables`` span each time, as many constructions, and
    the same three ``family.are_isomorphic.verify`` spans."""
    monkeypatch.setattr(engines, "DEFAULT_BACKEND", "python")
    monkeypatch.syspath_prepend(str(BENCH))
    from spans import Tracer

    for build in (tables.build_pair_tables, tables.build_union_tables,
                  tables.build_diversity_tables, construct,
                  _element_signatures, are_isomorphic):
        build.cache_clear()
    counts = []
    for _ in range(2):
        tracer = Tracer()
        with tracer.installed():
            assert verify_grid("main1", "k=3;t=0;n=7;r=2", "shifted").ok
        names = [rec["name"] for rec in tracer.spans]
        counts.append((names.count("search.tables"), names.count("constructions.construct"),
                       names.count("family.are_isomorphic.verify")))
    assert counts[0] == counts[1], counts
    assert counts[0][0] == 1 and counts[0][1] > 0 and counts[0][2] == 3, counts


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
