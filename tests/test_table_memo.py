"""The candidate tables and the expected constructions are built once per
process: ``build_pair_tables``, ``build_union_tables``,
``build_diversity_tables`` and ``construct`` are memoized.  Every caller of
one key then shares one object, so these tests hold the memo to a read-only
contract and check that a warm cache, or one filled by several threads at
once, changes no report."""

import pytest

from setfam.bounds import Params
from setfam.constructions import ConstructionId, construct
from setfam.errors import InfeasibleInstanceError, ParamRangeError
from setfam.search import Problem, SearchReport, expected, problems, solve, tables
from setfam.search.verify import verify_grid

BUILDERS = ("build_pair_tables", "build_union_tables", "build_diversity_tables")

# one solve of each kind on each engine that runs it
SOLVES = [
    ("hemibundled_max", Params(n=7, k=3, t=0, r=2), "shifted"),
    ("hemibundled_max", Params(n=7, k=3, t=0, r=2), "brute"),
    ("cross_pair_max", Params(n=7, k=3, r=2), "shifted"),
    ("cross_pair_max", Params(n=6, k=2, r=2), "brute"),
    ("cross_pair_capped", Params(n=6, k=2, r=2), "brute"),
    ("diverse_intersecting_max", Params(n=8, k=3, r=2), "clique"),
    ("diverse_intersecting_max", Params(n=9, k=3, r=1), "shifted"),
    ("s_union_max", Params(n=6, s=3), "clique"),
    ("s_union_conditioned_max", Params(n=7, s=5, r=1), "clique"),
]

# one grid of each kind; the rows of a grid share their tables
GRIDS = [
    ("main1", "k=3;t=0;n=7;r=1..3", "shifted"),
    ("f24", "k=3;n=7;r=1..2", "shifted"),
    ("main3", "k=2;n=5;r=1..2", "brute"),
    ("diversity", "k=3;n=7;r=1..4", "clique"),
    ("katona", "n=6;s=2,4", "auto"),
    ("main5", "n=7;s=4;r=1..3", "clique"),
]


def _clear_caches() -> None:
    for name in BUILDERS:
        getattr(tables, name).cache_clear()
    construct.cache_clear()


def _frozen(value) -> bool:
    """An int, None, a tuple of ints, or (``horbit``) a dict of such tuples."""
    if isinstance(value, dict):
        return all(isinstance(row, tuple) and _frozen(row) for row in value.values())
    if isinstance(value, tuple):
        return all(isinstance(x, int) for x in value)
    return value is None or isinstance(value, int)


@pytest.mark.parametrize("backend", ["python", "compiled"])
def test_shared_tables_stay_equal_to_a_fresh_build(request, monkeypatch, backend):
    """After one solve and one expected-class step of each kind and engine,
    every table a solve got is still the cached one, equals a fresh build,
    and holds only tuples; every construction equals a fresh one."""
    if backend == "compiled":
        request.getfixturevalue("compiled")
    _clear_caches()
    used = []

    def recording(owner, name):
        build = getattr(owner, name)

        def call(*args, **kwargs):
            result = build(*args, **kwargs)
            used.append((build, args, kwargs, result))
            return result

        monkeypatch.setattr(owner, name, call)

    for name in BUILDERS:
        recording(problems, name)
    recording(expected, "construct")
    for kind, p, engine in SOLVES:
        solve(Problem(kind, p, engine), backend=backend)
        expected.expected_classes(kind, p)
    built = {build.__wrapped__.__name__ for build, _, _, _ in used}
    assert built == {*BUILDERS, "construct"}
    for build, args, kwargs, result in used:
        assert build(*args, **kwargs) is result, (build.__wrapped__.__name__, args)
        assert build.__wrapped__(*args, **kwargs) == result, (build.__wrapped__.__name__, args)
        if build is not construct:
            assert all(_frozen(getattr(result, f)) for f in type(result).__slots__), args


def _stable(result) -> list:
    """A verify result's rows, every report field but ``elapsed``."""
    fields = [f for f in SearchReport.__slots__ if f != "elapsed"]
    return [
        (row.params, row.skipped, row.bound_ok, row.classes_ok,
         row.report and tuple(getattr(row.report, f) for f in fields))
        for row in result.rows
    ]


@pytest.mark.parametrize("theorem,grid,engine", GRIDS)
def test_warm_and_threaded_grids_match_a_cold_one(theorem, grid, engine):
    _clear_caches()
    cold = _stable(verify_grid(theorem, grid, engine))
    assert cold == _stable(verify_grid(theorem, grid, engine))
    _clear_caches()  # both threads meet an empty cache
    assert cold == _stable(verify_grid(theorem, grid, engine, threads=2))


@pytest.mark.parametrize("build,args,message", [
    (tables.build_pair_tables, (10, 4, 4, None, False), "candidate universe C(10,4) = 210"),
    (tables.build_union_tables, (8, 4, None), "the 163 subsets of [8]"),
    (tables.build_diversity_tables, (10, 4), "C(9,3) = 84 star members"),
    (construct, (ConstructionId("J_kr", Params(n=9, k=3, r=2)),), "1 <= r <= k-2"),
])
def test_failed_builds_are_never_cached(build, args, message):
    error = ParamRangeError if build is construct else InfeasibleInstanceError
    size = build.cache_info().currsize
    seen = set()
    for _ in range(2):
        with pytest.raises(error) as exc:
            build(*args)
        seen.add(str(exc.value))
    assert len(seen) == 1 and message in seen.pop()
    assert build.cache_info().currsize == size

