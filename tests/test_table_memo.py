"""The candidate tables, the expected constructions and the isomorphism
layer are computed once per process: ``build_pair_tables``,
``build_union_tables``, ``build_diversity_tables``, ``construct``,
``_element_signatures``, ``_search_plan`` and ``are_isomorphic`` are
memoized.  Every caller of one key then shares one object, so these tests
hold the memo to a read-only contract and check that a warm cache, or one
filled by several threads at once, changes no report.  The partner search's
orbit rows (``pykern._orbits``), which each search fills in on first use,
are cleared with the rest for the cold runs."""

import re

import pytest
from conftest import random_family

from setfam.bounds import Params
from setfam.constructions import ConstructionId, construct
from setfam.engines import pykern
from setfam.errors import InfeasibleInstanceError, ParamRangeError, UniverseMismatchError
from setfam import family
from setfam.family import (
    Family,
    _element_signatures,
    _search_plan,
    apply_permutation,
    are_isomorphic,
)
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
    # the four grids of the benchmark's verify-shifted workload and the
    # shifted diversity grid: their classes and expected matches go through
    # the isomorphism memo
    ("main1", "k=3;t=0,1;n=7..9;r=1..5", "shifted"),
    ("main1", "k=3;t=0;n=10;r=1..6", "shifted"),
    ("w23", "k=3;t=0,1;n=2k+t+1..2k+t+2", "shifted"),
    ("f16", "k=3;t=0;n=7..8", "shifted"),
    ("diversity", "k=3;n=7..9;r=1..n-k", "shifted"),
]


def _clear_caches() -> None:
    for name in BUILDERS:
        getattr(tables, name).cache_clear()
    construct.cache_clear()
    _element_signatures.cache_clear()
    _search_plan.cache_clear()
    are_isomorphic.cache_clear()
    pykern._orbits.cache_clear()


def _frozen(value) -> bool:
    """An int, None, or a tuple of ints."""
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


def test_memoized_isomorphism_matches_the_uncached_search(rng):
    """On random pairs and random relabelings, in both argument orders, a
    cold and a warm call give the certificate of the uncached search, and
    every signature the memo holds is a tuple of tuples."""
    _clear_caches()
    search = are_isomorphic.__wrapped__
    for _ in range(120):
        n = rng.randint(2, 7)
        F = random_family(rng, n, max_size=8)
        if rng.random() < 0.5:
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            G = apply_permutation(F, tuple(perm))
        else:
            G = random_family(rng, n, max_size=8)
        for a, b in ((F, G), (G, F)):
            fresh = search(a, b)
            assert are_isomorphic(a, b) == fresh and are_isomorphic(a, b) == fresh
            if fresh:
                assert apply_permutation(a, fresh.permutation) == b
        for fam in (F, G):
            sig = _element_signatures(fam)
            assert isinstance(sig, tuple) and len(sig) == n
            assert all(isinstance(row, tuple) and all(isinstance(p, tuple) for p in row)
                       for row in sig)
    assert are_isomorphic.cache_info().hits > 0


@pytest.mark.parametrize("args,error,message", [
    ((Family.of_sets(5, [(1, 2)]), Family.of_sets(6, [(1, 2)])),
     UniverseMismatchError, "universe mismatch: 5 vs 6"),
    ((Family.of_sets(13, [(1, 2)]), Family.of_sets(13, [(2, 3)])),
     InfeasibleInstanceError, "isomorphism search exceeded its budget of 5 steps (n=13)"),
])
def test_failed_isomorphism_searches_are_never_cached(monkeypatch, args, error, message):
    """No verdict is kept for a search that raised.  The search that runs out
    of its budget has computed both families' signatures first, and only
    those are kept."""
    monkeypatch.setattr(family, "ISO_STEP_BUDGET", 5)  # 13 elements need 13 steps
    sizes = (are_isomorphic.cache_info().currsize, _element_signatures.cache_info().currsize)
    for _ in range(2):
        with pytest.raises(error, match=re.escape(message)):
            are_isomorphic(*args)
    signed = 0 if error is UniverseMismatchError else 2
    assert (are_isomorphic.cache_info().currsize,
            _element_signatures.cache_info().currsize) == (sizes[0], sizes[1] + signed)
