"""The s-union clique search against an independent oracle.

The clique kernel looks only for down-sets: once its walk has passed over a
vertex, it drops the supersets of that vertex from the candidates.  The
oracle makes no such cut.  It lists every maximal clique of the union graph
with a plain Bron–Kerbosch search, keeps the ones that meet the side
constraint by its definition, and takes the largest.  Maximum feasible
families are maximal cliques because both side constraints survive adding
members.  The optimum, ``maximizer_count`` and the set of maximizer
families must agree with the oracle on every backend.
"""

from dataclasses import replace
from functools import lru_cache

import pytest

from setfam.bounds import Params
from setfam.search import Problem, problems, solve, tables


def _maximal_cliques(adj: list[int]) -> list[int]:
    """Every maximal clique, as a vertex bitset (Bron–Kerbosch with pivot)."""
    out = []

    def extend(clique: int, p: int, x: int) -> None:
        if not p and not x:
            out.append(clique)
            return
        pivots = [u for u in range(len(adj)) if (p | x) >> u & 1]
        pivot = max(pivots, key=lambda u: (p & adj[u]).bit_count())
        rest = p & ~adj[pivot]
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            extend(clique | low, p & adj[v], x & adj[v])
            p ^= low
            x |= low

    extend(0, (1 << len(adj)) - 1, 0)
    return out


def _feasible(kind: str, p: Params, members: list[int]) -> bool:
    """The side constraint on the members of size d + 1, d = s // 2: at
    least r of them for even s, diversity at least r for odd s."""
    if kind == "s_union_max":
        return True
    top = [a for a in members if a.bit_count() == p.s // 2 + 1]
    if p.s % 2 == 0:
        return len(top) >= p.r
    degree = max((sum(a >> e & 1 for a in top) for e in range(p.n)), default=0)
    return len(top) - degree >= p.r


@lru_cache(maxsize=None)
def _oracle(kind: str, p: Params) -> tuple[int, frozenset]:
    """(optimum, the maximizers as sorted member tuples)."""
    sets = [a for a in range(1 << p.n) if a.bit_count() <= p.s]
    adj = [
        sum(1 << j for j, b in enumerate(sets) if j != i and (a | b).bit_count() <= p.s)
        for i, a in enumerate(sets)
    ]
    best, found = -1, set()
    for clique in _maximal_cliques(adj):
        members = [a for i, a in enumerate(sets) if clique >> i & 1]
        if not _feasible(kind, p, members) or len(members) < best:
            continue
        if len(members) > best:
            best, found = len(members), set()
        found.add(tuple(sorted(members)))
    return best, frozenset(found)


# every s_union_max instance with n <= 6 (the bound needs 2 <= s <= n - 2)
CASES = [("s_union_max", Params(n=n, s=s)) for n in range(4, 7) for s in range(2, n - 1)] + [
    ("s_union_conditioned_max", Params(n=6, s=4, r=r)) for r in (1, 2)
]


def _ascending(tabs: tables.CliqueTables) -> tables.CliqueTables:
    """The same graph with the vertices numbered in ascending mask order."""
    top = len(tabs.vmasks) - 1

    def flip(x: int) -> int:
        return sum(1 << top - i for i in range(top + 1) if x >> i & 1)

    return replace(
        tabs,
        vmasks=tabs.vmasks[::-1],
        adj=[flip(a) for a in reversed(tabs.adj)],
        sup=[flip(u) for u in reversed(tabs.sup)],
        layer=flip(tabs.layer),
    )


IDS = [f"{kind}-n{p.n}-s{p.s}" + (f"-r{p.r}" if p.r else "") for kind, p in CASES]


@pytest.mark.parametrize("backend", ["python", "compiled"])
@pytest.mark.parametrize("kind,p", CASES, ids=IDS)
def test_down_set_clique_search_matches_the_oracle(request, backend, kind, p):
    if backend == "compiled":
        request.getfixturevalue("compiled")
    best, families = _oracle(kind, p)
    rep = solve(Problem(kind, p, "clique"), backend=backend)
    assert (rep.optimum, rep.maximizer_count) == (best, len(families))
    _, found, _ = problems._solve_union(kind, p, backend, None)
    assert sorted(tuple(sorted(f.members)) for f in found) == sorted(families)


@pytest.mark.parametrize("backend", ["python", "compiled"])
@pytest.mark.parametrize("kind,p", CASES, ids=IDS)
def test_down_set_pruning_holds_in_any_vertex_order(request, monkeypatch, backend, kind, p):
    """Dropping the supersets of a vertex passed over is sound in any
    numbering.  In the tables' descending order a strict subset of v always
    sits in a later colour class than v, so the walk reaches it first.
    Numbered ascending, the walk can reach a set before its subsets, so a
    cut that also dropped subsets would lose maximizers here."""
    if backend == "compiled":
        request.getfixturevalue("compiled")
    build = tables.build_union_tables
    monkeypatch.setattr(problems, "build_union_tables", lambda *args: _ascending(build(*args)))
    best, families = _oracle(kind, p)
    found_best, found, _ = problems._solve_union(kind, p, backend, None)
    assert found_best == best
    assert sorted(tuple(sorted(f.members)) for f in found) == sorted(families)
