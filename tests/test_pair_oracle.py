"""The brute pair kinds against an independent oracle.

The oracle scores every subset F of the layer by the problem's definition,
with plain bitmask loops, and classifies the maximizers by trying all n!
relabelings.  ``solve(..., "brute")`` searches only the families that
contain the least candidate and recovers labeled counts by double
counting; optimum, ``maximizer_count``, representatives and class sizes
must agree with the oracle on every backend, and, on larger instances, with
the search over every labeled family.
"""

from functools import lru_cache
from itertools import combinations
from math import comb

import pytest
from conftest import are_isomorphic_bruteforce

from setfam.bounds import Params
from setfam.errors import InfeasibleInstanceError, ParamRangeError
from setfam.family import Family
from setfam.search import Problem, bound_for, problems, solve, tables

MAX_LAYER = 15  # at most 2^15 families F per instance


def _layer(n: int, j: int) -> list[int]:
    return sorted(sum(1 << (e - 1) for e in c) for c in combinations(range(1, n + 1), j))


def _bitset(indices) -> int:
    return sum(1 << i for i in indices)


@lru_cache(maxsize=None)
def _oracle(kind: str, p: Params):
    """(optimum, labeled maximizer count, [(least pair, class size)])."""
    j = p.k + p.t if kind == "hemibundled_max" else p.k
    cands, partners = _layer(p.n, j), _layer(p.n, p.k)
    meets = [_bitset(b for b, g in enumerate(partners) if a & g) for a in cands]
    depth = p.t + 1 if kind == "hemibundled_max" else 0
    close = [_bitset(b for b, c in enumerate(cands) if (a & c).bit_count() >= depth) for a in cands]
    # partner[F] and "F pairwise close" for every subset F, each from F minus its lowest member
    partner = [(1 << len(partners)) - 1] * (1 << len(cands))
    pairwise = [True] * (1 << len(cands))
    best, found = -1, []
    for chosen in range(1, 1 << len(cands)):
        low = chosen & -chosen
        rest, i = chosen ^ low, low.bit_length() - 1
        g = partner[chosen] = partner[rest] & meets[i]
        pairwise[chosen] = pairwise[rest] and not rest & ~close[i]
        f, gsize = chosen.bit_count(), g.bit_count()
        if kind == "hemibundled_max":
            ok = pairwise[chosen] and f >= p.r
        elif kind == "cross_pair_max":
            ok = p.r <= f <= gsize and gsize >= p.r
        else:  # cross_pair_capped: G gives up its members shared with F beyond r - 1
            gsize -= max(0, (chosen & g).bit_count() - (p.r - 1))  # one layer, same indices
            ok = f >= p.r and gsize >= p.r
        if ok and f + gsize >= best:
            if f + gsize > best:
                best, found = f + gsize, []
            found.append(chosen)
    pairs = []
    for chosen in found:
        fmasks = [a for i, a in enumerate(cands) if chosen >> i & 1]
        gmasks = [g for b, g in enumerate(partners) if partner[chosen] >> b & 1]
        if kind == "cross_pair_capped":  # the lowest shared members are dropped
            shared = [g for g in gmasks if g in fmasks]
            drop = set(shared[: max(0, len(shared) - (p.r - 1))])
            gmasks = [g for g in gmasks if g not in drop]
        pairs.append((Family(p.n, tuple(fmasks)), Family(p.n, tuple(gmasks))))
    classes = []  # [representative pair, size]; pairs sorted, so reps are least
    for pair in sorted(pairs, key=lambda fg: (fg[0].members, fg[1].members)):
        for cls in classes:
            if are_isomorphic_bruteforce(cls[0][0], pair[0]):
                cls[1] += 1
                break
        else:
            classes.append([pair, 1])
    return best, len(pairs), [tuple(c) for c in classes]


def _cases():
    for n in range(2, 7):
        for k in range(1, n + 1):
            for r in range(0, n + 1):
                for t in range(0, n - k + 1):
                    if comb(n, k + t) <= MAX_LAYER:
                        yield "hemibundled_max", Params(n=n, k=k, t=t, r=r)
                if comb(n, k) <= MAX_LAYER:
                    yield "cross_pair_max", Params(n=n, k=k, r=r)
                    yield "cross_pair_capped", Params(n=n, k=k, r=r)


def _valid(kind: str, p: Params) -> bool:
    try:
        bound_for(kind, p)
    except ParamRangeError:
        return False
    return True


def _ids(cases) -> list[str]:
    return [
        f"{kind}-" + "-".join(f"{f}{getattr(p, f)}" for f in "nktr" if getattr(p, f) is not None)
        for kind, p in cases
    ]


CASES = [(kind, p) for kind, p in _cases() if _valid(kind, p)]


@pytest.mark.parametrize("backend", ["python", "compiled"])
@pytest.mark.parametrize("kind,p", CASES, ids=_ids(CASES))
def test_brute_pair_search_matches_the_oracle(request, backend, kind, p):
    if backend == "compiled":
        request.getfixturevalue("compiled")
    best, count, classes = _oracle(kind, p)
    if best < 0:
        with pytest.raises(InfeasibleInstanceError, match="no admissible family"):
            solve(Problem(kind, p, "brute"), backend=backend)
        return
    rep = solve(Problem(kind, p, "brute"), backend=backend)
    assert rep.optimum == best
    assert rep.maximizer_count == count
    assert [(c.representative, c.size) for c in rep.classes] == classes


UNREDUCED = [
    ("hemibundled_max", Params(n=7, k=2, t=1, r=1)),
    ("hemibundled_max", Params(n=7, k=2, t=1, r=3)),
    ("hemibundled_max", Params(n=8, k=2, t=1, r=2)),
    ("hemibundled_max", Params(n=7, k=3, t=0, r=2)),
    ("hemibundled_max", Params(n=8, k=3, t=1, r=2)),
    ("cross_pair_max", Params(n=7, k=2, r=2)),
    ("cross_pair_max", Params(n=7, k=3, r=1)),
    ("cross_pair_capped", Params(n=7, k=2, r=1)),
    ("cross_pair_capped", Params(n=6, k=2, r=2)),
]


@pytest.mark.parametrize("kind,p", UNREDUCED, ids=_ids(UNREDUCED))
def test_reduced_brute_search_matches_the_unreduced_one(compiled, monkeypatch, kind, p):
    """Past the oracle's sizes, and where the two layers of hemibundled
    pairs differ in size (n > 2k + t), compare with the search over every
    labeled family, whose maximizers are counted one by one."""
    reduced = solve(Problem(kind, p, "brute"))

    def unreduced_tables(*args, **kwargs):
        t = tables.build_pair_tables(*args, **kwargs)
        return tables.PairTables(t.n, t.cands, t.gmasks, t.compat, [0] * len(t.cands), t.kill)

    monkeypatch.setattr(problems, "build_pair_tables", unreduced_tables)
    monkeypatch.setattr(problems, "_labeled_classes", lambda classes, n: classes)
    full = solve(Problem(kind, p, "brute"))
    assert full.nodes > reduced.nodes
    assert (reduced.optimum, reduced.maximizer_count) == (full.optimum, full.maximizer_count)
    assert reduced.classes == full.classes
