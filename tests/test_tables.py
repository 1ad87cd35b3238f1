"""Exactness of the bitset table layer against the pairwise definitions."""

from math import comb

import pytest

from setfam.engines import pykern
from setfam.errors import InfeasibleInstanceError
from setfam.family import is_t_intersecting
from setfam.search.problems import enumerate_shifted
from setfam.search.tables import (
    build_diversity_tables,
    build_pair_tables,
    build_union_tables,
    dominance_succ,
    layer_masks,
)
from setfam.shifting import dominates


def _bitset(indices) -> int:
    bits = 0
    for j in indices:
        bits |= 1 << j
    return bits


# every (n, k) with C(n, k) <= 128 and 2 <= k <= n - 2 has n <= 16; the
# k in {0, 1, n - 1, n} layers are chains or single sets at any n
DOMINANCE_CASES = [
    (n, k) for n in range(1, 17) for k in range(n + 1) if comb(n, k) <= 128
]


@pytest.mark.parametrize("n,k", DOMINANCE_CASES)
def test_dominance_pred_matches_pairwise_definition(n, k):
    """The succ rows hold the dominance order: j is in succ[i] exactly when
    masks[j] dominates masks[i], that is when i is a predecessor of j."""
    masks = layer_masks(n, k)
    assert dominance_succ(masks) == tuple(
        _bitset(j for j, b in enumerate(masks) if j != i and dominates(b, a))
        for i, a in enumerate(masks)
    )


@pytest.mark.parametrize("n,k", [(n, k) for n, k in DOMINANCE_CASES if n <= 10])
def test_dominance_succ_is_pred_transposed(n, k):
    """The shifted pair tables carry the order as succ rows alone: the
    pairwise predecessor rows, transposed."""
    masks = layer_masks(n, k)
    pred = [
        _bitset(j for j in range(len(masks)) if j != i and dominates(a, masks[j]))
        for i, a in enumerate(masks)
    ]
    tabs = build_pair_tables(n, k, None, None, shifted=True)
    assert tabs.succ == tuple(
        _bitset(j for j in range(len(masks)) if pred[j] >> i & 1) for i in range(len(masks))
    )


# the shifted pair tables of the callers at n <= 7, as (n, f_size, g_size,
# t_inter): hemibundled_max (n, k, t) builds (n, k + t, k, t + 1) and the
# shifted diversity engine (n, k) builds (n, k, None, 1)
SHIFTED_CALLER_TABLES = [
    (n, k + t, k, t + 1) for n in range(2, 8) for k in range(1, n) for t in range(n - k)
] + [(n, k, None, 1) for n in range(2, 8) for k in range(1, n)]


@pytest.mark.parametrize("n,f_size,g_size,t_inter", SHIFTED_CALLER_TABLES)
def test_shifted_callers_meet_the_order_rows_precondition(n, f_size, g_size, t_inter):
    """The partner search drops only ``succ`` rows to stay in down-sets, which
    is exact under the precondition of :mod:`setfam.engines.pykern`: for
    every t-intersecting down-set C, a candidate compatible with all of C
    has each of its dominance predecessors compatible with all of C."""
    tabs = build_pair_tables(n, f_size, g_size, t_inter, shifted=True)
    m = len(tabs.cands)
    index = {a: i for i, a in enumerate(tabs.cands)}
    pred = [_bitset(j for j in range(m) if tabs.succ[j] >> i & 1) for i in range(m)]
    families = enumerate_shifted(n, f_size, predicate=lambda F: is_t_intersecting(F, t_inter))
    for fam in families:
        allowed = (1 << m) - 1  # the candidates compatible with all of C, C among them
        for a in fam.members:
            allowed &= tabs.compat[index[a]]
        for i in range(m):
            if allowed >> i & 1:
                assert not pred[i] & ~allowed, (fam, tabs.cands[i])


PAIR_CASES = [
    # (n, f_size, g_size, t_inter)
    (4, 2, 2, None),
    (5, 2, 2, 1),
    (6, 3, 3, 2),
    (7, 3, 3, 1),
    (7, 4, 3, 2),
    (8, 3, 3, None),
    (8, 4, 3, 2),
    (9, 5, 3, 3),
    (10, 3, 3, 1),
    (9, 4, 3, 2),
    (6, 2, 4, 0),
    (7, 3, 2, 3),
]


@pytest.mark.parametrize("n,f_size,g_size,t_inter", PAIR_CASES)
def test_pair_tables_match_pairwise_definitions(n, f_size, g_size, t_inter):
    tabs = build_pair_tables(n, f_size, g_size, t_inter, shifted=False)
    cands, gmasks = tabs.cands, tabs.gmasks
    assert tabs.kill == tuple(
        _bitset(j for j, g in enumerate(gmasks) if not a & g) for a in cands
    )
    if t_inter is None:
        assert tabs.compat is None
    else:
        assert tabs.compat == tuple(
            _bitset(j for j, b in enumerate(cands) if (a & b).bit_count() >= t_inter)
            for a in cands
        )
    if f_size == g_size:  # a capped search needs the partner universe to be the candidates
        assert tabs.cands == tabs.gmasks
    assert tabs.succ == (0,) * len(cands)  # no order: the orbit rule breaks symmetry


@pytest.mark.parametrize("n,k", [(4, 2), (5, 2), (6, 3), (7, 3), (8, 3), (8, 4), (9, 3)])
def test_diversity_tables_match_pairwise_definitions(n, k):
    tabs = build_diversity_tables(n, k)
    hmasks, amasks = tabs.hmasks, tabs.amasks
    assert tabs.hcompat == tuple(
        _bitset(j for j, b in enumerate(hmasks) if a & b) for a in hmasks
    )
    assert tabs.akill == tuple(
        _bitset(j for j, a in enumerate(amasks) if not h & a) for h in hmasks
    )
    assert tabs.avoid_a == (0,) + tuple(
        _bitset(j for j, a in enumerate(amasks) if not a >> (e - 1) & 1)
        for e in range(1, n + 1)
    )


def _closure_orbits(n: int, hmasks: list[int], blocks: list[int]) -> tuple[int, ...]:
    """Row i the bitset of the candidates that transpositions of two
    elements in one part of [n] carry candidate i to, part by part: the
    parts are cut out by the element masks ``blocks``."""
    key = [tuple(b >> e & 1 for b in blocks) for e in range(n)]
    swaps = [(x, y) for x in range(n) for y in range(x + 1, n) if key[x] == key[y]]
    index = {m: i for i, m in enumerate(hmasks)}
    rows = [1 << i for i in range(len(hmasks))]
    changed = True
    while changed:  # merge along every swap until nothing grows
        changed = False
        for i, m in enumerate(hmasks):
            for x, y in swaps:
                if (m >> x ^ m >> y) & 1:
                    j = index[m ^ (1 << x | 1 << y)]
                    if rows[i] != rows[j]:
                        rows[i] = rows[j] = rows[i] | rows[j]
                        changed = True
    return tuple(rows)


@pytest.mark.parametrize("n,k", [(n, k) for n in range(7, 11) for k in (3, 4)])
def test_diversity_orbit_rows_match_transposition_closure(n, k):
    """The orbit rule of the partner search on the diversity H candidates,
    at the root, the anchor's node, each node below it, and one path down
    to a trivial group: at a node with chosen members B_1, ..., the orbit
    of every candidate is its closure under the transpositions that fix
    element 1 and every B_j setwise."""
    hmasks = tuple(m for m in layer_masks(n, k) if not m & 1)
    rule = pykern._Orbits(hmasks)
    if comb(n - 1, k - 1) <= 64:
        assert tuple(build_diversity_tables(n, k).hmasks) == hmasks

    def check(path) -> bool:
        """Whether the group at the node of ``path`` is still nontrivial."""
        atoms = rule.root
        for b in path:
            atoms = atoms and rule.step(atoms, rule.node(atoms), b)[1]
        closure = _closure_orbits(n, hmasks, [1, *(hmasks[b] for b in path)])
        if atoms is None:
            assert closure == tuple(1 << i for i in range(len(hmasks))), path
            return False
        steps = rule.node(atoms)
        orbits = tuple((steps[i] or rule.step(atoms, steps, i))[0] for i in range(len(hmasks)))
        assert orbits == closure, path
        return True

    assert check(()) and check((0,))
    for b in range(1, len(hmasks)):
        assert check((0, b))
    path = [0]
    while check(path):  # down to a trivial group: the anchor, then the top candidates
        path.append(len(hmasks) - len(path))
    assert len(path) > 3


@pytest.mark.parametrize(
    "n,s,layer", [(4, 2, None), (5, 3, 2), (6, 4, 3), (7, 5, 3), (8, 3, None), (12, 2, None)]
)
def test_union_tables_match_pairwise_definitions(n, s, layer):
    tabs = build_union_tables(n, s, layer)
    vmasks = tabs.vmasks
    # with a constrained layer, only the anchor {1..layer} and its neighbours
    anchor = 0 if layer is None else (1 << layer) - 1
    # descending masks: the kernel's walk, from the top index down, meets small sets first
    assert vmasks == tuple(
        sorted((m for m in range(1 << n) if (m | anchor).bit_count() <= s), reverse=True)
    )
    assert tabs.adj == tuple(
        _bitset(j for j, b in enumerate(vmasks) if j != i and (a | b).bit_count() <= s)
        for i, a in enumerate(vmasks)
    )
    assert tabs.sup == tuple(
        _bitset(j for j, b in enumerate(vmasks) if a != b and a & b == a) for a in vmasks
    )
    assert tabs.layer == _bitset(i for i, a in enumerate(vmasks) if a.bit_count() == layer)


def test_union_tables_count_the_vertices_they_would_hold():
    # sum_{i <= s} C(n, i) vertices, at most 128 of them
    for n, s, count in [(7, 7, 128), (8, 3, 93), (15, 2, 121)]:
        assert len(build_union_tables(n, s, None).vmasks) == count
    for n, s, count in [(8, 4, 163), (16, 2, 137), (9, 3, 130)]:
        with pytest.raises(InfeasibleInstanceError, match=f"^the {count} subsets of \\[{n}\\] "):
            build_union_tables(n, s, None)


def _symmetric(rows: list[int]) -> bool:
    return all(
        (row >> j & 1) == (rows[j] >> i & 1) for i, row in enumerate(rows) for j in range(len(rows))
    )


def test_compatibility_rows_are_symmetric():
    # pair_bnb and diversity_bnb narrow the candidates to the new member's
    # row and never test a chosen member against a later one
    checked = 0
    for n in range(2, 10):
        for f in range(1, n + 1):
            if comb(n, f) > 128:
                continue
            for t_inter in range(1, f + 1):
                tabs = build_pair_tables(n, f, None, t_inter, shifted=False)
                assert _symmetric(tabs.compat), (n, f, t_inter)
                checked += 1
        for k in range(2, n):
            if comb(n - 1, k) <= 128 and comb(n - 1, k - 1) <= 64:
                assert _symmetric(build_diversity_tables(n, k).hcompat), (n, k)
                checked += 1
    assert checked > 100
