"""Exactness of the bitset table layer against the pairwise definitions."""

from math import comb

import pytest

from setfam.errors import InfeasibleInstanceError
from setfam.search.tables import (
    build_diversity_tables,
    build_pair_tables,
    build_union_tables,
    dominance_pred,
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
    masks = layer_masks(n, k)
    expected = [
        _bitset(j for j in range(len(masks)) if j != i and dominates(a, masks[j]))
        for i, a in enumerate(masks)
    ]
    assert dominance_pred(masks) == expected


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
    assert tabs.kill == [
        _bitset(j for j, g in enumerate(gmasks) if not a & g) for a in cands
    ]
    if t_inter is None:
        assert tabs.compat is None
    else:
        assert tabs.compat == [
            _bitset(j for j, b in enumerate(cands) if (a & b).bit_count() >= t_inter)
            for a in cands
        ]
    if f_size == g_size:  # a capped search needs the partner universe to be the candidates
        assert tabs.cands == tabs.gmasks
    assert tabs.pred == [0] + [1] * (len(cands) - 1)  # every family contains candidate 0


@pytest.mark.parametrize("n,k", [(4, 2), (5, 2), (6, 3), (7, 3), (8, 3), (8, 4), (9, 3)])
def test_diversity_tables_match_pairwise_definitions(n, k):
    tabs = build_diversity_tables(n, k)
    hmasks, amasks = tabs.hmasks, tabs.amasks
    assert tabs.hcompat == [
        _bitset(j for j, b in enumerate(hmasks) if a & b) for a in hmasks
    ]
    assert tabs.akill == [
        _bitset(j for j, a in enumerate(amasks) if not h & a) for h in hmasks
    ]
    assert tabs.avoid_a == [0] + [
        _bitset(j for j, a in enumerate(amasks) if not a >> (e - 1) & 1)
        for e in range(1, n + 1)
    ]


@pytest.mark.parametrize(
    "n,s,layer", [(4, 2, None), (5, 3, 2), (6, 4, 3), (7, 5, 3), (8, 3, None), (12, 2, None)]
)
def test_union_tables_match_pairwise_definitions(n, s, layer):
    tabs = build_union_tables(n, s, layer)
    vmasks = tabs.vmasks
    # descending masks: the kernel's walk, from the top index down, meets small sets first
    assert vmasks == sorted((m for m in range(1 << n) if m.bit_count() <= s), reverse=True)
    assert tabs.adj == [
        _bitset(j for j, b in enumerate(vmasks) if j != i and (a | b).bit_count() <= s)
        for i, a in enumerate(vmasks)
    ]
    assert tabs.sup == [
        _bitset(j for j, b in enumerate(vmasks) if a != b and a & b == a) for a in vmasks
    ]
    assert tabs.layer == _bitset(i for i, a in enumerate(vmasks) if a.bit_count() == layer)


def test_union_tables_count_the_vertices_they_would_hold():
    # sum_{i <= s} C(n, i) vertices, at most 128 of them
    for n, s, count in [(7, 7, 128), (8, 3, 93), (15, 2, 121)]:
        assert len(build_union_tables(n, s, None).vmasks) == count
    for n, s, count in [(8, 4, 163), (16, 2, 137), (9, 3, 130)]:
        with pytest.raises(InfeasibleInstanceError, match=f"^the {count} subsets of \\[{n}\\] "):
            build_union_tables(n, s, None)
