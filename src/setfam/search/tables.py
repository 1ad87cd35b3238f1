"""Candidate tables consumed by the search kernels.

Layer candidates are sorted by numeric bit-vector value; for equal-size
sets that order is a linear extension of coordinatewise dominance, which is
what lets the down-set (shifted family) traversal decide predecessors
before successors.  The s-union clique vertices run the other way (see
:func:`build_union_tables`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

from ..errors import InfeasibleInstanceError
from ..family import elements_of, layer_masks
from ..shifting import dominates

MAX_CANDIDATES = 128  # the width of the C kernels' bitsets
# Lower than the bitset width on purpose: at 128, the diversity clique rows
# k=4, n=10, r=1..3 (84 star members) each ran out of a 60 s budget after
# over 100M compiled-kernel nodes instead of failing at once.
MAX_AMEMBERS = 64


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise InfeasibleInstanceError(msg)


def dominance_pred(masks: list[int]) -> list[int]:
    """pred[i] is the bitset of the indices j != i whose set masks[i]
    coordinatewise dominates; ``masks`` is a full layer sorted by value.

    Dominance on k-sets is the transitive closure of single moves x -> x-1
    onto a free element, and such a move lowers the mask value, so every
    one-move predecessor is listed before its successor and pred[i] is the
    union of pred[j] | 1 << j over the at most k one-move predecessors j.
    """
    index = {a: i for i, a in enumerate(masks)}
    pred = []
    for a in masks:
        bits = 0
        movable = a & ~(a << 1) & ~1  # elements x in a with x-1 free, x >= 2
        while movable:
            low = movable & -movable
            movable ^= low
            j = index[a - (low >> 1)]
            bits |= pred[j] | 1 << j
        pred.append(bits)
    return pred


def overlap_table(masks: list[int], others: list[int], n: int, t: int) -> list[int]:
    """Row i is the bitset of the indices j with |masks[i] & others[j]| >= t.

    Built from per-element containment bitsets: the row is the OR over the
    t-subsets of masks[i] of the AND of their elements' bitsets.
    """
    contains = [0] * (n + 1)
    for j, b in enumerate(others):
        for e in elements_of(b):
            contains[e] |= 1 << j
    full = (1 << len(others)) - 1
    rows = []
    for a in masks:
        bits = 0
        for sub in itertools.combinations(elements_of(a), t):
            both = full
            for e in sub:
                both &= contains[e]
            bits |= both
        rows.append(bits)
    return rows


def disjoint_table(masks: list[int], others: list[int], n: int) -> list[int]:
    """Row i is the bitset of the indices j with masks[i] & others[j] empty."""
    full = (1 << len(others)) - 1
    return [full ^ bits for bits in overlap_table(masks, others, n, 1)]


@dataclass(frozen=True)
class PairTables:
    n: int
    cands: list[int]       # F-side candidate masks
    gmasks: list[int]      # partner universe masks
    compat: list[int] | None
    pred: list[int]
    kill: list[int]


def build_pair_tables(
    n: int,
    f_size: int,
    g_size: int | None,
    t_inter: int | None,
    shifted: bool,
) -> PairTables:
    """F-candidates are the f_size-subsets of [n], partner universe the
    g_size-subsets, or nothing when g_size is None (every ``kill`` row is
    then empty).  ``t_inter`` (when given) restricts F to pairwise
    intersections of at least that depth.

    ``pred`` makes every candidate but the least one require candidate 0,
    so the kernel searches only the families that contain it.  The pair
    objectives and constraints are unchanged by relabeling and S_n is
    transitive on the f_size-sets, so every non-empty family has a
    relabeling that contains candidate 0: the optimum is unchanged, and the
    callers recover labeled maximizer counts by double counting.  With
    ``shifted`` it is the dominance order instead (down-sets, the shifted
    families), which already puts candidate 0 below every other candidate.
    """
    cands = layer_masks(n, f_size)
    gmasks = [] if g_size is None else layer_masks(n, g_size)
    m = len(cands)
    _require(m <= MAX_CANDIDATES, f"candidate universe C({n},{f_size}) = {m} exceeds {MAX_CANDIDATES}")
    _require(
        len(gmasks) <= MAX_CANDIDATES,
        f"partner universe C({n},{g_size}) = {len(gmasks)} exceeds {MAX_CANDIDATES}",
    )
    compat = overlap_table(cands, cands, n, t_inter) if t_inter is not None else None
    pred = dominance_pred(cands) if shifted else [0] + [1] * (m - 1)
    kill = disjoint_table(cands, gmasks, n) if gmasks else [0] * m
    return PairTables(n, cands, gmasks, compat, pred, kill)


@dataclass(frozen=True)
class CliqueTables:
    n: int
    vmasks: list[int]
    adj: list[int]
    sup: list[int]        # sup[v]: the vertices whose sets strictly contain v's
    layer: int            # vertex bitset of the constrained layer


def build_union_tables(n: int, s: int, constrained_layer: int | None) -> CliqueTables:
    """Vertices are all subsets of [n] with at most s elements; edges join
    pairs whose union stays within s elements.

    Vertices are numbered in descending mask order, so the clique kernel,
    which walks from the top index down, reaches the small sets first.
    """
    nv = sum(comb(n, i) for i in range(min(s, n) + 1))
    _require(
        nv <= MAX_CANDIDATES,
        f"the {nv} subsets of [{n}] with at most {s} elements exceed {MAX_CANDIDATES} vertices",
    )
    vmasks = sorted((m for i in range(min(s, n) + 1) for m in layer_masks(n, i)), reverse=True)
    adj = [0] * nv
    sup = [0] * nv
    for i in range(nv):
        for j in range(i + 1, nv):
            union = vmasks[i] | vmasks[j]
            if union.bit_count() <= s:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
                if union == vmasks[i]:  # a strict subset has the smaller mask
                    sup[j] |= 1 << i
    layer = 0
    if constrained_layer is not None:
        for i, m in enumerate(vmasks):
            if m.bit_count() == constrained_layer:
                layer |= 1 << i
    return CliqueTables(n, vmasks, adj, sup, layer)


@dataclass(frozen=True)
class DiversityTables:
    n: int
    hmasks: list[int]     # candidates avoiding element 1
    amasks: list[int]     # candidates containing element 1
    hcompat: list[int]
    akill: list[int]
    avoid_a: list[int]    # indexed by element, A-candidates avoiding it


def build_diversity_tables(n: int, k: int) -> DiversityTables:
    layer = layer_masks(n, k)
    hmasks = [m for m in layer if not m & 1]
    amasks = [m for m in layer if m & 1]
    _require(
        len(hmasks) <= MAX_CANDIDATES,
        f"C({n - 1},{k}) = {len(hmasks)} candidates exceed {MAX_CANDIDATES}",
    )
    _require(
        len(amasks) <= MAX_AMEMBERS,
        f"C({n - 1},{k - 1}) = {len(amasks)} star members exceed {MAX_AMEMBERS}",
    )
    hcompat = overlap_table(hmasks, hmasks, n, 1)
    akill = disjoint_table(hmasks, amasks, n)
    avoid_a = [0] + disjoint_table([1 << e for e in range(n)], amasks, n)
    return DiversityTables(n, hmasks, amasks, hcompat, akill, avoid_a)


def shifted_family_count_reference(n: int, k: int) -> int:
    """Independent down-set counter over the dominance order: checks all
    2^C(n,k) subsets directly.  Test oracle for tiny instances only."""
    masks = layer_masks(n, k)
    m = len(masks)
    _require(m <= 20, "reference counter is exponential; keep C(n,k) <= 20")
    dom = []
    for i, a in enumerate(masks):
        bits = 0
        for j in range(m):
            if j != i and dominates(a, masks[j]):
                bits |= 1 << j
        dom.append(bits)
    count = 0
    for sub in range(1 << m):
        ok = True
        rest = sub
        while rest:
            low = rest & -rest
            i = low.bit_length() - 1
            rest ^= low
            if dom[i] & ~sub:
                ok = False
                break
        if ok:
            count += 1
    return count
