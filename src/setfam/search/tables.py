"""Candidate tables consumed by the search kernels.

Layer candidates are sorted by numeric bit-vector value; for equal-size
sets that order is a linear extension of coordinatewise dominance, which is
what lets the down-set (shifted family) traversal meet predecessors
before successors.  The s-union clique vertices run the other way (see
:func:`build_union_tables`).

The three ``build_*`` functions are memoized per process: a table depends
only on its arguments, and a verify grid asks for the same (n, k, t) tables
again for every r.  So every caller of one key shares one table, and every
table row is a tuple: the tables are read-only.  A build that fails is
never cached.
"""

from __future__ import annotations

import functools
import itertools
from math import comb

from .._record import Record
from ..engines import MAX_BITS
from ..errors import InfeasibleInstanceError
from ..family import elements_of, layer_masks
from ..shifting import dominates

# Lower than MAX_BITS on purpose: at 128, the diversity clique rows
# k=4, n=10, r=1..3 (84 star members) each ran out of a 60 s budget after
# over 100M compiled-kernel nodes instead of failing at once.
MAX_AMEMBERS = 64

# Tables kept per builder: a verify sweep meets a few (n, k, t) keys, and a
# table of 128 candidates holds under 40 kB.
_CACHE_SIZE = 32


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise InfeasibleInstanceError(msg)


def dominance_succ(masks) -> tuple[int, ...]:
    """succ[i] is the bitset of the indices j != i whose set coordinatewise
    dominates masks[i]; ``masks`` is a full layer sorted by value.

    Dominance on k-sets is the transitive closure of single moves x -> x+1
    onto a free element, and such a move raises the mask value, so every
    one-move successor is listed after its predecessor.  Built from the top
    of the order down, succ[i] is the union of succ[j] | 1 << j over the at
    most k one-move successors j.
    """
    index = {a: i for i, a in enumerate(masks)}
    succ = [0] * len(masks)
    for i in range(len(masks) - 1, -1, -1):
        a = masks[i]
        bits = 0
        movable = a & ~(a >> 1)  # elements x in a with x+1 free
        while movable:
            low = movable & -movable
            movable ^= low
            j = index.get(a + low)
            if j is not None:  # x+1 lies in the universe
                bits |= succ[j] | 1 << j
        succ[i] = bits
    return tuple(succ)


def overlap_table(masks, others, n: int, t: int) -> tuple[int, ...]:
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
    return tuple(rows)


def disjoint_table(masks, others, n: int) -> tuple[int, ...]:
    """Row i is the bitset of the indices j with masks[i] & others[j] empty."""
    full = (1 << len(others)) - 1
    return tuple(full ^ bits for bits in overlap_table(masks, others, n, 1))


class PairTables(Record):
    __slots__ = ("n", "cands", "gmasks", "compat", "succ", "kill")

    n: int
    cands: tuple[int, ...]   # F-side candidate masks
    gmasks: tuple[int, ...]  # partner universe masks
    compat: tuple[int, ...] | None
    succ: tuple[int, ...]    # succ[i]: the candidates that dominate candidate i
    kill: tuple[int, ...]


@functools.lru_cache(maxsize=_CACHE_SIZE)
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

    Without ``shifted`` the order rows ``succ`` are empty.
    These tables are unchanged by relabeling, so the callers pass ``cands``
    as the kernel's element masks, and it branches once per orbit at every
    node.  S_n is transitive on the f_size-sets, so the root step of that
    rule branches on candidate 0 only: every non-empty family the kernel
    returns contains it, and the callers count the other maximizers by the
    orbit-stabilizer theorem.  With ``shifted``, ``succ`` holds the
    dominance successors, and the kernel walks the down-sets of the
    dominance order, the shifted families; that order is not closed under
    relabeling, so that kernel walks every candidate.
    """
    cands = tuple(layer_masks(n, f_size))
    gmasks = () if g_size is None else tuple(layer_masks(n, g_size))
    m = len(cands)
    _require(m <= MAX_BITS, f"candidate universe C({n},{f_size}) = {m} exceeds {MAX_BITS}")
    _require(
        len(gmasks) <= MAX_BITS,
        f"partner universe C({n},{g_size}) = {len(gmasks)} exceeds {MAX_BITS}",
    )
    compat = overlap_table(cands, cands, n, t_inter) if t_inter is not None else None
    succ = dominance_succ(cands) if shifted else (0,) * m
    kill = disjoint_table(cands, gmasks, n) if gmasks else (0,) * m
    return PairTables(n, cands, gmasks, compat, succ, kill)


class CliqueTables(Record):
    __slots__ = ("n", "vmasks", "adj", "sup", "layer")

    n: int
    vmasks: tuple[int, ...]
    adj: tuple[int, ...]
    sup: tuple[int, ...]  # sup[v]: the vertices whose sets strictly contain v's
    layer: int            # vertex bitset of the constrained layer


@functools.lru_cache(maxsize=_CACHE_SIZE)
def build_union_tables(n: int, s: int, constrained_layer: int | None) -> CliqueTables:
    """Vertices are all subsets of [n] with at most s elements; edges join
    pairs whose union stays within s elements.

    With a constrained layer c, only the anchor {1, ..., c} and its
    neighbours are kept: the subsets B whose union with {1, ..., c} has at
    most s elements.  Each
    feasible family of the conditioned kinds has a c-set (they need r >= 1),
    and S_n carries that set onto the anchor, so every maximizer has a
    relabeled copy in the kept graph.  There the anchor is adjacent to every
    other vertex, and both side constraints survive adding a vertex, so every
    maximum feasible clique holds the anchor; the callers count the other
    relabeled copies by the orbit-stabilizer theorem.  The kept sets are
    closed under subsets, so the kernel's down-set cut still holds.  The vertex limit
    counts the kept sets: any part of the anchor, with at most s - c of the
    other n - c elements.

    Vertices are numbered in descending mask order, so the clique kernel,
    which walks from the top index down, reaches the small sets first.
    """
    if constrained_layer is None:
        nv = sum(comb(n, i) for i in range(min(s, n) + 1))
        _require(
            nv <= MAX_BITS,
            f"the {nv} subsets of [{n}] with at most {s} elements exceed {MAX_BITS} vertices",
        )
        vmasks = [m for i in range(min(s, n) + 1) for m in layer_masks(n, i)]
    else:
        c = constrained_layer
        nv = 2**c * sum(comb(n - c, i) for i in range(s - c + 1))
        _require(
            nv <= MAX_BITS,
            f"the {nv} subsets of [{n}] whose union with {{1..{c}}} has at most {s} elements "
            f"exceed {MAX_BITS} vertices",
        )
        outside = [m << c for i in range(s - c + 1) for m in layer_masks(n - c, i)]
        vmasks = [a | m for a in range(1 << c) for m in outside]
    vmasks.sort(reverse=True)
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
    return CliqueTables(n, tuple(vmasks), tuple(adj), tuple(sup), layer)


class DiversityTables(Record):
    __slots__ = ("n", "hmasks", "amasks", "hcompat", "akill", "avoid_a")

    n: int
    hmasks: tuple[int, ...]  # candidates avoiding element 1
    amasks: tuple[int, ...]  # candidates containing element 1
    hcompat: tuple[int, ...]
    akill: tuple[int, ...]
    avoid_a: tuple[int, ...]  # indexed by element, A-candidates avoiding it


@functools.lru_cache(maxsize=_CACHE_SIZE)
def build_diversity_tables(n: int, k: int) -> DiversityTables:
    layer = layer_masks(n, k)
    hmasks = tuple(m for m in layer if not m & 1)
    amasks = tuple(m for m in layer if m & 1)
    _require(
        len(hmasks) <= MAX_BITS,
        f"C({n - 1},{k}) = {len(hmasks)} candidates exceed {MAX_BITS}",
    )
    _require(
        len(amasks) <= MAX_AMEMBERS,
        f"C({n - 1},{k - 1}) = {len(amasks)} star members exceed {MAX_AMEMBERS}",
    )
    hcompat = overlap_table(hmasks, hmasks, n, 1)
    akill = disjoint_table(hmasks, amasks, n)
    avoid_a = (0,) + disjoint_table([1 << e for e in range(n)], amasks, n)
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
