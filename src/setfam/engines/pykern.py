"""Pure-Python branch-and-bound kernels.

Twin of the C file ``fastcore.c`` (loaded through ``fastcore.Kernels``):
both implement the same three entry points with the same traversal order,
node counts, maximizer order and errors, so reports are byte-identical
across backends, and a change to one kernel must be made to both.  The
timeout message and ``MAXIMIZER_CAP`` defined here hold for both backends.
All index sets are plain int bitsets (candidate universes are capped at 128
entries by the callers, the width of the C kernels' bitsets).

Soundness notes shared by the kernels:

* Objectives are evaluated at every visited node whose family satisfies the
  side constraints; a subtree is pruned only when an admissible upper bound
  is strictly below the incumbent, so ties are always enumerated and the
  maximizer lists are complete within each engine's documented scope.
* Partner bitsets only shrink as members are added, which makes
  ``|F| + |remaining| + |partner|`` an admissible bound for the pair kernel.
"""

from __future__ import annotations

import time

from ..errors import InfeasibleInstanceError, TimeBudgetExceededError

MAXIMIZER_CAP = 200_000
_CHECK_MASK = 0x1FFF


class _Budget:
    __slots__ = ("deadline", "nodes")

    def __init__(self, deadline: float | None):
        self.deadline = deadline
        self.nodes = 0

    def tick(self, best: int) -> None:
        self.nodes += 1
        if self.deadline is not None and (self.nodes & _CHECK_MASK) == 0:
            if time.monotonic() > self.deadline:
                raise TimeBudgetExceededError(
                    f"search exceeded its time budget after {self.nodes} nodes",
                    best_so_far=best,
                )


def _record(state: list, value: int, item) -> None:
    # state = [best, maximizers]
    if value > state[0]:
        state[0] = value
        state[1] = [item]
    elif value == state[0]:
        if len(state[1]) >= MAXIMIZER_CAP:
            raise InfeasibleInstanceError(
                f"maximizer enumeration exceeded the cap of {MAXIMIZER_CAP}"
            )
        state[1].append(item)


def pair_bnb(
    m: int,
    compat: list[int] | None,
    pred: list[int] | None,
    kill: list[int],
    ng: int,
    r_min: int,
    g_min: int,
    g_ge_f: bool,
    cap_excess: int,
    selfpos: list[int] | None,
    deadline: float | None = None,
):
    """Maximize |F| + |partner(F)| over families drawn from an m-candidate
    universe, the partner being the ng-element universe minus everything a
    chosen candidate kills.

    compat[i]   candidates allowed together with i (None: no self constraint)
    pred[i]     candidates that must already be chosen before i (None: all
                subsets allowed; otherwise enumerates exactly the down-sets
                of the dominance order, i.e. the shifted families)
    r_min       minimum |F| for a family to be scored
    g_min       minimum |partner|; the partner only shrinks, so falling
                below this prunes the whole subtree
    g_ge_f      require |partner| >= |F| (violations prune whole subtrees:
                |F| only grows and |partner| only shrinks below them)
    cap_excess  when >= 0, at most cap_excess chosen members may sit inside
                the partner; the score drops by one per member over the cap
                (the partner gives up exactly its overlap excess), and
                families whose reduced partner falls below r_min are skipped
    selfpos     position of each candidate inside the partner universe
                (-1 when absent); required when cap_excess >= 0

    Two passes share the traversal: the first proves the optimum pruning
    subtrees that cannot strictly improve, the second re-walks collecting
    every family that ties it (pruning only below the now-known optimum).

    Returns (best, maximizers as chosen-index bitsets, node_count).
    """
    budget = _Budget(deadline)
    full_g = (1 << ng) - 1

    def run(collect: bool, best_init: int, sink: list | None) -> int:
        best = best_init

        def score(child: int, fc: int, gc: int, child_partner: int) -> int | None:
            if fc < r_min:
                return None
            if cap_excess >= 0:
                shared = 0
                rest = child
                while rest:
                    lo2 = rest & -rest
                    rest ^= lo2
                    sp = selfpos[lo2.bit_length() - 1]
                    if sp >= 0 and child_partner >> sp & 1:
                        shared += 1
                over = shared - cap_excess
                if over < 0:
                    over = 0
                if gc - over < r_min:
                    return None
                return fc + gc - over
            return fc + gc

        def rec(chosen: int, fcount: int, p: int, partner: int) -> None:
            nonlocal best
            budget.tick(best)
            gcount_node = partner.bit_count()
            while p:
                low = p & -p
                i = low.bit_length() - 1
                p ^= low
                ub = fcount + 1 + p.bit_count() + gcount_node
                if g_ge_f and 2 * gcount_node < ub:
                    ub = 2 * gcount_node  # |F| <= |partner| caps the sum at twice the partner
                if ub < best or (not collect and ub == best):
                    return
                if pred is not None and pred[i] & ~chosen:
                    continue
                if compat is not None and chosen & ~compat[i]:
                    continue
                child = chosen | low
                child_partner = partner & ~kill[i]
                fc = fcount + 1
                gc = child_partner.bit_count()
                if gc < g_min:
                    continue
                if g_ge_f and gc < fc:
                    continue
                g = score(child, fc, gc, child_partner)
                if g is not None:
                    if collect:
                        if g == best:
                            if len(sink) >= MAXIMIZER_CAP:
                                raise InfeasibleInstanceError(
                                    f"maximizer enumeration exceeded the cap of {MAXIMIZER_CAP}"
                                )
                            sink.append(child)
                    elif g > best:
                        best = g
                child_p = p & compat[i] if compat is not None else p
                child_ub = fc + child_p.bit_count() + gc
                if g_ge_f and 2 * gc < child_ub:
                    child_ub = 2 * gc
                if child_ub > best or (collect and child_ub == best):
                    rec(child, fc, child_p, child_partner)

        rec(0, 0, (1 << m) - 1, full_g)
        return best

    optimum = run(collect=False, best_init=-1, sink=None)
    maximizers: list[int] = []
    if optimum >= 0:
        run(collect=True, best_init=optimum, sink=maximizers)
    return optimum, maximizers, budget.nodes


def _color_order(p: int, adj: list[int]):
    """Greedy coloring of the candidate set; returns (vertex, color) pairs
    in ascending color order.  Any clique inside a prefix of this order has
    size at most the prefix's top color."""
    order = []
    uncolored = p
    color = 0
    while uncolored:
        color += 1
        avail = uncolored
        while avail:
            low = avail & -avail
            v = low.bit_length() - 1
            avail ^= low
            uncolored ^= low
            order.append((v, color))
            avail &= ~adj[v]
    return order


def clique_bnb(
    nverts: int,
    adj: list[int],
    cons_kind: int,
    layer: int,
    vmasks: list[int],
    nelems: int,
    r: int,
    deadline: float | None = None,
):
    """Enumerate maximum cliques of the compatibility graph, optionally
    subject to a monotone side constraint on the vertices inside ``layer``:

    cons_kind 0   none
    cons_kind 1   at least r layer vertices chosen
    cons_kind 2   chosen layer vertices have diversity >= r (as subsets of
                  an nelems-element ground set given by vmasks)

    Both constraints survive adding vertices, so maximum feasible cliques
    are maximal and only leaves need scoring.  Returns (best, maximizers as
    vertex bitsets, node_count).
    """
    budget = _Budget(deadline)
    state: list = [-1, []]
    degs = [0] * (nelems + 1)

    def layer_diversity_ub(lay_total: int) -> int:
        dmax = 0
        for e in range(1, nelems + 1):
            if degs[e] > dmax:
                dmax = degs[e]
        return lay_total - dmax

    def expand(q: int, qcount: int, laycount: int, p: int) -> None:
        budget.tick(state[0])
        if not p:
            if cons_kind == 1 and laycount < r:
                return
            if cons_kind == 2 and layer_diversity_ub(laycount) < r:
                return
            _record(state, qcount, q)
            return
        order = _color_order(p, adj)
        local_p = p
        for v, c in reversed(order):
            if qcount + c < state[0]:
                return
            low = 1 << v
            local_p ^= low
            child_p = local_p & adj[v]
            in_layer = 1 if layer >> v & 1 else 0
            lay2 = laycount + in_layer
            if cons_kind == 1 and lay2 + (child_p & layer).bit_count() < r:
                continue
            if cons_kind == 2 and in_layer:
                mask = vmasks[v]
                e = 1
                mm = mask
                while mm:
                    if mm & 1:
                        degs[e] += 1
                    mm >>= 1
                    e += 1
            if cons_kind == 2 and lay2 + (child_p & layer).bit_count() - max(degs[1:]) < r:
                if in_layer:
                    _deg_undo(degs, vmasks[v])
                continue
            expand(q | low, qcount + 1, lay2, child_p)
            if cons_kind == 2 and in_layer:
                _deg_undo(degs, vmasks[v])

    expand(0, 0, 0, (1 << nverts) - 1)
    return state[0], state[1], budget.nodes


def _deg_undo(degs: list[int], mask: int) -> None:
    e = 1
    while mask:
        if mask & 1:
            degs[e] -= 1
        mask >>= 1
        e += 1


def diversity_bnb(
    mh: int,
    hcompat: list[int],
    hmasks: list[int],
    akill: list[int],
    na: int,
    avoid_a: list[int],
    r: int,
    nelems: int,
    deadline: float | None = None,
):
    """Maximum intersecting k-uniform family with diversity >= r, searched
    in the symmetry-reduced scope where the maximum degree sits at element 1.

    The family splits as H (members avoiding 1, enumerated) plus A (members
    containing 1, always the full set of candidates meeting every H member:
    adding a compatible 1-member never hurts any constraint).  Feasibility
    of the degree cap ``deg_e(F) <= deg_1(F)`` is monotone decreasing along
    the search, so its violation prunes the subtree.  Diversity of a
    feasible family equals |H|.

    Returns (best, maximizers as (H-bitset, A-bitset) pairs, node_count).
    """
    budget = _Budget(deadline)
    state: list = [-1, []]
    full_a = (1 << na) - 1
    degs = [0] * (nelems + 1)

    def feasible(amask: int) -> bool:
        for e in range(2, nelems + 1):
            if degs[e] > (amask & avoid_a[e]).bit_count():
                return False
        return True

    if r <= 0:
        _record(state, na, (0, full_a))

    def rec(chosen: int, hcount: int, p: int, amask: int) -> None:
        budget.tick(state[0])
        while p:
            low = p & -p
            i = low.bit_length() - 1
            p ^= low
            if hcount + 1 + p.bit_count() + amask.bit_count() < state[0]:
                return
            if chosen & ~hcompat[i]:
                continue
            child = chosen | low
            am2 = amask & ~akill[i]
            hc2 = hcount + 1
            mm = hmasks[i]
            e = 1
            while mm:
                if mm & 1:
                    degs[e] += 1
                mm >>= 1
                e += 1
            if feasible(am2):
                if hc2 >= r:
                    _record(state, hc2 + am2.bit_count(), (child, am2))
                child_p = p & hcompat[i]
                if hc2 + child_p.bit_count() + am2.bit_count() >= state[0]:
                    rec(child, hc2, child_p, am2)
            _deg_undo(degs, hmasks[i])

    rec(0, 0, (1 << mh) - 1, full_a)
    return state[0], state[1], budget.nodes
