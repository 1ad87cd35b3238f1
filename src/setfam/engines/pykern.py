"""Pure-Python branch-and-bound kernels.

Twin of the C file ``fastcore.c`` (loaded through ``fastcore.Kernels``).
Both implement the same three entry points, and these must match exactly:

* the traversal: the same nodes, visited in the same order, so ``nodes``
  agrees;
* the result: the optimum and the maximizers in the same order, each
  maximizer one index bitset (what the tables fix, such as a pair's
  partner, the callers rebuild);
* the errors: the timeout message with its ``best_so_far``, and the cap
  ``MAXIMIZER_CAP`` (read at each call), hold for both backends.

Reports are therefore byte-identical across backends, and a change to the
traversal of one kernel must be made to both.  Per-node bookkeeping may
differ: for example, pykern carries candidate counts and the number of
``rmask`` members still needed down the recursion, where the C twin counts
the chosen ones, and does not store the colour classes that cannot reach
the incumbent.  All
index sets are plain int bitsets (candidate universes are capped at 128
entries by the callers, the width of the C kernels' bitsets).

Soundness notes shared by the kernels:

* Objectives are evaluated at every visited node whose family satisfies the
  side constraints.  Each kernel walks its tree once and keeps ties by one
  rule: a subtree is pruned only when an admissible upper bound is strictly
  below the incumbent; a family scoring above the incumbent restarts the
  maximizer list, and one that ties it is appended.  The maximizer lists
  are therefore complete within each engine's documented scope, and the cap
  counts the ties of the running incumbent, optimal or not.
* Partner bitsets only shrink as members are added, which makes
  ``|F| + |remaining| + |partner|`` an admissible bound for the pair kernel.
"""

from __future__ import annotations

import time

from ..errors import InfeasibleInstanceError, TimeBudgetExceededError

MAXIMIZER_CAP = 200_000
_CHECK_MASK = 0x1FFF  # read the clock every 8192 nodes


def _over_time(nodes: int, best: int) -> TimeBudgetExceededError:
    return TimeBudgetExceededError(f"search exceeded its time budget after {nodes} nodes", best)


def _over_cap(cap: int) -> InfeasibleInstanceError:
    return InfeasibleInstanceError(f"maximizer enumeration exceeded the cap of {cap}")


def pair_bnb(
    m: int,
    compat: list[int] | None,
    pred: list[int],
    kill: list[int],
    ng: int,
    rmask: int,
    r_min: int,
    g_min: int,
    g_ge_f: bool,
    cap_excess: int,
    deadline: float | None = None,
):
    """Maximize |F| + |partner(F)| over families drawn from an m-candidate
    universe, the partner being the ng-element universe minus everything a
    chosen candidate kills.

    compat[i]   candidates allowed together with i (None: no self constraint)
    pred[i]     candidates that must already be chosen before i
    rmask       candidates that count toward r_min: all of them for the pair
                kinds, those avoiding element 1 for shifted diversity
    r_min       minimum number of chosen members inside rmask for a family
                to be scored
    g_min       minimum |partner|; the partner only shrinks, so falling
                below this prunes the whole subtree
    g_ge_f      require |partner| >= |F| (violations prune whole subtrees:
                |F| only grows and |partner| only shrinks below them)
    cap_excess  when >= 0, at most cap_excess chosen members may sit inside
                the partner; the score drops by one per member over the cap
                (the partner gives up exactly its overlap excess), and
                families whose reduced partner falls below r_min are skipped

    Precondition with a cap (cap_excess >= 0): the partner universe is the
    candidate universe, index for index, so the chosen members inside the
    partner are the bits of F & partner.

    Returns (best, maximizers as chosen-index bitsets, node_count).
    """
    cap = MAXIMIZER_CAP
    nodes = 0
    best = -1
    maxers: list[int] = []
    keep = [~k for k in kill]

    def rec(chosen: int, fcount: int, need: int, p: int, pcount: int, partner: int) -> None:
        nonlocal nodes, best, maxers
        nodes += 1
        if not nodes & _CHECK_MASK and deadline is not None and time.monotonic() > deadline:
            raise _over_time(nodes, best)
        gnode = partner.bit_count()
        base = fcount + gnode
        twice = 2 * gnode  # |F| <= |partner| caps the sum at twice the partner
        fc = fcount + 1
        while p:
            low = p & -p
            p ^= low
            # one more member, every remaining candidate, the whole partner
            if base + pcount < best or (g_ge_f and twice < best):
                return
            pcount -= 1
            i = low.bit_length() - 1
            if pred[i] & ~chosen:
                continue
            if compat is not None and chosen & ~compat[i]:
                continue
            child_partner = partner & keep[i]
            gc = child_partner.bit_count()
            if gc < g_min or (g_ge_f and gc < fc):
                continue
            size = fc + gc
            # rmask members still missing for r_min; 0 stays 0
            cneed = need and (need - 1 if low & rmask else need)
            if not cneed:
                g = size
                if cap_excess >= 0:
                    over = ((chosen | low) & child_partner).bit_count() - cap_excess
                    if over > 0:
                        g -= over
                    if g - fc < r_min:
                        g = -1
                if g > best:
                    best = g
                    maxers = [chosen | low]
                elif g == best >= 0:  # -1 marks a skipped family
                    if len(maxers) >= cap:
                        raise _over_cap(cap)
                    maxers.append(chosen | low)
            if compat is None:
                child_p, child_pcount = p, pcount
            else:
                child_p = p & compat[i]
                child_pcount = child_p.bit_count()
            if size + child_pcount >= best and not (g_ge_f and 2 * gc < best):
                rec(chosen | low, fc, cneed, child_p, child_pcount, child_partner)

    rec(0, 0, max(r_min, 0), (1 << m) - 1, m, (1 << ng) - 1)
    return best, maxers, nodes


def clique_bnb(
    nverts: int,
    adj: list[int],
    sup: list[int],
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
    are maximal and only leaves need scoring.

    sup[v] is the set of vertices whose sets strictly contain v's set, and
    the search looks only for down-sets: a maximum feasible s-union family Q
    is one, since for B inside A in Q every union B | C lies inside A | C,
    so adding B keeps Q s-union and feasible.  Once the walk has passed over
    v (branched on it or skipped it), every later clique avoids v, so a
    maximum one avoids v's supersets too, and those leave the candidates at
    once; v's own subtree keeps them.  The callers number the vertices in
    descending mask order, so the walk, which goes from the top index down,
    reaches the small sets first and drops the most supersets.  The set of
    maximum cliques is unchanged; ``node_count`` counts the pruned search.

    Returns (best, maximizers as vertex bitsets, node_count).
    """
    cap = MAXIMIZER_CAP
    nodes = 0
    best = -1
    maxers: list[int] = []
    # what may share v's colour class: neither v nor its neighbours
    apart = [~(a | 1 << v) for v, a in enumerate(adj)]
    # what stays a candidate once v is passed over: neither v nor its supersets
    keep = [~(u | 1 << v) for v, u in enumerate(sup)]
    elems = [[e + 1 for e in range(nelems) if vm >> e & 1] for vm in vmasks]
    degs = [0] * (nelems + 1)  # degs[e] of element e over chosen layer vertices

    def expand(q: int, qcount: int, laycount: int, p: int) -> None:
        nonlocal nodes, best, maxers
        nodes += 1
        if not nodes & _CHECK_MASK and deadline is not None and time.monotonic() > deadline:
            raise _over_time(nodes, best)
        if not p:
            if cons_kind == 1 and laycount < r:
                return
            if cons_kind == 2 and laycount - max(degs) < r:
                return
            if qcount > best:
                best = qcount
                maxers = [q]
            elif qcount == best:
                if len(maxers) >= cap:
                    raise _over_cap(cap)
                maxers.append(q)
            return
        # Greedy colouring: a clique among the vertices of colours <= c has
        # at most c of them.  The walk below goes down from the top colour
        # and stops at the first colour c with qcount + c < best; best only
        # rises, so the classes below best - qcount are never walked.
        first = best - qcount
        classes = []
        colour = 0
        uncoloured = p
        while uncoloured:
            colour += 1
            avail = uncoloured
            cls = 0
            while avail:
                low = avail & -avail
                cls |= low
                avail &= apart[low.bit_length() - 1]
            uncoloured ^= cls
            if colour >= first:
                classes.append(cls)
        local_p = p
        for cls in reversed(classes):
            cls &= local_p
            while cls:
                if qcount + colour < best:
                    return
                v = cls.bit_length() - 1
                low = 1 << v
                child_p = local_p & adj[v]
                local_p &= keep[v]
                cls &= local_p
                in_layer = layer >> v & 1
                lay2 = laycount + in_layer
                if cons_kind == 1 and lay2 + (child_p & layer).bit_count() < r:
                    continue
                if cons_kind == 2:
                    if in_layer:
                        for e in elems[v]:
                            degs[e] += 1
                    if lay2 + (child_p & layer).bit_count() - max(degs) < r:
                        if in_layer:
                            for e in elems[v]:
                                degs[e] -= 1
                        continue
                expand(q | low, qcount + 1, lay2, child_p)
                if cons_kind == 2 and in_layer:
                    for e in elems[v]:
                        degs[e] -= 1
            colour -= 1

    expand(0, 0, 0, (1 << nverts) - 1)
    return best, maxers, nodes


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

    Returns (best, maximizers as H bitsets, node_count); each maximizer's A
    is every A candidate outside the ``akill`` rows of its H members.
    """
    cap = MAXIMIZER_CAP
    nodes = 0
    best = -1
    maxers: list[int] = []
    full_a = (1 << na) - 1
    # degs[j] and avoid[j] belong to element j + 2: the cap binds every
    # element but 1, which no H member contains
    degs = [0] * max(nelems - 1, 0)
    avoid = avoid_a[2:nelems + 1]
    elems = [[j for j in range(nelems - 1) if hm >> j + 1 & 1] for hm in hmasks]

    if r <= 0:
        best, maxers = na, [0]

    def rec(chosen: int, hcount: int, p: int, pcount: int, amask: int, acount: int) -> None:
        nonlocal nodes, best, maxers
        nodes += 1
        if not nodes & _CHECK_MASK and deadline is not None and time.monotonic() > deadline:
            raise _over_time(nodes, best)
        hc2 = hcount + 1
        while p:
            low = p & -p
            p ^= low
            pcount -= 1
            if hc2 + pcount + acount < best:
                return
            i = low.bit_length() - 1
            if chosen & ~hcompat[i]:
                continue
            am2 = amask & ~akill[i]
            # the chosen H members containing e are at most the A members
            # avoiding it: deg_e(F) <= |A| = deg_1(F).  Member i raises the
            # degrees of its own elements, so those fail first.
            es = elems[i]
            for j in es:
                if degs[j] >= (am2 & avoid[j]).bit_count():
                    break
            else:
                for j in es:
                    degs[j] += 1
                for d, av in zip(degs, avoid):
                    if d > (am2 & av).bit_count():
                        break
                else:
                    ac2 = am2.bit_count()
                    child = chosen | low
                    if hc2 >= r:
                        value = hc2 + ac2
                        if value > best:
                            best = value
                            maxers = [child]
                        elif value == best:
                            if len(maxers) >= cap:
                                raise _over_cap(cap)
                            maxers.append(child)
                    child_p = p & hcompat[i]
                    child_pcount = child_p.bit_count()
                    if hc2 + child_pcount + ac2 >= best:
                        rec(child, hc2, child_p, child_pcount, am2, ac2)
                for j in es:
                    degs[j] -= 1

    rec(0, 0, (1 << mh) - 1, mh, full_a, na)
    return best, maxers, nodes
