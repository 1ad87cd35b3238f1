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
the chosen ones; pykern keeps each node's orbits in a memo per table, where
the C twin counts the handled candidate's orbit afresh.  All index sets are
plain int bitsets (candidate universes are capped at 128 entries by the
callers, the width of the C kernels' bitsets).

Two of the entry points run one partner search, :func:`_partner_search`.
A chosen family F has a partner: every member of a second universe that no
member of F kills.  The search maximizes |F| + |partner|.  :func:`pair_bnb`
runs it on the pair kinds' tables and rules.  :func:`diversity_bnb` maps
the diversity tables onto it, H as the family and A as its partner, and
passes the degree cap as one more set of rows.  Both may pass the
candidates' element sets, which turn on the orbit exclusion below.  The
search applies each only when it is passed, and never asks which problem
it solves.  :func:`clique_bnb` is a search of its own.

Soundness notes shared by the kernels:

* Objectives are evaluated at every visited node whose family satisfies the
  side constraints.  Each kernel walks its tree once and keeps ties by one
  rule: a subtree is pruned only when an admissible upper bound is strictly
  below the incumbent; a family scoring above the incumbent restarts the
  maximizer list, and one that ties it is appended.  The maximizer lists
  are therefore complete within each engine's documented scope, and the cap
  counts the ties of the running incumbent, optimal or not.
* Partner bitsets only shrink as members are added, which makes
  ``|F| + |remaining| + |partner|`` an admissible bound for the partner
  search.
* The deficiency bound (the partner search, at node entry):
  adding a set S of the remaining candidates p removes from the partner P
  every member that a member of S kills, its neighbourhood N(S), so every
  descendant scores at most |F| + |P| + max over S of (|S| - |N(S)|).  By
  the deficiency form of Hall's theorem (Ore, 1955) that maximum is
  |p| - nu, where nu is the size of a maximum matching from p into P along
  the kill rows.  A capped score is at most the size, and every side
  constraint only removes families, so the bound holds for every kind, and
  a node is cut when it is strictly below the incumbent.  nu is a property
  of the node alone, not of the matching found, so the twins may grow their
  matchings differently (:func:`_matching` stops as soon as the cut is
  decided) and still cut the same nodes.  nu is at most |N(p)|, and a
  node's candidates and partner lie inside its parent's, so N(p) lies
  inside the members its ancestors' candidates reach, cut to its partner:
  each node passes that reach set down, and matches only when it holds at
  least the members the cut needs.  A skipped matching could not have cut.
* The forced vertices (``clique_bnb``, at node entry): the candidates
  adjacent to every other candidate join the clique at once, and the
  side-constraint test runs on the result.  Every maximal clique below the
  node holds them, and both side constraints survive adding a vertex, so
  every maximum feasible clique below the node holds them too: no maximizer
  is lost.  In the s-union graphs a candidate whose set lies inside a
  forced vertex's set is adjacent to every candidate as well, so it is
  forced with it, and the down-set cut (``sup``) still holds.  The greedy
  colouring of the candidates finds them: a forced vertex joins no class
  another vertex starts (the first step drops the starter's neighbours),
  so the class it starts holds it alone, and a singleton class whose
  vertex has no non-neighbour among the candidates is forced by
  definition.  Removing the forced vertices leaves every other class as it
  was, in the same order, so the classes of the rest are those of
  colouring the candidates without them.
* The last branch (``clique_bnb``): once the walk has searched the subtree
  of a vertex v adjacent to every other candidate still in the walk, the
  node returns.  Forcing leaves no such v at node entry, but the walk drops
  candidates as it goes.  Every clique a later sibling could reach avoids
  v and lies inside the chosen vertices and those candidates, so adding v
  keeps it a clique, and both side constraints survive adding a vertex:
  none of those cliques is maximum, and v's own subtree holds every clique
  with v.  The maximizers are unchanged; only ties of an incumbent that is
  not optimal are dropped sooner (Bron and Kerbosch, 1973; the pivot
  argument of Tomita, Tanaka and Takahashi, 2006).
* The orbit exclusion (the partner search with element sets, which every
  table closed under relabeling passes): a node's group is the
  relabelings of the elements that fix every chosen member setwise (for
  ``diversity_bnb`` also element 1, which no H candidate holds).  It is the
  product of the symmetric groups on the Venn atoms of the chosen members
  (:class:`_Orbits`), and two candidates share an orbit exactly when they
  meet every atom in equally many elements.  Once the walk has handled
  candidate i, searched its subtree or found it past a side constraint, it
  drops i's whole orbit (orbital branching; Ostrowski, Linderoth, Rossi
  and Smriglio, Math. Program. 126, 2011).  This holds at every level: a
  child's group fixes one member more, so it lies inside its parent's
  group, every candidate dropped before a node is part of a whole orbit of
  an ancestor's group, and every table row the node was narrowed by
  belongs to a chosen member.  So the node's candidates, partner and
  degrees are invariant under its group.  A family in a later sibling's
  subtree that meets i's orbit is therefore carried by the group onto one
  that holds i and avoids everything dropped before i, which lies in i's
  subtree, with the same score and the same feasibility: when i's subtree
  was searched or cut, the family is found or below the incumbent.  Every
  class keeps a maximizer, and the callers size each class by the
  orbit-stabilizer theorem
  (:func:`setfam.search.problems.classify_maximizers`).  Of each orbit the
  search returns the least maximizer, its members' indices compared as
  ascending tuples: were one of its members i dropped at a node on its
  path, as part of the orbit of a candidate j that the node handled before
  the member the path goes through, the relabeling that carries i onto j
  and fixes the node's chosen members would give a family of the orbit
  that holds j, which the least does not, and lacks only members above j:
  a smaller one.  At the root the group is transitive on the callers'
  candidates, so the root branches once, on candidate 0, and every
  non-empty family the search returns holds it: this is the search's only
  symmetry break.  Once every atom has one element the group is trivial,
  and that node and its subtree skip the orbit work.
* Precondition: ``compat`` (the partner search; ``hcompat`` for
  ``diversity_bnb``) is symmetric, j in row i exactly when i in row j.
  Each descent narrows the candidates to the new member's row, so every
  remaining candidate is compatible with every chosen member, and the
  search does not test that again.
* The order rows (the partner search): once the walk has passed over
  candidate i, branched on it or skipped it, the later siblings drop
  ``succ[i]``, the candidates that require i, while i's own subtree keeps
  them.  This alone keeps every family the walk reaches a down-set of the
  order, under a precondition: for every down-set C the walk reaches and
  every candidate i compatible with all of C, every predecessor of i is
  compatible with all of C.  Then a predecessor j of a candidate i still in
  the walk below C lies in C: j comes before i, and no ``compat`` row of
  the chosen members removed it, so were it not chosen, the walk of the
  node or of an ancestor would have passed over j, and ``succ[j]`` would
  have dropped i.  (The orbit exclusion drops candidates too; every caller
  that passes element sets passes empty order rows.)  The callers meet the
  precondition: their order is coordinatewise dominance on one layer of
  k-sets, and their ``compat`` is None or "t-intersecting".  Take i
  compatible with all of a down-set C, and j one move below i: some x in i
  is replaced by x-1, which i lacks.  j meets a member c of C in fewer
  elements than i does only when x is in c and x-1 is not.  Then
  c - x + (x-1) is also in C, and i meets it in one element fewer than c,
  so i meets c in at least t+1 elements and j meets c in at least t.  By
  induction along one-move chains, every predecessor of i is compatible
  with all of C.
"""

from __future__ import annotations

import functools
import time

from ..errors import InfeasibleInstanceError, TimeBudgetExceededError

MAXIMIZER_CAP = 200_000
_CHECK_MASK = 0x1FFF  # read the clock every 8192 nodes


def _over_time(nodes: int, best: int) -> TimeBudgetExceededError:
    return TimeBudgetExceededError(f"search exceeded its time budget after {nodes} nodes", best)


def _over_cap(cap: int) -> InfeasibleInstanceError:
    return InfeasibleInstanceError(f"maximizer enumeration exceeded the cap of {cap}")


def _indices(x: int) -> list[int]:
    """The indices of the set bits of ``x``, in ascending order."""
    out = []
    while x:
        low = x & -x
        out.append(low.bit_length() - 1)
        x ^= low
    return out


def _matching(p: int, rows: list[int], right: int, want: int,
              owner: list[int]) -> tuple[int, int]:
    """Grow a matching of the candidates in ``p`` into ``right``, candidate i
    to a member of ``rows[i] & right``, until it has ``want`` pairs: first
    greedily, then by augmenting paths (Kuhn), each one found breadth-first
    in layers of bitsets.

    Returns a bound and a reach set.  The bound is ``want`` once it has
    them.  Otherwise it is a number below ``want`` that bounds the maximum
    matching from above: the members that any candidate reaches, or the
    pairs made plus the candidates not yet tried, since a candidate that
    finds no augmenting path never finds one after other paths are
    augmented.  Below ``want`` the reach set is every member of ``right``
    that a candidate in ``p`` reaches.  Candidates and partner only shrink
    down the walk, so a descendant's candidates reach nothing outside this
    set and the descendant's partner, and its matching is no larger: the
    partner search passes the set down and calls this helper only where
    that part of it holds ``want`` members.  ``owner`` is scratch space
    with a slot per member of ``right``: owner[j] is the candidate matched
    to j.
    """
    size = 0
    avail = right  # the members not yet matched
    covered = 0  # the members some candidate reaches
    rest = 0  # the candidates the greedy pass left unmatched
    while p:
        low = p & -p
        p ^= low
        i = low.bit_length() - 1
        reach = rows[i] & right
        covered |= reach
        free = reach & avail
        if free:
            free &= -free
            avail ^= free
            owner[free.bit_length() - 1] = i
            size += 1
            if size >= want:
                return want, covered
        elif reach:
            rest |= low
    if covered.bit_count() < want:
        return covered.bit_count(), covered
    left = rest.bit_count()
    while rest:
        if size + left < want:
            return size + left, covered
        low = rest & -rest
        rest ^= low
        left -= 1
        # every member in reach is matched: search breadth-first, layers[d]
        # holding the matched members first reached through d others
        layers = []
        seen = frontier = rows[low.bit_length() - 1] & right
        free = 0
        while frontier and not free:
            layers.append(frontier)
            nxt = 0
            while frontier:
                b = frontier & -frontier
                frontier ^= b
                nxt |= rows[owner[b.bit_length() - 1]]
            frontier = nxt & right & ~seen
            seen |= frontier
            free = frontier & avail
        if not free:
            continue
        f = free & -free
        avail ^= f
        for j in reversed(layers):  # walk the path back, shifting each owner along it
            while not rows[owner[(j & -j).bit_length() - 1]] & f:
                j &= j - 1
            j &= -j
            owner[f.bit_length() - 1] = owner[j.bit_length() - 1]
            f = j
        owner[f.bit_length() - 1] = low.bit_length() - 1
        size += 1
        if size >= want:
            return want, covered
    return size, covered


def pair_bnb(
    m: int,
    compat: list[int] | None,
    succ: list[int],
    kill: list[int],
    ng: int,
    rmask: int,
    r_min: int,
    g_min: int,
    g_ge_f: bool,
    cap_excess: int,
    masks: list[int] | None,
    deadline: float | None = None,
):
    """Maximize |F| + |partner(F)| over families drawn from an m-candidate
    universe, the partner being the ng-element universe minus everything a
    chosen candidate kills.

    compat[i]   candidates allowed together with i (None: no self constraint)
    succ[i]     the candidates that require i, every one after i: once the
                walk has passed over i, branched on it or skipped it, the
                later siblings avoid i and so every candidate in succ[i],
                which leaves their candidates (the order rows of the module
                docstring, with their precondition on compat)
    rmask       candidates that count toward r_min: all of them for the pair
                kinds and diversity, those avoiding element 1 for shifted
                diversity
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
    masks       the candidates' element sets, when every table is unchanged
                by relabeling the elements of their union (the brute pair
                tables are): the walk then branches once per orbit at every
                node (the orbit exclusion of the module docstring).  None
                walks every candidate, as the shifted tables need: their
                down-set order is not closed under relabeling.

    Precondition with a cap (cap_excess >= 0): the partner universe is the
    candidate universe, index for index, so the chosen members inside the
    partner are the bits of F & partner.

    Each node is first tested against the deficiency bound (module
    docstring), with the kill rows as the matching's edges.

    Returns (best, maximizers as chosen-index bitsets, node_count).
    """
    return _partner_search(
        m, compat, succ, kill, ng, rmask, r_min, g_min, g_ge_f, cap_excess, deadline, masks=masks,
    )


class _Orbits:
    """The orbits of the partner search's nodes, from the candidates'
    element sets ``masks``.

    A node's group is the relabelings of U, the union of the masks, that fix
    every chosen member setwise: the product of the symmetric groups on the
    atoms of the partition that the chosen members cut out of U (their Venn
    atoms).  Two candidates share an orbit exactly when they meet every atom
    in equally many elements.  A node's atoms are a tuple (fixed, A_1, ...),
    ``fixed`` the union of the atoms of one element and A_1, ... the others
    in ascending order; or None once every atom has one element, since the
    group is then trivial and so is every group below it.  The root's atoms
    are U alone.

    An orbit is the AND of one row per atom: the candidates that agree with
    the handled one on ``fixed``, one AND per element, and for each other
    atom the candidates that meet it in as many elements, counted over the
    atom's elements from per-element rows.  Each is built once per process
    and table (:func:`_orbits`), for all the nodes whose chosen members cut
    out the same atoms.  Threads that share a table may build an entry
    twice; both builds give the same value.
    """

    __slots__ = ("root", "_masks", "_holding", "_all", "_nodes")

    def __init__(self, masks: tuple[int, ...]):
        union = 0
        holding: dict[int, int] = {}  # element bit -> the candidates holding it
        for j, mask in enumerate(masks):
            union |= mask
            while mask:
                low = mask & -mask
                mask ^= low
                holding[low] = holding.get(low, 0) | 1 << j
        self._holding = holding
        self._all = (1 << len(masks)) - 1
        self._masks = masks
        self._nodes: dict[tuple[int, ...], list] = {}  # atoms -> steps
        self.root = (0, union) if union & (union - 1) else None

    def node(self, atoms: tuple[int, ...]) -> list:
        """The steps of the nodes with ``atoms``: entry i is None until
        :meth:`step` builds it."""
        steps = self._nodes.get(atoms)
        if steps is None:
            steps = self._nodes[atoms] = [None] * len(self._masks)
        return steps

    def step(self, atoms: tuple[int, ...], steps: list, i: int) -> tuple:
        """Candidate i's orbit at the nodes with ``atoms``, and the atoms of
        the child that adds it, stored as ``steps[i]``."""
        mask = self._masks[i]
        orbit = self._all
        fixed = atoms[0]
        while fixed:
            low = fixed & -fixed
            fixed ^= low
            orbit &= self._holding[low] if mask & low else ~self._holding[low]
        fixed = atoms[0]
        big = []
        for atom in atoms[1:]:
            orbit &= self._meeting(atom, (mask & atom).bit_count())
            for part in (atom & mask, atom & ~mask):
                if part & (part - 1):
                    big.append(part)
                else:
                    fixed |= part
        steps[i] = orbit, (fixed, *sorted(big)) if big else None
        return steps[i]

    def _meeting(self, atom: int, c: int) -> int:
        """The candidates that meet ``atom`` in exactly c elements:
        exact[t] holds those meeting the elements counted so far in t."""
        exact = [self._all] + [0] * c
        while atom:
            low = atom & -atom
            atom ^= low
            rows = self._holding[low]
            for t in range(c, 0, -1):
                exact[t] = exact[t] & ~rows | exact[t - 1] & rows
            exact[0] &= ~rows
        return exact[c]


@functools.lru_cache(maxsize=32)
def _orbits(masks: tuple[int, ...]) -> _Orbits:
    """The orbit rows of one table, shared by every search on it."""
    return _Orbits(masks)


def _partner_search(m, compat, succ, kill, ng, rmask, r_min, g_min, g_ge_f, cap_excess,
                    deadline, masks=None, slots=None, avoid=None, empty=False):
    """The walk behind :func:`pair_bnb` and :func:`diversity_bnb`: the
    arguments of :func:`pair_bnb`, and the degree cap, applied only when it
    is passed.

    slots, avoid  the degree cap: slots[i] lists the slots that candidate i
                  raises, and a family is feasible only while, for every
                  slot j, at most |partner & avoid[j]| chosen members raise
                  j.  Feasibility only falls along the walk, so a violation
                  prunes the subtree.

    With ``masks``, each node carries its atoms (:class:`_Orbits`), and once
    its walk has handled candidate i, searched its subtree or skipped it, it
    drops i's whole orbit.  With ``empty`` the empty family, which scores
    ng, is a maximizer from the start.
    """
    cap = MAXIMIZER_CAP
    nodes = 0
    best, maxers = (ng, [0]) if empty else (-1, [])
    keep = [~k for k in kill]
    owner = [0] * ng
    degs = [0] * len(avoid or ())  # degs[j]: the chosen members that raise slot j
    rule = None if masks is None else _orbits(tuple(masks))

    def rec(chosen: int, fcount: int, need: int, p: int, pcount: int, partner: int,
            reach: int, atoms: tuple[int, ...] | None) -> None:
        nonlocal nodes, best, maxers
        nodes += 1
        if not nodes & _CHECK_MASK and deadline is not None and time.monotonic() > deadline:
            raise _over_time(nodes, best)
        gnode = partner.bit_count()
        base = fcount + gnode
        # cut when |F| + |partner| + |p| - nu < best, that is nu >= want;
        # nu <= |N(p)|, and N(p) lies inside the ancestors' reach sets
        want = base + pcount - best + 1
        if want <= pcount:
            reach &= partner
            if want <= reach.bit_count():
                nu, reach = _matching(p, kill, partner, want, owner)
                if nu >= want:
                    return
        twice = 2 * gnode  # |F| <= |partner| caps the sum at twice the partner
        fc = fcount + 1
        if atoms is not None:
            steps = rule.node(atoms)
        while p:
            low = p & -p
            p ^= low
            # one more member, every remaining candidate, the whole partner
            if base + pcount < best or (g_ge_f and twice < best):
                return
            pcount -= 1
            i = low.bit_length() - 1
            here, here_count = p, pcount  # i's own subtree keeps succ[i] and i's orbit
            if p & succ[i]:
                p &= ~succ[i]
                pcount = p.bit_count()
            if atoms is not None:
                step = steps[i] or rule.step(atoms, steps, i)
                if p & step[0]:
                    p &= ~step[0]
                    pcount = p.bit_count()
            child_partner = partner & keep[i]
            gc = child_partner.bit_count()
            if gc < g_min or (g_ge_f and gc < fc):
                continue
            if slots is not None:
                # the degree cap; i raises only its own slots, so they fail first
                fits = False
                for j in slots[i]:
                    if degs[j] >= (child_partner & avoid[j]).bit_count():
                        break
                else:
                    for j in slots[i]:
                        degs[j] += 1
                    for d, av in zip(degs, avoid):
                        if d > (child_partner & av).bit_count():
                            for j in slots[i]:
                                degs[j] -= 1
                            break
                    else:
                        fits = True
                if not fits:
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
                child_p, child_pcount = here, here_count
            else:
                child_p = here & compat[i]
                child_pcount = child_p.bit_count()
            if size + child_pcount >= best and not (g_ge_f and 2 * gc < best):
                rec(chosen | low, fc, cneed, child_p, child_pcount, child_partner, reach,
                    atoms and step[1])
            if slots is not None:
                for j in slots[i]:
                    degs[j] -= 1

    try:
        rec(0, 0, max(r_min, 0), (1 << m) - 1, m, (1 << ng) - 1, (1 << ng) - 1,
            rule and rule.root)
    finally:
        del rec  # rec's closure holds rec: break the cycle, on a raise too
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
    are maximal and only leaves need scoring.  A child is entered only when
    it and its candidates can still meet the constraint.  At node entry one
    greedy colouring pass bounds the clique and finds the forced vertices
    (module docstring); these join the clique, and the same test runs again
    on the result: at a leaf no candidates are left, so that test was the
    leaf's own, and every leaf is feasible.

    sup[v] is the set of vertices whose sets strictly contain v's set, and
    the search looks only for down-sets: a maximum feasible s-union family Q
    is one, since for B inside A in Q every union B | C lies inside A | C,
    so adding B keeps Q s-union and feasible.  Once the walk has passed over
    v (branched on it or skipped it), every later clique avoids v, so a
    maximum one avoids v's supersets too, and those leave the candidates at
    once; v's own subtree keeps them.  The callers number the vertices in
    descending mask order, so the walk, which goes from the top index down,
    reaches the small sets first and drops the most supersets.

    The walk of a node stops once it has searched the subtree of a vertex
    adjacent to every other candidate still in the walk (the last branch of
    the module docstring).  It stops only after a subtree that was entered:
    a vertex skipped by the side-constraint test does not end the walk.
    The set of maximum cliques is unchanged; ``node_count`` counts the
    pruned search.

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
    elems = [_indices(vm << 1) for vm in vmasks]
    degs = [0] * (nelems + 1)  # degs[e] of element e over chosen layer vertices

    def infeasible(laycount: int, p: int) -> bool:
        """True only when no clique within the chosen vertices and ``p``
        meets the side constraint: it has at most ``reach`` layer vertices,
        and the degrees of the chosen ones only grow.  ``laycount`` and
        ``degs`` count the chosen; with ``p`` empty the test is exact."""
        reach = laycount + (p & layer).bit_count()
        if cons_kind == 1:
            return reach < r
        return cons_kind == 2 and reach - max(degs) < r

    def expand(q: int, qcount: int, laycount: int, p: int) -> None:
        nonlocal nodes, best, maxers
        nodes += 1
        if not nodes & _CHECK_MASK and deadline is not None and time.monotonic() > deadline:
            raise _over_time(nodes, best)
        # Greedy colouring: a clique among the vertices of colours <= c has
        # at most c of them.  A class that closes as a singleton {w}, with no
        # non-neighbour of w left in p, holds a forced vertex (module
        # docstring) and is no colour.
        forced = 0
        classes = []
        uncoloured = p
        while uncoloured:
            low = uncoloured & -uncoloured
            far = apart[low.bit_length() - 1]
            avail = uncoloured & far
            if not avail and not p & far:
                forced |= low
                uncoloured ^= low
                continue
            cls = low
            while avail:
                low = avail & -avail
                cls |= low
                avail &= apart[low.bit_length() - 1]
            uncoloured ^= cls
            classes.append(cls)
        p ^= forced
        q |= forced
        qcount += forced.bit_count()
        flay = forced & layer
        laycount += flay.bit_count()
        raised = []
        if cons_kind == 2:
            while flay:
                v = flay.bit_length() - 1
                flay ^= 1 << v
                raised += elems[v]
            for e in raised:
                degs[e] += 1
        try:  # the forced vertices' degrees drop again on every way out
            if infeasible(laycount, p):
                return
            if not p:  # feasible: the test after forcing saw exactly q
                if qcount > best:
                    best = qcount
                    maxers = [q]
                elif qcount == best:
                    if len(maxers) >= cap:
                        raise _over_cap(cap)
                    maxers.append(q)
                return
            # The walk goes down from the top colour and stops at the first
            # colour c with qcount + c < best.
            colour = len(classes)
            local_p = p
            for cls in reversed(classes):
                cls &= local_p
                while cls:
                    if qcount + colour < best:
                        return
                    v = cls.bit_length() - 1
                    low = 1 << v
                    child_p = local_p & adj[v]
                    last = not local_p & apart[v]  # v is adjacent to every other candidate
                    local_p &= keep[v]
                    cls &= local_p
                    in_layer = layer >> v & 1
                    bumped = elems[v] if cons_kind == 2 and in_layer else ()
                    for e in bumped:
                        degs[e] += 1
                    entered = not infeasible(laycount + in_layer, child_p)
                    if entered:
                        expand(q | low, qcount + 1, laycount + in_layer, child_p)
                    for e in bumped:
                        degs[e] -= 1
                    if entered and last:  # every later clique extends by v: none is maximum
                        return
                colour -= 1
        finally:
            for e in raised:
                degs[e] -= 1

    try:
        expand(0, 0, 0, (1 << nverts) - 1)
    finally:
        del expand  # its closure holds itself: break the cycle
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
    symmetric: bool,
    deadline: float | None = None,
):
    """Maximum intersecting k-uniform family with diversity >= r, searched
    in the scope where the maximum degree sits at element 1.

    The family splits as H (members avoiding 1, enumerated) plus A (members
    containing 1, always the full set of candidates meeting every H member:
    adding a compatible 1-member never hurts any constraint).  So A is H's
    partner along the ``akill`` rows, and the search is the pair kernel's
    walk maximizing |H| + |A|, every H member counting toward r, with the
    degree cap ``deg_e(F) <= deg_1(F)`` as its degree rows: the chosen H
    members containing e are at most the A members avoiding e, for every
    element e but 1, which no H member contains.  Diversity of a feasible
    family equals |H|.

    With ``symmetric`` the tables are unchanged by relabeling the elements
    2..n, as the callers' are, and the walk branches once per orbit at every
    node, the orbits those of ``hmasks`` (:func:`pair_bnb`'s ``masks``).
    For the callers' tables, where the H candidates are the k-sets avoiding
    element 1, the root step of that rule branches on candidate 0 only, as
    the stabilizer of 1 is transitive on those k-sets, so every non-empty H
    found holds it; the empty H, seeded for r <= 0, is the one maximizer
    without it.  Without ``symmetric`` the walk visits every family.  The
    callers count the other relabeled copies by the orbit-stabilizer
    theorem (:func:`setfam.search.problems.classify_maximizers`).

    Returns (best, maximizers as H bitsets, node_count); each maximizer's A
    is every A candidate outside the ``akill`` rows of its H members.
    """
    # slot j is element j + 2
    slots = [_indices(hm >> 1) for hm in hmasks]
    return _partner_search(
        mh, hcompat, (0,) * mh, akill, na, (1 << mh) - 1, r, 0, False, -1, deadline,
        masks=hmasks if symmetric else None, slots=slots, avoid=avoid_a[2:nelems + 1],
        empty=r <= 0,
    )
