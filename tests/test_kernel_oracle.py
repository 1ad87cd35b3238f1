"""The three kernel entry points against exhaustive enumeration.

``pair_bnb`` and ``diversity_bnb`` are two entry points of one partner
search, which cuts a node by the deficiency bound |F| + |partner| + |p| - nu,
where nu is the size of a maximum matching from the remaining candidates p
into the partner (see :mod:`setfam.engines.pykern`).  The matching helper,
and the reach set it hands down the walk, are checked against the deficiency
form of Hall's theorem, and each entry point,
on random small tables, against a plain loop over every family: the optimum
and the maximizer set must be the enumeration's, and the compiled twin must
give the same optimum, maximizers and ``nodes``.  Random tables have no
symmetry, so both entry points run there without the orbit rule (no element
masks for ``pair_bnb``, ``symmetric`` false for ``diversity_bnb``), and walk
every family; ``pair_bnb`` also runs without the degree cap, which applies
only when it is passed.  Its random order rows come with ``compat`` rows
widened to meet the partner search's precondition on them, and the
enumeration keeps the down-sets of that order.  The orbit rule is held
equal on both backends on the callers' own tables.  The clique kernel is checked the same
way on random graphs, without its down-set cut, once with no side
constraint and once with each of its two, and with its down-set cut on the
s-union graphs the callers build, against every down-set clique.  The
clique walk of the callers' own rows is pinned too, so that a change to its
nodes shows without a compiler.
"""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from setfam.bounds import Params
from setfam.engines import pykern
from setfam.search import Problem, solve
from setfam.search.tables import build_union_tables


def _members(bits: int) -> list[int]:
    return [i for i in range(bits.bit_length()) if bits >> i & 1]


def _deficiency(p: int, rows: list[int], right: int) -> int:
    """max over S inside p of |S| - |N(S)|, N(S) the members of ``right``
    that the rows of S reach; S = {} gives 0."""
    best = 0
    members = _members(p)
    for s in range(1 << len(members)):
        reached = 0
        for b, i in enumerate(members):
            if s >> b & 1:
                reached |= rows[i]
        best = max(best, s.bit_count() - (reached & right).bit_count())
    return best


def _reached(p: int, rows: list[int], right: int) -> int:
    """N(p): the members of ``right`` that some row of ``p`` reaches."""
    reached = 0
    for i in _members(p):
        reached |= rows[i]
    return reached & right


def test_matching_decides_the_deficiency_bound():
    """nu = |p| - max |S| - |N(S)| (Ore): for every want, the helper reaches
    want exactly when nu does, and otherwise returns a bound on nu below it
    and a reach set that holds N(p)."""
    rng = random.Random(1955)
    owner = [0] * 8
    for _ in range(1500):
        nl, nr = rng.randint(1, 8), rng.randint(1, 8)
        density = rng.choice((0.15, 0.3, 0.5, 0.8))
        rows = [sum(1 << j for j in range(nr) if rng.random() < density) for _ in range(nl)]
        p = rng.randint(1, (1 << nl) - 1)
        right = rng.randint(0, (1 << nr) - 1)
        nu = p.bit_count() - _deficiency(p, rows, right)
        reached = _reached(p, rows, right)
        for want in range(1, p.bit_count() + 1):
            got, reach = pykern._matching(p, rows, right, want, owner)
            if nu >= want:
                assert got == want, (p, rows, right, want)
            else:
                assert nu <= got < want, (p, rows, right, want)
                assert reach & reached == reached, (p, rows, right, want)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_inherited_reach_set_only_skips_matchings_that_cannot_cut(data):
    """A child's candidates p' lie inside its parent's p and its partner
    right' inside the parent's right, so the parent's reach set, cut to
    right', bounds the child's nu: wherever it holds fewer than want
    members, the child's nu (by Ore's formula) is below want too, and the
    partner search may skip the child's matching."""
    nl, nr = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 7))
    rows = [data.draw(st.integers(0, (1 << nr) - 1)) for _ in range(nl)]
    p = data.draw(st.integers(1, (1 << nl) - 1))
    right = data.draw(st.integers(0, (1 << nr) - 1))
    # a parent call that does not cut, the only kind whose set is passed down
    want = p.bit_count() - _deficiency(p, rows, right) + 1
    got, reach = pykern._matching(p, rows, right, want, [0] * nr)
    assert got < want
    child_p = p & data.draw(st.integers(0, (1 << nl) - 1))
    child_right = right & data.draw(st.integers(0, (1 << nr) - 1))
    child_nu = child_p.bit_count() - _deficiency(child_p, rows, child_right)
    inherited = (reach & child_right).bit_count()
    for child_want in range(1, child_p.bit_count() + 1):
        if inherited < child_want:
            assert child_nu < child_want, (rows, p, right, child_p, child_right)


def _symmetric(draw, m: int) -> list[int]:
    rows = [0] * m
    for i in range(m):
        for j in range(i + 1, m):
            if draw(st.booleans()):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return rows


def _closed_succ(draw, m: int) -> list[int]:
    """The succ rows of a random order: transitively closed, every row above
    its own index (the walk meets predecessors first)."""
    pred = []
    for i in range(m):
        direct = draw(st.integers(0, (1 << i) - 1))
        row = direct
        for j in _members(direct):
            row |= pred[j]
        pred.append(row)
    return [sum(1 << j for j in range(m) if pred[j] >> i & 1) for i in range(m)]


def _widen_to_predecessors(compat: list[int], succ: list[int]) -> None:
    """Widen the symmetric ``compat`` until each candidate j is compatible
    with everything its successors are, but itself: then a candidate
    compatible with a set of chosen members has every predecessor
    compatible with them too, the precondition of the partner search's
    order rows (:mod:`setfam.engines.pykern`)."""
    changed = True
    while changed:
        changed = False
        for j, row in enumerate(succ):
            for i in _members(row):
                extra = compat[i] & ~compat[j] & ~(1 << j)
                if extra:
                    changed = True
                    compat[j] |= extra
                    for x in _members(extra):
                        compat[x] |= 1 << j


@st.composite
def pair_instances(draw):
    m = draw(st.integers(1, 7))
    ng = draw(st.integers(0, 7))
    compat = _symmetric(draw, m) if draw(st.booleans()) else None
    succ = _closed_succ(draw, m)
    if compat is not None:
        _widen_to_predecessors(compat, succ)
    kill = [draw(st.integers(0, (1 << ng) - 1)) for _ in range(m)]
    rmask = draw(st.integers(0, (1 << m) - 1))
    r_min, g_min = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    g_ge_f = draw(st.booleans())
    # a cap needs the partner universe to be the candidate universe
    cap_excess = draw(st.integers(0, 3)) if ng == m and draw(st.booleans()) else -1
    return m, compat, succ, kill, ng, rmask, r_min, g_min, g_ge_f, cap_excess, None


def _pair_oracle(m, compat, succ, kill, ng, rmask, r_min, g_min, g_ge_f, cap_excess, _masks):
    best, found = -1, []
    for fam in range(1, 1 << m):
        members = _members(fam)
        if compat is not None and any(fam & ~compat[i] & ~(1 << i) for i in members):
            continue
        if any(succ[j] & fam for j in range(m) if not fam >> j & 1):
            continue  # not a down-set: a member requires a candidate left out
        partner = (1 << ng) - 1
        for i in members:
            partner &= ~kill[i]
        f, g = len(members), partner.bit_count()
        if g < g_min or (g_ge_f and g < f) or (fam & rmask).bit_count() < r_min:
            continue
        if cap_excess >= 0:
            g -= max(0, (fam & partner).bit_count() - cap_excess)
            if g < r_min:
                continue
        if f + g > best:
            best, found = f + g, []
        if f + g == best:
            found.append(fam)
    return best, found


@settings(max_examples=300, deadline=None)
@given(pair_instances())
def test_pair_kernel_matches_exhaustive_enumeration(compiled_kernels, args):
    best, maxers, nodes = pykern.pair_bnb(*args)
    assert (best, sorted(maxers)) == _pair_oracle(*args)
    assert compiled_kernels.pair_bnb(*args) == (best, maxers, nodes)


@st.composite
def diversity_instances(draw):
    mh = draw(st.integers(1, 7))
    na = draw(st.integers(0, 7))
    nelems = draw(st.integers(1, 5))
    hcompat = _symmetric(draw, mh)
    # H members avoid element 1, the bit 0
    hmasks = [draw(st.integers(0, (1 << nelems - 1) - 1)) << 1 for _ in range(mh)]
    akill = [draw(st.integers(0, (1 << na) - 1)) for _ in range(mh)]
    avoid_a = [0] + [draw(st.integers(0, (1 << na) - 1)) for _ in range(nelems)]
    r = draw(st.integers(0, 3))
    return mh, hcompat, hmasks, akill, na, avoid_a, r, nelems, False


def _diversity_oracle(mh, hcompat, hmasks, akill, na, avoid_a, r, nelems, _symmetric):
    best, found = -1, []
    for h in range(1 << mh):
        members = _members(h)
        if len(members) < r or any(h & ~hcompat[i] & ~(1 << i) for i in members):
            continue
        amask = (1 << na) - 1
        for i in members:
            amask &= ~akill[i]
        # the degree cap deg_e(F) <= deg_1(F) = |A|, for every element e > 1
        if any(
            sum(hmasks[i] >> e - 1 & 1 for i in members) > (amask & avoid_a[e]).bit_count()
            for e in range(2, nelems + 1)
        ):
            continue
        value = len(members) + amask.bit_count()
        if value > best:
            best, found = value, []
        if value == best:
            found.append(h)
    return best, found


@settings(max_examples=300, deadline=None)
@given(diversity_instances())
def test_diversity_kernel_matches_exhaustive_enumeration(compiled_kernels, args):
    best, maxers, nodes = pykern.diversity_bnb(*args)
    assert (best, sorted(maxers)) == _diversity_oracle(*args)
    assert compiled_kernels.diversity_bnb(*args) == (best, maxers, nodes)


def test_orbit_rule_gives_equal_walks_on_both_backends(compiled_kernels, monkeypatch):
    """Record the partner searches of brute pair and diversity solves, which
    pass their element masks, and replay each on the compiled kernels: the
    same optimum, maximizers and ``nodes``.  cross_pair_capped (6,2,2) walks
    nodes with a nontrivial group down to depth 3 at least: on [6], three
    2-sets leave two elements with the same memberships."""
    calls = []
    for name in ("pair_bnb", "diversity_bnb"):
        def record(*args, _kernel=getattr(pykern, name), _name=name):
            result = _kernel(*args)
            calls.append((_name, args, result))
            return result

        monkeypatch.setattr(pykern, name, record)
    cases = [
        ("cross_pair_capped", Params(n=6, k=2, r=2)),
        ("cross_pair_capped", Params(n=7, k=2, r=3)),
        ("cross_pair_max", Params(n=7, k=3, r=1)),
        ("hemibundled_max", Params(n=7, k=3, t=0, r=2)),
        ("hemibundled_max", Params(n=8, k=2, t=1, r=2)),
        ("diverse_intersecting_max", Params(n=7, k=3, r=0)),
        ("diverse_intersecting_max", Params(n=9, k=3, r=2)),
    ]
    for kind, p in cases:
        solve(Problem(kind, p, "clique" if kind == "diverse_intersecting_max" else "brute"),
              backend="python")
    assert len(calls) == len(cases)
    for name, args, expected in calls:
        assert (args[10] is not None) if name == "pair_bnb" else args[8]  # the orbit rule is on
        assert getattr(compiled_kernels, name)(*args) == expected, (name, args[0])
    _, args, (_, maxers, _) = calls[0]
    rule = pykern._orbits(args[10])
    depths = set()
    for chosen in maxers:  # the depth at which each maximizer's path meets a trivial group
        atoms, depth = rule.root, 0
        for i in _members(chosen):
            atoms, depth = rule.step(atoms, rule.node(atoms), i)[1], depth + 1
            if atoms is None:
                depths.add(depth)
                break
    assert depths and min(depths) > 3


@st.composite
def graphs(draw):
    nverts = draw(st.integers(1, 9))
    return nverts, _symmetric(draw, nverts)


def _clique_oracle(qs, nverts, adj, _sup, cons_kind, layer, vmasks, nelems, r):
    """The largest of the vertex sets ``qs`` that are cliques and meet the
    side constraint: at least r layer vertices (cons_kind 1), or layer
    vertices of diversity at least r, their count less the largest number of
    them holding one element (cons_kind 2)."""
    best, found = -1, []
    for q in qs:
        members = _members(q)
        if any(q & ~adj[v] & ~(1 << v) for v in members):
            continue
        chosen = [vmasks[v] for v in members if layer >> v & 1]
        value = len(chosen)
        if cons_kind == 2:
            value -= max(sum(m >> e & 1 for m in chosen) for e in range(nelems))
        if cons_kind and value < r:
            continue
        size = q.bit_count()
        if size > best:
            best, found = size, []
        if size == best:
            found.append(q)
    return best, found


@settings(max_examples=300, deadline=None)
@given(graphs())
def test_clique_kernel_matches_exhaustive_enumeration(compiled_kernels, graph):
    nverts, adj = graph
    # no superset cut (sup all zero) and no side constraint (cons_kind 0)
    args = (nverts, adj, [0] * nverts, 0, 0, [0] * nverts, 1, 0)
    best, maxers, nodes = pykern.clique_bnb(*args)
    assert (best, sorted(maxers)) == _clique_oracle(range(1, 1 << nverts), *args)
    assert compiled_kernels.clique_bnb(*args) == (best, maxers, nodes)


@st.composite
def constrained_graphs(draw):
    """A random graph with up to two extra vertices adjacent to every other,
    which the kernel forces into the clique at once; a random layer, and
    random vertex sets over a small ground set for the diversity
    constraint."""
    nverts = draw(st.integers(1, 9))
    adj = _symmetric(draw, nverts)
    for _ in range(draw(st.integers(0, 2))):
        u = draw(st.integers(0, nverts - 1))
        adj[u] = ((1 << nverts) - 1) & ~(1 << u)
        for v in range(nverts):
            if v != u:
                adj[v] |= 1 << u
    cons_kind = draw(st.sampled_from((1, 2)))
    layer = draw(st.integers(0, (1 << nverts) - 1))
    nelems = draw(st.integers(1, 4))
    vmasks = [draw(st.integers(0, (1 << nelems) - 1)) for _ in range(nverts)]
    r = draw(st.integers(0, 4))
    return nverts, adj, [0] * nverts, cons_kind, layer, vmasks, nelems, r


@settings(max_examples=400, deadline=None)
@given(constrained_graphs())
def test_constrained_clique_kernel_matches_exhaustive_enumeration(compiled_kernels, args):
    best, maxers, nodes = pykern.clique_bnb(*args)
    assert (best, sorted(maxers)) == _clique_oracle(range(1, 1 << args[0]), *args)
    assert compiled_kernels.clique_bnb(*args) == (best, maxers, nodes)


@st.composite
def union_graphs(draw):
    """The graph of the s-union kinds on at most 5 points, whole or kept
    around the anchor {1, ..., c}, with its down-set cut (sup); a side
    constraint on the c-sets, or none."""
    n = draw(st.integers(1, 5))
    s = draw(st.integers(0, n))
    c = draw(st.integers(0, s))
    tabs = build_union_tables(n, s, c if draw(st.booleans()) else None)
    layer = sum(1 << v for v, m in enumerate(tabs.vmasks) if m.bit_count() == c)
    cons_kind = draw(st.sampled_from((0, 1, 2)))
    r = draw(st.integers(0, 4))
    return len(tabs.vmasks), tabs.adj, tabs.sup, cons_kind, layer, tabs.vmasks, n, r


def _down_set_cliques(vmasks: list[int], adj: list[int]):
    """Every non-empty clique whose sets are closed under taking subsets,
    as a vertex bitset; the kept sets are themselves closed under subsets."""
    index = {m: v for v, m in enumerate(vmasks)}
    order = sorted(index)  # every set after its subsets

    def grow(k: int, q: int):
        if k == len(order):
            if q:
                yield q
            return
        yield from grow(k + 1, q)
        m = order[k]
        v = index[m]
        below = (index[m ^ 1 << e] for e in range(m.bit_length()) if m >> e & 1)
        if not q & ~adj[v] and all(q >> u & 1 for u in below):
            yield from grow(k + 1, q | 1 << v)

    return grow(0, 0)


@settings(max_examples=200, deadline=None)
@given(union_graphs())
def test_clique_kernel_with_its_down_set_cut_matches_enumeration(compiled_kernels, args):
    """Every maximum feasible clique is a down-set (adding a subset of a
    member keeps the family s-union and feasible), so the kernel, which
    searches down-sets only, finds all of them."""
    best, maxers, nodes = pykern.clique_bnb(*args)
    assert (best, sorted(maxers)) == _clique_oracle(_down_set_cliques(args[5], args[1]), *args)
    assert compiled_kernels.clique_bnb(*args) == (best, maxers, nodes)


@pytest.mark.parametrize(
    "n, s, r, expected",
    [
        (7, 5, 1, (42, 65, 1553)),
        (7, 5, 2, (42, 13, 1420)),
        (7, 5, 3, (42, 13, 1403)),
        (6, 5, 1, (32, 1320, 2485)),
        (7, 4, 1, (24, 4, 23)),
        (8, 4, 2, (28, 3, 21)),
        (7, 5, None, (44, 7, 1148)),
        (6, 5, None, (32, 2646, 5034)),
    ],
)
def test_clique_walk_of_the_union_rows_is_pinned(n, s, r, expected):
    """The optimum, the number of maximizers and ``nodes`` of the pure-Python
    clique kernel on the tables of main5 (layer s//2 + 1, side constraint 2
    for odd s and 1 for even s) and, with r None, of s_union_max (no layer,
    no side constraint)."""
    if r is None:
        tabs, cons_kind, r = build_union_tables(n, s, None), 0, 0
    else:
        tabs, cons_kind = build_union_tables(n, s, s // 2 + 1), 2 if s % 2 else 1
    best, maxers, nodes = pykern.clique_bnb(
        len(tabs.vmasks), tabs.adj, tabs.sup, cons_kind, tabs.layer, tabs.vmasks, n, r
    )
    assert (best, len(maxers), nodes) == expected
