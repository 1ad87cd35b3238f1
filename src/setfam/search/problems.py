"""Search problems, engines, and reports.

Every problem kind recomputes a theorem's optimum by exact search and
reports it against the matching closed-form bound.  For the pair kinds the
partner family is always the largest family cross-intersecting with F (the
full layer minus the disjointness family), so the search ranges over F
only.

``_KIND_ENGINES`` lists the engines each kind runs.  The brute pair kinds
branch once per orbit at every node (see :func:`build_pair_tables`), so
their ``nodes`` count that reduced search.
The s-union kinds search only down-sets, which every maximum s-union
family is (see :func:`setfam.engines.pykern.clique_bnb`), so their
``nodes`` count that smaller search.  The pair kernel and the diversity
clique kernel cut every node whose deficiency bound (the module docstring
of :mod:`setfam.engines.pykern`) falls below the incumbent, and ``nodes``
counts such a node once, as it is cut.

``shifted`` is valid where every constraint survives the shifting operator
(sum objectives with (t+1)-intersecting / cross-intersecting constraints);
for the diversity problem shifting can lower the diversity, so there the
shifted engine is only a lower bound and full validation uses ``clique``.
That engine runs the pair kernel with an empty partner universe, counting
toward r only the members that avoid element 1, so like every engine it
runs on either backend and its report names the backend that ran.
The overlap cap of cross_pair_capped can grow under joint shifts, so only
``brute`` applies.

Classification (:func:`classify_maximizers`) lists each class as an orbit
where the engine's maximizer scope is closed under a known permutation
group: the scope of the s-union kinds and of the brute pair kinds is every
maximum family (a pair's F side, its partner being a function of F),
closed under S_n, and the diversity ``clique`` engine's is every maximum
family whose maximum degree is at element 1, closed under the stabilizer
of 1 and under the swaps (1 x) of the elements x of maximum degree.
s_union_conditioned_max searches only the maximizers that hold a fixed
anchor member, the (d+1)-set {1, ..., d+1} (see
:func:`build_union_tables`).  The brute pair kinds and the diversity
``clique`` engine branch once per orbit at every node of their partner
search, so they return only the maximizers that a replay of that walk
accepts (:func:`setfam.engines.pykern.walk_returns`).  The root step of
that rule branches on candidate 0 only, so each non-empty one holds it: the
least j-set {1, ..., j} for the brute pair kinds, the H member
{2, ..., k+1} for the diversity engine (see
:func:`setfam.engines.pykern.diversity_bnb`).
Their ``nodes`` count that search, and the walk recovers every other
maximizer, so ``maximizer_count`` and the classes are those of the whole
scope.  The ``shifted`` scopes are not closed under relabeling, so those
classify by ``are_isomorphic``.
"""

from __future__ import annotations

import time
from functools import lru_cache, reduce
from itertools import compress
from math import comb
from operator import or_

from .._record import Record
from ..bounds import (
    BoundValue,
    Params,
    bound_classic,
    bound_diversity,
    bound_hemibundled,
    bound_pairs,
    bound_union,
)
from ..errors import InfeasibleInstanceError, ParamRangeError
from ..family import (
    Family,
    apply_permutation,
    are_isomorphic,
    is_s_union,
    iso_invariant,
    layer_masks,
)
from .. import engines
from ..engines import pykern
from . import ENGINES, KINDS
from .tables import (
    build_diversity_tables,
    build_pair_tables,
    build_union_tables,
    dominance_succ,
)

TYPE_CHECKING = False
if TYPE_CHECKING:  # names used only in annotations, never imported at run time
    from collections.abc import Callable, Iterator, Sequence


__all__ = [
    "KINDS",
    "Problem",
    "MaximizerClass",
    "SearchReport",
    "solve",
    "bound_for",
    "classify_maximizers",
    "enumerate_shifted",
    "LayerBound",
    "check_layer_inequality",
]

_PAIR_KINDS = ("hemibundled_max", "cross_pair_max", "cross_pair_capped")


class Problem(Record):
    __slots__ = ("kind", "params", "engine")

    kind: str
    params: Params
    engine: str

    def __init__(self, kind: str, params: Params, engine: str = "auto"):
        if kind not in KINDS:
            raise ParamRangeError(f"unknown problem kind {kind!r}")
        if engine not in ENGINES:
            raise ParamRangeError(f"unknown engine {engine!r}")
        _resolve_engine(kind, engine)  # rejects an engine the kind does not run
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "engine", engine)


class MaximizerClass(Record):
    __slots__ = ("representative", "size")

    representative: object  # Family, or (Family, Family) for pair kinds
    size: int

    def __init__(self, representative: object, size: int):
        object.__setattr__(self, "representative", representative)
        object.__setattr__(self, "size", size)


class SearchReport(Record):
    __slots__ = (
        "kind", "params", "engine", "backend", "optimum", "bound", "matches_bound",
        "maximizer_count", "classes", "nodes", "elapsed", "note",
    )
    _defaults = {"note": None}

    kind: str
    params: Params
    engine: str
    backend: str
    optimum: int
    bound: BoundValue
    matches_bound: bool
    maximizer_count: int
    classes: tuple[MaximizerClass, ...]
    nodes: int
    elapsed: float
    note: str | None

    @property
    def class_representatives(self) -> list:
        return [c.representative for c in self.classes]


def _resolve_engine(kind: str, engine: str) -> str:
    allowed = _KIND_ENGINES[kind]
    if engine == "auto":
        return next(iter(allowed))
    if engine == "brute" and "clique" in allowed:
        return "clique"  # exhaustive engine for graph-shaped kinds
    if engine == "clique" and kind in _PAIR_KINDS:
        raise ParamRangeError(f"engine 'clique' does not apply to kind {kind!r}")
    if engine not in allowed:
        raise ParamRangeError(f"engine {engine!r} is not valid for kind {kind!r}")
    return engine


def bound_for(kind: str, p: Params) -> BoundValue:
    """The closed-form bound a kind's optimum is compared against."""
    if kind == "hemibundled_max":
        return bound_hemibundled("main1", p)
    if kind == "cross_pair_max":
        (k, r) = p.require("k", "r")
        return bound_pairs("f24_i" if r <= k - 1 else "f24_ii", p)
    if kind == "cross_pair_capped":
        (k, r) = p.require("k", "r")
        return bound_pairs("main3_i" if r <= k - 1 else "main3_ii", p)
    if kind == "diverse_intersecting_max":
        (r,) = p.require("r")
        if r == 0:
            return bound_classic("ekr", p)
        return bound_diversity(p)
    if kind == "s_union_max":
        (n, s) = p.require("n", "s")
        which = "katona_even" if s % 2 == 0 else "katona_odd"
        return bound_union(which, Params(n=n, d=s // 2))
    if kind == "s_union_conditioned_max":
        (n, s, r) = p.require("n", "s", "r")
        which = "main5_even" if s % 2 == 0 else "main5_odd"
        return bound_union(which, Params(n=n, d=s // 2, r=r))
    raise ParamRangeError(f"unknown problem kind {kind!r}")


# --------------------------------------------------------------- maximizers


def classify_maximizers(
    families: list[Family], generators: Callable | None = None, required: Callable | None = None
) -> list[MaximizerClass]:
    """Partition maximizers into isomorphism classes.

    Representatives are the lexicographically least members of their
    classes, and classes are listed in the order of their representatives.

    Without ``generators``, classes are bucketed by :func:`iso_invariant`,
    so ``are_isomorphic`` only runs within a bucket.  This serves the scopes
    that are not closed under relabeling: the shifted engines.

    ``generators`` maps a family's sorted member-mask tuple to permutations
    of [n] (``perm[i-1]`` the image of i) for a maximizer scope closed under
    relabeling, so that each class is an orbit and is listed by walking it
    instead of being found again pair by pair.  The walks start from the
    listed families in ascending order; a class's size is the number of
    families its walk reaches, and its representative the least of them,
    built here when the list does not hold it.  Without ``required`` the
    list holds every maximizer of the scope; with it (a predicate on sorted
    member-mask tuples), every maximizer it accepts, as a reduced search
    returns them (:func:`_holding`,
    :func:`setfam.engines.pykern.walk_returns`), and at least one of each
    class.  A relabeled image that the list should hold and does not means
    the list or the generators are wrong, and raises ``AssertionError``.
    More families reached than ``pykern.MAXIMIZER_CAP`` raise the kernels'
    cap error.
    """
    if generators is not None:
        return _orbit_classes(families, generators, required)
    classes: list[list] = []  # [representative, size]
    buckets: dict[tuple, list[list]] = {}
    for fam in sorted(families, key=lambda F: F.members):
        bucket = buckets.setdefault(iso_invariant(fam), [])
        for cls in bucket:
            if are_isomorphic(cls[0], fam):
                cls[1] += 1
                break
        else:
            cls = [fam, 1]
            bucket.append(cls)
            classes.append(cls)
    return [MaximizerClass(rep, size) for rep, size in classes]


def _orbit_classes(
    families: list[Family], generators: Callable, required: Callable | None
) -> list[MaximizerClass]:
    """The orbits of ``families`` under ``generators``, each walked from
    the least listed family not yet reached (see :func:`classify_maximizers`)."""
    by_members = {F.members: F for F in families}
    n = families[0].n if families else 0
    cap = pykern.MAXIMIZER_CAP
    reached: set[tuple[int, ...]] = set()
    classes = []
    for start in sorted(by_members):
        if start in reached:
            continue
        orbit = _orbit(start, generators, cap - len(reached))
        if orbit is None:
            raise pykern._over_cap(cap)
        for members in orbit:
            if members not in by_members and (required is None or required(members)):
                raise AssertionError(
                    f"the orbit of maximizer {by_members[start]} holds {Family(n, members)}, "
                    "which is not a maximizer"
                )
        reached |= orbit
        least = min(orbit)
        rep = by_members[least] if least in by_members else Family(n, least)
        classes.append(MaximizerClass(rep, len(orbit)))
    classes.sort(key=lambda c: c.representative.members)
    return classes


def _orbit(start: tuple[int, ...], generators: Callable, limit: int) -> set[tuple[int, ...]] | None:
    """The orbit of the member tuple ``start`` under ``generators``, or None
    once it holds more than ``limit`` tuples."""
    orbit: set[tuple[int, ...]] = set()
    for _ in _walk(start, generators, orbit):
        if len(orbit) > limit:
            return None
    return orbit


def _walk(start: tuple[int, ...], generators: Callable, seen: set):
    """Yield the orbit of the member tuple ``start`` under ``generators``,
    ``start`` first, each tuple once and as soon as it is added to ``seen``."""
    seen.add(start)
    yield start
    stack = [start]
    while stack:
        members = stack.pop()
        for perm in generators(members):
            image = tuple(sorted(_images(members, _chunk_tables(perm))))
            if image not in seen:
                seen.add(image)
                stack.append(image)
                yield image


# Built once per process and permutation: both groups together use at most
# n + 3 tables per n, the degree spread's included, so 512 hold n = 2..28.
@lru_cache(maxsize=512)
def _chunk_tables(perm: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The relabeling ``perm`` of [n], n = len(perm), as one table per 8-bit
    chunk of a mask: entry b of table c is the image of the bits b << 8c.  A
    table has 256 entries, or fewer in the last chunk, whose mask bits stop
    at n."""
    n = len(perm)
    tables = []
    for base in range(0, n, 8):
        table = [0]
        for e in range(base, min(base + 8, n)):
            image = 1 << perm[e] - 1
            table += [t | image for t in table]
        tables.append(tuple(table))
    return tuple(tables)


def _images(members: tuple[int, ...], tables: tuple[tuple[int, ...], ...]) -> list[int]:
    """Each member mapped through the chunk tables of :func:`_chunk_tables`."""
    if len(tables) == 1:
        table = tables[0]
        return [table[m] for m in members]
    if len(tables) == 2:  # n = 9..16
        lo, hi = tables
        return [lo[m & 255] | hi[m >> 8] for m in members]
    out = []
    for m in members:
        image = 0
        for table in tables:
            image |= table[m & 255]
            m >>= 8
        out.append(image)
    return out


def _cycle(n: int, elements) -> tuple[int, ...]:
    """The cyclic permutation of [n] taking each of ``elements`` to the next."""
    perm = list(range(1, n + 1))
    elements = list(elements)
    for a, b in zip(elements, elements[1:] + elements[:1]):
        perm[a - 1] = b
    return tuple(perm)


# Each source is built once per n, and a process meets a few n.
@lru_cache(maxsize=32)
def _symmetric_generators(n: int) -> Callable:
    """S_n, generated by (1 2) and (1 2 ... n).  The pair and s-union
    objectives and side constraints ignore labels, so their maximum
    families are closed under S_n."""
    gens = (_cycle(n, (1, 2)), _cycle(n, range(1, n + 1)))  # shared: read-only
    return lambda members: gens


@lru_cache(maxsize=32)
def _max_degree_generators(n: int) -> Callable:
    """The relabelings that keep a family with maximum degree at element 1
    in that scope: the stabilizer of 1, generated by (2 3) and (2 ... n),
    and the swap (1 x) for each element x whose degree equals element 1's.

    They reach every relabeled copy in the scope: if G = pi F and both lie
    in it, x = pi^-1(1) has maximum degree in F, and pi (1 x) fixes 1.
    """
    stab = [_cycle(n, (2, 3)), _cycle(n, range(2, n + 1))] if n >= 3 else []
    swaps = [(x, _cycle(n, (1, x))) for x in range(2, n + 1)]
    # element x to a counter field of n + 1 bits, wide enough for any degree,
    # so that the spread members sum to every degree at once
    w = n + 1
    field = (1 << w) - 1
    spread = _chunk_tables(tuple((x - 1) * w + 1 for x in range(1, n + 1)))

    def generators(members: tuple[int, ...]) -> list[tuple[int, ...]]:
        degs = sum(_images(members, spread))
        deg_1 = degs & field
        return stab + [swap for x, swap in swaps if degs >> (x - 1) * w & field == deg_1]

    return generators


def _with_max_degree_at_1(F: Family) -> Family:
    """``F`` relabeled so that element 1 has maximum degree, which puts it in
    the diversity ``clique`` scope (and in every S_n scope): unchanged when
    it has, else swapped by (1 x), x the least element of maximum degree."""
    degs = [sum(m >> e & 1 for m in F.members) for e in range(F.n)]
    x = degs.index(max(degs)) + 1
    return F if x == 1 else apply_permutation(F, _cycle(F.n, (1, x)))


_SHIFTED_SCOPE = "maximizer scope: shifted families only"

# kind -> {engine it runs: (the note its reports carry, the generator source
# of the group its maximizer scope is closed under, or None)}; auto runs the
# first.  ``brute`` also names the clique engine of the graph-shaped kinds.
_KIND_ENGINES = {
    "hemibundled_max": {"shifted": (_SHIFTED_SCOPE, None), "brute": (None, _symmetric_generators)},
    "cross_pair_max": {"shifted": (_SHIFTED_SCOPE, None), "brute": (None, _symmetric_generators)},
    "cross_pair_capped": {
        "brute": ("partner shown with the lowest-indexed overlap members dropped",
                  _symmetric_generators),
    },
    "diverse_intersecting_max": {
        "clique": ("maximizer scope: families with maximum degree at element 1",
                   _max_degree_generators),
        "shifted": ("lower-bound engine: optimum certified over shifted families only; "
                    "validate with the clique engine", None),
    },
    "s_union_max": {"clique": (None, _symmetric_generators)},
    "s_union_conditioned_max": {"clique": (None, _symmetric_generators)},
}


def _scope_generators(kind: str, engine: str, n: int) -> Callable | None:
    """The generator source of an engine whose maximizer scope is closed
    under a known group of relabelings, or None (see the module docstring)."""
    _, source = _KIND_ENGINES[kind][engine]
    return None if source is None else source(n)


# ------------------------------------------------------------------ engines


def _solve_pair(kind: str, p: Params, engine: str, backend: str, deadline):
    """The kernel's result as (F, G) pairs, with the predicate of the
    maximizers it must return (:func:`setfam.engines.pykern.walk_returns`),
    which all hold candidate 0; or None for the shifted engine, whose walk
    has no orbit rule and whose result is classified by isomorphism.  F is
    the chosen candidates, G the partner universe outside their kill rows,
    both :func:`_select`-ed from tables that ascend, so already sorted."""
    kern = engines.backend_module(backend)
    if kind == "hemibundled_max":
        (n, k, t, r) = p.require("n", "k", "t", "r")
        tabs = build_pair_tables(n, k + t, k, t_inter=t + 1, shifted=engine == "shifted")
        rules = (r, 0, False, -1)  # r_min, g_min, g_ge_f, cap_excess
    elif kind == "cross_pair_max":
        (n, k, r) = p.require("n", "k", "r")
        tabs = build_pair_tables(n, k, k, t_inter=None, shifted=engine == "shifted")
        rules = (r, r, True, -1)
    else:  # cross_pair_capped
        (n, k, r) = p.require("n", "k", "r")
        # the partner universe is the candidate universe, as the cap requires
        tabs = build_pair_tables(n, k, k, t_inter=None, shifted=False)
        rules = (r, r, False, r - 1)
    m = len(tabs.cands)
    masks = None if engine == "shifted" else tabs.cands  # see build_pair_tables
    best, maxers, nodes = kern.pair_bnb(
        m, tabs.compat, tabs.succ, tabs.kill, len(tabs.gmasks), (1 << m) - 1, *rules, masks,
        deadline,
    )
    full = (1 << len(tabs.gmasks)) - 1
    pairs = []
    for chosen in maxers:
        partner = full & ~reduce(or_, _select(tabs.kill, chosen), 0)
        if kind == "cross_pair_capped":
            # drop the overlap excess deterministically: lowest shared first
            shared = chosen & partner
            for _ in range(shared.bit_count() - (p.r - 1)):
                partner ^= shared & -shared
                shared &= shared - 1
        pairs.append(
            (Family(n, _select(tabs.cands, chosen)), Family(n, _select(tabs.gmasks, partner)))
        )
    if masks is None:
        return best, pairs, nodes, None
    return best, pairs, nodes, pykern.walk_returns(masks, tabs.compat)


def _solve_union(kind: str, p: Params, backend: str, deadline):
    kern = engines.backend_module(backend)
    (n, s) = p.require("n", "s")
    d = s // 2
    if kind == "s_union_max":
        tabs = build_union_tables(n, s, None)
        cons, r, required = 0, 0, None
    else:
        (r,) = p.require("r")
        tabs = build_union_tables(n, s, d + 1)
        cons = 1 if s % 2 == 0 else 2
        required = _holding((1 << d + 1) - 1)  # {1, ..., d+1}
    best, maxers, nodes = kern.clique_bnb(
        len(tabs.vmasks), tabs.adj, tabs.sup, cons, tabs.layer, tabs.vmasks, n, r, deadline
    )
    fams = [Family.of_masks(n, _select(tabs.vmasks, chosen)) for chosen in maxers]
    return best, fams, nodes, required


def _solve_diversity_clique(p: Params, backend: str, deadline):
    """The kernel's result as families, with the predicate of the
    maximizers it must return (:func:`setfam.engines.pykern.walk_returns`).
    H is the chosen candidates, A the star members outside their ``akill``
    rows, both :func:`_select`-ed; H avoids element 1 and A holds it, so
    the two interleave and the family sorts them."""
    kern = engines.backend_module(backend)
    (n, k, r) = p.require("n", "k", "r")
    tabs = build_diversity_tables(n, k)
    mh = len(tabs.hmasks)
    best, maxers, nodes = kern.diversity_bnb(
        mh, tabs.hcompat, tabs.hmasks, tabs.akill, len(tabs.amasks), tabs.avoid_a, r, n, True,
        deadline,
    )
    full = (1 << len(tabs.amasks)) - 1
    fams = []
    for hbits in maxers:
        abits = full & ~reduce(or_, _select(tabs.akill, hbits), 0)
        fams.append(Family.of_masks(n, _select(tabs.hmasks, hbits) + _select(tabs.amasks, abits)))
    required = pykern.walk_returns(tabs.hmasks, tabs.hcompat)
    return best, fams, nodes, required


def _holding(anchor: int) -> Callable:
    """The maximizers an anchored search returns: those holding ``anchor``."""
    return lambda members: anchor in members


def _solve_diversity_shifted(p: Params, backend: str, deadline):
    """Lower-bound engine: best shifted intersecting family with diversity
    at least r.  Shifting can decrease diversity, so a non-shifted family
    could in principle beat every shifted one; the clique engine is the
    validator.

    The pair kernel runs with an empty partner universe over the down-sets
    of the dominance order.  In a down-set element degrees fall as the
    label rises, so the diversity is the number of members avoiding
    element 1: those candidates are the ones counted toward r.
    """
    (n, k, r) = p.require("n", "k", "r")
    tabs = build_pair_tables(n, k, None, t_inter=1, shifted=True)
    avoid_1 = sum(1 << i for i, a in enumerate(tabs.cands) if not a & 1)
    best, maxers, nodes = engines.backend_module(backend).pair_bnb(
        len(tabs.cands), tabs.compat, tabs.succ, tabs.kill, 0, avoid_1, r, 0, False, -1, None,
        deadline,
    )
    fams = [Family(n, _select(tabs.cands, c)) for c in maxers]  # the candidates ascend
    return best, fams, nodes, None


_DIGIT_FLAGS = bytes.maketrans(b"01", b"\0\1")  # binary digits as compress's selectors


def _select(entries: Sequence[int], bits: int) -> tuple[int, ...]:
    """The entries at the set bits of ``bits``, in index order; a set bit at
    or past ``len(entries)`` raises IndexError, as indexing would."""
    if bits >> len(entries):
        raise IndexError(f"bitset {bits:#x} selects past the {len(entries)} entries")
    return tuple(compress(entries, bin(bits).encode()[:1:-1].translate(_DIGIT_FLAGS)))


def _check_budget(max_seconds: float | None) -> None:
    # NaN fails the comparison too: a deadline of NaN would never pass
    if max_seconds is not None and not max_seconds >= 0:
        raise ParamRangeError(f"max_seconds must be a number >= 0 (got {max_seconds})")


def solve(problem: Problem, max_seconds: float | None = None, backend: str | None = None) -> SearchReport:
    """Run the exact search for a problem and report it against its bound."""
    _check_budget(max_seconds)
    p = problem.params
    bound = bound_for(problem.kind, p)  # parameter ranges are the bound's theorem ranges
    engine = _resolve_engine(problem.kind, problem.engine)
    backend_name = backend or engines.DEFAULT_BACKEND
    deadline = None if max_seconds is None else time.monotonic() + max_seconds
    start = time.monotonic()
    if problem.kind in _PAIR_KINDS:
        result = _solve_pair(problem.kind, p, engine, backend_name, deadline)
    elif problem.kind == "diverse_intersecting_max" and engine == "shifted":
        result = _solve_diversity_shifted(p, backend_name, deadline)
    elif problem.kind == "diverse_intersecting_max":
        result = _solve_diversity_clique(p, backend_name, deadline)
    else:
        result = _solve_union(problem.kind, p, backend_name, deadline)
    # required: the predicate of the maximizers a reduced search must return
    optimum, maxers, nodes, required = result
    elapsed = time.monotonic() - start
    if optimum < 0:
        raise InfeasibleInstanceError(
            "no admissible family satisfies the side constraints at these parameters"
        )
    generators = _scope_generators(problem.kind, engine, p.n)
    pairs = None
    if problem.kind in _PAIR_KINDS:  # classified by the F side, which fixes the partner
        pairs = {F: (F, G) for F, G in maxers}
        maxers = list(pairs)
    classes = classify_maximizers(maxers, generators, required)
    if pairs is not None:  # each representative, the least of its class, was returned
        classes = [MaximizerClass(pairs[c.representative], c.size) for c in classes]
    return SearchReport(
        kind=problem.kind,
        params=p,
        engine=engine,
        backend=backend_name,
        optimum=optimum,
        bound=bound,
        matches_bound=optimum == bound.value,
        maximizer_count=sum(c.size for c in classes),
        classes=tuple(classes),
        nodes=nodes,
        elapsed=elapsed,
        note=_KIND_ENGINES[problem.kind][engine][0],
    )


# ------------------------------------------------- shifted-family streaming


def enumerate_shifted(n: int, k: int, predicate: Callable[[Family], bool] | None = None) -> Iterator[Family]:
    """Yield every shifted k-uniform family on [n] (the down-sets of the
    coordinatewise dominance order), each exactly once, in a deterministic
    depth-first order starting from the empty family.  ``predicate`` filters
    the stream without affecting traversal.

    The walk is the partner search's: after recursing on candidate i, the
    later siblings drop i's dominance successors, so every family reached
    is a down-set (see :mod:`setfam.engines.pykern`), and every down-set is
    reached once, along its members in index order."""
    masks = layer_masks(n, k)
    m = len(masks)
    if m > engines.MAX_BITS:
        raise InfeasibleInstanceError(
            f"C({n},{k}) = {m} exceeds the enumeration limit of {engines.MAX_BITS}"
        )
    succ = dominance_succ(masks)

    def rec(fmasks: tuple[int, ...], p: int) -> Iterator[Family]:
        fam = Family(n, fmasks)
        if predicate is None or predicate(fam):
            yield fam
        while p:
            low = p & -p
            p ^= low
            i = low.bit_length() - 1
            yield from rec(fmasks + (masks[i],), p)
            p &= ~succ[i]

    try:
        yield from rec((), (1 << m) - 1)
    finally:
        del rec  # its closure holds itself: break the cycle


# ----------------------------------------------------- layer-pair invariant


class LayerBound(Record):
    __slots__ = ("i", "lhs", "rhs", "tight", "equality_form_ok")

    i: int
    lhs: int
    rhs: int
    tight: bool
    equality_form_ok: bool


def check_layer_inequality(F: Family, s: int) -> list[LayerBound]:
    """Per-layer check that |F_i| + |F_{s+1-i}| <= C(n, i) for an s-union
    family, 1 <= i <= s/2.  A tight layer must have F_i full and F_{s+1-i}
    empty; ``equality_form_ok`` false flags a counterexample to the
    implementation, not to the inequality."""
    if not is_s_union(F, s):
        raise ParamRangeError("family is not s-union for the given s")
    rows = []
    for i in range(1, s // 2 + 1):
        li = len(F.layer(i))
        lj = len(F.layer(s + 1 - i))
        rhs = comb(F.n, i)
        tight = li + lj == rhs
        ok = (not tight) or (li == rhs and lj == 0)
        rows.append(LayerBound(i, li + lj, rhs, tight, ok))
    return rows
