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

Classification (:func:`classify_maximizers`) groups the maximizers by
isomorphism.  Where the engine's maximizer scope holds every relabeled
copy of a maximizer that its rule admits, a class's size follows from the
orbit-stabilizer theorem: the scope of the s-union kinds and of the brute
pair kinds is every maximum family (a pair's F side, its partner being a
function of F), closed under S_n, and the diversity ``clique`` engine's is
every maximum family whose maximum degree is at element 1, which holds
each relabeling that moves an element of maximum degree to 1.  So the
search need return only one maximizer of each class.  s_union_conditioned_max
searches only the maximizers that hold a fixed anchor member, the
(d+1)-set {1, ..., d+1} (see :func:`build_union_tables`).  The brute pair
kinds and the diversity ``clique`` engine branch once per orbit at every
node of their partner search.  The root step of that rule branches on
candidate 0 only, so each non-empty maximizer they return holds it: the
least j-set {1, ..., j} for the brute pair kinds, the H member
{2, ..., k+1} for the diversity engine (see
:func:`setfam.engines.pykern.diversity_bnb`).  Their ``nodes`` count that
search, while ``maximizer_count`` and the classes are those of the whole
scope.  The ``shifted`` scopes are not closed under relabeling, so there a
class's size is the number of its returned members.
"""

from __future__ import annotations

import time
from functools import reduce
from itertools import compress
from math import comb, factorial
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
    are_isomorphic,
    automorphism_count,
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
    families: list[Family], relabelings: Callable[[Family], int] | None = None
) -> list[MaximizerClass]:
    """Partition maximizers into isomorphism classes.

    The families are bucketed by :func:`iso_invariant`, so ``are_isomorphic``
    only runs within a bucket.  A class's representative is its least listed
    family, and classes are listed in the order of their representatives.

    Without ``relabelings`` a class's size is the number of its listed
    families: the scopes that are not closed under relabeling, the shifted
    engines'.  ``relabelings`` gives, for a family F, how many relabelings
    of [n] carry F into the engine's maximizer scope, which holds every such
    copy of a maximizer.  So a class is every copy of its representative in
    the scope, and as the relabelings that give one copy are a coset of
    Aut(F) (orbit-stabilizer), its size is that count over |Aut(F)|.  The
    list then needs to hold one family of each class, and may hold more.
    Once the sizes sum past ``pykern.MAXIMIZER_CAP``, the kernels' cap error
    is raised.
    """
    cap = pykern.MAXIMIZER_CAP
    total = 0
    classes: list[list] = []  # [representative, size]
    buckets: dict[tuple, list[list]] = {}
    for fam in sorted(families, key=lambda F: F.members):
        bucket = buckets.setdefault(iso_invariant(fam), [])
        for cls in bucket:
            if are_isomorphic(cls[0], fam):
                if relabelings is None:
                    cls[1] += 1
                    total += 1
                break
        else:
            size = 1 if relabelings is None else relabelings(fam) // automorphism_count(fam)
            cls = [fam, size]
            bucket.append(cls)
            classes.append(cls)
            total += size
        if total > cap:
            raise pykern._over_cap(cap)
    return [MaximizerClass(rep, size) for rep, size in classes]


def _all_relabelings(F: Family) -> int:
    """The pair and s-union objectives and side constraints ignore labels,
    so their maximum families are closed under S_n: every relabeling counts."""
    return factorial(F.n)


def _max_degree_relabelings(F: Family) -> int:
    """The relabelings that put a maximum-degree element of F at element 1,
    the diversity ``clique`` engine's scope: d (n-1)!, d the number of
    elements of maximum degree."""
    degs = [sum(m >> e & 1 for m in F.members) for e in range(F.n)]
    return degs.count(max(degs)) * factorial(F.n - 1)


_SHIFTED_SCOPE = "maximizer scope: shifted families only"

# kind -> {engine it runs: the note its reports carry}; auto runs the first.
# ``brute`` also names the clique engine of the graph-shaped kinds.
_KIND_ENGINES = {
    "hemibundled_max": {"shifted": _SHIFTED_SCOPE, "brute": None},
    "cross_pair_max": {"shifted": _SHIFTED_SCOPE, "brute": None},
    "cross_pair_capped": {
        "brute": "partner shown with the lowest-indexed overlap members dropped",
    },
    "diverse_intersecting_max": {
        "clique": "maximizer scope: families with maximum degree at element 1",
        "shifted": "lower-bound engine: optimum certified over shifted families only; "
                   "validate with the clique engine",
    },
    "s_union_max": {"clique": None},
    "s_union_conditioned_max": {"clique": None},
}


# ------------------------------------------------------------------ engines


def _solve_pair(kind: str, p: Params, engine: str, backend: str, deadline):
    """The kernel's result as (F, G) pairs: F the chosen candidates, G the
    partner universe outside their kill rows, both :func:`_select`-ed from
    tables that ascend, so already sorted."""
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
    return best, pairs, nodes


def _solve_union(kind: str, p: Params, backend: str, deadline):
    kern = engines.backend_module(backend)
    (n, s) = p.require("n", "s")
    d = s // 2
    if kind == "s_union_max":
        tabs = build_union_tables(n, s, None)
        cons, r = 0, 0
    else:
        (r,) = p.require("r")
        tabs = build_union_tables(n, s, d + 1)
        cons = 1 if s % 2 == 0 else 2
    best, maxers, nodes = kern.clique_bnb(
        len(tabs.vmasks), tabs.adj, tabs.sup, cons, tabs.layer, tabs.vmasks, n, r, deadline
    )
    fams = [Family.of_masks(n, _select(tabs.vmasks, chosen)) for chosen in maxers]
    return best, fams, nodes


def _solve_diversity_clique(p: Params, backend: str, deadline):
    """The kernel's result as families: H the chosen candidates, A the star
    members outside their ``akill`` rows, both :func:`_select`-ed; H avoids
    element 1 and A holds it, so the two interleave and the family sorts
    them."""
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
    return best, fams, nodes


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
    return best, fams, nodes


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
    optimum, maxers, nodes = result
    elapsed = time.monotonic() - start
    if optimum < 0:
        raise InfeasibleInstanceError(
            "no admissible family satisfies the side constraints at these parameters"
        )
    if engine == "shifted":
        relabelings = None
    elif problem.kind == "diverse_intersecting_max":
        relabelings = _max_degree_relabelings
    else:
        relabelings = _all_relabelings
    pairs = None
    if problem.kind in _PAIR_KINDS:  # classified by the F side, which fixes the partner
        pairs = {F: (F, G) for F, G in maxers}
        maxers = list(pairs)
    classes = classify_maximizers(maxers, relabelings)
    if pairs is not None:  # each representative was returned
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
        note=_KIND_ENGINES[problem.kind][engine],
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
