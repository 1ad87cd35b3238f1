"""Search problems, engines, and reports.

Every problem kind recomputes a theorem's optimum by exact search and
reports it against the matching closed-form bound.  For the pair kinds the
partner family is always the largest family cross-intersecting with F (the
full layer minus the disjointness family), so the search ranges over F
only.

Engine/kind matrix (auto picks the first listed):

    hemibundled_max          shifted, brute
    cross_pair_max           shifted, brute
    cross_pair_capped        brute
    diverse_intersecting_max clique (alias brute), shifted (lower bound)
    s_union_max              clique (alias brute)
    s_union_conditioned_max  clique (alias brute)

The brute pair kinds search only the families that contain the least
candidate (see :func:`build_pair_tables`), so their ``nodes`` count that
reduced search; ``maximizer_count`` and the class sizes still count labeled
families, recovered by double counting (:func:`_labeled_classes`).
The s-union kinds search only down-sets, which every maximum s-union
family is (see :func:`setfam.engines.pykern.clique_bnb`), so their
``nodes`` count that smaller search.

``shifted`` is valid where every constraint survives the shifting operator
(sum objectives with (t+1)-intersecting / cross-intersecting constraints);
for the diversity problem shifting can lower the diversity, so there the
shifted engine is only a lower bound and full validation uses ``clique``.
That engine runs the pair kernel with an empty partner universe, counting
toward r only the members that avoid element 1, so like every engine it
runs on either backend and its report names the backend that ran.
The overlap cap of cross_pair_capped can grow under joint shifts, so only
``brute`` applies.
"""

from __future__ import annotations

import time
from math import comb

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
from ..family import Family, are_isomorphic, is_s_union, iso_invariant, layer_masks
from .. import engines
from ..engines import pykern
from . import KINDS
from .tables import (
    MAX_CANDIDATES,
    build_diversity_tables,
    build_pair_tables,
    build_union_tables,
    dominance_pred,
)

TYPE_CHECKING = False
if TYPE_CHECKING:  # names used only in annotations, never imported at run time
    from collections.abc import Callable, Iterator

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

_ENGINES = {
    "hemibundled_max": ("shifted", "brute"),
    "cross_pair_max": ("shifted", "brute"),
    "cross_pair_capped": ("brute",),
    "diverse_intersecting_max": ("clique", "shifted"),
    "s_union_max": ("clique",),
    "s_union_conditioned_max": ("clique",),
}


class Problem(Record):
    __slots__ = ("kind", "params", "engine")

    kind: str
    params: Params
    engine: str

    def __init__(self, kind: str, params: Params, engine: str = "auto"):
        if kind not in KINDS:
            raise ParamRangeError(f"unknown problem kind {kind!r}")
        if engine not in ("auto", "brute", "shifted", "clique"):
            raise ParamRangeError(f"unknown engine {engine!r}")
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
    allowed = _ENGINES[kind]
    if engine == "auto":
        return allowed[0]
    if engine == "brute" and "brute" not in allowed and "clique" in allowed:
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


def _family_sort_key(item):
    if isinstance(item, tuple):
        return tuple(f.members for f in item)
    return item.members


def classify_maximizers(families: list) -> list[MaximizerClass]:
    """Partition maximizers into isomorphism classes.

    Pair maximizers are classified by their F side: the partner is a
    function of F, so a relabeling carries one pair onto another exactly
    when it carries the F sides onto each other.  Classes are bucketed by
    :func:`iso_invariant`, so ``are_isomorphic`` only runs within a bucket.
    Representatives are the lexicographically least members of their
    classes, and classes are listed in the order of their representatives.
    """
    classes: list[list] = []  # [representative, its F side, size]
    buckets: dict[tuple, list[list]] = {}
    for item in sorted(families, key=_family_sort_key):
        fam = item[0] if isinstance(item, tuple) else item
        bucket = buckets.setdefault(iso_invariant(fam), [])
        for cls in bucket:
            if are_isomorphic(cls[1], fam):
                cls[2] += 1
                break
        else:
            cls = [item, fam, 1]
            bucket.append(cls)
            classes.append(cls)
    return [MaximizerClass(rep, size) for rep, _, size in classes]


def _labeled_classes(classes: list[MaximizerClass], n: int) -> list[MaximizerClass]:
    """Labeled class sizes from a search that kept only the families
    containing the least j-set, candidate 0.

    A class of j-set families of size f found c0 times has C(n, j) * c0 / f
    labeled members: count the pairs (F in the class, A in F) both ways;
    S_n is transitive on the j-sets, so every A lies in c0 class members.
    The class's least member contains candidate 0, so representatives stay.
    Raises the cap error when the labeled total exceeds the cap.
    """
    out = []
    for cls in classes:
        fam = cls.representative[0]
        size, rest = divmod(comb(n, fam.members[0].bit_count()) * cls.size, len(fam))
        if rest:
            raise AssertionError(f"class of {fam} was found {cls.size} times, not a whole orbit")
        out.append(MaximizerClass(cls.representative, size))
    if sum(c.size for c in out) > pykern.MAXIMIZER_CAP:
        raise pykern._over_cap(pykern.MAXIMIZER_CAP)
    return out


# ------------------------------------------------------------------ engines


def _solve_pair(kind: str, p: Params, engine: str, backend: str, deadline):
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
    best, maxers, nodes = kern.pair_bnb(
        m, tabs.compat, tabs.pred, tabs.kill, len(tabs.gmasks), (1 << m) - 1, *rules, deadline,
    )
    pairs = []
    for chosen in maxers:
        fmasks, partner = _members_and_partner(chosen, tabs.cands, tabs.kill, len(tabs.gmasks))
        if kind == "cross_pair_capped":
            # drop the overlap excess deterministically: lowest shared first
            shared = chosen & partner
            for _ in range(shared.bit_count() - (p.r - 1)):
                partner ^= shared & -shared
                shared &= shared - 1
        gm = [tabs.gmasks[j] for j in _bits(partner)]
        pairs.append((Family.of_masks(p.n, fmasks), Family.of_masks(p.n, gm)))
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
    fams = [
        Family.of_masks(n, [tabs.vmasks[i] for i in _bits(chosen)]) for chosen in maxers
    ]
    return best, fams, nodes


def _solve_diversity_clique(p: Params, backend: str, deadline):
    kern = engines.backend_module(backend)
    (n, k, r) = p.require("n", "k", "r")
    tabs = build_diversity_tables(n, k)
    best, maxers, nodes = kern.diversity_bnb(
        len(tabs.hmasks), tabs.hcompat, tabs.hmasks, tabs.akill,
        len(tabs.amasks), tabs.avoid_a, r, n, deadline,
    )
    fams = []
    for hbits in maxers:
        masks, abits = _members_and_partner(hbits, tabs.hmasks, tabs.akill, len(tabs.amasks))
        masks += [tabs.amasks[i] for i in _bits(abits)]
        fams.append(Family.of_masks(n, masks))
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
        len(tabs.cands), tabs.compat, tabs.pred, tabs.kill, 0, avoid_1,
        r, 0, False, -1, deadline,
    )
    fams = [Family.of_masks(n, [tabs.cands[i] for i in _bits(c)]) for c in maxers]
    return best, fams, nodes


def _members_and_partner(chosen: int, masks: list[int], kill: list[int], width: int):
    """The masks of the chosen candidates, and their partner: the bitset of
    the width-entry universe that no chosen candidate kills (a pair's G, or
    the A side of a diversity family).  One walk over the bits of ``chosen``."""
    members = []
    partner = (1 << width) - 1
    for i in _bits(chosen):
        members.append(masks[i])
        partner &= ~kill[i]
    return members, partner


def _bits(x: int) -> Iterator[int]:
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


_NOTES = {
    ("hemibundled_max", "shifted"): "maximizer scope: shifted families only",
    ("cross_pair_max", "shifted"): "maximizer scope: shifted families only",
    ("diverse_intersecting_max", "shifted"): (
        "lower-bound engine: optimum certified over shifted families only; "
        "validate with the clique engine"
    ),
    ("diverse_intersecting_max", "clique"): (
        "maximizer scope: families with maximum degree at element 1"
    ),
    ("cross_pair_capped", "brute"): (
        "partner shown with the lowest-indexed overlap members dropped"
    ),
}


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
        optimum, maxers, nodes = _solve_pair(problem.kind, p, engine, backend_name, deadline)
    elif problem.kind == "diverse_intersecting_max":
        if engine == "shifted":
            optimum, maxers, nodes = _solve_diversity_shifted(p, backend_name, deadline)
        else:
            optimum, maxers, nodes = _solve_diversity_clique(p, backend_name, deadline)
    else:
        optimum, maxers, nodes = _solve_union(problem.kind, p, backend_name, deadline)
    elapsed = time.monotonic() - start
    if optimum < 0:
        raise InfeasibleInstanceError(
            "no admissible family satisfies the side constraints at these parameters"
        )
    classes = classify_maximizers(maxers)
    if engine == "brute" and problem.kind in _PAIR_KINDS:
        classes = _labeled_classes(classes, p.n)
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
        note=_NOTES.get((problem.kind, engine)),
    )


# ------------------------------------------------- shifted-family streaming


def enumerate_shifted(n: int, k: int, predicate: Callable[[Family], bool] | None = None) -> Iterator[Family]:
    """Yield every shifted k-uniform family on [n] (the down-sets of the
    coordinatewise dominance order), each exactly once, in a deterministic
    depth-first order starting from the empty family.  ``predicate`` filters
    the stream without affecting traversal."""
    masks = layer_masks(n, k)
    m = len(masks)
    if m > MAX_CANDIDATES:
        raise InfeasibleInstanceError(
            f"C({n},{k}) = {m} exceeds the enumeration limit of {MAX_CANDIDATES}"
        )
    pred = dominance_pred(masks)

    def rec(chosen: int, fmasks: tuple[int, ...], start: int) -> Iterator[Family]:
        fam = Family(n, fmasks)
        if predicate is None or predicate(fam):
            yield fam
        for i in range(start, m):
            if pred[i] & ~chosen:
                continue
            yield from rec(chosen | (1 << i), fmasks + (masks[i],), i + 1)

    yield from rec(0, (), 0)


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
