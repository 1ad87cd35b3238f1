"""Expected equality families per theorem.

Each kind lists its candidate constructions as (tag, Params) pairs, and
:func:`expected_classes` keeps those that attain the kind's bound and
satisfy its side constraint.  The closed-form ``expected_size`` is compared
first, so only attaining candidates are built; boundary coincidences such
as the near-star entering at r = k-1 come out of the arithmetic instead of
hand-written case lists.  None means no characterization is asserted at the
given parameters (e.g. at the smallest admissible n for the pair theorems).
"""

from __future__ import annotations

from ..bounds import Params
from ..constructions import ConstructionId, construct, expected_size
from ..family import degree_profile
from .problems import bound_for

__all__ = ["expected_classes"]


def _attaining(tags, bound: int, side_ok) -> list:
    """Constructions among the (tag, Params) candidates whose size equals
    ``bound`` and which pass ``side_ok``, deduplicated by equality."""
    out = []
    for tag, params in tags:
        cid = ConstructionId(tag, params)
        if expected_size(cid).value != bound:
            continue
        fam = construct(cid)
        if side_ok(fam) and fam not in out:
            out.append(fam)
    return out


def _main1_pairs(n: int, k: int, t: int) -> list:
    tags = [("main1_pair_r_sets", Params(n=n, k=k, t=t, r=rr)) for rr in range(1, n - k - t + 2)]
    if k == 3:
        tags.append(("main1_pair_k3", Params(n=n, t=t)))
    return tags


def _diversity_families(n: int, k: int) -> list:
    tags = [("J_kr", Params(n=n, k=k, r=rr)) for rr in range(1, k - 1)]
    tags.append(("H_k", Params(n=n, k=k)))
    if k == 4:
        tags.append(("G_4", Params(n=n)))
    return tags


def _main5_families(n: int, s: int) -> list:
    d = s // 2
    parity = "even" if s % 2 == 0 else "odd"
    tags = [(f"W_r_{parity}", Params(n=n, d=d, r=rr)) for rr in range(1, d)]
    tags.append((f"W_star_{parity}", Params(n=n, d=d)))
    if s in (6, 7):
        tags.append((f"W_sharp_{s}", Params(n=n)))
    return tags


def expected_classes(kind: str, p: Params):
    """Expected maximizer classes for a problem kind at given parameters,
    or None when no characterization is asserted there."""
    if kind == "hemibundled_max":
        (n, k, t, r) = p.require("n", "k", "t", "r")
        if n <= 2 * k + t:
            return None
        bound = bound_for(kind, p).value
        return _attaining(_main1_pairs(n, k, t), bound, lambda fg: len(fg[0]) >= r)
    if kind == "cross_pair_max":
        (n, k, r) = p.require("n", "k", "r")
        if n <= 2 * k:
            return None
        bound = bound_for(kind, p).value
        return _attaining(_main1_pairs(n, k, 0), bound, lambda fg: len(fg[1]) >= len(fg[0]) >= r)
    if kind == "cross_pair_capped":
        return None  # bound only; no equality characterization asserted
    if kind == "diverse_intersecting_max":
        (n, k, r) = p.require("n", "k", "r")
        if r == 0:  # unconstrained maximum: the full star, uniquely (n > 2k)
            return [construct(ConstructionId("full_star", Params(n=n, k=k)))]
        bound = bound_for(kind, p).value
        return _attaining(_diversity_families(n, k), bound, lambda F: degree_profile(F)[1] >= r)
    if kind == "s_union_max":
        (n, s) = p.require("n", "s")
        tag = "katona_even" if s % 2 == 0 else "katona_odd"
        return [construct(ConstructionId(tag, Params(n=n, d=s // 2)))]
    if kind == "s_union_conditioned_max":
        (n, s, r) = p.require("n", "s", "r")
        d = s // 2
        bound = bound_for(kind, p).value

        def upper_ok(F):
            upper = F.layer(d + 1)
            return (len(upper) if s % 2 == 0 else degree_profile(upper)[1]) >= r

        return _attaining(_main5_families(n, s), bound, upper_ok)
    raise ValueError(f"unknown kind {kind!r}")
