"""Constructors for the named extremal families.

Each family is emitted at its canonical position (the literal element
labels of its definition); isomorphic relabelings are obtained with
:func:`setfam.family.apply_permutation`, not separate constructors.
``expected_size`` gives the closed-form cardinality (for pair tags, the sum
of both sides), derived by inclusion-exclusion and tested against the
constructed families.
"""

from __future__ import annotations

from ._record import Record
from .bounds import Params, BoundValue, _ball, _c
from .errors import ParamRangeError
from .family import Family, layer_masks

__all__ = ["TAGS", "ConstructionId", "construct", "expected_size", "is_pair_tag"]

TAGS = (
    "full_star",
    "ekr_extremal",
    "main1_pair_r_sets",
    "main1_pair_star_kr1",
    "main1_pair_k3",
    "J_kr",
    "H_k",
    "G_4",
    "katona_even",
    "katona_odd",
    "W_r_even",
    "W_star_even",
    "W_sharp_6",
    "W_r_odd",
    "W_star_odd",
    "W_sharp_7",
)

_PAIR_TAGS = ("main1_pair_r_sets", "main1_pair_star_kr1", "main1_pair_k3")


class ConstructionId(Record):
    __slots__ = ("tag", "params", "y")

    tag: str
    params: Params
    y: int  # distinguished element of the odd Katona family

    def __init__(self, tag: str, params: Params = Params(), y: int = 1):
        if tag not in TAGS:
            raise ParamRangeError(f"unknown construction tag {tag!r}")
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "y", y)


def is_pair_tag(tag: str) -> bool:
    return tag in _PAIR_TAGS


def _layer(n: int, k: int, keep) -> list[int]:
    return [m for m in layer_masks(n, k) if keep(m)]


def _interval_mask(a: int, b: int) -> int:
    """Bit vector of [a, b] (empty when a > b)."""
    if a > b:
        return 0
    return ((1 << b) - 1) ^ ((1 << (a - 1)) - 1)


def _ball_masks(n: int, d: int) -> list[int]:
    return [m for m in range(1 << n) if m.bit_count() <= d]


def _fail(tag: str, constraint: str) -> None:
    raise ParamRangeError(f"{tag} requires {constraint}")


def _j_family_masks(n: int, k: int, r: int) -> list[int]:
    """r sets [2,k]+{k+j} together with the 1-containing k-sets meeting all
    of them."""
    spine = _interval_mask(2, k)
    eyes = [spine | (1 << (k + j - 1)) for j in range(1, r + 1)]
    out = list(eyes)
    bit1 = 1
    out += _layer(n, k, lambda m: m & bit1 and all(m & e for e in eyes))
    return out


def _h_family_masks(n: int, k: int) -> list[int]:
    spine = _interval_mask(2, k)
    eyes = [spine | (1 << (k + j - 1)) for j in range(1, n - k + 1)]
    out = list(eyes)
    out += _layer(n, k, lambda m: m & 1 and m & spine)
    return out


def _g4_masks(n: int) -> list[int]:
    core = _interval_mask(2, 3)
    out = _layer(n, 4, lambda m: not m & 1 and m & core == core)
    out += _layer(n, 4, lambda m: m & 1 and m & core)
    return out


def construct(cid: ConstructionId):
    """Build the family (or the (F, G) pair for the hemibundled extremal
    tags, G being the largest family cross-intersecting with F)."""
    tag, p = cid.tag, cid.params

    if tag in ("full_star", "ekr_extremal"):
        (n, k) = p.require("n", "k")
        if tag == "ekr_extremal":
            if k < 2:
                _fail(tag, f"k >= 2 (got k={k})")
            if n < 2 * k:
                _fail(tag, f"n >= 2k (got n={n}, k={k})")
        elif not 1 <= k <= n:
            _fail(tag, f"1 <= k <= n (got k={k}, n={n})")
        return Family.of_masks(n, _layer(n, k, lambda m: m & 1))

    if tag == "main1_pair_r_sets":
        (n, k, t, r) = p.require("n", "k", "t", "r")
        _check_main1(tag, n, k, t, r)
        core = _interval_mask(1, k + t - 1)
        fs = [core | (1 << (k + t - 1 + i - 1)) for i in range(1, r + 1)]
        F = Family.of_masks(n, fs)
        G = Family.of_masks(n, _layer(n, k, lambda m: all(m & f for f in fs)))
        return (F, G)

    if tag == "main1_pair_star_kr1":
        (n, k, t, r) = p.require("n", "k", "t", "r")
        _check_main1(tag, n, k, t, r)
        if k != r + 1:
            _fail(tag, f"k = r+1 (got k={k}, r={r})")
        core = _interval_mask(1, t + r)
        fs = [core | (1 << (i - 1)) for i in range(t + r + 1, n + 1)]
        F = Family.of_masks(n, fs)
        G = Family.of_masks(n, _layer(n, k, lambda m: m & core))
        return (F, G)

    if tag == "main1_pair_k3":
        (n, t) = p.require("n", "t")
        if p.k is not None and p.k != 3:
            _fail(tag, f"k = 3 (got k={p.k})")
        if t < 0:
            _fail(tag, f"t >= 0 (got t={t})")
        if n < 6 + t:
            _fail(tag, f"n >= 2k+t = {6 + t} (got n={n})")
        core = _interval_mask(1, t + 1)
        F = Family.of_masks(n, _layer(n, t + 3, lambda m: m & core == core))
        G = Family.of_masks(n, _layer(n, 3, lambda m: m & core))
        return (F, G)

    if tag == "J_kr":
        (n, k, r) = p.require("n", "k", "r")
        _check_diversity_range(tag, n, k)
        if not 1 <= r <= k - 2:
            _fail(tag, f"1 <= r <= k-2 (got r={r}, k={k})")
        return Family.of_masks(n, _j_family_masks(n, k, r))

    if tag == "H_k":
        (n, k) = p.require("n", "k")
        _check_diversity_range(tag, n, k)
        return Family.of_masks(n, _h_family_masks(n, k))

    if tag == "G_4":
        (n,) = p.require("n")
        if n <= 8:
            _fail(tag, f"n > 2k = 8 (got n={n})")
        return Family.of_masks(n, _g4_masks(n))

    if tag == "katona_even":
        (n, d) = p.require("n", "d")
        if not 2 <= 2 * d <= n - 2:
            _fail(tag, f"2 <= s = 2d <= n-2 (got d={d}, n={n})")
        return Family.of_masks(n, _ball_masks(n, d))

    if tag == "katona_odd":
        (n, d) = p.require("n", "d")
        y = cid.y
        if not 2 <= 2 * d + 1 <= n - 2:
            _fail(tag, f"2 <= s = 2d+1 <= n-2 (got d={d}, n={n})")
        if not 1 <= y <= n:
            _fail(tag, f"1 <= y <= n (got y={y})")
        ybit = 1 << (y - 1)
        masks = _ball_masks(n, d) + _layer(n, d + 1, lambda m: m & ybit)
        return Family.of_masks(n, masks)

    if tag in ("W_r_even", "W_star_even"):
        (n, d) = p.require("n", "d")
        _check_w(tag, n, 2 * d, d)
        core = _interval_mask(1, d)
        if tag == "W_r_even":
            (r,) = p.require("r")
            if not 1 <= r <= d - 1:
                _fail(tag, f"1 <= r <= d-1 (got r={r}, d={d})")
            count = r
        else:
            count = n - d
        ds = [core | (1 << (d + i - 1)) for i in range(1, count + 1)]
        masks = _ball_masks(n, d - 1) + ds
        masks += _layer(n, d, lambda m: all(m & x for x in ds))
        return Family.of_masks(n, masks)

    if tag == "W_sharp_6":
        (n,) = p.require("n")
        if n < 8:
            _fail(tag, f"s = 6 <= n-2 (got n={n})")
        core = _interval_mask(1, 2)
        masks = _ball_masks(n, 2)
        masks += _layer(n, 4, lambda m: m & core == core)
        masks += _layer(n, 3, lambda m: m & core)
        return Family.of_masks(n, masks)

    if tag in ("W_r_odd", "W_star_odd"):
        (n, d) = p.require("n", "d")
        _check_w(tag, n, 2 * d + 1, d)
        if tag == "W_r_odd":
            (r,) = p.require("r")
            if not 1 <= r <= d - 1:
                _fail(tag, f"1 <= r <= d-1 (got r={r}, d={d})")
            upper = _j_family_masks(n, d + 1, r)
        else:
            upper = _h_family_masks(n, d + 1)
        return Family.of_masks(n, _ball_masks(n, d) + upper)

    if tag == "W_sharp_7":
        (n,) = p.require("n")
        if n < 9:
            _fail(tag, f"s = 7 <= n-2 (got n={n})")
        return Family.of_masks(n, _ball_masks(n, 3) + _g4_masks(n))

    raise ParamRangeError(f"unknown construction tag {tag!r}")


def _check_main1(tag: str, n: int, k: int, t: int, r: int) -> None:
    if k < 2:
        _fail(tag, f"k >= 2 (got k={k})")
    if t < 0:
        _fail(tag, f"t >= 0 (got t={t})")
    if n < 2 * k + t:
        _fail(tag, f"n >= 2k+t (got n={n}, k={k}, t={t})")
    if not 1 <= r <= n - k - t + 1:
        _fail(tag, f"1 <= r <= n-k-t+1 (got r={r}, n-k-t+1={n - k - t + 1})")


def _check_diversity_range(tag: str, n: int, k: int) -> None:
    if k < 3:
        _fail(tag, f"k >= 3 (got k={k})")
    if n <= 2 * k:
        _fail(tag, f"n > 2k (got n={n}, k={k})")


def _check_w(tag: str, n: int, s: int, d: int) -> None:
    if s < 4:
        _fail(tag, f"s >= 4 (got s={s})")
    if d < 2:
        _fail(tag, f"d >= 2 (got d={d})")
    if n < s + 2:
        _fail(tag, f"n >= s+2 (got n={n}, s={s})")


def expected_size(cid: ConstructionId) -> BoundValue:
    """Closed-form |construct(cid)| (for pair tags, |F| + |G|)."""
    tag, p = cid.tag, cid.params

    if tag in ("full_star", "ekr_extremal"):
        (n, k) = p.require("n", "k")
        return BoundValue(_c(n - 1, k - 1), tag)
    if tag == "main1_pair_r_sets":
        (n, k, t, r) = p.require("n", "k", "t", "r")
        v = r + _c(n, k) - _c(n - k - t + 1, k) + _c(n - k - t - r + 1, k - r)
        return BoundValue(v, tag)
    if tag == "main1_pair_star_kr1":
        (n, k, t, r) = p.require("n", "k", "t", "r")
        return BoundValue((n - t - r) + _c(n, k) - _c(n - t - r, k), tag)
    if tag == "main1_pair_k3":
        (n, t) = p.require("n", "t")
        return BoundValue(_c(n - t - 1, 2) + _c(n, 3) - _c(n - t - 1, 3), tag)
    if tag == "J_kr":
        (n, k, r) = p.require("n", "k", "r")
        v = r + _c(n - 1, k - 1) - _c(n - k, k - 1) + _c(n - k - r, k - r - 1)
        return BoundValue(v, tag)
    if tag == "H_k":
        (n, k) = p.require("n", "k")
        return BoundValue((n - k) + _c(n - 1, k - 1) - _c(n - k, k - 1), tag)
    if tag == "G_4":
        (n,) = p.require("n")
        return BoundValue(_c(n - 3, 2) + _c(n - 1, 3) - _c(n - 3, 3), tag)
    if tag == "katona_even":
        (n, d) = p.require("n", "d")
        return BoundValue(_ball(n, d), tag)
    if tag == "katona_odd":
        (n, d) = p.require("n", "d")
        return BoundValue(_ball(n, d) + _c(n - 1, d), tag)
    if tag == "W_r_even":
        (n, d, r) = p.require("n", "d", "r")
        return BoundValue(_ball(n, d) - _c(n - d, d) + _c(n - d - r, d - r) + r, tag)
    if tag == "W_star_even":
        (n, d) = p.require("n", "d")
        return BoundValue(_ball(n, d) - _c(n - d, d) + n - d, tag)
    if tag == "W_sharp_6":
        (n,) = p.require("n")
        return BoundValue(_ball(n, 3) - _c(n - 3, 3) + n - 3, tag)
    if tag == "W_r_odd":
        (n, d, r) = p.require("n", "d", "r")
        v = _ball(n, d) + _c(n - 1, d) - _c(n - d - 1, d) + _c(n - d - r - 1, d - r) + r
        return BoundValue(v, tag)
    if tag == "W_star_odd":
        (n, d) = p.require("n", "d")
        return BoundValue(_ball(n, d) + _c(n - 1, d) - _c(n - d - 1, d) + n - d - 1, tag)
    if tag == "W_sharp_7":
        (n,) = p.require("n")
        v = _ball(n, 3) + _c(n - 1, 3) - _c(n - 3, 3) + _c(n - 3, 2)
        return BoundValue(v, tag)
    raise ParamRangeError(f"unknown construction tag {tag!r}")
