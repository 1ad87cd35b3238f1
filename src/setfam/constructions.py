"""Constructors for the named extremal families.

Each family is emitted at its canonical position (the literal element
labels of its definition); isomorphic relabelings are obtained with
:func:`setfam.family.apply_permutation`, not separate constructors.

One table states each tag once: the parameters it reads, its builder and
its closed-form size (for pair tags, the sum of both sides), derived by
inclusion-exclusion and tested against the constructed families.
``TAGS``, :func:`is_pair_tag`, :func:`construct` and :func:`expected_size`
all read it.  A builder gets the :class:`ConstructionId` and the
parameters' values, checks their range and builds the family.

Each family pattern is built once: r sets through a common core with every
k-set that meets them all (Main Theorem 1), the same shifted one element up
(Kupavskii's diversity families), and Katona balls with such a layer on
top.  So ``H_k``, and the top layer of ``W_star_odd``, are ``J_kr`` at
r = n-k, and ``main1_pair_star_kr1`` is ``main1_pair_r_sets`` at
r = n-k-t+1.

:func:`construct` is memoized per process, since a verify grid asks for
the same constructions on many rows.  Its results are shared and
read-only: a :class:`~setfam.family.Family` is frozen, and a pair is a
tuple.  A call that fails is never cached.
"""

from __future__ import annotations

import functools

from ._record import Record
from .bounds import (
    Params, BoundValue, _ball, _c, _check_diversity, _check_ekr, _check_main1_range, _fail,
)
from .errors import ParamRangeError
from .family import Family, _check_universe, layer_masks

__all__ = ["TAGS", "ConstructionId", "construct", "expected_size", "is_pair_tag"]


class ConstructionId(Record):
    __slots__ = ("tag", "params", "y")

    tag: str
    params: Params
    y: int  # distinguished element of the odd Katona family

    def __init__(self, tag: str, params: Params = Params(), y: int = 1):
        if tag not in _TABLE:
            raise ParamRangeError(f"unknown construction tag {tag!r}")
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "y", y)


def _layer(n: int, k: int, keep) -> list[int]:
    return [m for m in layer_masks(n, k) if keep(m)]


def _interval_mask(a: int, b: int) -> int:
    """Bit vector of [a, b] (empty when a > b)."""
    if a > b:
        return 0
    return ((1 << b) - 1) ^ ((1 << (a - 1)) - 1)


def _ball_masks(n: int, d: int) -> list[int]:
    return [m for i in range(d + 1) for m in layer_masks(n, i)]


def _j_family_masks(n: int, k: int, r: int) -> list[int]:
    """r sets [2,k]+{k+j} together with the 1-containing k-sets meeting all
    of them."""
    spine = _interval_mask(2, k)
    eyes = [spine | (1 << (k + j - 1)) for j in range(1, r + 1)]
    return eyes + _layer(n, k, lambda m: m & 1 and all(m & e for e in eyes))


def _g4_masks(n: int) -> list[int]:
    core = _interval_mask(2, 3)
    out = _layer(n, 4, lambda m: not m & 1 and m & core == core)
    out += _layer(n, 4, lambda m: m & 1 and m & core)
    return out


def _check_w(tag: str, n: int, s: int, d: int, r: int | None) -> None:
    if s < 4:
        _fail(tag, f"s >= 4 (got s={s})")
    if d < 2:
        _fail(tag, f"d >= 2 (got d={d})")
    if n < s + 2:
        _fail(tag, f"n >= s+2 (got n={n}, s={s})")
    if r is not None and not 1 <= r <= d - 1:
        _fail(tag, f"1 <= r <= d-1 (got r={r}, d={d})")


# ------------------------------------------------------------ builders


def _full_star(cid: ConstructionId, n: int, k: int) -> Family:
    if not 1 <= k <= n:
        _fail(cid.tag, f"1 <= k <= n (got k={k}, n={n})")
    return Family.of_masks(n, _layer(n, k, lambda m: m & 1))


def _ekr_extremal(cid: ConstructionId, n: int, k: int) -> Family:
    _check_ekr(cid.tag, n, k)
    return _full_star(cid, n, k)


def _main1_pair_r_sets(cid: ConstructionId, n: int, k: int, t: int, r: int):
    _check_main1_range(cid.tag, n, k, t, r)
    core = _interval_mask(1, k + t - 1)
    fs = [core | (1 << (k + t - 1 + i - 1)) for i in range(1, r + 1)]
    F = Family.of_masks(n, fs)
    G = Family.of_masks(n, _layer(n, k, lambda m: all(m & f for f in fs)))
    return (F, G)


def _main1_pair_star_kr1(cid: ConstructionId, n: int, k: int, t: int, r: int):
    _check_main1_range(cid.tag, n, k, t, r)
    if k != r + 1:
        _fail(cid.tag, f"k = r+1 (got k={k}, r={r})")
    # every (t+r+1)-set through [t+r]: the r-sets pair with the most sets
    return _main1_pair_r_sets(cid, n, k, t, n - k - t + 1)


def _main1_pair_k3(cid: ConstructionId, n: int, t: int):
    k = cid.params.k
    if k is not None and k != 3:
        _fail(cid.tag, f"k = 3 (got k={k})")
    if t < 0:
        _fail(cid.tag, f"t >= 0 (got t={t})")
    if n < 6 + t:
        _fail(cid.tag, f"n >= 2k+t = {6 + t} (got n={n})")
    core = _interval_mask(1, t + 1)
    F = Family.of_masks(n, _layer(n, t + 3, lambda m: m & core == core))
    G = Family.of_masks(n, _layer(n, 3, lambda m: m & core))
    return (F, G)


def _j_kr(cid: ConstructionId, n: int, k: int, r: int) -> Family:
    _check_diversity(cid.tag, n, k)
    if not 1 <= r <= k - 2:
        _fail(cid.tag, f"1 <= r <= k-2 (got r={r}, k={k})")
    return Family.of_masks(n, _j_family_masks(n, k, r))


def _h_k(cid: ConstructionId, n: int, k: int) -> Family:
    _check_diversity(cid.tag, n, k)
    return Family.of_masks(n, _j_family_masks(n, k, n - k))


def _g_4(cid: ConstructionId, n: int) -> Family:
    if n <= 8:
        _fail(cid.tag, f"n > 2k = 8 (got n={n})")
    return Family.of_masks(n, _g4_masks(n))


def _katona_even(cid: ConstructionId, n: int, d: int) -> Family:
    if not 2 <= 2 * d <= n - 2:
        _fail(cid.tag, f"2 <= s = 2d <= n-2 (got d={d}, n={n})")
    return Family.of_masks(n, _ball_masks(n, d))


def _katona_odd(cid: ConstructionId, n: int, d: int) -> Family:
    y = cid.y
    if not 2 <= 2 * d + 1 <= n - 2:
        _fail(cid.tag, f"2 <= s = 2d+1 <= n-2 (got d={d}, n={n})")
    if not 1 <= y <= n:
        _fail(cid.tag, f"1 <= y <= n (got y={y})")
    ybit = 1 << (y - 1)
    return Family.of_masks(n, _ball_masks(n, d) + _layer(n, d + 1, lambda m: m & ybit))


def _w_even(cid: ConstructionId, n: int, d: int, r: int | None = None) -> Family:
    """W_r_even, or W_star_even when r is None."""
    _check_w(cid.tag, n, 2 * d, d, r)
    core = _interval_mask(1, d)
    ds = [core | (1 << (d + i - 1)) for i in range(1, (n - d if r is None else r) + 1)]
    masks = _ball_masks(n, d - 1) + ds
    masks += _layer(n, d, lambda m: all(m & x for x in ds))
    return Family.of_masks(n, masks)


def _w_odd(cid: ConstructionId, n: int, d: int, r: int | None = None) -> Family:
    """W_r_odd, or W_star_odd when r is None (the top layer of H_{d+1})."""
    _check_w(cid.tag, n, 2 * d + 1, d, r)
    upper = _j_family_masks(n, d + 1, n - d - 1 if r is None else r)
    return Family.of_masks(n, _ball_masks(n, d) + upper)


def _w_sharp_6(cid: ConstructionId, n: int) -> Family:
    if n < 8:
        _fail(cid.tag, f"s = 6 <= n-2 (got n={n})")
    core = _interval_mask(1, 2)
    masks = _ball_masks(n, 2)
    masks += _layer(n, 4, lambda m: m & core == core)
    masks += _layer(n, 3, lambda m: m & core)
    return Family.of_masks(n, masks)


def _w_sharp_7(cid: ConstructionId, n: int) -> Family:
    if n < 9:
        _fail(cid.tag, f"s = 7 <= n-2 (got n={n})")
    return Family.of_masks(n, _ball_masks(n, 3) + _g4_masks(n))


# tag: (the parameters it reads, n first; its builder; its closed-form size),
# the builder and the size taking the parameters' values in that order
_PAIRS = {
    "main1_pair_r_sets": (
        ("n", "k", "t", "r"), _main1_pair_r_sets,
        lambda n, k, t, r: r + _c(n, k) - _c(n - k - t + 1, k) + _c(n - k - t - r + 1, k - r),
    ),
    "main1_pair_star_kr1": (
        ("n", "k", "t", "r"), _main1_pair_star_kr1,
        lambda n, k, t, r: (n - t - r) + _c(n, k) - _c(n - t - r, k),
    ),
    "main1_pair_k3": (
        ("n", "t"), _main1_pair_k3,
        lambda n, t: _c(n - t - 1, 2) + _c(n, 3) - _c(n - t - 1, 3),
    ),
}
_TABLE = {
    "full_star": (("n", "k"), _full_star, lambda n, k: _c(n - 1, k - 1)),
    "ekr_extremal": (("n", "k"), _ekr_extremal, lambda n, k: _c(n - 1, k - 1)),
    **_PAIRS,
    "J_kr": (
        ("n", "k", "r"), _j_kr,
        lambda n, k, r: r + _c(n - 1, k - 1) - _c(n - k, k - 1) + _c(n - k - r, k - r - 1),
    ),
    "H_k": (("n", "k"), _h_k, lambda n, k: (n - k) + _c(n - 1, k - 1) - _c(n - k, k - 1)),
    "G_4": (("n",), _g_4, lambda n: _c(n - 3, 2) + _c(n - 1, 3) - _c(n - 3, 3)),
    "katona_even": (("n", "d"), _katona_even, _ball),
    "katona_odd": (("n", "d"), _katona_odd, lambda n, d: _ball(n, d) + _c(n - 1, d)),
    "W_r_even": (
        ("n", "d", "r"), _w_even,
        lambda n, d, r: _ball(n, d) - _c(n - d, d) + _c(n - d - r, d - r) + r,
    ),
    "W_star_even": (("n", "d"), _w_even, lambda n, d: _ball(n, d) - _c(n - d, d) + n - d),
    "W_sharp_6": (("n",), _w_sharp_6, lambda n: _ball(n, 3) - _c(n - 3, 3) + n - 3),
    "W_r_odd": (
        ("n", "d", "r"), _w_odd,
        lambda n, d, r: (
            _ball(n, d) + _c(n - 1, d) - _c(n - d - 1, d) + _c(n - d - r - 1, d - r) + r
        ),
    ),
    "W_star_odd": (
        ("n", "d"), _w_odd,
        lambda n, d: _ball(n, d) + _c(n - 1, d) - _c(n - d - 1, d) + n - d - 1,
    ),
    "W_sharp_7": (
        ("n",), _w_sharp_7,
        lambda n: _ball(n, 3) + _c(n - 1, 3) - _c(n - 3, 3) + _c(n - 3, 2),
    ),
}

TAGS = tuple(_TABLE)


def is_pair_tag(tag: str) -> bool:
    return tag in _PAIRS


# Constructions kept: a verify sweep checks a few dozen distinct ones.
_CACHE_SIZE = 128


@functools.lru_cache(maxsize=_CACHE_SIZE)
def construct(cid: ConstructionId):
    """Build the family (or the (F, G) pair for the hemibundled extremal
    tags, G being the largest family cross-intersecting with F)."""
    names, build, _ = _TABLE[cid.tag]
    values = cid.params.require(*names)
    _check_universe(values[0])
    return build(cid, *values)


def expected_size(cid: ConstructionId) -> BoundValue:
    """Closed-form |construct(cid)| (for pair tags, |F| + |G|)."""
    names, _, size = _TABLE[cid.tag]
    return BoundValue(size(*cid.params.require(*names)), cid.tag)
