"""Closed-form size bounds for extremal families, evaluated exactly.

Every evaluator returns a :class:`BoundValue` carrying an exact integer and
the regime label of the branch that applied.  Parameter validation is strict
to the stated validity range of each formula; ``unchecked=True`` evaluates
the raw expression anyway and labels the result as unchecked.
"""

from __future__ import annotations

import math

from ._record import Record
from .errors import ParamRangeError

__all__ = [
    "Params",
    "BoundValue",
    "binomial",
    "bound_classic",
    "bound_hemibundled",
    "bound_pairs",
    "bound_diversity",
    "bound_union",
]


class Params(Record):
    """Named integer parameters.  Each evaluator reads the fields it needs
    and rejects out-of-range values with the violated constraint named."""

    __slots__ = ("n", "k", "l", "t", "r", "s", "d")

    n: int | None
    k: int | None
    l: int | None
    t: int | None
    r: int | None
    s: int | None
    d: int | None

    def __init__(self, n=None, k=None, l=None, t=None, r=None, s=None, d=None):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "d", d)

    def require(self, *names: str) -> tuple[int, ...]:
        vals = []
        for name in names:
            v = getattr(self, name)
            if v is None:
                raise ParamRangeError(f"parameter {name!r} is required")
            vals.append(int(v))
        return tuple(vals)


class BoundValue(Record):
    __slots__ = ("value", "regime")

    value: int
    regime: str

    def __init__(self, value: int, regime: str = ""):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "regime", regime)

    def __int__(self) -> int:
        return self.value

    def __index__(self) -> int:
        return self.value

    def __eq__(self, other) -> bool:
        if isinstance(other, BoundValue):
            return self.value == other.value
        if isinstance(other, int):
            return self.value == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.value)


def binomial(n: int, k: int) -> BoundValue:
    """Exact C(n, k), with the convention C(n, k) = 0 for k < 0 or k > n."""
    if n < 0:
        raise ParamRangeError(f"binomial requires n >= 0 (got n={n})")
    if k < 0 or k > n:
        return BoundValue(0)
    return BoundValue(math.comb(n, k))


def _c(n: int, k: int) -> int:
    # total helper: out-of-range C(.,.) is 0, as used throughout the formulas
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


def _fail(which: str, constraint: str) -> None:
    raise ParamRangeError(f"{which} requires {constraint}")


# Theorem hypotheses shared by bounds and constructions; ``which`` is the
# bound name or construction tag that the error message names.


def _check_layers(which: str, n: int, k: int, t: int, k_min: int = 2) -> None:
    """Layers k+t and k of the hemibundled bounds (f16, w23, main1)."""
    if k < k_min:
        _fail(which, f"k >= {k_min} (got k={k})")
    if t < 0:
        _fail(which, f"t >= 0 (got t={t})")
    if n < 2 * k + t:
        _fail(which, f"n >= 2k+t (got n={n}, k={k}, t={t})")


def _check_main1_range(which: str, n: int, k: int, t: int, r: int) -> None:
    """Main Theorem 1: the layer conditions and 1 <= r <= n-k-t+1."""
    _check_layers(which, n, k, t)
    if not 1 <= r <= n - k - t + 1:
        _fail(which, f"1 <= r <= n-k-t+1 (got r={r}, n-k-t+1={n - k - t + 1})")


def _check_ekr(which: str, n: int, k: int) -> None:
    """Erdos-Ko-Rado range: k >= 2, n >= 2k."""
    if k < 2:
        _fail(which, f"k >= 2 (got k={k})")
    if n < 2 * k:
        _fail(which, f"n >= 2k (got n={n}, k={k})")


def _check_diversity(which: str, n: int, k: int) -> None:
    """Kupavskii's diversity range: k >= 3, n > 2k."""
    if k < 3:
        _fail(which, f"k >= 3 (got k={k})")
    if n <= 2 * k:
        _fail(which, f"n > 2k (got n={n}, k={k})")


def _label(regime: str, unchecked: bool) -> str:
    return f"{regime} (unchecked)" if unchecked else regime


def bound_classic(which: str, p: Params, unchecked: bool = False) -> BoundValue:
    """Single-family and non-empty-pair bounds.

    ekr           C(n-1, k-1)                      (intersecting, k-uniform)
    hm            C(n,k) - C(n-k,k) + 1            (non-empty cross pair, equal sizes)
    ft            C(n,k) - C(n-l,k) + 1            (non-empty cross pair, sizes k and l)
    ft_nontrivial C(n,k) - 2 C(n-l,k) + C(n-2l,k) + 2  (both sides non-trivial)
    """
    if which == "ekr":
        (n, k) = p.require("n", "k")
        if not unchecked:
            _check_ekr(which, n, k)
        return BoundValue(_c(n - 1, k - 1), _label("ekr", unchecked))
    if which == "hm":
        (n, k) = p.require("n", "k")
        if not unchecked:
            if k < 1:
                _fail(which, f"k >= 1 (got k={k})")
            if n < 2 * k:
                _fail(which, f"n >= 2k (got n={n}, k={k})")
        return BoundValue(_c(n, k) - _c(n - k, k) + 1, _label("hm", unchecked))
    if which in ("ft", "ft_nontrivial"):
        (n, k, l) = p.require("n", "k", "l")
        if not unchecked:
            if not 2 <= l <= k:
                _fail(which, f"2 <= l <= k (got l={l}, k={k})")
            if n < k + l:
                _fail(which, f"n >= k+l (got n={n}, k={k}, l={l})")
        if which == "ft":
            v = _c(n, k) - _c(n - l, k) + 1
        else:
            v = _c(n, k) - 2 * _c(n - l, k) + _c(n - 2 * l, k) + 2
        return BoundValue(v, _label(which, unchecked))
    raise ParamRangeError(f"unknown classic bound {which!r}")


def bound_hemibundled(which: str, p: Params, unchecked: bool = False) -> BoundValue:
    """Sum bounds for a cross-intersecting pair (F in layer k+t, G in layer k)
    where F is (t+1)-intersecting.

    f16    |F| >= 1:  C(n,k) - C(n-k-t,k) + 1
    w23    |F| >= 2:  C(n,k) - C(n-k-t,k) - C(n-k-t-1,k-1) + 2
    main1  |F| >= r, two regimes:
           (i)  r <= k-1:  C(n,k) - C(n-k-t+1,k) + C(n-k-t-r+1,k-r) + r
           (ii) k <= r <= n-k-t+1:  C(n,k) - C(n-k-t+1,k) + n-k-t+1
    """
    if which == "f16":
        (n, k, t) = p.require("n", "k", "t")
        if not unchecked:
            _check_layers(which, n, k, t)
        return BoundValue(_c(n, k) - _c(n - k - t, k) + 1, _label("f16", unchecked))
    if which == "w23":
        (n, k, t) = p.require("n", "k", "t")
        if not unchecked:
            _check_layers(which, n, k, t, k_min=3)
        v = _c(n, k) - _c(n - k - t, k) - _c(n - k - t - 1, k - 1) + 2
        return BoundValue(v, _label("w23", unchecked))
    if which == "main1":
        (n, k, t, r) = p.require("n", "k", "t", "r")
        if not unchecked:
            _check_main1_range(which, n, k, t, r)
        if r <= k - 1:
            v = _c(n, k) - _c(n - k - t + 1, k) + _c(n - k - t - r + 1, k - r) + r
            return BoundValue(v, _label("i", unchecked))
        v = _c(n, k) - _c(n - k - t + 1, k) + n - k - t + 1
        return BoundValue(v, _label("ii", unchecked))
    raise ParamRangeError(f"unknown hemibundled bound {which!r}")


def bound_pairs(which: str, p: Params, unchecked: bool = False) -> BoundValue:
    """Sum bounds for same-layer cross-intersecting pairs with |G| >= |F| >= r
    (f24_*) and the capped-overlap variant |F & G| <= r-1 (main3_*)."""
    (n, k, r) = p.require("n", "k", "r")
    if which in ("f24_i", "f24_ii"):
        if not unchecked:
            if k < 2:
                _fail(which, f"k >= 2 (got k={k})")
            if n < 2 * k:
                _fail(which, f"n >= 2k (got n={n}, k={k})")
            if r < 1:
                _fail(which, f"r >= 1 (got r={r})")
            if which == "f24_i" and not r <= k - 1:
                _fail(which, f"r <= k-1 (got r={r}, k={k})")
            if which == "f24_ii" and not k <= r <= n - k + 1:
                _fail(which, f"k <= r <= n-k+1 (got r={r})")
        if which == "f24_i":
            v = _c(n, k) - _c(n - k + 1, k) + _c(n - k - r + 1, k - r) + r
            return BoundValue(v, _label("i", unchecked))
        return BoundValue(_c(n, k) - _c(n - k + 1, k) + n - k + 1, _label("ii", unchecked))
    if which in ("main3_i", "main3_ii"):
        if not unchecked:
            if k < 2:
                _fail(which, f"k >= 2 (got k={k})")
            if n < 2 * k + 1:
                _fail(which, f"n >= 2k+1 (got n={n}, k={k})")
            if r < 1:
                _fail(which, f"r >= 1 (got r={r})")
            if which == "main3_i" and not r <= k - 1:
                _fail(which, f"r <= k-1 (got r={r}, k={k})")
            if which == "main3_ii" and not k <= r <= n - k + 1:
                _fail(which, f"k <= r <= n-k+1 (got r={r})")
        if which == "main3_i":
            v = _c(n, k) - _c(n - k + 1, k) + _c(n - k - r + 1, k - r) + r - 1
            return BoundValue(v, _label("i", unchecked))
        return BoundValue(_c(n, k) - _c(n - k + 1, k) + n - k, _label("ii", unchecked))
    raise ParamRangeError(f"unknown pair bound {which!r}")


def bound_diversity(p: Params, unchecked: bool = False) -> BoundValue:
    """Maximum size of a k-uniform intersecting family with diversity >= r.

    (i)  r <= k-2:        C(n-1,k-1) - C(n-k,k-1) + C(n-k-r,k-r-1) + r
    (ii) k-1 <= r <= n-k: C(n-1,k-1) - C(n-k,k-1) + n-k
    """
    (n, k, r) = p.require("n", "k", "r")
    if not unchecked:
        _check_diversity("diversity", n, k)
        if not 1 <= r <= n - k:
            _fail("diversity", f"1 <= r <= n-k (got r={r}, n-k={n - k})")
    if r <= k - 2:
        v = _c(n - 1, k - 1) - _c(n - k, k - 1) + _c(n - k - r, k - r - 1) + r
        return BoundValue(v, _label("i", unchecked))
    v = _c(n - 1, k - 1) - _c(n - k, k - 1) + n - k
    return BoundValue(v, _label("ii", unchecked))


def _ball(n: int, d: int) -> int:
    return sum(_c(n, i) for i in range(0, max(d, -1) + 1))


def bound_union(which: str, p: Params, unchecked: bool = False) -> BoundValue:
    """Maximum size of an s-union family over the full power set.

    katona_even  s = 2d:    sum_{i<=d} C(n,i)
    katona_odd   s = 2d+1:  sum_{i<=d} C(n,i) + C(n-1,d)
    main5_even   s = 2d, at least r members in layer d+1:
        r <= d-1:  sum_{i<=d} C(n,i) - C(n-d,d) + C(n-d-r,d-r) + r
        d <= r:    sum_{i<=d} C(n,i) - C(n-d,d) + n-d
    main5_odd    s = 2d+1, layer d+1 has diversity >= r:
        r <= d-1:  sum_{i<=d} C(n,i) + C(n-1,d) - C(n-d-1,d) + C(n-d-r-1,d-r) + r
        d <= r:    sum_{i<=d} C(n,i) + C(n-1,d) - C(n-d-1,d) + n-d-1
    """
    if which in ("katona_even", "katona_odd"):
        (n, d) = p.require("n", "d")
        s = 2 * d + (1 if which == "katona_odd" else 0)
        if not unchecked:
            if not 2 <= s <= n - 2:
                _fail(which, f"2 <= s <= n-2 (got s={s}, n={n})")
        if which == "katona_even":
            return BoundValue(_ball(n, d), _label("even", unchecked))
        return BoundValue(_ball(n, d) + _c(n - 1, d), _label("odd", unchecked))
    if which in ("main5_even", "main5_odd"):
        (n, d, r) = p.require("n", "d", "r")
        odd = which == "main5_odd"
        s = 2 * d + (1 if odd else 0)
        if not unchecked:
            if d < 2:
                _fail(which, f"d >= 2 (got d={d})")
            if not 4 <= s <= n - 2:
                _fail(which, f"4 <= s <= n-2 (got s={s}, n={n})")
            rmax = n - d - 1 if odd else n - d
            if not 1 <= r <= rmax:
                _fail(which, f"1 <= r <= {rmax} (got r={r})")
        if odd:
            base = _ball(n, d) + _c(n - 1, d) - _c(n - d - 1, d)
            if r <= d - 1:
                return BoundValue(base + _c(n - d - r - 1, d - r) + r, _label("i", unchecked))
            return BoundValue(base + n - d - 1, _label("ii", unchecked))
        base = _ball(n, d) - _c(n - d, d)
        if r <= d - 1:
            return BoundValue(base + _c(n - d - r, d - r) + r, _label("i", unchecked))
        return BoundValue(base + n - d, _label("ii", unchecked))
    raise ParamRangeError(f"unknown union bound {which!r}")
