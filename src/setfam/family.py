"""Universe-indexed sets and set families as machine-word bit vectors.

A member set over the universe [n] = {1, ..., n} is stored as an int whose
bit i-1 is set iff element i is present.  The universe is capped at n <= 63
so a member always fits one machine word; popcount and AND dominate the hot
loops elsewhere in the package.  Families keep their members deduplicated
and sorted by numeric bit-vector value.
"""

from __future__ import annotations

import functools
import itertools
from bisect import bisect_left

from ._record import Record
from .errors import (
    FamilyFormatError,
    InfeasibleInstanceError,
    ParamRangeError,
    UniverseMismatchError,
)

TYPE_CHECKING = False
if TYPE_CHECKING:  # names used only in annotations, never imported at run time
    from collections.abc import Iterable, Iterator
    from typing import TextIO

__all__ = [
    "MAX_UNIVERSE",
    "Subset",
    "Family",
    "IsoCertificate",
    "mask_of",
    "elements_of",
    "layer_masks",
    "is_t_intersecting",
    "are_cross_intersecting",
    "is_s_union",
    "degree_profile",
    "restrict",
    "complement_family",
    "apply_permutation",
    "iso_invariant",
    "are_isomorphic",
    "automorphism_count",
    "read_family",
    "write_family",
]

MAX_UNIVERSE = 63

# Tentative assignments one relabeling search may make.  The largest search
# that the stored grids, the benchmark grids and the n = 13..16 brute rows
# run makes 110.
ISO_STEP_BUDGET = 1_000_000

# Signatures, search plans and verdicts kept per process: a verify sweep
# meets about a hundred distinct families and as many compared pairs.
_ISO_CACHE_SIZE = 1024


def mask_of(elements: Iterable[int], n: int) -> int:
    """Bit vector of a set given as element labels in [1, n]."""
    m = 0
    for e in elements:
        if not 1 <= e <= n:
            raise ValueError(f"element {e} outside universe [1,{n}]")
        m |= 1 << (e - 1)
    return m


def elements_of(mask: int) -> tuple[int, ...]:
    """Ascending element labels of a bit vector."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def layer_masks(n: int, k: int) -> list[int]:
    """Bit vectors of all k-subsets of [n], ascending by value."""
    return sorted(sum(bits) for bits in itertools.combinations([1 << i for i in range(n)], k))


def _check_universe(n: int) -> None:
    if not 2 <= n <= MAX_UNIVERSE:
        raise ParamRangeError(f"universe size must satisfy 2 <= n <= {MAX_UNIVERSE} (got {n})")


class Subset(Record):
    """One member set: a bit vector of width n."""

    __slots__ = ("bits", "n")

    bits: int
    n: int

    def __init__(self, bits: int, n: int):
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "n", n)
        _check_universe(n)
        if bits < 0 or bits >> n:
            raise ValueError(f"bit vector {bits:#x} has bits outside universe [1,{n}]")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.bits, self.n) == (other.bits, other.n)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.bits, self.n))

    @classmethod
    def of(cls, elements: Iterable[int], n: int) -> "Subset":
        return cls(mask_of(elements, n), n)

    @property
    def cardinality(self) -> int:
        return self.bits.bit_count()

    def elements(self) -> tuple[int, ...]:
        return elements_of(self.bits)

    def __contains__(self, element: int) -> bool:
        return 1 <= element <= self.n and bool(self.bits >> (element - 1) & 1)

    def __str__(self) -> str:
        return "{" + ",".join(map(str, self.elements())) + "}"


class Family(Record):
    """Deduplicated family of subsets of [n], sorted by bit-vector value."""

    __slots__ = ("n", "members")

    n: int
    members: tuple[int, ...]

    def __init__(self, n: int, members: tuple[int, ...]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "members", members)
        _check_universe(n)
        prev = -1
        for m in members:
            if m < 0 or m >> n:
                raise ValueError(f"member {m:#x} has bits outside universe [1,{n}]")
            if m <= prev:
                raise ValueError("members must be strictly increasing (sorted, deduplicated)")
            prev = m

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.n, self.members) == (other.n, other.members)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.members))

    @classmethod
    def of_masks(cls, n: int, masks: Iterable[int]) -> "Family":
        return cls(n, tuple(sorted(set(masks))))

    @classmethod
    def of_sets(cls, n: int, sets: Iterable[Iterable[int]]) -> "Family":
        return cls.of_masks(n, (mask_of(s, n) for s in sets))

    def sets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(elements_of(m) for m in self.members)

    def uniform_size(self) -> int | None:
        """Common cardinality if the family is uniform, else None.
        The empty family is vacuously uniform of any size; returns None."""
        if not self.members:
            return None
        k = self.members[0].bit_count()
        return k if all(m.bit_count() == k for m in self.members) else None

    def layer(self, i: int) -> "Family":
        """Subfamily of members with cardinality exactly i."""
        return Family(self.n, tuple(m for m in self.members if m.bit_count() == i))

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __contains__(self, mask: int) -> bool:
        ms = self.members
        i = bisect_left(ms, mask)
        return i < len(ms) and ms[i] == mask

    def __str__(self) -> str:
        body = " ".join(str(Subset(m, self.n)) for m in self.members)
        return f"Family(n={self.n}, {{{body}}})"


class IsoCertificate(Record):
    """Witnessing permutation, as a tuple sigma with sigma[i-1] = image of i,
    or None when the families are not isomorphic."""

    __slots__ = ("permutation",)

    permutation: tuple[int, ...] | None

    def __init__(self, permutation: tuple[int, ...] | None):
        object.__setattr__(self, "permutation", permutation)

    def __bool__(self) -> bool:
        return self.permutation is not None


# ---------------------------------------------------------------- predicates


def is_t_intersecting(F: Family, t: int) -> bool:
    """True iff |A & B| >= t for all members A, B, including A = B.

    The A = B case makes every member cardinality at least t; this matches
    the all-pairs quantifier convention used throughout the package and
    makes the complement duality with s-union exact.  Empty families are
    vacuously t-intersecting.
    """
    if t < 0:
        raise ParamRangeError(f"t must be >= 0 (got {t})")
    ms = F.members
    if any(m.bit_count() < t for m in ms):
        return False
    for i in range(len(ms)):
        a = ms[i]
        for j in range(i + 1, len(ms)):
            if (a & ms[j]).bit_count() < t:
                return False
    return True


def are_cross_intersecting(F: Family, G: Family) -> bool:
    """True iff every member of F meets every member of G.  Vacuously true
    when either family is empty."""
    if F.n != G.n:
        raise UniverseMismatchError(f"universe mismatch: {F.n} vs {G.n}")
    for a in F.members:
        for b in G.members:
            if not a & b:
                return False
    return True


def is_s_union(F: Family, s: int) -> bool:
    """True iff |A | B| <= s for all members A, B, including A = B
    (so every member has cardinality at most s)."""
    if s < 0:
        raise ParamRangeError(f"s must be >= 0 (got {s})")
    ms = F.members
    if any(m.bit_count() > s for m in ms):
        return False
    for i in range(len(ms)):
        a = ms[i]
        for j in range(i + 1, len(ms)):
            if (a | ms[j]).bit_count() > s:
                return False
    return True


def degree_profile(F: Family) -> tuple[int, int]:
    """(max_degree, diversity): the largest element degree and the number of
    members that must be removed to leave a star.  (0, 0) on the empty family."""
    if not F.members:
        return (0, 0)
    best = 0
    for i in range(F.n):
        bit = 1 << i
        deg = sum(1 for m in F.members if m & bit)
        if deg > best:
            best = deg
    return (best, len(F.members) - best)


# -------------------------------------------------------------- restrictions


def _parse_restriction(spec: str, n: int) -> list[tuple[int, bool]]:
    toks = [tok.strip() for tok in spec.split(",") if tok.strip()]
    if not 1 <= len(toks) <= 2:
        raise ValueError(f"restriction spec must name one or two indices: {spec!r}")
    parsed = []
    for tok in toks:
        negated = tok.startswith("~")
        body = tok[1:] if negated else tok
        if not body.isdigit():
            raise ValueError(f"bad restriction token {tok!r}")
        i = int(body)
        if not 1 <= i <= n:
            raise ValueError(f"index {i} outside universe [1,{n}]")
        parsed.append((i, negated))
    if len(parsed) == 2 and parsed[0][0] == parsed[1][0]:
        raise ValueError(f"restriction indices must be distinct: {spec!r}")
    return parsed


def restrict(F: Family, spec: str) -> Family:
    """Derived family selected/trimmed by element membership.

    spec "i"      members containing i, with i deleted
    spec "~i"     members avoiding i, unchanged
    spec "i,j"    members containing both, with i and j deleted
    spec "i,~j"   members containing i but not j, with i deleted
    spec "~i,~j"  members avoiding both, unchanged

    The universe size is unchanged; two-index specs may list the tokens in
    either order.
    """
    parsed = _parse_restriction(spec, F.n)
    pos = [1 << (i - 1) for i, neg in parsed if not neg]
    neg = [1 << (i - 1) for i, negd in parsed if negd]
    want = sum(pos)
    avoid = sum(neg)
    out = []
    for m in F.members:
        if m & want == want and not m & avoid:
            out.append(m & ~want)
    return Family.of_masks(F.n, out)


def complement_family(F: Family) -> Family:
    """Family of member complements within [n].  An involution; preserves
    the member count."""
    full = (1 << F.n) - 1
    return Family.of_masks(F.n, (full ^ m for m in F.members))


# -------------------------------------------------------------- isomorphism


def apply_permutation(F: Family, perm: tuple[int, ...]) -> Family:
    """Relabel elements: i -> perm[i-1]."""
    if len(perm) != F.n or sorted(perm) != list(range(1, F.n + 1)):
        raise ValueError("perm must be a bijection on [1,n]")
    out = []
    for m in F.members:
        img = 0
        for e in elements_of(m):
            img |= 1 << (perm[e - 1] - 1)
        out.append(img)
    return Family.of_masks(F.n, out)


@functools.lru_cache(maxsize=_ISO_CACHE_SIZE)
def _element_signatures(F: Family) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per element 1..n, its degree in each layer as sorted (size, degree)
    pairs; a relabeling permutes this tuple.  Memoized per family, and a
    tuple of tuples, so that no caller can change a shared value."""
    counts = [[0] * (F.n + 1) for _ in range(F.n)]  # [x-1][size]
    for m in F.members:
        c = m.bit_count()
        while m:
            low = m & -m
            counts[low.bit_length() - 1][c] += 1
            m ^= low
    return tuple(tuple((c, d) for c, d in enumerate(row) if d) for row in counts)


def iso_invariant(F: Family) -> tuple:
    """(member count, sorted per-element layer-degree signatures).

    Equal on isomorphic families.  It fixes the member-size multiset (the
    layer degrees of a layer i >= 1 sum to i times its size), and with it
    the maximum degree and the diversity.  It reads the per-process memo of
    element signatures that :func:`are_isomorphic` shares, which holds at
    most ``_ISO_CACHE_SIZE`` (1024) families; a call that raises caches
    nothing.
    """
    return (len(F), tuple(sorted(_element_signatures(F))))


@functools.lru_cache(maxsize=_ISO_CACHE_SIZE)
def are_isomorphic(F: Family, G: Family) -> IsoCertificate:
    """Search for a relabeling of [n] carrying F onto G (:func:`_relabeling`).

    Families with different :func:`iso_invariant` are rejected at once.

    The verdict is memoized per process on the ordered pair (F, G), for at
    most ``_ISO_CACHE_SIZE`` (1024) pairs; a certificate is checked when it
    is found, and errors are never cached, so they are raised on every call.
    The uncached search is ``are_isomorphic.__wrapped__``.
    """
    if F.n != G.n:
        raise UniverseMismatchError(f"universe mismatch: {F.n} vs {G.n}")
    # the iso_invariant pre-check, on the memoized signatures
    if len(F) != len(G) or sorted(_element_signatures(F)) != sorted(_element_signatures(G)):
        return IsoCertificate(None)
    perm = _relabeling(F, G)
    assert perm is None or apply_permutation(F, perm) == G
    return IsoCertificate(perm)


def automorphism_count(F: Family) -> int:
    """|Aut(F)|, the number of relabelings of [n] that carry F onto itself.

    A stabilizer chain (Sims, 1970) over the base b_1, ..., b_n that
    :func:`_search_plan` orders the elements in: G_0 = Aut(F), G_j fixes
    b_1, ..., b_j, and |G_{j-1}| = |orbit of b_j under G_{j-1}| * |G_j|, so
    |Aut(F)| is the product of those orbits.  The levels run from j = n
    down, so every automorphism found at a deeper level fixes b_1, ...,
    b_{j-1} and lies in G_{j-1}: an orbit starts as the closure of b_j
    under them, and :func:`_relabeling` with the prefix (b_1, ..., b_{j-1},
    y) is asked only about the elements y of b_j's signature that the
    closure has not reached.
    """
    sig = _element_signatures(F)
    order = _search_plan(F)[0]
    found: list[tuple[int, ...]] = []
    count = 1
    for j in range(F.n - 1, -1, -1):
        x = order[j]
        orbit = _closure(x, found)
        for y in order[j + 1:]:
            if y not in orbit and sig[y - 1] == sig[x - 1]:
                perm = _relabeling(F, F, (*order[:j], y))
                if perm is not None:
                    found.append(perm)
                    orbit = _closure(x, found)
        count *= len(orbit)
    return count


def _closure(x: int, perms: list[tuple[int, ...]]) -> set[int]:
    """The orbit of element x under the group that ``perms`` generate."""
    orbit = {x}
    stack = [x]
    while stack:
        y = stack.pop()
        for perm in perms:
            z = perm[y - 1]
            if z not in orbit:
                orbit.add(z)
                stack.append(z)
    return orbit


@functools.lru_cache(maxsize=_ISO_CACHE_SIZE)
def _search_plan(F: Family) -> tuple[tuple[int, ...], tuple[tuple[tuple[int, ...], ...], ...]]:
    """The order in which :func:`_relabeling` maps the elements of F, those
    of smaller signature classes first (ties by label), and, per position
    in it, the members of F whose last element in that order sits there,
    each as its elements.  A relabeling search checks a member as soon as
    every element of it has an image.  The empty set is fixed by every
    relabeling, so it is in no list.  Memoized per family, as tuples."""
    sig = _element_signatures(F)
    class_size = {s: sig.count(s) for s in set(sig)}
    order = sorted(range(1, F.n + 1), key=lambda x: class_size[sig[x - 1]])
    pos = [0] * (F.n + 1)
    for i, x in enumerate(order):
        pos[x] = i
    checks: list[list[tuple[int, ...]]] = [[] for _ in order]
    for m in F.members:
        if m:
            xs = elements_of(m)
            checks[max(pos[x] for x in xs)].append(xs)
    return tuple(order), tuple(map(tuple, checks))


def _relabeling(F: Family, G: Family, prefix: tuple[int, ...] = ()) -> tuple[int, ...] | None:
    """A relabeling of [n] carrying F onto G that maps the first elements of
    F's search order (:func:`_search_plan`) to ``prefix``, as a tuple perm
    with perm[i-1] the image of i; or None when there is none.

    The backtracking maps each element only into its signature class in G
    and checks each member of F as soon as all its elements have images.
    More than ``ISO_STEP_BUDGET`` tentative assignments raise
    InfeasibleInstanceError.
    """
    n = F.n
    order, checks = _search_plan(F)
    sig_f = _element_signatures(F)
    by_sig: dict[tuple, list[int]] = {}
    for y, s in enumerate(_element_signatures(G), 1):
        by_sig.setdefault(s, []).append(y)
    candidates = [[y] for y in prefix]
    candidates += [by_sig.get(sig_f[x - 1], ()) for x in order[len(prefix):]]
    g_set = set(G.members)
    image = [0] * (n + 1)  # image[x]: the image of element x, as a mask
    used = [False] * (n + 1)
    budget = ISO_STEP_BUDGET

    def backtrack(pos: int) -> bool:
        nonlocal budget
        if pos == n:
            return True
        x = order[pos]
        for y in candidates[pos]:
            if used[y]:
                continue
            budget -= 1
            if budget < 0:
                raise InfeasibleInstanceError(
                    f"isomorphism search exceeded its budget of {ISO_STEP_BUDGET} steps (n={n})"
                )
            image[x] = 1 << y - 1
            used[y] = True
            for xs in checks[pos]:
                img = 0
                for e in xs:
                    img |= image[e]
                if img not in g_set:
                    break
            else:
                if backtrack(pos + 1):
                    return True
            used[y] = False
        return False

    try:
        if not backtrack(0):
            return None
    finally:
        del backtrack  # its closure holds itself: break the cycle
    return tuple(b.bit_length() for b in image[1:])


# ------------------------------------------------------------------ file I/O


def write_family(F: Family, fh: TextIO) -> None:
    """Text format: first line ``n=<int>``, then one set per line as
    ``{a,b,c}`` with ascending elements, ``{}`` for the empty set."""
    fh.write(f"n={F.n}\n")
    for m in F.members:
        fh.write("{" + ",".join(map(str, elements_of(m))) + "}\n")


def read_family(fh: TextIO) -> Family:
    """Inverse of :func:`write_family`; ``#`` starts a comment.  Round-trips
    are bit-exact."""
    n = None
    masks = []
    for lineno, raw in enumerate(fh, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n is None:
            if not line.startswith("n="):
                raise FamilyFormatError(f"line {lineno}: expected 'n=<int>' header, got {line!r}")
            try:
                n = int(line[2:])
            except ValueError:
                raise FamilyFormatError(f"line {lineno}: bad universe size {line[2:]!r}") from None
            if not 2 <= n <= MAX_UNIVERSE:
                raise FamilyFormatError(f"line {lineno}: universe size {n} out of range")
            continue
        if not (line.startswith("{") and line.endswith("}")):
            raise FamilyFormatError(f"line {lineno}: expected a set like '{{1,2,3}}', got {line!r}")
        body = line[1:-1].strip()
        if not body:
            masks.append(0)
            continue
        try:
            elems = [int(tok) for tok in body.split(",")]
        except ValueError:
            raise FamilyFormatError(f"line {lineno}: bad set {line!r}") from None
        if elems != sorted(elems) or len(set(elems)) != len(elems):
            raise FamilyFormatError(f"line {lineno}: elements must be strictly ascending")
        try:
            masks.append(mask_of(elems, n))
        except ValueError as exc:
            raise FamilyFormatError(f"line {lineno}: {exc}") from None
    if n is None:
        raise FamilyFormatError("missing 'n=<int>' header")
    if len(set(masks)) != len(masks):
        raise FamilyFormatError("duplicate members")
    return Family.of_masks(n, masks)
