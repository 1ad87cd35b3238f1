"""Universe-indexed sets and set families as machine-word bit vectors.

A member set over the universe [n] = {1, ..., n} is stored as an int whose
bit i-1 is set iff element i is present.  The universe is capped at n <= 63
so a member always fits one machine word; popcount and AND dominate the hot
loops elsewhere in the package.  Families keep their members deduplicated
and sorted by numeric bit-vector value.
"""

from __future__ import annotations

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
    "read_family",
    "write_family",
]

MAX_UNIVERSE = 63
ISO_MAX_UNIVERSE = 12


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
        raise ValueError(f"universe size must satisfy 2 <= n <= {MAX_UNIVERSE} (got {n})")


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


def _element_signatures(F: Family) -> list[tuple]:
    """Per element 1..n, its degree in each layer as sorted (size, degree)
    pairs; a relabeling permutes this list."""
    counts = [[0] * (F.n + 1) for _ in range(F.n)]  # [x-1][size]
    for m in F.members:
        c = m.bit_count()
        while m:
            low = m & -m
            counts[low.bit_length() - 1][c] += 1
            m ^= low
    return [tuple((c, d) for c, d in enumerate(row) if d) for row in counts]


def iso_invariant(F: Family) -> tuple:
    """(member count, sorted per-element layer-degree signatures).

    Equal on isomorphic families.  It fixes the member-size multiset (the
    layer degrees of a layer i >= 1 sum to i times its size), and with it
    the maximum degree and the diversity.
    """
    return (len(F), tuple(sorted(_element_signatures(F))))


def are_isomorphic(F: Family, G: Family) -> IsoCertificate:
    """Search for a relabeling of [n] carrying F onto G.

    Families with different :func:`iso_invariant` are rejected at once.
    Otherwise elements are partitioned by per-layer degree signature; the
    backtracking then only maps within matching signature classes, checking
    fully-assigned members along the way.  Exact for n <= 12 (rejected
    above); every verification instance in this package has n <= 10.
    """
    if F.n != G.n:
        raise UniverseMismatchError(f"universe mismatch: {F.n} vs {G.n}")
    n = F.n
    if n > ISO_MAX_UNIVERSE:
        raise InfeasibleInstanceError(
            f"isomorphism search supports n <= {ISO_MAX_UNIVERSE} (got n={n})"
        )
    sig_f = dict(enumerate(_element_signatures(F), 1))
    sig_g = dict(enumerate(_element_signatures(G), 1))
    # the iso_invariant pre-check, on the signatures already computed
    if len(F) != len(G) or sorted(sig_f.values()) != sorted(sig_g.values()):
        return IsoCertificate(None)
    candidates = {x: [y for y in range(1, n + 1) if sig_g[y] == sig_f[x]] for x in range(1, n + 1)}

    g_set = set(G.members)
    # map elements in order of fewest candidates first
    order = sorted(range(1, n + 1), key=lambda x: len(candidates[x]))
    image = [0] * (n + 1)
    used = [False] * (n + 1)

    members_by_max: dict[int, list[int]] = {x: [] for x in range(1, n + 1)}
    # a member becomes fully assigned exactly when its last element (in the
    # chosen order) gets an image; index members by that trigger element
    pos_in_order = {x: i for i, x in enumerate(order)}
    for m in F.members:
        if m == 0:  # fixed by every relabeling; the invariant puts it in G too
            continue
        trigger = max(elements_of(m), key=lambda e: pos_in_order[e])
        members_by_max[trigger].append(m)

    def backtrack(idx: int) -> bool:
        if idx == n:
            return True
        x = order[idx]
        for y in candidates[x]:
            if used[y]:
                continue
            image[x] = y
            used[y] = True
            ok = True
            for m in members_by_max[x]:
                img = 0
                for e in elements_of(m):
                    img |= 1 << (image[e] - 1)
                if img not in g_set:
                    ok = False
                    break
            if ok and backtrack(idx + 1):
                return True
            used[y] = False
            image[x] = 0
        return False

    if backtrack(0):
        perm = tuple(image[1:])
        assert apply_permutation(F, perm) == G
        return IsoCertificate(perm)
    return IsoCertificate(None)


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
