"""Left-compression toolkit: the shifting operator, shiftedness tests,
lexicographic families, and disjointness families."""

from __future__ import annotations

import itertools
from math import comb

from .errors import ParamRangeError
from .family import Family, elements_of, layer_masks, mask_of

__all__ = [
    "shift_once",
    "fully_shift",
    "fully_shift_pair",
    "is_shifted",
    "dominance_closure_check",
    "dominates",
    "lex_family",
    "disjointness_family",
    "max_cross_partner",
]


def shift_once(F: Family, i: int, j: int) -> Family:
    """One application of the (i, j) shifting operator, i < j.

    A member containing j but not i has j replaced by i unless the image is
    already a member; otherwise it is kept.  Preserves the family size and
    every member's cardinality.
    """
    if not 1 <= i < j <= F.n:
        raise ValueError(f"need 1 <= i < j <= n (got i={i}, j={j}, n={F.n})")
    bi = 1 << (i - 1)
    bj = 1 << (j - 1)
    present = set(F.members)
    out = []
    for m in F.members:
        if m & bj and not m & bi:
            image = (m ^ bj) | bi
            out.append(m if image in present else image)
        else:
            out.append(m)
    result = Family.of_masks(F.n, out)
    assert len(result) == len(F)
    return result


def fully_shift(F: Family) -> Family:
    """Apply shifting operators until the family is shifted.

    Sweep order: ascending j, inner ascending i, repeated until a full pass
    changes nothing.  The output is a deterministic fixpoint of this sweep,
    not a canonical one; the sum of all member elements strictly decreases
    on every effective shift, so the sweep terminates.
    """
    return fully_shift_pair(F, Family(F.n, ()))[0]


def fully_shift_pair(F: Family, G: Family) -> tuple[Family, Family]:
    """Shift two families with the same operators until both are shifted.
    Used where a joint property (e.g. cross-intersection) must be preserved
    along the way."""
    if F.n != G.n:
        raise ValueError("families must share the universe")
    cf, cg = F, G
    changed = True
    while changed:
        changed = False
        for j in range(2, F.n + 1):
            for i in range(1, j):
                nf = shift_once(cf, i, j)
                ng = shift_once(cg, i, j)
                if nf != cf or ng != cg:
                    cf, cg = nf, ng
                    changed = True
    return cf, cg


def is_shifted(F: Family) -> bool:
    """True iff for every member A, every j in A and i < j outside A, the
    set obtained by replacing j with i is also a member."""
    present = set(F.members)
    for m in F.members:
        for j in elements_of(m):
            bj = 1 << (j - 1)
            for i in range(1, j):
                bi = 1 << (i - 1)
                if m & bi:
                    continue
                if ((m ^ bj) | bi) not in present:
                    return False
    return True


def dominates(a: int, b: int) -> bool:
    """Coordinatewise dominance on equal-size sets: with both written in
    ascending order, every element of b is <= the matching element of a."""
    ea, eb = elements_of(a), elements_of(b)
    if len(ea) != len(eb):
        return False
    return all(y <= x for x, y in zip(ea, eb))


def dominance_closure_check(F: Family) -> bool:
    """True iff the k-uniform family contains every set coordinatewise
    dominated by a member.

    Independent route to shiftedness: enumerates the dominated sets of each
    member directly instead of testing single-element replacements, so it
    can disagree with :func:`is_shifted` only if one of the two is wrong.
    """
    if F.members and F.uniform_size() is None:
        raise ValueError("dominance closure is defined for k-uniform families")
    present = set(F.members)
    seen: set[int] = set()

    def descend(mask: int) -> bool:
        # walk all sets obtained by repeatedly decrementing single elements
        if mask in seen:
            return True
        seen.add(mask)
        elems = elements_of(mask)
        occupied = set(elems)
        for x in elems:
            for y in range(x - 1, 0, -1):
                if y in occupied:
                    break
                child = (mask ^ (1 << (x - 1))) | (1 << (y - 1))
                if child not in present:
                    return False
                if not descend(child):
                    return False
        return True

    return all(descend(m) for m in F.members)


def lex_family(n: int, k: int, m: int) -> Family:
    """First m k-subsets of [n] in lexicographic order (A before B iff
    min(A \\ B) < min(B \\ A)); this is ascending-tuple order, so the
    prefix is generated directly without sorting."""
    if not 0 <= k <= n:
        raise ParamRangeError(f"lex_family requires 0 <= k <= n (got k={k}, n={n})")
    total = comb(n, k)
    if not 0 <= m <= total:
        raise ParamRangeError(f"lex_family requires 0 <= m <= C(n,k) = {total} (got m={m})")
    masks = []
    for combo in itertools.islice(itertools.combinations(range(1, n + 1), k), m):
        masks.append(mask_of(combo, n))
    return Family.of_masks(n, masks)


def disjointness_family(F: Family, ell: int) -> Family:
    """All ell-subsets of [n] disjoint from at least one member of F.

    Iterates the ell-sets and tests disjointness against the member bit
    vectors with early exit.  Its complement within the full ell-layer is
    the unique largest family cross-intersecting with F.
    """
    k = F.uniform_size()
    if F.members and k is None:
        raise ParamRangeError("disjointness_family requires a uniform family")
    if not 0 <= ell <= F.n:
        raise ParamRangeError(f"need 0 <= ell <= n (got ell={ell}, n={F.n})")
    if F.members and F.n < k + ell:
        raise ParamRangeError(f"need n >= k + ell (got n={F.n}, k={k}, ell={ell})")
    out = [d for d in layer_masks(F.n, ell) if any(not d & m for m in F.members)]
    return Family.of_masks(F.n, out)


def max_cross_partner(F: Family, ell: int) -> Family:
    """Largest family of ell-sets cross-intersecting with F: the full
    ell-layer minus the disjointness family."""
    dis = set(disjointness_family(F, ell).members)
    return Family.of_masks(F.n, (d for d in layer_masks(F.n, ell) if d not in dis))
