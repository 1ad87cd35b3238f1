import collections
import io
import itertools
import random

import pytest
from conftest import are_isomorphic_bruteforce, fam, random_family

from setfam.bounds import Params
from setfam.constructions import ConstructionId, construct
from setfam.errors import FamilyFormatError, UniverseMismatchError
from setfam.family import (
    Family,
    Subset,
    apply_permutation,
    are_cross_intersecting,
    are_isomorphic,
    complement_family,
    degree_profile,
    is_s_union,
    is_t_intersecting,
    iso_invariant,
    read_family,
    restrict,
    write_family,
)


def test_subset_basics():
    s = Subset.of([1, 5, 7], 7)
    assert s.cardinality == 3
    assert s.elements() == (1, 5, 7)
    assert 5 in s and 2 not in s
    with pytest.raises(ValueError):
        Subset(1 << 7, 7)
    with pytest.raises(ValueError):
        Subset.of([0], 5)


def test_family_invariants():
    with pytest.raises(ValueError):
        Family(7, (3, 3))
    with pytest.raises(ValueError):
        Family(3, (1 << 3,))
    f = Family.of_masks(4, [6, 3, 3])
    assert f.members == (3, 6)
    assert f.uniform_size() == 2
    assert fam(5, (1, 2), (1, 2, 3)).uniform_size() is None
    assert [m for m in range(1 << 4) if m in f] == [3, 6]
    assert 3 not in Family(4, ())


def test_t_intersecting_examples():
    assert is_t_intersecting(fam(5), 1)  # vacuous
    assert is_t_intersecting(fam(5, (1, 2, 3), (1, 2, 4)), 2)
    star = construct(ConstructionId("full_star", Params(n=7, k=3)))
    # direct scan exhibits {1,2,3} and {1,4,5} meeting in one point only
    assert not is_t_intersecting(star, 2)
    # the self-pair convention: a member smaller than t fails
    assert not is_t_intersecting(fam(5, (1,)), 2)


def test_cross_intersecting_examples():
    assert are_cross_intersecting(fam(4, (1, 2)), fam(4, (2, 3)))
    assert not are_cross_intersecting(fam(4, (1, 2)), fam(4, (3, 4)))
    star = Family.of_masks(5, [m for m in fam(5).members])  # empty
    assert are_cross_intersecting(star, fam(5, (1, 2)))
    s5 = construct(ConstructionId("full_star", Params(n=5, k=2)))
    assert are_cross_intersecting(s5, s5)
    with pytest.raises(UniverseMismatchError):
        are_cross_intersecting(fam(4, (1, 2)), fam(5, (1, 2)))


def test_s_union_examples():
    assert is_s_union(fam(4, (), (1,), (2,)), 2)
    assert not is_s_union(fam(4, (1, 2), (3, 4)), 3)
    katona = construct(ConstructionId("katona_even", Params(n=6, d=2)))
    assert is_s_union(katona, 4)


def test_degree_profile_examples():
    star = construct(ConstructionId("full_star", Params(n=7, k=3)))
    assert degree_profile(star) == (15, 0)
    assert degree_profile(fam(4, (1, 2), (3, 4))) == (1, 1)
    assert degree_profile(fam(4)) == (0, 0)
    j42 = construct(ConstructionId("J_kr", Params(n=9, k=4, r=2)))
    assert degree_profile(j42)[1] == 2


def test_restrict_examples():
    F = fam(4, (1, 2), (2, 3), (3, 4))
    assert restrict(F, "2") == fam(4, (1,), (3,))
    assert restrict(F, "~2") == fam(4, (3, 4))
    G = fam(5, (1, 2, 3), (1, 2, 4), (3, 4, 5))
    assert restrict(G, "1,2") == fam(5, (3,), (4,))
    assert restrict(G, "1,~2") == fam(5)
    assert restrict(G, "~1,~2") == fam(5, (3, 4, 5))
    assert restrict(G, "~2,1") == restrict(G, "1,~2")
    with pytest.raises(ValueError):
        restrict(F, "2,~2")
    with pytest.raises(ValueError):
        restrict(F, "9")


def test_restrict_partitions(rng):
    for _ in range(200):
        n = rng.randint(3, 9)
        F = random_family(rng, n)
        i = rng.randint(1, n)
        j = rng.randint(1, n)
        if i == j:
            continue
        assert len(F) == len(restrict(F, str(i))) + len(restrict(F, f"~{i}"))
        parts = [f"{i},{j}", f"{i},~{j}", f"~{i},{j}", f"~{i},~{j}"]
        assert len(F) == sum(len(restrict(F, p)) for p in parts)


def test_complement_examples():
    assert complement_family(fam(4, (1, 2))) == fam(4, (3, 4))
    assert complement_family(fam(3, ())) == fam(3, (1, 2, 3))
    k75 = construct(ConstructionId("katona_odd", Params(n=7, d=2)))
    # s-union duality: the complement family is (n-s)-intersecting
    assert is_t_intersecting(complement_family(k75), 2)


def test_complement_involution_and_duality(rng):
    for _ in range(300):
        n = rng.randint(2, 9)
        F = random_family(rng, n)
        assert complement_family(complement_family(F)) == F
        assert len(complement_family(F)) == len(F)
        t = rng.randint(0, n)
        assert is_t_intersecting(F, t) == is_s_union(complement_family(F), n - t)


def test_diversity_definitions_agree(rng):
    for _ in range(300):
        n = rng.randint(2, 9)
        F = random_family(rng, n)
        maxdeg, div = degree_profile(F)
        if F.members:
            assert div == min(len(restrict(F, f"~{i}")) for i in range(1, n + 1))
        else:
            assert (maxdeg, div) == (0, 0)


def test_isomorphism_examples():
    s1 = construct(ConstructionId("full_star", Params(n=7, k=3)))
    s5 = apply_permutation(s1, (5, 2, 3, 4, 1, 6, 7))
    cert = are_isomorphic(s1, s5)
    assert cert
    assert apply_permutation(s1, cert.permutation) == s5
    assert not are_isomorphic(fam(4, (1, 2)), fam(4, (1, 2), (1, 3)))
    # same construction written two ways: identical by definition
    j31 = construct(ConstructionId("J_kr", Params(n=7, k=3, r=1)))
    hm = Family.of_sets(
        7,
        [(2, 3, 4)] + [s for s in itertools.combinations(range(1, 8), 3)
                       if 1 in s and set(s) & {2, 3, 4}],
    )
    assert are_isomorphic(j31, hm)


def test_isomorphism_matches_bruteforce(rng):
    for trial in range(60):
        n = rng.randint(2, 7)
        F = random_family(rng, n, max_size=6)
        if rng.random() < 0.5:
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            G = apply_permutation(F, tuple(perm))
        else:
            G = random_family(rng, n, max_size=6)
        assert bool(are_isomorphic(F, G)) == are_isomorphic_bruteforce(F, G)


def test_iso_invariant_is_unchanged_by_relabeling(rng):
    for _ in range(200):
        n = rng.randint(2, 8)
        F = random_family(rng, n, max_size=10)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        inv = iso_invariant(F)
        assert iso_invariant(apply_permutation(F, tuple(perm))) == inv
        # it fixes the member-size multiset: layer i >= 1 has degree sum i|F_i|
        size, signatures = inv
        degree_sums = collections.Counter()
        for sig in signatures:
            degree_sums.update(dict(sig))
        assert size == len(F)
        assert {i: d // i for i, d in degree_sums.items()} == {i: len(F.layer(i)) for i in degree_sums}
        assert sum(len(F.layer(i)) for i in degree_sums) == len(F) - (0 in F)


def test_certificate_is_always_verified(rng):
    for _ in range(100):
        n = rng.randint(2, 7)
        F = random_family(rng, n, max_size=8)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        G = apply_permutation(F, tuple(perm))
        cert = are_isomorphic(F, G)
        assert cert and apply_permutation(F, cert.permutation) == G


def test_file_roundtrip(rng):
    for _ in range(100):
        n = rng.randint(2, 10)
        F = random_family(rng, n, max_size=20)
        buf = io.StringIO()
        write_family(F, buf)
        buf.seek(0)
        assert read_family(buf) == F


def test_file_format():
    text = "# star on three points\nn=5\n{}\n{1,2}\n{2,5} # trailing comment\n"
    F = read_family(io.StringIO(text))
    assert F == fam(5, (), (1, 2), (2, 5))
    for bad in ("{1,2}\n", "n=5\n1,2\n", "n=5\n{2,1}\n", "n=5\n{1,9}\n", "n=70\n"):
        with pytest.raises(FamilyFormatError):
            read_family(io.StringIO(bad))
