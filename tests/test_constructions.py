import json
from pathlib import Path

import pytest

from setfam.bounds import (
    Params,
    bound_diversity,
    bound_hemibundled,
    bound_union,
)
from setfam.constructions import TAGS, ConstructionId, construct, expected_size, is_pair_tag
from setfam.errors import ParamRangeError
from setfam.family import (
    are_cross_intersecting,
    degree_profile,
    is_s_union,
    is_t_intersecting,
)
from setfam.shifting import max_cross_partner


def test_r_sets_pair_example():
    F, G = construct(ConstructionId("main1_pair_r_sets", Params(n=7, k=3, t=0, r=2)))
    assert F.sets() == ((1, 2, 3), (1, 2, 4))
    assert len(G) == 28
    assert len(F) + len(G) == 30


def test_katona_odd_example():
    fam = construct(ConstructionId("katona_odd", Params(n=7, d=2)))
    assert len(fam) == 44
    assert is_s_union(fam, 5)


def test_w_r_even_example():
    fam = construct(ConstructionId("W_r_even", Params(n=7, d=2, r=1)))
    assert len(fam) == 24
    assert len(fam.layer(0)) + len(fam.layer(1)) == 8
    assert len(fam.layer(3)) == 1
    assert len(fam.layer(2)) == 15
    assert is_s_union(fam, 4)


def test_g4_diversity_example():
    fam = construct(ConstructionId("G_4", Params(n=9)))
    assert degree_profile(fam)[1] == 15  # C(6,2)
    assert is_t_intersecting(fam, 1)


def test_expected_size_examples():
    assert expected_size(ConstructionId("main1_pair_star_kr1", Params(n=9, k=3, t=1, r=2))).value == 70
    assert expected_size(ConstructionId("katona_even", Params(n=6, d=2))).value == 22
    assert expected_size(ConstructionId("J_kr", Params(n=7, k=3, r=1))).value == 13


def test_parameter_validation():
    with pytest.raises(ParamRangeError, match="k = r\\+1"):
        construct(ConstructionId("main1_pair_star_kr1", Params(n=9, k=3, t=0, r=1)))
    with pytest.raises(ParamRangeError, match="1 <= r <= k-2"):
        construct(ConstructionId("J_kr", Params(n=9, k=3, r=2)))
    with pytest.raises(ParamRangeError, match="n > 2k"):
        construct(ConstructionId("G_4", Params(n=8)))
    with pytest.raises(ParamRangeError, match="s = 6 <= n-2"):
        construct(ConstructionId("W_sharp_6", Params(n=7)))
    with pytest.raises(ParamRangeError):
        ConstructionId("no_such_tag")


def test_pair_constructions_satisfy_their_contracts():
    cases = [
        ("main1_pair_r_sets", Params(n=8, k=3, t=1, r=2)),
        ("main1_pair_r_sets", Params(n=9, k=4, t=0, r=3)),
        ("main1_pair_star_kr1", Params(n=9, k=3, t=1, r=2)),
        ("main1_pair_k3", Params(n=8, t=1)),
    ]
    for tag, p in cases:
        F, G = construct(ConstructionId(tag, p))
        t = p.t
        k = 3 if tag == "main1_pair_k3" else p.k
        r = 2 if tag == "main1_pair_k3" else p.r
        assert is_t_intersecting(F, t + 1)
        assert len(F) >= r
        assert are_cross_intersecting(F, G)
        # the partner is the unique maximum cross-intersecting family
        assert G == max_cross_partner(F, k)
        assert len(F) + len(G) == expected_size(ConstructionId(tag, p)).value


def test_r_sets_attain_main1_bound_at_extremal_points():
    for k in (2, 3, 4):
        for t in (0, 1, 2):
            for n in range(2 * k + t, 13):
                rmax = n - k - t + 1
                for r in list(range(1, k)) + [rmax]:
                    p = Params(n=n, k=k, t=t, r=r)
                    F, G = construct(ConstructionId("main1_pair_r_sets", p))
                    assert len(F) + len(G) == bound_hemibundled("main1", p).value


def test_k3_family_attains_main1_bound_for_r_at_least_2():
    for t in (0, 1, 2):
        for n in range(6 + t, 13):
            F, G = construct(ConstructionId("main1_pair_k3", Params(n=n, t=t)))
            for r in range(2, n - 3 - t + 2):
                assert len(F) >= r
                assert len(F) + len(G) == bound_hemibundled(
                    "main1", Params(n=n, k=3, t=t, r=r)
                ).value


def test_diversity_constructions_attain_their_bounds():
    for n in range(7, 13):
        for k in (3, 4, 5):
            if n <= 2 * k:
                continue
            hk = construct(ConstructionId("H_k", Params(n=n, k=k)))
            assert degree_profile(hk)[1] == n - k
            assert len(hk) == bound_diversity(Params(n=n, k=k, r=k - 1)).value
            for r in range(1, k - 1):
                j = construct(ConstructionId("J_kr", Params(n=n, k=k, r=r)))
                assert degree_profile(j)[1] == r
                assert is_t_intersecting(j, 1)
                assert len(j) == bound_diversity(Params(n=n, k=k, r=r)).value
        if n > 8:
            g4 = construct(ConstructionId("G_4", Params(n=n)))
            assert is_t_intersecting(g4, 1)
            assert len(g4) == bound_diversity(Params(n=n, k=4, r=2)).value
            assert len(g4) == bound_diversity(Params(n=n, k=4, r=3)).value


def test_union_constructions_attain_their_bounds():
    for n in range(6, 13):
        for d in (2, 3, 4):
            if 2 * d + 2 <= n:
                w = construct(ConstructionId("W_star_even", Params(n=n, d=d)))
                assert is_s_union(w, 2 * d)
                assert len(w) == bound_union("main5_even", Params(n=n, d=d, r=d)).value
                for r in range(1, d):
                    wr = construct(ConstructionId("W_r_even", Params(n=n, d=d, r=r)))
                    assert is_s_union(wr, 2 * d)
                    assert len(wr) == bound_union("main5_even", Params(n=n, d=d, r=r)).value
            if 2 * d + 3 <= n:
                w = construct(ConstructionId("W_star_odd", Params(n=n, d=d)))
                assert is_s_union(w, 2 * d + 1)
                assert len(w) == bound_union("main5_odd", Params(n=n, d=d, r=d)).value
                for r in range(1, d):
                    wr = construct(ConstructionId("W_r_odd", Params(n=n, d=d, r=r)))
                    assert is_s_union(wr, 2 * d + 1)
                    assert len(wr) == bound_union("main5_odd", Params(n=n, d=d, r=r)).value
        if n >= 8:
            ws = construct(ConstructionId("W_sharp_6", Params(n=n)))
            assert is_s_union(ws, 6)
            assert len(ws) == bound_union("main5_even", Params(n=n, d=3, r=2)).value
        if n >= 9:
            ws = construct(ConstructionId("W_sharp_7", Params(n=n)))
            assert is_s_union(ws, 7)
            assert len(ws) == bound_union("main5_odd", Params(n=n, d=3, r=2)).value


def test_katona_families_attain_their_bounds():
    for n in range(4, 13):
        for s in range(2, n - 1):
            d = s // 2
            if s % 2 == 0:
                fam = construct(ConstructionId("katona_even", Params(n=n, d=d)))
                assert len(fam) == bound_union("katona_even", Params(n=n, d=d)).value
            else:
                fam = construct(ConstructionId("katona_odd", Params(n=n, d=d)))
                assert len(fam) == bound_union("katona_odd", Params(n=n, d=d)).value
            assert is_s_union(fam, s)


def test_katona_odd_y_parameter():
    f1 = construct(ConstructionId("katona_odd", Params(n=7, d=2), y=1))
    f3 = construct(ConstructionId("katona_odd", Params(n=7, d=2), y=3))
    assert f1 != f3 and len(f1) == len(f3)
    from setfam.family import are_isomorphic

    assert are_isomorphic(f1, f3)


# every tag's family at one in-range point, as sorted masks (both sides of a pair)
PINNED = json.loads((Path(__file__).parent / "data" / "construct_masks.json").read_text())


@pytest.mark.parametrize("tag", TAGS)
def test_each_tag_builds_its_pinned_family(tag):
    point = dict(PINNED[tag]["params"])
    y = point.pop("y", 1)
    built = construct(ConstructionId(tag, Params(**point), y))
    fams = built if is_pair_tag(tag) else (built,)
    assert [list(f.members) for f in fams] == PINNED[tag]["masks"]
    assert set(PINNED) == set(TAGS)
