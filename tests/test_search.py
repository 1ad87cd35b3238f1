import copy
import gc
import importlib
import inspect
import itertools
import json
import os
import re
import shlex
import subprocess
import sys
import sysconfig
from math import comb
from pathlib import Path

import pytest
from conftest import are_isomorphic_bruteforce, fam, random_family

from setfam import engines
from setfam.engines import pykern
from setfam.engines.fastcore import Kernels
from setfam.bounds import Params, bound_classic
from setfam.constructions import ConstructionId, construct
from setfam.errors import (
    InfeasibleInstanceError,
    ParamRangeError,
    TimeBudgetExceededError,
)
from setfam.family import Family, apply_permutation, are_isomorphic, degree_profile, mask_of
from setfam.search import (
    Problem,
    SearchReport,
    check_layer_inequality,
    classify_maximizers,
    enumerate_shifted,
    solve,
)
from setfam.search import THEOREMS, problems
from setfam.search.expected import expected_classes
from setfam.search.problems import _all_relabelings, _max_degree_relabelings, _select
from setfam.search.tables import (
    build_diversity_tables,
    build_pair_tables,
    build_union_tables,
    shifted_family_count_reference,
)
from setfam.search.verify import _classes_match
from setfam.shifting import is_shifted, max_cross_partner

BACKENDS = engines.BACKENDS


def test_hemibundled_tiny_example():
    rep = solve(Problem("hemibundled_max", Params(n=5, k=2, t=0, r=1), "brute"))
    assert rep.optimum == 8 == rep.bound.value
    assert rep.matches_bound
    assert len(rep.classes) == 2
    sizes = sorted(len(c.representative[0]) for c in rep.classes)
    assert sizes == [1, 4]  # a single set, and the near-star through element 1


def test_s_union_tiny_example():
    rep = solve(Problem("s_union_max", Params(n=5, s=2), "clique"))
    assert rep.optimum == 6
    assert rep.maximizer_count == 1
    assert rep.classes[0].representative == fam(5, (), (1,), (2,), (3,), (4,), (5,))


def test_diversity_both_engines_match_bound():
    for engine in ("clique", "shifted"):
        rep = solve(Problem("diverse_intersecting_max", Params(n=7, k=3, r=1), engine))
        assert rep.optimum == 13 == rep.bound.value
        assert len(rep.classes) == 2


def test_shifted_maximizers_land_in_expected_classes():
    p = Params(n=7, k=3, t=0, r=2)
    rep = solve(Problem("hemibundled_max", p, "shifted"))
    assert rep.optimum == 30
    exp = expected_classes("hemibundled_max", p)
    assert _classes_match(rep, exp)


@pytest.mark.parametrize(
    "kind,p",
    [
        ("diverse_intersecting_max", Params(n=8, k=3, r=1)),
        ("s_union_conditioned_max", Params(n=7, s=5, r=1)),
        ("s_union_max", Params(n=7, s=4)),
    ],
)
def test_orbit_class_matching_takes_any_relabeled_expected_family(rng, kind, p):
    """verify matches the classes of a scope closed under relabeling by the
    isomorphism search, so a relabeled expected family matches its class,
    a diversity family too when the relabeling moves its maximum degree
    off element 1."""
    rep = solve(Problem(kind, p, "clique"))
    relabeled = []
    for F in expected_classes(kind, p):
        perm = list(range(1, p.n + 1))
        rng.shuffle(perm)
        relabeled.append(apply_permutation(F, tuple(perm)))
    assert _classes_match(rep, relabeled)
    assert _classes_match(rep, relabeled[::-1])
    assert not _classes_match(rep, relabeled + relabeled[-1:])
    assert not _classes_match(rep, relabeled[:-1] + [Family(p.n, ())])
    # a family of no reported class
    assert not _classes_match(rep, relabeled[:-1] + [random_family(rng, p.n, max_size=40)])
    if len(relabeled) > 1:
        assert not _classes_match(rep, relabeled[:-1])


def test_engine_agreement_hemibundled():
    """Brute and shifted agree on the pair kinds that shifting keeps exact:
    hemibundled pairs, and cross_pair_max."""
    cases = [
        ("hemibundled_max", Params(n=7, k=3, t=0, r=1)),
        ("hemibundled_max", Params(n=7, k=3, t=0, r=3)),
        ("hemibundled_max", Params(n=8, k=3, t=1, r=2)),
    ]
    cases += [
        ("cross_pair_max", Params(n=n, k=k, r=r))
        for n, k, r in ((6, 2, 1), (7, 2, 2), (7, 3, 1), (7, 3, 2), (8, 2, 1), (9, 2, 2))
    ]
    if "compiled" in BACKENDS:  # n = 8, k = 3: about a second each on the pure-Python kernel
        cases += [
            ("hemibundled_max", Params(n=8, k=3, t=0, r=2)),
            ("hemibundled_max", Params(n=8, k=3, t=1, r=3)),
            ("cross_pair_max", Params(n=8, k=3, r=2)),
            ("cross_pair_max", Params(n=8, k=3, r=3)),
        ]
    for kind, p in cases:
        a = solve(Problem(kind, p, "brute"))
        b = solve(Problem(kind, p, "shifted"))
        assert a.optimum == b.optimum
        # the shifted engine sees a representative of every maximizer class
        assert len(a.classes) == len(b.classes)


def test_engine_agreement_diversity(compiled):
    """The shifted lower-bound engine never passes the clique optimum, which
    meets the bound; on the whole k=3 verification grid it reaches it."""
    rows = [(n, 3, r) for n in (7, 8, 9) for r in range(1, n - 2)]
    for n, k, r in rows + [(9, 4, r) for r in (1, 2, 3)]:
        p = Params(n=n, k=k, r=r)
        a = solve(Problem("diverse_intersecting_max", p, "clique"))
        b = solve(Problem("diverse_intersecting_max", p, "shifted"))
        assert b.optimum <= a.optimum == a.bound.value, p
        assert k > 3 or b.optimum == a.optimum, p


def test_named_specializations_verify_on_their_own_grids():
    from setfam.search.verify import verify_grid

    res = verify_grid("f16", "k=3;t=0;n=7..8", engine="shifted")
    assert res.ok and all(r.classes_ok for r in res.rows)
    res = verify_grid("w23", "k=3;t=0,1;n=2k+t+1..2k+t+2", engine="shifted")
    assert res.ok and all(r.classes_ok for r in res.rows)
    res = verify_grid("f24", "k=2;n=5..7;r=1..n-k+1", engine="brute")
    assert res.ok


def test_brute_pair_kinds_verify_past_the_isomorphism_limit():
    """The brute pair rows at n = 13..14 classify and match their classes
    with the isomorphism search, well inside its step budget."""
    from setfam.search.verify import verify_grid

    for theorem, grid in (("f24", "k=2;n=13..14;r=1..2"), ("main1", "k=2;t=0;n=13;r=1..2")):
        res = verify_grid(theorem, grid, engine="brute")
        assert res.ok and len(res.rows) > 1
        assert all(row.bound_ok and row.classes_ok for row in res.rows)


def test_f24_classes_exhaustively_at_k3(compiled):
    from setfam.search.verify import verify_grid

    res = verify_grid("f24", "k=3;n=7;r=1..5", engine="brute")
    assert res.ok
    class_counts = [len(row.report.classes) for row in res.rows]
    # single-set; pair/near-star/star; then near-star and star in regime (ii)
    assert class_counts == [1, 3, 2, 2, 2]


def test_dropping_the_size_floor_reproduces_the_single_set_classic():
    for n, k, t in ((6, 2, 1), (7, 3, 0), (8, 3, 1)):
        rep = solve(Problem("hemibundled_max", Params(n=n, k=k, t=t, r=1), "shifted"))
        from setfam.bounds import bound_hemibundled

        assert rep.optimum == bound_hemibundled("f16", Params(n=n, k=k, t=t)).value


def test_verify_main3_upper_bound_mode():
    from setfam.search.verify import verify_grid

    res = verify_grid("main3", "k=2;n=5..6;r=1..2", engine="brute")
    assert res.ok
    attained = {
        (row.params.n, row.params.r): row.report.matches_bound
        for row in res.rows
        if not row.skipped
    }
    # regime (i) tight, regime (ii) strict at this scale; ok either way
    assert attained[(5, 1)] is True and attained[(5, 2)] is False


def test_backend_agreement(compiled):
    cases = [
        ("hemibundled_max", Params(n=7, k=3, t=0, r=2), "brute"),
        ("hemibundled_max", Params(n=8, k=3, t=1, r=2), "shifted"),
        ("cross_pair_max", Params(n=6, k=2, r=1), "brute"),
        ("cross_pair_capped", Params(n=6, k=2, r=2), "brute"),
        ("s_union_max", Params(n=6, s=3), "clique"),
        ("s_union_conditioned_max", Params(n=7, s=4, r=2), "clique"),
        ("diverse_intersecting_max", Params(n=8, k=3, r=2), "clique"),
    ]
    for kind, p, eng in cases:
        a = solve(Problem(kind, p, eng), backend="python")
        b = solve(Problem(kind, p, eng), backend="compiled")
        assert (a.optimum, a.maximizer_count, a.nodes) == (b.optimum, b.maximizer_count, b.nodes)
        assert a.class_representatives == b.class_representatives


def test_main5_verifies_past_n7_on_the_anchored_graph(compiled):
    """The width check counts the vertices the anchored graph keeps: 48, 56
    and 64 at n = 8, 9, 10 (s = 4), of 163, 256 and 386 subsets.  Every row
    verifies, and both backends walk the same small trees."""
    from setfam.search.verify import verify_grid

    res = verify_grid("main5", "n=8..10;s=4;r=1..2", engine="clique")
    assert res.ok
    assert [(row.report.optimum, row.report.maximizer_count) for row in res.rows] == [
        (28, 84), (28, 28), (32, 120), (32, 36), (36, 165), (36, 45),
    ]
    for row in res.rows:
        assert row.bound_ok and row.classes_ok and row.report.nodes <= 23
        slow = solve(Problem("s_union_conditioned_max", row.params, "clique"), backend="python")
        assert (slow.nodes, slow.class_representatives) == (
            row.report.nodes, row.report.class_representatives
        )


def test_main5_verifies_the_n8_s5_grid_with_the_diversity_constraint(compiled):
    """The odd-s rows carry the diversity constraint, and their searches are
    the longest of the main5 rows; forcing the candidates adjacent to every
    other one keeps each to about 15,000 nodes.  Every row verifies, and both
    backends walk the same trees."""
    from setfam.search.verify import verify_grid

    res = verify_grid("main5", "n=8;s=5;r=1..3", engine="clique")
    assert [(row.report.optimum, row.report.maximizer_count) for row in res.rows] == [
        (53, 336), (53, 56), (53, 56),
    ]
    for row in res.rows:
        assert row.bound_ok and row.classes_ok
        slow = solve(Problem("s_union_conditioned_max", row.params, "clique"), backend="python")
        assert (slow.nodes, slow.class_representatives) == (
            row.report.nodes, row.report.class_representatives
        )


def test_partner_is_always_the_disjointness_complement():
    rep = solve(Problem("hemibundled_max", Params(n=6, k=2, t=1, r=1), "brute"))
    for cls in rep.classes:
        F, G = cls.representative
        assert G == max_cross_partner(F, 2)


def test_cross_pair_small():
    rep = solve(Problem("cross_pair_max", Params(n=6, k=2, r=2), "brute"))
    assert rep.matches_bound
    for cls in rep.classes:
        F, G = cls.representative
        assert len(G) >= len(F) >= 2


def test_cross_pair_capped_small():
    # the cap bound is an inequality; the oracle shows it is attained in
    # regime (i) here and strict in regime (ii)  (frozen optima)
    frozen = {
        (5, 1): (7, True),
        (5, 2): (6, False),
        (6, 1): (9, True),
        (6, 2): (7, False),
        (7, 1): (11, True),
        (7, 2): (8, False),
    }
    for (n, r), (opt, attained) in frozen.items():
        rep = solve(Problem("cross_pair_capped", Params(n=n, k=2, r=r), "brute"))
        assert rep.optimum == opt
        assert rep.optimum <= rep.bound.value
        assert rep.matches_bound == attained
        for cls in rep.classes:
            F, G = cls.representative
            shared = set(F.members) & set(G.members)
            assert len(shared) <= r - 1
            assert len(F) >= r and len(G) >= r


def test_cross_pair_capped_infeasible_constraints():
    # at r = n-k+1 the cap contradicts the size floors: no admissible pair
    with pytest.raises(InfeasibleInstanceError):
        solve(Problem("cross_pair_capped", Params(n=5, k=2, r=4), "brute"))


@pytest.mark.parametrize("backend", ["python", "compiled"])
def test_skipped_capped_families_are_never_maximizers(request, backend):
    """At (5,2,4) some families pass the size floors but give up too much
    partner to the cap; such a skipped family never enters the tie list,
    even while the incumbent is still -1."""
    kern = request.getfixturevalue("compiled") if backend == "compiled" else pykern
    tabs = build_pair_tables(5, 2, 2, t_inter=None, shifted=False)
    m = len(tabs.cands)
    best, maxers, _ = kern.pair_bnb(
        m, tabs.compat, tabs.succ, tabs.kill, len(tabs.gmasks), (1 << m) - 1, 4, 4, False, 3,
        tabs.cands,
    )
    assert (best, maxers) == (-1, [])


def test_diversity_r0_reproduces_unconstrained_classic():
    rep = solve(Problem("diverse_intersecting_max", Params(n=7, k=3, r=0), "clique"))
    assert rep.optimum == bound_classic("ekr", Params(n=7, k=3)).value == 15
    assert len(rep.classes) == 1
    star = construct(ConstructionId("full_star", Params(n=7, k=3)))
    assert are_isomorphic(rep.classes[0].representative, star)


def test_s_union_unconstrained_reproduces_katona():
    for n in (5, 6):
        for s in range(2, n - 1):
            rep = solve(Problem("s_union_max", Params(n=n, s=s), "clique"))
            assert rep.matches_bound, (n, s)


def test_diversity_against_independent_clique_oracle():
    # maximal intersecting families via Bron-Kerbosch on the meet graph;
    # maximum families under a monotone constraint are maximal cliques
    nx = pytest.importorskip("networkx")
    n, k = 7, 3
    masks = [mask_of(c, n) for c in itertools.combinations(range(1, n + 1), k)]
    G = nx.Graph()
    G.add_nodes_from(range(len(masks)))
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            if masks[i] & masks[j]:
                G.add_edge(i, j)
    for r in (1, 2, 3, 4):
        best = -1
        for clique in nx.find_cliques(G):
            f = Family.of_masks(n, [masks[i] for i in clique])
            if degree_profile(f)[1] >= r:
                best = max(best, len(f))
        rep = solve(Problem("diverse_intersecting_max", Params(n=n, k=k, r=r), "clique"))
        assert rep.optimum == best


def test_enumerate_shifted_counts():
    # frozen from the independent subset-scan reference counter
    assert shifted_family_count_reference(4, 2) == 8
    assert sum(1 for _ in enumerate_shifted(4, 2)) == 8
    assert shifted_family_count_reference(5, 2) == 16
    assert sum(1 for _ in enumerate_shifted(5, 2)) == 16
    # complementation reverses dominance, so the k and n-k layers agree
    assert shifted_family_count_reference(5, 3) == 16
    assert sum(1 for _ in enumerate_shifted(5, 3)) == 16


def test_enumerate_shifted_stream_properties():
    from setfam.family import is_t_intersecting

    seen = set()
    for fam_ in enumerate_shifted(4, 2, predicate=lambda f: is_t_intersecting(f, 1)):
        assert is_shifted(fam_)
        assert is_t_intersecting(fam_, 1)
        assert fam_.members not in seen
        seen.add(fam_.members)
    with pytest.raises(InfeasibleInstanceError):
        next(enumerate_shifted(20, 10))


def test_classify_maximizers():
    star1 = construct(ConstructionId("full_star", Params(n=6, k=2)))
    star2 = apply_permutation(star1, (2, 1, 3, 4, 5, 6))
    classes = classify_maximizers([star1, star2])
    assert len(classes) == 1 and classes[0].size == 2
    classes = classify_maximizers([star1, fam(6, (1, 2))])
    assert len(classes) == 2
    assert classes[0].representative == fam(6, (1, 2))  # lexicographically least first


def _bruteforce_classes(families: list) -> list[tuple[Family, int]]:
    classes: list[list] = []  # [least member, size], in order of least member
    for F in sorted(families, key=lambda f: f.members):
        for cls in classes:
            if are_isomorphic_bruteforce(cls[0], F):
                cls[1] += 1
                break
        else:
            classes.append([F, 1])
    return [tuple(c) for c in classes]


def test_classify_maximizers_matches_bruteforce(rng):
    # a hexagon and two triangles share the invariant of a 2-regular graph
    hexagon = fam(6, (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6))
    triangles = fam(6, (1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6))
    for trial in range(30):
        n = rng.randint(2, 6)
        bases = [random_family(rng, n, max_size=5) for _ in range(3)]
        if n == 6 and trial % 2:
            bases += [hexagon, triangles]
        families = set()
        for F in bases:
            for _ in range(3):
                perm = list(range(1, n + 1))
                rng.shuffle(perm)
                families.add(apply_permutation(F, tuple(perm)))
        got = [(c.representative, c.size) for c in classify_maximizers(list(families))]
        assert got == _bruteforce_classes(list(families))


def _orbit(F: Family) -> set[Family]:
    return {apply_permutation(F, perm) for perm in itertools.permutations(range(1, F.n + 1))}


def _max_degree_at_1(F: Family) -> bool:
    degs = [sum(m >> x & 1 for m in F.members) for x in range(F.n)]
    return degs[0] == max(degs)


def _closed_lists(rng, trials: int):
    """Random maximizer lists closed under relabeling at 2 <= n <= 5: unions of
    whole S_n orbits, and the same orbits cut to the families with maximum
    degree at element 1, each with the relabeling count of its scope."""
    for _ in range(trials):
        n = rng.randint(2, 5)
        families = set()
        for _ in range(rng.randint(1, 3)):
            families |= _orbit(random_family(rng, n, max_size=rng.choice((4, 8, 16))))
        yield sorted(families, key=lambda f: f.members), _all_relabelings
        scoped = [F for F in families if _max_degree_at_1(F)]
        yield sorted(scoped, key=lambda f: f.members), _max_degree_relabelings


def test_orbit_classes_match_bruteforce_on_closed_lists(rng):
    """On a closed list the orbit-stabilizer sizes are the listed counts, and
    the least family of each class is enough to give every class."""
    for families, relabelings in _closed_lists(rng, 40):
        rng.shuffle(families)
        want = _bruteforce_classes(families)
        got = [(c.representative, c.size) for c in classify_maximizers(families, relabelings)]
        assert got == want
        least = [F for F, _ in want]
        assert [(c.representative, c.size) for c in classify_maximizers(least, relabelings)] == want


def _orbit_scope_rows() -> list:
    """Every ok row of the stored verify grids whose engine's maximizer
    scope is closed under relabeling, at n <= 7 for the diversity grid (its
    rows start at n = 7) and n <= 6 for the rest, and one main5 row at
    n = 7, as (kind, params, engine)."""
    rows = []
    for path in sorted((Path(__file__).parent / "data").glob("verify_*.json")):
        stored = json.loads(path.read_text())
        kind = THEOREMS[stored["theorem"]][0]
        if problems._resolve_engine(kind, stored["engine"]) == "shifted":
            continue
        top = 7 if kind == "diverse_intersecting_max" else 6
        rows += [(kind, Params(**row["params"]), stored["engine"])
                 for row in stored["rows"] if row["status"] == "ok" and row["params"]["n"] <= top]
    return rows + [("s_union_conditioned_max", Params(n=7, s=5, r=1), "clique")]


def _scope_images(F: Family, kind: str) -> set[tuple[int, ...]]:
    """The member tuples of every relabeling of F, over all of S_n, cut to
    those with maximum degree at element 1 for the diversity engine."""
    elements = [[e - 1 for e in range(1, F.n + 1) if m >> e - 1 & 1] for m in F.members]
    images = set()
    for perm in itertools.permutations([1 << i for i in range(F.n)]):
        image = tuple(sorted(sum(perm[e] for e in es) for es in elements))
        if kind != "diverse_intersecting_max" or _max_degree_at_1(Family(F.n, image)):
            images.add(image)
    return images


def test_class_representatives_and_sizes_match_every_relabeling():
    """The reference for classification: on every stored orbit-scope row
    (:func:`_orbit_scope_rows`), each class's representative is the least
    relabeled copy in the engine's scope, and its size is the number of
    distinct copies there.  The classes are disjoint, so their sizes sum to
    the maximizer count.  For s_union_conditioned_max, whose search returns
    only the maximizers holding {1, ..., d+1}, nothing proves that the least
    copy is among them; this is what holds it there."""
    rows = _orbit_scope_rows()
    assert {kind for kind, _, _ in rows} == {
        "cross_pair_max", "diverse_intersecting_max", "s_union_max", "s_union_conditioned_max"}
    for kind, p, engine in rows:
        rep = solve(Problem(kind, p, engine))
        seen = set()
        for c in rep.classes:
            F = c.representative[0] if kind in problems._PAIR_KINDS else c.representative
            images = _scope_images(F, kind)
            assert (F.members, c.size) == (min(images), len(images)), (kind, p)
            assert not seen & images, (kind, p)
            seen |= images
        assert rep.maximizer_count == len(seen), (kind, p)


def test_select_takes_the_entries_at_the_set_bits(rng):
    for width in (0, 1, 63, 64, 65, 127, engines.MAX_BITS):
        entries = tuple(rng.getrandbits(16) for _ in range(width))
        full = (1 << width) - 1
        picks = {0, full ^ full >> 1, full}  # none, the top bit, all
        picks |= {rng.getrandbits(width) for _ in range(20)}
        for bits in sorted(picks):
            want = tuple(e for i, e in enumerate(entries) if bits >> i & 1)
            assert _select(entries, bits) == want
            assert _select(list(entries), bits) == want
        for past in (1 << width, full + (1 << width + 5)):
            with pytest.raises(IndexError):
                _select(entries, past)


def _pair_instances(limit: int):
    """Every brute pair instance whose tables hold at most ``limit`` sets,
    at every r its bound admits, as (kind, params)."""
    for n in range(2, 10):
        for k in range(1, n + 1):
            for kind in ("hemibundled_max", "cross_pair_max", "cross_pair_capped"):
                for t in range(n - k + 1) if kind == "hemibundled_max" else (None,):
                    if max(comb(n, k), comb(n, k + (t or 0))) > limit:
                        continue
                    for r in range(n + 2):
                        p = Params(n=n, k=k, t=t, r=r)
                        try:
                            problems.bound_for(kind, p)
                        except ParamRangeError:
                            continue
                        yield kind, p


def _compare_walks(reduced, unreduced, relabelings) -> tuple | None:
    """``reduced`` and ``unreduced`` run one ``problems._solve_*`` call, the
    first as is, branching once per orbit, the second walking every family
    of the scope.  Both give the same optimum, the unreduced list holds
    every family of the reduced one, and its length is the sum of the
    reduced list's class sizes; or both raise the same cap error, from the
    kernel or from the classification that sums the class sizes.  Returns
    the two walks' ``nodes`` when both finish."""

    def outcome(run, *args):
        try:
            return run(*args)
        except InfeasibleInstanceError as exc:
            return str(exc)

    got, full = outcome(reduced), outcome(unreduced)
    if isinstance(got, str):  # the walk that visits fewer nodes keeps fewer ties
        assert full == got
        return None
    best, found, nodes = got
    classes = outcome(classify_maximizers, found, relabelings)
    if isinstance(full, str):
        assert classes == full
        return None
    full_best, full_found, full_nodes = full
    assert best == full_best
    assert {F.members for F in found} <= {F.members for F in full_found}
    assert len(full_found) == sum(c.size for c in classes)
    return nodes, full_nodes


def test_orbit_branching_keeps_every_pair_report(compiled, monkeypatch):
    """The differential test of the orbit rule on the brute pair kinds:
    every instance with at most 35 candidates, at every r.  The unreduced
    walk is the kernel without the element masks, over every family.  The
    maximizer cap sits just above the largest count that fits (59,048
    families at hemibundled_max (6,3,0,1)), so that the rows past it, which
    both walks must fail alike, fail sooner."""
    monkeypatch.setattr(pykern, "MAXIMIZER_CAP", 60_000)
    seen, fewer, ran = set(), 0, 0
    for kind, p in _pair_instances(35):
        seen.add(kind)

        def reduced(kind=kind, p=p):
            best, pairs, nodes = problems._solve_pair(kind, p, "brute", "compiled", None)
            return best, [F for F, _ in pairs], nodes

        def unreduced(run=compiled.pair_bnb):
            with monkeypatch.context() as patch:
                patch.setattr(compiled, "pair_bnb", lambda *args: run(*args[:10], None, *args[11:]))
                return reduced()

        nodes = _compare_walks(reduced, unreduced, _all_relabelings)
        if nodes is not None:
            assert nodes[0] <= nodes[1], (kind, p)
            fewer += nodes[0] < nodes[1]
            ran += 1
    assert seen == set(problems._PAIR_KINDS)
    assert fewer > ran // 2


def test_orbit_branching_keeps_every_diversity_report(compiled, monkeypatch):
    """The same differential test on every k=3, n=7..9 diversity row, the
    unreduced walk running diversity_bnb without ``symmetric``, over every
    family.  Both backends give the reduced walk's report, ``nodes``
    included."""
    for n in (7, 8, 9):
        for r in range(n - 2):
            p = Params(n=n, k=3, r=r)

            def reduced(p=p):
                return problems._solve_diversity_clique(p, "compiled", None)

            def unreduced(run=compiled.diversity_bnb):
                with monkeypatch.context() as patch:
                    patch.setattr(compiled, "diversity_bnb", lambda *args: run(*args[:8], False))
                    return reduced()

            nodes, full_nodes = _compare_walks(reduced, unreduced, _max_degree_relabelings)
            assert nodes < full_nodes, p
            reports = [solve(Problem("diverse_intersecting_max", p, "clique"), backend=backend)
                       for backend in ("python", "compiled")]
            assert [_fields(rep) for rep in reports[1:]] == [_fields(reports[0])], p


@pytest.mark.parametrize(
    "kind, engine, p, expected",
    [
        ("diverse_intersecting_max", "clique", Params(n=9, k=4, r=1), (53, 70, 1, 129547)),
        ("diverse_intersecting_max", "clique", Params(n=9, k=4, r=2), (51, 644, 3, 434071)),
        ("diverse_intersecting_max", "clique", Params(n=9, k=4, r=3), (51, 84, 2, 882281)),
        ("cross_pair_capped", "brute", Params(n=7, k=3, r=1), (31, 70, 2, 129420)),
        ("cross_pair_capped", "brute", Params(n=7, k=3, r=2), (29, 770, 4, 1048658)),
    ],
)
def test_partner_search_walks_past_the_stored_sizes_are_pinned(compiled, kind, engine, p, expected):
    """The optimum, maximizer count, class count and ``nodes`` of the orbit
    rule's walks on rows larger than the stored reports, where the
    pure-Python kernel is too slow for tier-1: a change to the walk shows
    as a changed node count."""
    rep = solve(Problem(kind, p, engine))
    assert (rep.optimum, rep.maximizer_count, len(rep.classes), rep.nodes) == expected


def _fields(report: SearchReport) -> tuple:
    """Every report field but ``backend`` and ``elapsed``."""
    return tuple(getattr(report, f) for f in SearchReport.__slots__ if f not in ("backend", "elapsed"))


def test_degenerate_base_lists_classes_without_assertion():
    # at n = 2k+t the whole middle layer is the bound and many shapes tie;
    # the report still classifies them (5 classes, computed and frozen)
    rep = solve(Problem("hemibundled_max", Params(n=5, k=2, t=1, r=1), "brute"))
    assert rep.optimum == 10 == rep.bound.value
    assert len(rep.classes) == 5
    from setfam.search.expected import expected_classes

    assert expected_classes("hemibundled_max", Params(n=5, k=2, t=1, r=1)) is None


def test_layer_inequality_examples():
    k64 = construct(ConstructionId("katona_even", Params(n=6, d=2)))
    rows = check_layer_inequality(k64, 4)
    assert rows[0].i == 1 and rows[0].lhs == 6 and rows[0].rhs == 6 and rows[0].tight
    assert all(r.equality_form_ok for r in rows)

    rows = check_layer_inequality(fam(5, ()), 2)
    assert rows[0].lhs == 0 and not rows[0].tight

    w14 = construct(ConstructionId("W_r_even", Params(n=7, d=2, r=1)))
    rows = check_layer_inequality(w14, 4)
    assert rows[0].tight and rows[0].equality_form_ok
    assert rows[1].lhs <= rows[1].rhs and not rows[1].tight

    with pytest.raises(ParamRangeError):
        check_layer_inequality(fam(5, (1, 2, 3)), 2)


def test_reports_are_deterministic():
    p = Params(n=7, k=3, t=0, r=2)
    a = solve(Problem("hemibundled_max", p, "shifted"))
    b = solve(Problem("hemibundled_max", p, "shifted"))
    assert (a.optimum, a.maximizer_count, a.nodes, a.class_representatives) == (
        b.optimum,
        b.maximizer_count,
        b.nodes,
        b.class_representatives,
    )


def test_compiled_kernels_replay_every_pykern_call(compiled_kernels, monkeypatch):
    """Record the pykern calls of solves of all six kinds (every clique
    constraint kind, diversity with r = 0 and r > 0, capped pairs, shifted
    diversity through the pair kernel) and replay each on the compiled
    kernels."""
    calls = []
    for name in ("pair_bnb", "clique_bnb", "diversity_bnb"):
        def record(*args, _kernel=getattr(pykern, name), _name=name):
            result = _kernel(*args)
            calls.append((_name, args, result))
            return result

        monkeypatch.setattr(pykern, name, record)
    cases = [
        ("hemibundled_max", Params(n=7, k=3, t=0, r=2), "brute"),
        ("hemibundled_max", Params(n=8, k=3, t=1, r=2), "shifted"),
        ("cross_pair_max", Params(n=7, k=3, r=2), "shifted"),
        ("cross_pair_max", Params(n=6, k=2, r=1), "brute"),
        ("cross_pair_capped", Params(n=6, k=2, r=2), "brute"),
        ("cross_pair_capped", Params(n=7, k=2, r=3), "brute"),
        ("s_union_max", Params(n=6, s=3), "clique"),
        ("s_union_conditioned_max", Params(n=7, s=4, r=2), "clique"),
        ("s_union_conditioned_max", Params(n=7, s=5, r=1), "clique"),
        ("diverse_intersecting_max", Params(n=8, k=3, r=2), "clique"),
        ("diverse_intersecting_max", Params(n=7, k=3, r=0), "clique"),
        ("diverse_intersecting_max", Params(n=9, k=3, r=1), "shifted"),
        ("diverse_intersecting_max", Params(n=9, k=4, r=2), "shifted"),
        ("diverse_intersecting_max", Params(n=8, k=3, r=0), "shifted"),
    ]
    for kind, p, eng in cases:
        solve(Problem(kind, p, eng), backend="python")
    assert {name for name, _, _ in calls} == {"pair_bnb", "clique_bnb", "diversity_bnb"}
    # the shifted diversity calls count only the members avoiding element 1
    assert sum(args[5] != (1 << args[0]) - 1 for name, args, _ in calls if name == "pair_bnb") == 3
    for name, args, expected in calls:
        assert getattr(compiled_kernels, name)(*args) == expected, (name, args[0])


@pytest.mark.parametrize("backend", ["python", "compiled"])
def test_kernels_leave_their_tables_unchanged(backend, request, monkeypatch):
    """Every kernel entry point only reads its arguments: run one row of
    each kind, and each table a kernel gets compares equal, row for row,
    before and after the call."""
    kern = request.getfixturevalue("compiled") if backend == "compiled" else pykern
    checked = set()
    for name in ("pair_bnb", "clique_bnb", "diversity_bnb"):
        def check(*args, _kernel=getattr(kern, name), _name=name):
            before = copy.deepcopy(args)
            result = _kernel(*args)
            assert args == before, _name
            checked.add(_name)
            return result

        monkeypatch.setattr(kern, name, check)
    cases = [
        ("hemibundled_max", Params(n=7, k=3, t=0, r=2), "brute"),
        ("cross_pair_max", Params(n=7, k=3, r=2), "shifted"),
        ("cross_pair_capped", Params(n=6, k=2, r=2), "brute"),
        ("s_union_max", Params(n=6, s=3), "clique"),
        ("s_union_conditioned_max", Params(n=7, s=5, r=1), "clique"),
        ("diverse_intersecting_max", Params(n=8, k=3, r=2), "clique"),
        ("diverse_intersecting_max", Params(n=9, k=3, r=1), "shifted"),
    ]
    for kind, p, eng in cases:
        solve(Problem(kind, p, eng), backend=backend)
    assert checked == {"pair_bnb", "clique_bnb", "diversity_bnb"}


def _assert_times_out(backend: str) -> None:
    with pytest.raises(TimeBudgetExceededError) as info:
        solve(
            Problem("cross_pair_capped", Params(n=7, k=3, r=2), "brute"),
            max_seconds=0.01,
            backend=backend,
        )
    assert re.fullmatch(r"search exceeded its time budget after \d+ nodes", str(info.value))
    assert isinstance(info.value.best_so_far, int)


def test_time_budget_raises_cleanly():
    _assert_times_out("python")


def test_time_budget_raises_cleanly_on_compiled(compiled):
    _assert_times_out("compiled")


@pytest.mark.parametrize("backend", ["python", "compiled"])
@pytest.mark.parametrize(
    "kind,p,eng,best",
    [
        ("cross_pair_max", Params(n=8, k=3, r=4), "brute", 32),
        ("s_union_conditioned_max", Params(n=8, s=5, r=1), "clique", 53),
        ("diverse_intersecting_max", Params(n=9, k=4, r=1), "clique", 53),
    ],
)
def test_zero_budget_stops_every_kernel_at_the_first_clock_check(
    request, backend, kind, p, eng, best
):
    """With no time at all, the clock check at node 8192 always fires; both
    backends stop there with the same incumbent.  The s-union row is the
    anchored n=8, s=5 search with the conditioned kind's diversity
    constraint: forcing cuts every n <= 7 clique search below that node."""
    if backend == "compiled":
        request.getfixturevalue("compiled")
    with pytest.raises(TimeBudgetExceededError) as info:
        solve(Problem(kind, p, eng), max_seconds=0, backend=backend)
    assert str(info.value) == "search exceeded its time budget after 8192 nodes"
    assert info.value.best_so_far == best


@pytest.mark.parametrize("eng", ["shifted", "clique"])
def test_shifted_diversity_engine_times_out_like_the_kernels(monkeypatch, eng):
    monkeypatch.setattr(pykern, "_CHECK_MASK", 0)  # read the clock at every node
    problem = Problem("diverse_intersecting_max", Params(n=9, k=3, r=1), eng)
    with pytest.raises(TimeBudgetExceededError) as info:
        solve(problem, max_seconds=0, backend="python")
    assert str(info.value) == "search exceeded its time budget after 1 nodes"
    assert info.value.best_so_far == -1


@pytest.mark.parametrize("backend", ["python", "compiled"])
@pytest.mark.parametrize(
    "kind,p,eng",
    [
        ("hemibundled_max", Params(n=6, k=2, t=0, r=1), "brute"),
        ("s_union_max", Params(n=6, s=3), "clique"),
        ("diverse_intersecting_max", Params(n=7, k=3, r=1), "clique"),
    ],
)
def test_maximizer_cap_raises_the_same_error(request, monkeypatch, backend, kind, p, eng):
    if backend == "compiled":
        request.getfixturevalue("compiled")
    monkeypatch.setattr(pykern, "MAXIMIZER_CAP", 3)
    with pytest.raises(InfeasibleInstanceError, match=r"^maximizer enumeration exceeded the cap of 3$"):
        solve(Problem(kind, p, eng), backend=backend)


def test_maximizer_cap_counts_labeled_families(monkeypatch):
    """f24 (7,3,1) has one class, the 35 single sets; the reduced search
    finds only the one containing candidate 0, but the cap counts all 35."""
    problem = Problem("cross_pair_max", Params(n=7, k=3, r=1), "brute")
    monkeypatch.setattr(pykern, "MAXIMIZER_CAP", 35)
    rep = solve(problem)
    assert rep.maximizer_count == 35 and [c.size for c in rep.classes] == [35]
    monkeypatch.setattr(pykern, "MAXIMIZER_CAP", 34)
    with pytest.raises(InfeasibleInstanceError, match=r"^maximizer enumeration exceeded the cap of 34$"):
        solve(problem)


def test_maximizer_cap_counts_the_families_the_orbit_walk_reaches(monkeypatch):
    """diversity (7,3,1) has 35 maximizers in two classes; the search, which
    branches once per orbit at every node, finds only a few of those whose
    H holds {2, 3, 4}, but the cap counts all 35, the class sizes that the
    orbit-stabilizer theorem gives."""
    problem = Problem("diverse_intersecting_max", Params(n=7, k=3, r=1), "clique")
    monkeypatch.setattr(pykern, "MAXIMIZER_CAP", 35)
    rep = solve(problem)
    assert rep.maximizer_count == 35 and [c.size for c in rep.classes] == [15, 20]
    monkeypatch.setattr(pykern, "MAXIMIZER_CAP", 34)
    with pytest.raises(InfeasibleInstanceError, match=r"^maximizer enumeration exceeded the cap of 34$"):
        solve(problem)


def _kernel_call(kernel: str):
    """One pykern kernel on the tables of a small verify row, as a function
    of the deadline, each with at least two maximizers: the pair kernel on
    main1 (7,3,0,2) brute without and with element masks, the diversity
    kernel on (7,3,1), the clique kernel on main5 (7,5,1)."""
    if kernel.startswith("pair"):
        t = build_pair_tables(7, 3, 3, t_inter=1, shifted=False)
        m, masks = len(t.cands), t.cands if kernel == "pair_masks" else None
        return lambda deadline: pykern.pair_bnb(
            m, t.compat, t.succ, t.kill, len(t.gmasks), (1 << m) - 1, 2, 0, False, -1, masks,
            deadline,
        )
    if kernel == "diversity":
        d = build_diversity_tables(7, 3)
        return lambda deadline: pykern.diversity_bnb(
            len(d.hmasks), d.hcompat, d.hmasks, d.akill, len(d.amasks), d.avoid_a, 1, 7, True,
            deadline,
        )
    u = build_union_tables(7, 5, 3)
    return lambda deadline: pykern.clique_bnb(
        len(u.vmasks), u.adj, u.sup, 2, u.layer, u.vmasks, 7, 1, deadline
    )


def _garbage_after(call) -> tuple:
    """The error ``call`` raised (or None), and the number of objects it
    left that only the cycle collector frees; the collector is off during
    the call, so none is freed before it is counted."""
    raised = None
    gc.collect()
    gc.disable()
    try:
        try:
            call()
        except (InfeasibleInstanceError, TimeBudgetExceededError) as exc:  # no traceback kept
            raised = type(exc)
        return raised, gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("kernel", ["pair", "pair_masks", "diversity", "clique"])
def test_kernel_calls_leave_no_reference_cycles(monkeypatch, kernel):
    """The kernels' recursive closures refer to themselves (the partner
    search's rec, clique_bnb's expand); each call clears them as it ends,
    whether it returns, hits the maximizer cap or runs out of time."""
    call = _kernel_call(kernel)
    assert _garbage_after(lambda: call(None)) == (None, 0)
    monkeypatch.setattr(pykern, "MAXIMIZER_CAP", 1)
    assert _garbage_after(lambda: call(None)) == (InfeasibleInstanceError, 0)
    monkeypatch.setattr(pykern, "_CHECK_MASK", 0)  # read the clock at every node
    assert _garbage_after(lambda: call(0)) == (TimeBudgetExceededError, 0)


def test_enumerate_shifted_leaves_no_reference_cycle():
    """enumerate_shifted's recursive generator refers to itself; the stream
    clears it as it ends."""
    assert _garbage_after(lambda: list(enumerate_shifted(6, 3))) == (None, 0)


def test_shifted_diversity_reports_the_backend_that_ran(compiled):
    problem = Problem("diverse_intersecting_max", Params(n=9, k=4, r=2), "shifted")
    fast, slow = solve(problem), solve(problem, backend="python")
    assert (fast.backend, slow.backend) == ("compiled", "python")

    def untimed(rep):  # the report as the python backend gives it, with no time
        return SearchReport(
            rep.kind, rep.params, rep.engine, "python", rep.optimum, rep.bound,
            rep.matches_bound, rep.maximizer_count, rep.classes, rep.nodes, 0, rep.note,
        )

    assert untimed(fast) == untimed(slow)


def test_compiled_verify_rows_agree_across_threads(compiled):
    from setfam.search.verify import verify_grid

    def digest(threads):
        res = verify_grid("main5", "n=7;s=4,5;r=1..3", engine="clique", threads=threads)
        return [(r.report.optimum, r.report.nodes, r.report.class_representatives) for r in res.rows]

    assert digest(4) == digest(1)


def test_fastcore_compiles_without_warnings(compiled_kernels, tmp_path):
    """fastcore.c compiles under -Wall -Wextra -Werror with the compiler the
    compiled_kernels fixture uses, so a helper that nothing calls any more
    fails here.  Skips, through the fixture, only where no compiler works."""
    source = Path(engines.__file__).with_name("fastcore.c")
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    flags = ["-O3", "-Wall", "-Wextra", "-Werror", "-c", "-o", str(tmp_path / "fastcore.o")]
    out = subprocess.run([*cc, *flags, str(source)], capture_output=True, text=True)
    assert out.returncode == 0 and not out.stderr, out.stderr


@pytest.mark.parametrize("name", ["pair_bnb", "clique_bnb", "diversity_bnb"])
def test_compiled_kernels_take_pykerns_parameters(name):
    """Each compiled entry point takes its pykern twin's parameters, by name
    and default, in the same order; checked on the binding itself, so that a
    drift shows without a compiler."""
    def parameters(fn):
        return [(p.name, p.kind, p.default) for p in inspect.signature(fn).parameters.values()]

    assert parameters(getattr(Kernels, name))[1:] == parameters(getattr(pykern, name))  # no self


def test_missing_library_names_the_reason():
    if engines.HAVE_COMPILED:
        pytest.skip("a compiled kernel library sits next to the package")
    with pytest.raises(InfeasibleInstanceError, match="no kernel library .*pip install -e"):
        engines.backend_module("compiled")
    code = "import sys, setfam.cli; print('ctypes' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(engines.__file__).parents[2])}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "False\n"  # ctypes is loaded only with a library


def test_cli_loads_the_search_layers_only_when_a_subcommand_runs_them():
    code = (
        "import sys, setfam.cli\n"
        "LAZY = ('concurrent.futures', 'setfam.engines', 'setfam.search.problems',"
        " 'setfam.search.verify')\n"
        "print([m for m in LAZY if m in sys.modules])\n"
        "setfam.cli.main(['bound', 'main1', '--n', '7', '--k', '3', '--t', '0', '--r', '2'])\n"
        "print('setfam.search.problems' in sys.modules)\n"
        "setfam.cli.main(['verify', 'f16', '--grid', 'k=2;t=0;n=5', '--threads', '1'])\n"
        "print('concurrent.futures' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(engines.__file__).parents[2])}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    lines = out.stdout.splitlines()
    assert lines[:3] == ["[]", "30", "False"]  # bound loads no search layer
    assert lines[-2:] == ["verified", "False"]  # a thread pool only for --threads > 1


def test_no_subcommand_loads_dataclasses_inspect_or_typing(tmp_path):
    star = str(tmp_path / "star.fam")
    calls = [
        ["bound", "main1", "--n", "7", "--k", "3", "--t", "0", "--r", "2"],
        ["construct", "full_star", "--n", "5", "--k", "2", "--out", star],
        ["check", "--pred", "shifted", "--family", star],
        ["search", "s_union_max", "--n", "5", "--s", "2"],
        ["verify", "f16", "--grid", "k=2;t=0;n=5", "--threads", "1"],
    ]
    code = (
        "import sys, setfam.cli\n"
        f"for argv in {calls!r}:\n"
        "    assert setfam.cli.main(argv) == 0\n"
        "    print([m for m in ('dataclasses', 'inspect', 'typing') if m in sys.modules])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(engines.__file__).parents[2])}
    # -S: without site, no .pth file can preload these modules and mask a load
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert [line for line in out.stdout.splitlines() if line.startswith("[")] == ["[]"] * 5
    importer = re.compile(r"^\s*(from|import)\s+dataclasses\b", re.MULTILINE)
    src = Path(engines.__file__).parents[1]
    assert [p for p in src.rglob("*.py") if importer.search(p.read_text())] == []


# every public name of the package and of its search subpackage, by the
# module that defines it
EXPORTS = {
    "setfam": {
        "setfam.bounds": (
            "BoundValue", "Params", "binomial", "bound_classic", "bound_diversity",
            "bound_hemibundled", "bound_pairs", "bound_union",
        ),
        "setfam.constructions": ("ConstructionId", "construct", "expected_size"),
        "setfam.family": (
            "Family", "IsoCertificate", "Subset", "are_cross_intersecting", "are_isomorphic",
            "complement_family", "degree_profile", "is_s_union", "is_t_intersecting",
            "read_family", "restrict", "write_family",
        ),
        "setfam.search.problems": (
            "Problem", "SearchReport", "check_layer_inequality", "enumerate_shifted", "solve",
        ),
        "setfam.shifting": (
            "disjointness_family", "dominance_closure_check", "fully_shift", "is_shifted",
            "lex_family", "max_cross_partner", "shift_once",
        ),
    },
    "setfam.search": {
        "setfam.search.problems": (
            "ENGINES", "KINDS", "LayerBound", "MaximizerClass", "Problem", "SearchReport",
            "bound_for", "check_layer_inequality", "classify_maximizers", "enumerate_shifted",
            "solve",
        ),
        "setfam.search.verify": ("THEOREMS",),
    },
}


@pytest.mark.parametrize("package", sorted(EXPORTS))
def test_lazy_package_names_are_the_defining_modules_objects(package):
    pkg = importlib.import_module(package)
    for module, names in EXPORTS[package].items():
        defining = importlib.import_module(module)
        for name in names:
            assert getattr(pkg, name) is getattr(defining, name), f"{package}.{name}"
    assert sorted(pkg.__all__) == sorted(n for names in EXPORTS[package].values() for n in names)
    with pytest.raises(AttributeError, match="no_such_name"):
        pkg.no_such_name


def test_infeasible_instances_are_rejected():
    with pytest.raises(InfeasibleInstanceError):
        solve(Problem("s_union_max", Params(n=8, s=4), "clique"))
    with pytest.raises(InfeasibleInstanceError):
        solve(Problem("hemibundled_max", Params(n=12, k=5, t=0, r=1), "brute"))


def test_engine_kind_validation():
    with pytest.raises(ParamRangeError):
        solve(Problem("s_union_max", Params(n=6, s=3), "shifted"))
    with pytest.raises(ParamRangeError):
        solve(Problem("hemibundled_max", Params(n=6, k=2, t=0, r=1), "clique"))
    with pytest.raises(ParamRangeError):
        Problem("no_such_kind", Params(n=5))
    with pytest.raises(ParamRangeError):
        Problem("s_union_max", Params(n=5, s=2), "warp")
    with pytest.raises(ParamRangeError, match="unknown backend 'warp'"):
        solve(Problem("s_union_max", Params(n=5, s=2)), backend="warp")


# kind -> the engines it runs; brute names the clique engine where there is one
ALLOWED_ENGINES = {
    "hemibundled_max": {"auto", "shifted", "brute"},
    "cross_pair_max": {"auto", "shifted", "brute"},
    "cross_pair_capped": {"auto", "brute"},
    "diverse_intersecting_max": {"auto", "clique", "brute", "shifted"},
    "s_union_max": {"auto", "clique", "brute"},
    "s_union_conditioned_max": {"auto", "clique", "brute"},
}


@pytest.mark.parametrize("kind", sorted(ALLOWED_ENGINES))
def test_problem_rejects_exactly_the_engines_its_kind_does_not_run(kind):
    from setfam.search import ENGINES, KINDS

    assert sorted(KINDS) == sorted(ALLOWED_ENGINES)
    p = Params(n=3, s=2)  # out of every theorem's range: the engine is checked first
    for engine in ENGINES:
        if engine in ALLOWED_ENGINES[kind]:
            assert Problem(kind, p, engine).engine == engine
        else:
            with pytest.raises(ParamRangeError, match=f"engine '{engine}'"):
                Problem(kind, p, engine)


# kind, engine asked for, engine that runs, the note of its report
ENGINE_NOTES = [
    ("hemibundled_max", "auto", "shifted", "maximizer scope: shifted families only"),
    ("hemibundled_max", "brute", "brute", None),
    ("hemibundled_max", "shifted", "shifted", "maximizer scope: shifted families only"),
    ("cross_pair_max", "auto", "shifted", "maximizer scope: shifted families only"),
    ("cross_pair_max", "brute", "brute", None),
    ("cross_pair_max", "shifted", "shifted", "maximizer scope: shifted families only"),
    ("cross_pair_capped", "auto", "brute",
     "partner shown with the lowest-indexed overlap members dropped"),
    ("cross_pair_capped", "brute", "brute",
     "partner shown with the lowest-indexed overlap members dropped"),
    ("diverse_intersecting_max", "auto", "clique",
     "maximizer scope: families with maximum degree at element 1"),
    ("diverse_intersecting_max", "brute", "clique",
     "maximizer scope: families with maximum degree at element 1"),
    ("diverse_intersecting_max", "shifted", "shifted",
     "lower-bound engine: optimum certified over shifted families only; "
     "validate with the clique engine"),
    ("diverse_intersecting_max", "clique", "clique",
     "maximizer scope: families with maximum degree at element 1"),
    ("s_union_max", "auto", "clique", None),
    ("s_union_max", "brute", "clique", None),
    ("s_union_max", "clique", "clique", None),
    ("s_union_conditioned_max", "auto", "clique", None),
    ("s_union_conditioned_max", "brute", "clique", None),
    ("s_union_conditioned_max", "clique", "clique", None),
]
NOTE_POINTS = {
    "hemibundled_max": Params(n=5, k=2, t=0, r=1),
    "cross_pair_max": Params(n=5, k=2, r=1),
    "cross_pair_capped": Params(n=5, k=2, r=1),
    "diverse_intersecting_max": Params(n=7, k=3, r=1),
    "s_union_max": Params(n=5, s=2),
    "s_union_conditioned_max": Params(n=6, s=4, r=1),
}


@pytest.mark.parametrize("kind,asked,runs,note", ENGINE_NOTES)
def test_every_allowed_engine_reports_its_note(kind, asked, runs, note):
    assert {(k, e) for k, e, _, _ in ENGINE_NOTES} == {
        (k, e) for k, engines in ALLOWED_ENGINES.items() for e in engines
    }
    rep = solve(Problem(kind, NOTE_POINTS[kind], asked))
    assert (rep.engine, rep.note) == (runs, note)


def test_param_validation_matches_theorem_ranges():
    with pytest.raises(ParamRangeError):
        solve(Problem("hemibundled_max", Params(n=6, k=3, t=1, r=1)))
    with pytest.raises(ParamRangeError):
        solve(Problem("s_union_conditioned_max", Params(n=7, s=3, r=1)))
