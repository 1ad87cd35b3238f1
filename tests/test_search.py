import importlib
import itertools
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import are_isomorphic_bruteforce, fam, random_family

from setfam import engines
from setfam.engines import pykern
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
from setfam.search.expected import expected_classes
from setfam.search.problems import MaximizerClass, _labeled_classes
from setfam.search.tables import build_pair_tables, shifted_family_count_reference
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
    assert _classes_match(rep.class_representatives, exp)


def test_engine_agreement_hemibundled():
    cases = [Params(n=7, k=3, t=0, r=1), Params(n=7, k=3, t=0, r=3), Params(n=8, k=3, t=1, r=2)]
    if "compiled" in BACKENDS:
        cases += [Params(n=8, k=3, t=0, r=2), Params(n=8, k=3, t=1, r=3)]
    for p in cases:
        a = solve(Problem("hemibundled_max", p, "brute"))
        b = solve(Problem("hemibundled_max", p, "shifted"))
        assert a.optimum == b.optimum
        # the shifted engine sees a representative of every maximizer class
        assert len(a.classes) == len(b.classes)


def test_engine_agreement_diversity():
    # the shifted lower-bound engine reaches the clique optimum on the
    # whole verification grid
    for n in (7, 8, 9):
        for r in range(1, n - 2):
            p = Params(n=n, k=3, r=r)
            a = solve(Problem("diverse_intersecting_max", p, "clique"))
            b = solve(Problem("diverse_intersecting_max", p, "shifted"))
            assert a.optimum == b.optimum == a.bound.value


def test_named_specializations_verify_on_their_own_grids():
    from setfam.search.verify import verify_grid

    res = verify_grid("f16", "k=3;t=0;n=7..8", engine="shifted")
    assert res.ok and all(r.classes_ok for r in res.rows)
    res = verify_grid("w23", "k=3;t=0,1;n=2k+t+1..2k+t+2", engine="shifted")
    assert res.ok and all(r.classes_ok for r in res.rows)
    res = verify_grid("f24", "k=2;n=5..7;r=1..n-k+1", engine="brute")
    assert res.ok


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
        m, tabs.compat, tabs.pred, tabs.kill, len(tabs.gmasks), (1 << m) - 1,
        4, 4, False, 3,
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


def _assert_times_out(backend: str) -> None:
    with pytest.raises(TimeBudgetExceededError) as info:
        solve(
            Problem("cross_pair_max", Params(n=8, k=3, r=2), "brute"),
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
        ("cross_pair_max", Params(n=8, k=3, r=2), "brute", 42),
        ("s_union_conditioned_max", Params(n=7, s=5, r=1), "clique", 42),
        ("diverse_intersecting_max", Params(n=9, k=3, r=1), "clique", 19),
    ],
)
def test_zero_budget_stops_every_kernel_at_the_first_clock_check(
    request, backend, kind, p, eng, best
):
    """With no time at all, the clock check at node 8192 always fires; both
    backends stop there with the same incumbent."""
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


def test_labeled_class_sizes_must_be_whole_orbits():
    # a 3-edge star in K5: 20 labeled copies, 6 of them contain the edge {1, 2}
    pair = (fam(5, {1, 2}, {1, 3}, {1, 4}), fam(5, {1, 2}, {1, 3}, {1, 4}, {1, 5}))
    assert _labeled_classes([MaximizerClass(pair, 6)], 5) == [MaximizerClass(pair, 20)]
    with pytest.raises(AssertionError, match="not a whole orbit"):
        _labeled_classes([MaximizerClass(pair, 1)], 5)  # 10 * 1 / 3 is no class size


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
            "KINDS", "LayerBound", "MaximizerClass", "Problem", "SearchReport", "bound_for",
            "check_layer_inequality", "classify_maximizers", "enumerate_shifted", "solve",
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


def test_param_validation_matches_theorem_ranges():
    with pytest.raises(ParamRangeError):
        solve(Problem("hemibundled_max", Params(n=6, k=3, t=1, r=1)))
    with pytest.raises(ParamRangeError):
        solve(Problem("s_union_conditioned_max", Params(n=7, s=3, r=1)))
