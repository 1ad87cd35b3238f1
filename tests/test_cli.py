import json
from pathlib import Path

import pytest

from setfam.cli import main
from setfam.errors import ParamRangeError
from setfam.search.verify import parse_grid

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_bound_plain_and_json(capsys):
    code, out, _ = run(capsys, "bound", "main1", "--n", "7", "--k", "3", "--t", "0", "--r", "2")
    assert code == 0 and out.strip() == "30"
    code, out, _ = run(capsys, "bound", "main1", "--n", "7", "--k", "3", "--t", "0", "--r", "2", "--json")
    obj = json.loads(out)
    assert obj == {
        "which": "main1",
        "params": {"n": 7, "k": 3, "t": 0, "r": 2},
        "regime": "i",
        "value": "30",
    }


def test_bound_usage_error(capsys):
    code, _, err = run(capsys, "bound", "w23", "--n", "6", "--k", "2", "--t", "0")
    assert code == 2
    assert "k >= 3" in err


def test_bound_unchecked(capsys):
    code, out, _ = run(
        capsys, "bound", "f16", "--n", "4", "--k", "1", "--t", "1", "--unchecked", "--json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["value"] == "3" and "unchecked" in obj["regime"]


def test_construct_check_roundtrip(tmp_path, capsys):
    out_f = tmp_path / "star.fam"
    code, out, _ = run(capsys, "construct", "full_star", "--n", "7", "--k", "3", "--out", str(out_f))
    assert code == 0 and "size 15" in out
    code, out, _ = run(capsys, "check", "--pred", "shifted", "--family", str(out_f))
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "check", "--pred", "t-intersecting", "--t", "1", "--family", str(out_f))
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "check", "--pred", "diversity", "--family", str(out_f))
    assert out.strip() == "max_degree=15 diversity=0"
    code, out, _ = run(
        capsys, "check", "--pred", "cross", "--family", str(out_f), "--family2", str(out_f)
    )
    assert code == 0 and out.strip() == "true"


def test_construct_pair_files(tmp_path, capsys):
    f1, f2 = tmp_path / "F.fam", tmp_path / "G.fam"
    code, out, _ = run(
        capsys, "construct", "main1_pair_r_sets", "--n", "7", "--k", "3", "--t", "0",
        "--r", "2", "--out", str(f1), "--out2", str(f2),
    )
    assert code == 0 and "size 30" in out
    code, out, _ = run(capsys, "check", "--pred", "cross", "--family", str(f1), "--family2", str(f2))
    assert out.strip() == "true"
    # pair construction without --out2 is a usage error
    code, _, err = run(
        capsys, "construct", "main1_pair_r_sets", "--n", "7", "--k", "3", "--t", "0",
        "--r", "2", "--out", str(f1),
    )
    assert code == 2 and "out2" in err


def test_check_malformed_family(tmp_path, capsys):
    bad = tmp_path / "bad.fam"
    bad.write_text("{1,2}\n")
    code, _, err = run(capsys, "check", "--pred", "shifted", "--family", str(bad))
    assert code == 2 and "header" in err


@pytest.mark.parametrize("pred, flag, value", [("t-intersecting", "--t", "-1"), ("s-union", "--s", "-3")])
def test_check_negative_parameter_is_a_usage_error(tmp_path, capsys, pred, flag, value):
    star = tmp_path / "star.fam"
    run(capsys, "construct", "full_star", "--n", "5", "--k", "2", "--out", str(star))
    code, out, err = run(capsys, "check", "--pred", pred, flag, value, "--family", str(star))
    assert (code, out, err) == (2, "", f"error: {flag[2:]} must be >= 0 (got {value})\n")


def test_search_json_schema(capsys):
    code, out, _ = run(
        capsys, "search", "hemibundled_max", "--n", "5", "--k", "2", "--t", "0", "--r", "1",
        "--engine", "brute", "--json", "--no-timing",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "hemibundled_max"
    assert obj["optimum"] == "8" and obj["bound"] == "8"
    assert obj["matches_bound"] is True
    assert obj["maximizer_count"] == 15
    assert {"representative", "partner", "size"} <= set(obj["classes"][0])
    assert "elapsed_ms" not in obj


def test_search_json_is_byte_identical(capsys):
    argv = (
        "search", "s_union_max", "--n", "6", "--s", "4",
        "--engine", "clique", "--json", "--no-timing",
    )
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_search_infeasible_exit_code(capsys):
    code, _, err = run(capsys, "search", "s_union_max", "--n", "8", "--s", "4")
    assert code == 3 and "infeasible" in err and "163 subsets" in err


def test_katona_verifies_past_n7_while_the_vertices_fit(capsys):
    # 37 and 93 subsets of [8] with at most s elements: within the 128-vertex width
    code, out, _ = run(
        capsys, "verify", "katona", "--grid", "n=8;s=2..3", "--json", "--no-timing"
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [(row["params"]["s"], row["bound_ok"], row["classes_ok"]) for row in rows] == [
        (2, True, True), (3, True, True),
    ]


def test_search_timeout_exit_code(capsys):
    code, _, err = run(
        capsys, "search", "cross_pair_max", "--n", "8", "--k", "3", "--r", "2",
        "--engine", "brute", "--backend", "python", "--max-seconds", "0.01",
    )
    assert code == 4 and "timeout" in err


def test_verify_ok_and_json(capsys):
    code, out, _ = run(
        capsys, "verify", "f16", "--grid", "k=2;t=0,1;n=2k+t..2k+t+2", "--engine", "brute"
    )
    assert code == 0
    assert out.strip().endswith("verified")
    code, out, _ = run(
        capsys, "verify", "katona", "--grid", "n=5;s=2..3", "--json", "--no-timing"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] is True
    assert [row["status"] for row in obj["rows"]] == ["ok", "ok"]


def test_verify_skips_out_of_range_rows(capsys):
    code, out, _ = run(
        capsys, "verify", "main1", "--grid", "k=2;t=0;n=5;r=1..5", "--engine", "brute"
    )
    # r <= n-k-t+1 = 4; the r=5 row is skipped, everything else verified
    assert code == 0
    assert "SKIP" in out


def test_verify_mismatch_exit_code(capsys, monkeypatch):
    import setfam.cli as cli_mod
    from setfam.bounds import Params
    from setfam.errors import InfeasibleInstanceError, TimeBudgetExceededError
    from setfam.search import Problem, solve
    from setfam.search.verify import VerifyResult, VerifyRow

    report = solve(Problem("hemibundled_max", Params(n=5, k=2, t=0, r=1), "brute"))
    row = VerifyRow(report.params, None, report, False, None)
    timeout = TimeBudgetExceededError("search exceeded its time budget after 8192 nodes", 7)
    timed_out = VerifyRow(report.params, None, None, None, None, timeout)
    capped = InfeasibleInstanceError("maximizer enumeration exceeded the cap of 200000")
    infeasible = VerifyRow(report.params, None, None, None, None, infeasible=capped)

    for rows, expected in (
        ([row], 1),
        ([timed_out, row], 1),
        ([timed_out], 4),
        ([infeasible, row], 1),
        ([timed_out, infeasible], 3),
        ([infeasible], 3),
    ):
        monkeypatch.setattr(cli_mod, "verify_grid", lambda *a, _rows=rows, **k: VerifyResult("f16", _rows))
        code = main(["verify", "f16", "--grid", "k=2;t=0;n=5"])
        assert code == expected  # a mismatch outranks an infeasible row, which outranks a timeout


def test_bound_union_accepts_s_or_d(capsys):
    code, out, _ = run(capsys, "bound", "katona_odd", "--n", "7", "--s", "5")
    assert code == 0 and out.strip() == "44"
    code, out, _ = run(capsys, "bound", "katona_odd", "--n", "7", "--d", "2")
    assert code == 0 and out.strip() == "44"
    code, _, err = run(capsys, "bound", "main5_even", "--n", "7", "--s", "5", "--r", "1")
    assert code == 2 and "parity" in err


def test_threads_default_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("SETFAM_THREADS", "3")
    from setfam.cli import build_parser

    args = build_parser().parse_args(["verify", "katona", "--grid", "n=5;s=2"])
    assert args.threads == 3
    args = build_parser().parse_args(
        ["verify", "katona", "--grid", "n=5;s=2", "--threads", "2"]
    )
    assert args.threads == 2


def test_grid_parser():
    rows = parse_grid("k=2;t=0,1;n=2k+t..2k+t+1")
    assert {"k": 2, "t": 0, "n": 4} in rows and {"k": 2, "t": 1, "n": 6} in rows
    assert len(rows) == 4
    assert parse_grid("n=7;s=4,5") == [{"n": 7, "s": 4}, {"n": 7, "s": 5}]
    with pytest.raises(ParamRangeError):
        parse_grid("k=2;n=2q..3")
    with pytest.raises(ParamRangeError):
        parse_grid("nn=4")
    with pytest.raises(ParamRangeError):
        parse_grid("k=;n=4")
    # juxtaposed terms, a rebound variable and an empty grid
    for spec in ("k=2;n=k2", "n=2 3", "k=2;t=1;n=2kt", "k=3;n=k..k+1;k=4", "n=5..3"):
        with pytest.raises(ParamRangeError):
            parse_grid(spec)


def test_threads_flag_gives_identical_results(capsys):
    argv = ("verify", "katona", "--grid", "n=4..6;s=2..2", "--json", "--no-timing")
    _, out1, _ = run(capsys, *argv, "--threads", "1")
    _, out2, _ = run(capsys, *argv, "--threads", "4")
    assert out1 == out2


@pytest.mark.parametrize(
    "theorem,grid,expected",
    [
        ("main1", "k=3;t=0,1;n=7..8;r=1..3", "verify_main1_shifted.json"),
        ("diversity", "k=3;n=7..8;r=1..n-k", "verify_diversity_shifted.json"),
        ("main5", "n=7;s=4,5;r=1", "verify_main5_clique.json"),
        ("diversity", "k=3;n=7;r=0..n-k", "verify_diversity_clique.json"),
        ("f24", "k=2;n=4..7;r=1..n-k+1", "verify_f24_brute.json"),
        ("katona", "n=4..7;s=2..n-2", "verify_katona_auto.json"),
    ],
)
def test_shifted_verify_json_matches_stored_output(capsys, theorem, grid, expected):
    stored = (DATA / expected).read_text()
    engine = json.loads(stored)["engine"]  # the stored run names its engine
    code, out, _ = run(
        capsys, "verify", theorem, "--grid", grid, "--engine", engine, "--json", "--no-timing"
    )
    assert code == 0
    assert out == stored


# One instance per pure-Python kernel mode; the stored output includes
# ``nodes``, so any change to a traversal shows here.
PYTHON_SEARCHES = [
    # pair kernel, g_ge_f
    ("cross_pair_max_brute_n8_k2_r1", "cross_pair_max --n 8 --k 2 --r 1 --engine brute"),
    # pair kernel, compat
    ("hemibundled_max_brute_n7_k3_t0_r2",
     "hemibundled_max --n 7 --k 3 --t 0 --r 2 --engine brute"),
    # pair kernel, compat and pred
    ("hemibundled_max_shifted_n10_k3_t0_r3",
     "hemibundled_max --n 10 --k 3 --t 0 --r 3 --engine shifted"),
    # pair kernel, cap_excess
    ("cross_pair_capped_brute_n7_k2_r3", "cross_pair_capped --n 7 --k 2 --r 3 --engine brute"),
    # clique kernel, constraint kinds 0, 1 and 2
    ("s_union_max_clique_n7_s5", "s_union_max --n 7 --s 5 --engine clique"),
    ("s_union_conditioned_max_clique_n7_s4_r2",
     "s_union_conditioned_max --n 7 --s 4 --r 2 --engine clique"),
    ("s_union_conditioned_max_clique_n7_s5_r2",
     "s_union_conditioned_max --n 7 --s 5 --r 2 --engine clique"),
    # diversity kernel, r = 0 and r > 0
    ("diverse_intersecting_max_clique_n7_k3_r0",
     "diverse_intersecting_max --n 7 --k 3 --r 0 --engine clique"),
    ("diverse_intersecting_max_clique_n8_k3_r2",
     "diverse_intersecting_max --n 8 --k 3 --r 2 --engine clique"),
    # pair kernel, empty partner, pred and an rmask that is not all ones
    ("diverse_intersecting_max_shifted_n9_k3_r1",
     "diverse_intersecting_max --n 9 --k 3 --r 1 --engine shifted"),
    ("diverse_intersecting_max_shifted_n9_k4_r2",
     "diverse_intersecting_max --n 9 --k 4 --r 2 --engine shifted"),
    ("diverse_intersecting_max_shifted_n10_k3_r4",
     "diverse_intersecting_max --n 10 --k 3 --r 4 --engine shifted"),
]


@pytest.mark.parametrize("name,args", PYTHON_SEARCHES, ids=[n for n, _ in PYTHON_SEARCHES])
def test_python_search_json_matches_stored_output(capsys, name, args):
    code, out, _ = run(
        capsys, "search", *args.split(), "--backend", "python", "--json", "--no-timing"
    )
    assert code == 0
    assert out == (DATA / f"search_python_{name}.json").read_text()


def test_verify_reports_timed_out_rows_and_runs_the_rest(capsys):
    # k=2 needs 79 nodes; k=3 reaches the first clock check at node 8192
    argv = ("verify", "f24", "--grid", "n=7;k=2..3;r=2", "--engine", "brute",
            "--max-seconds", "0")
    code, out, _ = run(capsys, *argv, "--json", "--no-timing")
    assert code == 4
    obj = json.loads(out)
    assert obj["ok"] is False
    assert [row["status"] for row in obj["rows"]] == ["ok", "timeout"]
    assert obj["rows"][1] == {
        "params": {"k": 3, "n": 7, "r": 2},
        "status": "timeout",
        "reason": "search exceeded its time budget after 8192 nodes",
        "best_so_far": "30",
    }
    code, out, _ = run(capsys, *argv)
    assert code == 4
    lines = out.splitlines()
    assert lines[0].startswith("OK  ") and lines[1].startswith("TIME  ")
    assert lines[1].endswith("after 8192 nodes (best so far: 30)")
    assert lines[-1] == "TIMEOUT"


def test_verify_reports_infeasible_rows_and_runs_the_rest(capsys):
    # n=6 has more labeled maximizers than the cap; n=7 has 35 in one class
    argv = ("verify", "f24", "--grid", "k=3;n=6..7;r=1", "--engine", "brute")
    code, out, _ = run(capsys, *argv, "--json", "--no-timing")
    assert code == 3
    obj = json.loads(out)
    assert obj["ok"] is False
    assert obj["rows"][0] == {
        "params": {"k": 3, "n": 6, "r": 1},
        "status": "infeasible",
        "reason": "maximizer enumeration exceeded the cap of 200000",
    }
    assert obj["rows"][1]["status"] == "ok"
    assert obj["rows"][1]["maximizer_count"] == 35
    code, out, _ = run(capsys, *argv)
    assert code == 3
    lines = out.splitlines()
    assert lines[0].startswith("INFS  ") and lines[0].endswith("exceeded the cap of 200000")
    assert lines[1].startswith("OK  ")
    assert lines[-1] == "INFEASIBLE"


def test_verify_reports_a_class_check_past_the_isomorphism_limit_as_infeasible(capsys):
    # both rows solve; only n=13 is past the isomorphism search's universe limit
    argv = ("verify", "katona", "--grid", "n=12..13;s=2")
    code, out, _ = run(capsys, *argv, "--json", "--no-timing")
    assert code == 3
    obj = json.loads(out)
    assert obj["ok"] is False
    assert obj["rows"][0]["status"] == "ok" and obj["rows"][0]["classes_ok"] is True
    assert obj["rows"][1] == {
        "params": {"n": 13, "s": 2},
        "status": "infeasible",
        "reason": "isomorphism search supports n <= 12 (got n=13)",
    }
    code, out, _ = run(capsys, *argv)
    assert code == 3
    lines = out.splitlines()
    assert lines[0].startswith("OK  ") and lines[1].startswith("INFS  ")
    assert lines[-1] == "INFEASIBLE"
