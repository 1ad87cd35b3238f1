import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import setfam
from setfam import family
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


def _cli_process(cwd, *argv, before: str = "") -> subprocess.CompletedProcess:
    """One CLI call in its own interpreter, after the code ``before``;
    stopped after 20 s."""
    code = f"{before}\nimport sys, setfam.cli\nsys.exit(setfam.cli.main(sys.argv[1:]))"
    env = {**os.environ, "PYTHONPATH": str(Path(setfam.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=20,
    )


@pytest.mark.parametrize("call,n", [("full_star --n 1 --k 1", 1), ("katona_even --n 64 --d 31", 64)])
def test_construct_rejects_a_universe_outside_2_to_63(tmp_path, call, n):
    # the check comes before any layer is built: the ball of radius 31 in
    # [64] would not fit in memory
    refuse = (
        "import setfam.constructions as c\n"
        "def refuse(*args): raise AssertionError('a layer was built')\n"
        "c.layer_masks = refuse"
    )
    proc = _cli_process(tmp_path, "construct", *call.split(), "--out", "a.fam", before=refuse)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: universe size must satisfy 2 <= n <= 63 (got {n})\n"
    assert not list(tmp_path.iterdir())


def test_construct_builds_a_ball_from_its_layers_alone(tmp_path):
    # 41 members of 2^40 subsets: walking every subset would not end in time
    proc = _cli_process(tmp_path, "construct", "katona_even", "--n", "40", "--d", "1",
                        "--out", "a.fam", "--json")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["size"] == "41"
    assert len((tmp_path / "a.fam").read_text().splitlines()) == 42  # the header and 41 sets


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


def test_an_unusable_path_is_a_usage_error(tmp_path, capsys):
    code, out, err = run(capsys, "check", "--pred", "shifted", "--family", str(tmp_path))
    assert (code, out) == (2, "") and err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"
    code, out, err = run(
        capsys, "construct", "J_kr", "--n", "9", "--k", "4", "--r", "2", "--out", str(tmp_path)
    )
    assert (code, out) == (2, "") and err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"


def test_an_unwritable_file_is_a_usage_error(tmp_path, capsys, monkeypatch):
    def refuse(path, *args):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr("setfam.cli.open", refuse, raising=False)
    out_f = str(tmp_path / "star.fam")
    code, out, err = run(capsys, "construct", "full_star", "--n", "5", "--k", "2", "--out", out_f)
    assert (code, out) == (2, "") and err == f"error: [Errno 13] Permission denied: '{out_f}'\n"
    code, out, err = run(capsys, "check", "--pred", "shifted", "--family", out_f)
    assert (code, out) == (2, "") and err == f"error: [Errno 13] Permission denied: '{out_f}'\n"


SEARCH = ("search", "s_union_max", "--n", "5", "--s", "2")
VERIFY = ("verify", "katona", "--grid", "n=5;s=2")


@pytest.mark.parametrize("argv", [SEARCH, VERIFY], ids=["search", "verify"])
@pytest.mark.parametrize("value", ["nan", "-1", "-0.5", "-inf"])
def test_a_budget_that_is_no_number_of_seconds_is_a_usage_error(capsys, argv, value):
    code, out, err = run(capsys, *argv, f"--max-seconds={value}")
    shown = float(value)
    assert (code, out, err) == (2, "", f"error: max_seconds must be a number >= 0 (got {shown})\n")


@pytest.mark.parametrize("value", ["0", "-3"])
def test_verify_rejects_fewer_than_one_thread(capsys, value):
    code, out, err = run(capsys, *VERIFY, "--threads", value)
    assert (code, out, err) == (2, "", f"error: threads must be >= 1 (got {value})\n")


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


SEARCH_TEXT = [
    (
        "cross_pair_capped --n 6 --k 2 --r 2 --engine brute",
        "kind      : cross_pair_capped\n"
        "params    : {'n': 6, 'k': 2, 'r': 2}\n"
        "engine    : brute (python)\n"
        "optimum   : 7\n"
        "bound     : 9 [ii]\n"
        "matches   : False\n"
        "maximizers: 180 in 2 classes\n"
        "  class x60: Family(n=6, {{1,2} {1,3}})\n"
        "  class x120: Family(n=6, {{1,2} {1,3} {1,4} {1,5} {2,6}})\n"
        "note      : partner shown with the lowest-indexed overlap members dropped\n",
        50,
    ),
    (
        "s_union_conditioned_max --n 6 --s 4 --r 1 --engine clique",
        "kind      : s_union_conditioned_max\n"
        "params    : {'n': 6, 'r': 1, 's': 4}\n"
        "engine    : clique (python)\n"
        "optimum   : 20\n"
        "bound     : 20 [i]\n"
        "matches   : True\n"
        "maximizers: 35 in 2 classes\n"
        "  class x15: Family(n=6, {{} {1} {2} {1,2} {3} {1,3} {2,3} {1,2,3} {4} {1,4} {2,4} "
        "{1,2,4} {5} {1,5} {2,5} {1,2,5} {6} {1,6} {2,6} {1,2,6}})\n"
        "  class x20: Family(n=6, {{} {1} {2} {1,2} {3} {1,3} {2,3} {1,2,3} {4} {1,4} {2,4} "
        "{3,4} {5} {1,5} {2,5} {3,5} {6} {1,6} {2,6} {3,6}})\n",
        22,
    ),
]


@pytest.mark.parametrize("args,text,nodes", SEARCH_TEXT, ids=[a.split()[0] for a, _, _ in SEARCH_TEXT])
def test_search_text_output(capsys, args, text, nodes):
    argv = ("search", *args.split(), "--backend", "python")
    code, out, err = run(capsys, *argv, "--no-timing")
    assert (code, out, err) == (0, text, "")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.startswith(text)
    assert re.fullmatch(rf"elapsed   : \d+\.\d{{3}}s \({nodes} nodes\)\n", out[len(text):])


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


def test_main5_width_check_counts_the_anchored_vertices(capsys):
    # the kept sets B, |B | {1..4}| <= 6, are any part of {1..4} with at most
    # 2 of {5..8}: 16 * 11 = 176 of them
    code, out, _ = run(
        capsys, "verify", "main5", "--grid", "n=8;s=6;r=1", "--json", "--no-timing"
    )
    assert code == 3
    assert json.loads(out)["rows"][0]["reason"] == (
        "the 176 subsets of [8] whose union with {1..4} has at most 6 elements "
        "exceed 128 vertices"
    )


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
        capsys, "search", "cross_pair_capped", "--n", "7", "--k", "3", "--r", "2",
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


def test_bound_rejects_s_and_d_that_disagree(capsys):
    code, out, err = run(capsys, "bound", "katona_even", "--n", "8", "--s", "4", "--d", "1", "--json")
    assert (code, out) == (2, "")
    assert err == "error: katona_even needs d = s // 2 (got s=4, d=1)\n"
    code, out, _ = run(capsys, "bound", "katona_even", "--n", "8", "--s", "4", "--d", "2", "--json")
    assert code == 0
    assert json.loads(out) == {
        "which": "katona_even", "params": {"d": 2, "n": 8, "s": 4}, "regime": "even", "value": "37",
    }
    code, _, err = run(capsys, "bound", "main5_odd", "--n", "9", "--s", "5", "--d", "3", "--r", "1")
    assert code == 2 and "(got s=5, d=3)" in err


# Every bound name and construction tag at a point outside its theorem's
# range, with the message it gives; the shared hypotheses at each of their
# conditions.
OUT_OF_RANGE = [
    ("bound ekr --n 5 --k 1", "ekr requires k >= 2 (got k=1)"),
    ("bound ekr --n 5 --k 3", "ekr requires n >= 2k (got n=5, k=3)"),
    ("bound hm --n 5 --k 3", "hm requires n >= 2k (got n=5, k=3)"),
    ("bound ft --n 6 --k 3 --l 1", "ft requires 2 <= l <= k (got l=1, k=3)"),
    ("bound ft_nontrivial --n 4 --k 3 --l 2", "ft_nontrivial requires n >= k+l (got n=4, k=3, l=2)"),
    ("bound f16 --n 6 --k 1 --t 0", "f16 requires k >= 2 (got k=1)"),
    ("bound f16 --n 6 --k 2 --t -1", "f16 requires t >= 0 (got t=-1)"),
    ("bound f16 --n 5 --k 3 --t 0", "f16 requires n >= 2k+t (got n=5, k=3, t=0)"),
    ("bound w23 --n 8 --k 2 --t 0", "w23 requires k >= 3 (got k=2)"),
    ("bound w23 --n 8 --k 3 --t -1", "w23 requires t >= 0 (got t=-1)"),
    ("bound w23 --n 6 --k 3 --t 1", "w23 requires n >= 2k+t (got n=6, k=3, t=1)"),
    ("bound main1 --n 6 --k 1 --t 0 --r 1", "main1 requires k >= 2 (got k=1)"),
    ("bound main1 --n 6 --k 2 --t -1 --r 1", "main1 requires t >= 0 (got t=-1)"),
    ("bound main1 --n 6 --k 3 --t 1 --r 1", "main1 requires n >= 2k+t (got n=6, k=3, t=1)"),
    ("bound main1 --n 7 --k 3 --t 0 --r 0",
     "main1 requires 1 <= r <= n-k-t+1 (got r=0, n-k-t+1=5)"),
    ("bound main1 --n 7 --k 3 --t 0 --r 6",
     "main1 requires 1 <= r <= n-k-t+1 (got r=6, n-k-t+1=5)"),
    ("bound f24_i --n 7 --k 3 --r 3", "f24_i requires r <= k-1 (got r=3, k=3)"),
    ("bound f24_ii --n 7 --k 3 --r 6", "f24_ii requires k <= r <= n-k+1 (got r=6)"),
    ("bound main3_i --n 6 --k 3 --r 1", "main3_i requires n >= 2k+1 (got n=6, k=3)"),
    ("bound main3_ii --n 7 --k 3 --r 2", "main3_ii requires k <= r <= n-k+1 (got r=2)"),
    ("bound diversity --n 7 --k 2 --r 1", "diversity requires k >= 3 (got k=2)"),
    ("bound diversity --n 6 --k 3 --r 1", "diversity requires n > 2k (got n=6, k=3)"),
    ("bound diversity --n 7 --k 3 --r 5", "diversity requires 1 <= r <= n-k (got r=5, n-k=4)"),
    ("bound katona_even --n 5 --d 2", "katona_even requires 2 <= s <= n-2 (got s=4, n=5)"),
    ("bound katona_odd --n 6 --d 2", "katona_odd requires 2 <= s <= n-2 (got s=5, n=6)"),
    ("bound main5_even --n 7 --d 1 --r 1", "main5_even requires d >= 2 (got d=1)"),
    ("bound main5_odd --n 8 --d 2 --r 6", "main5_odd requires 1 <= r <= 5 (got r=6)"),
    ("bound binomial --n -1 --k 0", "binomial requires n >= 0 (got n=-1)"),
    ("construct full_star --n 5 --k 0", "full_star requires 1 <= k <= n (got k=0, n=5)"),
    ("construct ekr_extremal --n 5 --k 1", "ekr_extremal requires k >= 2 (got k=1)"),
    ("construct ekr_extremal --n 5 --k 3", "ekr_extremal requires n >= 2k (got n=5, k=3)"),
    ("construct main1_pair_r_sets --n 6 --k 1 --t 0 --r 1",
     "main1_pair_r_sets requires k >= 2 (got k=1)"),
    ("construct main1_pair_r_sets --n 6 --k 2 --t -1 --r 1",
     "main1_pair_r_sets requires t >= 0 (got t=-1)"),
    ("construct main1_pair_r_sets --n 6 --k 3 --t 1 --r 1",
     "main1_pair_r_sets requires n >= 2k+t (got n=6, k=3, t=1)"),
    ("construct main1_pair_r_sets --n 7 --k 3 --t 0 --r 6",
     "main1_pair_r_sets requires 1 <= r <= n-k-t+1 (got r=6, n-k-t+1=5)"),
    ("construct main1_pair_star_kr1 --n 7 --k 3 --t 0 --r 0",
     "main1_pair_star_kr1 requires 1 <= r <= n-k-t+1 (got r=0, n-k-t+1=5)"),
    ("construct main1_pair_star_kr1 --n 7 --k 3 --t 0 --r 1",
     "main1_pair_star_kr1 requires k = r+1 (got k=3, r=1)"),
    ("construct main1_pair_k3 --n 6 --t 1", "main1_pair_k3 requires n >= 2k+t = 7 (got n=6)"),
    ("construct J_kr --n 7 --k 2 --r 1", "J_kr requires k >= 3 (got k=2)"),
    ("construct J_kr --n 6 --k 3 --r 1", "J_kr requires n > 2k (got n=6, k=3)"),
    ("construct J_kr --n 7 --k 3 --r 2", "J_kr requires 1 <= r <= k-2 (got r=2, k=3)"),
    ("construct H_k --n 7 --k 2", "H_k requires k >= 3 (got k=2)"),
    ("construct H_k --n 6 --k 3", "H_k requires n > 2k (got n=6, k=3)"),
    ("construct G_4 --n 8", "G_4 requires n > 2k = 8 (got n=8)"),
    ("construct katona_even --n 5 --d 2", "katona_even requires 2 <= s = 2d <= n-2 (got d=2, n=5)"),
    ("construct katona_odd --n 6 --d 2",
     "katona_odd requires 2 <= s = 2d+1 <= n-2 (got d=2, n=6)"),
    ("construct katona_odd --n 7 --d 2 --y 8", "katona_odd requires 1 <= y <= n (got y=8)"),
    ("construct W_r_even --n 6 --d 2 --r 2", "W_r_even requires 1 <= r <= d-1 (got r=2, d=2)"),
    ("construct W_star_even --n 5 --d 2", "W_star_even requires n >= s+2 (got n=5, s=4)"),
    ("construct W_sharp_6 --n 7", "W_sharp_6 requires s = 6 <= n-2 (got n=7)"),
    ("construct W_r_odd --n 8 --d 1 --r 1", "W_r_odd requires s >= 4 (got s=3)"),
    ("construct W_star_odd --n 8 --d 3", "W_star_odd requires n >= s+2 (got n=8, s=7)"),
    ("construct W_sharp_7 --n 8", "W_sharp_7 requires s = 7 <= n-2 (got n=8)"),
]


@pytest.mark.parametrize("call,message", OUT_OF_RANGE, ids=[c for c, _ in OUT_OF_RANGE])
def test_out_of_range_messages(capsys, tmp_path, call, message):
    from setfam.cli import _BOUNDS
    from setfam.constructions import TAGS

    assert {c.split()[1] for c, _ in OUT_OF_RANGE} == set(_BOUNDS) | set(TAGS)
    argv = call.split()
    if argv[0] == "construct":
        argv += ["--out", str(tmp_path / "a.fam"), "--out2", str(tmp_path / "b.fam")]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not list(tmp_path.iterdir())


def test_verify_checks_the_engine_on_skipped_rows(capsys):
    code, out, err = run(capsys, "verify", "katona", "--grid", "n=3;s=2", "--engine", "shifted")
    assert (code, out) == (2, "")
    assert err == "error: engine 'shifted' is not valid for kind 's_union_max'\n"


def test_threads_default_ignores_the_environment(monkeypatch):
    monkeypatch.setenv("SETFAM_THREADS", "3")
    from setfam.cli import build_parser

    args = build_parser().parse_args(["verify", "katona", "--grid", "n=5;s=2"])
    assert args.threads == 1


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


@pytest.mark.parametrize("threads", ["1", "3"])
def test_verify_runs_each_parameter_set_once(capsys, threads):
    def params(grid):
        code, out, _ = run(capsys, "verify", "katona", "--grid", grid, "--threads", threads,
                           "--json", "--no-timing")
        assert code == 0
        return [row["params"] for row in json.loads(out)["rows"]]

    # katona does not read k: six grid rows, two parameter sets, in grid order
    assert params("n=6,5,6;s=2;k=1..2") == [{"n": 6, "s": 2}, {"n": 5, "s": 2}]
    # a helper variable gives one row per value it feeds
    assert params("d=2,1;s=2d;n=7") == [{"n": 7, "s": 4}, {"n": 7, "s": 2}]
    code, out, err = run(capsys, "verify", "katona", "--grid", "n=6;k=1..2", "--threads", threads)
    assert (code, out, err) == (2, "", "error: theorem katona needs grid variable 's'\n")


def test_threads_flag_gives_identical_results(capsys):
    for theorem, grid, engine in (
        ("katona", "n=4..6;s=2..2", "auto"),
        ("diversity", "k=3;n=7..8;r=1..n-k", "clique"),
        ("main5", "n=7;s=4;r=1..2", "clique"),
    ):
        argv = ("verify", theorem, "--grid", grid, "--engine", engine, "--json", "--no-timing")
        code1, out1, _ = run(capsys, *argv, "--threads", "1")
        code4, out4, _ = run(capsys, *argv, "--threads", "4")
        assert code1 == code4 == 0
        assert out1 == out4


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
    # pair kernel, compat and the order rows
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
    # pair kernel, empty partner, the order rows and an rmask that is not all ones
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
    # k=2 needs 77 nodes; k=3 reaches the first clock check at node 8192
    argv = ("verify", "main3", "--grid", "n=7;k=2..3;r=2", "--engine", "brute",
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
        "best_so_far": "29",
    }
    code, out, _ = run(capsys, *argv)
    assert code == 4
    lines = out.splitlines()
    assert lines[0].startswith("OK  ") and lines[1].startswith("TIME  ")
    assert lines[1].endswith("after 8192 nodes (best so far: 29)")
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


def test_verify_reports_a_class_check_past_the_step_budget_as_infeasible(capsys, monkeypatch):
    # both rows solve on the shifted engine, whose classes are matched by the
    # isomorphism search; each search there maps every element without
    # backtracking, 12 steps at n=12 and 13 at n=13, so a budget of 12 stops
    # only the n=13 row
    argv = ("verify", "f16", "--grid", "k=2;t=0;n=12..13")
    monkeypatch.setattr(family, "ISO_STEP_BUDGET", 12)
    code, out, _ = run(capsys, *argv, "--json", "--no-timing")
    assert code == 3
    obj = json.loads(out)
    assert obj["ok"] is False
    assert obj["rows"][0]["status"] == "ok" and obj["rows"][0]["classes_ok"] is True
    assert obj["rows"][1] == {
        "params": {"k": 2, "n": 13, "r": 1, "t": 0},
        "status": "infeasible",
        "reason": "isomorphism search exceeded its budget of 12 steps (n=13)",
    }
    code, out, _ = run(capsys, *argv)
    assert code == 3
    lines = out.splitlines()
    assert lines[0].startswith("OK  ") and lines[1].startswith("INFS  ")
    assert lines[-1] == "INFEASIBLE"
    # nothing of the failed search was cached: at the default budget it verifies
    monkeypatch.undo()
    code, out, _ = run(capsys, *argv, "--json", "--no-timing")
    assert code == 0
    assert [(row["status"], row["classes_ok"]) for row in json.loads(out)["rows"]] == [
        ("ok", True), ("ok", True)
    ]


def test_diversity_asserts_no_classes_at_n_2k_without_a_floor(capsys):
    # at n = 2k Erdos-Ko-Rado has maximum families besides the full star, so
    # r = 0 asserts classes only from n = 2k+1 on, where the star is unique
    argv = ("verify", "diversity", "--grid", "k=3;n=6..7;r=0", "--engine", "clique")
    code, out, _ = run(capsys, *argv, "--json", "--no-timing")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [(row["params"]["n"], row["status"], row["classes_ok"], row["class_count"])
            for row in rows] == [(6, "ok", None, 13), (7, "ok", True, 1)]


def test_orbit_classified_rows_match_their_classes_past_the_isomorphism_limit(capsys):
    # the s-union classes are sized by the orbit-stabilizer theorem and
    # matched by the isomorphism search, which has no universe limit, so
    # n = 13..15 verify too
    code, out, _ = run(capsys, "verify", "katona", "--grid", "n=12..15;s=2", "--json", "--no-timing")
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] is True
    assert [(row["params"]["n"], row["status"], row["classes_ok"]) for row in obj["rows"]] == [
        (n, "ok", True) for n in range(12, 16)
    ]
