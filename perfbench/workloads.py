"""The benchmark's workloads: a fixed set of ops, ordered by the seed.

A verify op is one row of a ``verify_grid`` sweep, run as a one-row grid so
that each row has its own latency.  A CLI op is one ``python -m setfam.cli``
invocation; a ``construct`` and the ``check`` that reads its file form a
group that stays in order.
"""

from __future__ import annotations

import random

# theorem, grid, engine
VERIFY_GRIDS = {
    "verify-shifted": (
        ("main1", "k=3;t=0,1;n=7..9;r=1..5", "shifted"),
        ("main1", "k=3;t=0;n=10;r=1..6", "shifted"),
        ("w23", "k=3;t=0,1;n=2k+t+1..2k+t+2", "shifted"),
        ("f16", "k=3;t=0;n=7..8", "shifted"),
    ),
    "verify-exhaustive": (
        ("main1", "k=3;t=0;n=7;r=1..5", "brute"),
        ("f24", "k=3;n=7;r=1", "brute"),
        ("main3", "k=2;n=5..6;r=1..2", "brute"),
        ("main5", "n=7;s=4,5;r=1..3", "clique"),
        ("diversity", "k=3;n=7..9;r=1..n-k", "clique"),
    ),
}

_NT = ["--json", "--no-timing"]

# Groups of setfam CLI argument lists; files named by --out/--out2 are
# written in the pass's working directory and checked too.
CLI_SCRIPT = (
    (["bound", "main1", "--n", "7", "--k", "3", "--t", "0", "--r", "2", "--json"],),
    (["bound", "ekr", "--n", "7", "--k", "3", "--json"],),
    (["bound", "hm", "--n", "7", "--k", "3", "--json"],),
    (["bound", "f16", "--n", "8", "--k", "3", "--t", "0", "--json"],),
    (["bound", "w23", "--n", "8", "--k", "3", "--t", "0", "--json"],),
    (["bound", "f24_ii", "--n", "7", "--k", "3", "--r", "3", "--json"],),
    (["bound", "main3_i", "--n", "7", "--k", "3", "--r", "2", "--json"],),
    (["bound", "diversity", "--n", "8", "--k", "3", "--r", "2", "--json"],),
    (["bound", "katona_odd", "--n", "7", "--s", "5", "--json"],),
    (["bound", "main5_even", "--n", "7", "--s", "4", "--r", "1", "--json"],),
    (
        ["construct", "J_kr", "--n", "7", "--k", "3", "--r", "1", "--out", "j.fam", "--json"],
        ["check", "--pred", "shifted", "--family", "j.fam", "--json"],
    ),
    (
        ["construct", "main1_pair_r_sets", "--n", "7", "--k", "3", "--t", "0", "--r", "2",
         "--out", "F.fam", "--out2", "G.fam", "--json"],
        ["check", "--pred", "cross", "--family", "F.fam", "--family2", "G.fam", "--json"],
    ),
    (
        ["construct", "katona_odd", "--n", "7", "--d", "2", "--out", "k.fam", "--json"],
        ["check", "--pred", "s-union", "--s", "5", "--family", "k.fam", "--json"],
    ),
    (
        ["construct", "H_k", "--n", "8", "--k", "3", "--out", "h.fam", "--json"],
        ["check", "--pred", "diversity", "--family", "h.fam", "--json"],
    ),
    (
        ["construct", "W_star_even", "--n", "6", "--d", "2", "--out", "w.fam", "--json"],
        ["check", "--pred", "t-intersecting", "--t", "1", "--family", "w.fam", "--json"],
    ),
    (["search", "hemibundled_max", "--n", "9", "--k", "3", "--t", "0", "--r", "2",
      "--engine", "shifted", *_NT],),
    (["search", "cross_pair_max", "--n", "8", "--k", "3", "--r", "2", "--engine", "shifted", *_NT],),
    (["search", "diverse_intersecting_max", "--n", "7", "--k", "3", "--r", "1", *_NT],),
    (["search", "s_union_conditioned_max", "--n", "6", "--s", "4", "--r", "1", *_NT],),
    (["search", "s_union_max", "--n", "6", "--s", "4", *_NT],),
    (["verify", "f16", "--grid", "k=2;t=0,1;n=2k+t..2k+t+2", *_NT],),
)

NAMES = ("verify-shifted", "verify-exhaustive", "cli-oneshot")

# op_ms.tail: the highest round percentile with at least 10 op latencies
# above it in a run of --seconds 30 on 2 vCPUs, when the host is slow.
TAIL_PERCENTILE = {"verify-shifted": 99, "verify-exhaustive": 90, "cli-oneshot": 90}


def _row_grid(env: dict) -> str:
    return ";".join(f"{k}={v}" for k, v in env.items())


def ops(name: str, seed: int) -> list[dict]:
    """The workload's ops, in the order the seed gives."""
    rng = random.Random(seed)
    if name == "cli-oneshot":
        groups = list(CLI_SCRIPT)
        rng.shuffle(groups)
        return [
            {"id": " ".join(argv), "argv": argv, "files": _out_files(argv)}
            for group in groups
            for argv in group
        ]
    from setfam.search.verify import parse_grid

    rows = [
        {
            "id": f"{theorem} {_row_grid(env)} [{engine}]",
            "theorem": theorem,
            "grid": _row_grid(env),
            "engine": engine,
        }
        for theorem, grid, engine in VERIFY_GRIDS[name]
        for env in parse_grid(grid)
    ]
    rng.shuffle(rows)
    return rows


def _out_files(argv: list[str]) -> list[str]:
    return [argv[i + 1] for i, a in enumerate(argv) if a in ("--out", "--out2")]
