"""Machine-speed references that the benchmark's times are scaled by.

On a shared host the speed of a CPU changes by up to 1.8x within seconds,
as other tenants come and go.  Wall times taken a few minutes apart then
differ by more than any change worth measuring.  So every timed span is
taken between two samples of a fixed reference, and reported as

    wall time * nominal / mean of the two samples,

that is, the time it would have taken on a machine that runs the reference
in its nominal time.  A span that runs in the worker (a verify op) is
scaled by the reference task below, with nominal NOMINAL_MS.  A span that
starts a process (a CLI op, a set-up probe) is scaled by the start of an
empty interpreter, with nominal NOMINAL_START_MS: starting a process slows
down with the host by other amounts than Python code does.

The reference task is pure-Python work of the two
kinds setfam does: a bitset branch-and-bound, as in its search kernels,
and sorting and grouping 1,500 small tuples in dicts, as in its
candidate tables and classification.  A host under load slows the two
kinds by different amounts; with both in the task, the scaled times of
both verify workloads stay within a few per cent of their median.  Both
references are part of the benchmark, not of setfam: a change to setfam
leaves them alone.
"""

from __future__ import annotations

import random
import subprocess
import sys
import time

NOMINAL_MS = 6.0
NOMINAL_START_MS = 45.0
_N = 44


def _graph(n: int = _N, p: float = 0.55, seed: int = 12345) -> list[int]:
    rng = random.Random(seed)
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


_ADJ = _graph()


def _max_clique(cand: int) -> tuple[int, int]:
    """(clique number, nodes visited) of the graph induced on cand."""
    state = [0, 0]

    def grow(size: int, cand: int) -> None:
        state[1] += 1
        while cand:
            if size + bin(cand).count("1") <= state[0]:
                return
            low = cand & -cand
            cand ^= low
            grow(size + 1, cand & _ADJ[low.bit_length() - 1])
        if size > state[0]:
            state[0] = size

    grow(0, cand)
    return state[0], state[1]


_SETS = [frozenset(random.Random(i).sample(range(60), 5)) for i in range(1500)]


def _group_sets() -> int:
    """Group the sets by their least element, sort each group."""
    groups: dict = {}
    for i, members in enumerate(_SETS):
        key = tuple(sorted(members))
        groups.setdefault(key[0], []).append((len(members), key, i))
    total = 0
    for group in groups.values():
        group.sort()
        total += sum(item[2] for item in group[:10])
    return total


def task() -> tuple:
    """The reference task: eight clique searches on nested vertex sets,
    then one grouping of the sets."""
    seen: dict = {}
    for start in range(0, 24, 3):
        key = tuple(sorted((*_max_clique(((1 << _N) - 1) >> start), start)))
        seen[key] = seen.get(key, 0) + 1
    return seen, _group_sets()


EXPECTED = task()  # also warms the task up before any sample is taken


def sample_ms() -> float:
    """Wall time of one run of the reference task, in ms."""
    t0 = time.perf_counter()
    result = task()
    ms = (time.perf_counter() - t0) * 1000
    if result != EXPECTED:
        raise RuntimeError("the reference task gave a different result")
    return ms


def start_ms(env: dict) -> float:
    """Wall time to start an empty interpreter with env and see it exit, in ms."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, stdout=subprocess.DEVNULL, check=True)
    return (time.perf_counter() - t0) * 1000


def scaled(ms: float, ref_before: float, ref_after: float, nominal: float = NOMINAL_MS) -> float:
    """ms of wall time, scaled to a machine that runs the reference in nominal ms."""
    return ms * nominal * 2 / (ref_before + ref_after)
