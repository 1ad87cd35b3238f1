"""Order statistics used by the benchmark report."""

from __future__ import annotations

MIN_BEYOND = 10


def tail(values, percentile: float) -> dict:
    """The value at a fixed percentile (linear interpolation between ranks),
    with the number of samples above it.  Each workload fixes its
    percentile, so that a run's pass count, which follows the host's speed,
    does not move the statistic; the run goes on until at least MIN_BEYOND
    samples lie above it."""
    ordered = sorted(values)
    n = len(ordered)
    h = (n - 1) * percentile / 100
    lo = int(h)
    hi = min(lo + 1, n - 1)
    value = ordered[lo] + (h - lo) * (ordered[hi] - ordered[lo])
    return {
        "value": value,
        "percentile": percentile,
        "samples": n,
        "beyond": sum(1 for v in ordered if v > value),
    }


def covered(intervals, lo: int, hi: int) -> int:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total
