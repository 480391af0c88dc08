"""Order statistics for one run, and the comparison of two result sets."""
from __future__ import annotations

import statistics

TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile


def tail(durations: list[float]) -> dict:
    """The highest percentile with at least TAIL_BEYOND samples beyond it.

    With fewer than 2 * TAIL_BEYOND samples that percentile would fall at or
    below the median, so the maximum is reported instead and ``beyond`` is 0.
    """
    ordered = sorted(durations)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return {"value": ordered[-1], "percentile": 100.0, "beyond": 0, "samples": n}
    return {"value": ordered[n - TAIL_BEYOND - 1],
            "percentile": 100.0 * (n - TAIL_BEYOND) / n,
            "beyond": TAIL_BEYOND, "samples": n}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def verdict(a: list[float], b: list[float], pairs: list[tuple[float, float]],
            better: str, bound: float) -> dict:
    """Judge side B against side A for one metric.

    improved: B wins at least 9/10 of the pairs and the medians differ by more
    than A's quartile distance.  unresolved: the run-to-run spread of either
    side exceeds the bound and B does not beat every A run with every run.
    worse: B's median is worse than A's by more than the bound.  Otherwise
    the metric is within its bound.
    """
    sign = 1.0 if better == "lower" else -1.0
    qa, qb = quartiles(a), quartiles(b)
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    gain = sign * (qa[1] - qb[1])  # positive when B's median is better
    worse_share = -gain / qa[1] if qa[1] else 0.0
    all_better = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
    worst_spread = max(spread(a), spread(b))
    if pairs and wins >= 0.9 * len(pairs) and gain > qa[2] - qa[0]:
        result = "improved"
    elif worst_spread > bound and not all_better:
        result = "unresolved"
    elif worse_share > bound:
        result = "worse"
    else:
        result = "within bound"
    return {"a": qa, "b": qb, "spread_a": spread(a), "spread_b": spread(b),
            "wins": wins, "pairs": len(pairs),
            "worse_share": worse_share, "verdict": result}
