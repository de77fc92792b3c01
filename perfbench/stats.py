"""Summary statistics shared by every workload of the benchmark."""

from __future__ import annotations

import statistics
from typing import Dict, Iterable, List, Optional, Sequence

#: Percentiles considered for the reported tail, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie beyond a percentile before it may be reported.
MIN_BEYOND = 10

#: Fig 6 geomean speedups over InO reported by the paper, in percent.
PAPER_FIG6_PCT = {"lsc": 28.0, "freeway": 34.0, "casino": 51.0, "ooo": 68.0}


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail_percentile(n: int) -> Optional[float]:
    """The highest percentile with at least ``MIN_BEYOND`` of ``n``
    samples beyond it, or ``None`` when even the median has fewer."""
    for pct in TAIL_CANDIDATES:
        if round(n * (100.0 - pct) / 100.0, 9) >= MIN_BEYOND:
            return pct
    return None


def failure_counts(outcomes: Iterable[dict],
                   latency_limit_s: Optional[float] = None) -> dict:
    """Count attempted, failed and over-limit operations.

    Each outcome is ``{"ok": bool, "latency_s": float or None}``.  A
    failed or refused operation counts as attempted and as missing any
    latency limit, whatever latency it reported.
    """
    attempted = failed = over_limit = 0
    for outcome in outcomes:
        attempted += 1
        ok = bool(outcome.get("ok"))
        if not ok:
            failed += 1
        latency = outcome.get("latency_s")
        if latency_limit_s is not None and (
                not ok or latency is None or latency > latency_limit_s):
            over_limit += 1
    return {"attempted": attempted, "failed": failed,
            "over_limit": over_limit,
            "failed_frac": failed / attempted if attempted else 0.0}


def fig6_err_pts(geomeans: Dict[str, float]) -> float:
    """Mean absolute error, in percentage points, of Fig 6 geomean
    speedups over InO (``{core: speedup}``) against the paper."""
    errors = [abs(100.0 * (geomeans[core] - 1.0) - paper)
              for core, paper in PAPER_FIG6_PCT.items()]
    return sum(errors) / len(errors)


def fig6_order_violations(fig6: Dict[str, Dict[str, float]]) -> List[str]:
    """Violations of the paper's Fig 6 shape in a ``fig6_ipc.run`` result:
    geomeans must satisfy LSC < Freeway < CASINO < OoO, and CASINO must
    beat InO on every app."""
    order = ["lsc", "freeway", "casino", "ooo"]
    geo = {core: fig6[core]["geomean"] for core in order}
    problems = [f"geomean {lo} {geo[lo]:.3f} >= {hi} {geo[hi]:.3f}"
                for lo, hi in zip(order, order[1:]) if geo[lo] >= geo[hi]]
    problems += [f"casino {value:.3f}x InO on {app}"
                 for app, value in sorted(fig6["casino"].items())
                 if app != "geomean" and value <= 1.0]
    return problems
