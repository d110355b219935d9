"""``python -m bench compare BASE NEW``: verdicts per (workload, metric).

Each verdict is judged against the metric's bound (``BENCHMARK.json``, or
``runner.REPORT_ONLY`` for the metrics it does not carry) and each side's
slice interquartile range:

* the spread (the larger IQR as a share of the base median) is wider than
  the bound: ``better`` or ``worse`` only when every slice of one side
  beats every slice of the other, else ``unresolved``;
* otherwise ``worse`` / ``better`` when the medians differ by more than
  the bound, else ``same``.

``error_rate`` is compared absolutely: any increase is ``worse``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

from bench.runner import end_to_end

__all__ = ["compare_reports", "main", "verdict"]


def verdict(
    base: Dict[str, Any], new: Dict[str, Any], better: str, bound: float
) -> Tuple[str, float]:
    """Return (verdict, ratio new/base) for one metric's two summaries."""
    b, n = base["median"], new["median"]
    ratio = n / b
    worse_by = (n - b) / b if better == "lower" else (b - n) / b
    spread = max(base["iqr"], new["iqr"]) / b
    if spread > bound:
        if better == "lower":
            new_wins = max(new["values"]) < min(base["values"])
            base_wins = min(new["values"]) > max(base["values"])
        else:
            new_wins = min(new["values"]) > max(base["values"])
            base_wins = max(new["values"]) < min(base["values"])
        return ("better" if new_wins else "worse" if base_wins else "unresolved"), ratio
    if worse_by > bound:
        return "worse", ratio
    if -worse_by > bound:
        return "better", ratio
    return "same", ratio


def compare_reports(
    base: Dict[str, Any], new: Dict[str, Any], benchmark: Dict[str, Any]
) -> List[Dict[str, Any]]:
    """One row per (workload, metric) present in both reports."""
    table = end_to_end(benchmark)
    rows: List[Dict[str, Any]] = []
    for workload in sorted(set(base["workloads"]) & set(new["workloads"])):
        old_metrics = base["workloads"][workload]["metrics"]
        new_metrics = new["workloads"][workload]["metrics"]
        for metric, (unit, better, bound) in table.items():
            if metric not in old_metrics or metric not in new_metrics:
                continue
            b, n = old_metrics[metric], new_metrics[metric]
            row = {"workload": workload, "metric": metric, "unit": unit,
                   "base": b["median"], "new": n["median"], "bound": bound}
            if metric == "error_rate":
                row["verdict"] = "worse" if n["median"] > b["median"] else "same"
                row["ratio"] = None
            else:
                row["verdict"], row["ratio"] = verdict(b, n, better, bound)
            rows.append(row)
    return rows


def _fmt(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.4g}"


def main(base_path: str, new_path: str, benchmark: Dict[str, Any]) -> int:
    with open(base_path) as handle:
        base = json.load(handle)
    with open(new_path) as handle:
        new = json.load(handle)
    rows = compare_reports(base, new, benchmark)
    print(f"{'workload':<15} {'metric':<15} {'verdict':<10} {'ratio':>7}  new of base")
    for row in rows:
        ratio = "-" if row["ratio"] is None else f"x{row['ratio']:.3f}"
        print(
            f"{row['workload']:<15} {row['metric']:<15} {row['verdict']:<10} {ratio:>7}  "
            f"{_fmt(row['new'])} of {_fmt(row['base'])} {row['unit']}"
        )
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0
