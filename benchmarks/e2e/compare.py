"""Verdicts between two sets of benchmark runs (``run.py compare A B``).

For every (workload, end-to-end metric) present in both sets:

* ``worse`` — B's median is worse than A's by more than the metric's
  bound;
* ``unresolved`` — either side's spread (IQR / median) is wider than the
  bound, unless every B run beats every A run;
* ``better`` — B's median beats A's by more than A's IQR and B wins at
  least 9 of 10 seed-paired runs (ties count for neither side);
* ``same`` — none of the above.

Runs are paired by seed.  Only untraced runs carry end-to-end metrics.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

WIN_SHARE = 0.9


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def beats(x: float, y: float, better: str) -> bool:
    return x < y if better == "lower" else x > y


def verdict(a: dict, b: dict, better: str, bound: float) -> dict:
    """Compare seed-keyed values ``a`` (base) and ``b`` (candidate)."""
    a_q1, a_med, a_q3 = quartiles(list(a.values()))
    b_q1, b_med, b_q3 = quartiles(list(b.values()))
    change = (b_med - a_med) / a_med if a_med else 0.0
    worse_by = change if better == "lower" else -change
    seeds = sorted(set(a) & set(b))
    wins = sum(beats(b[s], a[s], better) for s in seeds)
    dominates = all(beats(x, y, better) for x in b.values() for y in a.values())
    spread = max(
        (a_q3 - a_q1) / abs(a_med) if a_med else 0.0,
        (b_q3 - b_q1) / abs(b_med) if b_med else 0.0,
    )
    if worse_by > bound:
        result = "worse"
    elif spread > bound and not dominates:
        result = "unresolved"
    elif (
        beats(b_med, a_med, better)
        and abs(b_med - a_med) > a_q3 - a_q1
        and seeds
        and wins >= WIN_SHARE * len(seeds)
    ):
        result = "better"
    else:
        result = "same"
    return {
        "verdict": result,
        "a_median": a_med,
        "b_median": b_med,
        "change": change,
        "spread": spread,
        "wins": wins,
        "pairs": len(seeds),
    }


def by_workload(records) -> dict:
    """``{workload: {metric: {seed: value}}}`` over untraced runs."""
    out: dict = defaultdict(lambda: defaultdict(dict))
    for rec in records:
        if rec.get("trace"):
            continue
        for name, metric in rec["metrics"].items():
            out[rec["workload"]][name][rec["seed"]] = metric["value"]
    return out


def failed_share(records, workload: str) -> float:
    runs = [r for r in records if r["workload"] == workload and not r.get("trace")]
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def compare(a_records, b_records, end_to_end) -> tuple[list[dict], bool]:
    """All verdict rows plus whether the comparison fails (exit 1): any
    ``worse`` row, or a workload whose share of failed operations rose."""
    a_runs, b_runs = by_workload(a_records), by_workload(b_records)
    rows, failing = [], False
    for workload in sorted(set(a_runs) & set(b_runs)):
        for spec in end_to_end:
            a, b = a_runs[workload].get(spec["name"]), b_runs[workload].get(spec["name"])
            if not a or not b:
                continue
            row = verdict(a, b, spec["better"], spec["bound"])
            row.update(workload=workload, metric=spec["name"], unit=spec["unit"])
            rows.append(row)
            failing |= row["verdict"] == "worse"
        a_fail, b_fail = failed_share(a_records, workload), failed_share(b_records, workload)
        if b_fail > a_fail:
            rows.append({"workload": workload, "metric": "failed_share", "verdict": "worse",
                         "a_median": a_fail, "b_median": b_fail, "unit": "ratio",
                         "change": 0.0, "spread": 0.0, "wins": 0, "pairs": 0})
            failing = True
    return rows, failing


def format_rows(rows) -> str:
    lines = [
        f"{'workload':<11} {'metric':<18} {'A median':>12} {'B median':>12} "
        f"{'change':>8} {'spread':>7} {'wins':>6}  verdict"
    ]
    for r in rows:
        lines.append(
            f"{r['workload']:<11} {r['metric']:<18} {r['a_median']:>12.5g} {r['b_median']:>12.5g} "
            f"{r['change']:>+8.1%} {r['spread']:>7.1%} {r['wins']:>3}/{r['pairs']:<2}  {r['verdict']}"
        )
    return "\n".join(lines)
