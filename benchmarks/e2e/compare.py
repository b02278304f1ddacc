"""``compare A.json B.json`` — the A/A tool and the judge of later PRs.

One row per (driver-facing metric, workload) — the same values and the
same bounds the driver judges, both read from ``BENCHMARK.json`` — plus
``failed_share`` (bound 0).  Each row names the series the workload
reports under that metric, and gives both medians with their quartiles,
the ratio B/A with its base, the bound and a verdict:

* ``worse`` — B's median is worse than A's by more than the bound plus
  the wider of the two sides' own spreads (quartile distance over
  median): a change that large is a regression however noisy the row;
* ``unresolved`` — otherwise, when that spread is wider than the bound,
  so the bound cannot be tested (which is not "unchanged");
* ``worse`` / ``better`` — beyond the bound in that direction;
* ``same`` — within the bound.

Exact-count figures (spike totals, digests, routing entries, ...) must
match exactly when both files come from one seed and scale.  Exits
non-zero on any ``worse`` row or count mismatch.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple

from benchmarks.e2e import metrics


def spread(entry: Dict[str, Any]) -> float:
    """Quartile distance as a share of the median (0 for one sample)."""
    if "q1" not in entry or not entry["value"]:
        return 0.0
    return abs(entry["q3"] - entry["q1"]) / abs(entry["value"])


def verdict(a: Dict[str, Any], b: Dict[str, Any], better: str,
            bound: float) -> str:
    """``same`` / ``worse`` / ``better`` / ``unresolved`` for one row."""
    noise = max(spread(a), spread(b))
    base, value = a["value"], b["value"]
    change = value - base if better == "lower" else base - value
    if base:
        change /= abs(base)
    if change > bound + noise:
        return "worse"
    if bound > 0.0 and noise > bound:
        return "unresolved"
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def compare(a: Dict[str, Any], b: Dict[str, Any]
            ) -> Tuple[List[Tuple[str, ...]], List[str]]:
    """Rows for the end-to-end table, and the problems found."""
    rows: List[Tuple[str, ...]] = []
    problems: List[str] = []
    comparable = all(a["provenance"].get(key) == b["provenance"].get(key)
                     for key in ("seed", "scale"))
    for workload in metrics.WORKLOADS:
        ours = a["workloads"].get(workload)
        theirs = b["workloads"].get(workload)
        if ours is None or theirs is None:
            if ours is not theirs:
                problems.append("%s: present in only one file" % workload)
            continue
        for key, name, unit, better, bound, section in _judged(workload):
            left = ours.get(section, {}).get(key)
            right = theirs.get(section, {}).get(key)
            if left is None or right is None:
                if left is not right:
                    problems.append("%s %s: reported by only one file"
                                    % (workload, name))
                continue
            outcome = verdict(left, right, better, bound)
            ratio = (right["value"] / left["value"] if left["value"]
                     else float("nan"))
            rows.append((
                workload, name, unit,
                _cell(left), _cell(right),
                "%.3f (base %.6g)" % (ratio, left["value"]),
                "%.2f" % bound, outcome))
            if outcome == "worse":
                problems.append("%s %s: worse (%.6g -> %.6g %s, bound %.0f%%)"
                                % (workload, name, left["value"],
                                   right["value"], unit, bound * 100.0))
        if not comparable:
            continue
        for name in sorted(metrics.EXACT_COUNTS):
            left = ours.get("per_layer", {}).get(name)
            right = theirs.get("per_layer", {}).get(name)
            if left != right:
                problems.append("%s %s: exact count differs (%r != %r)"
                                % (workload, name, left, right))
    return rows, problems


def _judged(workload: str) -> List[Tuple[str, str, str, str, float, str]]:
    """(key, label, unit, better, bound, result-file section) per judged
    row.  The label is ``metric=series`` where the workload reports a
    named series under a driver-facing metric."""
    rows = []
    for metric, declared in metrics.CONTRACT.items():
        series = metrics.CONTRACT_VIEW[workload].get(metric, (metric,))[0]
        label = metric if series == metric else "%s=%s" % (metric, series)
        rows.append((metric, label, declared["unit"], declared["better"],
                     declared["bound"], "contract"))
    rows.append(("failed_share", "failed_share", "share", "lower", 0.0,
                 "end_to_end"))
    return rows


def _cell(entry: Dict[str, Any]) -> str:
    if "q1" in entry:
        return "%.6g [%.6g, %.6g] n=%d" % (entry["value"], entry["q1"],
                                           entry["q3"], entry["n"])
    return "%.6g" % entry["value"]


def render(rows: List[Tuple[str, ...]]) -> str:
    headers = ("workload", "metric", "unit", "A median [q1, q3]",
               "B median [q1, q3]", "B/A", "bound", "verdict")
    table = [headers] + rows
    widths = [max(len(row[column]) for row in table)
              for column in range(len(headers))]
    return "\n".join("  ".join(cell.ljust(width)
                               for cell, width in zip(row, widths)).rstrip()
                     for row in table)


def main(path_a: str, path_b: str) -> int:
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    rows, problems = compare(a, b)
    print(render(rows))
    counts: Dict[str, int] = {}
    for row in rows:
        counts[row[-1]] = counts.get(row[-1], 0) + 1
    print("verdicts: %s" % ", ".join(
        "%d %s" % (count, name) for name, count in sorted(counts.items())))
    for problem in problems:
        print("PROBLEM: %s" % problem)
    return 1 if problems else 0
