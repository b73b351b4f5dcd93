"""``python3 bench/run.py compare A.json B.json``: did B move against A?

For every workload x end-to-end metric it prints each side's median and
quartiles over the recorded runs, the bound from ``BENCHMARK.json`` and a
verdict:

``better`` / ``worse``
    B's median differs from A's by more than the bound (all end-to-end
    metrics are lower-is-better), or the run-to-run spread is wider than the
    bound but every run of B reads better (worse) than every run of A.
``within``
    the medians differ by no more than the bound.
``unresolved``
    the run-to-run spread of either side is wider than the bound, so the
    difference cannot be told from noise.  Never read this as "unchanged".

When both files hold traced runs, the per-layer deltas follow.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def _values(records: list[dict], workload: str, traced: bool, metric: str) -> list[float]:
    return [
        r["metrics"][metric]["value"] for r in records
        if r["workload"] == workload and r["traced"] == traced
        and metric in r["metrics"] and metric not in r.get("null_metrics", ())
    ]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``statistics.quantiles(values, n=4)``, defined for a single value too."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median (0 for one run)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def judge(a: list[float], b: list[float], bound: float) -> tuple[str, float, float]:
    """``(verdict, relative change of the median, run-to-run spread)``.

    Lower is better for every end-to-end metric, so a positive change is worse.
    """
    median_a, median_b = statistics.median(a), statistics.median(b)
    change = (median_b - median_a) / median_a if median_a else 0.0
    noise = max(spread(a), spread(b))
    if noise > bound:
        if max(b) < min(a):
            return "better", change, noise
        if min(b) > max(a):
            return "worse", change, noise
        return "unresolved", change, noise
    if change > bound:
        return "worse", change, noise
    if change < -bound:
        return "better", change, noise
    return "within", change, noise


def _fmt(values: list[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    side_a, side_b = load(argv[0]), load(argv[1])
    spec = load(str(REPO_ROOT / "BENCHMARK.json"))
    for label, side in (("A", side_a), ("B", side_b)):
        origin = side["provenance"]
        cal = side["calibration_s"]
        print(f"{label}: commit {origin['commit']} dirty={origin['dirty']} "
              f"{origin['cpu_model']} x{origin['schedulable_cores']} "
              f"python {origin['python']} numpy {origin['numpy']} "
              f"calibration_s {cal['before']:.4f} -> {cal['after']:.4f}")
    records_a, records_b = side_a["records"], side_b["records"]
    verdicts = []
    print(f"\n{'workload':22s} {'metric':12s} {'A median [q1, q3]':>32s} "
          f"{'B median [q1, q3]':>32s} {'change':>8s} {'spread':>7s} {'bound':>6s} verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            a = _values(records_a, workload, False, metric["name"])
            b = _values(records_b, workload, False, metric["name"])
            if not a or not b:
                continue
            verdict, change, noise = judge(a, b, metric["bound"])
            verdicts.append(verdict)
            print(f"{workload:22s} {metric['name']:12s} {_fmt(a):>32s} {_fmt(b):>32s} "
                  f"{change:+8.1%} {noise:7.1%} {metric['bound']:6.0%} {verdict}")
        failed = [sum(r["failed"] for r in records if r["workload"] == workload)
                  for records in (records_a, records_b)]
        if any(failed):
            print(f"{workload:22s} failed cells: A {failed[0]}, B {failed[1]}")
    print("\nsummary: " + ", ".join(
        f"{verdicts.count(v)} {v}" for v in ("better", "within", "worse", "unresolved")
    ))
    printed_header = False
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["per_layer"]:
            a = _values(records_a, workload, True, metric["name"])
            b = _values(records_b, workload, True, metric["name"])
            if not a or not b:
                continue
            if not printed_header:
                print(f"\nper-layer (traced runs)\n{'workload':22s} {'metric':34s} "
                      f"{'A':>12s} {'B':>12s} {'change':>8s}")
                printed_header = True
            median_a, median_b = statistics.median(a), statistics.median(b)
            change = f"{(median_b - median_a) / median_a:+8.1%}" if median_a else "     n/a"
            print(f"{workload:22s} {metric['name']:34s} {median_a:12.6g} "
                  f"{median_b:12.6g} {change}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
