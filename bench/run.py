#!/usr/bin/env python3
"""The repo benchmark: SSP -> checked verdict, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py [--seed N] [--seconds S] [--trace 0|1] [--sets K]
    python3 bench/run.py compare A.json B.json

With ``--workload`` it measures one workload and prints, as the last line of
standard output, one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``): the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``.  Without it, it runs every workload (``--sets K`` times,
alternating the order; with ``--trace 1`` a traced run follows each untraced
one).  Every run is recorded in ``bench/out/results-<timestamp>.json``.

Each measurement happens in a fresh subprocess (``bench/worker.py``), so this
process imports nothing of the engine.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import compare

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
#: Set-up launches per run after one discarded priming launch; the measuring
#: launch itself is the last of them.
SETUP_LAUNCHES = 5
#: A worker that takes longer than this is stuck (the contract allows 180 s
#: for the whole run).
WORKER_TIMEOUT_S = 170


def benchmark_spec() -> dict:
    with open(REPO_ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


# -- provenance ------------------------------------------------------------------


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", *args], cwd=REPO_ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _numpy_version() -> str | None:
    try:
        return metadata.version("numpy")
    except metadata.PackageNotFoundError:
        return None


def provenance() -> dict:
    """Who produced a number: commit, host, interpreter.  Outside a git
    checkout (the driver's copy is none) the commit reads ``None``."""
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if commit else None
    return {
        "commit": commit,
        "dirty": bool(status) if status is not None else None,
        "cpu_model": _cpu_model(),
        "schedulable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": _numpy_version(),
        "platform": platform.platform(),
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def calibration_s() -> float:
    """A fixed pure-Python + NumPy loop, timed: the host's speed right now.

    Informational only: a slower row with a slower calibration is the box,
    a slower row with the same calibration is the code.
    """
    code = (
        "import time, numpy as np\n"
        "t = time.perf_counter()\n"
        "d = {}\n"
        "for i in range(150000):\n"
        "    d[(i & 1023, i >> 3)] = i\n"
        "a = np.arange(1 << 17, dtype=np.int64)\n"
        "for _ in range(8):\n"
        "    np.unique((a * 2654435761) & 0xFFFF)\n"
        "print(time.perf_counter() - t)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    return float(done.stdout) if done.returncode == 0 else float("nan")


# -- one run ---------------------------------------------------------------------


def _launch(workload: str, mode: str, seed: int, seconds: float,
            trace_out: Path | None = None) -> tuple[dict, float]:
    """Run one worker to its end; its report and the launch timestamp."""
    command = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
               "--mode", mode, "--seed", str(seed), "--seconds", str(seconds)]
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    launched = time.perf_counter()  # CLOCK_MONOTONIC: shared with the child
    done = subprocess.run(command, cwd=REPO_ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"bench: worker for {workload!r} ({mode}) exited "
                         f"with code {done.returncode}; no result")
    return json.loads(done.stdout.strip().splitlines()[-1]), launched


def tail_percentile(values: list[float]) -> tuple[str, float] | None:
    """The highest usual percentile with at least ten samples beyond it."""
    best = None
    ordered = sorted(values)
    for label, share in (("p90", 0.90), ("p95", 0.95), ("p99", 0.99), ("p99.9", 0.999)):
        if len(ordered) * (1 - share) >= 10:
            best = (label, ordered[int(len(ordered) * share)])
    return best


def sample_stats(values: list[float]) -> dict:
    q1, q2, q3 = compare.quartiles(values)
    stats = {"n": len(values), "min": min(values), "q1": q1, "median": q2,
             "q3": q3, "max": max(values)}
    tail = tail_percentile(values)
    if tail is not None:
        stats[tail[0]] = tail[1]
    return stats


def _record(report: dict, traced: bool, seconds: float, **measured) -> dict:
    """What every run records, whatever it measured."""
    return {
        "workload": report["workload"], "traced": traced, "seed": report["seed"],
        "seconds": seconds, "passes": report["passes"],
        "attempted": report["attempted"], "failed": report["failed"],
        "failures": report["failures"],
        "failed_share": report["failed"] / report["attempted"],
        **measured,
    }


def run_untraced(workload: str, seed: int, seconds: float) -> dict:
    """Set-up launches, then the measuring launch: the end-to-end metrics."""
    _launch(workload, "setup", seed, seconds)  # priming: page cache, .pyc files
    setups = []
    for _ in range(SETUP_LAUNCHES - 1):
        report, launched = _launch(workload, "setup", seed, seconds)
        setups.append(report["ready_at"] - launched)
    report, launched = _launch(workload, "measure", seed, seconds)
    setups.append(report["ready_at"] - launched)
    walls, cpus = report["pass_wall_s"], report["pass_cpu_s"]
    samples = {"pass_s": walls, "pass_cpu_s": cpus, "setup_s": setups}
    return _record(
        report, False, seconds,
        metrics={
            "pass_s": {"value": statistics.median(walls), "unit": "s"},
            "pass_cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        },
        samples=samples,
        stats={name: sample_stats(values) for name, values in samples.items()},
        rss={key: report[key] for key in
             ("self_rss_kb", "largest_child_rss_kb", "workers")},
    )


def run_traced(workload: str, seed: int, seconds: float) -> dict:
    """One launch: reference passes, then traced passes; per-layer metrics."""
    trace_out = OUT_DIR / f"trace-{workload}.json"
    report, _ = _launch(workload, "trace", seed, seconds, trace_out)
    units = {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}
    values = report["layer_metrics"]
    return _record(
        report, True, seconds,
        # A layer this workload never reaches, or a probe whose target is
        # gone, has no value; the result line must hold a number, so it reads
        # 0 there and ``null_metrics`` (and the trace file) say which.
        metrics={name: {"value": values.get(name) or 0, "unit": unit}
                 for name, unit in units.items()},
        null_metrics=sorted(n for n in units if values.get(n) is None),
        probes_missing=report["probes_missing"],
        trace_file=str(trace_out.relative_to(REPO_ROOT)),
    )


def print_record(record: dict) -> None:
    kind = "traced" if record["traced"] else "untraced"
    print(f"== {record['workload']} ({kind}, seed {record['seed']}, "
          f"{record['passes']} passes) ==")
    null = set(record.get("null_metrics", ()))
    for name, metric in record["metrics"].items():
        shown = "null" if name in null else f"{metric['value']:.6g}"
        line = f"  {name:34s} {shown:>12s} {metric['unit']}"
        stats = record.get("stats", {}).get(name)
        if stats:
            extra = "".join(f" {key}={stats[key]:.4g}" for key in stats
                            if key.startswith("p"))
            line += (f"   n={stats['n']} min={stats['min']:.4g} "
                     f"q1={stats['q1']:.4g} q3={stats['q3']:.4g}{extra}")
        print(line)
    print(f"  {'failed_share':34s} {record['failed_share']:>12.6g} ratio   "
          f"({record['failed']} of {record['attempted']} cells)")
    for failure in record["failures"]:
        print(f"  FAILED {failure['cell']}: "
              f"{failure.get('problems') or failure.get('exception')}")
    if record.get("probes_missing"):
        print(f"  probes_missing: {', '.join(record['probes_missing'])}")


def write_results(records: list[dict], calibration: dict, started: dict) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = OUT_DIR / f"results-{stamp}-{os.getpid()}.json"
    with open(path, "w") as handle:
        json.dump({"provenance": started, "calibration_s": calibration,
                   "records": records}, handle, indent=1)
    return path


def main(argv: list[str]) -> int:
    if argv and argv[0] == "compare":
        return compare.main(argv[1:])
    spec = benchmark_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=names + ["smoke"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args(argv)

    started = provenance()
    calibration = {"before": calibration_s()}
    records = []
    if args.workload:
        run = run_traced if args.trace else run_untraced
        records.append(run(args.workload, args.seed, args.seconds))
        print_record(records[-1])
    else:
        for index in range(args.sets):
            order = names if index % 2 == 0 else names[::-1]
            for name in order:
                modes = (run_untraced, run_traced) if args.trace else (run_untraced,)
                for run in modes:
                    record = run(name, args.seed + index, args.seconds)
                    record["set"] = index
                    records.append(record)
                    print_record(record)
    calibration["after"] = calibration_s()
    path = write_results(records, calibration, started)
    print(f"calibration_s before={calibration['before']:.4f} "
          f"after={calibration['after']:.4f}; results in "
          f"{path.relative_to(REPO_ROOT)}")
    if args.workload:
        record = records[0]
        print(json.dumps({"correct": record["failed"] == 0,
                          "attempted": record["attempted"],
                          "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
