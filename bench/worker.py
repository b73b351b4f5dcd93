"""One workload in one fresh interpreter: set up, run the passes, report.

``bench/run.py`` launches this file as a subprocess for every measurement, so
``ru_maxrss`` and the import cost belong to one workload.  It prints a single
JSON object on its last line of standard output.

Modes:

``setup``
    Get ready for the first timed pass, report when that was, exit.
``measure``
    Set up, run the workload's passes with **no wrappers installed** and
    report wall-clock and CPU seconds per pass and the peak RSS.
``trace``
    Set up, run reference passes without wrappers, then install the timing
    wrappers of :mod:`trace` and run traced passes; report per-layer metrics
    and write the spans to ``--trace-out``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
#: ``BENCHMARK.json``'s ``run_seconds``: pass counts are stated for it.
REFERENCE_SECONDS = 10
#: How many failing cells a record describes in full (all are counted).
MAX_FAILURES_REPORTED = 20


def load_expected() -> dict:
    """The pinned answers, keyed by cell id.  Read-only: nothing writes it."""
    with open(BENCH_DIR / "expected.json") as handle:
        return json.load(handle)["cells"]


def setup(workload_name: str):
    """Everything a fresh interpreter does before its first timed pass.

    Imports (``repro``, NumPy), the pins, all six SSPs, and one untimed
    2c x 1a MSI cell per backend the workload uses.  Returns
    ``(workloads module, cells, expected, murphi references)``.
    """
    sys.path.insert(0, str(REPO_ROOT / "src"))
    import numpy  # noqa: F401  (the vectorized backend's import cost is set-up)
    import workloads

    cells = workloads.WORKLOADS[workload_name]["cells"]
    expected = load_expected()
    references = {}
    for cell in cells:
        path = expected.get(cell.id, {}).get("expect", {}).get("murphi_file")
        if path is not None:
            references[cell.id] = (REPO_ROOT / path).read_text()
    for name in workloads.protocols.available_protocols():
        workloads.protocols.load(name)
    backends = {
        (cell.kind, cell.kernel, cell.strategy, cell.processes, cell.symmetry)
        for cell in cells
    }
    for kind, kernel, strategy, processes, symmetry in sorted(backends, key=repr):
        workloads.run_cell(workloads.Cell(
            "warm", "MSI", "stalling", kind=kind, accesses=1, kernel=kernel,
            strategy=strategy, processes=processes, symmetry=symmetry,
        ))
    # What set-up left alive (modules, pins) moves to the permanent
    # generation, so the collection before each cell costs microseconds
    # instead of a ~6 ms walk over the interpreter's own objects.
    gc.collect()
    gc.freeze()
    return workloads, cells, expected, references


def _cpu_seconds() -> float:
    """User+sys of this process plus its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def run_pass(workloads, cells, expected, references, rng, *, tracer=None,
             run_cell=None):
    """Run every cell once, in *rng*-shuffled order, checking each answer.

    Returns ``(observed answers by cell id, failures, wall s, CPU s)``; a
    cell that raises or mismatches its pin is a failure, never an abort.
    The clocks run from a cell's start to its checked answer.  Between cells
    (clocks stopped) the heap is collected, so a cell's time and the
    process's peak RSS do not depend on which cells the shuffle put before
    it -- each starts as a user's fresh run would.
    """
    run_cell = run_cell or workloads.run_cell
    order = list(cells)
    rng.shuffle(order)
    observed = {}
    failures = []
    wall = cpu = 0.0
    for cell in order:
        gc.collect()
        pin = expected.get(cell.id)
        cpu0 = _cpu_seconds()
        wall0 = time.perf_counter()
        try:
            with tracer.cell_span(cell.id) if tracer else nullcontext():
                answer = run_cell(cell)
                if pin is None:
                    problems = ["no pin in expected.json"]
                else:
                    problems = workloads.check_cell(
                        answer, pin["expect"], references.get(cell.id)
                    )
        except Exception:  # a cell must not take the run down: count it
            failures.append({"cell": cell.id,
                             "exception": traceback.format_exc(limit=6)})
            continue
        finally:
            wall += time.perf_counter() - wall0
            cpu += _cpu_seconds() - cpu0
        if problems:
            failures.append({"cell": cell.id, "problems": problems})
        answer.pop("murphi", None)
        observed[cell.id] = answer
    return observed, failures, wall, cpu


def timed_passes(workloads, cells, expected, references, rng, passes, tracer=None):
    """*passes* passes; per-pass wall and CPU seconds, failures, last answers."""
    walls, cpus, failures, observed = [], [], [], {}
    for _ in range(passes):
        observed, failed, wall, cpu = run_pass(
            workloads, cells, expected, references, rng, tracer=tracer
        )
        walls.append(wall)
        cpus.append(cpu)
        failures.extend(failed)
    return walls, cpus, failures, observed


def _engine_metrics(observed: dict, parent_cpu, worker_cpu, passes) -> dict:
    """Per-layer metrics that come from results and rusage, not wrappers.

    *observed* holds the last traced pass's answers; counts repeat exactly
    from pass to pass.
    """
    verify_cells = [a for a in observed.values() if "states" in a]
    states = sum(a["states"] for a in verify_cells)
    transitions = sum(a["transitions"] for a in verify_cells)
    out = {"search.dup_share": 1 - states / transitions if transitions else 0.0}
    vectorized = [a for a in verify_cells if a["kernel"] == "vectorized"]
    if vectorized:
        out["vectorized.fallback_transitions"] = sum(
            a["stats"]["fallback_transitions"] for a in vectorized
        )
    parallel = [a["stats"] for a in verify_cells if a["stats"]["worker_states"]]
    if parallel:
        out["parallel.parent_cpu_s"] = parent_cpu / passes
        out["parallel.worker_cpu_s"] = worker_cpu / passes
        out["parallel.worker_peak_rss_mb"] = max(
            a["worker_peak_rss_kb"] for a in verify_cells
        ) / 1024
        out["parallel.steals"] = sum(stats["steal_count"] for stats in parallel)
        out["parallel.balance"] = min(
            min(stats["worker_states"]) / max(stats["worker_states"])
            for stats in parallel
        )
    return out


def traced_run(workloads, cells, expected, references, rng, passes, trace_out):
    """Reference passes without wrappers, then traced passes; the metrics."""
    import trace as layer_trace

    ref_walls, _, failures, _ = timed_passes(
        workloads, cells, expected, references, rng, passes
    )
    tracer = layer_trace.Tracer(extra_modules=(workloads,))
    children0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    parent0 = time.process_time()
    with tracer.installed():
        walls, _, traced_failures, observed = timed_passes(
            workloads, cells, expected, references, rng, passes, tracer=tracer
        )
    parent_cpu = time.process_time() - parent0
    children1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    worker_cpu = (children1.ru_utime + children1.ru_stime
                  - children0.ru_utime - children0.ru_stime)
    failures.extend(traced_failures)
    # None = no value: the probe's target is gone, or the layer never ran.
    metrics = dict.fromkeys(name for name, _unit, _better in layer_trace.METRICS)
    metrics.update(layer_trace.layer_metrics(tracer, passes))
    metrics.update(_engine_metrics(observed, parent_cpu, worker_cpu, passes))
    # vectorized.* and parallel.* only mean something where that backend ran.
    for prefix, anchor in (("vectorized.", "vectorized.collect_level.calls"),
                           ("parallel.", "parallel.spinup_s")):
        if not metrics[anchor]:
            for name in metrics:
                if name.startswith(prefix):
                    metrics[name] = None
    metrics["trace.layer_sum_share"] = (
        layer_trace.layer_self_seconds(tracer) / sum(walls)
    )
    metrics["trace.overhead_share"] = (
        statistics.median(walls) / statistics.median(ref_walls) - 1
    )
    if trace_out is not None:
        totals = tracer.layer_totals()
        os.makedirs(os.path.dirname(trace_out), exist_ok=True)
        with open(trace_out, "w") as handle:
            json.dump({
                "traced_passes": passes,
                "traced_pass_wall_s": walls,
                "untraced_pass_wall_s": ref_walls,
                "probes_missing": tracer.probes_missing,
                "metrics": metrics,
                "layers": {
                    layer: {"calls": row[0], "total_s": row[1], "self_s": row[2]}
                    for layer, row in sorted(totals.items())
                },
                "per_cell": [
                    {"cell": cell, "layer": layer, "calls": row[0],
                     "total_s": row[1], "self_s": row[2]}
                    for (cell, layer), row in tracer.table.items()
                ],
                "spans": tracer.spans,
            }, handle)
    return metrics, tracer.probes_missing, failures, 2 * passes


def _stop_resource_tracker() -> None:
    """End multiprocessing's resource tracker and wait for it.

    The parallel engine starts it and it stays until this process exits, by
    design; the benchmark must leave no process behind when it returns.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()  # a no-op when the tracker never started


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=REFERENCE_SECONDS)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    workloads, cells, expected, references = setup(args.workload)
    ready_at = time.perf_counter()
    # Fixed per workload, stated for 10 measured seconds and scaled by
    # --seconds; never adapted to the host's speed, because peak_rss_mb
    # depends on the pass count (verify pauses the GC while it searches).
    base = workloads.WORKLOADS[args.workload]["passes"]
    passes = max(1, round(base * args.seconds / REFERENCE_SECONDS))
    if args.mode == "trace":
        passes = max(1, passes // 4)
    report = {"workload": args.workload, "mode": args.mode, "seed": args.seed,
              "passes": passes, "ready_at": ready_at}
    if args.mode != "setup":
        rng = random.Random(args.seed)
        if args.mode == "measure":
            walls, cpus, failures, _ = timed_passes(
                workloads, cells, expected, references, rng, passes
            )
            report.update(pass_wall_s=walls, pass_cpu_s=cpus)
            passes_run = passes
        else:
            metrics, missing, failures, passes_run = traced_run(
                workloads, cells, expected, references, rng, passes,
                args.trace_out,
            )
            report.update(layer_metrics=metrics, probes_missing=missing)
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        workers = max((cell.processes or 0) for cell in cells)
        report.update(
            attempted=passes_run * len(cells),
            failed=len(failures),
            failures=failures[:MAX_FAILURES_REPORTED],
            self_rss_kb=own,
            largest_child_rss_kb=child,
            workers=workers,
            # ru_maxrss is KiB on Linux.  Under fork the workers share pages
            # with the parent, so the sum is an upper bound on resident memory.
            peak_rss_mb=(own + workers * child) / 1024,
        )
    _stop_resource_tracker()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
