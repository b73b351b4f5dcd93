#!/usr/bin/env python
"""Perf-smoke runner: one budgeted verification, recorded to $BENCH_RESULTS_PATH.

Used by the CI perf-smoke job (and handy locally) to keep a machine-readable
perf trajectory without running a full benchmark suite (the entry is
appended to the file ``BENCH_RESULTS_PATH`` names -- CI sets it to the
committed ``BENCH_results.json`` -- and only printed when it is unset)::

    PYTHONPATH=src python benchmarks/perf_smoke.py \
        --protocol MSI --config stalling --caches 3 --accesses 2 \
        --symmetry on --max-states 20000 --fail-on-regression 0.5

The ``--max-states`` budget exercises ``verify()``'s clean partial-result
abort: the run stops at the budget, reports the explored prefix, and still
records states/second.  ``--checkpoint PATH`` makes the budgeted run
resumable (a later invocation with the same configuration continues it),
``--workers N`` sizes the parallel engine's fleet and ``--spill-dir DIR``
lets its worker shards spill cold visited-set partitions to disk; worker
telemetry (states per worker, rounds, cross-shard share, spill bytes,
resume level) rides in the recorded ``stats``.  ``--symmetry {on,off}``
sweeps the reduction axis (bare ``--symmetry`` keeps meaning ``on``), the
measured
``result.stats`` split (canonicalization vs expansion, decode count) is
printed and recorded with every entry, and ``--fail-on-regression RATIO``
gates the run's throughput against the committed trajectory median for the
same bench id / kernel / symmetry combination.  Exit status is non-zero
only when the search finds a real violation/error or a gate fails -- a
partial PASS is a successful smoke run.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_reporting import baseline_states_per_second, record_path, record_run

from repro import protocols
from repro.core import GenerationConfig, generate
from repro.system import FaultModel, System, Workload
from repro.verification import verify


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--protocol", default="MSI",
                        choices=protocols.available_protocols())
    parser.add_argument("--config", default="stalling",
                        choices=["stalling", "nonstalling"])
    parser.add_argument("--caches", type=int, default=3)
    parser.add_argument("--accesses", type=int, default=2)
    parser.add_argument("--symmetry", nargs="?", const="on", default="off",
                        choices=["on", "off"],
                        help="symmetry axis: 'on' runs the cache-ID-reduced "
                             "search, 'off' the full one (bare --symmetry "
                             "means 'on', preserving the old flag form)")
    parser.add_argument("--strategy", default="bfs",
                        choices=["bfs", "dfs", "parallel"])
    parser.add_argument("--processes", "--workers", dest="processes",
                        type=int, default=None,
                        help="worker count for the parallel strategy "
                             "(--workers is an alias)")
    parser.add_argument("--checkpoint", default=None, metavar="PATH",
                        help="resumable budget checkpoint: a run that stops "
                             "at --max-states saves its frontier here and a "
                             "later run with the same configuration resumes "
                             "it (the completed run deletes the file)")
    parser.add_argument("--spill-dir", default=None, metavar="DIR",
                        help="directory where the parallel engine's worker "
                             "shards may spill cold visited-set partitions "
                             "to disk (bounds resident memory)")
    parser.add_argument("--max-states", type=int, default=2_000_000,
                        help="state budget; the search aborts cleanly and "
                             "reports a partial result once reached")
    parser.add_argument("--kernel", default="compiled",
                        choices=["compiled", "vectorized", "object"],
                        help="transition backend: the compiled encoded-state "
                             "kernel (default), the batch-vectorized NumPy "
                             "frontier kernel, or the object executor")
    parser.add_argument("--faults", default="off",
                        choices=["off", "duplicate", "reorder", "both"],
                        help="fault-injection axes: message duplication, "
                             "bounded adjacent reordering (ordered networks), "
                             "or both")
    parser.add_argument("--fault-budget", type=int, default=1,
                        help="total injected faults allowed per execution")
    parser.add_argument("--addresses", type=int, default=1,
                        help="independent address planes the workload "
                             "interleaves (symmetry must be off for >1)")
    parser.add_argument("--harden", default="on", choices=["on", "off"],
                        help="generation-level fault hardening: 'on' (the "
                             "default) builds duplication-idempotent "
                             "protocols, 'off' reproduces the pre-hardening "
                             "builds for bug-finding smokes")
    parser.add_argument("--expect", default="pass", choices=["pass", "fail"],
                        help="expected verdict: 'fail' flips the exit logic "
                             "for bug-finding smokes (the un-hardened "
                             "protocols demonstrably break under "
                             "duplication), skipping the throughput gates")
    parser.add_argument("--compare-kernels", action="store_true",
                        help="run the same search per kernel (object, "
                             "compiled, vectorized), --repeats times each, "
                             "record the best run of each backend, and fail "
                             "unless each faster backend actually beats the "
                             "one below it (compiled >= object, vectorized "
                             ">= compiled)")
    parser.add_argument("--repeats", type=int, default=3, metavar="N",
                        help="measurement repeats per backend under "
                             "--compare-kernels (default 3); the gates and "
                             "the recorded entry use the best run of each "
                             "backend, so a one-off scheduler hiccup cannot "
                             "flip an ordering gate")
    parser.add_argument("--fail-on-regression", type=float, default=None,
                        metavar="RATIO",
                        help="fail when this run's states/second drops below "
                             "RATIO x the median of the recorded trajectory "
                             "for the same bench id, kernel and symmetry "
                             "axis (the appended BENCH_results.json baseline)")
    parser.add_argument("--bench-id", default="perf-smoke")
    args = parser.parse_args(argv)
    symmetry = args.symmetry == "on"

    harden = args.harden == "on"
    config = (
        GenerationConfig.stalling(harden=harden)
        if args.config == "stalling"
        else GenerationConfig.nonstalling(harden=harden)
    )
    generated = generate(protocols.load(args.protocol), config)
    faults = None
    if args.faults != "off":
        faults = FaultModel(
            duplicate=args.faults in ("duplicate", "both"),
            reorder=args.faults in ("reorder", "both"),
            budget=args.fault_budget,
        )
    system = System(generated, num_caches=args.caches,
                    workload=Workload(max_accesses_per_cache=args.accesses),
                    num_addresses=args.addresses if args.addresses > 1 else None,
                    faults=faults)

    def run(kernel: str, repeats: int = 1):
        bench_id = args.bench_id + (f"-{kernel}" if args.compare_kernels else "")
        # Baseline before recording, so the current run cannot skew its own
        # reference trajectory.
        baseline = baseline_states_per_second(
            bench_id, kernel=kernel, symmetry=symmetry
        )
        # A checkpoint makes consecutive runs *continue* each other, which
        # would wreck repeated measurement -- comparison mode ignores it.
        checkpoint = None if repeats > 1 else args.checkpoint
        best = None
        throughputs = []
        for _ in range(repeats):
            result = verify(
                system,
                symmetry=symmetry,
                strategy=args.strategy,
                processes=args.processes,
                max_states=args.max_states,
                kernel=kernel,
                checkpoint=checkpoint,
                spill_dir=args.spill_dir,
            )
            rate = (result.states_explored / result.elapsed_seconds
                    if result.elapsed_seconds > 0 else 0.0)
            throughputs.append(rate)
            if best is None or rate > best[1]:
                best = (result, rate)
        result = best[0]
        entry = record_run(
            bench_id, result,
            protocol=args.protocol, config=args.config,
            num_caches=args.caches, accesses=args.accesses,
            symmetry=symmetry, processes=args.processes,
            extra={
                "faults": args.faults,
                "fault_budget": args.fault_budget if faults else None,
                "addresses": args.addresses,
                "harden": harden,
                "checkpoint": bool(args.checkpoint),
                "spill_dir": bool(args.spill_dir),
                "repeats": repeats,
            },
        )
        stats = result.stats
        print(f"{args.protocol}/{args.config} {args.caches}c x {args.accesses}a "
              f"(symmetry={symmetry}, strategy={result.strategy}, "
              f"kernel={result.kernel}): {result.summary}")
        expansion = stats.get("expansion_seconds")
        print(f"  time split: canonicalization "
              f"{stats.get('canonicalization_seconds', 0.0):.3f}s"
              f"{' (worker CPU sum)' if expansion is None else ''}, expansion "
              f"{'n/a' if expansion is None else f'{expansion:.3f}s'}; decodes: "
              f"{stats.get('decode_count')}")
        if "worker_states" in stats:
            print(f"  workers: states/worker {stats['worker_states']}, "
                  f"{stats['round_count']} rounds, cross-shard share "
                  f"{stats['cross_shard_share']:.3f}, spilled "
                  f"{stats['spill_bytes']} bytes")
        if stats.get("resume_level") is not None:
            print(f"  resumed from checkpoint at level {stats['resume_level']}")
        if repeats > 1:
            rates = ", ".join(f"{r:.0f}" for r in sorted(throughputs))
            print(f"  best of {repeats} runs ({rates} states/s)")
        print(f"measured {entry['states_per_second']} states/s -> "
              f"{record_path() or 'not recorded (BENCH_RESULTS_PATH unset)'}")
        return result, entry, baseline

    def regressed(entry, baseline) -> bool:
        """Apply the --fail-on-regression gate to one recorded run."""
        if args.fail_on_regression is None:
            return False
        if baseline is None:
            print("no trajectory baseline for this configuration yet; "
                  "regression gate skipped")
            return False
        floor = args.fail_on_regression * baseline
        throughput = entry["states_per_second"] or 0
        print(f"throughput gate: {throughput} states/s vs floor "
              f"{floor:.0f} ({args.fail_on_regression} x median "
              f"{baseline:.0f})")
        if throughput < floor:
            print("FAIL: reduced-search throughput regressed versus the "
                  "recorded trajectory baseline")
            return True
        return False

    if not args.compare_kernels:
        result, entry, baseline = run(args.kernel)
        if args.expect == "fail":
            # Bug-finding smoke: the run succeeds when the search finds the
            # documented fault-induced failure (throughput gates don't apply
            # to a search that stops at its counterexample).
            if result.ok:
                print("FAIL: expected the fault-injected search to find the "
                      "documented failure, but it passed")
                return 1
            print("expected fault-induced failure found")
            return 0
        if not result.ok:
            return 1
        return 1 if regressed(entry, baseline) else 0

    repeats = max(1, args.repeats)
    object_result, object_entry, _ = run("object", repeats)
    compiled_result, compiled_entry, compiled_baseline = run("compiled", repeats)
    vectorized_result, vectorized_entry, _ = run("vectorized", repeats)
    if not (object_result.ok and compiled_result.ok and vectorized_result.ok):
        return 1
    for requested, result in (("compiled", compiled_result),
                              ("vectorized", vectorized_result)):
        if result.kernel != requested:
            # A silent fallback would turn the throughput gates below into
            # comparisons of identical backends.
            print(f"FAIL: the {requested} kernel fell back to the "
                  f"{result.kernel} backend on this configuration; the "
                  "comparison is meaningless")
            return 1
    counts = {r.states_explored
              for r in (object_result, compiled_result, vectorized_result)}
    if len(counts) != 1:
        print("FAIL: kernels disagree on the explored state count "
              f"({object_result.states_explored} object vs "
              f"{compiled_result.states_explored} compiled vs "
              f"{vectorized_result.states_explored} vectorized)")
        return 1
    speedup = (compiled_entry["states_per_second"]
               / max(1, object_entry["states_per_second"]))
    print(f"compiled/object throughput: {speedup:.2f}x")
    batch_speedup = (vectorized_entry["states_per_second"]
                     / max(1, compiled_entry["states_per_second"]))
    print(f"vectorized/compiled throughput: {batch_speedup:.2f}x")
    if compiled_entry["states_per_second"] < object_entry["states_per_second"]:
        print("FAIL: the compiled kernel must not be slower than the "
              "object executor")
        return 1
    if (vectorized_entry["states_per_second"]
            < compiled_entry["states_per_second"]):
        print("FAIL: the vectorized kernel must not be slower than the "
              "compiled kernel")
        return 1
    return 1 if regressed(compiled_entry, compiled_baseline) else 0


if __name__ == "__main__":
    raise SystemExit(main())
