"""Machine-readable benchmark reporting.

Benchmarks used to print their measured numbers into the pytest log, where
no tool could compare one run against the next.  :func:`record_run` builds
one JSON entry per verification run -- states explored, wall-clock, and
states/second, plus the run configuration -- and appends it to the file the
``BENCH_RESULTS_PATH`` environment variable names.  Without the variable
nothing is written: a test run must leave the work tree as it found it, and
``BENCH_results.json`` at the repository root is tracked.  The CI jobs that
upload that file as an artifact set the variable to it; reads (the
perf-smoke regression baseline) default to the committed file either way.

Kept out of ``conftest.py`` on purpose (same reason as
``tests/verification/verification_helpers.py``): test modules import this
helper by its unique module name, and ``conftest`` resolves ambiguously once
several test roots sit on ``sys.path``.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

#: The committed trajectory, ``<repo root>/BENCH_results.json``: what reads
#: default to.
DEFAULT_RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_results.json"


def record_path() -> Path | None:
    """Where :func:`record_run` appends: the file ``BENCH_RESULTS_PATH``
    names, or nowhere."""
    override = os.environ.get("BENCH_RESULTS_PATH")
    return Path(override) if override else None


def results_path() -> Path:
    """Where reads look: ``BENCH_RESULTS_PATH``, else the committed file."""
    return record_path() or DEFAULT_RESULTS_PATH


def load_results(path: Path | None = None) -> list[dict]:
    """The recorded entries (empty on a missing or unreadable file)."""
    target = path or results_path()
    try:
        data = json.loads(target.read_text())
    except (OSError, ValueError):
        return []
    return data if isinstance(data, list) else []


def record_run(
    bench_id: str,
    result,
    *,
    protocol: str,
    config: str,
    num_caches: int,
    accesses: int,
    symmetry: bool,
    processes: int | None = None,
    extra: dict | None = None,
) -> dict:
    """Build one :class:`VerificationResult` measurement, append it to
    :func:`record_path` when there is one, and return the entry.

    *extra* merges additional benchmark-specific fields into the entry (e.g.
    peak memory for the nightly full-space runs).  When the result carries
    the engine's measured ``stats`` (decode count, canonicalization vs
    expansion split), they are recorded under ``"stats"``.
    """
    elapsed = result.elapsed_seconds
    entry = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "bench_id": bench_id,
        "protocol": protocol,
        "config": config,
        "num_caches": num_caches,
        "accesses_per_cache": accesses,
        "symmetry": symmetry,
        "strategy": result.strategy,
        "kernel": getattr(result, "kernel", None),
        "processes": processes,
        "ok": result.ok,
        "partial": result.truncated,
        "states_explored": result.states_explored,
        "transitions_explored": result.transitions_explored,
        "elapsed_seconds": round(elapsed, 3),
        "states_per_second": round(result.states_explored / elapsed) if elapsed > 0 else None,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
    }
    stats = getattr(result, "stats", None)
    if stats:
        entry["stats"] = stats
    if extra:
        entry.update(extra)
    target = record_path()
    if target is not None:
        entries = load_results(target)
        entries.append(entry)
        target.write_text(json.dumps(entries, indent=2) + "\n")
    return entry


def baseline_states_per_second(
    bench_id: str,
    *,
    kernel: str | None = None,
    symmetry: bool | None = None,
    path: Path | None = None,
) -> float | None:
    """Median ``states_per_second`` of the recorded trajectory for *bench_id*.

    Used by the perf-smoke regression gate: the committed
    ``BENCH_results.json`` carries the per-PR trajectory, so a fresh run can
    be compared against the typical historical throughput of the same
    benchmark configuration.  Entries recorded on a host with the *current*
    CPU count are preferred when any exist — a CI runner then compares
    against its own class of machine once it has contributed entries, and
    only falls back to the cross-host median (with whatever slack the
    caller's ratio provides) before that.  Returns ``None`` when no prior
    entry matches at all.
    """
    matching = [
        entry
        for entry in load_results(path)
        if entry.get("bench_id") == bench_id
        and entry.get("states_per_second")
        and (kernel is None or entry.get("kernel") == kernel)
        and (symmetry is None or entry.get("symmetry") == symmetry)
    ]
    if not matching:
        return None
    same_host_class = [
        entry for entry in matching if entry.get("cpu_count") == os.cpu_count()
    ]
    pool = sorted(
        entry["states_per_second"] for entry in (same_host_class or matching)
    )
    return float(pool[len(pool) // 2])
