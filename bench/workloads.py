"""The benchmark's workloads: fixed lists of cells and how one cell runs.

A *cell* is one user-sized unit of work, built from fresh objects every
time (no ``System`` is reused, so codec/kernel/orbit memos start cold, as
they do in a user's run)::

    protocols.load -> generate(config) -> System(...) -> verify(...)
    protocols.load -> generate(config) -> compiled() -> emit_murphi(...)

and then compared with its pinned answer in ``bench/expected.json``.  A
*pass* runs every cell of a workload once.  Only names exported by the
package facades (``repro``, ``repro.core``, ``repro.dsl``,
``repro.protocols``, ``repro.system``, ``repro.verification``,
``repro.backends``) are used, so refactors behind them cannot break the
benchmark.
"""

from __future__ import annotations

import hashlib
import resource
from dataclasses import dataclass

from repro import protocols
from repro.backends import emit_murphi
from repro.core import GenerationConfig, generate
from repro.dsl import AccessKind
from repro.system import FaultModel, System, Workload
from repro.verification import (
    LITMUS_TESTS,
    default_invariants,
    single_owner_invariant,
    verify,
)

POLICIES = ("stalling", "nonstalling")


@dataclass(frozen=True)
class Cell:
    """One SSP -> verdict (or SSP -> Murphi) unit of work."""

    id: str
    protocol: str
    policy: str
    kind: str = "verify"  # "verify" | "emit"
    harden: bool = True
    caches: int = 2
    accesses: int = 2
    addresses: int = 1
    #: None, "duplicate", "reorder", or "reorder-strict" (``requeue=False``).
    faults: str | None = None
    litmus: str | None = None
    symmetry: bool = False
    kernel: str = "compiled"
    strategy: str = "bfs"
    processes: int | None = None


def _config(cell: Cell) -> GenerationConfig:
    make = (
        GenerationConfig.stalling
        if cell.policy == "stalling"
        else GenerationConfig.nonstalling
    )
    # harden=True is the default; passing it only when off keeps the call
    # identical to what the tier-1 tests pin.
    return make() if cell.harden else make(harden=False)


def _workload(cell: Cell) -> Workload:
    if cell.protocol == "MSI-Unordered":
        # The unordered variant has no eviction path by design.
        return Workload(
            max_accesses_per_cache=cell.accesses,
            access_kinds=(AccessKind.LOAD, AccessKind.STORE),
        )
    return Workload(max_accesses_per_cache=cell.accesses)


def _faults(cell: Cell) -> FaultModel | None:
    if cell.faults is None:
        return None
    if cell.faults == "duplicate":
        return FaultModel(duplicate=True)
    if cell.faults == "reorder":
        return FaultModel(reorder=True)
    if cell.faults == "reorder-strict":
        return FaultModel(reorder=True, requeue=False)
    raise ValueError(f"unknown fault axis {cell.faults!r}")


def _invariants(cell: Cell, litmus_test):
    # TSO-CC intentionally breaks SWMR in physical time (stale untracked
    # readers); like the tier-1 suite, check single ownership instead.
    plain = (
        (single_owner_invariant,)
        if cell.protocol == "TSO-CC"
        else tuple(default_invariants())
    )
    if litmus_test is not None:
        return plain + (litmus_test.invariant,)
    return plain


def _litmus(name: str):
    for build in LITMUS_TESTS:
        test = build()
        if test.name == name:
            return test
    raise ValueError(f"unknown litmus test {name!r}")


def run_cell(cell: Cell) -> dict:
    """Run *cell* from fresh objects; return the observed answer."""
    generated = generate(protocols.load(cell.protocol), _config(cell))
    if cell.kind == "emit":
        generated.compiled()
        text = emit_murphi(generated, num_caches=cell.caches)
        return {
            "cache_states": generated.cache.num_states,
            "cache_transitions": generated.cache.num_transitions,
            "directory_states": generated.directory.num_states,
            "directory_transitions": generated.directory.num_transitions,
            "murphi": text,
            "murphi_bytes": len(text.encode()),
            "murphi_sha256": hashlib.sha256(text.encode()).hexdigest(),
        }
    litmus_test = _litmus(cell.litmus) if cell.litmus else None
    system = System(
        generated,
        num_caches=cell.caches,
        workload=litmus_test.workload if litmus_test else _workload(cell),
        num_addresses=None if cell.addresses == 1 else cell.addresses,
        faults=_faults(cell),
    )
    children_before = resource.getrusage(resource.RUSAGE_CHILDREN)
    result = verify(
        system,
        invariants=_invariants(cell, litmus_test),
        symmetry=cell.symmetry,
        kernel=cell.kernel,
        strategy=cell.strategy,
        processes=cell.processes,
    )
    children_after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if result.ok:
        failure = None
    elif result.deadlock:
        failure = "deadlock"
    elif result.error is not None:
        failure = "error"
    else:
        failure = "violation"
    stats = result.stats
    return {
        "ok": result.ok,
        "states": result.states_explored,
        "transitions": result.transitions_explored,
        "partial": result.partial,
        "failure": failure,
        "error": result.error,
        "trace_len": len(result.trace),
        "kernel": result.kernel,
        "strategy": result.strategy,
        # Informational (not pinned): engine-reported telemetry the traced
        # run turns into per-layer metrics.
        "stats": {
            key: stats.get(key)
            for key in (
                "decode_count",
                "expansion_batches",
                "mean_batch_width",
                "fallback_transitions",
                "steal_count",
                "worker_states",
            )
        },
        "worker_cpu_s": (
            children_after.ru_utime + children_after.ru_stime
            - children_before.ru_utime - children_before.ru_stime
        ),
        "worker_peak_rss_kb": children_after.ru_maxrss if cell.processes else 0,
    }


def check_cell(observed: dict, expect: dict, murphi_reference: str | None) -> list[str]:
    """Mismatches between an observed answer and its pin (empty = correct)."""
    problems = []
    for key, want in expect.items():
        if key == "error_contains":
            if want not in (observed.get("error") or ""):
                problems.append(f"error {observed.get('error')!r} lacks {want!r}")
        elif key == "murphi_file":
            if observed.get("murphi") != murphi_reference:
                problems.append(f"Murphi text differs from {want}")
        elif observed.get(key) != want:
            problems.append(f"{key}: got {observed.get(key)!r}, pinned {want!r}")
    return problems


# -- the workloads ---------------------------------------------------------------


def _matrix_2c() -> list[Cell]:
    names = protocols.available_protocols()
    cells = []
    for name in names:
        for policy in POLICIES:
            key = f"{name}/{policy}"
            cells.append(Cell(f"plain/{key}", name, policy, accesses=2))
            cells.append(Cell(f"dup/{key}", name, policy, accesses=1,
                              faults="duplicate"))
            if name != "MSI-Unordered":
                # An unordered network already admits every delivery order.
                cells.append(Cell(f"reorder/{key}", name, policy, accesses=2,
                                  faults="reorder"))
            cells.append(Cell(f"two-addr/{key}", name, policy, accesses=1,
                              addresses=2))
            for build in LITMUS_TESTS:
                litmus = build().name
                cells.append(Cell(f"{litmus}/{key}", name, policy, litmus=litmus))
    for policy in POLICIES:
        cells.append(Cell(f"bare-dup/MSI/{policy}", "MSI", policy, harden=False,
                          accesses=1, faults="duplicate"))
        cells.append(Cell(f"bare-reorder-strict/MSI/{policy}", "MSI", policy,
                          harden=False, accesses=2, faults="reorder-strict"))
    return cells


def _generate_family() -> list[Cell]:
    return [
        Cell(f"emit/{name}/{policy}", name, policy, kind="emit", caches=3)
        for name in protocols.available_protocols()
        for policy in POLICIES
    ]


_MSI_3C = dict(protocol="MSI", policy="stalling", caches=3, accesses=2)

#: name -> (why, cells, passes per 10 measured seconds, backends to warm).
#: Pass counts are fixed (the same on every commit) because ``peak_rss_mb``
#: depends on them: ``verify`` pauses the GC while it searches.
WORKLOADS: dict[str, dict] = {
    "reduced-3c": dict(
        why="MSI stalling 3c x 2a with symmetry: canonicalization is ~25% of "
            "the search; the symmetry pipeline's home workload",
        cells=[Cell("reduced/MSI/stalling/3c2a", symmetry=True, **_MSI_3C)],
        passes=7,
    ),
    "unordered-reduced-3c": dict(
        why="MSI-Unordered nonstalling 3c x 2a with symmetry: unordered keys, "
            "nonstalling tables, canonicalization ~45%; guards the unordered path",
        cells=[Cell("reduced/MSI-Unordered/nonstalling/3c2a", "MSI-Unordered",
                    "nonstalling", caches=3, accesses=2, symmetry=True)],
        passes=2,
    ),
    "full-3c": dict(
        why="same MSI space without symmetry (174189 states): canonicalization "
            "bypassed; expansion, pack, intern and memory dominate",
        cells=[Cell("full/MSI/stalling/3c2a", **_MSI_3C)],
        passes=2,
    ),
    "full-3c-vec": dict(
        why="same space on kernel=vectorized: the only workload where "
            "system.vectorized does the work",
        cells=[Cell("full-vec/MSI/stalling/3c2a", kernel="vectorized", **_MSI_3C)],
        passes=4,
    ),
    "full-3c-par2": dict(
        why="same space on strategy=parallel with 2 workers: the only workload "
            "that reaches ShmEngine/shard; wall, CPU and RSS of going parallel",
        cells=[Cell("full-par2/MSI/stalling/3c2a", strategy="parallel",
                    processes=2, **_MSI_3C)],
        passes=2,
    ),
    "matrix-2c": dict(
        why="82 PASS + 4 expected-FAIL small 2-cache cells (faults, planes, "
            "litmus): generate + compile + codec/kernel build are ~1/3 of a pass",
        cells=_matrix_2c(),
        passes=2,
    ),
    "generate-family": dict(
        why="6 protocols x 2 policies generate -> compile -> Murphi: core/ is all "
            "of the time and the checker none",
        cells=_generate_family(),
        passes=150,
    ),
    # Internal 2c x 1a workload for bench/test_bench.py; not in BENCHMARK.json.
    "smoke": dict(
        why="internal: 2c x 1a MSI on every backend, for the harness's own tests",
        cells=[
            Cell("smoke/compiled", "MSI", "stalling", accesses=1),
            Cell("smoke/reduced", "MSI", "stalling", accesses=1, symmetry=True),
            Cell("smoke/vectorized", "MSI", "stalling", accesses=1,
                 kernel="vectorized"),
            Cell("smoke/emit", "MSI", "nonstalling", kind="emit", caches=3),
        ],
        passes=3,
    ),
}

#: The workloads BENCHMARK.json names, in reporting order.
PUBLIC_WORKLOADS = [name for name in WORKLOADS if name != "smoke"]
