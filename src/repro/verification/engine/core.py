"""The :func:`verify` facade and its shared exploration context.

The engine composes three orthogonal pieces:

* **symmetry reduction** (:mod:`repro.verification.engine.canonical`) --
  cache-ID canonicalization before de-duplication, mirroring Murphi
  scalarsets; off unless ``verify(system, symmetry=True)`` asks for it;
* **an interned state store** (:mod:`repro.verification.engine.store`) --
  dense integer IDs and typed parent-link columns; the only dedup a
  successor meets in this process, and an exact one: whole packed keys, or
  on the batch search whole rows of an open-addressed row table;
* **one search driver** (:mod:`repro.verification.engine.driver`) over
  the expander :func:`~repro.verification.engine.search.search` picks for
  the ``strategy`` string -- breadth-first (default), depth-first, or
  breadth-first on a fleet of forked worker processes.

Counterexample traces remain valid under symmetry reduction: every stored
transition records the permutation that canonicalized its successor, and
:meth:`Exploration.trace_events` relabels each event back through the
inverse of the accumulated permutation chain, so the reported event sequence
steps through the compiled kernel from the real initial state
(:meth:`StateCodec.root <repro.system.codec.StateCodec.root>`), and
:meth:`Exploration._concretized` does exactly that to restate the failure in
the trace's frame.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Sequence

from repro.system.system import System, SystemEvent
from repro.verification.engine.canonical import (
    Permutation,
    canonicalizer_for,
    compose,
    invert,
)
from repro.verification.engine.driver import first_violation, violations
from repro.verification.engine.store import StateStore
from repro.verification.invariants import (
    Invariant,
    InvariantViolation,
    compiled_invariant_codes,
    default_invariants,
)


@dataclass
class VerificationResult:
    """Outcome of an exhaustive exploration."""

    ok: bool
    states_explored: int
    transitions_explored: int
    elapsed_seconds: float
    violation: InvariantViolation | None = None
    error: str | None = None
    deadlock: bool = False
    truncated: bool = False
    trace: list[str] = field(default_factory=list)
    complete_states: int = 0
    #: The counterexample as replayable events (``trace`` is their ``str`` form).
    trace_events: list[SystemEvent] = field(default_factory=list)
    #: Whether cache-ID symmetry reduction was applied during the search.
    symmetry_reduced: bool = False
    #: Name of the search strategy that produced this result.
    strategy: str = "bfs"
    #: Which transition backend expanded states: "compiled" (the generated
    #: per-transition functions over encoded states, one state at a time) or
    #: "vectorized" (the same tables over whole BFS levels as NumPy
    #: matrices of IDs).
    kernel: str = "compiled"
    #: Measured search breakdown, so bottleneck claims come from numbers
    #: instead of inference: ``kernel`` / ``strategy`` (the backends that
    #: ran), ``decode_count`` (``GlobalState`` decodes across the search,
    #: worker processes included -- 0 for a passing compiled-kernel search,
    #: reduced or not), ``lane_bytes`` (1/2/4: the width the codec derived
    #: for every lane of a packed key), ``parse_memo_entries`` (distinct
    #: packed network sections in the codec's parse memo in this process at
    #: search end -- on ``kernel="vectorized"`` the boundary parses only:
    #: the sections of keys handed to the batch kernel, 1 on a fresh full
    #: search, the root's; the sections it creates are never packed or
    #: parsed), ``access_memo_entries`` / ``access_memo_misses`` and
    #: ``delivery_memo_entries`` / ``delivery_memo_misses`` (the compiled
    #: kernel's two per-key memos in this process: what they hold at search
    #: end and how often the generated functions ran on a miss -- the
    #: vectorized kernel fills them on fallback levels only, the fleet in
    #: its workers), ``visited_bytes`` (bytes of the visited set, so bytes
    #: per state is a reported count: the batch path's row table is its
    #: rows in use plus the slot table, a key dict its table plus a
    #: ``bytes`` header and the bytes of each key; ``None`` where it lives
    #: in the workers' in-memory digest sets, one per worker),
    #: ``orbit_memo_entries`` / ``block_table_entries`` (sizes of the
    #: symmetry pipeline's caches, likewise) and ``orbit_classifications``
    #: (regions classified, i.e. region-memo misses, over the cached
    #: canonicalizer's life; all
    #: ``None`` with symmetry off), ``omission_bound`` (what a digest can
    #: miss: the parallel strategy's fleet decides membership by 128-bit
    #: digest, so two distinct states sharing one would make it silently
    #: skip one, and for the ``n`` states stored that happens with
    #: probability at most ``n(n-1)/2 / 2**128``; ``None`` on every other
    #: search, where keys or rows are compared whole),
    #: ``canonicalization_seconds`` (CPU
    #: seconds inside symmetry canonicalization; summed across workers for
    #: the parallel strategy) and ``expansion_seconds`` (everything else:
    #: successor generation, interning, invariant checks).  For
    #: multi-process searches the worker CPU sum is not comparable against
    #: the parent's wall-clock, so ``expansion_seconds`` is ``None`` there
    #: instead of a bogus subtraction.  ``round_count`` (rounds the worker
    #: fleet ran) and ``cross_shard_share`` (candidates serialised to
    #: another owner / transitions) are ``None`` unless the strategy is
    #: ``parallel``; ``worker_states`` / ``steal_count`` (always 0) appear
    #: only when it is.  ``kernel="vectorized"`` adds the
    #: sizes of the batch kernel's tables: ``section_entries`` /
    #: ``cell_entries`` / ``record_entries`` (hash-consed network sections,
    #: and the distinct channel contents and message records they are made
    #: of), ``cache_block_entries`` / ``dir_block_entries`` (the hash-consed
    #: controller blocks a state row is made of; one table serves every
    #: cache), ``tail_memo_entries``, ``outcome_entries`` (distinct
    #: ``(event, send list)`` pairs -- what a transition says and sends,
    #: whatever it does to the state) and ``plan_entries`` (distinct
    #: ``(outcome, receiver column, new block, new version | unchanged)``:
    #: what it does to a row).
    stats: dict = field(default_factory=dict)

    @property
    def partial(self) -> bool:
        """True when the search stopped at the ``max_states`` budget.

        A partial PASS means *no violation was found within the budget*, not
        that the protocol is verified: only the explored prefix of the state
        space is covered.  Callers that need full coverage should check
        this flag (or ``truncated``, its storage field) before trusting
        ``ok``.
        """
        return self.truncated

    @property
    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        extra = ""
        if self.violation is not None:
            extra = f" [{self.violation}]"
        elif self.error is not None:
            extra = f" [{self.error}]"
        elif self.deadlock:
            extra = " [deadlock]"
        if self.truncated:
            extra += " (partial: state budget exhausted)"
        return (
            f"{status}: {self.states_explored} states, "
            f"{self.transitions_explored} transitions, "
            f"{self.elapsed_seconds:.2f}s{extra}"
        )


class Exploration:
    """Mutable context shared between :func:`verify`, the search and its
    expander.

    Holds the system under test, the invariants, the (optional) symmetry
    permutation group, the interned state store, and the running counters;
    provides the result constructors and the permutation-aware trace
    reconstruction so every strategy reports identically-shaped results.
    """

    def __init__(
        self,
        *,
        system: System,
        invariants: tuple[Invariant, ...],
        perms: tuple[Permutation, ...] | None,
        store: StateStore,
        max_states: int,
        strategy_name: str,
        kernel,
        kernel_codes: tuple[str | tuple, ...],
        vkernel=None,
        checkpoint_path: str | None = None,
    ):
        self.system = system
        self.codec = system.codec()
        self.invariants = invariants
        self.perms = perms
        self.store = store
        self.max_states = max_states
        self.strategy_name = strategy_name
        #: Compiled :class:`~repro.system.kernel.TransitionKernel`: every
        #: search expands states on it.
        self.kernel = kernel
        #: Encoded evaluator codes for ``invariants``
        #: (:func:`~repro.verification.invariants.compiled_invariant_codes`).
        self.kernel_codes = kernel_codes
        #: :class:`~repro.system.vectorized.VectorizedKernel` for the
        #: frontier-batch BFS, or None.  The compiled kernel stays on as the
        #: memo-miss oracle and the fallback.
        self.vkernel = vkernel
        #: Set by the expander that actually ran ("vectorized"); None means
        #: the compiled kernel ran.
        self.kernel_name: str | None = None
        #: Batch telemetry (vectorized searches): levels expanded as one
        #: batch, total rows across those batches, and the split of applied
        #: transitions between the batch path and the per-state fallback.
        self.expansion_batches = 0
        self.batch_rows = 0
        self.vectorized_transitions = 0
        self.fallback_transitions = 0
        self.start = time.perf_counter()
        self.explored = 0
        self.transitions = 0
        self.complete_states = 0
        self.truncated = False
        #: Wall-clock spent inside canonicalization (strategies accumulate;
        #: workers report their share per batch).
        self.canon_seconds = 0.0
        #: ``GlobalState`` decodes reported back by worker processes (their
        #: codecs are private copies, so the parent counter cannot see them).
        self.worker_decodes = 0
        #: Worker-process count of a multi-process search, 0 when the
        #: search ran in this process (drives the stats time-split shape).
        self.parallel_workers = 0
        #: Where to save (and look for) a resumable budget checkpoint; None
        #: disables checkpointing entirely.
        self.checkpoint_path = checkpoint_path
        #: Loaded checkpoint payload, less the store snapshot (set by
        #: ``checkpoint.load``); the search picks its frontier up from here
        #: instead of the root.
        self.resume: dict | None = None
        #: Depth the loaded checkpoint stopped at -- BFS levels, or DFS pops
        #: (None = fresh run).
        self.resume_level: int | None = None
        #: Worker-fleet telemetry: rounds run, candidates serialised to
        #: another owner and states expanded per worker.  ``steal_count``
        #: is always 0 (nothing is stolen under the hash partition); it
        #: stays until ``bench/worker.py`` stops summing it.
        self.round_count = 0
        self.cross_shard_candidates = 0
        self.steal_count = 0
        self.worker_states: list[int] | None = None
        # Decode baseline: the codec is cached per system, so its counter
        # carries history from earlier searches; stats report the delta.
        self._decode_base = self.codec.decode_count
        #: Store ID and packed encoding of the (canonical) root: the
        #: frontier every fresh search starts from.
        self.root_id: int | None = None
        self.root_key: bytes | None = None

    # -- setup -----------------------------------------------------------------
    def seed(self) -> VerificationResult | None:
        """Intern the (canonicalized) root key, :meth:`StateCodec.root
        <repro.system.codec.StateCodec.root>`, and check it.

        Returns a failure result if an invariant is already violated in the
        initial state, ``None`` otherwise: the root is checked on its key's
        lanes through :func:`first_violation`, like every other state.
        """
        codec = self.codec
        key = codec.root()
        root_perm: Permutation | None = None
        if self.perms is not None:
            key, root_perm = canonicalizer_for(codec, self.perms).canonicalize(key)
        self.root_key = key
        self.root_id, _ = self.store.intern(key, perm=root_perm)
        violation = first_violation(
            self.system, self.invariants, self.kernel_codes, codec.unpack(key)
        )
        if violation is not None:
            return self.failure(violation=violation, leaf_id=self.root_id)
        return None

    # -- trace reconstruction ----------------------------------------------------
    def trace_events(
        self, leaf_id: int, final_event: tuple | None = None
    ) -> list[tuple]:
        """The root-to-leaf event encodings in the *concrete* frame, then
        *final_event* (an encoding too) when given.

        The store records events in the frame of each canonical parent.  Let
        ``sigma_i`` be the accumulated permutation mapping the concrete run
        to the canonical representatives (``sigma_0`` is the root's
        canonicalizing permutation).  The concrete event at step ``i+1`` is
        the stored event relabeled through ``sigma_i`` **inverse**, and
        ``sigma_{i+1} = perm_{i+1} . sigma_i`` where ``perm_{i+1}`` is the
        permutation that canonicalized the raw successor.  The resulting
        sequence steps through the kernel from the root key;
        :meth:`failure` decodes each encoding once, for the report.
        """
        links = self.store.chain(leaf_id)
        if final_event is not None:
            links.append((final_event, None))
        # links[0] belongs to the root: no event, just its canonicalizing perm.
        sigma = links[0][1]
        relabel = self.codec.relabeled_event
        events: list[tuple] = []
        for eev, perm in links[1:]:
            events.append(eev if sigma is None else relabel(eev, invert(sigma)))
            if perm is not None:
                sigma = perm if sigma is None else compose(perm, sigma)
        return events

    # -- result constructors -----------------------------------------------------
    def _result(self, ok: bool, **kwargs) -> VerificationResult:
        elapsed = time.perf_counter() - self.start
        kernel = self.kernel_name or "compiled"
        stats = {
            "kernel": kernel,
            "strategy": self.strategy_name,
            "decode_count": (
                self.codec.decode_count - self._decode_base + self.worker_decodes
            ),
            "canonicalization_seconds": round(self.canon_seconds, 6),
            # Worker canonicalization time is CPU summed across processes;
            # subtracting it from this process's wall-clock would fabricate
            # a split, so multi-process searches report no expansion figure.
            "expansion_seconds": (
                None
                if self.parallel_workers
                else round(max(0.0, elapsed - self.canon_seconds), 6)
            ),
        }
        stats["resume_level"] = self.resume_level
        stats["lane_bytes"] = self.codec.lane_bytes
        stats["parse_memo_entries"] = self.codec.parse_memo_entries
        stats.update(self.kernel.memo_stats())
        stats["visited_bytes"] = self.store.visited_bytes
        fleet = self.worker_states is not None
        stored = len(self.store)
        stats["omission_bound"] = (
            stored * (stored - 1) // 2 / 2**128 if fleet else None
        )
        reduced = self.perms is not None
        canonicalizer = canonicalizer_for(self.codec, self.perms) if reduced else None
        stats["orbit_memo_entries"] = canonicalizer.memo_entries if reduced else None
        stats["orbit_classifications"] = (
            canonicalizer.classifications if reduced else None
        )
        stats["block_table_entries"] = canonicalizer.block_entries if reduced else None
        stats["round_count"] = self.round_count if fleet else None
        stats["cross_shard_share"] = (
            round(self.cross_shard_candidates / max(1, self.transitions), 6)
            if fleet
            else None
        )
        if fleet:
            stats["steal_count"] = self.steal_count
            stats["worker_states"] = list(self.worker_states)
        if kernel == "vectorized":
            stats["expansion_batches"] = self.expansion_batches
            stats["mean_batch_width"] = (
                round(self.batch_rows / self.expansion_batches, 3)
                if self.expansion_batches
                else 0.0
            )
            stats["vectorized_transitions"] = self.vectorized_transitions
            stats["fallback_transitions"] = self.fallback_transitions
            stats["section_entries"] = self.vkernel.section_entries
            stats["tail_memo_entries"] = self.vkernel.tail_memo_entries
            stats["outcome_entries"] = self.vkernel.outcome_entries
            stats["cell_entries"] = self.vkernel.cell_entries
            stats["record_entries"] = self.vkernel.record_entries
            stats["cache_block_entries"] = self.vkernel.cache_block_entries
            stats["dir_block_entries"] = self.vkernel.dir_block_entries
            stats["plan_entries"] = self.vkernel.plan_entries
        return VerificationResult(
            ok=ok,
            states_explored=self.explored,
            transitions_explored=self.transitions,
            elapsed_seconds=elapsed,
            complete_states=self.complete_states,
            symmetry_reduced=self.perms is not None,
            strategy=self.strategy_name,
            kernel=kernel,
            stats=stats,
            **kwargs,
        )

    def _concretized(
        self,
        events: list[tuple],
        violation: InvariantViolation | None,
        error: str | None,
    ) -> tuple[InvariantViolation | None, str | None]:
        """Re-derive failure details in the concrete frame of the trace.

        Under symmetry reduction the violation/error was produced while
        inspecting a *canonical* state, so its text mentions canonical cache
        IDs; the reconstructed trace, however, is relabeled to the concrete
        frame.  Stepping the kernel through the trace's event encodings
        once -- each matched to its plan -- regenerates the same verdict
        with IDs consistent with the reported events; a violation is worded
        again on the last key's lanes (:func:`violations`).
        """
        codec, kernel = self.codec, self.kernel
        key = codec.root()
        for eev in events:
            plans, net = kernel.enabled(key)
            plan = next(plan for plan in plans if plan[1] == eev)
            key = plan[0](key, plan, net)
            if type(key) is str:
                # Error traces end with the failing event by construction.
                return violation, key
        if violation is not None:
            for concrete in violations(
                self.system, self.invariants, self.kernel_codes, codec.unpack(key)
            ):
                if concrete.name == violation.name:
                    return concrete, error
        return violation, error

    def failure(
        self,
        *,
        leaf_id: int | None = None,
        final_event: tuple | None = None,
        violation: InvariantViolation | None = None,
        error: str | None = None,
        deadlock: bool = False,
    ) -> VerificationResult:
        """The failing result; *final_event* is the encoding (``plan[1]``)
        of the event that raised *error*."""
        encodings = (
            self.trace_events(leaf_id, final_event) if leaf_id is not None else []
        )
        if self.perms is not None and encodings:
            violation, error = self._concretized(encodings, violation, error)
        events = list(map(self.codec.decode_event, encodings))
        return self._result(
            False,
            violation=violation,
            error=error,
            deadlock=deadlock,
            trace=[str(e) for e in events],
            trace_events=events,
        )

    def success(self) -> VerificationResult:
        return self._result(True, truncated=self.truncated)


def compiled_tables(system, invariants):
    """``(TransitionKernel, codes)`` for stepping *system* under *invariants*
    -- what :func:`verify` and :func:`~repro.verification.random_walk` run.

    The compiled tables are the only interpretation of a protocol, so what
    they cannot stand for is refused rather than run some other way: a
    ``System`` subclass (its overrides are not in the tables) raises
    ``TypeError``, and a protocol the table form cannot express raises
    :class:`~repro.core.fsm.CompilationUnsupported` from ``system.kernel()``.
    """
    if type(system) is not System:
        raise TypeError(
            f"verify() and random_walk() run the compiled transition tables, "
            f"which would ignore {type(system).__name__}'s overrides; pass a "
            "plain System"
        )
    return system.kernel(), compiled_invariant_codes(invariants)


def _resolve_kernel(system, kernel, invariant_tuple):
    """``(TransitionKernel, codes)`` for the ``kernel=`` argument (see
    :func:`compiled_tables`)."""
    if kernel not in ("compiled", "vectorized"):
        raise ValueError(
            f"unknown kernel {kernel!r} (expected 'compiled' or 'vectorized')"
        )
    return compiled_tables(system, invariant_tuple)


def verify(
    system: System,
    *,
    invariants: Sequence[Invariant] | None = None,
    max_states: int = 2_000_000,
    symmetry: bool = False,
    strategy: str = "bfs",
    processes: int | None = None,
    kernel: str = "compiled",
    checkpoint: str | None = None,
) -> VerificationResult:
    """Exhaustively explore *system* and check all invariants.

    Every parameter but *system* is optional -- seven keywords; the defaults
    are an exhaustive serial BFS on the compiled kernel without symmetry
    reduction.  Every in-process search deduplicates successors in one
    place, the state store, and compares whole keys (or whole rows) there;
    only the parallel strategy decides membership by digest, in one
    in-memory digest set per worker.  A state with no enabled event passes
    only if its run is complete -- quiescent, with every cache's workload
    used up (``result.complete_states`` counts them); any other stuck
    state is reported as a deadlock with a replayable trace, as Murphi
    reports it.  No keyword turns that check off.

    ``invariants``
        The invariants every reachable state must satisfy
        (:func:`~repro.verification.invariants.default_invariants` when
        omitted): built-in ones, which carry their kernel ``code``, or
        ``(system, state)`` predicates, called on decoded states.
    ``max_states``
        State budget: the search aborts cleanly once the budget is reached
        and returns a **partial** result (``result.partial`` /
        ``result.truncated`` set, counters and any found violation intact)
        instead of running unbounded.  One driver enforces it for every
        strategy and backend: the BFS level that would cross the budget is
        clipped to it (DFS stops at the exact state), so without a
        checkpoint exactly ``max_states`` states are expanded.
    ``symmetry``
        Canonicalize cache IDs before de-duplication (Murphi scalarset
        reduction).  Explores one representative per cache-permutation orbit
        -- up to ``num_caches!`` fewer states -- while preserving every
        verdict; counterexample traces are relabeled back to the concrete
        frame and stay replayable.  A configuration it does not support (a
        litmus workload, several addresses) raises ``ValueError`` naming it
        (:meth:`System.symmetry_group`).
    ``strategy``
        ``"bfs"`` (default), ``"dfs"`` or ``"parallel"`` (BFS on forked
        shared-memory workers, every level from the root's on); any other
        value raises ``ValueError``.  All strategies explore the same state
        set and report the same verdicts; BFS yields shortest
        counterexamples.  ``"parallel"`` always forks: on a platform
        without ``fork`` it raises the ``ValueError`` of
        ``multiprocessing.get_context("fork")``, never runs a serial search
        in its place.
    ``processes``
        Worker count for the parallel strategy (ignored otherwise), one
        included; below one raises ``ValueError``.  By default the cores
        this process may be scheduled on, within 2..8.
    ``kernel``
        ``"compiled"`` (default) expands states with the compiled transition
        kernel (:mod:`repro.system.kernel`): at setup the generated
        protocol is indexed into integer dispatch tables and each transition
        generated into a function, and successors, events and invariant
        verdicts are computed directly on encoded states.  An
        invariant with no encoded evaluator still runs: each new state is
        decoded for it.  Every search runs on these tables, so a ``System``
        subclass (whose overrides the tables would ignore) raises
        ``TypeError``, and a protocol the table form
        cannot express raises
        :class:`~repro.core.fsm.CompilationUnsupported`.
        ``"vectorized"`` expands whole frontier levels at once as NumPy
        operations over a 2-D matrix of hash-consed block, version and
        section IDs (:mod:`repro.system.vectorized`; NumPy is a dependency
        of the package) and runs on the BFS strategy for
        fault-free single-address non-litmus configurations, falling back
        to the compiled kernel -- per level or whole-search -- everywhere
        else.  ``result.kernel`` records which backend actually ran.
    ``checkpoint``
        Path of a resumable budget checkpoint, for a ``"bfs"`` or ``"dfs"``
        search (with ``"parallel"`` it raises ``ValueError`` before any
        worker forks).  When the search stops at the ``max_states`` budget
        it saves its frontier, store links and counters there (atomically)
        -- one file shape for both strategies and every backend; a later
        ``verify`` call with the same configuration and the same path
        resumes where it stopped -- under a fresh budget -- and
        the completed search reports counters, verdict and trace identical
        to an uninterrupted run.  With a checkpoint path a BFS does not
        clip the level that would cross the budget: it stops at the last
        level boundary inside it and saves that level whole (so a leg can
        end below its budget, and a budget narrower than the pending level
        makes no progress); DFS saves at the exact state.  A completed
        (non-partial) search deletes the file.  A file that cannot be read
        back, or one written by a different configuration, raises
        :class:`~repro.verification.engine.checkpoint.CheckpointMismatch`.
    """
    from repro.verification.engine.search import search

    invariant_tuple = (
        tuple(invariants) if invariants is not None else tuple(default_invariants())
    )
    perms = system.symmetry_group() if symmetry else None
    kernel_impl, kernel_codes = _resolve_kernel(system, kernel, invariant_tuple)
    vkernel = None
    # Only BFS batches whole levels; DFS and the fleet expand per state.
    if kernel == "vectorized" and strategy == "bfs":
        candidate = system.vectorized_kernel()
        if candidate.supported:
            vkernel = candidate
    ctx = Exploration(
        system=system,
        invariants=invariant_tuple,
        perms=perms,
        store=StateStore(),
        max_states=max_states,
        strategy_name=strategy,
        kernel=kernel_impl,
        kernel_codes=kernel_codes,
        vkernel=vkernel,
        checkpoint_path=checkpoint,
    )
    # The search allocates millions of short-lived, cycle-free tuples and
    # byte strings; generational GC scans buy nothing there and cost ~10 %
    # of the wall-clock, so collection pauses while the search runs.
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        return search(ctx, strategy, processes)
    finally:
        if gc_was_enabled:
            gc.enable()
