"""Search strategies: which frontier order, and which expander, the one
driver (:func:`~repro.verification.engine.driver.drive`) runs.

* :class:`BreadthFirst` -- the default; hands the driver whole levels.
  Identical exploration order (and, with symmetry off, identical state
  counts) to the seed explorer, and the shortest counterexamples.
* :class:`DepthFirst` -- hands the driver the top of a stack instead;
  explores the same state set and reports the same verdicts, with longer
  counterexample traces.
* :class:`ParallelBreadthFirst` -- BFS on the **shared-memory worker
  fleet** (:mod:`repro.verification.engine.parallel`), forked before the
  first level.  Every state stays on the worker that owns its digest and
  the parent keeps no key at all -- it only extends columnar trace links --
  so traces work exactly as in the serial strategies while the parent's
  per-state footprint stays flat.  Falls back to serial BFS when ``fork``
  is unavailable or fewer than two workers are requested.

There are four expanders.  Two are per-state and live beside the driver:
the **compiled kernel** (default; :mod:`repro.system.kernel`) expands
encoded states end-to-end, decoding only to report a failure -- its level
is the portable ``(state_id, packed_key)`` frontier itself, each key
unpacked into lanes only while that state is expanded -- and the
**object backend** interprets ``System.apply`` over dataclass trees (for
``System`` subclasses and custom invariants).  :class:`VectorizedExpander`
below expands a whole BFS level as NumPy operations -- its level is a row
matrix (prefix lanes plus one hash-consed section ID per row), its visited
set the store's :class:`~repro.system.rowtable.RowTable` of
those same rows, so a state is never a packed key on its way from birth to
rest -- and *is* a compiled expander for every level it cannot express;
the fourth is the fleet.  All
visit the same states in the same order, report identically-shaped
results, and get the same ``max_states`` semantics from the driver: per
level (a level that would cross the budget is clipped, or saved whole when
a checkpoint path is set), which for DFS is per state.
"""

from __future__ import annotations

import multiprocessing
import os
from time import perf_counter

from repro.verification.engine.driver import (
    _RAW_SEEN_LIMIT,
    CompiledExpander,
    drive,
    per_state_expander,
    start_point,
)
from repro.verification.engine.parallel import ShmEngine
from repro.verification.engine.store import RowTable


class _Lanes:
    """The vectorized expander's native level: state IDs (an integer array)
    and the states themselves as a row matrix
    (:meth:`VectorizedKernel.widen`: prefix lanes, then the section ID)."""

    __slots__ = ("ids", "M")

    def __init__(self, ids, M):
        self.ids = ids
        self.M = M

    def __len__(self):
        return len(self.ids)

    def __getitem__(self, cut: slice):
        return _Lanes(self.ids[cut], self.M[cut])


class VectorizedExpander(CompiledExpander):
    """Frontier-batch expansion over the NumPy lane matrix
    (``kernel="vectorized"``).

    A state is a matrix row from birth to rest.  Each level: one
    collection pass gathers every row's plans out of the kernel's plan
    tables as integer arrays -- parent row, outcome ID, successor section
    ID per successor (:meth:`VectorizedKernel.collect_level`) -- one
    gather/scatter/``np.unique`` pass assembles and dedups the raw
    successor rows (:meth:`~VectorizedKernel.assemble`), one lane-mask
    reduction gives their invariant verdicts
    (:meth:`~VectorizedKernel.check_level`), and one
    :meth:`~StateStore.intern_batch` call probes them against the store's
    :class:`~repro.system.rowtable.RowTable` -- the visited set
    holds the very rows the kernel computes on, compared whole, and the
    next level is the new ones; a new row's parent is ``ids[parent_pos]``
    and its event the outcome table's.  No packed key is built on the way,
    and no statement here iterates over rows or successors: Python runs
    per leaf (its verdict), per distinct raw successor (its event, one
    C-level table lookup; under symmetry also the raw-successor set and
    the relabeled representatives, whose rows come back from the kernel's
    boundary in one call a level), per new row (the store's link columns)
    and for the first failing row, and inside the kernel per *distinct*
    guard, delivery key and ``(cell, record, operation)`` of the level.
    Distinct raw successors are processed in
    first-occurrence stream order and leaves replay interleaved by their
    sequence numbers, so verdicts, traces and (on passing searches) all
    exploration counts are bit-identical to the serial strategies; on a
    *failing* search the level batching may intern/count up to one level
    beyond the serial stopping point (the verdict, the failing state ID and
    the trace still match exactly).

    A level containing *any* row the batch path cannot express (unexpected
    message, ambiguous guards, object errors, a tail-memo key field wider
    than its bits) replays wholesale through the
    inherited per-state body -- same row order, same per-plan order, same
    raw-successor dedup set, its keys converted to rows one
    :meth:`~StateStore.intern` at a time -- which guarantees failures
    surface in the identical serial position.  Every transition applied
    there counts as a fallback transition (pinned to zero on the fault-free
    single-address hot path).
    """

    def __init__(self, ctx):
        super().__init__(ctx)
        ctx.kernel_name = "vectorized"
        vk = ctx.vkernel
        # The visited set moves into row form before the first level: the
        # root of a fresh search, or everything a checkpoint restored.
        ctx.store.adopt_rows(
            RowTable(vk.np, vk.row_lanes * vk.dtype.itemsize), vk
        )

    def lift(self, pairs) -> _Lanes:
        vk = self.ctx.vkernel
        return _Lanes(
            vk.np.asarray([sid for sid, _key in pairs], dtype=vk.np.int64),
            vk.rows_of([key for _sid, key in pairs]),
        )

    def lower(self, lanes):
        return list(zip(lanes.ids.tolist(), self.ctx.vkernel.keys_of(lanes.M)))

    def _leaves(self, leaves, done, upto, F, sids):
        """Leaf verdicts for ``leaves[done:]`` that precede successor *upto*
        in stream order (leaf ``(k, ...)`` precedes successor ``u`` iff
        ``k <= u``; ``None`` = all that remain).  Returns ``(done,
        failure)``."""
        section_tail = self.ctx.vkernel.section_tail
        while done < len(leaves) and (upto is None or leaves[done][0] <= upto):
            _seq, state_id, pos = leaves[done]
            enc = tuple(F[pos].tolist()) + section_tail(int(sids[pos]))
            failure = self.leaf(int(state_id), enc)
            if failure is not None:
                return done, failure
            done += 1
        return done, None

    def _representatives(self, V, out_sids):
        """Symmetry reduction of the distinct raw successor rows *V* (their
        section IDs in *out_sids*), in stream order: drop the rows the
        raw-successor set has seen, and turn each of the others into its
        canonical representative.  Returns ``(kept, perms, C)``: the
        positions in *V* that survive, the permutation that canonicalized
        each, and their representatives' rows (the raw row itself wherever
        the identity wins)."""
        ctx = self.ctx
        vk = ctx.vkernel
        np = vk.np
        raw_seen = self.raw_seen
        timer = perf_counter
        unpack = ctx.codec.unpack
        pack = ctx.codec.pack
        # The level's sections as packed tails: one trip through the
        # kernel's boundary, whichever rows turn out to need their lanes.
        sections = sorted(set(out_sids))
        tail_of = dict(zip(sections, vk.packed_tails(sections)))
        vbytes = V.tobytes()
        rowsize = V.shape[1] * V.dtype.itemsize
        prefix_bytes = vk.net_offset * V.dtype.itemsize
        # Orbit classification in bulk: one np.unique over the region
        # columns, one orbit_for per distinct region of the level (the
        # region's lane bytes are its packed form, the memo's key).
        d0 = vk.dir_offset
        R = np.ascontiguousarray(V[:, :d0])
        rb = R.view(np.dtype((np.void, d0 * V.dtype.itemsize))).ravel()
        runiq, rinv = np.unique(rb, return_inverse=True)
        canonicalizer = self.canonicalizer
        orbit_for = canonicalizer.orbit_for
        orbits = [orbit_for(vb.tobytes()) for vb in runiq]
        rinv_list = rinv.tolist()
        resolve = canonicalizer.resolve
        identity = canonicalizer.identity
        identity_orbit = canonicalizer.identity_orbit
        kept: list = []
        perms: list = []
        moved: list = []       # positions in ``kept`` whose row is relabeled
        moved_keys: list = []  # ... and the relabeled state's packed key
        for j in range(len(V)):
            grown = len(raw_seen) + 1
            raw_seen.add(vbytes[j * rowsize : (j + 1) * rowsize])
            if len(raw_seen) != grown:
                continue
            if grown >= _RAW_SEEN_LIMIT:
                raw_seen.clear()
            orbit = orbits[rinv_list[j]]
            if orbit is identity_orbit:
                # The region is already minimal: the raw row is the
                # representative and no lane tuple is built for it at all.
                kept.append(j)
                perms.append(identity)
                continue
            start = timer()
            enc = (
                unpack(vbytes[j * rowsize : j * rowsize + prefix_bytes])
                + unpack(tail_of[out_sids[j]])
            )
            cenc, best = resolve(enc, orbit)
            ctx.canon_seconds += timer() - start
            if cenc is not enc:
                moved.append(len(kept))
                moved_keys.append(pack(cenc))
            kept.append(j)
            perms.append(best)
        C = V[kept]
        if moved:
            # ... and one trip back for the relabeled ones.
            C[moved] = vk.rows_of(moved_keys)
        return kept, perms, C

    def expand(self, lanes):
        ctx = self.ctx
        vk = ctx.vkernel
        np = vk.np
        ids = lanes.ids
        F = lanes.M[:, : vk.net_offset]
        sids = vk.sids_of(lanes.M)
        level = vk.collect_level(ids, F, sids)
        if level.fallbacks:
            before = ctx.transitions
            # The per-state body dedups raw successors on packed keys, this
            # one on row bytes, and with 32-bit lanes one state's row can
            # equal another's key: never let the two meet in one set.
            if self.raw_seen:
                self.raw_seen.clear()
            successors, failure = super().expand(self.lower(lanes))
            if self.raw_seen:
                self.raw_seen.clear()
            ctx.fallback_transitions += ctx.transitions - before
            if failure is not None:
                return None, failure
            return self.lift(successors), None
        codes = ctx.kernel_codes
        ctx.explored += len(ids)
        ctx.transitions += level.transitions
        ctx.vectorized_transitions += level.transitions
        ctx.expansion_batches += 1
        ctx.batch_rows += len(ids)
        M, order = vk.assemble(F, level)
        # The distinct raw successors, in stream order: ``us`` are their
        # positions in the level's successor stream.
        us = order
        V = M[order]
        del M
        # Default-invariant verdicts for the whole level as one lane-mask
        # reduction (None for non-default codes).  The mask is computed on
        # the *raw* rows, which is sound because the default invariants are
        # cache-permutation-symmetric (see check_level).
        ok = vk.check_level(V, codes)
        perms = None
        if self.canonicalize is not None:
            kept, perms, V = self._representatives(
                V, level.sids[order].tolist()
            )
            us = order[kept]
            if ok is not None:
                ok = ok[kept]
        new_ids = ctx.store.intern_batch(
            V, ids[level.parent_pos[us]], vk.events_of(level.oids[us]), perms
        )
        fresh = new_ids >= 0
        if ok is None:
            # No level mask for these codes: the per-state check, on lanes
            # unpacked only here, for the new rows only.
            at = np.flatnonzero(fresh)
            check = ctx.kernel.check
            unpack = ctx.codec.unpack
            ok = np.ones(len(fresh), dtype=bool)
            ok[at] = [check(unpack(key), codes) for key in vk.keys_of(V[at])]
        # Failures surface in stream order: the leaves that precede a new
        # row failing its check, then that row.
        leaves = level.leaves
        done = 0
        for j in np.flatnonzero(fresh & ~ok).tolist():
            done, failure = self._leaves(leaves, done, int(us[j]), F, sids)
            if failure is not None:
                return None, failure
            violation = self.violation(vk.keys_of(V[j : j + 1])[0])
            if violation is not None:
                return None, ctx.failure(
                    violation=violation, leaf_id=int(new_ids[j])
                )
        done, failure = self._leaves(leaves, done, None, F, sids)
        if failure is not None:
            return None, failure
        return _Lanes(new_ids[fresh], V[fresh]), None


# -- strategies ----------------------------------------------------------------


class SearchStrategy:
    """Interface: run the exploration described by a context to completion."""

    name = "base"

    def run(self, ctx):
        raise NotImplementedError


class BreadthFirst(SearchStrategy):
    name = "bfs"

    def run(self, ctx):
        expander = (
            VectorizedExpander(ctx)
            if ctx.vkernel is not None
            else per_state_expander(ctx)
        )
        return drive(ctx, expander, *start_point(ctx))


class DepthFirst(SearchStrategy):
    name = "dfs"

    def run(self, ctx):
        return drive(ctx, per_state_expander(ctx), *start_point(ctx), lifo=True)


def _schedulable_cores() -> int:
    """Cores this process may run on: ``os.cpu_count()`` reports the host's
    CPUs even inside a cgroup/affinity-limited container."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - platform without affinity
        return os.cpu_count() or 2


class ParallelBreadthFirst(SearchStrategy):
    """Level-synchronous BFS on the shared-memory worker fleet
    (:mod:`repro.verification.engine.parallel`), from the root: asking for
    workers forks them, whatever the size of the space (two pipe barriers a
    round: 0.07-0.12 s against 0.02-0.03 s in-process on a 1 702-state,
    19-level one)."""

    name = "parallel"

    def __init__(self, processes: int | None = None):
        try:
            self.mp = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - platform without fork
            self.mp = None
        self.processes = processes or max(2, min(8, _schedulable_cores()))
        if self.mp is None or self.processes <= 1:
            # Serial BFS stand-in, named so from construction: the name is
            # part of the checkpoint fingerprint (taken before ``run``), and
            # the result must not be attributed to the parallel strategy.
            self.name = BreadthFirst.name

    def run(self, ctx):
        if self.name == BreadthFirst.name:
            return BreadthFirst().run(ctx)
        engine = ShmEngine(ctx, self.mp, self.processes)
        try:
            engine.spinup()
            return engine.drive(*start_point(ctx))
        finally:
            engine.shutdown()


def resolve_strategy(spec, *, processes: int | None = None) -> SearchStrategy:
    """Map a strategy name (or pass through an instance) to a strategy."""
    if isinstance(spec, SearchStrategy):
        return spec
    name = str(spec).lower()
    if name in ("bfs", "breadth-first"):
        return BreadthFirst()
    if name in ("dfs", "depth-first"):
        return DepthFirst()
    if name in ("parallel", "parallel-bfs"):
        return ParallelBreadthFirst(processes=processes)
    raise ValueError(
        f"unknown search strategy {spec!r} (expected 'bfs', 'dfs' or 'parallel')"
    )
