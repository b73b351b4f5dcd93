"""The search strategies: :func:`search` picks the frontier order, and the
expander, that the one driver
(:func:`~repro.verification.engine.driver.drive`) runs.

* ``"bfs"`` -- the default; hands the driver whole levels.  Identical
  exploration order (and, with symmetry off, identical state counts) to the
  seed explorer, and the shortest counterexamples.
* ``"dfs"`` -- hands the driver the top of a stack instead; explores the
  same state set and reports the same verdicts, with longer counterexample
  traces.
* ``"parallel"`` -- BFS on the **shared-memory worker fleet**
  (:mod:`repro.verification.engine.parallel`), forked before the first
  level, with however many workers were asked for, one included.  Every
  state stays on the worker that owns its digest and the parent keeps no
  key at all -- it only extends columnar trace links -- so traces work
  exactly as in the serial strategies while the parent's per-state
  footprint stays flat.  It takes no checkpoint.

There are three expanders.  The **compiled kernel**
(:mod:`repro.system.kernel`) is the only per-state one and lives beside the
driver: it expands encoded states end-to-end, decoding only to report a
failure -- its level is the portable ``(state_id, packed_key)`` frontier
itself, each key's lanes read in place only while that state is expanded.
:class:`VectorizedExpander` below expands a whole BFS level as NumPy
operations -- its level is a row
matrix (a state is a ``uint32`` vector of hash-consed IDs: a block per
controller, the version, the network section), its visited
set the store's :class:`~repro.system.rowtable.RowTable` of
those same rows, so a state is never a packed key on its way from birth to
rest -- and *is* a compiled expander for every level it cannot express;
the third is the fleet.  All
visit the same states in the same order, report identically-shaped
results, and get the same ``max_states`` semantics from the driver: per
level (a level that would cross the budget is clipped, or saved whole when
a checkpoint path is set), which for DFS is per state.
"""

from __future__ import annotations

import multiprocessing
import os
from array import array
from itertools import repeat
from time import perf_counter

from repro.verification.engine import checkpoint as checkpoint_mod
from repro.verification.engine.driver import CompiledExpander, drive, start_point
from repro.verification.engine.parallel import ShmEngine
from repro.verification.engine.store import RowTable


class _Rows:
    """The vectorized expander's native level: state IDs (an integer array)
    and the states themselves as a row matrix (``uint32`` block, version and
    section IDs: :mod:`repro.system.vectorized`)."""

    __slots__ = ("ids", "R")

    def __init__(self, ids, R):
        self.ids = ids
        self.R = R

    def __len__(self):
        return len(self.ids)

    def __getitem__(self, cut: slice):
        return _Rows(self.ids[cut], self.R[cut])


class VectorizedExpander(CompiledExpander):
    """Frontier-batch expansion over the NumPy row matrix
    (``kernel="vectorized"``).

    A state is a matrix row from birth to rest.  Each level: one
    collection pass gathers every row's plans out of the kernel's plan
    tables as integer arrays -- parent row, plan ID, successor section ID
    per successor (:meth:`VectorizedKernel.collect_level`) -- one gather
    and three column assignments make them the raw successor rows
    (:meth:`~VectorizedKernel.assemble`), and one
    :meth:`~StateStore.intern_batch` call hands the *whole* raw level to
    the store's :class:`~repro.system.rowtable.RowTable` -- the visited set
    holds the very rows the kernel computes on, compared whole, and its one
    probe is the only dedup: first occurrence wins and new rows take
    consecutive IDs in stream order, exactly the serial numbering.  The
    next level is the new rows; events, link columns
    (a new row's parent is ``ids[parent_pos]``, its event the plan's) and
    invariant verdicts (:meth:`~VectorizedKernel.check_level`) are computed
    for those only.  Under symmetry every raw successor row becomes its
    canonical representative's row before that probe.  No packed key is
    built on the way except under symmetry, and no statement here iterates
    over rows or successors: Python runs per leaf (its verdict), per new
    row (its event, one C-level table lookup, and the store's link
    columns), under symmetry per raw successor whose cache-block region is
    not already minimal (its packed key and the relabel of it; keys go out
    through the kernel's boundary and the relabeled ones come back in one
    call each a level), for the first failing row, and inside the kernel per *distinct*
    guard, delivery key and ``(cell, record, operation)`` of the level.
    Raw successors are in serial stream order and leaves replay interleaved
    by their sequence numbers, so verdicts, traces and (on passing
    searches) all exploration counts are bit-identical to the serial
    strategies; on a *failing* search the level batching may intern/count
    up to one level beyond the serial stopping point (the verdict, the
    failing state ID and the trace still match exactly).

    A level containing *any* row the batch path cannot express (unexpected
    message, ambiguous guards, protocol errors, a tail-memo key field wider
    than its bits) replays wholesale through the
    inherited per-state body -- same row order, same per-plan order, its
    keys converted to rows one :meth:`~StateStore.intern` at a time -- which
    guarantees failures
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
        ctx.store.adopt_rows(RowTable(vk.np, 4 * vk.row_width), vk)

    def lift(self, pairs) -> _Rows:
        vk = self.ctx.vkernel
        return _Rows(
            vk.np.asarray([sid for sid, _key in pairs], dtype=vk.np.int64),
            vk.rows_of([key for _sid, key in pairs]),
        )

    def lower(self, level):
        return list(zip(level.ids.tolist(), self.ctx.vkernel.keys_of(level.R)))

    def _leaves(self, leaves, encs, done, upto):
        """Leaf verdicts for ``leaves[done:]`` (their lanes in *encs*)
        that precede successor *upto* in stream order (leaf ``(k, ...)``
        precedes successor ``u`` iff ``k <= u``; ``None`` = all that
        remain).  Returns ``(done, failure)``."""
        while done < len(leaves) and (upto is None or leaves[done][0] <= upto):
            failure = self.leaf(leaves[done][1], encs[done])
            if failure is not None:
                return done, failure
            done += 1
        return done, None

    def _representatives(self, S):
        """Symmetry reduction of the level's raw successor rows *S*, in
        place and in stream order: each row becomes its representative's,
        and the permutation that canonicalized each is returned."""
        ctx = self.ctx
        vk = ctx.vkernel
        np = vk.np
        n = vk.num_caches
        canonicalizer = self.canonicalizer
        start = perf_counter()
        # Orbit classification in bulk: the region is the n block-ID
        # columns -- one np.unique over them, one orbit_for per distinct
        # region of the level, on its packed lanes (the memo's key).
        region = np.ascontiguousarray(S[:, :n])
        uniq, inv = np.unique(
            region.view(np.dtype((np.void, 4 * n))).ravel(), return_inverse=True
        )
        lanes = vk.regions_of(uniq.view(np.uint32).reshape(-1, n))
        orbits = [canonicalizer.orbit_for(row.tobytes()) for row in lanes]
        minimal = np.asarray(
            [orbit is canonicalizer.identity_orbit for orbit in orbits], dtype=bool
        )
        # Where the region is already minimal the raw row is the
        # representative and no key is built for it at all.
        perms = [canonicalizer.identity] * len(S)
        rest = np.flatnonzero(~minimal[inv])
        if len(rest):
            # The others' keys: one trip through the kernel's boundary ...
            resolve = canonicalizer.resolve
            moved: list = []       # positions in *S* whose row is relabeled
            moved_keys: list = []  # ... and the relabeled state's packed key
            for j, key, orbit in zip(
                rest.tolist(), vk.keys_of(S[rest]), inv[rest].tolist()
            ):
                canonical, perms[j] = resolve(key, orbits[orbit])
                if canonical is not key:
                    moved.append(j)
                    moved_keys.append(canonical)
            if moved:
                # ... and one trip back for the relabeled ones.
                S[moved] = vk.rows_of(moved_keys)
        ctx.canon_seconds += perf_counter() - start
        return perms

    def expand(self, level):
        ctx = self.ctx
        vk = ctx.vkernel
        np = vk.np
        ids, R = level.ids, level.R
        plans = vk.collect_level(ids, R)
        if plans.fallbacks:
            before = ctx.transitions
            successors, failure = super().expand(self.lower(level))
            ctx.fallback_transitions += ctx.transitions - before
            if failure is not None:
                return None, failure
            return self.lift(successors), None
        ctx.explored += len(ids)
        ctx.transitions += plans.transitions
        ctx.vectorized_transitions += plans.transitions
        ctx.expansion_batches += 1
        ctx.batch_rows += len(ids)
        # The candidates, in stream order: every raw successor, or under
        # symmetry its representative.
        S = vk.assemble(R, plans)
        perms = None
        if self.canonicalize is not None:
            perms = self._representatives(S)

        def links(new):
            # The store's parent column is ``array('i')``, and every ID it
            # hands out fits: narrow first, as int64 bytes would read back
            # as twice as many parents.
            parents = array("i")
            parents.frombytes(ids[plans.parent_pos[new]].astype(np.int32).tobytes())
            return (
                parents,
                vk.events_of(plans.pids[new]),
                repeat(None, len(new)) if perms is None
                else map(perms.__getitem__, new.tolist()),
            )

        new_ids = ctx.store.intern_batch(S, links)
        fresh = np.flatnonzero(new_ids >= 0)
        new_ids, V = new_ids[fresh], S[fresh]
        del S
        # Default-invariant verdicts of the new rows as one mask (None for
        # non-default codes: then the per-state check, on each packed key's
        # lanes read in place).
        view = ctx.codec.view
        ok = vk.check_level(V, ctx.kernel_codes)
        if ok is None:
            check = ctx.kernel.check
            ok = np.asarray(
                [check(view(key), ctx.kernel_codes) for key in vk.keys_of(V)],
                dtype=bool,
            )
        # Failures surface in stream order: the leaves that precede a new
        # row failing its check, then that row.
        leaves = plans.leaves
        encs = [view(key) for key in vk.keys_of(R[[pos for _seq, _sid, pos in leaves]])]
        done = 0
        for j in np.flatnonzero(~ok).tolist():
            done, failure = self._leaves(leaves, encs, done, int(fresh[j]))
            if failure is not None:
                return None, failure
            violation = self.violation(vk.keys_of(V[j : j + 1])[0])
            if violation is not None:
                return None, ctx.failure(
                    violation=violation, leaf_id=int(new_ids[j])
                )
        done, failure = self._leaves(leaves, encs, done, None)
        if failure is not None:
            return None, failure
        return _Rows(new_ids, V), None


def _schedulable_cores() -> int:
    """Cores this process may run on: ``os.cpu_count()`` reports the host's
    CPUs even inside a cgroup/affinity-limited container."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - platform without affinity
        return os.cpu_count() or 2


def search(ctx, strategy: str, processes: int | None):
    """Run the search *strategy* names on *ctx*; returns its result.

    The one place that reads ``strategy`` and picks the expander the driver
    runs: the worker fleet (:class:`ShmEngine`) for ``"parallel"``,
    :class:`VectorizedExpander` wherever ``verify()`` built a batch kernel
    (BFS only), :class:`CompiledExpander` otherwise; ``"dfs"`` drives it
    LIFO.  What the fleet cannot do is refused before anything runs, not
    swapped for a serial search: fewer than one worker, a checkpoint path
    (its visited set lives in the workers), or a platform without ``fork``
    (``multiprocessing.get_context`` raises).  ``processes=None`` sizes the
    fleet from the cores this process may be scheduled on, within 2..8;
    ``processes`` is ignored by the other strategies.

    The root is seeded and a checkpoint, if one waits at the path, is
    loaded only after those checks, so a refused search reads no file; a
    search that runs to its end deletes it.
    """
    if strategy not in ("bfs", "dfs", "parallel"):
        raise ValueError(
            f"unknown search strategy {strategy!r} "
            "(expected 'bfs', 'dfs' or 'parallel')"
        )
    if strategy == "parallel":
        if processes is None:
            processes = max(2, min(8, _schedulable_cores()))
        elif processes < 1:
            raise ValueError(
                f"processes={processes!r} with strategy='parallel': the "
                "worker fleet needs at least one worker"
            )
        if ctx.checkpoint_path is not None:
            raise ValueError(
                "checkpoint is unsupported with strategy='parallel' (the "
                "fleet's visited set lives in its workers); checkpoint a "
                "'bfs' or 'dfs' search"
            )
        mp = multiprocessing.get_context("fork")
    early = ctx.seed()
    if early is not None:
        return early
    # A checkpoint (if one exists at the path) replaces the freshly seeded
    # store wholesale -- the snapshot's ID 0 is the same canonical root.
    checkpoint_mod.load(ctx)
    if strategy == "parallel":
        engine = ShmEngine(ctx, mp, processes)
        try:
            engine.spinup()
            return engine.drive(*start_point(ctx))
        finally:
            engine.shutdown()
    expander = (
        VectorizedExpander(ctx) if ctx.vkernel is not None else CompiledExpander(ctx)
    )
    result = drive(ctx, expander, *start_point(ctx), lifo=strategy == "dfs")
    if not result.truncated:
        # The search ran to its end: the checkpoint is consumed.
        checkpoint_mod.clear(ctx.checkpoint_path)
    return result
