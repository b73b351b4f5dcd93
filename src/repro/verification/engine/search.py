"""Search strategies: which frontier order, and which expander, the one
driver (:func:`~repro.verification.engine.driver.drive`) runs.

* :class:`BreadthFirst` -- the default; hands the driver whole levels.
  Identical exploration order (and, with symmetry off, identical state
  counts) to the seed explorer, and the shortest counterexamples.
* :class:`DepthFirst` -- hands the driver the top of a stack instead;
  explores the same state set and reports the same verdicts, typically
  finding *some* counterexample sooner at the cost of longer traces.
* :class:`ParallelBreadthFirst` -- BFS whose expander changes under way:
  per-state and in-process while levels are narrow, and from the first
  level wider than :data:`POOL_SPINUP_FRONTIER` the **shared-memory worker
  fleet** (:mod:`repro.verification.engine.parallel`), seeded with the
  visited set.  From there every state stays on the worker that owns its
  digest and the parent keeps no key at all -- it only extends columnar
  trace links -- so traces work exactly as in the serial strategies while
  the parent's per-state footprint stays flat.  Falls back to serial BFS
  when ``fork`` is unavailable or fewer than two workers are requested.

There are four expanders.  Two are per-state and live beside the driver:
the **compiled kernel** (default; :mod:`repro.system.kernel`) expands
encoded states end-to-end, decoding only to report a failure -- its level
is the portable ``(state_id, packed_key)`` frontier itself, each key
unpacked into lanes only while that state is expanded -- and the
**object backend** interprets ``System.apply`` over dataclass trees (for
``System`` subclasses and custom invariants).  :class:`VectorizedExpander`
below expands a whole BFS level as NumPy operations -- its level is the
keys' prefix bytes stacked into a lane matrix plus one hash-consed section
ID per row -- and *is* a compiled expander for every level it cannot
express; the fourth is the fleet.  All
visit the same states in the same order, report identically-shaped
results, and get the same ``max_states`` semantics from the driver: per
level (a level that would cross the budget is clipped, or saved whole when
a checkpoint path is set), which for DFS is per state.
"""

from __future__ import annotations

import multiprocessing
import os
from time import perf_counter

from repro.verification.engine.canonical import (
    _tie_break_encoded,
    canonicalizer_for,
)
from repro.verification.engine.driver import (
    _RAW_SEEN_LIMIT,
    CompiledExpander,
    Expander,
    drive,
    per_state_expander,
    start_point,
)
from repro.verification.engine.parallel import ShmEngine


class _Lanes:
    """The vectorized expander's native level: state IDs, the lane matrix
    of their prefixes (one row each) and their network-section IDs."""

    __slots__ = ("ids", "F", "sids")

    def __init__(self, ids, F, sids):
        self.ids = ids
        self.F = F
        self.sids = sids

    def __len__(self):
        return len(self.ids)

    def __getitem__(self, cut: slice):
        return _Lanes(self.ids[cut], self.F[cut], self.sids[cut])


class VectorizedExpander(CompiledExpander):
    """Frontier-batch expansion over the NumPy lane matrix
    (``kernel="vectorized"``).

    Each level: one memo-probing collection pass enumerates every row's
    plans (:meth:`VectorizedKernel.collect_level`), one gather/scatter/
    ``np.unique`` pass assembles and dedups the raw successor matrix
    (:meth:`~VectorizedKernel.assemble`), and one
    :meth:`~StateStore.intern_batch` call commits the level's distinct
    canonical successors.  Distinct raw successors are processed in
    first-occurrence stream order and leaves replay interleaved by their
    sequence numbers, so verdicts, traces and (on passing searches) all
    exploration counts are bit-identical to the serial strategies; on a
    *failing* search the level batching may intern/count up to one level
    beyond the serial stopping point (the verdict, the failing state ID and
    the trace still match exactly).

    A level containing *any* row the batch path cannot express (unexpected
    message, ambiguous guards, object errors) replays wholesale through the
    inherited per-state body -- same row order, same per-plan order, same
    raw-successor dedup set -- which guarantees failures surface in the
    identical serial position.  Every transition applied there counts as a
    fallback transition (pinned to zero on the fault-free single-address
    hot path).
    """

    def __init__(self, ctx):
        super().__init__(ctx)
        ctx.kernel_name = "vectorized"
        self.canonicalizer = self.batch_canon = None
        if ctx.perms is not None:
            self.canonicalizer = canonicalizer_for(ctx.codec, ctx.perms)
            # Batch canonicalization (one orbit classification per distinct
            # cache-block region per level instead of one canonicalize call
            # per state) relies on the sorted-signature argument, i.e. the
            # full symmetric group -- exactly the condition
            # EncodedCanonicalizer.canonicalize itself requires before
            # consulting the orbit memo.
            self.batch_canon = (
                len(ctx.perms) > 1 and self.canonicalizer._full_group
            )

    def _level(self, ids, prefixes, sids) -> _Lanes:
        """A native level from its states' prefix bytes (slices of their
        keys), which stack into the matrix as they are."""
        vk = self.ctx.vkernel
        F = vk.np.frombuffer(b"".join(prefixes), dtype=vk.dtype)
        return _Lanes(ids, F.reshape(len(ids), vk.net_offset), sids)

    def lift(self, pairs) -> _Lanes:
        """Lane form of ``(state_id, packed_key)`` *pairs*: prefix bytes into
        the matrix, packed tails hash-consed to section IDs -- no lane tuple
        is built."""
        cut = self.ctx.codec.net_byte_offset
        intern_section = self.ctx.vkernel.intern_section
        return self._level(
            [sid for sid, _key in pairs],
            [key[:cut] for _sid, key in pairs],
            [intern_section(key[cut:]) for _sid, key in pairs],
        )

    def lower(self, lanes):
        packed = self.ctx.vkernel.section_packed
        rows = lanes.F.tobytes()
        cut = self.ctx.codec.net_byte_offset
        return [
            (sid, rows[pos * cut : (pos + 1) * cut] + packed(sec))
            for pos, (sid, sec) in enumerate(zip(lanes.ids, lanes.sids))
        ]

    def _leaf_row(self, leaf, F, sids):
        """Leaf verdict for one zero-plan row of a batch level."""
        _seq, state_id, pos = leaf
        enc = tuple(F[pos].tolist()) + self.ctx.vkernel.section_tail(sids[pos])
        return self.leaf(state_id, enc)

    def expand(self, lanes):
        ctx = self.ctx
        vk = ctx.vkernel
        ids, F, sids = lanes.ids, lanes.F, lanes.sids
        level = vk.collect_level(ids, F, sids)
        if level.fallbacks:
            before = ctx.transitions
            # The per-state body dedups raw successors on packed keys, this
            # one on widened row bytes, and with 32-bit lanes one state's row
            # can equal another's key: never let the two meet in one set.
            if self.raw_seen:
                self.raw_seen.clear()
            successors, failure = super().expand(self.lower(lanes))
            if self.raw_seen:
                self.raw_seen.clear()
            ctx.fallback_transitions += ctx.transitions - before
            if failure is not None:
                return None, failure
            return self.lift(successors), None
        codec = ctx.codec
        store = ctx.store
        codes = ctx.kernel_codes
        canonicalizer = self.canonicalizer
        canonicalize = self.canonicalize
        batch_canon = self.batch_canon
        raw_seen = self.raw_seen
        timer = perf_counter
        pack = codec.pack
        unpack = codec.unpack
        check = ctx.kernel.check
        np = vk.np
        net_offset = vk.net_offset
        intern_section = vk.intern_section
        sinfo = vk._section_info  # (packed_tail, net, deliveries)
        section_tail = vk.section_tail
        ctx.explored += len(ids)
        ctx.transitions += level.transitions
        ctx.vectorized_transitions += level.transitions
        ctx.expansion_batches += 1
        ctx.batch_rows += len(ids)
        M, order = vk.assemble(F, level)
        # Phase 1 -- distinct raw successors in stream order: cross-level
        # raw dedup (keyed on the widened row bytes -- prefix lanes plus the
        # global section-ID lanes -- sliced in bulk from the matrix),
        # canonicalize, pack (no failure can occur here).  A raw successor
        # whose canonical form is itself (``canonicalize`` returns the input
        # tuple) builds its intern key from its prefix bytes plus the
        # section's packed tail -- byte-identical to ``codec.pack`` --
        # skipping the per-state repack entirely.
        eevs = level.eevs
        out_sids = level.sids
        parent_pos = level.parent_pos
        V = M[order]
        vbytes = V.tobytes()
        rowsize = V.shape[1] * V.dtype.itemsize
        prefix_bytes = net_offset * V.dtype.itemsize
        order_list = order.tolist()
        # Default-invariant verdicts for the whole level as one lane-mask
        # reduction over the successor matrix (None for non-default codes:
        # phase 3 then falls back to the per-state fused check).  The mask is
        # computed on the *raw* rows, which is sound because the default
        # invariants are cache-permutation-symmetric (see check_level).
        level_ok = vk.check_level(V, codes)
        ok_list = level_ok.tolist() if level_ok is not None else None
        entries: list = []
        entry_us: list = []
        entry_rows: list = []
        entry_rsids: list = []  # canonical section ID, or -1 = intern later
        if batch_canon:
            # Orbit classification in bulk: one np.unique over the region
            # columns, one orbit_for per distinct region of the level (the
            # region's lane bytes are its packed form, the memo's key).
            d0 = vk.dir_offset
            region_bytes = d0 * V.dtype.itemsize
            R = np.ascontiguousarray(V[:, :d0])
            rb = R.view(np.dtype((np.void, region_bytes))).ravel()
            runiq, rinv = np.unique(rb, return_inverse=True)
            orbit_for = canonicalizer.orbit_for
            recs = [orbit_for(vb.tobytes()) for vb in runiq]
            rinv_list = rinv.tolist()
            identity = canonicalizer.identity
            for j, u in enumerate(order_list):
                grown = len(raw_seen) + 1
                raw_seen.add(vbytes[j * rowsize : (j + 1) * rowsize])
                if len(raw_seen) != grown:
                    continue
                if grown >= _RAW_SEEN_LIMIT:
                    raw_seen.clear()
                sid2 = out_sids[u]
                best, extra, saved = recs[rinv_list[j]]
                if best is None:
                    # Ties (equal signatures, or saved-requestor IDs): the
                    # per-state tie-break over the region's candidates,
                    # then one table relabel -- exactly what the serial
                    # canonicalize does for this state.
                    enc = unpack(vbytes[j * rowsize : j * rowsize + prefix_bytes]) + section_tail(sid2)
                    start = timer()
                    best = _tie_break_encoded(enc, codec, extra)
                    if best == identity:
                        key = (
                            vbytes[j * rowsize : j * rowsize + prefix_bytes]
                            + sinfo[sid2][0]
                        )
                        rsid = sid2
                    else:
                        enc = codec.relabel_via_tables(enc, best, saved=saved)
                        key = pack(enc)
                        rsid = -1
                    ctx.canon_seconds += timer() - start
                elif extra is None:
                    # Identity winner: the raw successor is canonical; its
                    # bytes are already the intern key and no lane tuple is
                    # built for it at all.
                    key = (
                        vbytes[j * rowsize : j * rowsize + prefix_bytes]
                        + sinfo[sid2][0]
                    )
                    rsid = sid2
                else:
                    # Unique non-identity winner: canonical encoding
                    # assembles from the orbit-cached relabeled prefix and
                    # the codec's memoized relabeled suffix.
                    start = timer()
                    enc = unpack(vbytes[j * rowsize : j * rowsize + prefix_bytes]) + section_tail(sid2)
                    t2 = codec.perm_tables(best)[2]
                    enc = tuple(extra + codec._relabeled_suffix(enc, best, t2))
                    ctx.canon_seconds += timer() - start
                    key = pack(enc)
                    rsid = -1
                entries.append((key, ids[parent_pos[u]], eevs[u], best))
                entry_us.append(u)
                entry_rows.append(j)
                entry_rsids.append(rsid)
        else:
            for j, u in enumerate(order_list):
                perm = None
                if canonicalize is not None:
                    grown = len(raw_seen) + 1
                    raw_seen.add(vbytes[j * rowsize : (j + 1) * rowsize])
                    if len(raw_seen) != grown:
                        continue
                    if grown >= _RAW_SEEN_LIMIT:
                        raw_seen.clear()
                    sid2 = out_sids[u]
                    enc = unpack(vbytes[j * rowsize : j * rowsize + prefix_bytes]) + section_tail(sid2)
                    start = timer()
                    cenc, perm = canonicalize(enc)
                    ctx.canon_seconds += timer() - start
                    if cenc is enc:
                        key = (
                            vbytes[j * rowsize : j * rowsize + prefix_bytes]
                            + sinfo[sid2][0]
                        )
                        rsid = sid2
                    else:
                        key = pack(cenc)
                        rsid = -1
                else:
                    sid2 = out_sids[u]
                    key = (
                        vbytes[j * rowsize : j * rowsize + prefix_bytes]
                        + sinfo[sid2][0]
                    )
                    rsid = sid2
                entries.append((key, ids[parent_pos[u]], eevs[u], perm))
                entry_us.append(u)
                entry_rows.append(j)
                entry_rsids.append(rsid)
        # Phase 2 -- one batch intern for the whole level.
        new_ids = store.intern_batch(entries)
        # Phase 3 -- replay leaves and new states interleaved in stream
        # order (leaf ``(k, ...)`` precedes successor ``u`` iff ``k <= u``),
        # preserving the exact serial failure order.  The next level is
        # built from the new keys themselves: prefix bytes into the matrix,
        # packed tail to a section ID.
        next_ids: list = []
        next_prefixes: list = []
        next_sids: list = []
        leaves = level.leaves
        n_leaves = len(leaves)
        li = 0
        for j, new_id in enumerate(new_ids):
            u = entry_us[j]
            while li < n_leaves and leaves[li][0] <= u:
                failure = self._leaf_row(leaves[li], F, sids)
                if failure is not None:
                    return None, failure
                li += 1
            if new_id < 0:
                continue
            key = entries[j][0]
            row_ok = ok_list[entry_rows[j]] if ok_list is not None else None
            if row_ok is None:
                # No level mask for these codes: the per-state check, on
                # lanes unpacked only here.
                row_ok = check(unpack(key), codes)
            if not row_ok:
                violation = self.violation(key)
                if violation is not None:
                    return None, ctx.failure(violation=violation, leaf_id=new_id)
            rsid = entry_rsids[j]
            if rsid < 0:  # relabeled tail: intern its section once
                rsid = intern_section(key[prefix_bytes:])
            next_ids.append(new_id)
            next_prefixes.append(key[:prefix_bytes])
            next_sids.append(rsid)
        while li < n_leaves:
            failure = self._leaf_row(leaves[li], F, sids)
            if failure is not None:
                return None, failure
            li += 1
        return self._level(next_ids, next_prefixes, next_sids), None


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


#: Frontier width above which the parallel strategy spins up its worker
#: fleet.  Measured with two workers on the 2-core reference host: the fork
#: is ``parallel.spinup_s`` ~ 0.01 s on bench ``full-3c-par2`` (the visited
#: set is inherited; each worker then filters its shard out of it), and a
#: round carries ~1 ms of fixed cost (two pipe barriers: a 36-state round
#: takes 0.9 ms end to end), so forcing the fleet onto a 1 702-state,
#: 19-level space costs 0.058 s against 0.017 s in-process.  The fork alone
#: is worth only ~400 states of serial work at ~38 k states/s; what the
#: threshold buys is that searches whose levels never get wide -- where
#: every round would be mostly barrier -- stay in-process and pay nothing,
#: and the fleet forks on the first level that hands each of two workers
#: about a thousand states.  The value has not been re-tuned since the
#: rounds became owner-computes.
POOL_SPINUP_FRONTIER = 2048


def _schedulable_cores() -> int:
    """Cores this process may run on: ``os.cpu_count()`` reports the host's
    CPUs even inside a cgroup/affinity-limited container."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - platform without affinity
        return os.cpu_count() or 2


def _run_fleet(engine, frontier, depth):
    try:
        return engine.drive(frontier, depth)
    finally:
        engine.shutdown()


class _LazyFleet(Expander):
    """The parallel strategy's expander: per-state and in-process until a
    level exceeds :data:`POOL_SPINUP_FRONTIER`, so searches too small to
    amortize the fleet's fixed costs never pay them.  That level is
    lowered and handed to a freshly forked
    :class:`~repro.verification.engine.parallel.ShmEngine`, which deals it
    out by owner and whose own drive finishes the search; its result ends
    this one.
    """

    def __init__(self, ctx, mp, processes, depth):
        self.ctx = ctx
        self.mp = mp
        self.processes = processes
        #: Levels below the one ``expand`` is handed (the fleet's start).
        self.depth = depth
        self.narrow = per_state_expander(ctx)
        self.lift = self.narrow.lift
        self.lower = self.narrow.lower

    def expand(self, level):
        if len(level) <= POOL_SPINUP_FRONTIER:
            self.depth += 1
            return self.narrow.expand(level)
        ctx = self.ctx
        # A copy: ``lower`` is the identity for the compiled expander, and
        # the level is cleared so no forked worker inherits native states.
        frontier = list(self.narrow.lower(level))
        level.clear()
        engine = ShmEngine(ctx, self.mp, self.processes)
        # Seed worker shards with everything interned so far (post-_key
        # keys: under hash compaction these already ARE the 128-bit
        # digests), then drop the parent's key index -- from here on
        # membership and the pending states live on the workers and the
        # parent only extends trace links.
        engine.spinup(seed_keys=list(ctx.store.iter_keys()))
        ctx.store.drop_index()
        return None, _run_fleet(engine, frontier, self.depth)


class ParallelBreadthFirst(SearchStrategy):
    """Level-synchronous BFS that moves onto the shared-memory worker fleet
    (:mod:`repro.verification.engine.parallel`) once a level is wide enough
    to feed it -- see :class:`_LazyFleet`."""

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
        mp, processes = self.mp, self.processes
        frontier, depth = start_point(ctx)
        if ctx.resume is not None and ctx.resume["shards"] is not None:
            # Checkpoint from past spin-up: the store snapshot has no keys;
            # the visited set rides in the shard digest dumps, re-sharded
            # here under whatever worker count this run uses.
            engine = ShmEngine(ctx, mp, processes)
            engine.spinup(seed_blobs=ctx.resume["shards"])
            return _run_fleet(engine, frontier, depth)
        return drive(ctx, _LazyFleet(ctx, mp, processes, depth), frontier, depth)


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
