"""Batch-vectorized frontier expansion: the NumPy lane-matrix kernel.

The compiled kernel (:mod:`repro.system.kernel`) already runs on flat int
tuples, but it still pays one Python dispatch per state per transition --
the measured ~11-12 us/transition bound of ROADMAP direction 1.  This module
shifts the unit of work from *one state* to *one frontier level*: states
become rows of a 2-D NumPy lane matrix, and expansion becomes batch
gather / mask / scatter operations plus per-distinct-input Python work that
is shared across every row it applies to.

The design splits an encoding at the network boundary:

* the **fixed-width prefix** (cache blocks, directory block, latest
  version -- ``codec.layout()["net_offset"]`` lanes) lives in the matrix;
* the **variable-width network section** is hash-consed into a side table
  of section IDs, so each row is ``(prefix lanes..., section id)`` and the
  matrix stays rectangular.

Expansion then exploits the locality the lane-op descriptors
(:func:`repro.core.fsm.transition_lane_ops`) prove: a compiled transition
reads and writes nothing outside *its controller's block*, the shared
version lane, the delivered message, and the network section.  Its effect
is therefore a pure function of a small key -- ``(message, receiver block,
version)`` for deliveries, ``(cache id, block, version)`` for accesses,
``(section id, delivered slot, sends)`` for the network splice -- and those
keys recur across far more rows than they have distinct values.  Each
distinct key is evaluated **once**, by running the existing per-transition
specialized function (:meth:`TransitionKernel._compile_cache_fn` /
``_compile_directory_fn``) on a representative row and diffing -- exact by
construction -- and the resulting lane delta is scattered into every
matching row of the successor matrix with NumPy fancy indexing.  Raw
successors then dedup **vectorized**: one ``np.unique`` over the row bytes
(prefix lanes + section-ID lanes, :meth:`VectorizedKernel.widen`) per level
replaces per-successor set probes.  Because sections are hash-consed, such
a row is a bijection with the state's packed key, so the search keeps its
visited set as a table of these very rows
(:class:`repro.verification.engine.store.RowTable`) and a packed key is
built only at a boundary: :meth:`~VectorizedKernel.rows_of` /
:meth:`~VectorizedKernel.keys_of` convert, for a checkpoint, a per-state
fallback level or a violation report.

The compiled interpreter stays on as the differential oracle and the
fallback: any plan the batch path cannot express (unexpected message,
ambiguous guards, missing data/requestor -- anything the compiled kernel
itself would route to the object executor) flips its whole frontier level
to the per-state compiled loop, preserving the exact serial failure order;
fault models, multi-address planes and litmus workloads fall back
whole-search (``VectorizedKernel.supported`` is False).  The fault-free
single-address hot path never leaves the batch loop -- pinned as zero
fallback transitions and zero object decodes in the engine tests.
"""

from __future__ import annotations

import struct

from repro.core.fsm import (
    CompilationUnsupported,
    transition_lane_ops,
)
from repro.system.kernel import (
    AMBIGUOUS,
    CF_PENDING,
    CF_STATE,
    DEFAULT_CODES,
    TransitionKernel,
)

try:  # NumPy is an optional dependency of the engine (requirements-dev).
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via monkeypatching
    _np = None


class VectorizedUnavailable(RuntimeError):
    """``kernel="vectorized"`` was requested but NumPy is not installed."""


#: A row's section ID: 32 bits in native order, the layout of
#: :meth:`VectorizedKernel.widen`.
_SECTION_ID = struct.Struct("=I")

#: Memo outcome: this plan must take the compiled/object slow path.
_FALLBACK = object()
#: Memo probe miss sentinel (distinguishes from the ``None`` = stalled entry).
_MISS = object()

#: Bound on the per-kernel outcome/tail memos (cleared when hit, like the
#: codec's component memos -- correctness never depends on a memo hit).
_MEMO_LIMIT = 1 << 20


class LevelExpansion:
    """One collected frontier level, ready for matrix assembly.

    Parallel per-successor arrays (``parent_pos``/``eevs``/``sids`` plus the
    flat scatter triple) in exact serial plan order; ``leaves`` are the
    zero-plan rows and ``fallbacks`` the row positions that need the
    compiled per-state path (non-empty ``fallbacks`` invalidates the
    collected successors -- the driver re-runs the level serially).  A leaf
    records the number of successors collected before it, which totally
    orders leaves against successors: leaf ``(k, ...)`` precedes successor
    index ``u`` exactly when ``k <= u``, so failure detection replays in
    exact serial stream order without per-successor sequence bookkeeping.
    """

    __slots__ = (
        "parent_pos", "eevs", "sids",
        "flat_cols", "flat_vals", "lens", "leaves", "fallbacks",
    )

    def __init__(self):
        self.parent_pos: list[int] = []   # parent row index per successor
        self.eevs: list[tuple] = []       # encoded event per successor
        self.sids: list[int] = []         # successor network-section ID
        self.flat_cols: list[int] = []    # scatter columns, flattened
        self.flat_vals: list[int] = []    # scatter values, flattened
        self.lens: list[int] = []         # delta width per successor
        self.leaves: list[tuple] = []     # (successors_before, state_id, row_pos)
        self.fallbacks: list[int] = []    # row positions needing slow path

    @property
    def transitions(self) -> int:
        return len(self.parent_pos)


class VectorizedKernel:
    """Frontier-batch expansion over a NumPy lane matrix.

    Wraps a system's :class:`TransitionKernel` (the lowering input and the
    oracle for memo misses) and its codec.  Construction requires NumPy
    (:class:`VectorizedUnavailable` otherwise); ``supported`` reports
    whether this configuration can run the batch path at all -- fault
    models, litmus workloads, multi-address planes and any transition whose
    lane-op descriptor is not block-confined make the whole search fall
    back to the compiled kernel.
    """

    def __init__(self, system):
        if _np is None:
            raise VectorizedUnavailable(
                "kernel=\"vectorized\" requires numpy, which is not "
                "installed (pip install numpy, or see requirements-dev.txt); "
                "verify() falls back to the compiled kernel without it"
            )
        self.np = _np
        self.system = system
        self.kernel: TransitionKernel = system.kernel()
        self.codec = codec = system.codec()
        layout = codec.layout()
        self.num_caches = layout["num_caches"]
        self.cache_width = layout["cache_width"]
        self.dir_offset = layout["dir_offset"]
        self.version_offset = layout["version_offset"]
        self.net_offset = layout["net_offset"]
        self.dtype = _np.dtype(layout["numpy_dtype"])
        #: Lanes of a whole-state row: the prefix plus a 32-bit section ID.
        self.row_lanes = self.net_offset + max(1, 4 // self.dtype.itemsize)
        self.supported = self.kernel._simple and self._lane_ops_confined()
        # Hash-consed network sections: packed tail <-> dense section ID.
        self._section_ids: dict[bytes, int] = {}
        # Per-ID (packed tail, net handle, deliveries); the tail's lanes are
        # unpacked where something reads them (see `section_tail`).
        self._section_info: list[tuple] = []
        # Hot-loop key compression: guard-lane slices (cache block + version,
        # directory block), message records and send lists are interned to
        # dense small ints at first sight, so every memo probe on the
        # per-row path hashes a tuple of 2-3 machine ints instead of 10-20
        # lane values.  Guard interning itself is vectorized: one
        # ``np.unique`` per cache per level maps every row to its guard ID
        # and access-outcome tuple (computed once per distinct guard through
        # the compiled per-transition functions).  The tables are unbounded
        # but tiny -- they key on *distinct component values*, which
        # saturate early -- and IDs stay valid across memo clears.
        self._guard_tables: list[dict] = [{} for _ in range(self.num_caches)]
        self._dir_table: dict[bytes, int] = {}
        self._next_gid = 0
        self._rec_ids: dict[tuple, int] = {}
        self._sends_ids: dict[tuple, int] = {(): 0}
        # Outcome memos (see class docstring): distinct keys are evaluated
        # once through the compiled per-transition functions.
        self._deliv_memo: dict[tuple, object] = {}
        self._tail_memo: dict[tuple, int] = {}
        # Invariant lane tables for the batch checker: permission/stability
        # of each cache FSM state, indexed by the cache-state lane value.
        spec = self.kernel.spec
        self._perm_table = _np.asarray(spec.cache.permission, dtype=_np.int8)
        self._stable_table = _np.asarray(spec.cache.stable, dtype=bool)

    def _lane_ops_confined(self) -> bool:
        """Every compiled transition's footprint fits the batch model.

        The lane-op descriptors are the soundness proof for delta reuse: a
        transition reading or writing outside the known field catalog would
        make the memo keys incomplete, so it must force the whole-search
        fallback rather than be silently mis-batched.
        """
        spec = self.kernel.spec
        try:
            for row in spec.cache.on_access:
                for ct in row:
                    if ct is not None:
                        transition_lane_ops(ct, is_cache=True)
            for row in spec.cache.on_message:
                for cands in row.values():
                    for ct in cands:
                        transition_lane_ops(ct, is_cache=True)
            for row in spec.directory.on_message:
                for cands in row.values():
                    for ct in cands:
                        transition_lane_ops(ct, is_cache=False)
        except CompilationUnsupported:
            return False
        return True

    # -- network-section interning -------------------------------------------------
    def intern_section(self, packed_tail: bytes) -> int:
        """Dense ID for a packed network section (hash-consed): the bytes
        past ``codec.net_byte_offset`` of a state's key."""
        sid = self._section_ids.get(packed_tail)
        if sid is None:
            sid = len(self._section_info)
            self._section_ids[packed_tail] = sid
            net = self.codec.parsed_section(packed_tail)
            rec_ids = self._rec_ids
            deliveries = []
            for where, rec, _eev in net[2]:
                rid = rec_ids.get(rec)
                if rid is None:
                    rid = rec_ids[rec] = len(rec_ids)
                deliveries.append((where, rec, rid))
            self._section_info.append((packed_tail, net, tuple(deliveries)))
        return sid

    def section_tail(self, sid: int) -> tuple:
        """The section's lanes -- rebuilt per call: they are read on memo
        misses, leaf rows and relabels only, and a resident copy per
        section would cost more than the packed tails themselves."""
        return self.codec.unpack(self._section_info[sid][0])

    # -- rows: a whole state as one fixed-width matrix row -------------------------
    def widen(self, prefixes, sids):
        """The row matrix of states given as a prefix-lane matrix and their
        section IDs: each prefix row followed by its section ID -- a 32-bit
        value viewed as however many lanes it spans (4, 2 or 1).  Sections
        are hash-consed, so a row's bytes are a bijection with the state's
        packed key: one void view of them keys the whole state, prefix and
        tail, and the search's visited set stores exactly these rows."""
        np = self.np
        n, lanes = prefixes.shape
        M = np.empty((n, self.row_lanes), dtype=self.dtype)
        M[:, :lanes] = prefixes
        M[:, lanes:] = (
            np.asarray(sids, dtype=np.uint32)
            .view(self.dtype)
            .reshape(n, self.row_lanes - lanes)
        )
        return M

    def sids_of(self, M) -> list:
        """The section ID of each row of row matrix *M*."""
        np = self.np
        tail = np.ascontiguousarray(M[:, self.net_offset :])
        return tail.view(np.uint32).ravel().tolist()

    def rows_of(self, keys):
        """Row matrix of packed *keys*: prefix bytes stacked as they are,
        packed tails hash-consed to section IDs -- no lane tuple is built."""
        cut = self.codec.net_byte_offset
        prefixes = self.np.frombuffer(
            b"".join([key[:cut] for key in keys]), dtype=self.dtype
        )
        return self.widen(
            prefixes.reshape(len(keys), self.net_offset),
            [self.intern_section(key[cut:]) for key in keys],
        )

    def row_bytes_of(self, enc: tuple) -> bytes:
        """The bytes of the row of one encoded state (what :meth:`widen`
        would lay out for it)."""
        no = self.net_offset
        pack = self.codec.pack
        return pack(enc[:no]) + _SECTION_ID.pack(self.intern_section(pack(enc[no:])))

    def keys_of(self, M) -> list:
        """Packed keys of the rows of *M* (inverse of :meth:`rows_of`)."""
        cut = self.codec.net_byte_offset
        prefixes = self.np.ascontiguousarray(M[:, : self.net_offset]).tobytes()
        info = self._section_info
        return [
            prefixes[pos * cut : (pos + 1) * cut] + info[sid][0]
            for pos, sid in enumerate(self.sids_of(M))
        ]

    # -- level collection ----------------------------------------------------------
    def _guard_ids_level(self, F):
        """Vectorized guard interning for one frontier matrix.

        One ``np.unique`` per cache maps every row to its guard ID (a dense
        int naming the distinct ``(cache block, version)`` slice) and its
        access-outcome tuple; one more handles the directory block.  Memo
        misses -- the only place transition code actually runs -- evaluate
        the compiled per-transition functions on the first row carrying the
        guard as the representative.  Returns ``(acc_rows, gid_rows,
        dgid_rows)``: per-cache outcome/ID lists indexed by row position,
        plus the per-row directory guard IDs.
        """
        np = self.np
        width = self.cache_width
        vo = self.version_offset
        d0 = self.dir_offset
        nrows = F.shape[0]
        itemsize = F.dtype.itemsize
        acc_rows = []
        gid_rows = []
        for cid in range(self.num_caches):
            base = cid * width
            gsub = np.empty((nrows, width + 1), dtype=F.dtype)
            gsub[:, :width] = F[:, base : base + width]
            gsub[:, width] = F[:, vo]
            gb = gsub.view(np.dtype((np.void, (width + 1) * itemsize))).ravel()
            uniq, first, inv = np.unique(
                gb, return_index=True, return_inverse=True
            )
            table = self._guard_tables[cid]
            pairs = []
            for vb, fi in zip(uniq, first.tolist()):
                key = vb.tobytes()
                pair = table.get(key)
                if pair is None:
                    prefix = tuple(F[fi].tolist())
                    gid = self._next_gid
                    self._next_gid = gid + 1
                    pair = table[key] = (gid, self._compute_access(cid, prefix))
                pairs.append(pair)
            inv_list = inv.tolist()
            gid_rows.append([pairs[k][0] for k in inv_list])
            acc_rows.append([pairs[k][1] for k in inv_list])
        dsub = np.ascontiguousarray(F[:, d0:vo])
        db = dsub.view(np.dtype((np.void, (vo - d0) * itemsize))).ravel()
        uniq, _first, inv = np.unique(db, return_index=True, return_inverse=True)
        dtable = self._dir_table
        dgids = []
        for vb in uniq:
            key = vb.tobytes()
            dgid = dtable.get(key)
            if dgid is None:
                dgid = dtable[key] = len(dtable)
            dgids.append(dgid)
        dgid_rows = [dgids[k] for k in inv.tolist()]
        return acc_rows, gid_rows, dgid_rows

    def collect_level(self, ids: list, F, sids: list) -> LevelExpansion:
        """Enumerate every row's plans in exact serial order via memo probes.

        Guard lanes are interned in bulk (:meth:`_guard_ids_level`), so the
        per-row loop -- the batch path's only per-row Python code -- touches
        nothing but small-int list lookups and small-int-tuple memo probes
        while emitting flat successor/delta arrays for :meth:`assemble`.
        """
        n = self.num_caches
        width = self.cache_width
        deliv_memo = self._deliv_memo
        tail_memo = self._tail_memo
        section_info = self._section_info
        acc_rows, gid_rows, dgid_rows = self._guard_ids_level(F)
        level = LevelExpansion()
        parent_pos = level.parent_pos
        eevs = level.eevs
        out_sids = level.sids
        flat_cols = level.flat_cols
        flat_vals = level.flat_vals
        lens = level.lens
        nrows = F.shape[0]
        for pos in range(nrows):
            succ_start = len(parent_pos)
            flat_start = len(flat_cols)
            fallback = False
            sid = sids[pos]
            row_prefix = None  # built lazily, only on a delivery-memo miss
            for cid in range(n):
                for out in acc_rows[cid][pos]:
                    if out is _FALLBACK:
                        fallback = True
                        break
                    eev, cols, vals, nlanes, sends, sends_id = out
                    if sends_id:
                        tkey = (sid, -1, sends_id)
                        sid2 = tail_memo.get(tkey)
                        if sid2 is None:
                            sid2 = self._emit_tail(sid, None, sends, tkey)
                    else:
                        sid2 = sid  # no sends, nothing delivered: same section
                    parent_pos.append(pos)
                    eevs.append(eev)
                    out_sids.append(sid2)
                    flat_cols.extend(cols)
                    flat_vals.extend(vals)
                    lens.append(nlanes)
                if fallback:
                    break
            if not fallback:
                for where, rec, rec_id in section_info[sid][2]:
                    dst = rec[2]
                    if dst == 1:
                        dkey = (rec_id, -1, dgid_rows[pos])
                        out = deliv_memo.get(dkey, _MISS)
                        if out is _MISS:
                            if row_prefix is None:
                                row_prefix = tuple(F[pos].tolist())
                            out = self._compute_delivery(
                                rec, None, None, row_prefix, dkey
                            )
                    else:
                        cid = dst - 2
                        dkey = (rec_id, cid, gid_rows[cid][pos])
                        out = deliv_memo.get(dkey, _MISS)
                        if out is _MISS:
                            if row_prefix is None:
                                row_prefix = tuple(F[pos].tolist())
                            out = self._compute_delivery(
                                rec, cid * width, cid, row_prefix, dkey
                            )
                    if out is None:  # stalled delivery: not an enabled plan
                        continue
                    if out is _FALLBACK:
                        fallback = True
                        break
                    eev, cols, vals, nlanes, sends, sends_id = out
                    tkey = (sid, where, sends_id)
                    sid2 = tail_memo.get(tkey)
                    if sid2 is None:
                        sid2 = self._emit_tail(sid, where, sends, tkey)
                    parent_pos.append(pos)
                    eevs.append(eev)
                    out_sids.append(sid2)
                    flat_cols.extend(cols)
                    flat_vals.extend(vals)
                    lens.append(nlanes)
            if fallback:
                # Invalidate the row's collected successors; the driver
                # replays the whole level through the compiled per-state
                # loop to preserve exact serial failure order.
                del parent_pos[succ_start:]
                del eevs[succ_start:]
                del out_sids[succ_start:]
                del flat_cols[flat_start:]
                del flat_vals[flat_start:]
                del lens[succ_start:]
                level.fallbacks.append(pos)
                continue
            if len(parent_pos) == succ_start:
                level.leaves.append((succ_start, ids[pos], pos))
        return level

    def assemble(self, F, level: LevelExpansion):
        """Build the successor lane matrix and dedup it, all vectorized.

        ``gather`` (parent rows fan out to successor rows via fancy
        indexing), ``scatter`` (every collected lane delta lands in one
        flat indexed assignment), ``dedup`` (one ``np.unique`` over the
        row bytes).  Returns ``(M, order)``: the successor row matrix
        (:meth:`widen`: a row's bytes key the whole raw successor) and the
        indices of the distinct raw successors in first-occurrence (serial
        stream) order.
        """
        np = self.np
        M = self.widen(
            F[np.asarray(level.parent_pos, dtype=np.intp)], level.sids
        )
        if level.flat_cols:
            rows = np.repeat(
                np.arange(len(level.lens), dtype=np.intp),
                np.asarray(level.lens, dtype=np.intp),
            )
            M[rows, np.asarray(level.flat_cols, dtype=np.intp)] = np.asarray(
                level.flat_vals, dtype=self.dtype
            )
        row_bytes = M.view(
            np.dtype((np.void, M.shape[1] * M.dtype.itemsize))
        ).ravel()
        _, first = np.unique(row_bytes, return_index=True)
        first.sort()
        return M, first

    def check_level(self, V, codes: tuple):
        """Default-invariant verdicts for a successor matrix, as a lane mask.

        *V* is any matrix whose leading lanes are codec prefix lanes (the
        driver passes the widened distinct-successor matrix; trailing
        section-ID lanes are ignored).  Returns a boolean row mask -- True
        where SWMR **and** single-owner hold -- or ``None`` when *codes* is
        not the fused default pair (custom/litmus codes keep the per-row
        ``TransitionKernel.check``).  Soundness note: SWMR and single-owner
        aggregate over the cache-state lanes symmetrically, so the mask
        computed on *raw* successor rows equals the verdicts of their
        canonical representatives -- which is what lets the driver mask the
        whole level before any per-row canonical encoding is even built.
        """
        if codes != DEFAULT_CODES:
            return None
        np = self.np
        width = self.cache_width
        cols = np.arange(self.num_caches, dtype=np.intp) * width
        S = V[:, cols].astype(np.intp, copy=False)
        P = self._perm_table[S]
        is_writer = P == 2
        writers = is_writer.sum(axis=1)
        readers = (P == 1).sum(axis=1)
        stable_writers = (is_writer & self._stable_table[S]).sum(axis=1)
        return ~(
            (writers > 1)
            | ((writers > 0) & (readers > 0))
            | (stable_writers > 1)
        )

    # -- memo-miss evaluation (the only transition code on the batch path) ---------
    def _confined_delta(self, prefix: tuple, out: list, base):
        """Changed-lane delta, verified confined to the expected block.

        *base* is the cache-block offset (allowed lanes: the block plus the
        version lane) or ``None`` for the directory (allowed lanes: the
        directory block).  A write outside the allowance would make the
        memo key unsound, so it routes to the fallback instead.
        """
        cols = []
        vals = []
        for lane, (old, new) in enumerate(zip(prefix, out)):
            if old != new:
                cols.append(lane)
                vals.append(new)
        # The scatter narrows these to the lane dtype, and NumPy wraps
        # where ``codec.pack`` raises: check here, once per distinct delta.
        if vals and max(vals) > self.codec.lane_max:
            raise self.codec.overflow(max(vals))
        if base is None:
            lo, hi = self.dir_offset, self.version_offset
            for lane in cols:
                if not lo <= lane < hi:
                    return None
        else:
            hi = base + self.cache_width
            vo = self.version_offset
            for lane in cols:
                if not (base <= lane < hi or lane == vo):
                    return None
        return (tuple(cols), tuple(vals))

    def _intern_sends(self, sends: tuple) -> int:
        """Dense integer ID for an outbound-message tuple (``() -> 0``)."""
        sends_id = self._sends_ids.get(sends)
        if sends_id is None:
            sends_id = self._sends_ids[sends] = len(self._sends_ids)
        return sends_id

    def _compute_access(self, cid: int, prefix: tuple) -> tuple:
        """All access outcomes for one distinct cache guard slice; computed
        once per guard ID and stored in the guard table by the caller."""
        k = self.kernel
        base = cid * self.cache_width
        si = prefix[base + CF_STATE]
        if prefix[base + 1] >= k.max_accesses or not k.spec.cache.stable[si]:
            return ()  # CF_ISSUED budget spent / transient: no plans
        acc = []
        for ai, ct, fn in k._access_plans[si]:
            out = list(prefix)
            out[base + 1] += 1          # CF_ISSUED
            out[base + CF_PENDING] = ai + 1
            sends: list = []
            if fn is not None and not fn(out, base, cid, None, ai, sends):
                acc.append(_FALLBACK)
                continue
            out[base + CF_STATE] = ct.next_state
            if ct.has_perform:
                out[base + CF_PENDING] = 0
            delta = self._confined_delta(prefix, out, base)
            if delta is None:
                acc.append(_FALLBACK)
                continue
            cols, vals = delta
            s = tuple(sends)
            acc.append((
                k._access_eevs[cid][ai], cols, vals, len(cols), s,
                self._intern_sends(s),
            ))
        return tuple(acc)

    def _compute_delivery(self, rec: tuple, base, cid, prefix: tuple, dkey: tuple):
        """Outcome for one delivery key; mirrors ``TransitionKernel.enabled``
        + ``apply`` for a single plan, minus the network splice (which is
        keyed separately on the section).  Stores into the memo itself."""
        k = self.kernel
        if base is None:  # directory delivery
            cands = k.spec.directory.on_message[prefix[self.dir_offset]].get(rec[0])
        else:
            cands = k.spec.cache.on_message[prefix[base + CF_STATE]].get(rec[0])
        outcome = self._delivery_outcome(k, rec, base, cid, prefix, cands)
        if len(self._deliv_memo) >= _MEMO_LIMIT:
            self._deliv_memo.clear()
        self._deliv_memo[dkey] = outcome
        return outcome

    def _delivery_outcome(self, k, rec, base, cid, prefix, cands):
        if not cands:
            return _FALLBACK  # unexpected message -> object-executor error
        if len(cands) == 1 and cands[0].guard == 0:
            ct = cands[0]
        else:
            ct = k._select(cands, rec, prefix, base, self.dir_offset)
        if ct is None or ct is AMBIGUOUS:
            return _FALLBACK
        if ct.stall:
            return None
        out = list(prefix)
        sends: list = []
        if base is None:
            if not k._dir_fns[id(ct)](out, rec, sends):
                return _FALLBACK
        else:
            pending = out[base + CF_PENDING]
            ai = pending - 1 if pending else None
            fn = k._cache_fns[id(ct)]
            if fn is not None and not fn(out, base, cid, rec, ai, sends):
                return _FALLBACK
            out[base + CF_STATE] = ct.next_state
            if ct.has_perform:
                out[base + CF_PENDING] = 0
        delta = self._confined_delta(prefix, out, base)
        if delta is None:
            return _FALLBACK
        cols, vals = delta
        s = tuple(sends)
        eev = self.codec.intern_event((1,) + rec)
        return (eev, cols, vals, len(cols), s, self._intern_sends(s))

    def _emit_tail(self, sid: int, where, sends: tuple, tkey: tuple) -> int:
        """Successor section ID for ``(section, delivered slot, sends id)``,
        via the compiled kernel's exact re-normalization."""
        tail = self.section_tail(sid)
        net = self._section_info[sid][1]
        out: list = []
        self.kernel._emit_net(out, tail, net, where, list(sends), 0, len(tail))
        sid2 = self.intern_section(self.codec.pack_tail(out))
        if len(self._tail_memo) >= _MEMO_LIMIT:
            self._tail_memo.clear()
        self._tail_memo[tkey] = sid2
        return sid2


__all__ = ["VectorizedKernel", "VectorizedUnavailable", "LevelExpansion"]
