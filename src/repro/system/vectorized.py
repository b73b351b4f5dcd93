"""Batch-vectorized frontier expansion: the NumPy lane-matrix kernel.

The compiled kernel (:mod:`repro.system.kernel`) already runs on flat int
tuples, but it still pays one Python dispatch per state per transition.
This module shifts the unit of work from *one state* to *one frontier
level*: states become rows of a 2-D NumPy lane matrix, and expansion becomes
batch gather / mask / scatter operations plus per-distinct-input Python work
that is shared across every row it applies to.

The design splits an encoding at the network boundary:

* the **fixed-width prefix** (cache blocks, directory block, latest
  version -- ``codec.layout()["net_offset"]`` lanes) lives in the matrix;
* the **variable-width network section** is hash-consed into a side table
  of section IDs, so each row is ``(prefix lanes..., section id)`` and the
  matrix stays rectangular.

The network itself is a *product of channels* -- per-``(src, dst, vnet)``
FIFO queues, or one bag for an unordered interconnect -- and it is
hash-consed as one: a **column** is a channel of a static, sorted universe
(``(src, dst, vnet)`` over all node pairs when ordered; ``(mtype, src)``, a
prefix of the record, when not), a **cell** is the hash-consed content of
one channel (a tuple of message-record IDs: FIFO order, or a bag sorted by
record; cell 0 is empty), and a **section** is its fixed-width vector of
cell IDs, a row of an exact :class:`~repro.system.rowtable.RowTable` whose
arena index *is* the section ID.  Sections multiply as a product of channel
contents; the channel contents themselves saturate after a few hundred
values, so everything that needs Python runs per cell, not per section.

Expansion then exploits the locality the lane-op descriptors
(:func:`repro.core.fsm.transition_lane_ops`) prove: a compiled transition
reads and writes nothing outside *its controller's block*, the shared
version lane, the delivered message, and the network section.  Its effect
is therefore a pure function of a small key -- ``(message, receiver block,
version)`` for deliveries, ``(cache id, block, version)`` for accesses,
``(section id, delivered record, sends)`` for the network splice -- and
those keys recur across far more rows than they have distinct values.  Each
distinct delivery or access key is evaluated **once**, by running the
existing per-transition specialized function
(:meth:`TransitionKernel._compile_cache_fn` / ``_compile_directory_fn``) on
a representative row and diffing -- exact by construction -- and what it
yields is kept in **append-only plan tables** that a level indexes as a
whole, so no Python statement runs per row:

* **guard IDs** -- every distinct ``(cache block, version)`` slice of each
  cache, and every distinct directory block, is a dense int drawn from one
  counter (so a guard ID names its receiver);
* the **outcome table** -- every distinct ``(event, lane delta, sends)``
  has a dense outcome ID: its interned event tuple, the ID of its send
  list (record IDs, a CSR), and its delta in CSR form.  A cache guard's
  access plans are a CSR ``guard ID -> outcome IDs``; a delivery is
  memoized as ``(message record ID, receiver guard ID) -> outcome ID``,
  *stalled* or *fallback*;
* the **section table** -- the cell-ID vectors, and next to each its
  deliverable messages as a CSR ``section ID -> message record IDs``
  (every non-empty cell's head, or a bag's distinct records, columns in
  order -- the serial delivery order), a record ID naming the interned
  message, its destination and its column;
* the **tail memo** -- ``(section ID, delivered record ID + 1, send-list
  ID) -> successor section ID`` as two sorted arrays, probed with one
  ``searchsorted`` per level.  The distinct keys a level misses are spliced
  *together* as array operations (:meth:`VectorizedKernel._emit_tails`):
  gather the source vectors, replace the delivered record's column by
  ``remove(cell, record)``, each send's column by ``insert(cell, record)``,
  intern the vectors with one table probe -- ``remove`` / ``insert`` being
  two memoized functions on cells, the only place the network kinds differ
  (FIFO append vs sorted insert; first record vs distinct records).

:meth:`VectorizedKernel.collect_level` gathers a level's successors out of
these tables as three integer arrays -- parent row, outcome ID, successor
section ID -- in exact serial plan order, and
:meth:`~VectorizedKernel.assemble` scatters the outcomes' lane deltas into
the gathered parent rows.  Python runs once per *distinct* guard, delivery
key and ``(cell, record, operation)`` of a level (a dict probe, or on a
first sight the transition code itself / one tuple), never per row, per
successor, per tail key or per section.  Raw successors
then dedup **vectorized**: one ``np.unique`` over the row bytes (prefix
lanes + section-ID lanes, :meth:`VectorizedKernel.widen`) per level
replaces per-successor set probes.  Because sections are hash-consed, such
a row is a bijection with the state's packed key, so the search keeps its
visited set as a table of these very rows
(:class:`~repro.system.rowtable.RowTable` again) and a packed key -- or a
section's packed tail, or its lanes -- is built only at a boundary:
:meth:`~VectorizedKernel.rows_of` / :meth:`~VectorizedKernel.keys_of`
convert, for a checkpoint, a per-state fallback level or a violation
report; :meth:`~VectorizedKernel.packed_tails` /
:meth:`~VectorizedKernel.section_tail` rebuild a section's tail, for a
level's symmetry relabels or a leaf row.  Each boundary works on all it is handed at once (the
distinct unknown tails parsed, then one table probe) and keeps a bounded
cache, so a section the hot path created has no packed tail and no parse
handle unless something asked.

The compiled interpreter stays on as the differential oracle (its
:meth:`TransitionKernel._emit_net` is what the array splice is tested
against) and the
fallback: any plan the batch path cannot express (unexpected message,
ambiguous guards, missing data/requestor -- anything the compiled kernel
itself would route to the object executor -- or a tail key wider than its
bit field) flips its whole frontier level to the per-state compiled loop,
preserving the exact serial failure order; fault models, multi-address
planes and litmus workloads fall back whole-search
(``VectorizedKernel.supported`` is False).  The fault-free single-address
hot path never leaves the batch loop -- pinned as zero fallback transitions
and zero object decodes in the engine tests.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from itertools import groupby

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
from repro.system.rowtable import RowTable

try:  # NumPy is an optional dependency of the engine (requirements-dev).
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via monkeypatching
    _np = None


class VectorizedUnavailable(RuntimeError):
    """``kernel="vectorized"`` was requested but NumPy is not installed."""


#: In place of an outcome ID: a stalled delivery (not an enabled plan).
_STALLED = -1
#: In place of an outcome ID: this plan must take the compiled/object slow
#: path.
_FALLBACK = -2

#: Bound on each of the per-kernel memos -- delivery, tail, cell-operation,
#: and the two boundary caches between packed tails and section IDs
#: (cleared when hit, like the codec's component memos -- correctness never
#: depends on a memo hit, and a clear drops keys only: outcome, send-list,
#: record, cell and section IDs stay valid).
_MEMO_LIMIT = 1 << 20

#: Bits of a tail-memo key given to the delivered record ID + 1 and to the
#: send-list ID each (the section ID takes the rest); a level holding a
#: wider value replays per state instead of wrapping.
_TAIL_FIELD_BITS = 16


def _ranges(np, starts, counts):
    """Gather plan for the CSR ranges ``[starts[i], starts[i] + counts[i])``:
    ``(owner, index)`` -- for every element of every range, range after
    range, the *i* it belongs to and its position in the CSR data."""
    ends = np.cumsum(counts, dtype=np.intp)
    owner = np.repeat(np.arange(len(counts), dtype=np.intp), counts)
    index = np.arange(len(owner), dtype=np.intp)
    index += np.repeat(starts - (ends - counts), counts)
    return owner, index


class LevelExpansion:
    """One collected frontier level, ready for matrix assembly.

    Three parallel integer arrays, one entry per successor in exact serial
    plan order: ``parent_pos`` (the parent's row in the level), ``oids``
    (the outcome that produced it: event and lane delta live in the
    kernel's outcome table) and ``sids`` (its network-section ID).
    ``leaves`` are the zero-plan rows and ``fallbacks`` the row positions
    that need the compiled per-state path (non-empty ``fallbacks`` means no
    successors were collected -- the driver re-runs the level serially).  A
    leaf records the number of successors collected before it, which
    totally orders leaves against successors: leaf ``(k, ...)`` precedes
    successor index ``u`` exactly when ``k <= u``, so failure detection
    replays in exact serial stream order without per-successor sequence
    bookkeeping.
    """

    __slots__ = ("parent_pos", "oids", "sids", "leaves", "fallbacks")

    def __init__(self, parent_pos, oids, sids, leaves=(), fallbacks=()):
        self.parent_pos = parent_pos      # parent row index per successor
        self.oids = oids                  # outcome ID per successor
        self.sids = sids                  # successor network-section ID
        self.leaves = leaves              # (successors_before, state_id, row_pos)
        self.fallbacks = fallbacks        # row positions needing slow path

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
        # The plan tables (module docstring).  All are append-only typed
        # arrays read through NumPy views taken per level -- a view pins its
        # array's size, so none outlives the method that takes it -- and
        # every ID is dense, first-sight ordered and never reused.
        #
        # Message records: a record ID names the interned 10-lane record,
        # its destination node and its column (below).
        self._rec_ids: dict[tuple, int] = {}
        self._recs: list[tuple] = []
        self._rec_dst = array("i")       # a record's encoded destination node
        self._rec_col = array("i")       # ... and the column it travels in
        # The network as a product of channels.  A *column* is one channel
        # of the static, sorted universe: ``(src, dst, vnet)`` when ordered,
        # ``(mtype, src)`` when not -- either way a slice of the record's
        # own lanes that sorts like the record, so "columns in order, each
        # cell's records in order" is the section's normalized lane order.
        # A *cell* is the hash-consed content of one channel -- record IDs
        # in FIFO order, or as a bag sorted by record -- with its
        # deliverable records (the head; a bag's distinct records) as a CSR;
        # cell 0 is the empty channel.
        nodes = range(1, self.num_caches + 2)
        if codec.ordered:
            vnets = sorted(set(self.kernel.spec.mtype_vnet))
            columns = [(src, dst, vnet) for src in nodes for dst in nodes
                       if src != dst for vnet in vnets]
            self._col_lanes = slice(1, 4)
        else:
            columns = [(mtype, src) for mtype in range(len(codec.mtypes))
                       for src in nodes]
            self._col_lanes = slice(0, 2)
        self._col_of = {key: col for col, key in enumerate(sorted(columns))}
        self._cell_ids: dict[tuple, int] = {(): 0}
        self._cells: list[tuple] = [()]
        self._cell_len = array("i", [0])
        self._cell_ptr = array("i", [0, 0])
        self._cell_heads = array("i")
        # ``(cell, record, insert?) -> cell``: the two functions a splice
        # is made of, memoized.
        self._cell_ops: dict[int, int] = {}
        # Section table: a section is its vector of cell IDs over the
        # columns, hash-consed in an exact row table whose arena index is
        # the section ID; per ID its deliverable records, in delivery
        # order, as a CSR.
        self._sections = RowTable(_np, 4 * len(columns))
        self._sec_ptr = array("i", [0])
        self._sec_rec = array("i")       # message record ID
        # The boundary caches: packed tail -> section ID (`intern_sections`)
        # and section ID -> packed tail (`packed_tails`).
        self._tail_ids: dict[bytes, int] = {}
        self._packed: dict[int, bytes] = {}
        # Guard IDs: per receiver (0: the directory, ``1 + cid``: a cache)
        # its guard slice's bytes -- the directory block, or the cache
        # block + version -- to one shared counter.  The access CSR is
        # indexed by it (a directory guard's range is empty) and holds
        # outcome IDs, or `_FALLBACK`.  Unbounded but tiny: distinct
        # component values saturate early.
        self._guards: list[dict] = [{} for _ in range(1 + self.num_caches)]
        self._acc_ptr = array("i", [0])
        self._acc_oids = array("i")
        # Outcome table: (event, delta columns, delta values, sends) <->
        # dense outcome ID; send lists (tuples of record IDs) are interned
        # the same way.
        self._outcome_ids: dict[tuple, int] = {}
        self._out_eevs: list[tuple] = []
        self._out_sends = array("i")     # send-list ID
        self._out_ptr = array("i", [0])
        self._out_cols = array("i")
        self._out_vals = array(codec.typecode)
        self._sends_ids: dict[tuple, int] = {(): 0}
        self._sends_ptr = array("i", [0, 0])
        self._sends_rec = array("i")     # the send lists' record IDs, a CSR
        # Delivery memo: ``rec_id << 32 | gid`` -> outcome ID, `_STALLED`
        # or `_FALLBACK`.
        self._deliv_memo: dict[int, int] = {}
        # Tail memo: sorted keys and their successor section IDs.  The last
        # key is a sentinel above every real one, so a probe's insertion
        # point always indexes the arrays.
        self._reset_tails()
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

    # -- what a search retains (``result.stats``) ----------------------------------
    @property
    def section_entries(self) -> int:
        """Distinct network sections hash-consed so far."""
        return len(self._sections)

    @property
    def cell_entries(self) -> int:
        """Distinct non-empty channel contents hash-consed so far."""
        return len(self._cells) - 1

    @property
    def record_entries(self) -> int:
        """Distinct message records interned so far."""
        return len(self._recs)

    @property
    def tail_memo_entries(self) -> int:
        """``(section, delivered record, sends)`` keys the tail memo holds."""
        return len(self._tail_keys) - 1

    @property
    def outcome_entries(self) -> int:
        """Distinct ``(event, lane delta, sends)`` outcomes evaluated so far."""
        return len(self._out_eevs)

    # -- records, cells, sections --------------------------------------------------
    def _record_id(self, rec: tuple) -> int:
        """Dense ID of message record *rec*.  A first sight is where a lane
        value that outgrew its width is caught: the hot path packs no tail,
        so nothing downstream would."""
        rid = self._rec_ids.get(rec)
        if rid is None:
            if max(rec) > self.codec.lane_max:
                raise self.codec.overflow(max(rec))
            col = self._col_of.get(rec[self._col_lanes])
            if col is None:
                raise ValueError(
                    f"message record {rec} travels no channel of the batch "
                    "kernel's column universe (a node sending to itself, or "
                    "an unknown virtual network); use kernel=\"compiled\""
                )
            rid = self._rec_ids[rec] = len(self._recs)
            self._recs.append(rec)
            self._rec_dst.append(rec[2])
            self._rec_col.append(col)
        return rid

    def _cell_id(self, rids: tuple) -> int:
        """Dense ID of the channel content *rids* (record IDs in the
        channel's order); a first sight files its deliverable records."""
        cell = self._cell_ids.get(rids)
        if cell is None:
            if len(rids) > self.codec.lane_max:
                raise self.codec.overflow(len(rids))
            cell = self._cell_ids[rids] = len(self._cells)
            self._cells.append(rids)
            self._cell_len.append(len(rids))
            if self.codec.ordered:
                self._cell_heads.append(rids[0])
            else:
                # Identical in-flight messages lead to the same successor:
                # the bag's distinct records (equal ones are adjacent).
                self._cell_heads.extend(
                    rid for at, rid in enumerate(rids)
                    if at == 0 or rid != rids[at - 1]
                )
            self._cell_ptr.append(len(self._cell_heads))
        return cell

    def _cell_op(self, cell: int, rid: int, insert: int) -> int:
        """The cell that *cell* becomes when record *rid* is sent into it
        (*insert*: FIFO append, or sorted insert by record) or delivered
        out of it (a FIFO only ever loses its head, a bag one occurrence)."""
        rids = self._cells[cell]
        if not insert:
            at = rids.index(rid)
            return self._cell_id(rids[:at] + rids[at + 1 :])
        if self.codec.ordered:
            return self._cell_id(rids + (rid,))
        recs = self._recs
        at = bisect_right(rids, recs[rid], key=recs.__getitem__)
        return self._cell_id(rids[:at] + (rid,) + rids[at:])

    def _cell_ops_of(self, cells, rids, insert: int):
        """:meth:`_cell_op` over parallel arrays of cell and record IDs:
        one memo probe per distinct pair."""
        np = self.np
        keys = (cells.astype(np.int64) << 32 | rids) << 1 | insert
        uniq, inv = np.unique(keys, return_inverse=True)
        uniq = uniq.tolist()
        memo = self._cell_ops
        found = list(map(memo.get, uniq))
        for k, cell in enumerate(found):
            if cell is None:
                if len(memo) >= _MEMO_LIMIT:
                    memo.clear()
                key = uniq[k]
                found[k] = memo[key] = self._cell_op(
                    key >> 33, key >> 1 & 0xFFFF_FFFF, insert
                )
        return np.asarray(found, dtype=np.uint32)[inv]

    def _intern_vectors(self, V):
        """Section IDs (a ``uint32`` array) of the rows of *V*, cell-ID
        vectors over the columns: one table probe, and the deliveries of
        the sections it had not seen -- every non-empty cell's deliverable
        records, columns in order -- appended to the section CSR."""
        np = self.np
        known = len(self._sections)
        sids = self._sections.intern(V).astype(np.uint32)
        if len(self._sections) == known:
            return sids
        W = self._sections.rows(np.uint32)[known:]
        owner, column = np.nonzero(W)  # row-major: a section's columns in order
        cells = W[owner, column]
        del W  # an arena view dies before the table's next insertion
        # The packed tail's count lane, which nobody packs here: the
        # channels of an ordered section, the messages of an unordered one.
        load = np.bincount(
            owner, minlength=len(self._sections) - known,
            weights=None if self.codec.ordered
            else np.frombuffer(self._cell_len, dtype=np.int32)[cells],
        )
        ptr = np.frombuffer(self._cell_ptr, dtype=np.int32)
        starts = ptr[cells]
        cell_of, index = _ranges(np, starts, ptr[cells + 1] - starts)
        del ptr  # the raise below must leave no view in its traceback
        self._sec_rec.frombytes(
            np.frombuffer(self._cell_heads, dtype=np.int32)[index].tobytes()
        )
        ends = np.bincount(owner[cell_of], minlength=len(load)).cumsum()
        ends += self._sec_ptr[-1]
        self._sec_ptr.frombytes(ends.astype(np.int32).tobytes())
        if load.max() > self.codec.lane_max:
            raise self.codec.overflow(int(load.max()))
        return sids

    def _cells_of(self, packed_tail: bytes) -> list:
        """``(column, cell ID)`` of every non-empty channel of a packed
        section, through the codec's (memoized) parse."""
        items = self.codec.parsed_section(packed_tail)[0]
        col_of = self._rec_col
        if self.codec.ordered:
            groups = [tuple(map(self._record_id, item[3])) for item in items]
        else:
            groups = [
                tuple(group) for _, group in
                groupby(map(self._record_id, items), key=col_of.__getitem__)
            ]
        return [(col_of[rids[0]], self._cell_id(rids)) for rids in groups]

    def intern_sections(self, packed_tails):
        """Section IDs (a ``uint32`` array) of packed network sections (the
        bytes past ``codec.net_byte_offset`` of a state's key): the boundary
        into the batch kernel.  The distinct tails the boundary cache does
        not hold are parsed into vectors and probed against the section
        table together."""
        np = self.np
        memo = self._tail_ids
        found = list(map(memo.get, packed_tails))
        missing = dict.fromkeys(
            tail for tail, sid in zip(packed_tails, found) if sid is None
        )
        if missing:
            V = np.zeros((len(missing), len(self._col_of)), dtype=np.uint32)
            for row, tail in enumerate(missing):
                for col, cell in self._cells_of(tail):
                    V[row, col] = cell
            for tail, sid in zip(missing, self._intern_vectors(V).tolist()):
                if len(memo) >= _MEMO_LIMIT:
                    memo.clear()
                missing[tail] = memo[tail] = sid
            found = [
                missing[tail] if sid is None else sid
                for tail, sid in zip(packed_tails, found)
            ]
        return np.asarray(found, dtype=np.uint32)

    def intern_section(self, packed_tail: bytes) -> int:
        """:meth:`intern_sections` for one packed section."""
        return int(self.intern_sections((packed_tail,))[0])

    def packed_tails(self, sids) -> list:
        """The packed tail of each section ID in *sids* (a sequence of
        ints), rebuilt from its vector (columns in order, each cell's
        records in order) where the boundary cache does not hold it: the
        boundary out of the batch kernel, a batch at a time."""
        memo = self._packed
        tails = list(map(memo.get, sids))
        missing = [k for k, tail in enumerate(tails) if tail is None]
        if missing:
            vectors = self._sections.rows(self.np.uint32)[
                [sids[k] for k in missing]
            ].tolist()
            ordered = self.codec.ordered
            cells = self._cells
            recs = self._recs
            for k, vector in zip(missing, vectors):
                lanes = [0]
                for cell in filter(None, vector):
                    rids = cells[cell]
                    if ordered:
                        lanes[0] += 1
                        lanes.extend(recs[rids[0]][1:4])
                        lanes.append(len(rids))
                    else:
                        lanes[0] += len(rids)
                    for rid in rids:
                        lanes.extend(recs[rid])
                if len(memo) >= _MEMO_LIMIT:
                    memo.clear()
                tails[k] = memo[sids[k]] = self.codec.pack(lanes)
        return tails

    def section_tail(self, sid: int) -> tuple:
        """The section's lanes -- unpacked per call from the boundary
        cache's packed tail: they are read on leaf rows only."""
        packed = self._packed.get(sid)
        if packed is None:
            packed = self.packed_tails((sid,))[0]
        return self.codec.unpack(packed)

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

    def sids_of(self, M):
        """The section ID of each row of row matrix *M* (a ``uint32``
        array)."""
        np = self.np
        tail = np.ascontiguousarray(M[:, self.net_offset :])
        return tail.view(np.uint32).ravel()

    def rows_of(self, keys):
        """Row matrix of packed *keys*: prefix bytes stacked as they are,
        packed tails hash-consed to section IDs together
        (:meth:`intern_sections`) -- no lane tuple is built."""
        cut = self.codec.net_byte_offset
        prefixes = self.np.frombuffer(
            b"".join([key[:cut] for key in keys]), dtype=self.dtype
        )
        return self.widen(
            prefixes.reshape(len(keys), self.net_offset),
            self.intern_sections([key[cut:] for key in keys]),
        )

    def keys_of(self, M) -> list:
        """Packed keys of the rows of *M* (inverse of :meth:`rows_of`)."""
        cut = self.codec.net_byte_offset
        prefixes = self.np.ascontiguousarray(M[:, : self.net_offset]).tobytes()
        uniq, inv = self.np.unique(self.sids_of(M), return_inverse=True)
        tails = self.packed_tails(uniq.tolist())
        return [
            prefixes[pos * cut : (pos + 1) * cut] + tails[k]
            for pos, k in enumerate(inv.tolist())
        ]

    def events_of(self, oids) -> list:
        """The interned encoded event of each outcome ID in *oids*."""
        return list(map(self._out_eevs.__getitem__, oids.tolist()))

    # -- level collection ----------------------------------------------------------
    def _intern_guards(self, lanes, receiver: int, F):
        """Guard IDs of the rows of *lanes* (*receiver*'s guard slice of
        frontier *F*, C-contiguous): one ``np.unique`` over the row bytes,
        one table probe per distinct slice of the level.  A first sight
        draws the next ID and, for a cache (the directory has no access
        plans), evaluates its access plans on the first row carrying it."""
        np = self.np
        table = self._guards[receiver]
        size = lanes.shape[1] * lanes.dtype.itemsize
        uniq, first, inv = np.unique(
            lanes.view(np.dtype((np.void, size))).ravel(),
            return_index=True, return_inverse=True,
        )
        buf = uniq.tobytes()
        gids = []
        for k in range(len(uniq)):
            key = buf[k * size : (k + 1) * size]
            gid = table.get(key)
            if gid is None:
                gid = table[key] = len(self._acc_ptr) - 1
                if receiver:
                    self._acc_oids.extend(self._compute_access(
                        receiver - 1, tuple(F[first[k]].tolist())
                    ))
                self._acc_ptr.append(len(self._acc_oids))
            gids.append(gid)
        return np.asarray(gids, dtype=np.int32)[inv]

    def _guard_ids(self, F):
        """The guard IDs of frontier matrix *F* as one ``(1 + caches) x
        rows`` array, a row per receiver: row 0 the directory's, row ``1 +
        cid`` cache *cid*'s -- the row a message to encoded destination
        ``dst`` reads is ``dst - 1``."""
        np = self.np
        width = self.cache_width
        vo = self.version_offset
        G = np.empty((1 + self.num_caches, F.shape[0]), dtype=np.int32)
        G[0] = self._intern_guards(
            np.ascontiguousarray(F[:, self.dir_offset : vo]), 0, F
        )
        block = np.empty((F.shape[0], width + 1), dtype=F.dtype)
        block[:, width] = F[:, vo]
        for cid in range(self.num_caches):
            block[:, :width] = F[:, cid * width : (cid + 1) * width]
            G[1 + cid] = self._intern_guards(block, 1 + cid, F)
        return G

    def _access_successors(self, G):
        """Per cache, the access successors of every row: ``(parent_pos,
        oids)`` array pairs gathered from the access CSR on the cache's
        guard row."""
        np = self.np
        ptr = np.frombuffer(self._acc_ptr, dtype=np.int32)
        data = np.frombuffer(self._acc_oids, dtype=np.int32)
        segments = []
        for cid in range(self.num_caches):
            g = G[1 + cid]
            starts = ptr[g]
            owner, index = _ranges(np, starts, ptr[g + 1] - starts)
            segments.append((owner, data[index]))
        return segments

    def _delivery_successors(self, F, sids, G):
        """The delivery plans of every row: ``(parent_pos, oids, rec)``
        gathered from the section CSR on *sids* -- *rec* the delivered
        message record's ID -- their outcomes resolved once per distinct
        ``(message record, receiver guard)`` key of the level -- a memo
        probe, or a miss evaluated on the first row that carries it, in
        first-occurrence order -- stalled ones dropped."""
        np = self.np
        ptr = np.frombuffer(self._sec_ptr, dtype=np.int32)
        starts = ptr[sids]
        owner, index = _ranges(np, starts, ptr[sids + 1] - starts)
        # A miss below may raise (LaneOverflow): leave no view behind in a
        # frame the traceback keeps, where it would pin its table's size.
        del ptr
        rec = np.frombuffer(self._sec_rec, dtype=np.int32)[index]
        dst = np.frombuffer(self._rec_dst, dtype=np.int32)[rec]
        keys = rec.astype(np.int64) << 32 | G[dst - 1, owner]
        uniq, first, inv = np.unique(keys, return_index=True, return_inverse=True)
        uniq = uniq.tolist()
        memo = self._deliv_memo
        found = list(map(memo.get, uniq))
        misses = [k for k, oid in enumerate(found) if oid is None]
        misses.sort(key=first.__getitem__)
        for k in misses:
            at = first[k]
            if len(memo) >= _MEMO_LIMIT:
                memo.clear()
            found[k] = memo[uniq[k]] = self._compute_delivery(
                self._recs[rec[at]], tuple(F[owner[at]].tolist())
            )
        oids = np.asarray(found, dtype=np.int32)[inv]
        enabled = np.flatnonzero(oids != _STALLED)
        return owner[enabled], oids[enabled], rec[enabled]

    def collect_level(self, ids, F, sids) -> LevelExpansion:
        """Enumerate every row's plans in exact serial order, a level at a
        time, out of the plan tables.

        Guard IDs come first (:meth:`_guard_ids`); each cache's access
        successors are one CSR gather on its guard row, the deliveries one
        CSR gather on *sids* (the rows' section IDs, an integer array) plus
        one memo probe per distinct delivery key.  The segments are
        concatenated ``[cache 0, ..., cache n-1, deliveries]``, each in row
        order, so one stable sort on the row index *is* the serial plan
        order -- state IDs, traces and counts stay bit-identical to the
        per-state kernels.  Successor sections come from the tail memo
        (:meth:`_successor_sections`); leaves from a ``bincount`` of the
        parents.  Python runs per distinct guard, delivery key and tail key
        of the level (and per leaf), never per row or per successor.
        """
        np = self.np
        nrows = F.shape[0]
        sids = np.asarray(sids, dtype=np.uint32)
        G = self._guard_ids(F)
        segments = self._access_successors(G)
        d_parent, d_oids, d_rec = self._delivery_successors(F, sids, G)
        parent = np.concatenate([owner for owner, _oids in segments] + [d_parent])
        oids = np.concatenate([oids for _owner, oids in segments] + [d_oids])
        # Delivered record ID + 1 (a record names its channel); zero where
        # nothing is delivered (an access).
        slot = np.zeros(len(parent), dtype=np.int32)
        slot[len(parent) - len(d_parent) :] = d_rec + 1
        # Row positions as narrow as the level allows: a stable sort of
        # 16-bit keys is a radix sort.
        parent = parent.astype(np.uint16 if nrows <= 1 << 16 else np.uint32)
        order = np.argsort(parent, kind="stable")
        parent, oids, slot = parent[order], oids[order], slot[order]
        refused = oids == _FALLBACK
        if not refused.any():
            sends = np.frombuffer(self._out_sends, dtype=np.int32)[oids]
            refused = (slot | sends) >> _TAIL_FIELD_BITS != 0
        if refused.any():
            # The driver replays the whole level through the compiled
            # per-state loop to preserve exact serial failure order.
            return LevelExpansion(
                parent[:0], oids[:0], sids[:0],
                fallbacks=np.unique(parent[refused]).tolist(),
            )
        counts = np.bincount(parent, minlength=nrows)
        leaf_rows = np.flatnonzero(counts == 0)
        before = np.cumsum(counts)[leaf_rows]  # a leaf adds nothing itself
        return LevelExpansion(
            parent, oids, self._successor_sections(sids[parent], slot, sends),
            leaves=list(zip(
                before.tolist(), np.asarray(ids)[leaf_rows].tolist(),
                leaf_rows.tolist(),
            )),
        )

    def _reset_tails(self) -> None:
        """Empty the tail memo: the sentinel key alone."""
        np = self.np
        self._tail_keys = np.asarray([np.iinfo(np.int64).max], dtype=np.int64)
        self._tail_sids = np.zeros(1, dtype=np.uint32)

    def _successor_sections(self, src, slot, sends):
        """Successor section IDs for parallel arrays of source section ID,
        delivered record ID + 1 (0: none) and send-list ID, each field
        within its bits: one ``searchsorted`` against the tail memo; the
        distinct missing keys are spliced together (:meth:`_emit_tails`)
        and merged back in."""
        np = self.np
        bits = _TAIL_FIELD_BITS
        out = src.copy()
        # Nothing delivered, nothing sent: the section is the parent's.
        at = np.flatnonzero(slot | sends)
        keys = src[at].astype(np.int64)
        keys <<= bits
        keys |= slot[at]
        keys <<= bits
        keys |= sends[at]
        table = self._tail_keys
        where = np.searchsorted(table, keys)
        found = self._tail_sids[where]
        missed = np.flatnonzero(table[where] != keys)
        if len(missed):
            new_keys, inv = np.unique(keys[missed], return_inverse=True)
            new_sids = self._emit_tails(new_keys)
            found[missed] = new_sids[inv]
            if len(table) > _MEMO_LIMIT:
                self._reset_tails()
            # Two sorted runs: a stable sort of their concatenation is one
            # merge pass.
            merged = np.concatenate((self._tail_keys, new_keys))
            order = np.argsort(merged, kind="stable")
            self._tail_keys = merged[order]
            self._tail_sids = np.concatenate((self._tail_sids, new_sids))[order]
        out[at] = found
        return out

    def _emit_tails(self, keys):
        """Successor section IDs (a ``uint32`` array) for the distinct
        tail-memo *keys* a level missed, all spliced at once: gather the
        source sections' vectors, replace each delivered record's column by
        its cell minus the record, then send *j* of every key's send list
        in one step -- the record's column by its cell plus the record,
        ``j = 0 .. longest list`` -- and intern the vectors with one table
        probe.  Exactly ``Network.deliver`` + ``Network.send``: a channel
        emptied and re-opened passes through cell 0, and a key's sends into
        one FIFO append in list order.  Python runs per distinct ``(cell,
        record, operation)`` (:meth:`_cell_ops_of`), never per key."""
        np = self.np
        bits = _TAIL_FIELD_BITS
        mask = (1 << bits) - 1
        slot = keys >> bits & mask
        sends = keys & mask
        rec_col = np.frombuffer(self._rec_col, dtype=np.int32)
        ptr = np.frombuffer(self._sends_ptr, dtype=np.int32)
        data = np.frombuffer(self._sends_rec, dtype=np.int32)
        # The whole plan first, as (rows, record, column, insert?) steps:
        # a cell operation below may raise (LaneOverflow), and must leave
        # no view behind in a frame the traceback keeps.
        rows = np.flatnonzero(slot)
        rids = slot[rows] - 1
        steps = [(rows, rids, rec_col[rids], 0)]
        starts = ptr[sends]
        lengths = ptr[sends + 1] - starts
        for j in range(int(lengths.max())):
            rows = np.flatnonzero(lengths > j)
            rids = data[starts[rows] + j]
            steps.append((rows, rids, rec_col[rids], 1))
        del rec_col, ptr, data
        V = self._sections.rows(np.uint32)[keys >> 2 * bits]
        for rows, rids, cols, insert in steps:
            V[rows, cols] = self._cell_ops_of(V[rows, cols], rids, insert)
        return self._intern_vectors(V)

    def assemble(self, F, level: LevelExpansion):
        """Build the successor lane matrix and dedup it, all vectorized.

        ``gather`` (parent rows fan out to successor rows via fancy
        indexing), ``scatter`` (the successors' lane deltas, gathered from
        the outcome table's CSR by outcome ID, land in one flat indexed
        assignment), ``dedup`` (one ``np.unique`` over the row bytes).
        Returns ``(M, order)``: the successor row matrix (:meth:`widen`: a
        row's bytes key the whole raw successor) and the indices of the
        distinct raw successors in first-occurrence (serial stream) order.
        """
        np = self.np
        M = self.widen(F[level.parent_pos], level.sids)
        ptr = np.frombuffer(self._out_ptr, dtype=np.int32)
        starts = ptr[level.oids]
        rows, index = _ranges(np, starts, ptr[level.oids + 1] - starts)
        M[rows, np.frombuffer(self._out_cols, dtype=np.int32)[index]] = (
            np.frombuffer(self._out_vals, dtype=self.dtype)[index]
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

    def _intern_outcome(self, eev: tuple, prefix: tuple, out: list, base, sends: list):
        """Outcome ID for event *eev* turning *prefix* into *out* and
        sending *sends* (`_FALLBACK` if the change is not confined)."""
        delta = self._confined_delta(prefix, out, base)
        if delta is None:
            return _FALLBACK
        sends = tuple(map(self._record_id, sends))
        key = (eev, *delta, sends)
        oid = self._outcome_ids.get(key)
        if oid is None:
            oid = self._outcome_ids[key] = len(self._out_eevs)
            sends_id = self._sends_ids.get(sends)
            if sends_id is None:
                sends_id = self._sends_ids[sends] = len(self._sends_ptr) - 1
                self._sends_rec.extend(sends)
                self._sends_ptr.append(len(self._sends_rec))
            self._out_eevs.append(eev)
            self._out_sends.append(sends_id)
            self._out_cols.extend(delta[0])
            self._out_vals.extend(delta[1])
            self._out_ptr.append(len(self._out_cols))
        return oid

    def _compute_access(self, cid: int, prefix: tuple) -> list:
        """The access plans of one distinct cache guard slice, as outcome
        IDs (or `_FALLBACK`) in plan order; computed once per guard ID and
        stored in the access CSR by the caller."""
        k = self.kernel
        base = cid * self.cache_width
        si = prefix[base + CF_STATE]
        if prefix[base + 1] >= k.max_accesses or not k.spec.cache.stable[si]:
            return []  # CF_ISSUED budget spent / transient: no plans
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
            acc.append(self._intern_outcome(
                k._access_eevs[cid][ai], prefix, out, base, sends
            ))
        return acc

    def _compute_delivery(self, rec: tuple, prefix: tuple) -> int:
        """Outcome ID (or `_STALLED` / `_FALLBACK`) of message record *rec*
        reaching its destination in a row with lanes *prefix*; mirrors
        ``TransitionKernel.enabled`` + ``apply`` for a single plan, minus
        the network splice (which is keyed separately on the section).
        Computed once per delivery key and memoized by the caller."""
        k = self.kernel
        if rec[2] == 1:  # directory delivery
            base = cid = None
            cands = k.spec.directory.on_message[prefix[self.dir_offset]].get(rec[0])
        else:
            cid = rec[2] - 2
            base = cid * self.cache_width
            cands = k.spec.cache.on_message[prefix[base + CF_STATE]].get(rec[0])
        if not cands:
            return _FALLBACK  # unexpected message -> object-executor error
        if len(cands) == 1 and cands[0].guard == 0:
            ct = cands[0]
        else:
            ct = k._select(cands, rec, prefix, base, self.dir_offset)
        if ct is None or ct is AMBIGUOUS:
            return _FALLBACK
        if ct.stall:
            return _STALLED
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
        return self._intern_outcome(
            self.codec.intern_event((1,) + rec), prefix, out, base, sends
        )


__all__ = ["VectorizedKernel", "VectorizedUnavailable", "LevelExpansion"]
