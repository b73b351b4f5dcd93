"""Batch-vectorized frontier expansion: the NumPy block-ID kernel.

The compiled kernel (:mod:`repro.system.kernel`) already runs on flat int
tuples, but it still pays one Python dispatch per state per transition.
This module shifts the unit of work from *one state* to *one frontier
level*: states become rows of a 2-D NumPy matrix, and expansion becomes
batch gather / mask / scatter operations plus per-distinct-input Python work
that is shared across every row it applies to.

The system is *n* cache controllers and one directory controller joined by
channels, and a state is stored as that product.  A **row** is a fixed-width
``uint32`` vector of hash-consed IDs, independent of the lane width::

    [block ID of cache 0 ... cache n-1, directory block ID, version, section ID]

* a **cache block** is the hash-consed ``cache_width`` lanes of one cache --
  one table for all caches, so relabeling the caches is a column permutation
  plus a per-block remap, and a store rewrites one column; a first sight
  checks the lanes against the lane width (:class:`LaneOverflow`) and files
  the block's permission / stability for :meth:`VectorizedKernel.check_level`;
* a **directory block** is the hash-consed directory lanes;
* the **version** is its own column (in the block it would multiply IDs);
* the **variable-width network section** is hash-consed into a side table
  of section IDs, so the matrix stays rectangular.

Controller states saturate after a few hundred blocks (229 cache blocks x
105 directory blocks make all 174 189 states of MSI 3c x 2a), so a row is a
bijection with the state's packed key at 4 x (caches + 3) bytes.

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

Expansion then exploits the locality of a transition's generated function
(:meth:`TransitionKernel._compile_cache_fn` / ``_compile_directory_fn``):
it reads nothing outside *its controller's block*, the shared version lane
and the delivered message -- the only lanes it addresses -- and what it
writes is checked by the compiled kernel's per-key evaluator
(:meth:`TransitionKernel.access_outcomes` /
:meth:`~TransitionKernel.delivery_outcome`, the one that serves the
per-state search too): a write outside the block (and, for a cache, the
version lane) is refused, and its plan is a fallback.  Its effect is
therefore a pure function of a small key -- ``(message, receiver block,
version)`` for deliveries, ``(cache id, block, version)`` for accesses,
``(section id, delivered record, sends)`` for the network splice -- and
those keys recur across far more rows than they have distinct values.  The
keys are integers read straight off a row's columns.  Each distinct delivery
or access key is evaluated **once**, by that evaluator on the lanes of a
representative row, rebuilt from the block tables -- exact by construction
-- and what it returns is filed (:meth:`VectorizedKernel._intern_plan`) in
**append-only plan tables** that a level indexes as a whole, so no Python
statement runs per row:

* **guard IDs** -- every distinct ``(block ID, version)`` pair of each cache
  is a dense int drawn from one counter (so a guard ID names its cache); the
  directory's guard is its block ID (its transitions never read the
  version);
* the **outcome table** -- every distinct ``(event, sends)`` has a dense
  outcome ID: its interned event tuple and the ID of its send list (record
  IDs, a CSR);
* the **plan table** -- what a transition does to a row: ``(outcome ID,
  receiver column, new block ID, new version | unchanged)``, a dense plan
  ID each.  The version is "unchanged" unless the transition wrote it: the
  directory's key has no version, so its plan must not stamp the version of
  the row it was evaluated on onto the others.  A cache guard's access
  plans are a CSR ``guard ID -> plan IDs``; a delivery is memoized as
  ``(message record ID, receiver guard ID) -> plan ID``, *stalled* or
  *fallback*;
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
these tables as three integer arrays -- parent row, plan ID, successor
section ID -- in exact serial plan order, and
:meth:`~VectorizedKernel.assemble` makes them rows: the gathered parent
rows with three columns assigned (the plan's block, its version where it
wrote one, the section).  Python runs once per *distinct* guard, delivery
key and ``(cell, record, operation)`` of a level (a dict probe, or on a
first sight the transition code itself / one tuple), never per row, per
successor, per tail key or per section.  The raw successors are **not**
deduplicated here: the search hands the whole level to its visited set, a
table of these very rows (:class:`~repro.system.rowtable.RowTable` again),
whose one probe is the only dedup there is.  Lanes -- a packed key, a
section's packed tail -- reappear only at a boundary:
:meth:`~VectorizedKernel.rows_of` / :meth:`~VectorizedKernel.keys_of` /
:meth:`~VectorizedKernel.prefixes_of` convert a batch at a time (blocks
interned with one ``np.unique`` and one probe per distinct block; block
tables gathered as arrays), for a checkpoint, a per-state fallback level, a
level's symmetry relabels, its leaves or a violation report;
:meth:`~VectorizedKernel.packed_tails` rebuilds sections' packed tails.  Each
boundary works on all it is handed at once (the distinct unknown tails
parsed, then one table probe) and keeps a bounded cache, so a section the
hot path created has no packed tail and no parse handle unless something
asked.

The compiled kernel is the evaluator of every miss, the differential
oracle (the batch plans are tested against its ``enabled`` plans, applied)
and the fallback: any plan the batch path cannot express (a protocol error --
unexpected message, ambiguous guards, missing data/requestor, an action
the controller cannot execute, anything a generated function returns an
error code for, whose text only the per-state kernel formats -- a write
outside the controller's block, or a tail key wider than its bit field)
flips its whole frontier level to the per-state compiled loop, preserving
the exact serial failure order; fault models,
multi-address planes and litmus workloads fall back whole-search
(``VectorizedKernel.supported`` is False).  The fault-free single-address
hot path never leaves the batch loop -- pinned as zero fallback transitions
and zero object decodes in the engine tests.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from itertools import groupby

import numpy as np

from repro.system import codec as codec_module
from repro.system.codec import CF_STATE, Memo
from repro.system.kernel import DEFAULT_CODES, FAILED, STALLED, TransitionKernel
from repro.system.rowtable import RowTable

#: In place of an outcome ID: a stalled delivery (not an enabled plan).
_STALLED = -1
#: In place of an outcome ID: this plan must take the compiled/object slow
#: path.
_FALLBACK = -2

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
    """One collected frontier level, ready for row assembly.

    Three parallel integer arrays, one entry per successor in exact serial
    plan order: ``parent_pos`` (the parent's row in the level), ``pids``
    (the plan that produced it: event, receiver column, new block and
    version live in the kernel's plan table) and ``sids`` (its
    network-section ID).
    ``leaves`` are the zero-plan rows and ``fallbacks`` the row positions
    that need the compiled per-state path (non-empty ``fallbacks`` means no
    successors were collected -- the driver re-runs the level serially).  A
    leaf records the number of successors collected before it, which
    totally orders leaves against successors: leaf ``(k, ...)`` precedes
    successor index ``u`` exactly when ``k <= u``, so failure detection
    replays in exact serial stream order without per-successor sequence
    bookkeeping.
    """

    __slots__ = ("parent_pos", "pids", "sids", "leaves", "fallbacks")

    def __init__(self, parent_pos, pids, sids, leaves=(), fallbacks=()):
        self.parent_pos = parent_pos      # parent row index per successor
        self.pids = pids                  # plan ID per successor
        self.sids = sids                  # successor network-section ID
        self.leaves = leaves              # (successors_before, state_id, row_pos)
        self.fallbacks = fallbacks        # row positions needing slow path

    @property
    def transitions(self) -> int:
        return len(self.parent_pos)


class VectorizedKernel:
    """Frontier-batch expansion over a NumPy matrix of block-ID rows.

    Wraps a system's :class:`TransitionKernel` (the lowering input and the
    oracle for memo misses) and its codec.  ``supported`` reports
    whether this configuration can run the batch path at all -- fault
    models, litmus workloads and multi-address planes make the whole search
    fall back to the compiled kernel.
    """

    def __init__(self, system):
        self.np = np
        self.system = system
        self.kernel: TransitionKernel = system.kernel()
        self.codec = codec = system.codec()
        self.num_caches = codec.num_caches
        self.cache_width = codec.cache_width
        self.dir_offset = codec.dir_offset
        self.version_offset = codec.version_offset
        self.net_offset = codec.net_offset
        self.dtype = np.dtype(f"uint{8 * codec.lane_bytes}")
        #: ``uint32`` columns of a whole-state row: a block ID per cache,
        #: the directory's, the version and the section ID.
        self.row_width = self.num_caches + 3
        #: The batch model covers one address plane, no fault lane and no
        #: litmus program; any other configuration runs the per-state loop.
        self.supported = (
            codec.num_addresses == 1
            and codec.fault_offset is None
            and self.kernel._litmus_ops is None
        )
        # The plan tables (module docstring).  All are append-only typed
        # arrays read through NumPy views taken per level -- a view pins its
        # array's size, so none outlives the method that takes it -- and
        # every ID is dense, first-sight ordered and never reused.  The
        # memos beside them (delivery, cell operation, the two boundary
        # caches: codec `Memo`s; the tail memo) are bounded, and a clear
        # drops keys only -- every ID stays valid.
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
        # is made of, memoized (keys packed as in `_cell_ops_of`).
        self._cell_ops = Memo(
            lambda key: self._cell_op(key >> 33, key >> 1 & 0xFFFF_FFFF, key & 1)
        )
        # Section table: a section is its vector of cell IDs over the
        # columns, hash-consed in an exact row table whose arena index is
        # the section ID; per ID its deliverable records, in delivery
        # order, as a CSR.
        self._sections = RowTable(np, 4 * len(columns))
        self._sec_ptr = array("i", [0])
        self._sec_rec = array("i")       # message record ID
        # The boundary caches: packed tail -> section ID (`intern_sections`)
        # and section ID -> packed tail (`packed_tails`).
        self._tail_ids = Memo()
        self._packed = Memo()
        # The controllers' blocks: lanes <-> dense block ID, the lanes also
        # flat in a typed array so a boundary gathers them as one matrix.
        # One table serves every cache; next to each cache block what the
        # batch checker counts of its FSM state (`check_level`).
        # Unbounded but tiny: controller states saturate early.
        self._cblock_ids: dict[tuple, int] = {}
        self._cb_lanes = array(codec.typecode)
        self._cb_check = array("I")
        self._dblock_ids: dict[tuple, int] = {}
        self._db_lanes = array(codec.typecode)
        # Guard IDs: per cache, ``block ID << 32 | version`` to one shared
        # counter.  The access CSR is indexed by it and holds plan IDs, or
        # `_FALLBACK`.  (The directory's guard is its block ID.)
        self._guards: list[dict] = [{} for _ in range(self.num_caches)]
        self._acc_ptr = array("i", [0])
        self._acc_pids = array("i")
        # Outcome table: (event, send-list ID) <-> dense outcome ID; send
        # lists (tuples of record IDs) are interned the same way.
        self._outcome_ids: dict[tuple, int] = {}
        self._out_eevs: list[tuple] = []
        self._out_sends = array("i")     # send-list ID
        self._sends_ids: dict[tuple, int] = {(): 0}
        self._sends_ptr = array("i", [0, 0])
        self._sends_rec = array("i")     # the send lists' record IDs, a CSR
        # Plan table: (outcome ID, receiver column, new block ID, new
        # version or -1: unchanged) <-> dense plan ID.
        self._plan_ids: dict[tuple, int] = {}
        self._plan_oid = array("i")
        self._plan_col = array("i")
        self._plan_block = array("I")
        self._plan_ver = array("q")
        # Delivery memo: ``rec_id << 32 | gid`` -> plan ID, `_STALLED` or
        # `_FALLBACK`.
        self._deliv_memo = Memo()
        # Tail memo: sorted keys and their successor section IDs.  The last
        # key is a sentinel above every real one, so a probe's insertion
        # point always indexes the arrays.
        self._reset_tails()

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
        """Distinct ``(event, send list)`` outcomes evaluated so far."""
        return len(self._out_eevs)

    @property
    def plan_entries(self) -> int:
        """Distinct ``(outcome, receiver column, new block, new version |
        unchanged)`` plans filed so far."""
        return len(self._plan_oid)

    @property
    def cache_block_entries(self) -> int:
        """Distinct cache blocks hash-consed so far (all caches share them)."""
        return len(self._cblock_ids)

    @property
    def dir_block_entries(self) -> int:
        """Distinct directory blocks hash-consed so far."""
        return len(self._dblock_ids)

    # -- blocks: a controller's lanes as one ID ------------------------------------
    def _block_id(self, ids: dict, flat, lanes: tuple) -> int:
        """Dense ID of a controller's block *lanes* in the table ``(ids,
        flat)``.  A first sight is where a lane value that outgrew its
        width is caught: nothing downstream packs the lanes."""
        bid = ids.get(lanes)
        if bid is None:
            if max(lanes) > self.codec.lane_max:
                raise self.codec.overflow(max(lanes))
            bid = ids[lanes] = len(ids)
            flat.extend(lanes)
        return bid

    def _cache_block_id(self, lanes: tuple) -> int:
        """Dense ID of one cache's block *lanes*; a first sight files what
        :meth:`check_level` counts of its FSM state -- writer and reader, a
        byte each."""
        bid = self._block_id(self._cblock_ids, self._cb_lanes, lanes)
        if bid == len(self._cb_check):
            permission = self.kernel.spec.cache.permission[lanes[CF_STATE]]
            self._cb_check.append((permission == 2) | (permission == 1) << 8)
        return bid

    def _dir_block_id(self, lanes: tuple) -> int:
        """Dense ID of the directory's block *lanes*."""
        return self._block_id(self._dblock_ids, self._db_lanes, lanes)

    def _intern_blocks(self, lanes, block_id):
        """Block IDs (a ``uint32`` array) of the rows of the C-contiguous
        lane matrix *lanes*: one ``np.unique`` over the row bytes, one
        *block_id* probe per distinct block."""
        np = self.np
        size = lanes.shape[1] * lanes.dtype.itemsize
        uniq, inv = np.unique(
            lanes.view(np.dtype((np.void, size))).ravel(), return_inverse=True
        )
        blocks = uniq.view(lanes.dtype).reshape(len(uniq), lanes.shape[1]).tolist()
        found = [block_id(tuple(block)) for block in blocks]
        return np.asarray(found, dtype=np.uint32)[inv]

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
        found = list(map(self._cell_ops.__getitem__, uniq.tolist()))
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
                missing[tail] = memo.store(tail, sid)
            found = [
                missing[tail] if sid is None else sid
                for tail, sid in zip(packed_tails, found)
            ]
        return np.asarray(found, dtype=np.uint32)

    def packed_tails(self, sids) -> list:
        """The packed tail of each section ID in *sids* (a sequence of
        ints), rebuilt from its vector (columns in order, each cell's
        records in order, laid out by :meth:`StateCodec.packed_section`)
        where the boundary cache does not hold it: the boundary out of the
        batch kernel, a batch at a time."""
        memo = self._packed
        tails = list(map(memo.get, sids))
        missing = [k for k, tail in enumerate(tails) if tail is None]
        if missing:
            vectors = self._sections.rows(self.np.uint32)[
                [sids[k] for k in missing]
            ].tolist()
            codec = self.codec
            cells = self._cells
            recs = self._recs
            for k, vector in zip(missing, vectors):
                groups = [cells[cell] for cell in vector if cell]
                if codec.ordered:
                    items = [
                        (*recs[rids[0]][1:4], [recs[rid] for rid in rids])
                        for rids in groups
                    ]
                else:
                    items = [recs[rid] for rids in groups for rid in rids]
                tails[k] = memo.store(sids[k], codec.packed_section(items))
        return tails

    # -- rows: a whole state as one fixed-width vector of IDs -----------------------
    def rows_of(self, keys):
        """Row matrix of packed *keys*: the boundary into the batch kernel.
        Prefix bytes are stacked as they are and every controller's block
        hash-consed (:meth:`_intern_blocks`: all caches of all keys against
        the one cache table), packed tails hash-consed to section IDs
        together (:meth:`intern_sections`) -- no lane tuple is built per
        key."""
        np = self.np
        n = self.num_caches
        cut = self.codec.net_byte_offset
        P = np.frombuffer(
            b"".join([key[:cut] for key in keys]), dtype=self.dtype
        ).reshape(len(keys), self.net_offset)
        R = np.empty((len(keys), self.row_width), dtype=np.uint32)
        R[:, :n] = self._intern_blocks(
            np.ascontiguousarray(P[:, : self.dir_offset]).reshape(
                -1, self.cache_width
            ),
            self._cache_block_id,
        ).reshape(-1, n)
        R[:, n] = self._intern_blocks(
            np.ascontiguousarray(P[:, self.dir_offset : self.version_offset]),
            self._dir_block_id,
        )
        R[:, n + 1] = P[:, self.version_offset]
        R[:, n + 2] = self.intern_sections([key[cut:] for key in keys])
        return R

    def regions_of(self, B):
        """The cache-block region's lanes (a matrix, ``dir_offset`` lanes a
        row) of each row of *B*, an ``n``-column matrix of cache block IDs:
        the block table gathered as an array."""
        table = self.np.frombuffer(self._cb_lanes, dtype=self.dtype)
        return table.reshape(-1, self.cache_width)[B].reshape(len(B), self.dir_offset)

    def prefixes_of(self, R):
        """The prefix-lane matrix of the rows of *R* (``net_offset`` lanes a
        row: what :meth:`StateCodec.unpack` reads up to the network
        section), gathered from the block tables."""
        np = self.np
        n = self.num_caches
        do, vo = self.dir_offset, self.version_offset
        P = np.empty((len(R), self.net_offset), dtype=self.dtype)
        P[:, :do] = self.regions_of(R[:, :n])
        table = np.frombuffer(self._db_lanes, dtype=self.dtype)
        P[:, do:vo] = table.reshape(-1, vo - do)[R[:, n]]
        P[:, vo] = R[:, n + 1]
        return P

    def keys_of(self, R) -> list:
        """Packed keys of the rows of *R* (inverse of :meth:`rows_of`)."""
        cut = self.codec.net_byte_offset
        prefixes = self.prefixes_of(R).tobytes()
        uniq, inv = self.np.unique(R[:, -1], return_inverse=True)
        tails = self.packed_tails(uniq.tolist())
        return [
            prefixes[pos * cut : (pos + 1) * cut] + tails[k]
            for pos, k in enumerate(inv.tolist())
        ]

    def events_of(self, pids) -> list:
        """The interned encoded event of each plan ID in *pids*."""
        oids = self.np.frombuffer(self._plan_oid, dtype=self.np.int32)[pids]
        return list(map(self._out_eevs.__getitem__, oids.tolist()))

    # -- level collection ----------------------------------------------------------
    def _guard_ids(self, R):
        """The guard IDs of row matrix *R* as one ``(1 + caches) x rows``
        array, a row per receiver: row 0 the directory's (its block IDs),
        row ``1 + cid`` cache *cid*'s -- the row a message to encoded
        destination ``dst`` reads is ``dst - 1``.  A cache's guard keys are
        integers off two columns: one ``np.unique``, one table probe per
        distinct ``(block, version)`` of the level.  A first sight draws
        the next ID and evaluates the guard's access plans on the first row
        carrying it."""
        np = self.np
        n = self.num_caches
        G = np.empty((1 + n, len(R)), dtype=np.int32)
        G[0] = R[:, n]
        version = R[:, n + 1].astype(np.int64)
        for cid, table in enumerate(self._guards):
            uniq, first, inv = np.unique(
                R[:, cid].astype(np.int64) << 32 | version,
                return_index=True, return_inverse=True,
            )
            uniq = uniq.tolist()
            gids = list(map(table.get, uniq))
            misses = [k for k, gid in enumerate(gids) if gid is None]
            if misses:
                prefixes = self.prefixes_of(R[first[misses]]).tolist()
                for k, prefix in zip(misses, prefixes):
                    gids[k] = table[uniq[k]] = len(self._acc_ptr) - 1
                    self._acc_pids.extend(
                        self._intern_plan(outcome, cid)
                        for outcome in self.kernel.access_outcomes(cid, prefix)
                    )
                    self._acc_ptr.append(len(self._acc_pids))
            G[1 + cid] = np.asarray(gids, dtype=np.int32)[inv]
        return G

    def _access_successors(self, G):
        """Per cache, the access successors of every row: ``(parent_pos,
        pids)`` array pairs gathered from the access CSR on the cache's
        guard row."""
        np = self.np
        ptr = np.frombuffer(self._acc_ptr, dtype=np.int32)
        data = np.frombuffer(self._acc_pids, dtype=np.int32)
        segments = []
        for cid in range(self.num_caches):
            g = G[1 + cid]
            starts = ptr[g]
            owner, index = _ranges(np, starts, ptr[g + 1] - starts)
            segments.append((owner, data[index]))
        return segments

    def _delivery_successors(self, R, G):
        """The delivery plans of every row: ``(parent_pos, pids, rec)``
        gathered from the section CSR on the rows' section IDs -- *rec* the
        delivered message record's ID -- their plans resolved once per
        distinct ``(message record, receiver guard)`` key of the level -- a
        memo probe, or a miss evaluated on the first row that carries it,
        in first-occurrence order -- stalled ones dropped."""
        np = self.np
        sids = R[:, -1]
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
        misses = [k for k, pid in enumerate(found) if pid is None]
        if misses:
            misses.sort(key=first.__getitem__)
            at = first[misses]
            prefixes = self.prefixes_of(R[owner[at]]).tolist()
            for k, rid, prefix in zip(misses, rec[at].tolist(), prefixes):
                record = self._recs[rid]
                outcome = self.kernel.delivery_outcome(record, prefix)
                found[k] = memo.store(
                    uniq[k],
                    _STALLED if outcome is STALLED
                    else self._intern_plan(
                        outcome, None if record[2] == 1 else record[2] - 2
                    ),
                )
        pids = np.asarray(found, dtype=np.int32)[inv]
        enabled = np.flatnonzero(pids != _STALLED)
        return owner[enabled], pids[enabled], rec[enabled]

    def collect_level(self, ids, R) -> LevelExpansion:
        """Enumerate every row's plans in exact serial order, a level at a
        time, out of the plan tables.  *ids* are the state IDs of the rows
        of *R*, a ``uint32`` row matrix (module docstring).

        Guard IDs come first (:meth:`_guard_ids`: integers off the block and
        version columns); each cache's access successors are one CSR gather
        on its guard row, the deliveries one CSR gather on the section
        column plus one memo probe per distinct delivery key.  The segments
        are concatenated ``[cache 0, ..., cache n-1, deliveries]``, each in
        row order, so one stable sort on the row index *is* the serial plan
        order -- state IDs, traces and counts stay bit-identical to the
        per-state kernels.  Successor sections come from the tail memo
        (:meth:`_successor_sections`); leaves from a ``bincount`` of the
        parents.  Python runs per distinct guard, delivery key and tail key
        of the level (and per leaf), never per row or per successor.
        """
        np = self.np
        nrows = len(R)
        sids = R[:, -1]
        G = self._guard_ids(R)
        segments = self._access_successors(G)
        d_parent, d_pids, d_rec = self._delivery_successors(R, G)
        parent = np.concatenate([owner for owner, _pids in segments] + [d_parent])
        pids = np.concatenate([pids for _owner, pids in segments] + [d_pids])
        # Delivered record ID + 1 (a record names its channel); zero where
        # nothing is delivered (an access).
        slot = np.zeros(len(parent), dtype=np.int32)
        slot[len(parent) - len(d_parent) :] = d_rec + 1
        # Row positions as narrow as the level allows: a stable sort of
        # 16-bit keys is a radix sort.
        parent = parent.astype(np.uint16 if nrows <= 1 << 16 else np.uint32)
        order = np.argsort(parent, kind="stable")
        parent, pids, slot = parent[order], pids[order], slot[order]
        refused = pids == _FALLBACK
        if not refused.any():
            oids = np.frombuffer(self._plan_oid, dtype=np.int32)[pids]
            sends = np.frombuffer(self._out_sends, dtype=np.int32)[oids]
            refused = (slot | sends) >> _TAIL_FIELD_BITS != 0
        if refused.any():
            # The driver replays the whole level through the compiled
            # per-state loop to preserve exact serial failure order.
            return LevelExpansion(
                parent[:0], pids[:0], sids[:0],
                fallbacks=np.unique(parent[refused]).tolist(),
            )
        counts = np.bincount(parent, minlength=nrows)
        leaf_rows = np.flatnonzero(counts == 0)
        before = np.cumsum(counts)[leaf_rows]  # a leaf adds nothing itself
        return LevelExpansion(
            parent, pids, self._successor_sections(sids[parent], slot, sends),
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
            if len(table) > codec_module._MEMO_LIMIT:
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
        probe.  Exactly the reference network's ``deliver`` + ``send``
        (``tests/verification/reference_system.py``): a channel emptied and
        re-opened passes through cell 0, and a key's sends into one FIFO
        append in list order.  Python runs per distinct ``(cell,
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

    def assemble(self, R, level: LevelExpansion):
        """The raw successor rows of a collected *level* of *R*, one per
        successor in stream order: the parent rows gathered, then three
        column assignments -- each plan's new block into its receiver's
        column, its version where it wrote one (a plan that did not leaves
        the parent's, whichever row it was first evaluated on), and the
        successor section.  Nothing is deduplicated here: the visited set's
        one probe (:meth:`StateStore.intern_batch`) names the new rows and
        the first of equal ones."""
        np = self.np
        n = self.num_caches
        S = R[level.parent_pos]
        pids = level.pids
        S[np.arange(len(S)), np.frombuffer(self._plan_col, dtype=np.int32)[pids]] = (
            np.frombuffer(self._plan_block, dtype=np.uint32)[pids]
        )
        version = np.frombuffer(self._plan_ver, dtype=np.int64)[pids]
        wrote = np.flatnonzero(version >= 0)
        S[wrote, n + 1] = version[wrote]
        S[:, n + 2] = level.sids
        return S

    def check_level(self, V, codes: tuple):
        """Default-invariant verdicts for a row matrix, as a mask.

        Returns a boolean row mask over *V* -- True where SWMR **and**
        single-owner hold, counted off what each cache block filed at its
        first sight (one byte each: writer, reader; a row's counts are the
        sum over its cache columns; two stable writers are two writers) --
        or ``None`` when *codes* is not the fused default pair
        (custom/litmus codes keep the per-row ``TransitionKernel.check``).  SWMR and single-owner
        aggregate over the caches symmetrically, so the verdict of a raw
        successor is its canonical representative's.
        """
        if codes != DEFAULT_CODES:
            return None
        filed = self.np.frombuffer(self._cb_check, dtype=self.np.uint32)
        counts = filed[V[:, 0]]
        for cid in range(1, self.num_caches):
            counts += filed[V[:, cid]]
        writers = counts & 0xFF
        readers = counts >> 8
        return ~((writers > 1) | ((writers > 0) & (readers > 0)))

    # -- memo misses: the compiled kernel's per-key evaluator, filed as plans -----
    def _intern_plan(self, outcome, cid: int | None) -> int:
        """Plan ID for an outcome of the compiled kernel's per-key evaluator
        (:meth:`TransitionKernel.access_outcomes` /
        :meth:`~TransitionKernel.delivery_outcome`) at cache *cid*
        (``None``: the directory) -- `_FALLBACK` for :data:`FAILED`: a
        protocol error, whose text only the per-state kernel formats, or a
        write outside the controller's block, which would make the memo key
        unsound."""
        if outcome is FAILED:
            return _FALLBACK
        eev, lanes, version, sends = outcome
        # "Unchanged" unless written: a directory plan is keyed without the
        # version, so it is applied to rows of other versions than this one.
        if version is None:
            version = -1
        elif version > self.codec.lane_max:
            raise self.codec.overflow(version)
        if cid is None:
            column, block = self.num_caches, self._dir_block_id(lanes)
        else:
            column, block = cid, self._cache_block_id(lanes)
        sends = tuple(map(self._record_id, sends))
        sends_id = self._sends_ids.get(sends)
        if sends_id is None:
            sends_id = self._sends_ids[sends] = len(self._sends_ptr) - 1
            self._sends_rec.extend(sends)
            self._sends_ptr.append(len(self._sends_rec))
        oid = self._outcome_ids.get((eev, sends_id))
        if oid is None:
            oid = self._outcome_ids[eev, sends_id] = len(self._out_eevs)
            self._out_eevs.append(eev)
            self._out_sends.append(sends_id)
        plan = (oid, column, block, version)
        pid = self._plan_ids.get(plan)
        if pid is None:
            pid = self._plan_ids[plan] = len(self._plan_oid)
            self._plan_oid.append(oid)
            self._plan_col.append(column)
            self._plan_block.append(block)
            self._plan_ver.append(version)
        return pid


__all__ = ["VectorizedKernel", "LevelExpansion"]
