"""Compact integer encoding of global states (the Murphi bit-vector analogue).

A state at rest is a packed key: as Murphi packs its states into
bit-vectors, a :class:`StateCodec` built from a
:class:`~repro.system.system.System` lays every global state out as a flat
tuple of small non-negative integers (and on to ``bytes``).  The whole
layout lives in this module -- the lane constants, the one writer of a key
from objects (:meth:`StateCodec.encode`), its readers (:meth:`StateCodec.decode`,
:func:`decode_message`, :func:`decode_cache_block`,
:func:`decode_directory_block`) and the initial state's key
(:meth:`StateCodec.root`, written straight into the layout: the searches
never build a root object).  The value classes of
:mod:`repro.system.message`, :mod:`~repro.system.node_state` and
:mod:`~repro.system.network` are plain data.

The encoding is designed around three invariants the engine relies on:

1. **Bijective.**  ``decode(encode(s)) == s`` exactly, so a decoded
   counterexample state is the object state the trace reaches.
2. **Order-isomorphic.**  Every block (and a section's parsed items)
   compares like its component's object-level sort key: FSM states and
   message types are indexed through *sorted* name lists, optional ints
   are shifted so ``None`` lands below every real value, sharer sets
   become zero-padded ascending runs.  So the canonical form -- the
   smallest relabeling, first minimum in permutation order -- is computed
   on encodings (:class:`~repro.verification.engine.canonical.EncodedCanonicalizer`);
   the object-level relabel and sort key defining it are the tests'
   (``tests/verification/reference_system.py``).
3. **Relabelable.**  Cache-ID permutations apply directly to the encoded
   form: cache blocks move to their permuted positions, saved-requestor
   slots, directory owner/sharers and message endpoints are remapped in
   place, and order-normalized sections (sharers, channels, unordered
   messages) are re-sorted.  Everything past the cache blocks relabels as
   one memoized unit on *packed bytes* (:meth:`StateCodec.relabeled_suffix`:
   what the symmetry pipeline concatenates a representative's key from, see
   :class:`~repro.verification.engine.canonical.EncodedCanonicalizer`);
   :meth:`StateCodec.relabel_via_tables` is the plain lane-level relabel of
   a whole encoding through the per-permutation tables
   (:meth:`StateCodec.perm_tables`), property-tested against the object
   relabel; a trace's events relabel through the same tables
   (:meth:`StateCodec.relabeled_event`).

The codec also carries the instrumentation the zero-decode invariant is
asserted against: :attr:`StateCodec.decode_count` increments on every
:meth:`decode`, and a search with compiled invariants must leave it flat,
failures included (the kernel words a violation from the lanes).

Every bounded cache of the engine is a :class:`Memo` -- here the two
block-decode memos, the parse memos and the three relabel memos; the
compiled kernel's access and delivery memos and its outcome intern
table; the canonicalizer's region
memo and block table; the batch kernel's delivery, cell-operation and two
boundary memos -- and :data:`_MEMO_LIMIT` is the
one bound they share (the batch kernel's NumPy tail memo reads it too).  A
full memo is cleared whole; correctness never depends on a hit.  Nothing
in a search encodes: its root comes from :meth:`StateCodec.root`, and every
other key is spliced out of its parent's.

Layout (lanes are as narrow as the configuration's static bound on every
lane value allows: ``array('B')`` for all bundled protocols at every pinned
configuration, ``'H'`` or ``'I'`` for larger catalogs, cache counts or
workloads -- a derived detail, see ``typecode``; a value that does not fit
its lane raises :class:`LaneOverflow`, it never wraps)::

    [cache 0 block | ... | cache n-1 block | directory block |
     latest_version | network section]

with fixed-width cache/directory blocks (:data:`CACHE_ENCODED_WIDTH`,
``3 + num_caches``) and a variable-length network section (message records
are :data:`MESSAGE_ENCODED_WIDTH` ints).  The packed
``bytes`` form (:meth:`StateCodec.pack`) is what the visited set keys on, what
the search frontiers hold between levels, what the network-parse memo is
keyed by (the section's slice of it) and what the parallel search ships
between processes; on every configuration the per-state search splices
successors out of it and builds a lane tuple only on a memo miss or at a
leaf.

Multi-address systems repeat the fixed-width part once per address plane
(``plane_stride`` lanes each) and append one network section per plane;
fault-model systems insert a single ``faults_used`` lane between the fixed
planes and the network sections::

    [plane 0 fixed | plane 1 fixed | ... | faults_used? |
     net section 0 | net section 1 | ...]

A single-address, no-fault codec degenerates to exactly the original
layout, so every historical encoding (and pinned state count) is unchanged.
"""

from __future__ import annotations

import struct
from array import array
from operator import itemgetter

from repro.dsl.types import AccessKind
from repro.system.message import Message
from repro.system.network import OrderedNetwork, UnorderedNetwork
from repro.system.node_state import NUM_SAVED_SLOTS, CacheNodeState, DirectoryNodeState
from repro.system.system import (
    DeliverMessage,
    DuplicateMessage,
    GlobalState,
    IssueAccess,
    ReorderMessage,
    SystemEvent,
)

#: Lanes of one message record (see :meth:`StateCodec.encode`).
MESSAGE_ENCODED_WIDTH = 10

#: Lane offsets inside one cache block, in :meth:`StateCodec.encode` order;
#: the canonicalizer and both kernels read them from here.
CF_STATE = 0
CF_ISSUED = 1
CF_DATA = 2
CF_ACKS_EXPECTED = 3
CF_ACKS_RECEIVED = 4
CF_SAVED = 5
CF_PENDING = CF_SAVED + NUM_SAVED_SLOTS
CF_LAST_OBSERVED = CF_PENDING + 1
#: Lanes of one cache block.
CACHE_ENCODED_WIDTH = CF_LAST_OBSERVED + 1


def _opt_lane(value: int | None, shift: int) -> int:
    """An optional field's lane: 0 for ``None``, *value* + *shift* otherwise."""
    return 0 if value is None else value + shift


def _opt_value(lane: int, shift: int) -> int | None:
    """Inverse of :func:`_opt_lane`."""
    return None if lane == 0 else lane - shift


def _pair(value: int | None) -> tuple[int, int]:
    """An optional message field as a ``(flag, value + 2)`` pair."""
    return (0, 0) if value is None else (1, value + 2)


def decode_message(fields: tuple, mtypes: tuple[str, ...]) -> Message:
    """The message of one record *fields* (:data:`MESSAGE_ENCODED_WIDTH` lanes)."""
    return Message(
        mtype=mtypes[fields[0]],
        src=fields[1] - 2,
        dst=fields[2] - 2,
        vnet=fields[3],
        requestor=fields[5] - 2 if fields[4] else None,
        data=fields[7] - 2 if fields[6] else None,
        ack_count=fields[9] - 2 if fields[8] else None,
    )


def translate_encoded_message(fields: tuple, table: tuple[int, ...]) -> tuple:
    """The record *fields* with its cache IDs remapped through a
    permutation's +2-shift table (``table[0] = 0`` for an absent requestor,
    ``table[1] = 1`` for the directory, ``table[v] = perm[v - 2] + 2``; see
    :meth:`StateCodec.perm_tables`): three lookups."""
    return (
        fields[0],
        table[fields[1]],
        table[fields[2]],
        fields[3],
        fields[4],
        table[fields[5]],
        *fields[6:],
    )


def decode_cache_block(
    block: tuple, state_names: tuple[str, ...], access_kinds: tuple
) -> CacheNodeState:
    """The cache node state of one cache block."""
    pending = block[CF_PENDING]
    return CacheNodeState(
        fsm_state=state_names[block[CF_STATE]],
        issued=block[CF_ISSUED],
        data=_opt_value(block[CF_DATA], 1),
        acks_expected=_opt_value(block[CF_ACKS_EXPECTED], 1),
        acks_received=block[CF_ACKS_RECEIVED],
        saved=tuple(_opt_value(s, 1) for s in block[CF_SAVED:CF_PENDING]),
        pending_access=access_kinds[pending - 1] if pending else None,
        last_observed=block[CF_LAST_OBSERVED] - 1,
    )


def decode_directory_block(block: tuple, state_names: tuple[str, ...]) -> DirectoryNodeState:
    """The directory node state of one directory block (``3 + n`` lanes)."""
    return DirectoryNodeState(
        fsm_state=state_names[block[0]],
        owner=_opt_value(block[1], 2),
        sharers=frozenset(s - 2 for s in block[2:-1] if s != 0),
        memory=block[-1],
    )


#: Entries a :class:`Memo` holds before it is cleared (a few MB at most).
_MEMO_LIMIT = 1 << 20


class Memo(dict):
    """A bounded memo: a hit is a plain ``memo[key]`` subscript; a miss
    calls ``compute(key)`` and keeps the result.

    A memo that already holds :data:`_MEMO_LIMIT` entries is cleared whole
    before it keeps the next one.  A clear drops keys only: a key asked for
    again is recomputed to an equal value.  ``misses`` counts the values
    kept and ``clears`` the clears.  A memo without *compute* is filled
    through :meth:`store` alone.
    """

    __slots__ = ("compute", "misses", "clears")

    def __init__(self, compute=None):
        super().__init__()
        self.compute = compute
        self.misses = 0
        self.clears = 0

    def __missing__(self, key):
        return self.store(key, self.compute(key))

    def store(self, key, value):
        """Keep *value* under *key* within the bound, and return it: a miss
        computed by the caller (the batch kernel fills many at once)."""
        if len(self) >= _MEMO_LIMIT:
            self.clear()
            self.clears += 1
        self.misses += 1
        self[key] = value
        return value


class LaneOverflow(ValueError):
    """A lane value does not fit the codec's lane width.

    The width comes from a static bound on every lane (see
    ``StateCodec.__init__``); its in-flight message bound is argued and
    tested, not proved, so the packers check instead of wrapping: a state
    that outgrows its lanes ends the search with this error, never with a
    truncated key and a wrong verdict.
    """


class StateCodec:
    """Bidirectional ``GlobalState`` <-> flat-int-tuple <-> ``bytes`` codec."""

    def __init__(self, protocol, num_caches: int, *, ordered: bool,
                 value_bound: int = 0, num_addresses: int = 1,
                 faults: bool = False, fault_budget: int = 0):
        self.num_caches = num_caches
        self.num_addresses = num_addresses
        self.faults = faults
        self.ordered = ordered
        self.cache_states: tuple[str, ...] = tuple(sorted(protocol.cache.state_names()))
        self.dir_states: tuple[str, ...] = tuple(sorted(protocol.directory.state_names()))
        self.mtypes: tuple[str, ...] = tuple(sorted(protocol.messages.names()))
        self.access_kinds: tuple[AccessKind, ...] = tuple(
            sorted(AccessKind, key=lambda a: a.value)
        )
        self._cache_index = {name: i for i, name in enumerate(self.cache_states)}
        self._dir_index = {name: i for i, name in enumerate(self.dir_states)}
        self._mtype_index = {name: i for i, name in enumerate(self.mtypes)}
        self._access_index = {kind: i for i, kind in enumerate(self.access_kinds)}
        self._initial_cache = self._cache_index[protocol.cache.initial]
        self._initial_dir = self._dir_index[protocol.directory.initial]
        # Lane selection: the narrowest unsigned lane that holds the static
        # bound on every lane value -- 8 bits for every bundled protocol at
        # every pinned configuration, 16 or 32 for bigger catalogs, cache
        # counts or workloads.  All orderings and offsets are lane-width
        # independent; only `pack`/`unpack` (and the batch kernel's NumPy
        # dtype) change.  The bound covers the index lanes (catalogs,
        # +2-shifted node IDs), the data lanes (*value_bound* ghost
        # versions, +2-shifted, which also bounds the issued/ack counters)
        # and the count lanes: the channels of a section (one per (src,
        # dst, vnet)) and the messages in flight on one plane -- at most one
        # transaction per cache, each costing at most a request, a response,
        # and an invalidation plus its ack per other cache, a writeback
        # pair, and one more per injected fault (so ``faults_used`` is
        # covered too).  That last figure is argued, not proved (the
        # conformance matrix asserts it on every reference-searched state),
        # which is why `pack` checks.
        in_flight = num_caches * (2 * num_caches + 2) + fault_budget
        largest = max(
            len(self.cache_states), len(self.dir_states), len(self.mtypes),
            num_caches + 2, value_bound + 2,
            2 * (num_caches + 1) ** 2, in_flight,
        )
        if largest < 0xFF:
            self.typecode = "B"
        elif largest < 0xFFFF:
            self.typecode = "H"
        else:
            self.typecode = "I" if array("I").itemsize == 4 else "L"
            if largest >= 0xFFFF_FFFF:  # pragma: no cover - absurd inputs
                raise ValueError("protocol too large for the 32-bit state encoding")
        self.lane_bytes = array(self.typecode).itemsize
        #: Largest value a lane holds (NumPy casts wrap where `pack` raises,
        #: so batch code compares against this before it narrows).
        self.lane_max = (1 << (8 * self.lane_bytes)) - 1
        # lane count -> compiled ``struct`` layout of that many lanes (see
        # `pack`); encodings come in a few dozen lengths.
        self._layouts: dict[int, struct.Struct] = {}

        # Plane-0 offsets (for A == 1 these are also the absolute offsets;
        # plane *a*'s lanes sit at the same offsets plus ``a * plane_stride``).
        self.cache_width = CACHE_ENCODED_WIDTH
        self.dir_offset = num_caches * CACHE_ENCODED_WIDTH
        self.dir_width = 3 + num_caches
        self.version_offset = self.dir_offset + self.dir_width
        #: Fixed lanes per address plane (cache blocks + directory + version).
        self.plane_stride = self.version_offset + 1
        #: Absolute lane of the ``faults_used`` counter (None without faults).
        self.fault_offset = num_addresses * self.plane_stride if faults else None
        self.net_offset = num_addresses * self.plane_stride + (1 if faults else 0)

        # Block -> node state: a custom invariant decodes every new state,
        # and its blocks recur across huge numbers of them.
        self._decoded_caches = Memo(
            lambda block: decode_cache_block(block, self.cache_states, self.access_kinds)
        )
        self._decoded_dirs = Memo(
            lambda block: decode_directory_block(block, self.dir_states)
        )

        #: Decodes performed (instrumentation): a search with compiled
        #: invariants must not move this counter, failing or not.
        self.decode_count = 0
        #: Opaque per-codec scratch for engine-layer caches (e.g. the
        #: canonicalizers of :mod:`repro.verification.engine.canonical`);
        #: keyed here so their lifetime tracks the codec's.
        self.engine_scratch: dict = {}
        # Per-permutation gather/translation tables (see `perm_tables`) and
        # the memoized relabel/parse/key caches the symmetry hot path runs
        # on.  Network sections and directory blocks recur across huge
        # numbers of states, so relabeled sections and tie-break keys are
        # computed once per (section, permutation) pair.
        self._perm_tables: dict[tuple[int, ...], tuple] = {}
        self._saved_lanes: tuple[int, ...] = tuple(
            cid * CACHE_ENCODED_WIDTH + lane
            for cid in range(num_caches)
            for lane in range(CF_SAVED, CF_PENDING)
        )
        #: Byte offsets of the directory block and of the network sections
        #: inside a packed key.
        self.dir_byte_offset = self.dir_offset * self.lane_bytes
        self.net_byte_offset = self.net_offset * self.lane_bytes
        #: Parse memos: one plane's packed network section -> its parse
        #: handle (see :meth:`parsed_section`), and, with several planes,
        #: the packed suffix of every section -> the handles of its planes
        #: (:meth:`parsed_planes`), which share the section memo's parts.
        self._net_items_memo = Memo(self._parse_section)
        self._planes_memo = Memo(self._plane_handles)
        #: Event-encoding intern table (see :meth:`intern_event`): a few
        #: hundred distinct tuples however many states a search stores.
        self._events: dict[tuple, tuple] = {}
        #: Intern table of what parse handles are made of -- message records
        #: and their packed bytes, channel items, ``(where, record, packed)``
        #: delivery triples and lane offset tuples: tens of thousands of
        #: distinct sections share a few hundred distinct parts.
        self._parts: dict = {}
        # All three keyed ``(packed lanes, perm)``: slices of a visited-set key.
        self._net_key_memo = Memo(lambda key: tuple(self._relabeled_items(*key)))
        self._dir_key_memo = Memo(self._relabel_directory)
        self._packed_suffixes = Memo(self._relabel_suffix)

    @classmethod
    def for_system(cls, system) -> "StateCodec":
        # The workload bounds the ghost data versions (one per store), which
        # bounds every data-carrying field for the lane-width selection.
        return cls(
            system.protocol,
            system.num_caches,
            ordered=system.ordered,
            value_bound=system.value_bound(),
            num_addresses=system.num_addresses,
            faults=system.faults is not None,
            fault_budget=system.faults.budget if system.faults is not None else 0,
        )

    # -- encoding ----------------------------------------------------------------
    def root(self) -> bytes:
        """The packed key of the initial state, written straight into the
        layout: on every address plane each cache and the directory in its
        FSM's initial state with every other lane 0 (no data, owner or
        sharer, version 0), no fault used, and an empty network section per
        plane.  Every search and random walk starts here."""
        cache = (self._initial_cache,) + (0,) * (CACHE_ENCODED_WIDTH - 1)
        plane = cache * self.num_caches + (self._initial_dir,) + (0,) * self.dir_width
        return self.pack(plane * self.num_addresses + (0,) * (self.faults + self.num_addresses))

    def encode(self, state: GlobalState) -> tuple:
        """The lanes of *state*, exact inverse of :meth:`decode`: the one
        writer of a key from objects (only the tests call it).

        Optional ints are shifted so ``None`` lands below every value and
        node IDs by +2 (the directory's ``-1`` stays representable).  A
        cache block is :data:`CF_STATE` .. :data:`CF_LAST_OBSERVED`; a
        directory block its state, owner, sharers as an ascending run
        zero-padded to ``num_caches`` lanes (every sharer lane is ``>= 2``,
        so a shorter run still compares smaller), and memory; a message record
        ``(mtype, src, dst, vnet)`` and a ``(flag, value)`` pair each for
        requestor, data and ack count.  An ordered section is
        ``(n_channels, then per channel: src, dst, vnet, count, records)``
        in channel-key order, an unordered one ``(n_messages, records)``.
        """
        n = self.num_caches
        mtype_index = self._mtype_index

        def record(m: Message) -> tuple:
            return (mtype_index[m.mtype], m.src + 2, m.dst + 2, m.vnet,
                    *_pair(m.requestor), *_pair(m.data), *_pair(m.ack_count))

        out: list[int] = []
        for addr in range(self.num_addresses):
            for c in state.caches[addr * n : (addr + 1) * n]:
                out += (
                    self._cache_index[c.fsm_state], c.issued, _opt_lane(c.data, 1),
                    _opt_lane(c.acks_expected, 1), c.acks_received,
                    *(_opt_lane(s, 1) for s in c.saved),
                    0 if c.pending_access is None else self._access_index[c.pending_access] + 1,
                    c.last_observed + 1,
                )
            d = state.directory if addr == 0 else state.extra_dirs[addr - 1]
            sharers = sorted(s + 2 for s in d.sharers)
            out += (self._dir_index[d.fsm_state], _opt_lane(d.owner, 2), *sharers,
                    *(0,) * (n - len(sharers)), d.memory)
            out.append(state.latest_version if addr == 0 else state.extra_versions[addr - 1])
        if self.faults:
            out.append(state.faults_used)
        for network in (state.network, *state.extra_networks):
            if self.ordered:
                out.append(len(network.channels))
                for (src, dst, vnet), msgs in network.channels:
                    out += (src + 2, dst + 2, vnet, len(msgs))
                    for m in msgs:
                        out += record(m)
            else:
                out.append(len(network.messages))
                for m in network.messages:
                    out += record(m)
        return tuple(out)

    def decode(self, enc: tuple) -> GlobalState:
        """Exact inverse of :meth:`encode`."""
        self.decode_count += 1
        width = self.cache_width
        stride = self.plane_stride
        caches = []
        dirs = []
        versions = []
        for addr in range(self.num_addresses):
            plane = addr * stride
            for i in range(self.num_caches):
                base = plane + i * width
                caches.append(self._decoded_caches[enc[base : base + width]])
            dirs.append(
                self._decoded_dirs[enc[plane + self.dir_offset : plane + self.version_offset]]
            )
            versions.append(enc[plane + self.version_offset])
        faults_used = enc[self.fault_offset] if self.faults else 0
        networks = []
        pos = self.net_offset
        for _ in range(self.num_addresses):
            end = pos + self._section_length(enc, pos)
            networks.append(self._decoded_network(enc[pos:end]))
            pos = end
        return GlobalState(
            caches=tuple(caches),
            directory=dirs[0],
            network=networks[0],
            latest_version=versions[0],
            extra_dirs=tuple(dirs[1:]),
            extra_versions=tuple(versions[1:]),
            extra_networks=tuple(networks[1:]),
            faults_used=faults_used,
        )

    def _decoded_network(self, section: tuple):
        """The network value of one section's lanes."""
        mw = MESSAGE_ENCODED_WIDTH
        mtypes = self.mtypes
        if not self.ordered:
            return UnorderedNetwork(tuple(
                decode_message(section[pos : pos + mw], mtypes)
                for pos in range(1, len(section), mw)
            ))
        channels = []
        pos = 1
        for _ in range(section[0]):
            src, dst, vnet, count = section[pos : pos + 4]
            pos += 4
            msgs = tuple(
                decode_message(section[at : at + mw], mtypes)
                for at in range(pos, pos + count * mw, mw)
            )
            pos += count * mw
            channels.append(((src - 2, dst - 2, vnet), msgs))
        return OrderedNetwork(tuple(channels))

    def _section_length(self, enc, pos: int) -> int:
        """Lane count of the network section starting at lane *pos* of
        *enc* (a lane tuple, or a packed key cast to lanes)."""
        mw = MESSAGE_ENCODED_WIDTH
        count = enc[pos]
        if not self.ordered:
            return 1 + count * mw
        length = 1
        for _ in range(count):
            length += 4 + enc[pos + length + 3] * mw
        return length

    # -- bytes packing -----------------------------------------------------------
    def _layout(self, lanes: int) -> struct.Struct:
        """Compile (and cache) the layout of *lanes* native-order lanes."""
        layout = self._layouts[lanes] = struct.Struct(f"{lanes}{self.typecode}")
        return layout

    def pack(self, enc: tuple) -> bytes:
        """Pack an encoding into ``bytes`` (the visited-set / IPC form): the
        bytes of ``array(typecode, enc).tobytes()``, built ~3x faster by a
        compiled ``struct`` layout.  A search's successors are spliced out
        of their parent's key, so it packs its root and its memo misses
        only (a plan's outcome, a block's translation, a relabeled suffix).
        Raises :class:`LaneOverflow` for a value wider than a lane.
        """
        try:
            layout = self._layouts[len(enc)]
        except KeyError:
            layout = self._layout(len(enc))
        try:
            return layout.pack(*enc)
        except struct.error as exc:
            raise self.overflow(max(enc)) from exc

    def overflow(self, value: int) -> LaneOverflow:
        """The error for a lane *value* above :attr:`lane_max`."""
        return LaneOverflow(
            f"lane value {value} does not fit the codec's {8 * self.lane_bytes}-bit "
            f"lanes (typecode {self.typecode!r}): the state outgrew the static "
            "bound the lane width was derived from"
        )

    def unpack(self, packed: bytes) -> tuple:
        """Inverse of :meth:`pack`."""
        lanes = len(packed) // self.lane_bytes
        return (self._layouts.get(lanes) or self._layout(lanes)).unpack(packed)

    def view(self, packed: bytes) -> memoryview:
        """The lanes of *packed*, read in place: ``pack`` writes native
        order, so the cast reads what :meth:`unpack` would return, without
        building the tuple (what the searches check a new state on)."""
        return memoryview(packed).cast(self.typecode)

    # -- relabeling --------------------------------------------------------------
    def perm_tables(self, perm: tuple[int, ...]) -> tuple:
        """``(gather, t1, t2)`` for *perm*, built once and cached.

        * ``gather`` — an :func:`operator.itemgetter` over the cache-block
          region: output lane ``j`` reads input lane ``gather_indices[j]``,
          i.e. each cache block is fetched from the cache that lands on that
          slot under *perm*.  Applying it is one C-level pass.
        * ``t1`` — value-translation array for **+1-shifted** cache-ID lanes
          (saved-requestor slots): ``t1[0] = 0`` (empty), ``t1[v] =
          perm[v - 1] + 1``.
        * ``t2`` — value-translation array for **+2-shifted** node-ID lanes
          (directory owner/sharers, message src/dst/requestor): ``t2[0] = 0``
          (absent), ``t2[1] = 1`` (the directory, a fixed point), ``t2[v] =
          perm[v - 2] + 2``.
        """
        tables = self._perm_tables.get(perm)
        if tables is None:
            n = self.num_caches
            width = self.cache_width
            inverse = [0] * n
            for old_id, new_id in enumerate(perm):
                inverse[new_id] = old_id
            indices: list[int] = []
            for new_id in range(n):
                base = inverse[new_id] * width
                indices.extend(range(base, base + width))
            t1 = (0, *(perm[v] + 1 for v in range(n)))
            t2 = (0, 1, *(perm[v] + 2 for v in range(n)))
            tables = (itemgetter(*indices), t1, t2)
            self._perm_tables[perm] = tables
        return tables

    def relabel_via_tables(self, enc: tuple, perm: tuple[int, ...]) -> tuple:
        """*enc* relabeled through *perm* (``perm[old] = new``), computed
        through the precomputed :meth:`perm_tables`: one gather over the
        cache blocks, a table lookup on every saved-requestor lane, and the
        relabeled suffix.  Single-plane layouts only (symmetry reduction is
        gated off for multi-address systems at ``System`` construction).
        The searches never call it -- they relabel packed keys a cache block
        at a time -- it is what the tests pin that path against.
        """
        gather, t1, _t2 = self.perm_tables(perm)
        out = list(gather(enc))
        for lane in self._saved_lanes:
            out[lane] = t1[out[lane]]
        suffix = self.pack(enc[self.dir_offset :])
        out.extend(self.unpack(self.relabeled_suffix(suffix, perm)))
        return tuple(out)

    def relabeled_suffix(self, suffix: bytes, perm: tuple[int, ...]) -> bytes:
        """The packed relabeled directory + version + network lanes of a
        packed *suffix* (``key[dir_byte_offset:]``), memoized as one unit.

        The suffix past the cache blocks recurs across far more states than
        it has distinct values, so a representative's key is its relabeled
        cache blocks plus one ``(suffix, perm)`` lookup: no lane tuple and
        no second :meth:`pack`.
        """
        return self._packed_suffixes[suffix, perm]

    def _relabel_suffix(self, key: tuple) -> bytes:
        """:meth:`relabeled_suffix`'s memo miss."""
        suffix, perm = key
        net = self.net_byte_offset - self.dir_byte_offset
        cut = self.dir_width * self.lane_bytes
        return (
            self.pack(self.relabeled_directory_key(suffix[:cut], perm))
            # version lane plus the (perm-invariant) fault lane when present
            + suffix[cut:net]
            + self.packed_section(self._relabeled_items(suffix[net:], perm))
        )

    def _relabeled_items(self, section: bytes, perm: tuple[int, ...]) -> list:
        """The parse-handle items of the packed *section* under *perm*,
        re-normalized: a bag's translated records sorted, an ordered
        network's channels sorted by their relabeled channel key."""
        t2 = self.perm_tables(perm)[2]
        items = self.parsed_section(section)[0]
        if not self.ordered:
            return sorted(translate_encoded_message(m, t2) for m in items)
        return sorted(
            (t2[src], t2[dst], vnet, tuple(translate_encoded_message(m, t2) for m in msgs))
            for src, dst, vnet, msgs in items
        )

    def packed_section(self, items) -> bytes:
        """The packed network section holding *items*, shaped like a parse
        handle's (:meth:`parsed_section`), in section order: the one writer
        of a section from its content (relabels and the batch kernel's)."""
        out = [len(items)]
        if not self.ordered:
            for record in items:
                out += record
        else:
            for src, dst, vnet, msgs in items:
                out += (src, dst, vnet, len(msgs))
                for record in msgs:
                    out += record
        return self.pack(out)

    # -- network section helpers --------------------------------------------------
    def parsed_section(self, section: bytes):
        """``(items, offsets, deliveries, start, end)`` — the memoized parse
        handle of one packed network *section* (what the batch kernel
        hash-conses), placed at plane 0's bytes.

        *items* is the section's content -- ordered networks yield
        ``((src, dst, vnet, (msg record, ...)), ...)`` (encoded node IDs,
        FIFO message order), unordered networks a flat tuple of message
        records -- and
        *offsets* maps each item to its lanes: ``offsets[i]`` is the lane
        index of channel (or record) *i* relative to the section's first
        lane (``offsets[0] == 1``, past the count lane) and ``offsets[n]``
        is the section length, so item *i* occupies ``enc[net_offset +
        offsets[i] : net_offset + offsets[i + 1]]``.  *deliveries* lists
        the deliverable messages in delivery order as ``(where, record,
        packed)`` -- channel heads when ordered, the distinct records of the
        sorted bag when unordered (identical in-flight messages lead to the
        same successor; the object model de-duplicates them the same way)
        -- with *packed* the record's bytes, which head the kernel's
        delivery memo keys, so enumerating a state's deliveries allocates
        nothing.  *start* and *end* bound the section's bytes in a packed
        key.  Records, channel items, delivery triples and offset tuples
        are interned (equal parts of different sections are one object).
        The kernel threads this handle (through :meth:`parsed_planes`) from
        ``enabled`` into a plan's apply handler, whose splice writes the
        successor section in one pass through the offsets.
        """
        return self._net_items_memo[section]

    @property
    def parse_memo_entries(self) -> int:
        """Distinct packed sections (and multi-plane suffixes) the parse
        memos currently hold."""
        return len(self._net_items_memo) + len(self._planes_memo)

    def _parse_section(self, section: bytes):
        """:meth:`parsed_section`'s memo miss: the parse handle of one
        packed network *section*, placed at ``net_byte_offset``."""
        enc = self.unpack(section)
        count = enc[0]
        pos = 1
        mw = MESSAGE_ENCODED_WIDTH
        part = self._parts.setdefault
        if not self.ordered:
            items = []
            for i in range(count):
                rec = enc[pos + i * mw : pos + (i + 1) * mw]
                items.append(part(rec, rec))
            offsets = tuple(1 + i * mw for i in range(count + 1))
            heads = [
                (i, rec, offsets[i]) for i, rec in enumerate(items)
                if i == 0 or rec != items[i - 1]
            ]
        else:
            items = []
            offs = [1]
            for _ in range(count):
                src, dst, vnet, nmsgs = enc[pos : pos + 4]
                pos += 4
                msgs = []
                for i in range(nmsgs):
                    rec = enc[pos + i * mw : pos + (i + 1) * mw]
                    msgs.append(part(rec, rec))
                pos += nmsgs * mw
                item = (src, dst, vnet, tuple(msgs))
                items.append(part(item, item))
                offs.append(pos)
            offsets = tuple(offs)
            heads = [(i, item[3][0], offs[i] + 4) for i, item in enumerate(items)]
        items = tuple(items)  # retained per distinct section
        offsets = part(offsets, offsets)
        lb = self.lane_bytes
        deliveries = []
        for i, rec, at in heads:
            packed = section[at * lb : (at + mw) * lb]
            triple = (i, rec, part(packed, packed))
            deliveries.append(part(triple, triple))
        start = self.net_byte_offset
        return (items, offsets, tuple(deliveries), start, start + len(section))

    def parsed_planes(self, enc: tuple, key: bytes | None = None):
        """Per-address parse handles, as :meth:`parsed_section` returns
        them, each placed at its plane's section.  *key* is ``pack(enc)``
        when the caller holds it, which makes the memo probe one slice of
        it; without it *enc* is packed here.

        The kernel threads them from ``enabled`` into a plan's apply
        handler, which splices its plane's section through them.  A section
        is parsed once, in the one section memo, however many multi-plane
        suffixes hold it; with several planes the handles are memoized per
        distinct packed suffix, found by a walk over its count lanes and
        channel headers (:meth:`_plane_handles`)."""
        if key is None:
            key = self.pack(enc)
        if self.num_addresses == 1:
            return (self._net_items_memo[key[self.net_byte_offset :]],)
        return self._planes_memo[key[self.net_byte_offset :]]

    def _plane_handles(self, suffix: bytes) -> tuple:
        """:meth:`parsed_planes`' memo miss: each plane's section bounded
        through its count lanes and channel headers, looked up in the
        section memo and moved to that plane's bytes."""
        lanes = self.view(suffix)
        lb = self.lane_bytes
        base = self.net_byte_offset
        handles = []
        pos = 0
        for _ in range(self.num_addresses):
            end = pos + self._section_length(lanes, pos)
            handle = self._net_items_memo[suffix[pos * lb : end * lb]]
            if pos:
                handle = handle[:3] + (base + pos * lb, base + end * lb)
            handles.append(handle)
            pos = end
        return tuple(handles)

    # -- canonicalization keys -----------------------------------------------------
    def relabeled_directory_key(self, block: bytes, perm: tuple[int, ...]) -> tuple:
        """The lanes of the directory block relabeled through *perm*, which
        compare like its object-level sort key.  *block* is the packed
        directory block (``key[dir_byte_offset:][: dir_width * lane_bytes]``).

        Memoized per (directory block, perm): the tie-break stage of
        canonicalization evaluates this once per candidate permutation, and
        directory blocks recur across many states.
        """
        return self._dir_key_memo[block, perm]

    def _relabel_directory(self, key: tuple) -> tuple:
        """:meth:`relabeled_directory_key`'s memo miss."""
        block, perm = key
        t2 = self.perm_tables(perm)[2]
        lanes = self.unpack(block)
        owner = lanes[1]
        sharers = sorted(t2[s] for s in lanes[2:-1] if s != 0)
        return (
            lanes[0],
            t2[owner] if owner >= 2 else owner,
            *sharers,
            *((0,) * (self.num_caches - len(sharers))),
            lanes[-1],
        )

    def relabeled_network_key(self, section: bytes, perm: tuple[int, ...]) -> tuple:
        """The items of the packed *section* (``key[net_byte_offset:]``)
        relabeled through *perm*, which compare like the relabeled
        network's object-level sort key (channels by key, then records
        field by field), so minimizing over permutations picks the same
        winner.  Memoized per (network section, perm) — this is the
        expensive final tie-break stage, and sections recur heavily.
        """
        return self._net_key_memo[section, perm]

    # -- events ------------------------------------------------------------------
    def relabeled_event(self, eev: tuple, perm: tuple[int, ...]) -> tuple:
        """The event encoding *eev* with every cache ID remapped through
        *perm* (``perm[old] = new``), through :meth:`perm_tables`: what a
        trace's stored events are relabeled by before their one decode."""
        t2 = self.perm_tables(perm)[2]
        tag = eev[0]
        if tag == 0:  # IssueAccess: a raw cache ID
            return (0, perm[eev[1]], *eev[2:])
        if tag == 3:  # ReorderMessage: +2-shifted channel endpoints
            return (3, t2[eev[1]], t2[eev[2]], *eev[3:])
        return (tag, *translate_encoded_message(eev[1:], t2))

    def intern_event(self, eev: tuple) -> tuple:
        """The one shared tuple equal to the event encoding *eev*.

        Every memoized outcome keeps the event it applies; distinct events number
        in the hundreds, so producers share the interned object instead of
        holding a fresh equal tuple each (the store keeps one of each in
        its event side table whatever it is handed).
        """
        return self._events.setdefault(eev, eev)

    def decode_event(self, fields: tuple) -> SystemEvent:
        """The event of an encoding: ``(0, cache, access index)`` for an
        access, ``(1 | 2, message record...)`` for a delivery or a
        duplicate, ``(3, src, dst, vnet, position)`` for a reorder (node
        IDs +2-shifted), with the plane appended as one trailing lane when
        there are several addresses (what plans, the store and traces
        carry)."""
        addr = 0
        if self.num_addresses > 1:
            addr = fields[-1]
            fields = fields[:-1]
        tag = fields[0]
        if tag == 0:
            return IssueAccess(
                cache_id=fields[1], access=self.access_kinds[fields[2]], addr=addr
            )
        if tag == 1:
            return DeliverMessage(
                message=decode_message(fields[1:], self.mtypes), addr=addr
            )
        if tag == 2:
            return DuplicateMessage(
                message=decode_message(fields[1:], self.mtypes), addr=addr
            )
        return ReorderMessage(
            src=fields[1] - 2,
            dst=fields[2] - 2,
            vnet=fields[3],
            position=fields[4],
            addr=addr,
        )


__all__ = ["LaneOverflow", "Memo", "StateCodec"]
