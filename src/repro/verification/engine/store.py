"""Interned state store: dense integer IDs plus columnar parent links.

The store interns each (canonical) state exactly once, hands out a dense
integer ID, and records the search tree column-wise:

* ``parent[id]`` -- ID of the state this one was first reached from (-1 for
  the root);
* ``event[id]``  -- the :class:`~repro.system.system.SystemEvent` applied to
  the parent *representative* to reach this state;
* ``perm[id]``   -- the cache permutation that canonicalized the raw
  successor into the stored representative (``None`` when symmetry reduction
  is off or the successor was already canonical).

Every expander interns the **packed codec encoding**
(:meth:`repro.system.codec.StateCodec.pack`) of a canonical state, never
the object tree: the visited set keys on compact ``bytes``, which hash at C
speed and cost tens of bytes per state.  The store itself is agnostic --
any hashable key works, so object-keyed use (tests, tooling) stays valid.

Because traces are rebuilt by *replaying events* (not by reading back stored
states), the store also supports **hash compaction**: instead of keying the
intern table by the full key it can key by a 128-bit BLAKE2b digest, cutting
resident memory for big runs at a vanishing collision risk -- the same trade
Murphi offers with ``-b``/hash compaction.

The three link columns are typed arrays: ``array('q')`` parent IDs, and
small-int event / permutation columns indexing two side tables of the
distinct values (hundreds of events, at most ``num_caches!`` permutations),
so a link costs 14 bytes whichever expander wrote it.

The batch (vectorized) search keeps its visited set in its own native form
instead of the key dict: a :class:`RowTable` -- Murphi's layout, one
open-addressed table over a contiguous arena of fixed-width state vectors
-- adopted with :meth:`StateStore.adopt_rows`.  Membership there is decided
by comparing whole rows, never a digest; the arena index of a row *is* its
state ID; and packed keys reappear only at the boundaries (a checkpoint's
:meth:`~StateStore.snapshot`, a per-state :meth:`~StateStore.intern`).
"""

from __future__ import annotations

import hashlib
import mmap  # already loaded by the fleet's shared_memory: no new import
from array import array

from repro.system.system import GlobalState, SystemEvent

from repro.verification.engine.canonical import Permutation

#: Sentinel parent ID of the root state.
NO_PARENT = -1


#: Slot value of an unoccupied :class:`RowTable` slot.
_EMPTY = -1


class RowTable:
    """An exact visited set of fixed-width rows, in NumPy.

    ``arena[i]`` is the *i*-th distinct row ever added (so a row's arena
    index is a dense ID in first-insertion order) and ``slots`` is an
    open-addressed, linearly probed index of arena positions.  A probe
    ends at an empty slot or at a slot whose **whole row** equals the
    probe's -- there is no digest and no filter, so membership is exact
    whatever the hash does.  The slot table is rebuilt from the arena
    before its load passes one half (the old one is released first); the
    arena is an anonymous private mapping that the kernel extends in place
    (``mremap``: pages move, bytes are not copied), so growth never holds
    two copies of the rows, and capacity the rows have not reached yet is
    address space, not resident memory.

    *np* is the NumPy module (handed in by the batch kernel, which is the
    only code that imports it), *row_bytes* the width of a row.
    """

    #: Rows rehashed at a time when the slot table is rebuilt.
    _CHUNK = 1 << 16

    def __init__(self, np, row_bytes: int):
        self.np = np
        self.row_bytes = row_bytes
        # Rows are hashed and compared as the widest words that tile them.
        word = next(w for w in (8, 4, 2, 1) if row_bytes % w == 0)
        self._word = np.dtype(f"uint{8 * word}")
        self._words = row_bytes // word
        self._map = mmap.mmap(
            -1, 64 * row_bytes, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS
        )
        self._arena = self._mapped()
        self._count = 0
        self._slots = np.full(64, _EMPTY, dtype=np.int32)

    def __len__(self) -> int:
        return self._count

    @property
    def nbytes(self) -> int:
        """Bytes the set occupies: the rows in use plus the slot table."""
        return self._count * self.row_bytes + self._slots.nbytes

    def rows(self, dtype):
        """The rows in ID order as a matrix of *dtype* lanes: a view of the
        arena, to be dropped before the next :meth:`add`."""
        return self._arena[: self._count].view(dtype)

    def _as_words(self, rows):
        np = self.np
        rows = np.ascontiguousarray(rows)
        if rows.ndim != 2 or rows.shape[1] * rows.itemsize != self.row_bytes:
            raise ValueError(
                f"expected a matrix of {self.row_bytes}-byte rows, got shape "
                f"{rows.shape} of {rows.dtype}"
            )
        return rows.view(self._word)

    def _hash(self, words):
        """One 64-bit hash per row of *words* (FNV-1a over the row's words,
        then folded so the low bits -- the slot index -- see every byte)."""
        np = self.np
        h = np.full(len(words), 0xCBF29CE484222325, dtype=np.uint64)
        prime = np.uint64(0x100000001B3)
        for column in range(self._words):
            h ^= words[:, column]
            h *= prime
        h ^= h >> np.uint64(29)
        h *= np.uint64(0xBF58476D1CE4E5B9)
        h ^= h >> np.uint64(32)
        return h

    def _home(self, words):
        """Each row's first slot."""
        mask = self.np.uint64(len(self._slots) - 1)
        return (self._hash(words) & mask).astype(self.np.intp)

    def _reserve_slots(self, total: int) -> None:
        """Rebuild the slot table if *total* rows would load it past 1/2."""
        if 2 * total <= len(self._slots):
            return
        np = self.np
        size = len(self._slots)
        while size < 2 * total:
            size *= 2
        self._slots = None  # released before its successor is allocated
        self._slots = slots = np.full(size, _EMPTY, dtype=np.int32)
        mask = size - 1
        for lo in range(0, self._count, self._CHUNK):
            hi = min(lo + self._CHUNK, self._count)
            pend = np.arange(lo, hi)
            at = self._home(self._arena[lo:hi])
            # Arena rows are distinct: each only needs an empty slot.  A
            # contested slot keeps the last assignment, whichever it is.
            while pend.size:
                free = slots[at] == _EMPTY
                slots[at[free]] = pend[free]
                lost = slots[at] != pend
                pend = pend[lost]
                at = (at[lost] + 1) & mask

    def _mapped(self):
        """The mapping as a matrix of row words."""
        return self.np.frombuffer(self._map, dtype=self._word).reshape(
            -1, self._words
        )

    def _reserve_rows(self, total: int) -> None:
        capacity = len(self._arena)
        if total <= capacity:
            return
        # The mapping cannot move under a live array: drop ours first (a
        # view of the arena still held elsewhere makes ``resize`` raise
        # ``BufferError`` rather than leave it dangling).
        self._arena = None
        self._map.resize(max(total, 2 * capacity) * self.row_bytes)
        self._arena = self._mapped()

    def add(self, rows):
        """Insert the rows of matrix *rows* that the set does not hold.

        Returns a boolean mask over *rows*: True where the row is new.  Of
        equal rows within the batch the first is the new one; new rows take
        consecutive arena indices in batch order.
        """
        np = self.np
        words = self._as_words(rows)
        n = len(words)
        fresh = np.zeros(n, dtype=bool)
        if n == 0:
            return fresh
        self._reserve_slots(self._count + n)
        slots = self._slots
        mask = len(slots) - 1
        at_of = self._home(words)
        pend = np.arange(n)  # unresolved batch rows, always ascending
        while pend.size:
            at = at_of[pend]
            ref = slots[at]
            free = ref == _EMPTY
            if free.any():
                # Stage a claim: the slot names a *batch* row (-2 - index)
                # until the survivors get their arena indices below.  Among
                # rows contending for one slot the last assignment stays, so
                # assigning in descending order leaves the earliest row --
                # and equal rows probe in lockstep, so the earliest of them
                # always stages first and the others then match it.
                slots[at[free][::-1]] = -2 - pend[free][::-1]
                ref = slots[at]
            staged = ref < 0
            against = np.empty((pend.size, self._words), dtype=self._word)
            against[~staged] = self._arena[ref[~staged]]
            against[staged] = words[-2 - ref[staged]]
            same = (against == words[pend]).all(axis=1)
            fresh[pend[staged & (ref == -2 - pend)]] = True
            pend = pend[~same]
            at_of[pend] = (at_of[pend] + 1) & mask
        new = np.flatnonzero(fresh)
        first, last = self._count, self._count + new.size
        self._reserve_rows(last)
        self._arena[first:last] = words[new]
        # A winner stopped probing at the slot it staged.
        slots[at_of[new]] = np.arange(first, last)
        self._count = last
        return fresh

    def find(self, rows):
        """Arena index of each row of matrix *rows*, -1 where absent."""
        np = self.np
        words = self._as_words(rows)
        found = np.full(len(words), -1, dtype=np.int64)
        slots = self._slots
        mask = len(slots) - 1
        at = self._home(words)
        pend = np.arange(len(words))
        while pend.size:
            ref = slots[at]
            live = np.flatnonzero(ref != _EMPTY)  # an empty slot: absent
            pend, at, ref = pend[live], at[live], ref[live]
            same = (self._arena[ref] == words[pend]).all(axis=1)
            found[pend[same]] = ref[same]
            pend = pend[~same]
            at = (at[~same] + 1) & mask
        return found


class _Interned(dict):
    """value -> dense small int, assigned at first sight (a plain subscript
    on the hot path); ``values[index]`` reads a value back."""

    __slots__ = ("values",)

    def __init__(self, values=()):
        super().__init__()
        self.values: list = []
        for value in values:
            self[value]

    def __missing__(self, value) -> int:
        index = self[value] = len(self.values)
        self.values.append(value)
        return index


class StateStore:
    """Intern table + columnar search-tree links for explored states."""

    __slots__ = ("_ids", "_rows", "_row_codec", "_parent", "_event", "_perm",
                 "_events", "_perms", "hash_compaction")

    def __init__(self, *, hash_compaction: bool = False):
        self.hash_compaction = hash_compaction
        self._ids: dict[object, int] | None = {}
        #: The visited set as a :class:`RowTable` (see :meth:`adopt_rows`),
        #: with the object that converts packed keys to rows and back.
        self._rows: RowTable | None = None
        self._row_codec = None
        self._parent = array("q")
        #: Per state, the index of its event / permutation in the side
        #: tables below.
        self._event = array("I")
        self._perm = array("H")
        self._events = _Interned()
        self._perms = _Interned()

    def _key(self, state: object) -> object:
        if not self.hash_compaction:
            return state
        if isinstance(state, bytes):
            material = state
        elif isinstance(state, GlobalState):
            material = repr(state.sort_key()).encode()
        else:
            material = repr(state).encode()
        return hashlib.blake2b(material, digest_size=16).digest()

    def intern(
        self,
        state: object,
        parent: int = NO_PARENT,
        event: SystemEvent | None = None,
        perm: Permutation | None = None,
    ) -> tuple[int, bool]:
        """Return ``(id, is_new)``; records the parent link only when new.

        *state* is any hashable key -- the packed codec encoding on the
        search hot path, or a :class:`GlobalState` in object-keyed use.
        The link arguments may be passed positionally (the serial search
        interns once per transition; keyword binding is measurable there).
        Once the visited set is a row table (:meth:`adopt_rows`) *state*
        must be a packed key, and it is looked up as its row.
        """
        ids = self._ids
        if ids is None:
            return self._intern_row(state, parent, event, perm)
        key = self._key(state) if self.hash_compaction else state
        existing = ids.get(key)
        if existing is not None:
            return existing, False
        new_id = len(self._parent)
        ids[key] = new_id
        self._parent.append(parent)
        self._event.append(self._events[event])
        self._perm.append(self._perms[perm])
        return new_id, True

    def _intern_row(self, key, parent, event, perm) -> tuple[int, bool]:
        """:meth:`intern` against the row table: the batch search's
        per-state fallback levels land here one key at a time."""
        row = self._row_codec.rows_of((key,))
        if self._rows.add(row)[0]:
            return self.extend_links((parent,), (event,), (perm,)), True
        return int(self._rows.find(row)[0]), False

    def intern_children(
        self, parent: int, children
    ) -> list[tuple[int, object]]:
        """Batch :meth:`intern` of ``(event, key, perm)`` triples from one
        parent.  Returns ``[(id, key), ...]`` for the genuinely new keys, in
        input order; already known keys record nothing, like :meth:`intern`.
        """
        out: list[tuple[int, object]] = []
        for event, key, perm in children:
            new_id, is_new = self.intern(key, parent, event, perm)
            if is_new:
                out.append((new_id, key))
        return out

    def intern_batch(self, rows, parents, events, perms=None):
        """Batch :meth:`intern` of a matrix of *rows* against the row table
        (:meth:`adopt_rows`): one vectorized probe for a whole level.

        *parents* (an ``int64`` array), *events* and *perms* (sequences;
        ``None`` = no permutation anywhere) match *rows* positionally.
        Returns an integer array, again positional: the new ID of each
        genuinely new row -- consecutive, in row order, first occurrence
        winning among equal rows -- and ``-1`` for a known one.  The caller
        builds the next level, and locates a violating successor, from it.
        """
        table = self._rows
        np = table.np
        fresh = table.add(rows)
        new = np.flatnonzero(fresh)
        picked = new.tolist()
        column = array("q")
        column.frombytes(parents[new].tobytes())
        base = self.extend_links(
            column,
            [events[i] for i in picked],
            [perms[i] for i in picked] if perms is not None else (None,) * len(picked),
        )
        out = np.full(len(fresh), -1, dtype=np.int64)
        out[new] = np.arange(base, base + len(picked))
        return out

    def append_link(
        self,
        parent: int,
        event: SystemEvent | None,
        perm: Permutation | None,
    ) -> int:
        """Append a trace link for a key deduplicated *elsewhere*; returns its ID.

        The shared-memory parallel engine dedups candidate successors on the
        worker that owns their digest shard, so the parent records only the
        columnar parent/event/perm link and never touches (or keeps) a key
        dict: its footprint is three column entries per state regardless of
        key size.
        """
        return self.extend_links((parent,), (event,), (perm,))

    def extend_links(self, parents, events, perms) -> int:
        """:meth:`append_link` for a whole block: three equally long
        iterables, one per column; returns the block's first ID (the rest
        follow densely).  Events and permutations are translated to their
        side-table indices at C speed (a first sight costs one Python
        call), and an ``array('q')`` of parents is one ``memcpy``."""
        base = len(self._parent)
        self._parent.extend(parents)
        self._event.extend(map(self._events.__getitem__, events))
        self._perm.extend(map(self._perms.__getitem__, perms))
        return base

    def drop_index(self) -> None:
        """Release the key dict (membership moves to the workers' shards).

        After this, :meth:`intern`/:meth:`__contains__` are invalid;
        :meth:`append_link`, :meth:`link` and :meth:`chain` -- everything
        trace reconstruction needs -- keep working.
        """
        self._ids = None

    def adopt_rows(self, table: RowTable, row_codec) -> None:
        """Move the visited set out of the key dict into *table*.

        *row_codec* converts between packed keys and the table's rows
        (``rows_of(keys) -> matrix``, ``keys_of(matrix) -> keys``).  The
        keys interned so far enter the table in ID order, so from here on
        a state's ID *is* its arena index; the dict is dropped as at fleet
        spin-up (so :meth:`__contains__` is invalid),
        :meth:`intern_batch` becomes valid, and :meth:`intern` keeps
        working on packed keys.  The store must hold exact keys
        (no hash compaction): a digest cannot become a row.
        """
        if self.hash_compaction:
            raise ValueError("a hash-compacting store holds no keys to adopt")
        keys = list(self._ids)  # insertion order is ID order
        if not table.add(row_codec.rows_of(keys)).all() or len(table) != len(self):
            raise ValueError("the row table must start out empty")
        self._ids = None
        self._rows = table
        self._row_codec = row_codec

    @property
    def visited_bytes(self) -> int | None:
        """Bytes of the visited set when it is a row table; ``None`` while
        it is a dict (not measurable from here) or lives in the shards."""
        return self._rows.nbytes if self._rows is not None else None

    def _keys(self) -> list | None:
        """The intern keys in ID order (None: the visited set is elsewhere)."""
        if self._rows is not None:
            codec = self._row_codec
            return codec.keys_of(self._rows.rows(codec.dtype))
        if self._ids is not None:
            return list(self._ids)
        return None

    # -- checkpoint support --------------------------------------------------------
    def snapshot(self) -> dict:
        """Picklable copy of the store for a checkpoint.

        Keys are saved in dense ID order so :meth:`restore` rebuilds the
        exact same ID assignment; after :meth:`drop_index` there are none
        (the checkpoint carries the worker shards' digests instead).  A row
        table is saved as the packed keys its rows stand for -- a row names
        its network section by a process-local ID, so it means nothing
        without the tail it names.
        """
        return {
            "hash_compaction": self.hash_compaction,
            "keys": self._keys(),
            "parent": array("q", self._parent),
            "event": array("I", self._event),
            "perm": array("H", self._perm),
            "events": list(self._events.values),
            "perms": list(self._perms.values),
        }

    def restore(self, snapshot: dict) -> None:
        """Replace this store's contents with a :meth:`snapshot` payload.

        Snapshot keys were already passed through :meth:`_key` when first
        interned, so they are re-installed verbatim (digests stay digests
        under hash compaction).  The visited set comes back as the key dict
        whatever it was saved from; the batch search re-adopts it.
        """
        self.hash_compaction = snapshot["hash_compaction"]
        self._parent = array("q", snapshot["parent"])
        self._event = array("I", snapshot["event"])
        self._perm = array("H", snapshot["perm"])
        self._events = _Interned(snapshot["events"])
        self._perms = _Interned(snapshot["perms"])
        self._rows = self._row_codec = None
        keys = snapshot["keys"]
        if keys is None:
            self._ids = None
        else:
            self._ids = {key: state_id for state_id, key in enumerate(keys)}

    def link(self, state_id: int) -> tuple[int, SystemEvent | None, Permutation | None]:
        """The ``(parent_id, event, perm)`` triple recorded for *state_id*."""
        return (
            self._parent[state_id],
            self._events.values[self._event[state_id]],
            self._perms.values[self._perm[state_id]],
        )

    def chain(
        self, state_id: int
    ) -> list[tuple[SystemEvent | None, Permutation | None]]:
        """The root-to-*state_id* sequence of ``(event, perm)`` links."""
        links: list[tuple[SystemEvent | None, Permutation | None]] = []
        current = state_id
        while current != NO_PARENT:
            parent, event, perm = self.link(current)
            links.append((event, perm))
            current = parent
        links.reverse()
        return links

    def __len__(self) -> int:
        return len(self._parent)

    def __contains__(self, state: object) -> bool:
        return self._key(state) in self._ids
