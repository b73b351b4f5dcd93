"""Interned state store: dense integer IDs plus columnar parent links.

The store interns each (canonical) state exactly once, hands out a dense
integer ID, and records the search tree column-wise:

* ``parent[id]`` -- ID of the state this one was first reached from (-1 for
  the root);
* ``event[id]``  -- the event encoding (read back by
  :meth:`~repro.system.codec.StateCodec.decode_event`) of the
  :class:`~repro.system.system.SystemEvent` applied to the parent
  *representative* to reach this state;
* ``perm[id]``   -- the cache permutation that canonicalized the raw
  successor into the stored representative (``None`` when symmetry reduction
  is off or the successor was already canonical).

Every expander interns the **packed codec encoding**
(:meth:`repro.system.codec.StateCodec.pack`) of a canonical state, never
the object tree: the visited set keys on compact ``bytes``, which hash at C
speed and cost tens of bytes per state.  The store itself is agnostic --
any hashable key works, so object-keyed use (tests, tooling) stays valid.
It is the only place a search in this process deduplicates a successor,
and it is exact: keys (or rows, below) are compared whole, never a digest.

The three link columns are typed arrays: ``array('q')`` parent IDs, and
small-int event / permutation columns indexing two side tables of the
distinct values (hundreds of events, at most ``num_caches!`` permutations),
so a link costs 14 bytes whichever expander wrote it.

The batch (vectorized) search keeps its visited set in its own native form
instead of the key dict: a :class:`~repro.system.rowtable.RowTable`
(re-exported here; the batch kernel's section table is another) --
Murphi's layout, one open-addressed table over a contiguous arena of
fixed-width state vectors -- adopted with :meth:`StateStore.adopt_rows`.  Membership there is decided
by comparing whole rows, never a digest; the arena index of a row *is* its
state ID; and packed keys reappear only at the boundaries (a checkpoint's
:meth:`~StateStore.snapshot`, a per-state :meth:`~StateStore.intern`).
"""

from __future__ import annotations

from array import array

from repro.system.rowtable import RowTable

from repro.verification.engine.canonical import Permutation

#: Sentinel parent ID of the root state.
NO_PARENT = -1


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
                 "_events", "_perms")

    def __init__(self):
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

    def intern(
        self,
        state: object,
        parent: int = NO_PARENT,
        event: tuple | None = None,
        perm: Permutation | None = None,
    ) -> tuple[int, bool]:
        """Return ``(id, is_new)``; records the parent link only when new.

        *state* is any hashable key -- the packed codec encoding on the
        search hot path, or a ``GlobalState`` in object-keyed use.
        The link arguments may be passed positionally (the serial search
        interns once per transition; keyword binding is measurable there).
        Once the visited set is a row table (:meth:`adopt_rows`) *state*
        must be a packed key, and it is looked up as its row.
        """
        ids = self._ids
        if ids is None:
            return self._intern_row(state, parent, event, perm)
        existing = ids.get(state)
        if existing is not None:
            return existing, False
        new_id = len(self._parent)
        ids[state] = new_id
        self._parent.append(parent)
        self._event.append(self._events[event])
        self._perm.append(self._perms[perm])
        return new_id, True

    def _intern_row(self, key, parent, event, perm) -> tuple[int, bool]:
        """:meth:`intern` against the row table: the batch search's
        per-state fallback levels land here one key at a time."""
        known = len(self._rows)
        row_id = int(self._rows.intern(self._row_codec.rows_of((key,)))[0])
        if row_id == known:
            self.extend_links((parent,), (event,), (perm,))
        return row_id, row_id == known

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

    def intern_batch(self, rows, links):
        """Batch :meth:`intern` of a matrix of *rows* against the row table
        (:meth:`adopt_rows`): one vectorized probe for a whole level, raw --
        equal rows and known rows included; the table is the only dedup.

        Returns an integer array positional with *rows*: the new ID of each
        genuinely new row -- consecutive, in row order, first occurrence
        winning among equal rows -- and ``-1`` for a known one.  The caller
        builds the next level, and locates a violating successor, from it.
        *links* maps the positions of the new rows (an index array) to
        their three link columns ``(parents, events, perms)``, so a link is
        only ever computed for a row that got an ID.
        """
        table = self._rows
        np = table.np
        new = np.flatnonzero(table.add(rows))
        base = self.extend_links(*links(new))
        out = np.full(len(rows), -1, dtype=np.int64)
        out[new] = np.arange(base, base + len(new))
        return out

    def append_link(
        self,
        parent: int,
        event: tuple | None,
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

        After this, :meth:`intern` is invalid;
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
        spin-up,
        :meth:`intern_batch` becomes valid, and :meth:`intern` keeps
        working on packed keys.
        """
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

    def _keys(self) -> list:
        """The intern keys in ID order."""
        if self._rows is not None:
            table = self._rows
            return self._row_codec.keys_of(table.rows(table.np.uint32))
        return list(self._ids)

    # -- checkpoint support --------------------------------------------------------
    def snapshot(self) -> dict:
        """Picklable copy of the store for a checkpoint.

        Keys are saved in dense ID order so :meth:`restore` rebuilds the
        exact same ID assignment.  A row table is saved as the packed keys
        its rows stand for -- a row names its network section by a
        process-local ID, so it means nothing without the tail it names.
        """
        return {
            "keys": self._keys(),
            "parent": array("q", self._parent),
            "event": array("I", self._event),
            "perm": array("H", self._perm),
            "events": list(self._events.values),
            "perms": list(self._perms.values),
        }

    def restore(self, snapshot: dict) -> None:
        """Replace this store's contents with a :meth:`snapshot` payload.

        The visited set comes back as the key dict whatever it was saved
        from; the batch search re-adopts it.
        """
        self._parent = array("q", snapshot["parent"])
        self._event = array("I", snapshot["event"])
        self._perm = array("H", snapshot["perm"])
        self._events = _Interned(snapshot["events"])
        self._perms = _Interned(snapshot["perms"])
        self._rows = self._row_codec = None
        self._ids = {key: state_id for state_id, key in enumerate(snapshot["keys"])}

    def link(self, state_id: int) -> tuple[int, tuple | None, Permutation | None]:
        """The ``(parent_id, event, perm)`` triple recorded for *state_id*."""
        return (
            self._parent[state_id],
            self._events.values[self._event[state_id]],
            self._perms.values[self._perm[state_id]],
        )

    def chain(
        self, state_id: int
    ) -> list[tuple[tuple | None, Permutation | None]]:
        """The root-to-*state_id* sequence of ``(event, perm)`` links."""
        links: list[tuple[tuple | None, Permutation | None]] = []
        current = state_id
        while current != NO_PARENT:
            parent, event, perm = self.link(current)
            links.append((event, perm))
            current = parent
        links.reverse()
        return links

    def __len__(self) -> int:
        return len(self._parent)
