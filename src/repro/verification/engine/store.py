"""Interned state store: dense integer IDs plus columnar parent links.

The seed explorer kept a ``dict[GlobalState, tuple[GlobalState | None,
SystemEvent | None]]`` -- every entry held two full state objects, and each
membership test plus insert hashed the nested dataclasses twice.  The store
interns each (canonical) state exactly once, hands out a dense integer ID,
and records the search tree column-wise:

* ``parent[id]`` -- ID of the state this one was first reached from (-1 for
  the root);
* ``event[id]``  -- the :class:`~repro.system.system.SystemEvent` applied to
  the parent *representative* to reach this state;
* ``perm[id]``   -- the cache permutation that canonicalized the raw
  successor into the stored representative (``None`` when symmetry reduction
  is off or the successor was already canonical).

Since the encoded-state core landed, the search strategies intern the
**packed codec encoding** (:meth:`repro.system.codec.StateCodec.pack`) of
each canonical state rather than the object tree: the visited set then keys
on compact ``bytes``, which hash at C speed and cost tens of bytes per state
instead of kilobytes of linked dataclasses.  The store itself is agnostic --
any hashable key works, so object-keyed use (tests, tooling) stays valid.

Because traces are rebuilt by *replaying events* (not by reading back stored
states), the store also supports **hash compaction**: instead of keying the
intern table by the full key it can key by a 128-bit BLAKE2b digest, cutting
resident memory for big runs at a vanishing collision risk -- the same trade
Murphi offers with ``-b``/hash compaction.
"""

from __future__ import annotations

import hashlib

from repro.system.system import GlobalState, SystemEvent

from repro.verification.engine.canonical import Permutation

#: Sentinel parent ID of the root state.
NO_PARENT = -1


class StateStore:
    """Intern table + columnar search-tree links for explored states."""

    __slots__ = ("_ids", "_parent", "_event", "_perm", "hash_compaction")

    def __init__(self, *, hash_compaction: bool = False):
        self.hash_compaction = hash_compaction
        self._ids: dict[object, int] = {}
        self._parent: list[int] = []
        self._event: list[SystemEvent | None] = []
        self._perm: list[Permutation | None] = []

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
        """
        key = self._key(state) if self.hash_compaction else state
        existing = self._ids.get(key)
        if existing is not None:
            return existing, False
        new_id = len(self._parent)
        self._ids[key] = new_id
        self._parent.append(parent)
        self._event.append(event)
        self._perm.append(perm)
        return new_id, True

    def intern_children(
        self, parent: int, children
    ) -> list[tuple[int, object]]:
        """Batch :meth:`intern` of ``(event, key, perm)`` triples from one parent.

        The parallel search's absorb loop is per-successor work the parent
        does serially; batching it into one call with the hot lookups bound
        to locals keeps the parent thin while workers expand the next
        shards.  Returns ``[(id, key), ...]`` for the genuinely new keys, in
        input order -- exactly the pairs the next frontier needs.  Already
        known keys record nothing, like :meth:`intern`.
        """
        ids = self._ids
        parents = self._parent
        events = self._event
        perms = self._perm
        compact = self.hash_compaction
        out: list[tuple[int, object]] = []
        for event, key, perm in children:
            lookup = self._key(key) if compact else key
            if lookup in ids:
                continue
            new_id = len(parents)
            ids[lookup] = new_id
            parents.append(parent)
            events.append(event)
            perms.append(perm)
            out.append((new_id, key))
        return out

    def intern_batch(self, entries) -> list[int]:
        """Batch :meth:`intern` of ``(key, parent, event, perm)`` quads.

        The vectorized search interns a whole frontier level's worth of
        canonical successors in one call (its successors arrive pre-deduped
        per level, but cross-level duplicates are still resolved here).
        Returns the new ID for each genuinely new key, ``-1`` for an already
        known one, positionally matching *entries* -- the caller builds the
        next frontier (and locates a violating successor) from the indices.
        """
        ids = self._ids
        parents = self._parent
        events = self._event
        perms = self._perm
        compact = self.hash_compaction
        out: list[int] = []
        for key, parent, event, perm in entries:
            lookup = self._key(key) if compact else key
            if lookup in ids:
                out.append(-1)
                continue
            new_id = len(parents)
            ids[lookup] = new_id
            parents.append(parent)
            events.append(event)
            perms.append(perm)
            out.append(new_id)
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
        follow densely).  The fleet's rounds land here as packed columns,
        so a level costs the parent three ``list.extend`` calls."""
        base = len(self._parent)
        self._parent.extend(parents)
        self._event.extend(events)
        self._perm.extend(perms)
        return base

    def drop_index(self) -> None:
        """Release the key dict (membership moves to the workers' shards).

        After this, :meth:`intern`/:meth:`__contains__` are invalid;
        :meth:`append_link`, :meth:`link` and :meth:`chain` -- everything
        trace reconstruction needs -- keep working.
        """
        self._ids = None

    # -- checkpoint support --------------------------------------------------------
    def snapshot(self) -> dict:
        """Picklable copy of the store for a checkpoint.

        Keys are saved in dense ID order so :meth:`restore` rebuilds the
        exact same ID assignment; after :meth:`drop_index` there are none
        (the checkpoint carries the worker shards' digests instead).
        """
        keys = None
        if self._ids is not None:
            keys = [None] * len(self._parent)
            for key, state_id in self._ids.items():
                keys[state_id] = key
        return {
            "hash_compaction": self.hash_compaction,
            "keys": keys,
            "parent": list(self._parent),
            "event": list(self._event),
            "perm": list(self._perm),
        }

    def restore(self, snapshot: dict) -> None:
        """Replace this store's contents with a :meth:`snapshot` payload.

        Snapshot keys were already passed through :meth:`_key` when first
        interned, so they are re-installed verbatim (digests stay digests
        under hash compaction).
        """
        self.hash_compaction = snapshot["hash_compaction"]
        self._parent = list(snapshot["parent"])
        self._event = list(snapshot["event"])
        self._perm = list(snapshot["perm"])
        keys = snapshot["keys"]
        if keys is None:
            self._ids = None
        else:
            self._ids = {key: state_id for state_id, key in enumerate(keys)}

    def iter_keys(self):
        """The intern keys (post-:meth:`_key`), in arbitrary order."""
        return iter(self._ids)

    def link(self, state_id: int) -> tuple[int, SystemEvent | None, Permutation | None]:
        """The ``(parent_id, event, perm)`` triple recorded for *state_id*."""
        return self._parent[state_id], self._event[state_id], self._perm[state_id]

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
