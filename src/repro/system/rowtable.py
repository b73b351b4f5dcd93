"""An exact open-addressed table of fixed-width rows, in NumPy.

Murphi's layout -- one hash table over a contiguous arena of fixed-width
state vectors -- as a leaf module: it imports nothing from the package, so
the batch kernel (:mod:`repro.system.vectorized`, whose hash-consed network
sections are rows of one) and the state store
(:mod:`repro.verification.engine.store`, whose visited set is another) can
both hold a :class:`RowTable` without one layer reaching into the other.
"""

from __future__ import annotations

import mmap  # already loaded by the fleet's shared_memory: no new import

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

    #: Rows probed at a time by an insertion, and rehashed at a time when
    #: the slot table is rebuilt.
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
        """One 64-bit hash per row of *words*: a multiply-and-fold round
        per word, so every word is mixed before the next enters -- rows of
        small integers (ID vectors) collide under a plain FNV-1a chain --
        and the low bits, the slot index, see every byte."""
        np = self.np
        h = np.full(len(words), 0xCBF29CE484222325, dtype=np.uint64)
        multiplier = np.uint64(0xBF58476D1CE4E5B9)
        fold = np.uint64(32)
        for column in range(self._words):
            h ^= words[:, column]
            h *= multiplier
            h ^= h >> fold
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
        return self._insert(rows)[0]

    def intern(self, rows):
        """:meth:`add`, answering with the arena index of every row of
        *rows* instead -- new (numbered as :meth:`add` numbers them) or
        known -- from the same single probe."""
        return self._insert(rows)[1]

    def _insert(self, rows):
        """``(new mask, arena indices)`` of :meth:`add` / :meth:`intern`:
        the batch probed a chunk at a time, in order, so the probe's
        temporaries -- and the slots reserved for rows that turn out to be
        repeats -- are bounded by the chunk, not by the batch."""
        np = self.np
        words = self._as_words(rows)
        if len(words) <= self._CHUNK:
            return self._insert_chunk(words)
        parts = [
            self._insert_chunk(words[lo : lo + self._CHUNK])
            for lo in range(0, len(words), self._CHUNK)
        ]
        return tuple(map(np.concatenate, zip(*parts)))

    def _insert_chunk(self, words):
        np = self.np
        n = len(words)
        # What each row's probe ended at: an arena index, or while the
        # batch is in flight ``-2 - i`` for the batch row *i* it equals.
        ids = np.empty(n, dtype=np.int64)
        if n == 0:
            return np.zeros(0, dtype=bool), ids
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
            ids[pend[same]] = ref[same]
            pend = pend[~same]
            at_of[pend] = (at_of[pend] + 1) & mask
        # A new row is one that matched its own claim.
        fresh = ids == -2 - np.arange(n)
        new = np.flatnonzero(fresh)
        first, last = self._count, self._count + new.size
        self._reserve_rows(last)
        self._arena[first:last] = words[new]
        # A winner stopped probing at the slot it staged.
        slots[at_of[new]] = np.arange(first, last)
        self._count = last
        ids[new] = np.arange(first, last)
        late = np.flatnonzero(ids < 0)  # equal to an earlier row of the batch
        ids[late] = ids[-2 - ids[late]]
        return fresh, ids

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


__all__ = ["RowTable"]
