"""Digest-sharded visited sets with optional disk spill.

The shared-memory parallel engine (:mod:`repro.verification.engine.parallel`)
never keeps one global visited dict: each worker *owns* the slice of the
canonical state space whose 128-bit BLAKE2b digest (:func:`digest128`) lands
in its shard -- the only place the engine decides membership by digest
(``stats["omission_bound"]``).  :func:`shard_of` is the whole
partition: it decides who answers membership for a candidate successor
(exactly once, at once when the producer is the owner), who keeps the state
in its pending level and who expands it, and it is how the parent deals a
portable frontier out (the root, or a resumed checkpoint's).  The parent
process keeps only the columnar trace links -- no key dict at all -- which
is what holds its footprint flat as the state count grows.

:class:`SpillableKeySet` is one worker's shard.  It is an insert-only set of
16-byte digests with two tiers:

* a **hot** in-memory ``set`` (every membership probe hits it first);
* zero or more **cold runs** on disk: sorted, fixed-width (16-byte) record
  files, probed by binary search over an ``mmap``.  When the hot tier
  reaches the spill threshold it is sorted and flushed to a new run;
  accumulated runs are merged (a streaming k-way merge, the classic delayed
  duplicate detection layout) once enough pile up, keeping probes at
  ``O(log n)`` against a bounded number of runs.

Spilling is *opt-in* (``spill_dir=None`` keeps everything hot) because the
membership probes against disk runs cost more than a set hit; it exists to
trade that CPU for bounded memory on searches whose visited set would not
fit otherwise.  Clearing or losing a run is never sound here (this set IS
the dedup ground truth), so runs live until :meth:`close`.
"""

from __future__ import annotations

import hashlib
import heapq
import mmap
import os

#: Digest width in bytes (128 bits).
DIGEST_BYTES = 16

#: Hot-tier size at which a spill-enabled set flushes a sorted run to disk.
SPILL_THRESHOLD = 1 << 21

#: Merge cold runs down to one when this many have accumulated.
_MAX_RUNS = 8


def digest128(key: bytes) -> bytes:
    """The fleet's 128-bit state digest (BLAKE2b-16 over the packed key)."""
    return hashlib.blake2b(key, digest_size=DIGEST_BYTES).digest()


def shard_of(digest: bytes, num_shards: int) -> int:
    """Owning shard of a digest: its low 64 bits modulo the shard count."""
    return int.from_bytes(digest[-8:], "little") % num_shards


class SpillableKeySet:
    """Insert-only set of 16-byte digests, spillable to sorted disk runs."""

    __slots__ = ("_hot", "_runs", "_cold_len", "spill_dir", "spill_threshold",
                 "spill_bytes", "_tag", "_next_run")

    def __init__(self, spill_dir: str | None = None, *,
                 spill_threshold: int = SPILL_THRESHOLD, tag: str = "0"):
        self._hot: set[bytes] = set()
        self._runs: list[tuple] = []  # (path, fileobj, mmap, n_records)
        self._cold_len = 0
        self.spill_dir = spill_dir
        self.spill_threshold = spill_threshold
        #: Bytes currently resident in cold runs (telemetry).
        self.spill_bytes = 0
        self._tag = tag
        self._next_run = 0

    def __len__(self) -> int:
        return len(self._hot) + self._cold_len

    def __contains__(self, digest: bytes) -> bool:
        if digest in self._hot:
            return True
        for _path, _f, buf, n in self._runs:
            lo, hi = 0, n
            while lo < hi:
                mid = (lo + hi) >> 1
                probe = buf[mid * DIGEST_BYTES : (mid + 1) * DIGEST_BYTES]
                if probe < digest:
                    lo = mid + 1
                elif probe > digest:
                    hi = mid
                else:
                    return True
        return False

    def add(self, digest: bytes) -> None:
        """Insert a digest known to be absent (callers probe first)."""
        hot = self._hot
        hot.add(digest)
        if (
            self.spill_dir is not None
            and len(hot) >= self.spill_threshold
        ):
            self._flush()

    # -- spill machinery -------------------------------------------------------
    def _run_path(self) -> str:
        path = os.path.join(
            self.spill_dir,
            f"shard-{os.getpid()}-{self._tag}-{self._next_run}.run",
        )
        self._next_run += 1
        return path

    def _open_run(self, path: str):
        f = open(path, "rb")
        size = os.fstat(f.fileno()).st_size
        buf = mmap.mmap(f.fileno(), size, access=mmap.ACCESS_READ)
        return (path, f, buf, size // DIGEST_BYTES)

    def _flush(self) -> None:
        """Sort the hot tier into a new cold run (then merge if crowded)."""
        blob = b"".join(sorted(self._hot))
        path = self._run_path()
        with open(path, "wb") as f:
            f.write(blob)
        self._runs.append(self._open_run(path))
        self._cold_len += len(self._hot)
        self.spill_bytes += len(blob)
        self._hot = set()
        if len(self._runs) >= _MAX_RUNS:
            self._merge_runs()

    def _merge_runs(self) -> None:
        """Streaming k-way merge of every cold run into one.

        Runs hold disjoint digest sets by construction (a digest is only
        added after a full membership probe), so the merge is a pure
        interleave -- no dedup pass needed.
        """
        def records(buf, n):
            for i in range(n):
                yield buf[i * DIGEST_BYTES : (i + 1) * DIGEST_BYTES]

        path = self._run_path()
        with open(path, "wb") as f:
            for digest in heapq.merge(
                *(records(buf, n) for _p, _f, buf, n in self._runs)
            ):
                f.write(digest)
        old = self._runs
        self._runs = [self._open_run(path)]
        for old_path, fobj, buf, _n in old:
            buf.close()
            fobj.close()
            os.unlink(old_path)
        self.spill_bytes = self._runs[0][3] * DIGEST_BYTES

    # -- bulk I/O (checkpoints, pool spin-up) ----------------------------------
    def dump(self) -> bytes:
        """Every digest in the set, concatenated (hot tier unsorted)."""
        parts = [buf[: n * DIGEST_BYTES] for _p, _f, buf, n in self._runs]
        parts.append(b"".join(self._hot))
        return b"".join(parts)

    def seed(self, blob: bytes, num_shards: int, shard: int) -> None:
        """Bulk-insert the digests in *blob* that belong to shard *shard*."""
        hot = self._hot
        for i in range(0, len(blob), DIGEST_BYTES):
            digest = blob[i : i + DIGEST_BYTES]
            if shard_of(digest, num_shards) == shard and digest not in self:
                hot.add(digest)
        if (
            self.spill_dir is not None
            and len(hot) >= self.spill_threshold
        ):
            self._flush()

    def close(self) -> None:
        """Release and delete every cold run."""
        for path, f, buf, _n in self._runs:
            buf.close()
            f.close()
            try:
                os.unlink(path)
            except OSError:
                pass
        self._runs = []
        self._cold_len = 0
        self._hot = set()


__all__ = ["DIGEST_BYTES", "SPILL_THRESHOLD", "digest128", "shard_of",
           "SpillableKeySet"]
