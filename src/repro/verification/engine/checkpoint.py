"""Checkpoint/resume for budgeted searches.

A checkpoint is one pickle file capturing everything a search needs to
continue *bit-identically*, in one shape for BFS and DFS on every backend:
the pending frontier as ``(state_id, packed_key)`` pairs, the depth it
stands at, the store's typed trace-link columns with the intern keys in ID
order -- the exact visited set, whole keys (the batch search's row table is
saved as the keys its rows stand for: a row names its network section by a
process-local ID) -- and the running counters.  A search on the worker
fleet takes none: its visited set lives in the workers, and ``verify()``
refuses the combination.

The pickle body is followed by its BLAKE2b digest, verified before
anything is unpickled: a file that was cut short *or* had a bit flipped
inside a key or a column raises :class:`CheckpointMismatch` instead of
resuming from damaged state.

The driver is the only writer.  A BFS saves at a level boundary: when the
next level would cross the ``max_states`` budget the whole level is saved
*unclipped* instead of partially expanded, so the resumed run explores the
identical level sequence.  A DFS saves the exact stack, so resuming
continues with the very next pop.  Either way the completed search is
bit-identical to an uninterrupted one (IDs, counts, verdict, trace).

The **fingerprint** binds a checkpoint to the search that wrote it: codec
index tables and lane width (the frontier and the visited set are packed
keys: keys of another width can never match), cache/address counts,
workload, fault model (kinds and budget), network order, symmetry group
size, backend, strategy and invariant names.
``max_states`` is deliberately excluded -- continuing a budgeted nightly
run under a new budget is the whole point.
"""

from __future__ import annotations

import hashlib
import os
import pickle

#: Bumped whenever the payload layout changes; a mismatch refuses to resume.
#: 6: the fingerprint material lost the (now always-on) deadlock-check flag.
#: 7: ... and the (now always-compiled) transition-kernel flag.
#: 8: the payload lost the worker fleet's shard digests.
#: 9: the fingerprint material gained the fault model and the network order.
#: 10: ... and lost the workload-deadlock flag (the check is always on).
CHECKPOINT_VERSION = 10

#: Length of the payload checksum that ends the file.
_CHECKSUM_BYTES = 32


#: The payload's keys (:func:`save` writes them, :func:`load` reads them).
_FIELDS = frozenset({"version", "fingerprint", "level", "frontier", "store",
                     "explored", "transitions", "complete_states"})


class CheckpointMismatch(ValueError):
    """The checkpoint on disk is unreadable, or was written by an
    incompatible search."""


def fingerprint(ctx) -> str:
    """Digest of everything that must match for a resume to be sound."""
    codec = ctx.codec
    system = ctx.system
    material = repr((
        codec.cache_states,
        codec.dir_states,
        codec.mtypes,
        codec.access_kinds,
        codec.typecode,
        system.num_caches,
        system.num_addresses,
        repr(system.workload),
        repr(system.faults),
        system.ordered,
        len(ctx.perms) if ctx.perms is not None else 0,
        ctx.vkernel is not None,
        ctx.strategy_name,
        tuple(getattr(inv, "__name__", repr(inv)) for inv in ctx.invariants),
    )).encode()
    return hashlib.blake2b(material, digest_size=16).hexdigest()


def save(ctx, frontier, level: int) -> None:
    """Write *ctx*'s search state to ``ctx.checkpoint_path`` atomically.

    *frontier* is the driver's pending frontier as ``(state_id,
    packed_key)`` pairs, in its order; *level* the depth it stands at.
    """
    path = ctx.checkpoint_path
    payload = {
        "version": CHECKPOINT_VERSION,
        "fingerprint": fingerprint(ctx),
        "level": level,
        "frontier": list(frontier),
        "store": ctx.store.snapshot(),
        "explored": ctx.explored,
        "transitions": ctx.transitions,
        "complete_states": ctx.complete_states,
    }
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as f:
        body = _Checksummed(f)
        pickle.dump(payload, body, protocol=pickle.HIGHEST_PROTOCOL)
        f.write(body.digest.digest())
    os.replace(tmp, path)


class _Checksummed:
    """A write-only file wrapper that digests what passes through, so the
    payload is streamed to disk and checksummed in one pass."""

    def __init__(self, file):
        self.file = file
        self.digest = hashlib.blake2b(digest_size=_CHECKSUM_BYTES)

    def write(self, data) -> int:
        self.digest.update(data)
        return self.file.write(data)


def _read_verified(path: str) -> dict:
    """Unpickle the payload at *path* after checking its checksum."""
    with open(path, "rb") as f:
        left = os.fstat(f.fileno()).st_size - _CHECKSUM_BYTES
        intact = left > 0
        digest = hashlib.blake2b(digest_size=_CHECKSUM_BYTES)
        while left > 0 and (chunk := f.read(min(left, 1 << 20))):
            digest.update(chunk)
            left -= len(chunk)
        if not intact or f.read() != digest.digest():
            raise ValueError("payload checksum mismatch: the file is damaged")
        f.seek(0)
        return pickle.load(f)


def load(ctx) -> dict | None:
    """Read, validate and apply the checkpoint at ``ctx.checkpoint_path``.

    Returns the payload (the search picks frontier and level up from
    ``ctx.resume``) or ``None`` when no checkpoint file exists.  Raises
    :class:`CheckpointMismatch` -- before anything is restored -- when the
    file cannot be read back (truncated, damaged, not a checkpoint) or was
    written by a different search configuration or payload version.
    """
    path = ctx.checkpoint_path
    if path is None or not os.path.exists(path):
        return None
    try:
        payload = _read_verified(path)
    except Exception as exc:
        # A truncated or bit-flipped file fails the checksum; a stream that
        # was never a checkpoint raises nearly anything from pickle
        # (UnpicklingError, EOFError, AttributeError, ...): all of it means
        # this.
        raise CheckpointMismatch(
            f"checkpoint {path!r} is unreadable ({type(exc).__name__}: {exc}); "
            "delete it to start over"
        ) from exc
    if not isinstance(payload, dict) or not _FIELDS <= payload.keys():
        raise CheckpointMismatch(
            f"checkpoint {path!r} is not a checkpoint payload; "
            "delete it to start over"
        )
    if payload["version"] != CHECKPOINT_VERSION:
        raise CheckpointMismatch(
            f"checkpoint {path!r} has payload version "
            f"{payload['version']!r}, expected {CHECKPOINT_VERSION}"
        )
    if payload["fingerprint"] != fingerprint(ctx):
        raise CheckpointMismatch(
            f"checkpoint {path!r} was written by a different search "
            "configuration (protocol/lane width/workload/faults/network order/"
            "symmetry/backend/strategy mismatch); delete it to start over"
        )
    ctx.store.restore(payload.pop("store"))
    ctx.explored = payload["explored"]
    ctx.transitions = payload["transitions"]
    ctx.complete_states = payload["complete_states"]
    ctx.resume = payload
    ctx.resume_level = payload["level"]
    return payload


def clear(path: str | None) -> None:
    """Remove a consumed checkpoint (the search ran to its end)."""
    if path is not None and os.path.exists(path):
        try:
            os.remove(path)
        except OSError:
            pass


__all__ = ["CHECKPOINT_VERSION", "CheckpointMismatch", "fingerprint",
           "save", "load", "clear"]
