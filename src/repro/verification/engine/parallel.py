"""The shared-memory parallel BFS engine: zero-copy frontiers, work-stealing
chunk claims, digest-sharded visited sets, and a key-free parent.

:class:`ShmEngine` is the driver's fourth expander: its ``expand`` is one
*round* -- one frontier level fanned out to a fleet of forked workers --
and :func:`~repro.verification.engine.driver.drive` supplies the budget,
checkpoint and verdict semantics of level-synchronous BFS exactly as it
does for the in-process expanders.  *Within* a round nothing is pickled and
nobody waits on a static partition:

* **Zero-copy frontier exchange.**  The parent lays the round's frontier
  out in a ``multiprocessing.shared_memory`` arena as length-prefixed
  ``(state_id, packed_key)`` records behind an offsets table; workers map
  the arena and read records in place.  Worker results (candidate
  successors, then accepted successors) travel back through worker-owned
  arenas the same way.  All arenas are grow-only rings: they are reused
  round after round and only recreated bigger when a round outgrows them.

* **Work-stealing chunk claims.**  Instead of pre-sharding the frontier,
  workers repeatedly claim the next chunk of records from a shared atomic
  cursor (``RawValue`` + lock).  A worker that drew cheap states simply
  comes back for more -- claims past the first per worker are steals, and
  the tail imbalance of a round is one chunk instead of one shard.

* **The same per-state bodies.**  A worker expands its chunks with the
  ordinary per-state expander against a :class:`_WorkerState` that
  duck-types the exploration context: its ``store.intern`` is the sink
  below, its ``failure`` records coordinates instead of building a result.

* **Digest-sharded visited set.**  Every canonical successor is hashed to
  the 128-bit BLAKE2b digest the store's hash compaction uses; the digest's
  owner shard (``digest % workers``) is the only process that ever answers
  membership for it (:class:`~repro.verification.engine.shard.SpillableKeySet`,
  optionally spilling cold partitions to disk).  Producers bucket candidate
  records per owner (never reporting one as new, so the expander checks no
  invariant and builds no next level); after the round's expand phase each
  worker dedups its own bucket column, checks invariants on the genuinely
  new states, and publishes the accepted records.  The parent then assigns
  dense IDs and appends trace links **without keeping any key dict at all**
  (:meth:`~repro.verification.engine.store.StateStore.append_link` /
  ``drop_index``) -- its per-state footprint is three column appends, which
  is what keeps peak RSS roughly flat as searches grow.

* **Failure semantics.**  Errors and deadlocks are found during expansion,
  invariant violations during owner dedup; all candidates carry their
  ``(frontier position, sequence)`` coordinates and the parent reports the
  minimum -- the earliest failure *of the round* in serial order.  A worker
  stops claiming chunks after its first expansion failure (everything
  before it in serial order was claimed earlier and is finished by whoever
  holds it, so the minimum is unaffected).  As with the vectorized
  expander, a failing round may have interned/counted states past the
  serial stopping point; verdicts and traces stay valid (every stored chain
  to the failing state is a real counterexample).  On passing runs all
  exploration counts are schedule-independent and match the serial
  strategies exactly.

Checkpoint/resume: a checkpoint saved at a round boundary carries every
worker's shard digests (:meth:`ShmEngine.shard_blobs`) in place of store
keys; resuming re-seeds the shards from the concatenated digests
(re-sharded, so the worker count may change between runs).
"""

from __future__ import annotations

import gc
import struct
import traceback
from array import array
from multiprocessing import shared_memory

from repro.verification.engine.driver import Expander, drive, per_state_expander
from repro.verification.engine.shard import (
    DIGEST_BYTES,
    SpillableKeySet,
    digest128,
    shard_of,
)

#: ``(item, sequence, perm_index, eev_len, key_len)`` record header.
_REC_HEADER = "<IIHBxI"
_REC_HEADER_SIZE = struct.calcsize(_REC_HEADER)
#: ``(state_id, key_len)`` input-record header.
_IN_HEADER = "<QI"
_IN_HEADER_SIZE = struct.calcsize(_IN_HEADER)

#: Permutation index meaning "no permutation recorded".
_NO_PERM = 0xFFFF

#: Bound on the workers' emitted-digest suppression caches (an optimization
#: like the expanders' raw-seen sets: clearing only re-pays IPC, never
#: correctness).
_EMITTED_LIMIT = 1 << 19


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment (creator keeps cleanup ownership).

    On Python < 3.13 attaching re-registers the segment with the resource
    tracker, but the fleet is fork-homogeneous -- every process talks to the
    *same* tracker, whose per-type cache is a set -- so the re-register is
    idempotent and the creator's ``unlink`` clears the single entry.  (An
    explicit ``unregister`` here would double-remove and raise in the
    tracker instead.)
    """
    return shared_memory.SharedMemory(name=name)


class _Arena:
    """A grow-only shared-memory buffer (created fresh when capacity grows)."""

    __slots__ = ("shm", "capacity")

    def __init__(self):
        self.shm = None
        self.capacity = 0

    def ensure(self, size: int) -> shared_memory.SharedMemory:
        if self.shm is None or self.capacity < size:
            self.destroy()
            self.shm = shared_memory.SharedMemory(
                create=True, size=max(1, size)
            )
            self.capacity = self.shm.size
        return self.shm

    def destroy(self) -> None:
        if self.shm is not None:
            self.shm.close()
            try:
                self.shm.unlink()
            except FileNotFoundError:  # pragma: no cover - double-clean race
                pass
            self.shm = None
            self.capacity = 0


class _WorkerCrash(RuntimeError):
    """A worker process died; carries its traceback text."""


# -- worker side ---------------------------------------------------------------


class _WorkerState:
    """Per-process expansion context (built once, after fork).

    Duck-types what a per-state expander uses of an ``Exploration``: the
    system with a private codec/kernel, the deadlock switches, the running
    counters (here: of the current round), ``store`` (itself -- see
    :meth:`intern`) and :meth:`failure`.
    """

    def __init__(self, wid, cfg, seed_blob):
        (self.system, self.invariants, self.perms, self.kernel_codes,
         self.check_deadlock, self.check_workload_deadlock, spill_dir,
         self.nworkers) = cfg
        self.wid = wid
        self.codec = self.system.codec()
        self.kernel = self.system.kernel() if self.kernel_codes is not None else None
        self.perm_index = {perm: i for i, perm in enumerate(self.perms or ())}
        self.perm_index[None] = _NO_PERM
        self.shard = SpillableKeySet(spill_dir, tag=f"w{wid}")
        self.shard.seed(seed_blob, self.nworkers, wid)
        self.emitted: set = set()
        self.raw_seen: set = set()
        self.bucket_arena = _Arena()
        self.accepted_arena = _Arena()
        self.store = self
        self.expander = per_state_expander(self)

    def begin_round(self) -> None:
        self.explored = 0
        self.transitions = 0
        self.complete_states = 0
        self.canon_seconds = 0.0
        self.failures: list = []
        self.buckets = [bytearray() for _ in range(self.nworkers)]

    def intern(self, key, item, event, perm):
        """The expanders' ``store.intern``: digest *key* and bucket the
        candidate for its owning shard.

        Successors this worker already knows (own shard) or already emitted
        (bounded cache) never leave the process.  Nothing is ever reported
        new here -- the owner decides that in the dedup phase.  *item* is
        the parent's frontier position; the applied-transition count orders
        one item's candidates in plan order.
        """
        digest = digest128(key)
        emitted = self.emitted
        if digest in emitted:
            return None, False
        owner = shard_of(digest, self.nworkers)
        if owner == self.wid and digest in self.shard:
            return None, False
        if len(emitted) >= _EMITTED_LIMIT:
            emitted.clear()
        emitted.add(digest)
        eev = event if self.kernel is not None else self.codec.encode_event(event)
        self.buckets[owner] += (
            struct.pack(_REC_HEADER, item, self.transitions,
                        self.perm_index[perm], len(eev), len(key))
            + digest
            + struct.pack(f"<{len(eev)}i", *eev)
            + key
        )
        return None, False

    def failure(self, *, leaf_id, deadlock=False, error=None, final_event=None):
        """Record an expansion failure's coordinates for the parent."""
        if deadlock:
            self.failures.append((leaf_id, -1, "dead", None))
        else:
            eev = self.codec.encode_event(final_event)
            self.failures.append((leaf_id, self.transitions, "err", (eev, error)))
        return True

    def close(self):
        self.bucket_arena.destroy()
        self.accepted_arena.destroy()
        self.shard.close()


def _worker_main(wid, cfg, ctrl, results, claim, claim_lock, seed_blob):
    """Worker loop: expand -> dedup -> (dump|expand|...) until "stop"."""
    gc.disable()
    ws = _WorkerState(wid, cfg, seed_blob)
    del seed_blob  # parent's copy serves resumes; drop the fork duplicate
    try:
        while True:
            msg = ctrl.get()
            op = msg[0]
            if op == "expand":
                _worker_expand(ws, msg, results, claim, claim_lock)
            elif op == "dedup":
                _worker_dedup(ws, msg, results)
            elif op == "dump":
                results.put(("dump", wid, ws.shard.dump()))
            elif op == "stop":
                break
    except Exception:  # pragma: no cover - surfaced as _WorkerCrash in parent
        try:
            results.put(("crash", wid, traceback.format_exc()))
        except Exception:
            pass
    finally:
        ws.close()


def _worker_expand(ws, msg, results, claim, claim_lock):
    """Claim chunks of the round's frontier and expand them.

    Each chunk goes through the worker's per-state expander as a level
    whose state IDs are frontier positions: the coordinates the parent
    needs, on bucketed candidates and recorded failures alike, to pick the
    round's serial-order minimum.
    """
    _op, arena_name, count, chunk = msg
    expander = ws.expander
    decode_base = ws.codec.decode_count
    ws.begin_round()
    chunks = 0
    shm = _attach(arena_name)
    buf = shm.buf
    offsets = buf[8 : 8 + 8 * count].cast("q")
    try:
        while not ws.failures:
            with claim_lock:
                start = claim.value
                claim.value = start + chunk
            if start >= count:
                break
            chunks += 1
            pairs = []
            for i in range(start, min(count, start + chunk)):
                _sid, klen = struct.unpack_from(_IN_HEADER, buf, offsets[i])
                off = offsets[i] + _IN_HEADER_SIZE
                pairs.append((i, bytes(buf[off : off + klen])))
            expander.expand(expander.lift(pairs))
    finally:
        offsets.release()
        del buf
        shm.close()
    # Hand the buckets over rather than keep them on ``ws``: they are dead
    # once copied into the arena, and the dedup phase allocates next.
    buckets, ws.buckets = ws.buckets, None
    blob = b"".join(buckets)
    out = ws.bucket_arena.ensure(len(blob))
    out.buf[: len(blob)] = blob
    spans = []
    pos = 0
    for bucket in buckets:
        spans.append((pos, len(bucket)))
        pos += len(bucket)
    results.put((
        "expanded", ws.wid, out.name, spans, ws.failures,
        {
            "applied": ws.transitions,
            "expanded": ws.explored,
            "complete": ws.complete_states,
            "chunks": chunks,
            "canon_seconds": ws.canon_seconds,
            "decodes": ws.codec.decode_count - decode_base,
        },
    ))


def _worker_dedup(ws, msg, results):
    """Owner phase: dedup this worker's bucket column, check invariants.

    Walks every producer's bucket for this shard in producer order, accepts
    records whose digest is genuinely new (inserting it), asks the worker's
    expander for each accepted state's invariant verdict, and republishes
    the accepted records verbatim for the parent's ID assignment.
    """
    _op, directory = msg
    wid = ws.wid
    shard = ws.shard
    lift = ws.expander.lift
    violation_of = ws.expander.violation
    decode_base = ws.codec.decode_count
    accepted = bytearray()
    n_accepted = 0
    failures: list = []
    for _pwid, arena_name, spans in directory:
        off, length = spans[wid]
        if length == 0:
            continue
        shm = _attach(arena_name)
        buf = shm.buf
        try:
            pos = off
            end = off + length
            while pos < end:
                rec_start = pos
                item, seq, perm_idx, eev_len, klen = struct.unpack_from(
                    _REC_HEADER, buf, pos
                )
                pos += _REC_HEADER_SIZE
                digest = bytes(buf[pos : pos + DIGEST_BYTES])
                pos += DIGEST_BYTES
                eev_end = pos + 4 * eev_len
                key_end = eev_end + klen
                if digest in shard:
                    pos = key_end
                    continue
                shard.add(digest)
                key = bytes(buf[eev_end:key_end])
                violation = violation_of(lift([(item, key)])[0][1])
                if violation is not None:
                    eev = tuple(struct.unpack_from(f"<{eev_len}i", buf, pos))
                    failures.append(
                        (item, seq, "vio", (violation, eev, perm_idx, key))
                    )
                    pos = key_end
                    continue
                accepted += buf[rec_start:key_end]
                n_accepted += 1
                pos = key_end
        finally:
            del buf
            shm.close()
    out = ws.accepted_arena.ensure(len(accepted))
    out.buf[: len(accepted)] = accepted
    results.put((
        "deduped", wid, out.name, len(accepted), n_accepted, failures,
        {
            "decodes": ws.codec.decode_count - decode_base,
            "spill_bytes": shard.spill_bytes,
            "shard_len": len(shard),
        },
    ))


# -- parent side ---------------------------------------------------------------


class ShmEngine(Expander):
    """The worker fleet as an expander (one per search): the native
    frontier is the portable one, ``expand`` is one :meth:`_round`, and the
    visited set lives in the workers' shards."""

    def __init__(self, ctx, mp_ctx, processes: int):
        self.ctx = ctx
        self.mp = mp_ctx
        self.nworkers = processes
        self.claim = mp_ctx.RawValue("q", 0)
        self.claim_lock = mp_ctx.Lock()
        self.ctrl = [mp_ctx.SimpleQueue() for _ in range(processes)]
        self.results = mp_ctx.SimpleQueue()
        self.procs: list = []
        self.input_arena = _Arena()
        self._spill_by_worker = [0] * processes

    # -- lifecycle -------------------------------------------------------------
    def spinup(self, *, seed_keys=None, seed_blobs=None) -> None:
        """Fork the workers, seeding their shards with the visited set.

        *seed_keys* comes from the in-process phase's store (packed keys,
        or digests already under hash compaction); *seed_blobs* comes from
        a checkpoint saved past spin-up.  Either way the blob is inherited
        by fork -- zero-copy -- and each worker keeps only its shard.
        """
        # Start the resource tracker *before* forking so every worker
        # inherits the parent's tracker (one shared registry with set
        # semantics).  A worker that lazily spawned its own tracker on its
        # first attach would, at exit, "clean up" arenas the parent still
        # owns.
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
        ctx = self.ctx
        if seed_keys is not None:
            if ctx.store.hash_compaction:
                seed_blob = b"".join(seed_keys)
            else:
                seed_blob = b"".join(digest128(key) for key in seed_keys)
        else:
            seed_blob = b"".join(seed_blobs or [])
        cfg = (
            ctx.system,
            ctx.invariants,
            ctx.perms,
            ctx.kernel_codes,
            ctx.check_deadlock,
            ctx.check_workload_deadlock,
            ctx.spill_dir,
            self.nworkers,
        )
        for wid in range(self.nworkers):
            proc = self.mp.Process(
                target=_worker_main,
                args=(wid, cfg, self.ctrl[wid], self.results,
                      self.claim, self.claim_lock, seed_blob),
                daemon=True,
            )
            proc.start()
            self.procs.append(proc)
        ctx.parallel_workers = self.nworkers
        ctx.worker_states = [0] * self.nworkers

    def shutdown(self) -> None:
        for queue in self.ctrl:
            try:
                queue.put(("stop",))
            except Exception:  # pragma: no cover - worker already gone
                pass
        for proc in self.procs:
            proc.join(timeout=10)
        for proc in self.procs:  # pragma: no cover - hung worker backstop
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2)
        self.procs = []
        self.input_arena.destroy()

    # -- the round loop --------------------------------------------------------
    def drive(self, frontier, level: int):
        """Run rounds until the frontier drains, the budget hits, or a
        failure surfaces; returns the search's VerificationResult."""
        return drive(self.ctx, self, frontier, level)

    def _broadcast(self, msg) -> None:
        for queue in self.ctrl:
            queue.put(msg)

    def _collect(self, kind: str) -> list:
        """Gather one *kind* message per worker (crashes surface here)."""
        out = [None] * self.nworkers
        pending = self.nworkers
        while pending:
            msg = self.results.get()
            if msg[0] == "crash":
                raise _WorkerCrash(
                    f"parallel worker {msg[1]} crashed:\n{msg[2]}"
                )
            if msg[0] != kind:  # pragma: no cover - protocol violation
                raise RuntimeError(f"unexpected worker message {msg[0]!r}")
            out[msg[1]] = msg
            pending -= 1
        return out

    def _round(self, frontier):
        """One expand/dedup/absorb round over *frontier*."""
        ctx = self.ctx
        nworkers = self.nworkers
        count = len(frontier)
        ctx.explored += count
        round_sids = [sid for sid, _key in frontier]

        # Lay the frontier out in the input arena: offsets table + records.
        offsets = array("q")
        parts = []
        off = 8 + 8 * count
        for sid, key in frontier:
            offsets.append(off)
            parts.append(struct.pack(_IN_HEADER, sid, len(key)))
            parts.append(key)
            off += _IN_HEADER_SIZE + len(key)
        shm = self.input_arena.ensure(off)
        buf = shm.buf
        struct.pack_into("<Q", buf, 0, count)
        buf[8 : 8 + 8 * count] = offsets.tobytes()
        buf[8 + 8 * count : off] = b"".join(parts)
        del buf

        # Expand phase: workers claim chunks off the shared cursor.
        self.claim.value = 0
        chunk = max(1, min(8192, count // (nworkers * 8) or 1))
        self._broadcast(("expand", shm.name, count, chunk))
        expanded = self._collect("expanded")

        failures: list = []
        round_chunks = 0
        for msg in expanded:
            _kind, wid, _name, _spans, worker_failures, stats = msg
            failures.extend(worker_failures)
            ctx.transitions += stats["applied"]
            ctx.complete_states += stats["complete"]
            ctx.canon_seconds += stats["canon_seconds"]
            ctx.worker_decodes += stats["decodes"]
            ctx.worker_states[wid] += stats["expanded"]
            round_chunks += stats["chunks"]
        # Every chunk claim past one per worker was work stolen from the
        # shared queue rather than a static pre-assigned shard.
        ctx.steal_count += max(0, round_chunks - nworkers)

        # Dedup phase: each worker walks its own bucket column.
        directory = [
            (msg[1], msg[2], msg[3]) for msg in expanded
        ]
        self._broadcast(("dedup", directory))
        deduped = self._collect("deduped")

        # Absorb phase: assign dense IDs and append trace links (no keys).
        next_frontier: list = []
        append_link = ctx.store.append_link
        intern_event = ctx.codec.intern_event
        perms = ctx.perms
        for msg in deduped:
            _kind, wid, name, blob_len, n_accepted, worker_failures, stats = msg
            failures.extend(worker_failures)
            ctx.worker_decodes += stats["decodes"]
            self._spill_by_worker[wid] = stats["spill_bytes"]
            if n_accepted == 0:
                continue
            acc = _attach(name)
            buf = acc.buf
            try:
                pos = 0
                for _ in range(n_accepted):
                    item, _seq, perm_idx, eev_len, klen = struct.unpack_from(
                        _REC_HEADER, buf, pos
                    )
                    pos += _REC_HEADER_SIZE + DIGEST_BYTES
                    eev = intern_event(
                        tuple(struct.unpack_from(f"<{eev_len}i", buf, pos))
                    )
                    pos += 4 * eev_len
                    key = bytes(buf[pos : pos + klen])
                    pos += klen
                    perm = None if perm_idx == _NO_PERM else perms[perm_idx]
                    new_id = append_link(round_sids[item], eev, perm)
                    next_frontier.append((new_id, key))
            finally:
                del buf
                acc.close()
        ctx.spill_bytes = sum(self._spill_by_worker)

        if failures:
            return None, self._report_failure(failures, round_sids)
        return next_frontier, None

    def _report_failure(self, failures, round_sids):
        """Report the round's earliest failure in serial (state, plan) order.

        Like the vectorized expander, a canonical violating state reached by
        several parents in one round is attributed to whichever producer's
        record its owner deduped first -- the chain is a valid
        counterexample either way and the verdict is identical.
        """
        ctx = self.ctx
        item, _seq, kind, payload = min(failures, key=lambda f: (f[0], f[1]))
        sid = round_sids[item]
        if kind == "dead":
            return ctx.failure(deadlock=True, leaf_id=sid)
        if kind == "err":
            eev, message = payload
            return ctx.failure(
                error=message,
                leaf_id=sid,
                final_event=ctx.codec.decode_event(eev),
            )
        violation, eev, perm_idx, _key = payload
        perm = None if perm_idx == _NO_PERM else ctx.perms[perm_idx]
        leaf_id = ctx.store.append_link(sid, eev, perm)
        return ctx.failure(violation=violation, leaf_id=leaf_id)

    def expand(self, level):
        # Looked up per call, not aliased: ``_round`` is what outside-in
        # tracers (bench/trace.py) replace on the class.
        return self._round(level)

    def shard_blobs(self):
        """Every worker's shard digests, for a checkpoint."""
        self._broadcast(("dump",))
        return [msg[2] for msg in self._collect("dump")]


__all__ = ["ShmEngine"]
