"""The shared-memory parallel BFS engine: owner-computes rounds over a
digest-partitioned state space, and a parent that never sees a key.

:class:`ShmEngine` is the driver's third expander: its ``expand`` is one
*round* -- one frontier level expanded by a fleet of forked workers -- and
:func:`~repro.verification.engine.driver.drive` supplies the budget and
verdict semantics of level-synchronous BFS exactly as it does for the
in-process expanders.  The layout is parallel Murphi's:

* **A state lives on the worker that owns it.**  Every canonical state is
  hashed to a 128-bit BLAKE2b digest of its packed key, and the digest's
  owner (``digest % workers``) is the one process that answers membership
  for it (a plain in-memory ``set`` of 16-byte digests: its shard), checks
  its invariants, keeps it in its own native next level and expands it.
  The hash partition is the work split; nothing is claimed or stolen, so
  for a given worker count state IDs, per-worker counts and traces repeat
  exactly from run to run.

* **The same per-state body.**  A worker expands its level with the
  ordinary :class:`~repro.verification.engine.driver.CompiledExpander`
  against a :class:`_WorkerState` that duck-types the exploration context:
  its ``store.intern`` is the sink below, its ``failure`` records
  coordinates instead of building a result.

* **Only foreign successors travel.**  A successor the producer owns is
  deduped against its shard at once, invariant-checked on the lanes already
  in hand and appended to its next level.  The others are serialised once,
  as packed records in the producer's ``multiprocessing.shared_memory``
  bucket arena (grow-only, reused round after round), one span per owner;
  after the round's expand phase every owner walks the spans addressed to
  it, dedups, appends the new keys to its pending level (a worker's
  pending states are packed bytes, like the serial frontier) and checks
  their invariants through the expander's ``violation`` seam.

* **The parent is off the data path.**  Per round and worker it receives a
  count and three packed link columns -- parent ID, index into the worker's
  list of the round's distinct events, permutation index -- extends the
  store's trace columns with them
  (:meth:`~repro.verification.engine.store.StateStore.extend_links`) and
  tells the worker the dense-ID base of its block.  Its native level
  (:class:`_FleetLevel`) is one count per owner; no key ever comes back.

* **Failure semantics.**  Errors and deadlocks are found during expansion
  (a worker stops expanding at its first), invariant violations wherever a
  state is accepted; each carries ``(parent state ID, applied-transition
  sequence)`` and the parent reports the round's minimum, so verdict and
  trace are deterministic.  As with the vectorized expander, a failing
  round may have counted states past the serial stopping point; every
  stored chain to the failing state is still a real counterexample.  On
  passing runs all exploration counts match the serial strategies exactly.

A fleet search starts from the root and takes no checkpoint: ``verify()``
refuses ``strategy="parallel"`` with a checkpoint path before any worker
forks.
"""

from __future__ import annotations

import gc
import hashlib
import struct
import traceback
from array import array
from multiprocessing import shared_memory

from repro.system.codec import LaneOverflow
from repro.verification.engine.driver import CompiledExpander, Expander, drive

#: Digest width in bytes (128 bits).
DIGEST_BYTES = 16

#: ``(parent_id, sequence, perm_index, eev_len, key_len)`` header of a
#: candidate record; the digest, the event lanes and the key follow.
_REC_HEADER = "<qIHBxI"
_REC_HEADER_SIZE = struct.calcsize(_REC_HEADER)

#: Bound on the workers' emitted-digest suppression caches (an optimization:
#: clearing only re-pays IPC, never correctness).
_EMITTED_LIMIT = 1 << 19


def digest128(key: bytes) -> bytes:
    """The fleet's 128-bit state digest (BLAKE2b-16 over the packed key)."""
    return hashlib.blake2b(key, digest_size=DIGEST_BYTES).digest()


def shard_of(digest: bytes, num_shards: int) -> int:
    """Owning shard of a digest: its low 64 bits modulo the shard count."""
    return int.from_bytes(digest[-8:], "little") % num_shards


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment (creator keeps cleanup ownership).

    On Python < 3.13 attaching re-registers the segment with the resource
    tracker, but every process of the forked fleet talks to the *same*
    tracker, whose per-type cache is a set: the re-register is idempotent
    and one ``unlink`` clears the entry (an ``unregister`` here would
    double-remove and raise in the tracker).
    """
    return shared_memory.SharedMemory(name=name)


class _Arena:
    """A grow-only shared-memory buffer (created fresh when a blob outgrows
    it, reused otherwise)."""

    shm = None

    def publish(self, blob: bytes) -> str:
        """Copy *blob* in; returns the segment name readers attach to."""
        if self.shm is None or self.shm.size < len(blob):
            self.destroy()
            self.shm = shared_memory.SharedMemory(
                create=True, size=max(1, len(blob))
            )
        self.shm.buf[: len(blob)] = blob
        return self.shm.name

    def destroy(self) -> None:
        if self.shm is not None:
            self.shm.close()
            try:
                self.shm.unlink()
            except FileNotFoundError:  # pragma: no cover - double-clean race
                pass
            self.shm = None


class _WorkerCrash(RuntimeError):
    """A worker process died: its traceback text, or its exit code when it
    went without reporting (SIGKILL, OOM)."""


class _FleetLevel:
    """The fleet's native level: how many pending states each owner holds
    (the states themselves stay with their owners)."""

    def __init__(self, counts):
        self.counts = counts

    def __len__(self):
        return sum(self.counts)

    def __getitem__(self, cut: slice):
        """The driver's budget clip: the first ``cut.stop`` states, owner
        by owner (each owner expands a prefix of its level)."""
        room, counts = cut.stop, []
        for count in self.counts:
            counts.append(min(count, room))
            room -= counts[-1]
        return _FleetLevel(counts)


# -- worker side ---------------------------------------------------------------


class _WorkerState:
    """Per-process expansion context (built once, after fork).

    Duck-types what the compiled expander uses of an ``Exploration``: the
    system with a private codec/kernel, the running counters (here: of the
    current round), ``store`` (itself -- see :meth:`intern`) and
    :meth:`failure`.  State IDs inside the worker are *positions* in its
    level; :attr:`ids` maps them to the store's.
    """

    def __init__(self, wid, nworkers, ctx, root_digest):
        self.wid = wid
        self.nworkers = nworkers
        self.system = ctx.system
        self.invariants = ctx.invariants
        self.perms = ctx.perms
        self.kernel_codes = ctx.kernel_codes
        self.codec = self.system.codec()
        self.kernel = self.system.kernel()
        self.perm_index = {perm: i for i, perm in enumerate(self.perms or ())}
        self.perm_index[None] = len(self.perm_index)
        #: The digests this worker owns: its slice of the visited set.
        self.shard = (
            {root_digest} if shard_of(root_digest, nworkers) == wid else set()
        )
        self.emitted: set = set()
        self.bucket_arena = _Arena()
        self.store = self
        self.expander = CompiledExpander(self)
        #: The owned pending level as ``(position, packed_key)`` pairs, and
        #: the store ID of each position in it.
        self.level: list = []
        self.ids = ()

    def begin_round(self) -> None:
        self.decode_base = self.codec.decode_count
        self.explored = self.transitions = self.complete_states = self.sent = 0
        self.canon_seconds = 0.0
        self.failures: list = []
        self.buckets = [bytearray() for _ in range(self.nworkers)]
        #: Trace links of the states accepted this round, by next-level
        #: position: parent ID, index into ``events``, permutation index.
        self.events: dict = {}
        self.link_parent = array("i")  # the store's parent column type
        self.link_event = array("I")
        self.link_perm = array("H")

    def accept(self, parent_id, eev, perm_idx) -> int:
        """Record a new owned state's trace link; returns its position in
        the next level."""
        self.link_parent.append(parent_id)
        self.link_event.append(self.events.setdefault(eev, len(self.events)))
        self.link_perm.append(perm_idx)
        return len(self.link_perm) - 1

    def intern(self, key, parent, event, perm):
        """The expanders' ``store.intern``: digest *key* and let its owner
        decide.

        An owned successor is decided here and now -- new ones are reported
        new, so the expander checks their invariants and keeps them for the
        next level.  A foreign one is bucketed for its owner unless this
        worker already sent it (bounded cache), and never reported new.
        *parent* is a position in the current level; the applied-transition
        count orders one parent's candidates in plan order.
        """
        digest = digest128(key)
        owner = shard_of(digest, self.nworkers)
        if owner == self.wid:
            shard = self.shard
            if digest in shard:
                return None, False
            shard.add(digest)
            position = self.accept(
                self.ids[parent], event, self.perm_index[perm]
            )
            return position, True
        emitted = self.emitted
        if digest in emitted:
            return None, False
        if len(emitted) >= _EMITTED_LIMIT:
            emitted.clear()
        emitted.add(digest)
        self.sent += 1
        self.buckets[owner] += (
            struct.pack(_REC_HEADER, self.ids[parent], self.transitions,
                        self.perm_index[perm], len(event), len(key))
            + digest
            + struct.pack(f"<{len(event)}i", *event)
            + key
        )
        return None, False

    def failure(self, *, leaf_id, deadlock=False, error=None, final_event=None,
                violation=None):
        """Record a failure's coordinates for the parent.  *leaf_id* is the
        failing position in the current level, or for a violation the
        position :meth:`accept` just gave the violating successor."""
        if violation is not None:
            self.failures.append((
                self.link_parent[leaf_id], self.transitions, "vio",
                (violation, list(self.events)[self.link_event[leaf_id]],
                 self.link_perm[leaf_id]),
            ))
        elif deadlock:
            self.failures.append((self.ids[leaf_id], -1, "dead", None))
        else:
            self.failures.append(
                (self.ids[leaf_id], self.transitions, "err", (final_event, error))
            )
        return True


def _worker_main(wid, nworkers, ctx, conn, root_digest):
    """Worker loop: serve the parent's commands until "stop"."""
    gc.disable()
    ws = _WorkerState(wid, nworkers, ctx, root_digest)
    try:
        while True:
            msg = conn.recv()
            op = msg[0]
            if op == "expand":
                conn.send(_worker_expand(ws, msg[1]))
            elif op == "dedup":
                conn.send(_worker_dedup(ws, msg[1]))
            elif op == "base":
                ws.ids = range(msg[1], msg[1] + len(ws.level))
            elif op == "load":  # the root's level, as portable pairs
                ws.ids, ws.level = msg[1], list(enumerate(msg[2]))
            elif op == "stop":
                break
    except LaneOverflow as exc:  # a verdict on the configuration, not a crash
        conn.send(("overflow", wid, str(exc)))
    except Exception:  # pragma: no cover - surfaced as _WorkerCrash in parent
        try:
            conn.send(("crash", wid, traceback.format_exc()))
        except Exception:
            pass
    finally:
        ws.bucket_arena.destroy()


def _worker_expand(ws, limit):
    """Expand the first *limit* states of the owned level.

    The compiled expander keeps the owned new successors (they become the
    next level) and buckets the foreign ones, which are published through
    the bucket arena for their owners' dedup phase.
    """
    ws.begin_round()
    level = ws.level
    del level[limit:]
    successors, _failed = ws.expander.expand(level)
    ws.level = successors or []
    # Hand the buckets over rather than keep them on ``ws``: they are dead
    # once copied into the arena, and the dedup phase allocates next.
    buckets, ws.buckets = ws.buckets, None
    spans, pos = [], 0
    for bucket in buckets:
        spans.append((pos, len(bucket)))
        pos += len(bucket)
    return "expanded", ws.wid, ws.bucket_arena.publish(b"".join(buckets)), spans


def _worker_dedup(ws, directory):
    """Owner phase: take in the candidates the other workers sent.

    Walks every producer's span for this shard in producer order; a record
    whose digest is genuinely new is inserted, checked through the
    expander's ``violation`` seam (which takes the packed key) and appended
    to the owned next level.  The reply carries the whole round:
    its trace links (owned successors first), its failures, and what it
    adds to the context's counters, by attribute name.
    """
    wid = ws.wid
    shard = ws.shard
    level = ws.level
    violation_of = ws.expander.violation
    failures = ws.failures
    for arena_name, spans in directory:
        off, length = spans[wid]
        if length == 0:
            continue
        shm = _attach(arena_name)
        buf = shm.buf
        try:
            pos, end = off, off + length
            while pos < end:
                parent_id, seq, perm_idx, eev_len, klen = struct.unpack_from(
                    _REC_HEADER, buf, pos
                )
                pos += _REC_HEADER_SIZE
                digest = bytes(buf[pos : pos + DIGEST_BYTES])
                eev_at = pos + DIGEST_BYTES
                key_at = eev_at + 4 * eev_len
                pos = key_at + klen
                if digest in shard:
                    continue
                shard.add(digest)
                eev = struct.unpack_from(f"<{eev_len}i", buf, eev_at)
                key = bytes(buf[key_at:pos])
                violation = violation_of(key)
                if violation is not None:
                    failures.append((parent_id, seq, "vio", (violation, eev, perm_idx)))
                    continue
                ws.accept(parent_id, eev, perm_idx)
                level.append((len(level), key))
        finally:
            del buf
            shm.close()
    links = len(level), ws.link_parent, ws.link_event, ws.link_perm, list(ws.events)
    return (
        "deduped", wid, links, failures,
        {
            "explored": ws.explored,
            "transitions": ws.transitions,
            "complete_states": ws.complete_states,
            "cross_shard_candidates": ws.sent,
            "canon_seconds": ws.canon_seconds,
            "worker_decodes": ws.codec.decode_count - ws.decode_base,
        },
    )


# -- parent side ---------------------------------------------------------------


class ShmEngine(Expander):
    """The worker fleet as an expander (one per search): the native level
    is a :class:`_FleetLevel`, ``expand`` is one :meth:`_round`, and both
    the visited set and the pending states live in the workers."""

    def __init__(self, ctx, mp_ctx, processes: int):
        self.ctx = ctx
        self.mp = mp_ctx
        self.nworkers = processes
        self.procs: list = []
        #: Parent ends of the per-worker command/reply pipes.
        self.conns: list = []
        #: Every worker-owned arena the parent was told of (see ``shutdown``).
        self.arena_names: set = set()
        self.perm_table = (*(ctx.perms or ()), None)

    # -- lifecycle -------------------------------------------------------------
    def spinup(self) -> None:
        """Fork the workers, seeding the root's owner's shard with its
        digest.  From here on membership and the pending states live on the
        workers: the parent drops its key index and only extends trace
        links.
        """
        # Start the resource tracker *before* forking so every worker
        # inherits the parent's tracker (one shared registry with set
        # semantics).  A worker that lazily spawned its own tracker on its
        # first attach would, at exit, "clean up" arenas the parent still
        # owns.
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
        ctx = self.ctx
        root_digest = digest128(ctx.root_key)
        ctx.store.drop_index()
        for wid in range(self.nworkers):
            ours, theirs = self.mp.Pipe()
            proc = self.mp.Process(
                target=_worker_main,
                args=(wid, self.nworkers, ctx, theirs, root_digest),
                daemon=True,
            )
            proc.start()
            # The worker holds the only other copy of its end (later forks
            # never see it), so its death reads as EOF here.
            theirs.close()
            self.procs.append(proc)
            self.conns.append(ours)
        ctx.parallel_workers = self.nworkers
        ctx.worker_states = [0] * self.nworkers

    def shutdown(self) -> None:
        for conn in self.conns:
            try:
                conn.send(("stop",))
            except OSError:  # worker already gone
                pass
        for proc in self.procs:
            proc.join(timeout=10)
        for proc in self.procs:  # pragma: no cover - hung worker backstop
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2)
        for conn in self.conns:
            conn.close()
        self.procs = []
        self.conns = []
        # A worker unlinks its arena on the way out; one that was killed or
        # terminated leaves it behind.
        for name in self.arena_names:
            try:
                leftover = _attach(name)
            except FileNotFoundError:
                continue
            leftover.close()
            leftover.unlink()
        self.arena_names.clear()

    # -- the round loop --------------------------------------------------------
    def drive(self, frontier, level: int):
        """Run rounds until the frontier drains, the budget hits, or a
        failure surfaces; returns the search's VerificationResult."""
        return drive(self.ctx, self, frontier, level)

    def _send(self, wid: int, msg) -> None:
        try:
            self.conns[wid].send(msg)
        except OSError:  # broken pipe: nobody is reading any more
            self._died(wid)

    def _broadcast(self, msg) -> None:
        for wid in range(self.nworkers):
            self._send(wid, msg)

    def _collect(self, kind: str) -> list:
        """Gather one *kind* message per worker.  Crashes surface here: it
        waits on the workers' exit sentinels beside their pipes, so one that
        dies without a word (SIGKILL, OOM) cannot hang the search."""
        # Loaded with the fleet (``Pipe()`` imports it): serial searches skip it.
        from multiprocessing.connection import wait

        out = [None] * self.nworkers
        pending = {conn: wid for wid, conn in enumerate(self.conns)}
        sentinels = {proc.sentinel: wid for wid, proc in enumerate(self.procs)}
        while pending:
            ready = wait([*pending, *sentinels])
            readable = [conn for conn in ready if conn in pending]
            if not readable:
                self._died(sentinels[ready[0]])
            for conn in readable:
                try:
                    msg = conn.recv()
                except (EOFError, OSError):  # closed, or reset mid-message
                    self._died(pending[conn])
                if msg[0] == "crash":
                    raise _WorkerCrash(
                        f"parallel worker {msg[1]} crashed:\n{msg[2]}"
                    )
                if msg[0] == "overflow":
                    raise LaneOverflow(msg[2])
                if msg[0] != kind:  # pragma: no cover - protocol violation
                    raise RuntimeError(f"unexpected worker message {msg[0]!r}")
                out[pending.pop(conn)] = msg
        return out

    def _died(self, wid: int):
        proc = self.procs[wid]
        proc.join(timeout=2)
        raise _WorkerCrash(
            f"parallel worker {wid} died without reporting "
            f"(exit code {proc.exitcode})"
        )

    def lift(self, pairs):
        """Deal ``(state_id, packed_key)`` *pairs* out to their owners."""
        nworkers = self.nworkers
        owned = [([], []) for _ in range(nworkers)]
        for sid, key in pairs:
            sids, keys = owned[shard_of(digest128(key), nworkers)]
            sids.append(sid)
            keys.append(key)
        for wid, (sids, keys) in enumerate(owned):
            self._send(wid, ("load", sids, keys))
        return _FleetLevel([len(sids) for sids, _keys in owned])

    def _round(self, level):
        """One owner-computes round: every worker expands its share of
        *level*, takes in what the others sent it, and reports links."""
        ctx = self.ctx
        ctx.round_count += 1
        for wid, limit in enumerate(level.counts):
            self._send(wid, ("expand", limit))
        directory = [msg[2:] for msg in self._collect("expanded")]
        self.arena_names.update(name for name, _spans in directory)
        self._broadcast(("dedup", directory))
        deduped = self._collect("deduped")

        failures: list = []
        for _kind, wid, _links, worker_failures, counters in deduped:
            failures.extend(worker_failures)
            ctx.worker_states[wid] += counters["explored"]
            for name, value in counters.items():
                setattr(ctx, name, getattr(ctx, name) + value)
        if failures:
            return None, self._report_failure(failures)

        # Dense IDs: one block per worker, in worker order.
        perm_of = self.perm_table.__getitem__
        counts = []
        for _kind, wid, (count, parents, event_ix, perm_ix, events), *_ in deduped:
            base = ctx.store.extend_links(
                parents, map(events.__getitem__, event_ix), map(perm_of, perm_ix)
            )
            self._send(wid, ("base", base))
            counts.append(count)
        return _FleetLevel(counts), None

    def _report_failure(self, failures):
        """Report the round's earliest failure in (state ID, plan) order.

        Like the vectorized expander, a canonical violating state reached by
        several parents in one round is attributed to whichever producer's
        record its owner took in first -- the chain is a valid
        counterexample either way and the verdict is identical.
        """
        ctx = self.ctx
        sid, _seq, kind, payload = min(failures, key=lambda f: (f[0], f[1]))
        if kind == "dead":
            return ctx.failure(deadlock=True, leaf_id=sid)
        if kind == "err":
            eev, message = payload
            return ctx.failure(error=message, leaf_id=sid, final_event=eev)
        violation, eev, perm_idx = payload
        leaf_id = ctx.store.append_link(sid, eev, self.perm_table[perm_idx])
        return ctx.failure(violation=violation, leaf_id=leaf_id)

    def expand(self, level):
        # Looked up per call, not aliased: ``_round`` is what outside-in
        # tracers (bench/trace.py) replace on the class.
        return self._round(level)


__all__ = ["ShmEngine"]
