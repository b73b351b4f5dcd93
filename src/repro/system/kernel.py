"""Compiled transition kernel: the one interpretation of the generated tables.

Murphi gets its throughput by compiling the transition relation down to
operations on packed bit-vector states; the :class:`TransitionKernel` is
that representation for this engine, and the only code in ``src/`` that
executes a generated transition -- every search, the random walk and the
concretization of a reduced counterexample step through it:

* the generated protocol is indexed once into integer-keyed dispatch
  tables (:func:`repro.core.fsm.compile_spec`), every transition keeping
  its own :class:`~repro.dsl.types.Action` tuple;
* at kernel construction every transition's actions are generated into a
  flat function with its constants, lane offsets and destination kinds
  burned in (:meth:`TransitionKernel._compile_cache_fn`
  / :meth:`TransitionKernel._compile_directory_fn`) -- the one place in
  ``src/`` that says what an action does -- and plans carry their bound
  apply handler so the search loop dispatches without a single string
  comparison;
* a transition touches a few spans of a state -- one controller's block,
  its plane's version lane and network section, for a fault the
  ``faults_used`` lane -- and reads nothing else.  One **per-key
  evaluator** (:meth:`TransitionKernel.access_outcomes`,
  :meth:`TransitionKernel.delivery_outcome`) runs the generated function
  for one access ``(cache id, block)`` or one delivery ``(record, receiver
  block)`` on plane-0 lanes (every plane has the same block shape) and
  returns *stalled*, *failed* or ``(event, new block lanes, new version |
  unchanged, sends)``; the batch kernel (:mod:`repro.system.vectorized`)
  files that in its plan tables, the per-state search in two bounded
  memos keyed on the parent's packed bytes and the plane.  On every
  configuration a successor is then **spliced, not built**: ``key[:lo] +
  block + key[hi:v] + version + ...``, and of the network only that
  plane's section is rewritten, in one pass through its parse handle's
  offsets (:meth:`TransitionKernel._splicer`) -- a duplicated or reordered
  message is a few direct slices, with ``faults_used`` raised.  Lanes are
  unpacked only on a memo miss; a leaf and a new state's invariant check
  read them in place.

The kernel **reports its own errors**.  Every failure site of a generated
function -- missing data, requestor or owner, a data-value violation, an
action or a destination the controller cannot execute -- returns a small
error code (``None`` is success, so the hot path tests one truthiness),
and a delivery no transition takes, or several do, is a plan whose
transition is ``None`` / :data:`AMBIGUOUS`.  Only then does the kernel
format the protocol error's text (:meth:`TransitionKernel._error`,
:meth:`TransitionKernel._undeliverable`), from the code, the failing
:class:`~repro.dsl.types.Action`, the lanes the transition had written so
far and the decoded message; an invariant violation :meth:`check` finds
is worded from the same lanes (:meth:`TransitionKernel.violation`).  The
tests hold every successor, error text and violation to an independent
object-level interpreter of the same generated protocol
(``tests/verification/reference_system.py``), per state and per search.

The layout is :mod:`repro.system.codec`'s: the kernel reads the
cache-block width, the lane offsets (``CF_*``) and the message width from
there.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right

from repro.core.fsm import GUARD_CODES, CompilationUnsupported, MessageEvent
from repro.dsl.types import (
    AccessKind,
    AddOwnerToSharers,
    AddRequestorToSharers,
    ClearOwner,
    ClearSharers,
    CopyDataFromMessage,
    Dest,
    IncrementAcksReceived,
    InvalidateData,
    PerformAccess,
    RemoveRequestorFromSharers,
    ResetAckCounters,
    SaveRequestor,
    Send,
    SetAcksExpectedFromMessage,
    SetOwnerToRequestor,
    WriteDataToMemory,
)
from repro.system.codec import (
    CACHE_ENCODED_WIDTH,
    CF_ACKS_EXPECTED,
    CF_ACKS_RECEIVED,
    CF_DATA,
    CF_ISSUED,
    CF_LAST_OBSERVED,
    CF_PENDING,
    CF_SAVED,
    CF_STATE,
    MESSAGE_ENCODED_WIDTH,
    LaneOverflow,
    Memo,
    decode_message,
)

#: Directory actions that read or write the sharer set, and those that read
#: or write the owner lane (besides sends to ``SHARERS`` / ``OWNER``).  A
#: directory function builds the set / the owner local, and writes them back,
#: only when one of its actions needs it.
_SHARER_ACTIONS = (
    AddRequestorToSharers, AddOwnerToSharers, RemoveRequestorFromSharers, ClearSharers,
)
_OWNER_ACTIONS = (SetOwnerToRequestor, ClearOwner, AddOwnerToSharers)

#: Sentinel plan: more than one transition matched (applying it reports the
#: "ambiguous transitions" protocol error).
AMBIGUOUS = object()

#: What the per-key evaluator returns besides an outcome: a delivery whose
#: transition stalls (not an enabled plan), and a plan it does not express
#: -- a protocol error, or a write outside the controller's block (plus,
#: for a cache, the version lane).  The per-state memos file the error's
#: text in its place (:meth:`TransitionKernel._filed`); the batch kernel
#: runs that level through the per-state loop.
STALLED = object()
FAILED = object()

#: What a generated transition function returns at a failure site:
#: ``kind + _ACTION_STRIDE * i`` for its ``i``-th action, where *kind* keys
#: :data:`_ERROR_TEXTS`.  Formatted by :meth:`TransitionKernel._error` with
#: ``cid`` (the cache), ``action``, ``message`` (the delivered one, or None
#: for an access) and, for a cache, ``data`` / ``last`` / ``version``: the
#: block's data and last observed version and the plane's latest version as
#: the transition's earlier actions left them.
_ACTION_STRIDE = 32
_ERROR_TEXTS = {
    1: "cache {cid} expected data in {message}",
    2: "cache {cid} cannot execute action {action!r}",
    3: "cache {cid}: unsupported destination {action.to} for {action.message}",
    4: "cache {cid}: {action.message} needs a requestor but none is available",
    5: "cache {cid}: deferred response {action.message} has no saved requestor",
    6: "cache {cid}: deferred response {action.message} has no saved requestor"
       " to send on behalf of",
    7: "cache {cid} performed a load without data",
    8: "cache {cid} load went backwards: saw version {data} after {last}"
       " (per-location SC violation)",
    9: "cache {cid} performed a store without data",
    10: "data-value invariant violated: cache {cid} stores on top of version"
        " {data} but the latest written version is {version}",
    11: "directory expected data in {message}",
    12: "directory cannot execute action {action!r}",
    13: "directory: unsupported destination {action.to} for {action.message}",
    14: "directory: {action.message} needs a requestor",
    15: "directory: {action.message} needs an owner",
    # A sharer set would hold a null cache ID, which no encoding
    # represents: named as an error like the other sites.
    16: "directory: {action!r} needs a requestor",
}
(
    _E_CACHE_DATA, _E_CACHE_ACTION, _E_CACHE_DEST, _E_NO_REQUESTOR,
    _E_NO_SAVED, _E_NO_SAVED_BEHALF, _E_LOAD_NO_DATA, _E_LOAD_BACKWARDS,
    _E_STORE_NO_DATA, _E_DATA_VALUE, _E_DIR_DATA, _E_DIR_ACTION,
    _E_DIR_DEST, _E_DIR_REQUESTOR, _E_DIR_OWNER, _E_DIR_SHARER,
) = _ERROR_TEXTS

#: Guard code -> its name, for the "ambiguous transitions" text.
_GUARD_NAMES = {code: name for name, code in GUARD_CODES.items()}

#: Compiled invariant codes accepted by :meth:`TransitionKernel.check`.
INV_SWMR = "swmr"
INV_SINGLE_OWNER = "single_owner"
#: Code of a predicate with no encoded evaluator: ``check`` never vouches
#: for it, so the caller decodes the state and runs the predicate itself.
INV_DECODED = "decoded"

#: The default invariant pair, one pass in :meth:`TransitionKernel.check`;
#: public so the vectorized kernel's batch checker can recognize it.
DEFAULT_CODES = (INV_SWMR, INV_SINGLE_OWNER)

#: Generated transition source -> its function, process-wide.  The generated
#: functions close over nothing, so equal text means an interchangeable
#: function (one ``matrix-2c`` pass generates 13 282 sources, 154 distinct).
#: Grows by one small function per distinct source and is never cleared.
_COMPILED_SOURCES: dict[str, object] = {}


def _compiled(source: str):
    """The ``fn`` that *source* defines, ``exec``-ed on first sight only."""
    fn = _COMPILED_SOURCES.get(source)
    if fn is None:
        namespace: dict = {}
        exec(source, namespace)  # noqa: S102 - trusted generated source
        fn = _COMPILED_SOURCES[source] = namespace["fn"]
    return fn


def _message_transitions(controller) -> list:
    """Every candidate transition of *controller*'s message table."""
    return [ct for row in controller.on_message for cands in row.values() for ct in cands]


class TransitionKernel:
    """Successor generation and invariant checking on encoded states."""

    def __init__(self, system):
        self.system = system
        self.codec = codec = system.codec()
        spec = system.protocol.compiled()  # may raise CompilationUnsupported
        if (
            spec.cache.state_names != codec.cache_states
            or spec.directory.state_names != codec.dir_states
            or spec.mtype_names != codec.mtypes
            or spec.access_kinds != codec.access_kinds
        ):
            raise CompilationUnsupported("spec/codec index tables disagree")
        if any(ct.guard > 4 for ct in _message_transitions(spec.cache)):
            raise CompilationUnsupported("directory guard on a cache")
        if any(0 < ct.guard <= 4 for ct in _message_transitions(spec.directory)):
            raise CompilationUnsupported("cache guard on the directory")
        self.spec = spec
        self.num_caches = system.num_caches
        self.ordered = system.ordered
        self.dir_offset = codec.dir_offset
        self.version_offset = codec.version_offset
        self.net_offset = codec.net_offset
        self.num_addresses = codec.num_addresses
        self.plane_stride = codec.plane_stride
        self.fault_offset = codec.fault_offset
        self.faults = system.faults
        from repro.system.system import LitmusWorkload

        workload = system.workload
        if isinstance(workload, LitmusWorkload):
            self.max_accesses = 0
            self.access_order = ()
            #: Per-cache compiled programs: ``(access_index, addr)`` per op.
            self._litmus_ops = tuple(
                tuple(
                    (codec.access_kinds.index(kind), addr) for kind, addr in program
                )
                for program in workload.programs
            )
        else:
            self.max_accesses = workload.max_accesses_per_cache
            #: Access-kind indices in *workload enumeration order* (the object
            #: model iterates ``workload.access_kinds``, not the sorted catalog).
            self.access_order = tuple(
                codec.access_kinds.index(kind) for kind in workload.access_kinds
            )
            self._litmus_ops = None
        #: The first lane of every cache block: per cache, then per plane.
        self._cache_lanes = tuple(
            a * self.plane_stride + cid * CACHE_ENCODED_WIDTH
            for cid in range(self.num_caches)
            for a in range(self.num_addresses)
        )
        self.ai_load = codec.access_kinds.index(AccessKind.LOAD)
        self.ai_store = codec.access_kinds.index(AccessKind.STORE)
        #: Per-transition generated functions (see :meth:`_compile_cache_fn`
        #: / :meth:`_compile_directory_fn`); keyed by ``id(ct)`` -- the spec
        #: is compiled fresh per kernel, so the transitions are kernel-owned.
        cache_cts = [ct for row in spec.cache.on_access for ct in row if ct is not None]
        cache_cts += _message_transitions(spec.cache)
        self._cache_fns = {id(ct): self._compile_cache_fn(ct) for ct in cache_cts}
        self._dir_fns = {
            id(ct): self._compile_directory_fn(ct)
            for ct in _message_transitions(spec.directory)
        }

        #: Per-state-index issuable ``(access_index, transition, fn)``
        #: triples in workload order -- the access half of ``enabled()``
        #: reduces to a table walk (stall/None filtering done once here, at
        #: build time).
        self._access_plans = tuple(
            tuple(
                (ai, row[ai], self._cache_fns[id(row[ai])])
                for ai in self.access_order
                if row[ai] is not None and not row[ai].stall
            )
            for row in self.spec.cache.on_access
        )
        #: Interned access-event encodings, ``[cache_id][access_index]``:
        #: every plan (and through it every stored state) shares these.
        self._access_eevs = tuple(
            tuple(
                codec.intern_event((0, cid, ai))
                for ai in range(len(codec.access_kinds))
            )
            for cid in range(self.num_caches)
        )

        # The splice's byte layout: lane width, and per receiver the byte
        # span of its plane-0 block -- ``_spans[cid]`` for a cache, the
        # directory's at ``_spans[-1]`` -- and of the version lane.  Plane
        # *a*'s spans sit ``a * plane_stride`` lanes further on.
        lb = self.lane_bytes = codec.lane_bytes
        self._spans = tuple(
            (cid * CACHE_ENCODED_WIDTH * lb, (cid + 1) * CACHE_ENCODED_WIDTH * lb)
            for cid in range(self.num_caches)
        ) + ((self.dir_offset * lb, self.version_offset * lb),)
        self._version_span = (self.version_offset * lb, (self.version_offset + 1) * lb)
        self._plane_bytes = self.plane_stride * lb
        self._net_byte_offset = codec.net_byte_offset
        #: What the memo keys of plane *a* start with: its packed plane
        #: lane, present only with several planes.
        ptags = tuple(
            codec.pack((a,)) if self.num_addresses > 1 else b""
            for a in range(self.num_addresses)
        )
        shifts = [a * self._plane_bytes for a in range(self.num_addresses)]
        vlo, vhi = self._version_span
        #: Per cache, then per plane (the order accesses are enabled in):
        #: its access memo key's tag -- plane and cache ID -- and the byte
        #: spans of its block and of the plane's version lane.
        self._access_keys = tuple(
            (ptags[a] + codec.pack((cid,)), lo + s, hi + s, vlo + s, vhi + s)
            for cid, (lo, hi) in enumerate(self._spans[:-1])
            for a, s in enumerate(shifts)
        )
        #: A litmus program's next access depends on the cache's blocks on
        #: every plane: per cache, its tag and the spans of its block and
        #: the version lane on each plane, concatenated into one key.
        self._litmus_keys = None if self._litmus_ops is None else tuple(
            (codec.pack((cid,)), tuple(
                span for s in shifts for span in ((lo + s, hi + s), (vlo + s, vhi + s))
            ))
            for cid, (lo, hi) in enumerate(self._spans[:-1])
        )
        #: Per plane: its index, its tag, every receiver's block span and
        #: the version lane's span -- what its deliveries' memo keys are
        #: sliced from.
        self._plane_keys = tuple(
            (a, ptag, tuple((lo + s, hi + s) for lo, hi in self._spans), vlo + s, vhi + s)
            for a, (ptag, s) in enumerate(zip(ptags, shifts))
        )
        #: Bound once: ``enabled`` parses every state's sections through it.
        self._parsed_planes = codec.parsed_planes
        #: Re-queue semantics (`FaultModel.requeue`) on an ordered network:
        #: a channel delivers its first record that does not stall.
        self._bypass = self.faults is not None and self.faults.requeue and self.ordered
        #: Packed lanes of the small values a splice writes into a count lane.
        self._small_lanes = tuple(
            value.to_bytes(lb, sys.byteorder)
            for value in range(min(256, codec.lane_max + 1))
        )
        #: The per-state search's two memos, keyed on slices of the parent's
        #: key: ``[plane +] cid + block + version`` -> that cache's access
        #: plans on that plane (litmus: ``cid`` + its block and version on
        #: every plane -> its program's next one), and ``[plane +] record +
        #: receiver block [+ version, for a cache]`` -> the delivery's
        #: outcome (or :data:`STALLED`).  Tails are not memoized: they
        #: multiply as the sections do.
        self._access_memo = Memo(
            self._access_miss if self._litmus_ops is None else self._litmus_miss
        )
        self._delivery_memo = Memo(self._delivery_miss)
        #: The handler every spliced outcome shares, bound once.
        self._splice_handler = self._apply_spliced
        #: Intern table of the memos' outcomes and of their packed blocks and
        #: sends (:meth:`_intern`): the memos hold far more keys than
        #: outcomes (bench ``unordered-reduced-3c``: 6 146 for 2 454).  A
        #: ``Memo`` like them, so all three stay within ``_MEMO_LIMIT``
        #: entries however long a search runs.
        self._interned = Memo()

    def memo_stats(self) -> dict:
        """Entries held and misses computed by the per-state search's two
        memos (``result.stats`` reports them)."""
        return {
            "access_memo_entries": len(self._access_memo),
            "access_memo_misses": self._access_memo.misses,
            "delivery_memo_entries": len(self._delivery_memo),
            "delivery_memo_misses": self._delivery_memo.misses,
        }

    # -- event enumeration -------------------------------------------------------
    def enabled(self, key: bytes) -> tuple[list, tuple]:
        """``(plans, net)`` for the state packed as *key*: one plan per
        enabled event -- accesses cache by cache (plane by plane) in
        workload order, then deliveries plane by plane in network order,
        then duplications and reorders -- the order the state IDs, the
        traces and a seeded :func:`~repro.verification.random_walk` follow.

        ``plan[0]`` is the plan's bound apply handler and ``plan[1]`` the
        codec's interned event encoding: ``plan[0](key, plan, net)`` is the
        successor's packed key, or the text of the protocol error applying
        it reports (a ``str``).  A delivery no
        transition takes, or several do, is enabled: applying it reports
        the protocol error (Murphi's "unexpected message"); a stalled one
        is not.  *net*, the sections' parse handles, is opaque to callers,
        who only thread it back into the handler."""
        plans: list = []
        access = self._access_memo
        if self._litmus_keys is None:
            for tag, lo, hi, vlo, vhi in self._access_keys:
                plans += access[tag + key[lo:hi] + key[vlo:vhi]]
        else:
            for tag, spans in self._litmus_keys:
                plans += access[tag + b"".join([key[lo:hi] for lo, hi in spans])]
        planes = self._parsed_planes(None, key)
        deliver = self._delivery_memo
        bypass = self._bypass
        for addr, ptag, spans, vlo, vhi in self._plane_keys:
            handle = planes[addr]
            version = key[vlo:vhi]
            for where, rec, packed in handle[2]:
                dst = rec[2]
                lo, hi = spans[dst - 2]  # the directory (id -1, +2 shift) is last
                if dst == 1:
                    outcome = deliver[ptag + packed + key[lo:hi]]
                else:
                    outcome = deliver[ptag + packed + key[lo:hi] + version]
                if outcome is not STALLED:
                    plans.append((outcome[0], outcome[1], outcome, where, 0))
                elif bypass:
                    plans += self._bypassed(key, handle, where, ptag, spans, version)
        if self.fault_offset is not None:
            plans += self._fault_plans(key, planes)
        return plans, planes

    def _bypassed(self, key, handle, where, ptag, spans, version) -> list:
        """The plan of the first record of channel *where* (of the section
        parsed as *handle*) behind its stalled head whose delivery does not
        stall (re-queue order), if any."""
        width = MESSAGE_ENCODED_WIDTH * self.lane_bytes
        at = self._head_byte(handle, where)
        for pos, rec in enumerate(handle[0][where][3][1:], 1):
            lo, hi = spans[rec[2] - 2]
            block = key[lo:hi] if rec[2] == 1 else key[lo:hi] + version
            packed = key[at + pos * width : at + (pos + 1) * width]
            outcome = self._delivery_memo[ptag + packed + block]
            if outcome is not STALLED:
                return [(outcome[0], outcome[1], outcome, where, pos)]
        return []

    def _fault_plans(self, key: bytes, planes: tuple) -> list:
        """The duplication and reorder plans of *key* while the fault budget
        lasts: a copy of each deliverable record, then a swap of each pair
        of adjacent differing records in a channel, plane by plane."""
        lb = self.lane_bytes
        at = self.fault_offset * lb
        faults = self.faults
        if int.from_bytes(key[at : at + lb], sys.byteorder) >= faults.budget:
            return []
        event = self._event
        plans: list = []
        if faults.duplicate:
            for addr, handle in enumerate(planes):
                for where, rec, packed in handle[2]:
                    eev = event((2,) + rec, addr)
                    plans.append((self._apply_duplicate, eev, addr, where, packed))
        if faults.reorder and self.ordered:
            for addr, handle in enumerate(planes):
                for where, (src, dst, vnet, msgs) in enumerate(handle[0]):
                    for pos in range(len(msgs) - 1):
                        if msgs[pos] != msgs[pos + 1]:
                            eev = event((3, src, dst, vnet, pos), addr)
                            plans.append((self._apply_reorder, eev, addr, where, pos))
        return plans

    def _event(self, fields: tuple, addr: int) -> tuple:
        """The codec's interned event encoding for *fields* on plane *addr*
        (the plane is one trailing lane, present only with several)."""
        if self.num_addresses > 1:
            fields += (addr,)
        return self.codec.intern_event(fields)

    def _select(
        self, cands: tuple, rec: tuple, enc: tuple, base: int | None, d0: int
    ):
        """The transition of *cands* that takes message record *rec*: a
        unique guarded match first; ``None`` when none matches,
        :data:`AMBIGUOUS` when several do and no one guarded match stands
        out."""
        matching = []
        guarded = []
        for ct in cands:
            g = ct.guard
            if g and not self._guard(g, rec, enc, base, d0):
                continue
            matching.append(ct)
            if g:
                guarded.append(ct)
        if len(guarded) == 1:
            return guarded[0]
        if len(matching) == 1:
            return matching[0]
        if not matching:
            return None
        return AMBIGUOUS

    def _guard(
        self, g: int, rec: tuple, enc: tuple, base: int | None, d0: int
    ) -> bool:
        """Guard *g* (a :data:`~repro.core.fsm.GUARD_CODES` value) of message
        record *rec* at the cache block at *base* or the directory at *d0*.

        ``ack_count_*`` compare the Data response's ack count against the
        acks already received (they can race ahead of the Data);
        ``acks_*`` ask whether counting this Inv_Ack completes the expected
        count; the directory guards test the sender (``from_owner``,
        ``last_sharer``, ``from_sharer``) or the carried requestor
        (``owner_is_requestor``) against its owner and sharers."""
        if g <= 2:  # ack_count_zero / ack_count_nonzero
            outstanding = (rec[9] - 2 if rec[8] else 0) - enc[base + CF_ACKS_RECEIVED]
            return outstanding <= 0 if g == 1 else outstanding > 0
        if g <= 4:  # acks_complete / acks_incomplete
            expected = enc[base + CF_ACKS_EXPECTED]
            complete = expected != 0 and enc[base + CF_ACKS_RECEIVED] + 1 >= expected - 1
            return complete if g == 3 else not complete
        if g <= 6:  # from_owner / not_from_owner
            owner = enc[d0 + 1]
            is_owner = owner != 0 and rec[1] == owner
            return is_owner if g == 5 else not is_owner
        if g >= 11:  # owner_is_requestor / owner_not_requestor
            # rec[5] is requestor+2; the owner lane uses the same +2 encoding,
            # so equality holds exactly when the carried requestor is owner.
            # Both guards require a recorded owner; with none, neither
            # matches and an unguarded default wins.
            owner = enc[d0 + 1]
            is_req_owner = bool(rec[4]) and owner != 0 and rec[5] == owner
            if g == 11:
                return is_req_owner
            return owner != 0 and not is_req_owner
        run = enc[d0 + 2 : d0 + 2 + self.num_caches]
        if g <= 8:  # last_sharer / not_last_sharer
            last = run[0] == rec[1] and (self.num_caches == 1 or run[1] == 0)
            return last if g == 7 else not last
        # from_sharer / not_from_sharer (padding zeros can never equal src+2)
        is_sharer = rec[1] in run
        return is_sharer if g == 9 else not is_sharer

    # -- successor construction ---------------------------------------------------
    def _error(self, code, ct, rec, cid=None, out=None) -> str:
        """The text of failure *code* of transition *ct* (see
        :data:`_ACTION_STRIDE`), on message record *rec* (None: an access),
        at cache *cid* (None: the directory) whose plane-0 lanes *out* the
        transition has written so far."""
        i, kind = divmod(code, _ACTION_STRIDE)
        fields = {
            "cid": cid,
            "action": ct.actions[i],
            "message": None if rec is None else decode_message(rec, self.codec.mtypes),
        }
        if cid is not None:
            base = cid * CACHE_ENCODED_WIDTH
            fields["data"] = out[base + CF_DATA] - 1
            fields["last"] = out[base + CF_LAST_OBSERVED] - 1
            fields["version"] = out[self.version_offset]
        return _ERROR_TEXTS[kind].format(**fields)

    def _undeliverable(self, lanes, rec: tuple, ct) -> str:
        """The text of delivering message record *rec* in the plane-0
        *lanes* when no transition takes it (*ct* None) or several do (*ct*
        :data:`AMBIGUOUS`; they are listed in candidate order)."""
        message = decode_message(rec, self.codec.mtypes)
        d0 = self.dir_offset
        if rec[2] == 1:
            receiver, controller, base = "directory", self.spec.directory, None
            si = lanes[d0]
        else:
            receiver, controller = f"cache {message.dst}", self.spec.cache
            base = message.dst * CACHE_ENCODED_WIDTH
            si = lanes[base]
        state = controller.state_names[si]
        if ct is None:
            return f"{receiver} in state {state!r} cannot handle message {message}"
        matching = ", ".join(
            str(MessageEvent(message.mtype, _GUARD_NAMES.get(c.guard)))
            for c in controller.on_message[si][rec[0]]
            if not c.guard or self._guard(c.guard, rec, lanes, base, d0)
        )
        return (
            f"ambiguous transitions for {message.mtype} in state {state!r}: "
            f"{matching}"
        )

    # -- the per-key evaluator -----------------------------------------------------
    def access_outcomes(self, cid: int, lanes) -> tuple:
        """The outcomes of cache *cid*'s access plans, in workload order, in
        a state whose lanes (at least through the version lane) are
        *lanes*: empty when its budget is spent or its block is transient.
        See :meth:`_evaluate`."""
        base = cid * CACHE_ENCODED_WIDTH
        si = lanes[base + CF_STATE]
        if lanes[base + CF_ISSUED] >= self.max_accesses:
            return ()
        if not self.spec.cache.stable[si]:
            return ()
        eevs = self._access_eevs[cid]
        return tuple(
            self._evaluate(eevs[ai], ct, fn, lanes, cid, None, ai)
            for ai, ct, fn in self._access_plans[si]
        )

    def delivery_outcome(self, rec: tuple, lanes):
        """The outcome of delivering message record *rec* in a state whose
        lanes (at least through the version lane) are *lanes*:
        :data:`STALLED`, :data:`FAILED` (no transition takes it, several
        do, or see :meth:`_evaluate`) or an outcome.  It depends on nothing
        but *rec*, the receiver's block and, for a cache, the version
        lane."""
        cid, ct, ai = self._delivery(rec, lanes)
        if ct is None or ct is AMBIGUOUS:
            return FAILED
        if ct.stall:
            return STALLED
        eev = self.codec.intern_event((1,) + rec)
        return self._evaluate(eev, ct, self._fn(ct, cid), lanes, cid, rec, ai)

    def _delivery(self, rec: tuple, lanes) -> tuple:
        """``(cid, transition, pending access)`` of delivering message
        record *rec* in *lanes*: the receiving cache (None: the directory),
        the transition that takes it (None: none does, :data:`AMBIGUOUS`:
        several do) and the cache's pending access (None: none)."""
        d0 = self.dir_offset
        if rec[2] == 1:  # the directory (id -1, +2 shift)
            cid = base = ai = None
            cands = self.spec.directory.on_message[lanes[d0]].get(rec[0])
        else:
            cid = rec[2] - 2
            base = cid * CACHE_ENCODED_WIDTH
            cands = self.spec.cache.on_message[lanes[base]].get(rec[0])
            pending = lanes[base + CF_PENDING]
            ai = pending - 1 if pending else None
        if not cands:
            return cid, None, ai
        if len(cands) == 1 and cands[0].guard == 0:
            return cid, cands[0], ai
        return cid, self._select(cands, rec, lanes, base, d0), ai

    def _fn(self, ct, cid: int | None):
        """The generated function of transition *ct* at cache *cid* (None:
        the directory)."""
        return (self._dir_fns if cid is None else self._cache_fns)[id(ct)]

    def _run(self, ct, fn, out: list, cid, rec, ai, sends: list):
        """Run transition *ct* (its generated function *fn*) at cache *cid*
        (None: the directory) on the plane-0 lanes *out* in place, its sends
        appended to *sends*: None, or the failing action's error code."""
        if cid is None:
            return fn(out, rec, sends)
        base = cid * CACHE_ENCODED_WIDTH
        if rec is None:  # an access
            out[base + CF_ISSUED] += 1
            out[base + CF_PENDING] = ai + 1
        if fn is not None and (code := fn(out, base, cid, rec, ai, sends)):
            return code
        out[base + CF_STATE] = ct.next_state
        if ct.has_perform:
            out[base + CF_PENDING] = 0
        return None

    def _evaluate(self, eev, ct, fn, lanes, cid, rec, ai):
        """Run transition *ct* (its generated function *fn*) for event *eev*
        at cache *cid* (None: the directory) on a copy of *lanes*, and
        return ``(eev, new block lanes, new version | None: unchanged,
        sends)`` -- or :data:`FAILED` when the function reports an error
        code, or when it wrote outside the controller's block (plus, for a
        cache, the version lane): the outcome is a function of that key
        only if nothing else changed."""
        vo = self.version_offset
        before = list(lanes[: vo + 1])
        out = before.copy()
        sends: list = []
        if self._run(ct, fn, out, cid, rec, ai, sends):
            return FAILED
        if cid is None:
            lo, hi, top = self.dir_offset, vo, vo + 1
        else:
            lo = cid * CACHE_ENCODED_WIDTH
            hi, top = lo + CACHE_ENCODED_WIDTH, vo
        if out[:lo] != before[:lo] or out[hi:top] != before[hi:top]:
            return FAILED
        version = out[vo] if out[vo] != before[vo] else None
        return eev, tuple(out[lo:hi]), version, tuple(sends)

    # -- the memos: outcomes filed ready to splice -------------------------------
    def _scratch(self, base: int, block, version: int = 0) -> list:
        """Plane-0 lanes through the version lane holding the *block* lanes
        from lane *base* on and *version* (zeros elsewhere: the evaluator
        reads neither): what a memo miss evaluates on."""
        lanes = [0] * (self.version_offset + 1)
        lanes[base : base + len(block)] = block
        lanes[-1] = version
        return lanes

    def _plane_of(self, lanes: tuple) -> tuple:
        """``(plane, the rest)`` of a memo key's lanes: the plane lane leads
        them only with several planes."""
        if self.num_addresses == 1:
            return 0, lanes
        return lanes[0], lanes[1:]

    def _access_miss(self, key: bytes) -> tuple:
        """The access memo's miss: *key* packs [the plane,] a cache ID, that
        cache's block and the plane's version; returns the cache's plans."""
        addr, lanes = self._plane_of(self.codec.unpack(key))
        cid = lanes[0]
        base = cid * CACHE_ENCODED_WIDTH
        lanes = self._scratch(base, lanes[1:-1], lanes[-1])
        eevs = self._access_eevs[cid]
        plans = []
        outcomes = self.access_outcomes(cid, lanes)
        for (ai, ct, fn), outcome in zip(self._access_plans[lanes[base]], outcomes):
            filed = self._filed(outcome, eevs[ai], ct, fn, lanes, cid, None, ai, addr)
            plans.append((filed[0], filed[1], filed, None, 0))
        return tuple(plans)

    def _litmus_miss(self, key: bytes) -> tuple:
        """The access memo's miss on a litmus workload: *key* packs a cache
        ID and, plane by plane, that cache's block and the plane's version;
        returns the plan of the program's next access -- none when the
        program is done, an earlier access is still in flight on any plane
        or the transition stalls."""
        lanes = self.codec.unpack(key)
        cid = lanes[0]
        width = CACHE_ENCODED_WIDTH + 1
        blocks = [lanes[at : at + width] for at in range(1, len(lanes), width)]
        ops = self._litmus_ops[cid]
        pc = sum(block[CF_ISSUED] for block in blocks)
        stable = self.spec.cache.stable
        if pc >= len(ops) or not all(stable[block[CF_STATE]] for block in blocks):
            return ()
        ai, addr = ops[pc]
        ct = self.spec.cache.on_access[blocks[addr][CF_STATE]][ai]
        if ct is None or ct.stall:
            return ()
        block = blocks[addr]
        lanes = self._scratch(cid * CACHE_ENCODED_WIDTH, block[:-1], block[-1])
        fn = self._cache_fns[id(ct)]
        eev = self._access_eevs[cid][ai]
        outcome = self._evaluate(eev, ct, fn, lanes, cid, None, ai)
        filed = self._filed(outcome, eev, ct, fn, lanes, cid, None, ai, addr)
        return ((filed[0], filed[1], filed, None, 0),)

    def _delivery_miss(self, key: bytes):
        """The delivery memo's miss: *key* packs [the plane,] a message
        record, its receiver's block and, for a cache, the plane's version;
        returns the delivery's outcome, ready to splice, or
        :data:`STALLED`."""
        addr, lanes = self._plane_of(self.codec.unpack(key))
        mw = MESSAGE_ENCODED_WIDTH
        rec = lanes[:mw]
        if rec[2] == 1:  # the directory
            lanes = self._scratch(self.dir_offset, lanes[mw:])
        else:
            base = (rec[2] - 2) * CACHE_ENCODED_WIDTH
            lanes = self._scratch(base, lanes[mw:-1], lanes[-1])
        cid, ct, ai = self._delivery(rec, lanes)
        eev = self.codec.intern_event((1,) + rec)
        if ct is None or ct is AMBIGUOUS:
            text = self._undeliverable(lanes, rec, ct)
            return (self._apply_failed, self._event(eev, addr), text)
        if ct.stall:
            return STALLED
        fn = self._fn(ct, cid)
        outcome = self._evaluate(eev, ct, fn, lanes, cid, rec, ai)
        return self._filed(outcome, eev, ct, fn, lanes, cid, rec, ai, addr)

    def _intern(self, value):
        """*value*, or the equal value the intern table already holds."""
        held = self._interned.get(value)
        return self._interned.store(value, value) if held is None else held

    def _filed(self, outcome, eev, ct, fn, lanes, cid, rec, ai, addr: int) -> tuple:
        """What a memo keeps for the evaluator's *outcome* of event *eev*
        (transition *ct*, function *fn*, on the plane-0 *lanes*) at cache
        *cid* (None: the directory) on plane *addr*: ``(handler, plane's
        eev, ...)``.  An outcome: ``(lo, hi, block, version, sends, splice,
        addr)`` -- the receiver's byte span, its packed block, ``(lo, hi,
        packed)`` of a new version, the :meth:`_packed_sends` groups and
        the section's :meth:`_splicer`, interned.  A :data:`FAILED` one,
        run again: a protocol error's text, formatted once; a write outside
        the block raises :class:`CompilationUnsupported`.  A value too wide
        for its lane: the :class:`LaneOverflow`, raised when the plan is
        applied, at its serial position."""
        eev = self._event(eev, addr)
        if outcome is FAILED:
            out = list(lanes)
            if code := self._run(ct, fn, out, cid, rec, ai, []):
                return (self._apply_failed, eev, self._error(code, ct, rec, cid, out))
            raise CompilationUnsupported(
                "a transition writes outside its controller's block")
        _eev, block, version, sends = outcome
        shift = addr * self._plane_bytes
        lo, hi = self._spans[-1 if cid is None else cid]
        pack = self.codec.pack
        intern = self._intern
        try:
            block = pack(block)
            if version is not None:
                vlo, vhi = self._version_span
                version = (vlo + shift, vhi + shift, pack((version,)))
            sends = self._packed_sends(sends)
        except LaneOverflow as exc:
            return (self._apply_overflow, eev, exc)
        splice = self._splicer(eev[0] == 1, len(sends))
        return intern((
            self._splice_handler, eev, lo + shift, hi + shift, intern(block),
            version, intern(sends), splice, addr,
        ))

    def _packed_sends(self, sends) -> tuple:
        """What the splices insert for the send records *sends*.  Unordered:
        ``(record, packed record)`` per send, sorted by record, as they go
        into the bag.  Ordered: ``(channel key, count, packed records,
        packed new-channel header + records)`` per channel sent to, in
        channel order, its records in send order."""
        pack = self.codec.pack
        if not self.ordered:
            return tuple((m, pack(m)) for m in sorted(sends))
        channels: dict = {}
        for m in sends:
            channels.setdefault(m[1:4], []).append(m)
        groups = []
        for channel, msgs in sorted(channels.items()):
            packed = b"".join(map(pack, msgs))
            groups.append(
                (channel, len(msgs), packed, pack(channel + (len(msgs),)) + packed)
            )
        return tuple(groups)

    # -- the apply handlers ------------------------------------------------------
    def _apply_spliced(self, key: bytes, plan: tuple, net: tuple) -> bytes:
        """An access or a delivery: the successor spliced out of the parent's
        *key* -- ``key[:lo] + block + key[hi:v] + version + ...``, the rest
        the parent's unless the plan delivers or sends, and then only its
        plane's section rewritten: ``key[hi:start] + section + key[end:]``,
        the later planes' sections copied through."""
        _handler, _eev, lo, hi, block, version, sends, splice, addr = plan[2]
        if version is not None:  # a store: the version lane is spliced too
            vlo, vhi, packed = version
            block += key[hi:vlo] + packed
            hi = vhi
        if splice is None:
            return key[:lo] + block + key[hi:]
        handle = net[addr]
        start, end = handle[3], handle[4]
        section = splice(self, key[start:end], handle, plan[3], sends, plan[4])
        return key[:lo] + block + key[hi:start] + section + key[end:]

    def _apply_failed(self, key: bytes, plan: tuple, net: tuple) -> str:
        return plan[2][2]  # the protocol error's text

    def _apply_overflow(self, key: bytes, plan: tuple, net: tuple):
        raise plan[2][2].with_traceback(None)  # a value too wide for its lane

    def _apply_duplicate(self, key: bytes, plan: tuple, net: tuple) -> bytes:
        """A duplicated message: one more copy of the record beside its twin
        -- at a channel's head, the channel's count raised, or in the bag,
        the bag's count raised -- and ``faults_used`` raised."""
        items, offsets, _deliveries, start, _end = net[plan[2]]
        where, record = plan[3], plan[4]
        lb = self.lane_bytes
        if self.ordered:
            at = start + (offsets[where] + 3) * lb  # the channel's count lane
            count = self._lane(len(items[where][3]) + 1)
            return self._faulted(key, at) + count + record + key[at + lb :]
        at = start + offsets[where] * lb
        count = self._lane(len(items) + 1)
        return self._faulted(key, start) + count + key[start + lb : at] + record + key[at:]

    def _apply_reorder(self, key: bytes, plan: tuple, net: tuple) -> bytes:
        """A reordered channel: records *pos* and *pos + 1* swapped, and
        ``faults_used`` raised."""
        width = MESSAGE_ENCODED_WIDTH * self.lane_bytes
        first = self._head_byte(net[plan[2]], plan[3]) + plan[4] * width
        second = first + width
        return (
            self._faulted(key, first) + key[second : second + width]
            + key[first:second] + key[second + width :]
        )

    def _head_byte(self, handle: tuple, where: int) -> int:
        """The first byte in a key of the head of channel *where* of the
        section parsed as *handle*."""
        return handle[3] + (handle[1][where] + 4) * self.lane_bytes

    def _faulted(self, key: bytes, at: int) -> bytes:
        """``key[:at]`` with ``faults_used`` raised by one: a duplicate's or
        a reorder's successor up to its one edit of a section, which it
        continues with direct slices of *key* -- the rest of that section
        and the later planes' sections copied through."""
        lb = self.lane_bytes
        fa = self.fault_offset * lb
        used = self._lane(int.from_bytes(key[fa : fa + lb], sys.byteorder) + 1)
        return key[:fa] + used + key[fa + lb : at]

    # -- the one-pass splice of a network section ----------------------------------
    #
    # A splice takes ``(section, net, where, sends, pos)``: one plane's packed
    # network section, its parse handle, the delivered record's place --
    # record *pos* of channel *where* when ordered, record *where* of the bag
    # when unordered, None for an access -- and the :meth:`_packed_sends`
    # groups.  It returns the successor section as the reference network's
    # ``deliver`` + ``send`` (``tests/verification/reference_system.py``)
    # normalize it, written front to back in one pass over the handle's
    # offsets: each untouched run of channels (or records) is one slice of
    # *section*, each touched channel its header, its new count lane and its
    # records, and the section's count lane goes first.
    # The caller copies the key around it, later planes included.
    def _splicer(self, delivers: bool, sends: int):
        """The splice -- a function of ``(self, section, net, where, sends,
        pos)`` -- of a plan that *delivers* (or not) and sends *sends*
        messages; None when the section stays the parent's."""
        if not (delivers or sends):
            return None
        cls = TransitionKernel
        return cls._fifo_splice if self.ordered else cls._bag_splice

    def _lane(self, value: int) -> bytes:
        """*value* packed as one lane; :class:`LaneOverflow` (the codec's
        message) when it does not fit."""
        try:
            return self._small_lanes[value]
        except IndexError:
            try:
                return value.to_bytes(self.lane_bytes, sys.byteorder)
            except OverflowError:
                raise self.codec.overflow(value) from None

    def _bag_splice(self, section: bytes, net: tuple, where, sends, pos=0) -> bytes:
        """Unordered: each record inserted at its sorted place in the bag
        (*sends* are sorted, so equal places keep their order), the
        delivered one taken out after any insertion at its own place."""
        items, offsets = net[0], net[1]
        lb = self.lane_bytes
        width = MESSAGE_ENCODED_WIDTH * lb
        parts = [self._lane(len(items) + len(sends) - (where is not None))]
        prev = lb
        cut = None if where is None else offsets[where] * lb
        for rec, packed in sends:
            at = offsets[bisect_right(items, rec)] * lb
            if cut is not None and cut < at:
                parts.append(section[prev:cut])
                prev = cut + width
                cut = None
            parts += (section[prev:at], packed)
            prev = at
        if cut is not None:
            parts.append(section[prev:cut])
            prev = cut + width
        parts.append(section[prev:])
        return b"".join(parts)

    def _fifo_splice(self, section: bytes, net: tuple, where, sends, pos=0) -> bytes:
        """Ordered: each channel's sends appended to it -- found by
        bisection on the sorted channel items, which a 3-field key sorts
        just below -- or framed as a new channel in front of it, and record
        *pos* of the delivered channel taken out (:meth:`_take`).  The
        groups come in channel order, so every channel is written once, in
        place: a channel opened at the delivered one's index goes in before
        it, and sends into the delivered channel are written with it."""
        items, offsets = net[0], net[1]
        lb = self.lane_bytes
        lane = self._lane
        nchan = total = len(items)
        parts = [b""]  # the channel count, known last
        prev = lb
        taken, extra, more = where, b"", 0
        for channel, count, packed, opened in sends:
            idx = bisect_left(items, channel)
            joins = idx < nchan and items[idx][:3] == channel
            if joins and idx == where:  # written with the delivery
                extra, more = packed, count
                continue
            if taken is not None and taken < idx:
                prev = self._take(section, net, taken, pos, extra, more, parts, prev)
                taken = None
            at = offsets[idx] * lb
            if joins:
                end = offsets[idx + 1] * lb
                parts += (
                    section[prev : at + 3 * lb], lane(len(items[idx][3]) + count),
                    section[at + 4 * lb : end], packed,
                )
                prev = end
            else:
                parts += (section[prev:at], opened)
                prev = at
                total += 1
        if taken is not None:
            prev = self._take(section, net, taken, pos, extra, more, parts, prev)
        if where is not None and not more and len(items[where][3]) == 1:
            total -= 1  # the delivery emptied its channel
        parts[0] = lane(total)
        parts.append(section[prev:])
        return b"".join(parts)

    def _take(self, section: bytes, net: tuple, where: int, pos: int,
              extra: bytes, more: int, parts: list, prev: int) -> int:
        """Write *section* from byte *prev* through channel *where* into
        *parts*: record *pos* taken out of that channel and the *more*
        packed records *extra* appended to it -- the channel left out,
        header and all, when that empties it.  Returns the byte after the
        channel."""
        lb = self.lane_bytes
        at = net[1][where] * lb
        end = net[1][where + 1] * lb
        left = len(net[0][where][3]) - 1 + more
        if not left:
            parts.append(section[prev:at])
            return end
        cut = at + (4 + pos * MESSAGE_ENCODED_WIDTH) * lb
        parts += (
            section[prev : at + 3 * lb], self._lane(left), section[at + 4 * lb : cut],
            section[cut + MESSAGE_ENCODED_WIDTH * lb : end], extra,
        )
        return end

    def _compile_cache_fn(self, ct):
        """Generate one cache transition's function from its actions: its
        constants burned into straight-line source, run once per distinct
        text (:func:`_compiled`).  ``fn(out, base, cid, rec, ai, sends)``
        mutates the cache block in place and appends encoded send records;
        it returns None, or the first failing action's error code (see
        :data:`_ACTION_STRIDE`).  ``None`` instead of a function for an
        empty action list."""
        if not ct.actions:
            return None
        # The version offset: a default arg every caller leaves at plane 0.
        lines = [f"def fn(out, base, cid, rec, ai, sends, vo={self.version_offset}):"]
        emit = lines.append
        tmp = 0
        for i, action in enumerate(ct.actions):
            at = _ACTION_STRIDE * i
            if isinstance(action, Send):
                mt, vnet = self._message_type(action)
                if action.requestor_slot is not None:
                    emit(f" s{tmp} = out[base + {CF_SAVED + action.requestor_slot}]")
                    emit(f" if s{tmp} == 0:")
                    emit(f"  return {at + _E_NO_SAVED}")
                    dst = f"s{tmp} + 1"
                    tmp += 1
                elif action.to is Dest.DIRECTORY:
                    dst = "1"
                elif action.to is Dest.REQUESTOR:
                    emit(" if rec is None or not rec[4]:")
                    emit(f"  return {at + _E_NO_REQUESTOR}")
                    dst = "rec[5]"
                elif action.to is Dest.SELF:
                    dst = "cid + 2"
                else:
                    emit(f" return {at + _E_CACHE_DEST}")
                    break
                if action.requestor_from_slot is not None:
                    emit(f" s{tmp} = out[base + {CF_SAVED + action.requestor_from_slot}]")
                    emit(f" if s{tmp} == 0:")
                    emit(f"  return {at + _E_NO_SAVED_BEHALF}")
                    req = f"s{tmp} + 1"
                    tmp += 1
                else:
                    emit(" req = rec[5] if rec is not None and rec[4] else cid + 2")
                    req = "req"
                head = f"({mt}, cid + 2, {dst}, {vnet}, 1, {req}"
                if action.with_data:
                    emit(f" data = out[base + {CF_DATA}]")
                    emit(" if data:")
                    emit(f"  sends.append({head}, 1, data + 1, 0, 0))")
                    emit(" else:")
                    emit(f"  sends.append({head}, 0, 0, 0, 0))")
                else:
                    emit(f" sends.append({head}, 0, 0, 0, 0))")
            elif isinstance(action, CopyDataFromMessage):
                emit(" if rec is None or not rec[6]:")
                emit(f"  return {at + _E_CACHE_DATA}")
                emit(f" out[base + {CF_DATA}] = rec[7] - 1")
            elif isinstance(action, InvalidateData):
                emit(f" out[base + {CF_DATA}] = 0")
            elif isinstance(action, SetAcksExpectedFromMessage):
                emit(
                    f" out[base + {CF_ACKS_EXPECTED}] ="
                    " rec[9] - 1 if rec is not None and rec[8] else 0"
                )
            elif isinstance(action, IncrementAcksReceived):
                emit(f" out[base + {CF_ACKS_RECEIVED}] += 1")
            elif isinstance(action, ResetAckCounters):
                emit(f" out[base + {CF_ACKS_EXPECTED}] = 0")
                emit(f" out[base + {CF_ACKS_RECEIVED}] = 0")
            elif isinstance(action, SaveRequestor):
                emit(
                    f" out[base + {CF_SAVED + action.slot}] ="
                    " rec[5] - 1 if rec is not None and rec[4] else 0"
                )
            elif isinstance(action, PerformAccess):
                # Nothing pending (a replayed hit) makes it a no-op.
                emit(" if ai is not None:")
                emit(f"  if ai == {self.ai_load}:")
                emit(f"   data = out[base + {CF_DATA}]")
                emit("   if data == 0:")
                emit(f"    return {at + _E_LOAD_NO_DATA}")
                emit(f"   if data < out[base + {CF_LAST_OBSERVED}]:")
                emit(f"    return {at + _E_LOAD_BACKWARDS}")
                emit(f"   out[base + {CF_LAST_OBSERVED}] = data")
                emit(f"  elif ai == {self.ai_store}:")
                emit(f"   data = out[base + {CF_DATA}]")
                emit("   if data == 0:")
                emit(f"    return {at + _E_STORE_NO_DATA}")
                emit("   if data - 1 != out[vo]:")
                emit(f"    return {at + _E_DATA_VALUE}")
                emit("   version = out[vo] + 1")
                emit("   out[vo] = version")
                emit(f"   out[base + {CF_DATA}] = version + 1")
                emit(f"   out[base + {CF_LAST_OBSERVED}] = version + 1")
                emit("  else:  # replacement: the block leaves the cache")
                emit(f"   out[base + {CF_DATA}] = 0")
            else:
                emit(f" return {at + _E_CACHE_ACTION}")
                break
        return _compiled("\n".join(lines))

    def _message_type(self, action: Send) -> tuple[int, int]:
        """``(message-type index, vnet)`` of the message *action* sends."""
        try:
            mt = self.spec.mtype_names.index(action.message)
        except ValueError:
            raise CompilationUnsupported(
                f"send of unknown message type {action.message!r}"
            ) from None
        return mt, self.spec.mtype_vnet[mt]

    def _compile_directory_fn(self, ct):
        """Directory twin of :meth:`_compile_cache_fn`: ``fn(out, rec,
        sends)``.  The owner local and the sharer set are built, and written
        back, only when some action reads or writes them."""
        d0 = self.dir_offset
        n = self.num_caches
        mem_i = d0 + 2 + n
        touches_sharers = any(
            isinstance(a, _SHARER_ACTIONS)
            or isinstance(a, Send) and (a.with_ack_count or a.to is Dest.SHARERS)
            for a in ct.actions
        )
        uses_owner = any(
            isinstance(a, _OWNER_ACTIONS)
            or isinstance(a, Send) and a.to is Dest.OWNER
            for a in ct.actions
        )
        # Lane offsets: default args every caller leaves at plane 0.
        lines = [f"def fn(out, rec, sends, d0={d0}, mem_i={mem_i}):"]
        emit = lines.append
        emit(" reqf = rec[4]")
        emit(" reqv = rec[5]")
        if uses_owner:
            emit(" owner = out[d0 + 1]")
        if touches_sharers:
            emit(" sharers = {v for v in out[d0 + 2:mem_i] if v}")
        for i, action in enumerate(ct.actions):
            at = _ACTION_STRIDE * i
            if isinstance(action, Send):
                mt, vnet = self._message_type(action)
                if action.to not in (Dest.REQUESTOR, Dest.OWNER, Dest.SHARERS):
                    emit(f" return {at + _E_DIR_DEST}")
                    break
                if action.with_data:
                    emit(" dv = out[mem_i] + 2")
                    df, dv = "1", "dv"
                else:
                    df, dv = "0", "0"
                if action.with_ack_count:
                    emit(" av = len(sharers) - (1 if reqf and reqv in sharers else 0) + 2")
                    af, av = "1", "av"
                else:
                    af, av = "0", "0"
                record_tail = f"{vnet}, reqf, reqv, {df}, {dv}, {af}, {av})"
                if action.to is Dest.REQUESTOR:
                    emit(" if not reqf:")
                    emit(f"  return {at + _E_DIR_REQUESTOR}")
                    emit(f" sends.append(({mt}, 1, reqv, {record_tail})")
                elif action.to is Dest.OWNER:
                    emit(" if owner == 0:")
                    emit(f"  return {at + _E_DIR_OWNER}")
                    emit(f" sends.append(({mt}, 1, owner, {record_tail})")
                else:
                    emit(" for dst in sorted(s for s in sharers if not (reqf and s == reqv)):")
                    emit(f"  sends.append(({mt}, 1, dst, {record_tail})")
            elif isinstance(action, (CopyDataFromMessage, WriteDataToMemory)):
                emit(" if not rec[6]:")
                emit(f"  return {at + _E_DIR_DATA}")
                emit(" out[mem_i] = rec[7] - 2")
            elif isinstance(action, SetOwnerToRequestor):
                emit(" owner = reqv if reqf else 0")
            elif isinstance(action, ClearOwner):
                emit(" owner = 0")
            elif isinstance(action, AddRequestorToSharers):
                emit(" if not reqf:")
                emit(f"  return {at + _E_DIR_SHARER}")
                emit(" sharers.add(reqv)")
            elif isinstance(action, AddOwnerToSharers):
                emit(" if owner:")
                emit("  sharers.add(owner)")
            elif isinstance(action, RemoveRequestorFromSharers):
                emit(" if reqf:")
                emit("  sharers.discard(reqv)")
            elif isinstance(action, ClearSharers):
                emit(" sharers.clear()")
            else:
                emit(f" return {at + _E_DIR_ACTION}")
                break
        emit(f" out[d0] = {ct.next_state}")
        if uses_owner:
            emit(" out[d0 + 1] = owner")
        if touches_sharers:
            emit(" run = sorted(sharers)")
            emit(f" run.extend(0 for _ in range({n} - len(run)))")
            emit(" out[d0 + 2:mem_i] = run")
        return _compiled("\n".join(lines))

    # -- predicates and invariants --------------------------------------------------
    def is_quiescent(self, enc: tuple) -> bool:
        """True when nothing is in flight and every controller is in a
        stable state."""
        # All sections empty <=> the suffix is exactly one zero count lane
        # per plane (a non-empty section is always longer than one lane).
        if len(enc) != self.net_offset + self.num_addresses:
            return False
        stable = self.spec.cache.stable
        if not all(stable[enc[lane]] for lane in self._cache_lanes):
            return False
        stable = self.spec.directory.stable
        stride = self.plane_stride
        return all(
            stable[enc[plane + self.dir_offset]]
            for plane in range(0, self.num_addresses * stride, stride)
        )

    def is_complete(self, enc: tuple) -> bool:
        """Quiescent, and every cache has exhausted its workload: the only
        state with no enabled event that is not a deadlock."""
        if not self.is_quiescent(enc):
            return False
        lanes = self._cache_lanes
        if self._litmus_ops is not None:
            planes = self.num_addresses
            return all(
                sum(enc[at + CF_ISSUED] for at in lanes[cid * planes : (cid + 1) * planes])
                >= len(ops)
                for cid, ops in enumerate(self._litmus_ops)
            )
        return all(enc[lane + CF_ISSUED] >= self.max_accesses for lane in lanes)

    def check(self, enc, codes: tuple) -> bool:
        """Evaluate the compiled invariants named by *codes* on the lanes
        *enc* (a tuple, or :meth:`StateCodec.view` of a packed key); True =
        all hold.

        On False the caller words the report through :meth:`violation`
        (and decodes the state for :data:`INV_DECODED` only).  SWMR and
        single-owner hold per address plane.  A litmus invariant is the
        code ``("litmus", clauses, name)``, each clause ``(cache_id, addr,
        version)`` observations: it fires on a complete state where a
        clause matches in full.  :data:`INV_DECODED` always reads False."""
        permission = self.spec.cache.permission
        width = CACHE_ENCODED_WIDTH
        n = self.num_caches
        planes = range(0, self.num_addresses * self.plane_stride, self.plane_stride)
        if codes == DEFAULT_CODES:
            # SWMR alone: two stable writers are two writers.
            for plane in planes:
                writers = readers = 0
                for cid in range(n):
                    p = permission[enc[plane + cid * width]]
                    if p == 2:
                        writers += 1
                    elif p == 1:
                        readers += 1
                if writers > 1 or (writers and readers):
                    return False
            return True
        stable = self.spec.cache.stable
        complete = None  # lazily evaluated, shared across litmus codes
        for code in codes:
            if code == INV_DECODED:
                return False
            if code == INV_SWMR:
                if not self.check(enc, DEFAULT_CODES):
                    return False
            elif code == INV_SINGLE_OWNER:
                for plane in planes:
                    stable_writers = 0
                    for cid in range(n):
                        si = enc[plane + cid * width]
                        if stable[si] and permission[si] == 2:
                            stable_writers += 1
                    if stable_writers > 1:
                        return False
            else:  # ("litmus", clauses, name)
                if complete is None:
                    complete = self.is_complete(enc)
                if not complete:
                    continue
                stride = self.plane_stride
                for clause in code[1]:
                    if all(
                        enc[a * stride + c * width + CF_LAST_OBSERVED] == v + 1
                        for c, a, v in clause
                    ):
                        return False
        return True

    def violation(self, enc, code) -> tuple[str, str] | None:
        """``(name, detail)`` of compiled invariant *code*'s violation on
        the lanes *enc*, or None where it holds: the wording of what
        :meth:`check` refused, cold -- it runs once a check has failed.
        SWMR and single owner name the caches of the first plane that
        breaks them; a litmus code ``("litmus", clauses, name)`` names the
        first forbidden outcome a complete state reached."""
        stride, width = self.plane_stride, CACHE_ENCODED_WIDTH
        if code not in (INV_SWMR, INV_SINGLE_OWNER):  # a litmus code
            for clause in code[1] if self.is_complete(enc) else ():
                if all(enc[a * stride + c * width + CF_LAST_OBSERVED] == v + 1
                       for c, a, v in clause):
                    outcome = ", ".join(f"C{c} observed v{v} at a{a}" for c, a, v in clause)
                    return code[2], f"forbidden outcome reached: {outcome}"
            return None
        permission, stable = self.spec.cache.permission, self.spec.cache.stable
        for addr in range(self.num_addresses):
            held = [enc[addr * stride + c * width] for c in range(self.num_caches)]
            at = f" on address {addr}" if addr else ""
            writers = [c for c, s in enumerate(held) if permission[s] == 2]
            if code == INV_SINGLE_OWNER:
                owners = [c for c in writers if stable[held[c]]]
                if len(owners) > 1:
                    return "single-owner", (
                        f"caches {owners} are simultaneously in a stable writable state{at}")
                continue
            readers = [c for c, s in enumerate(held) if permission[s] == 1]
            if len(writers) > 1:
                return "SWMR", f"caches {writers} hold write permission simultaneously{at}"
            if writers and readers:
                return "SWMR", (f"cache {writers[0]} holds write permission while "
                                 f"caches {readers} can read{at}")
        return None


__all__ = [
    "TransitionKernel",
    "AMBIGUOUS",
    "INV_SWMR",
    "INV_SINGLE_OWNER",
    "INV_DECODED",
    "DEFAULT_CODES",
]
