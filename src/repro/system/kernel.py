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
* a transition touches three spans of a state -- one controller's block,
  the version lane and the network section -- and reads nothing else, so
  what it does is a pure function of a small key.  One **per-key
  evaluator** (:meth:`TransitionKernel.access_outcomes`,
  :meth:`TransitionKernel.delivery_outcome`) runs the generated function
  for one access ``(cache id, block)`` or one delivery ``(record, receiver
  block)`` and returns *stalled*, *failed* or ``(event, new block lanes,
  new version | unchanged, sends)``; the batch kernel
  (:mod:`repro.system.vectorized`) files what it returns in its plan
  tables, and the per-state search keeps it in two bounded memos keyed on
  the parent's packed bytes.  A successor is then **spliced, not built**:
  ``key[:lo] + block + key[hi:v] + version + tail``, the tail spliced in
  bytes out of the parent's section through its parse handle's offsets
  (:meth:`TransitionKernel._splicer`).  Lanes are unpacked only on a
  memo miss, at a leaf and for the invariant check of a new state -- no
  :class:`GlobalState`, :class:`Message` or event object is materialized
  on the hot path;
* multi-address, fault-model and litmus configurations run the
  **plane-aware fork** instead: the same generated functions on the whole
  lane tuple, the network re-normalized lane by lane
  (:meth:`TransitionKernel._emit_net`) and the result packed.  A plan the
  splice does not build -- a protocol error, a write outside the block, a
  value too wide for its lane -- is replayed through that fork for its
  exact text (or error) at its serial position.

The kernel **reports its own errors**.  Every failure site of a generated
function -- missing data, requestor or owner, a data-value violation, an
action or a destination the controller cannot execute -- returns a small
error code (``None`` is success, so the hot path tests one truthiness),
and a delivery no transition takes, or several do, is a plan whose
transition is ``None`` / :data:`AMBIGUOUS`.  Only then does the kernel
format the protocol error's text (:meth:`TransitionKernel._error`,
:meth:`TransitionKernel._undeliverable`), from the code, the failing
:class:`~repro.dsl.types.Action`, the lanes the transition had written so
far and the decoded message.  The tests hold every successor and every
error text to an independent object-level interpreter of the same
generated protocol (``tests/verification/reference_system.py``), per state
and per search.

The layout is :mod:`repro.system.codec`'s: the kernel and the codec import
the cache-block widths and lane offsets (``CF_*``) from
:mod:`repro.system.node_state` and the message width from
:mod:`repro.system.message`.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right
from operator import itemgetter

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
from repro.system.codec import LaneOverflow, Memo
from repro.system.message import MESSAGE_ENCODED_WIDTH, decode_message
from repro.system.node_state import (
    CACHE_ENCODED_WIDTH,
    CF_ACKS_EXPECTED,
    CF_ACKS_RECEIVED,
    CF_DATA,
    CF_ISSUED,
    CF_LAST_OBSERVED,
    CF_PENDING,
    CF_SAVED,
    CF_STATE,
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
#: for a cache, the version lane) -- which its caller replays through the
#: plane-aware handler (the batch kernel: through the per-state loop).
STALLED = object()
FAILED = object()

#: Edit order of a byte splice: by lane, then skip width -- an insertion
#: (skip 0) goes before a removal at the same lane; equal keys keep their
#: order (several insertions at one lane, in sorted record order).
_START_SKIP = itemgetter(0, 1)

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

#: The default invariant pair, fused into one pass by :meth:`TransitionKernel.check`.
#: Public under ``DEFAULT_CODES`` so the vectorized kernel's batch
#: checker can recognize exactly the code tuple the fused pass covers.
_DEFAULT_CODES = DEFAULT_CODES = (INV_SWMR, INV_SINGLE_OWNER)

#: Generated transition source -> its function, process-wide.  The generated
#: functions close over nothing -- every constant is burned into the text --
#: so equal text means an interchangeable function: a kernel build makes
#: thousands of per-transition calls for a few hundred distinct sources (one
#: ``matrix-2c`` pass: 13 282 for 154), and every kernel of a process shares
#: them.  Grows by one small function per distinct source and is never
#: cleared.
_COMPILED_SOURCES: dict[str, object] = {}


def _compiled(source: str):
    """The ``fn`` that *source* defines, ``exec``-ed on first sight only."""
    fn = _COMPILED_SOURCES.get(source)
    if fn is None:
        namespace: dict = {}
        exec(source, namespace)  # noqa: S102 - trusted generated source
        fn = _COMPILED_SOURCES[source] = namespace["fn"]
    return fn


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
        for row in spec.cache.on_message:
            for cands in row.values():
                if any(ct.guard > 4 for ct in cands):
                    raise CompilationUnsupported("directory guard on a cache")
        for row in spec.directory.on_message:
            for cands in row.values():
                if any(0 < ct.guard <= 4 for ct in cands):
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
        faults = system.faults
        self.fault_budget = faults.budget if faults is not None else 0
        self.fault_duplicate = bool(faults is not None and faults.duplicate)
        self.fault_reorder = bool(faults is not None and faults.reorder)
        self.fault_requeue = bool(faults is not None and faults.requeue)
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
        #: Which of the two forks runs -- the configuration alone decides:
        #: the spliced plans for a single plane with no fault lane and no
        #: litmus program, the plane-aware fork for everything else
        #: (``matrix-2c``'s side).  The plane-aware fork expands a simple
        #: configuration identically (``test_kernel.py`` holds the two to
        #: each other over whole 2c x 2a spaces, byte for byte); it stays
        #: off them because it is slower there: forced onto bench
        #: ``full-3c`` it costs ``pass_s`` 1.44-1.50 -> 3.23-3.24 s (x2.2,
        #: 2 of 2 pairs, 2-core VM).
        self._simple = (
            self.num_addresses == 1
            and self.fault_offset is None
            and self._litmus_ops is None
        )
        self.ai_load = codec.access_kinds.index(AccessKind.LOAD)
        self.ai_store = codec.access_kinds.index(AccessKind.STORE)
        #: Per-transition generated functions (see
        #: :meth:`_compile_cache_fn`); keyed by ``id(ct)`` -- the spec is
        #: compiled fresh per kernel, so the transitions are kernel-owned.
        self._cache_fns: dict[int, object] = {}
        for row in spec.cache.on_access:
            for ct in row:
                if ct is not None and id(ct) not in self._cache_fns:
                    self._cache_fns[id(ct)] = self._compile_cache_fn(ct)
        for row in spec.cache.on_message:
            for cands in row.values():
                for ct in cands:
                    if id(ct) not in self._cache_fns:
                        self._cache_fns[id(ct)] = self._compile_cache_fn(ct)

        #: Specialized directory-transition functions, keyed like
        #: ``_cache_fns`` (see :meth:`_compile_directory_fn`).
        self._dir_fns: dict[int, object] = {}
        for row in spec.directory.on_message:
            for cands in row.values():
                for ct in cands:
                    if id(ct) not in self._dir_fns:
                        self._dir_fns[id(ct)] = self._compile_directory_fn(ct)

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

        # The spliced fork's byte layout: lane width, and per receiver the
        # byte span of its block -- ``_spans[cid]`` for a cache, the
        # directory's at ``_spans[-1]`` -- and of the version lane.
        lb = self.lane_bytes = codec.lane_bytes
        self._spans = tuple(
            (cid * CACHE_ENCODED_WIDTH * lb, (cid + 1) * CACHE_ENCODED_WIDTH * lb)
            for cid in range(self.num_caches)
        ) + ((self.dir_offset * lb, self.version_offset * lb),)
        #: Per cache: its packed ID -- what its access memo keys start
        #: with -- and its block's span.
        self._cache_spans = tuple(
            (codec.pack((cid,)), *self._spans[cid]) for cid in range(self.num_caches)
        )
        self._version_span = (self.version_offset * lb, (self.version_offset + 1) * lb)
        self._net_byte_offset = codec.net_byte_offset
        #: Packed lanes of the small values a splice writes into a count lane.
        self._small_lanes = tuple(
            value.to_bytes(lb, sys.byteorder)
            for value in range(min(256, codec.lane_max + 1))
        )
        #: The per-state search's two memos, keyed on packed bytes -- slices
        #: of the parent's key behind a packed cache ID or message record:
        #: ``cid + block + version`` -> that cache's access plans in workload
        #: order, and ``record + receiver block [+ version, for a cache]``
        #: -> the delivery's outcome (or :data:`STALLED`).  A miss unpacks
        #: its key and runs the per-key evaluator.  Tails are not memoized:
        #: they multiply as the sections do.
        self._access_memo = Memo(self._access_miss)
        self._delivery_memo = Memo(self._delivery_miss)
        #: Message record -> packed, the head of its delivery memo keys.
        self._record_tags = Memo(codec.pack)
        #: The outcome of a plan the splice does not build (see :meth:`_replay`),
        #: and the handler every other outcome shares, bound once.
        self._replayed = (self._replay,)
        self._splice_handler = self._apply_spliced
        #: Intern table of the memos' outcomes and of their packed blocks and
        #: sends (:meth:`_intern`): the memos hold far more keys than
        #: outcomes (bench ``unordered-reduced-3c``: 6 146 for 2 454).  A
        #: ``Memo`` like them, so all four stay within ``_MEMO_LIMIT``
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
        enabled event -- accesses cache by cache in workload order, then
        deliveries in network order -- the order the state IDs, the traces
        and a seeded :func:`~repro.verification.random_walk` all follow.

        A plan is a tuple whose ``plan[0]`` is its bound apply handler and
        ``plan[1]`` the codec's interned event encoding: ``plan[0](key,
        plan, net)`` returns the successor's packed key, or the text of the
        protocol error applying it reports (a ``str``, never ``bytes``) --
        :meth:`apply` is the same call.  A delivery with no transition, or
        several, is enabled: applying it reports the protocol error
        (Murphi's "unexpected message"); a stalled one is not.  *net* is
        opaque to callers, who only thread it back into the handler.

        On a simple configuration the plans come out of the two memos
        keyed on slices of *key* (nothing is unpacked unless one misses)
        and a plan splices its successor out of *key*
        (:meth:`_apply_spliced`); *net* is the section's memoized parse
        handle.  Everything else unpacks *key* and runs the plane-aware
        fork (:meth:`_enabled_general`).
        """
        if not self._simple:
            enc = self.codec.unpack(key)
            return self._enabled_general(enc, key)
        plans: list = []
        access = self._access_memo
        vlo, vhi = self._version_span
        version = key[vlo:vhi]
        for tag, lo, hi in self._cache_spans:
            plans += access[tag + key[lo:hi] + version]
        net = self.codec.parsed_section(key[self._net_byte_offset :])
        deliver = self._delivery_memo
        tag_of = self._record_tags
        spans = self._spans
        for where, rec, eev in net[2]:
            tag = tag_of[rec]
            dst = rec[2]
            if dst == 1:  # the directory (id -1, +2 shift)
                lo, hi = spans[-1]
                outcome = deliver[tag + key[lo:hi]]
            else:
                lo, hi = spans[dst - 2]
                outcome = deliver[tag + key[lo:hi] + version]
            if outcome is not STALLED:
                plans.append((outcome[0], eev, outcome, where))
        return plans, net

    def _enabled_general(self, enc: tuple, key: bytes) -> tuple[list, tuple]:
        """Plane-aware twin of :meth:`enabled` for multi-address, fault-model
        and litmus configurations, on the lanes *enc* of *key*.  Returns
        ``(plans, (enc, planes))`` where *planes* is the
        :meth:`StateCodec.parsed_planes` handle; plans come accesses first,
        then deliveries plane by plane, then faults, and apply on *enc*."""
        plans: list = []
        planes = self.codec.parsed_planes(enc, key)
        num_addresses = self.num_addresses
        stride = self.plane_stride
        width = CACHE_ENCODED_WIDTH
        stable = self.spec.cache.stable
        event = self._event
        access_eevs = self._access_eevs
        apply_access = self._apply_access_plan_general
        if self._litmus_ops is not None:
            on_access = self.spec.cache.on_access
            for cid in range(self.num_caches):
                ops = self._litmus_ops[cid]
                pc = sum(
                    enc[a * stride + cid * width + CF_ISSUED]
                    for a in range(num_addresses)
                )
                if pc >= len(ops):
                    continue
                if not all(
                    stable[enc[a * stride + cid * width]]
                    for a in range(num_addresses)
                ):
                    continue
                ai, addr = ops[pc]
                ct = on_access[enc[addr * stride + cid * width]][ai]
                if ct is None or ct.stall:
                    continue
                eev = event(access_eevs[cid][ai], addr)
                plans.append(
                    (apply_access, eev, cid, ct, self._cache_fns[id(ct)], addr)
                )
        else:
            access_plans = self._access_plans
            max_accesses = self.max_accesses
            for cid in range(self.num_caches):
                for addr in range(num_addresses):
                    base = addr * stride + cid * width
                    if enc[base + CF_ISSUED] >= max_accesses:
                        continue
                    si = enc[base]
                    if stable[si]:
                        for ai, ct, fn in access_plans[si]:
                            eev = event(access_eevs[cid][ai], addr)
                            plans.append((apply_access, eev, cid, ct, fn, addr))
        apply_delivery = self._apply_delivery_plan_general
        dir_rows = self.spec.directory.on_message
        cache_rows = self.spec.cache.on_message
        cache_fns = self._cache_fns
        select = self._select
        bypass = self.fault_offset is not None and self.fault_requeue and self.ordered
        for addr in range(num_addresses):
            items = planes[addr][0]
            d0 = addr * stride + self.dir_offset
            if bypass:
                # Re-queue semantics (`FaultModel.requeue`): per channel,
                # plan the first record whose transition does not stall --
                # stalled heads are bypassed rather than blocking the
                # channel.
                for idx, item in enumerate(items):
                    for pos, rec in enumerate(item[3]):
                        fn = None
                        if rec[2] == 1:  # destination is the directory
                            cands = dir_rows[enc[d0]].get(rec[0])
                            base = None
                        else:
                            base = addr * stride + (rec[2] - 2) * width
                            cands = cache_rows[enc[base]].get(rec[0])
                        if cands:
                            if len(cands) == 1 and cands[0].guard == 0:
                                ct = cands[0]
                            else:
                                ct = select(cands, rec, enc, base, d0)
                            if ct is not None and ct is not AMBIGUOUS:
                                if ct.stall:
                                    continue  # bypass: try the next record
                                if base is not None:
                                    fn = cache_fns[id(ct)]
                        else:
                            ct = None
                        eev = event((1,) + rec, addr)
                        plans.append(
                            (apply_delivery, eev, rec, ct, idx, fn, addr, pos)
                        )
                        break
                continue
            for idx, rec, eev in planes[addr][2]:
                fn = None
                if rec[2] == 1:  # destination is the directory
                    cands = dir_rows[enc[d0]].get(rec[0])
                    base = None
                else:
                    base = addr * stride + (rec[2] - 2) * width
                    cands = cache_rows[enc[base]].get(rec[0])
                if cands:
                    if len(cands) == 1 and cands[0].guard == 0:
                        ct = cands[0]
                    else:
                        ct = select(cands, rec, enc, base, d0)
                    if ct is not None and ct is not AMBIGUOUS:
                        if ct.stall:
                            continue  # stalled deliveries are not enabled
                        if base is not None:
                            fn = cache_fns[id(ct)]
                else:
                    ct = None
                eev = event(eev, addr)
                plans.append((apply_delivery, eev, rec, ct, idx, fn, addr, 0))
        fault_lane = self.fault_offset
        if fault_lane is not None and enc[fault_lane] < self.fault_budget:
            if self.fault_duplicate:
                apply_dup = self._apply_duplicate_plan
                for addr in range(num_addresses):
                    for idx, rec, _eev in planes[addr][2]:
                        eev = event((2,) + rec, addr)
                        plans.append((apply_dup, eev, addr, idx))
            if self.fault_reorder and self.ordered:
                apply_reorder = self._apply_reorder_plan
                for addr in range(num_addresses):
                    items = planes[addr][0]
                    for idx, (src, dst, vnet, msgs) in enumerate(items):
                        for pos in range(len(msgs) - 1):
                            if msgs[pos] != msgs[pos + 1]:
                                eev = event((3, src, dst, vnet, pos), addr)
                                plans.append((apply_reorder, eev, addr, idx, pos))
        return plans, (enc, planes)

    def _event(self, fields: tuple, addr: int) -> tuple:
        """The codec's interned event encoding for *fields* on plane *addr*
        (the plane is one trailing lane, present only with several)."""
        if self.num_addresses > 1:
            fields += (addr,)
        return self.codec.intern_event(fields)

    def _select(
        self, cands: tuple, rec: tuple, enc: tuple, base: int | None, d0: int
    ):
        """The transition of *cands* that takes message record *rec*:
        evaluate the guards over encoded fields and prefer a unique guarded
        match; ``None`` when none matches, :data:`AMBIGUOUS` when several
        do and no one guarded match stands out.  The caller (``enabled``)
        resolves the single-unguarded-candidate case inline, so every
        *cands* seen here needs the full walk."""
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
    def apply(self, key: bytes, plan: tuple, net: tuple) -> bytes | str:
        """The successor's packed key for *plan* (from :meth:`enabled` of
        *key*), or the text of the protocol error applying it reports (a
        ``str``, never ``bytes``): that is the one test a caller makes.

        ``plan[0]`` *is* the bound apply handler, so the per-transition hot
        loops may call ``plan[0](key, plan, net)`` directly; this method is
        the equivalent stable entry point.
        """
        return plan[0](key, plan, net)

    def _error(self, code, ct, rec, cid=None, out=None, base=0, vo=0) -> str:
        """The text of failure *code* of transition *ct* (see
        :data:`_ACTION_STRIDE`), on message record *rec* (None: an access),
        at cache *cid* whose lanes *out* the transition has written so far
        from *base* on (its plane's version lane at *vo*); a directory
        failure passes neither."""
        i, kind = divmod(code, _ACTION_STRIDE)
        fields = {
            "cid": cid,
            "action": ct.actions[i],
            "message": None if rec is None else decode_message(rec, self.codec.mtypes),
        }
        if out is not None:
            fields["data"] = out[base + CF_DATA] - 1
            fields["last"] = out[base + CF_LAST_OBSERVED] - 1
            fields["version"] = out[vo]
        return _ERROR_TEXTS[kind].format(**fields)

    def _undeliverable(self, enc: tuple, rec: tuple, ct, plane: int = 0) -> str:
        """The text of delivering message record *rec* on the plane at lane
        *plane* when no transition takes it (*ct* None) or several do
        (*ct* :data:`AMBIGUOUS`; they are listed in candidate order)."""
        message = decode_message(rec, self.codec.mtypes)
        d0 = plane + self.dir_offset
        if rec[2] == 1:
            receiver, controller, base = "directory", self.spec.directory, None
            si = enc[d0]
        else:
            receiver, controller = f"cache {message.dst}", self.spec.cache
            base = plane + message.dst * CACHE_ENCODED_WIDTH
            si = enc[base]
        state = controller.state_names[si]
        if ct is None:
            return f"{receiver} in state {state!r} cannot handle message {message}"
        matching = ", ".join(
            str(MessageEvent(message.mtype, _GUARD_NAMES.get(c.guard)))
            for c in controller.on_message[si][rec[0]]
            if not c.guard or self._guard(c.guard, rec, enc, base, d0)
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
        They depend on nothing but the cache's block and the version lane
        (see :meth:`_evaluate`)."""
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
        d0 = self.dir_offset
        if rec[2] == 1:  # the directory (id -1, +2 shift)
            cid = base = None
            cands = self.spec.directory.on_message[lanes[d0]].get(rec[0])
        else:
            cid = rec[2] - 2
            base = cid * CACHE_ENCODED_WIDTH
            cands = self.spec.cache.on_message[lanes[base]].get(rec[0])
        if not cands:
            return FAILED
        if len(cands) == 1 and cands[0].guard == 0:
            ct = cands[0]
        else:
            ct = self._select(cands, rec, lanes, base, d0)
        if ct is None or ct is AMBIGUOUS:
            return FAILED
        if ct.stall:
            return STALLED
        eev = self.codec.intern_event((1,) + rec)
        if cid is None:
            fn = self._dir_fns[id(ct)]
            return self._evaluate(eev, ct, fn, lanes, None, rec, None)
        pending = lanes[base + CF_PENDING]
        ai = pending - 1 if pending else None
        return self._evaluate(eev, ct, self._cache_fns[id(ct)], lanes, cid, rec, ai)

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
        if cid is None:
            lo, hi = self.dir_offset, vo
            if fn(out, rec, sends):
                return FAILED
            confined = out[vo] == before[vo]
        else:
            lo = cid * CACHE_ENCODED_WIDTH
            hi = lo + CACHE_ENCODED_WIDTH
            if rec is None:  # an access
                out[lo + CF_ISSUED] += 1
                out[lo + CF_PENDING] = ai + 1
            if fn is not None and fn(out, lo, cid, rec, ai, sends):
                return FAILED
            out[lo + CF_STATE] = ct.next_state
            if ct.has_perform:
                out[lo + CF_PENDING] = 0
            confined = True
        if not (confined and out[:lo] == before[:lo] and out[hi:vo] == before[hi:vo]):
            return FAILED
        version = out[vo] if out[vo] != before[vo] else None
        return eev, tuple(out[lo:hi]), version, tuple(sends)

    # -- the spliced fork ----------------------------------------------------------
    def _scratch(self, base: int, block, version: int = 0) -> list:
        """Lanes through the version lane holding the *block* lanes from
        lane *base* on and *version* (zeros elsewhere: the evaluator reads
        neither): what a memo miss evaluates on."""
        lanes = [0] * (self.version_offset + 1)
        lanes[base : base + len(block)] = block
        lanes[-1] = version
        return lanes

    def _access_miss(self, key: bytes) -> tuple:
        """The access memo's miss: *key* packs a cache ID, that cache's
        block and the version; returns the cache's plans."""
        lanes = self.codec.unpack(key)
        cid = lanes[0]
        base = cid * CACHE_ENCODED_WIDTH
        lanes = self._scratch(base, lanes[1:-1], lanes[-1])
        outcomes = self.access_outcomes(cid, lanes)
        if not outcomes:
            return ()
        eevs = self._access_eevs[cid]
        plans = []
        for (ai, _ct, _fn), outcome in zip(self._access_plans[lanes[base]], outcomes):
            spliced = self._spliced(outcome, cid)
            plans.append((spliced[0], eevs[ai], spliced, None))
        return tuple(plans)

    def _delivery_miss(self, key: bytes):
        """The delivery memo's miss: *key* packs a message record, its
        receiver's block and, for a cache, the version; returns the
        delivery's outcome, ready to splice, or :data:`STALLED`."""
        lanes = self.codec.unpack(key)
        mw = MESSAGE_ENCODED_WIDTH
        rec = lanes[:mw]
        if rec[2] == 1:  # the directory
            cid = None
            lanes = self._scratch(self.dir_offset, lanes[mw:])
        else:
            cid = rec[2] - 2
            lanes = self._scratch(cid * CACHE_ENCODED_WIDTH, lanes[mw:-1], lanes[-1])
        outcome = self.delivery_outcome(rec, lanes)
        if outcome is STALLED:
            return STALLED
        return self._spliced(outcome, cid)

    def _intern(self, value):
        """*value*, or the equal value the intern table already holds."""
        held = self._interned.get(value)
        return self._interned.store(value, value) if held is None else held

    def _spliced(self, outcome, cid: int | None) -> tuple:
        """The memos' form of an evaluator *outcome* at cache *cid* (None:
        the directory): ``(handler, lo, hi, block, version | None, sends,
        splice | None)`` -- the receiver's byte span in a key, its packed
        new block and version, the sends as :meth:`_packed_sends` groups
        them and the tail's splice (:meth:`_splicer`), each interned.  A
        :data:`FAILED` outcome, or one holding a value too wide for its
        lane, is replayed instead (:meth:`_replay`: the plane-aware handler
        raises the :class:`LaneOverflow` at the plan's serial position)."""
        if outcome is FAILED:
            return self._replayed
        eev, block, version, sends = outcome
        lo, hi = self._spans[-1 if cid is None else cid]
        pack = self.codec.pack
        intern = self._intern
        try:
            block = pack(block)
            if version is not None:
                version = pack((version,))
            sends = self._packed_sends(sends)
        except LaneOverflow:
            return self._replayed
        splice = self._splicer(eev[0] == 1, len(sends))
        return intern((
            self._splice_handler, lo, hi, intern(block), version,
            intern(sends), splice,
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

    def _apply_spliced(self, key: bytes, plan: tuple, net: tuple) -> bytes:
        """A simple configuration's plan: the successor spliced out of the
        parent's *key* -- ``key[:lo] + block + key[hi:v] + version + tail``,
        the tail the parent's section unless the plan delivers or sends."""
        _handler, lo, hi, block, version, sends, splice = plan[2]
        if version is not None:  # a store: the version lane is spliced too
            vlo, vhi = self._version_span
            block += key[hi:vlo] + version
            hi = vhi
        if splice is None:
            return key[:lo] + block + key[hi:]
        nb = self._net_byte_offset
        tail = splice(self, key[nb:], net, plan[3], sends)
        return key[:lo] + block + key[hi:nb] + tail

    def _replay(self, key: bytes, plan: tuple, net: tuple):
        """A plan the splice does not build, applied by the plane-aware
        handler of the same event: the protocol error's text, or the
        :class:`LaneOverflow` packing its successor raises -- or, for a
        write outside the controller's block, that successor."""
        enc = self.codec.unpack(key)
        plans, general = self._enabled_general(enc, key)
        eev = plan[1]
        replayed = next(p for p in plans if p[1] == eev)
        return replayed[0](key, replayed, general)

    # -- the byte splice of a network section --------------------------------------
    #
    # A splice takes ``(section, net, where, sends)``: the parent's packed
    # network section and its parse handle, the delivered record's place --
    # the head of channel *where* when ordered, record *where* of the bag
    # when unordered, None for an access -- and the :meth:`_packed_sends`
    # groups.  It returns the successor's packed section, re-normalized
    # exactly like ``Network.deliver`` + ``Network.send`` and bit-identical
    # to :meth:`_emit_net` followed by ``pack`` (tested): a list of local
    # edits applied to the parent's section by :meth:`_edited`, the count
    # lanes that change re-packed (:meth:`_lane`: :class:`LaneOverflow`
    # above ``lane_max``).
    def _splicer(self, delivers: bool, sends: int):
        """The splice -- a function of ``(self, section, net, where,
        sends)`` -- of a plan that *delivers* (or not) and sends *sends*
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

    def _edited(self, section: bytes, count: int, edits: list) -> bytes:
        """*section* with its count lane set to *count* and each ``(lane,
        skip, replacement)`` of *edits* applied: *skip* lanes from *lane* on
        replaced by the *replacement* bytes.  The edits are sorted by
        ``(lane, skip)`` first; a stable sort, so insertions at one lane
        keep the order they were listed in."""
        edits.sort(key=_START_SKIP)
        lb = self.lane_bytes
        parts = [self._lane(count)]
        pos = lb
        for start, skip, replacement in edits:
            parts += (section[pos : start * lb], replacement)
            pos = (start + skip) * lb
        parts.append(section[pos:])
        return b"".join(parts)

    def _bag_splice(self, section: bytes, net: tuple, where, sends) -> bytes:
        """Unordered: each record inserted at its sorted place in the bag
        (*sends* are sorted, so equal places keep their order), the
        delivered one taken out."""
        items, offsets = net[0], net[1]
        edits = [(offsets[bisect_right(items, s[0])], 0, s[1]) for s in sends]
        count = len(items) + len(edits)
        if where is not None:
            edits.append((offsets[where], MESSAGE_ENCODED_WIDTH, b""))
            count -= 1
        return self._edited(section, count, edits)

    def _fifo_splice(self, section: bytes, net: tuple, where, sends) -> bytes:
        """Ordered: each channel's sends appended to it -- found by
        bisection on the sorted channel items, which a 3-field key sorts
        just below -- or framed as a new channel there, and the delivered
        channel's head taken out, with its header when that empties it and
        nothing is sent to it.  The groups come in channel order, so
        insertions at one lane are listed in the order they go in."""
        items, offsets = net[0], net[1]
        lane = self._lane
        nchan = total = len(items)
        edits: list = []
        if where is not None:
            left = len(items[where][3]) - 1
        for channel, count, packed, opened in sends:
            idx = bisect_left(items, channel)
            if idx == nchan or items[idx][:3] != channel:
                edits.append((offsets[idx], 0, opened))
                total += 1
                continue
            edits.append((offsets[idx + 1], 0, packed))
            if idx == where:
                left += count  # re-opened in place when the delivery empties it
            else:
                edits.append((offsets[idx] + 3, 1, lane(len(items[idx][3]) + count)))
        if where is not None:
            at = offsets[where]
            if left:
                edits += ((at + 3, 1, lane(left)), (at + 4, MESSAGE_ENCODED_WIDTH, b""))
            else:
                edits.append((at, 4 + MESSAGE_ENCODED_WIDTH, b""))
                total -= 1
        return self._edited(section, total, edits)

    # -- general (plane-aware) apply handlers -------------------------------------
    def _emit_net_plane(self, out, enc, planes, addr, where, sends, pos=0):
        """Emit the successor's network sections: earlier planes verbatim,
        plane *addr* through :meth:`_emit_net`, later planes verbatim."""
        plane = planes[addr]
        start = plane[3]
        end = start + plane[1][-1]
        out.extend(enc[self.net_offset : start])
        self._emit_net(out, enc, plane, where, sends, start, end, pos)
        out.extend(enc[end:])

    def _apply_access_plan_general(self, key: bytes, plan: tuple, net: tuple):
        enc, planes = net
        addr = plan[5]
        cid = plan[2]
        ai = plan[1][2]
        ct = plan[3]
        fn = plan[4]
        plane = addr * self.plane_stride
        out = list(enc[: self.net_offset])
        base = plane + cid * CACHE_ENCODED_WIDTH
        out[base + CF_ISSUED] += 1
        out[base + CF_PENDING] = ai + 1
        sends: list = []
        vo = plane + self.version_offset
        if fn is not None and (err := fn(out, base, cid, None, ai, sends, vo)):
            return self._error(err, ct, None, cid, out, base, vo)
        out[base + CF_STATE] = ct.next_state
        if ct.has_perform:
            out[base + CF_PENDING] = 0
        self._emit_net_plane(out, enc, planes, addr, None, sends)
        return self.codec.pack(out)

    def _apply_delivery_plan_general(self, key: bytes, plan: tuple, net: tuple):
        enc, planes = net
        ct = plan[3]
        rec = plan[2]
        addr = plan[6]
        plane = addr * self.plane_stride
        if ct is None or ct is AMBIGUOUS:
            return self._undeliverable(enc, rec, ct, plane)
        where = plan[4]
        out = list(enc[: self.net_offset])
        sends: list = []
        if rec[2] == 1:  # directory delivery
            d0 = plane + self.dir_offset
            if err := self._dir_fns[id(ct)](
                out, rec, sends, d0, d0 + 2 + self.num_caches
            ):
                return self._error(err, ct, rec)
        else:
            cid = rec[2] - 2
            base = plane + cid * CACHE_ENCODED_WIDTH
            pending = out[base + CF_PENDING]
            ai = pending - 1 if pending else None
            fn = plan[5]
            vo = plane + self.version_offset
            if fn is not None and (err := fn(out, base, cid, rec, ai, sends, vo)):
                return self._error(err, ct, rec, cid, out, base, vo)
            out[base + CF_STATE] = ct.next_state
            if ct.has_perform:
                out[base + CF_PENDING] = 0
        self._emit_net_plane(out, enc, planes, addr, where, sends, plan[7])
        return self.codec.pack(out)

    def _apply_duplicate_plan(self, key: bytes, plan: tuple, net: tuple):
        """Decode-free duplication: splice an extra copy of the duplicated
        record into its section (behind the head for ordered channels,
        adjacent to its twin in the sorted unordered bag)."""
        enc, planes = net
        addr, where = plan[2], plan[3]
        _items, offsets, _deliveries, start = planes[addr]
        end = start + offsets[-1]
        mw = MESSAGE_ENCODED_WIDTH
        out = list(enc[: self.net_offset])
        out[self.fault_offset] += 1
        out.extend(enc[self.net_offset : start])
        if self.ordered:
            at = start + offsets[where]  # channel header
            out.extend(enc[start : at + 3])
            out.append(enc[at + 3] + 1)
            out.extend(enc[at + 4 : at + 4 + mw])  # the head, again
            out.extend(enc[at + 4 : end])
        else:
            at = start + offsets[where]  # the record itself
            out.append(enc[start] + 1)
            out.extend(enc[start + 1 : at])
            out.extend(enc[at : at + mw])  # the copy, kept adjacent (sorted)
            out.extend(enc[at : end])
        out.extend(enc[end:])
        return self.codec.pack(out)

    def _apply_reorder_plan(self, key: bytes, plan: tuple, net: tuple):
        """Decode-free reorder: swap two adjacent message records in place."""
        enc, planes = net
        addr, chan, pos = plan[2], plan[3], plan[4]
        offsets, start = planes[addr][1], planes[addr][3]
        mw = MESSAGE_ENCODED_WIDTH
        out = list(enc[: self.net_offset])
        out[self.fault_offset] += 1
        first = start + offsets[chan] + 4 + pos * mw
        out.extend(enc[self.net_offset : first])
        out.extend(enc[first + mw : first + 2 * mw])
        out.extend(enc[first : first + mw])
        out.extend(enc[first + 2 * mw :])
        return self.codec.pack(out)

    def _compile_cache_fn(self, ct):
        """Generate one cache transition's function from its actions.

        Every action's constants (message type, vnet, destination kind, slot
        numbers, lane offsets) are burned into straight-line source, run once
        per distinct text (:func:`_compiled`).  ``fn(out, base, cid, rec, ai,
        sends)`` executes the transition on the encoded cache block: it
        mutates the block in place, appends encoded send records and returns
        None, or at the first action that fails -- missing data or
        requestor, a load or store the data-value checks refuse, an action
        or a destination a cache cannot execute -- returns that site's error
        code (see :data:`_ACTION_STRIDE`), leaving the lanes as the earlier
        actions wrote them.  Returns ``None`` instead of a function for an
        empty action list (callers skip the call entirely).
        """
        if not ct.actions:
            return None
        # Plane-0 version offset as a default arg: single-plane callers omit
        # it, multi-address callers pass their plane's absolute offset.
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
        """Directory twin of :meth:`_compile_cache_fn`.

        ``fn(out, rec, sends)`` runs the whole directory-side mutation for
        one transition: lane offsets, destination kinds and data/ack flags
        are burned in at generation time, the owner local and the sharer set
        are materialized only when some action actually reads or writes
        them, and the sorted sharer-run writeback happens only for
        transitions that touch the set.  Returns None, or the first failing
        action's error code: missing data, requestor or owner, or an action
        or a destination the directory cannot execute.
        """
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
        # Plane-0 lanes as default args: single-plane callers omit them,
        # multi-address callers pass their plane's absolute offsets.
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

    def _emit_net(
        self, out: list, enc: tuple, net: tuple, where: int | None, sends: list,
        no: int, end: int, pos: int = 0,
    ) -> None:
        """Append the successor network section: the parent's section minus
        the delivered message (record *pos* of channel *where* when ordered
        -- non-zero only under fault-mode re-queue bypass -- or record index
        *where* when unordered) plus *sends*, re-normalized exactly like
        ``Network.deliver`` + ``Network.send``: the plane-aware fork's
        network step.

        The parent section is already normalized (channels sorted, FIFO
        order inside each), so the successor section is a sorted merge with
        at most a couple of touched channels, built from *enc* slices: a
        transition with no sends and no delivery copies the section
        verbatim, a pure absorption splices out one message record (and its
        channel header, if emptied), and sends rebuild only the channels
        they touch -- every untouched channel is one slice copy through the
        per-section channel offsets of *net* (the codec's parse handle).
        *no*/*end* bound the section's lanes in *enc* (one plane's section
        -- *net*'s offsets are relative to *no*).  A single send takes the
        same merge: a one-send specialization measured no faster on bench
        ``matrix-2c``, the one workload that runs this path.
        """
        if not sends and where is None:
            out.extend(enc[no:end])
            return
        items, offsets = net[0], net[1]
        mw = MESSAGE_ENCODED_WIDTH
        if not self.ordered:
            if not sends:
                at = no + 1 + where * mw
                out.append(enc[no] - 1)
                out.extend(enc[no + 1 : at])
                out.extend(enc[at + mw : end])
                return
            msgs = [m for i, m in enumerate(items) if i != where]
            msgs.extend(sends)
            msgs.sort()
            out.append(len(msgs))
            for m in msgs:
                out.extend(m)
            return
        if not sends:
            # Drop record `pos` of channel `where` by lane splicing alone.
            at = no + offsets[where]
            nmsgs = enc[at + 3]
            if nmsgs == 1:
                out.append(enc[no] - 1)
                out.extend(enc[no + 1 : at])
                out.extend(enc[at + 4 + mw : end])
                return
            rec0 = at + 4 + pos * mw
            out.append(enc[no])
            out.extend(enc[no + 1 : at + 3])
            out.append(nmsgs - 1)
            out.extend(enc[at + 4 : rec0])
            out.extend(enc[rec0 + mw : end])
            return
        send_map: dict = {}
        for m in sends:
            key = (m[1], m[2], m[3])
            queue = send_map.get(key)
            if queue is None:
                send_map[key] = [m]
            else:
                queue.append(m)
        emptied = where is not None and len(items[where][3]) == 1
        pending = []
        for key in send_map:
            for idx, item in enumerate(items):
                if (
                    item[0] == key[0]
                    and item[1] == key[1]
                    and item[2] == key[2]
                    and not (emptied and idx == where)
                ):
                    break
            else:
                pending.append(key)
        pending.sort()
        flush_at = len(pending)
        out.append(len(items) - (1 if emptied else 0) + flush_at)
        flushed = 0
        for idx, item in enumerate(items):
            if flushed < flush_at:
                key = item[:3]
                while flushed < flush_at and pending[flushed] < key:
                    fresh = pending[flushed]
                    queue = send_map[fresh]
                    out.extend(fresh)
                    out.append(len(queue))
                    for m in queue:
                        out.extend(m)
                    flushed += 1
            if idx == where and emptied:
                # Removed; if a send re-opens this key the merge above (or
                # the tail flush) emits it at the same sorted position.
                continue
            extra = send_map.get(item[:3])
            if extra is None:
                if idx != where:
                    out.extend(enc[no + offsets[idx] : no + offsets[idx + 1]])
                    continue
                msgs = item[3][:pos] + item[3][pos + 1 :]
            elif idx == where:
                msgs = item[3][:pos] + item[3][pos + 1 :] + tuple(extra)
            else:
                msgs = item[3] + tuple(extra)
            out.extend((item[0], item[1], item[2], len(msgs)))
            for m in msgs:
                out.extend(m)
        while flushed < flush_at:
            fresh = pending[flushed]
            queue = send_map[fresh]
            out.extend(fresh)
            out.append(len(queue))
            for m in queue:
                out.extend(m)
            flushed += 1

    # -- predicates and invariants --------------------------------------------------
    def is_quiescent(self, enc: tuple) -> bool:
        """Encoded mirror of :meth:`repro.system.System.is_quiescent`."""
        stable = self.spec.cache.stable
        width = CACHE_ENCODED_WIDTH
        if self.num_addresses == 1:
            if enc[self.net_offset] != 0:
                return False
            if not self.spec.directory.stable[enc[self.dir_offset]]:
                return False
            return all(stable[enc[cid * width]] for cid in range(self.num_caches))
        # All sections empty <=> the suffix is exactly one zero count lane
        # per plane (a non-empty section is always longer than one lane).
        num_addresses = self.num_addresses
        if len(enc) != self.net_offset + num_addresses:
            return False
        stride = self.plane_stride
        dir_stable = self.spec.directory.stable
        for addr in range(num_addresses):
            plane = addr * stride
            if not dir_stable[enc[plane + self.dir_offset]]:
                return False
            if not all(
                stable[enc[plane + cid * width]] for cid in range(self.num_caches)
            ):
                return False
        return True

    def workload_remaining(self, enc: tuple) -> bool:
        """True when some cache still has accesses left in its budget."""
        width = CACHE_ENCODED_WIDTH
        if self._litmus_ops is not None:
            stride = self.plane_stride
            num_addresses = self.num_addresses
            return any(
                sum(
                    enc[a * stride + cid * width + CF_ISSUED]
                    for a in range(num_addresses)
                )
                < len(self._litmus_ops[cid])
                for cid in range(self.num_caches)
            )
        max_accesses = self.max_accesses
        stride = self.plane_stride
        return any(
            enc[addr * stride + cid * width + CF_ISSUED] < max_accesses
            for addr in range(self.num_addresses)
            for cid in range(self.num_caches)
        )

    def is_complete(self, enc: tuple) -> bool:
        """Encoded mirror of :meth:`repro.system.System.is_complete`."""
        return self.is_quiescent(enc) and not self.workload_remaining(enc)

    def check(self, enc: tuple, codes: tuple) -> bool:
        """Evaluate the compiled invariants named by *codes*; True = all hold.

        On a False return the caller decodes the state and re-runs the object
        invariants to build the exact violation report -- verdicts are a
        function of the state alone, so the slow path reproduces them.  The
        default pair (SWMR + single-owner) runs as one fused pass over the
        cache state lanes.  SWMR and single-owner are per-address properties:
        with several planes each plane is checked independently.  A litmus
        invariant arrives as the tuple code ``("litmus", clauses)`` with each
        clause a tuple of ``(cache_id, addr, version)`` observations, and
        fires only on complete states where some clause matches in full.
        :data:`INV_DECODED` always reads False.
        """
        permission = self.spec.cache.permission
        stable = self.spec.cache.stable
        width = CACHE_ENCODED_WIDTH
        n = self.num_caches
        stride = self.plane_stride
        if codes == _DEFAULT_CODES:
            for addr in range(self.num_addresses):
                plane = addr * stride
                writers = readers = stable_writers = 0
                for cid in range(n):
                    si = enc[plane + cid * width]
                    p = permission[si]
                    if p == 2:
                        writers += 1
                        if stable[si]:
                            stable_writers += 1
                    elif p == 1:
                        readers += 1
                if writers > 1 or (writers and readers) or stable_writers > 1:
                    return False
            return True
        complete = None  # lazily evaluated, shared across litmus codes
        for code in codes:
            if code == INV_DECODED:
                return False
            if code == INV_SWMR:
                for addr in range(self.num_addresses):
                    plane = addr * stride
                    writers = readers = 0
                    for cid in range(n):
                        p = permission[enc[plane + cid * width]]
                        if p == 2:
                            writers += 1
                        elif p == 1:
                            readers += 1
                    if writers > 1 or (writers and readers):
                        return False
            elif code == INV_SINGLE_OWNER:
                for addr in range(self.num_addresses):
                    plane = addr * stride
                    stable_writers = 0
                    for cid in range(n):
                        si = enc[plane + cid * width]
                        if stable[si] and permission[si] == 2:
                            stable_writers += 1
                    if stable_writers > 1:
                        return False
            else:  # ("litmus", clauses)
                if complete is None:
                    complete = self.is_complete(enc)
                if not complete:
                    continue
                for clause in code[1]:
                    if all(
                        enc[a * stride + c * width + CF_LAST_OBSERVED] == v + 1
                        for c, a, v in clause
                    ):
                        return False
        return True


__all__ = [
    "TransitionKernel",
    "AMBIGUOUS",
    "INV_SWMR",
    "INV_SINGLE_OWNER",
    "INV_DECODED",
    "DEFAULT_CODES",
]
