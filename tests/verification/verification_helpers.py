"""Shared helpers for the verification-layer tests: protocol mutants,
random reachable-state sampling (hand-rolled, deterministic generators) and
the **reference oracles** the engine is checked against -- the object-level
reference system (``reference_system``: what an event does, per state;
:func:`assert_expansion_parity` holds the kernel to it), the definition of
symmetry canonicalization executed as written (:func:`reference_canonicalize`)
and a plain breadth-first search built on both (:func:`reference_search`),
which is also the verdict oracle.  None of them touches the codec, the
store, a kernel or the engine's canonicalizer.  Beside them sit the codec
helpers only tests need (:func:`encode_packed`, :func:`decode_packed`,
:func:`encode_event`, and :func:`message_record`, the record layout
restated): a search never encodes, its root is ``codec.root()``.

Kept out of conftest.py on purpose: test modules import these helpers by
module name, and ``conftest`` is ambiguous once several test roots (tests/,
benchmarks/) each carry their own conftest on sys.path."""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field, replace

import pytest

from repro.core import GenerationConfig, generate
from repro.core.fsm import AccessEvent, MessageEvent, event_key
from repro.dsl.types import (
    AccessKind,
    ClearOwner,
    CopyDataFromMessage,
    Dest,
    InvalidateData,
    PerformAccess,
    Permission,
    Send,
)
from repro.system import System, Workload
from repro.system.codec import CF_PENDING, CF_SAVED
from repro.system.system import (
    DeliverMessage,
    DuplicateMessage,
    GlobalState,
    IssueAccess,
    ReorderMessage,
)
from repro.system.kernel import INV_DECODED
from repro.verification import InvariantViolation, single_owner_invariant, swmr_invariant
from repro.verification.engine.canonical import canonicalizer_for
from repro.verification.invariants import compiled_invariant_codes

from reference_system import ReferenceSystem, reference, relabeled, restated, sort_key


def encode_packed(codec, state: GlobalState) -> bytes:
    """*state*'s packed key (the searches never encode: their root is
    ``codec.root()``)."""
    return codec.pack(codec.encode(state))


def decode_packed(codec, key: bytes) -> GlobalState:
    return codec.decode(codec.unpack(key))


def apply_plan(key: bytes, plan: tuple, net: tuple) -> bytes | str:
    """The successor's packed key for *plan* (from ``kernel.enabled(key)``,
    which also returned *net*), or the text of the protocol error applying
    it reports (a ``str``): what the search loops call inline."""
    return plan[0](key, plan, net)


def message_record(codec, m) -> tuple:
    """The lanes of message *m*, restated: ``(mtype, src, dst, vnet)``,
    node IDs +2-shifted, then a ``(flag, value + 2)`` pair per optional
    field."""
    def pair(value):
        return (0, 0) if value is None else (1, value + 2)

    return (codec.mtypes.index(m.mtype), m.src + 2, m.dst + 2, m.vnet,
            *pair(m.requestor), *pair(m.data), *pair(m.ack_count))


def encode_event(codec, event) -> tuple:
    """Inverse of ``codec.decode_event``: the encoding plans, the store and
    traces carry, the plane appended when there are several addresses."""
    if isinstance(event, IssueAccess):
        fields = (0, event.cache_id, codec.access_kinds.index(event.access))
    elif isinstance(event, (DeliverMessage, DuplicateMessage)):
        fields = (1 if isinstance(event, DeliverMessage) else 2,
                  *message_record(codec, event.message))
    elif isinstance(event, ReorderMessage):
        fields = (3, event.src + 2, event.dst + 2, event.vnet, event.position)
    else:
        raise TypeError(f"unknown event {event!r}")
    return fields if codec.num_addresses == 1 else fields + (event.addr,)


def replay_and_check(system, result, invariants=None):
    """Replay ``result.trace_events`` from the initial state on the
    reference system and assert the reported outcome is reproduced exactly
    (a violation, name and detail, by the restatement of one of
    *invariants*, the default pair when omitted)."""
    system = reference(system)
    state = system.initial_state()
    events = result.trace_events
    assert [str(e) for e in events] == result.trace
    for step, event in enumerate(events):
        assert event in system.enabled_events(state), (
            f"replay step {step}: {event} is not enabled"
        )
        outcome = system.apply(state, event)
        if step == len(events) - 1 and result.error is not None:
            assert outcome.error == result.error
            return
        assert outcome.error is None, f"replay step {step} errored: {outcome.error}"
        state = outcome.state
    if result.error is not None:
        pytest.fail("error trace replayed without reproducing the error")
    if result.violation is not None:
        reproduced = [inv(system, state) for inv in restated(invariants)]
        assert result.violation in reproduced, (
            f"violation {result.violation} not reproduced by replay: {reproduced}")
        return
    if result.deadlock:
        assert not system.enabled_events(state)
        assert not system.is_quiescent(state)
        return
    pytest.fail("failing result carried no violation/error/deadlock")


def drop_cache_handler(generated, state: str, message: str):
    """Sabotage a generated protocol: remove the cache transition(s) for
    *message* in *state*.

    The model checker reports the resulting hole as an 'unexpected message'
    protocol error (mirroring Murphi), with a counterexample trace.  Always
    pass a freshly generated protocol -- the mutation is in place, so shared
    fixtures must not be handed to it.
    """
    cache = generated.cache
    cache._transitions = [
        t
        for t in cache.transitions()
        if not (
            t.state == state
            and isinstance(t.event, MessageEvent)
            and t.event.message == message
        )
    ]
    cache._index = {}
    for t in cache._transitions:
        cache._index.setdefault((t.state, event_key(t.event)), []).append(t)
    return generated


#: Per-protocol (state, message) pairs whose dropped handler is reachable on
#: a 1-access LOAD/STORE workload: another cache's store forwards an
#: invalidation (or an ownership transfer, for TSO-CC which has no Inv) into
#: the victim.
MUTANT_DROPS = {
    "MSI": ("S", "Inv"),
    "MESI": ("S", "Inv"),
    "MOSI": ("S", "Inv"),
    "MSI-Upgrade": ("S", "Inv"),
    "MSI-Unordered": ("S", "Inv"),
    "TSO-CC": ("M", "Fwd_GetM"),
}


def rewrite_transition(generated, controller: str, state: str, event, rewrite):
    """Sabotage a generated protocol in place: *controller*'s (``"cache"`` /
    ``"directory"``) transition for *event* in *state* becomes
    ``rewrite(transition)``, in the same candidate slot."""
    fsm = getattr(generated, controller)
    (old,) = [t for t in fsm.candidates(state, event) if t.event == event]
    fsm.replace_transition(old, rewrite(old))
    return generated


def rewrite_actions(rewrite):
    """A transition rewrite that replaces its actions by ``rewrite(actions)``."""
    return lambda transition: transition.with_actions(rewrite(transition.actions))


def _append(*extra):
    return rewrite_actions(lambda actions: actions + extra)


def _prepend(*extra):
    return rewrite_actions(lambda actions: extra + actions)


def _without(kind):
    return rewrite_actions(
        lambda actions: tuple(a for a in actions if not isinstance(a, kind))
    )


def _sends(**fields):
    """Every ``Send`` of the transition with *fields* replaced."""
    return rewrite_actions(lambda actions: tuple(
        replace(a, **fields) if isinstance(a, Send) else a for a in actions
    ))


def _guard(guard):
    return lambda transition: replace(
        transition, event=replace(transition.event, guard=guard)
    )


LOAD, STORE = AccessEvent(AccessKind.LOAD), AccessEvent(AccessKind.STORE)

#: MSI stalling mutants, one per protocol error the kernel reports: ``(caches,
#: accesses per cache, controller, state, event, rewrite of that transition,
#: the reference's error)``.  Not here: a directory transition short of a
#: requestor (a send to it, or ``AddRequestorToSharers``) -- every message the
#: directory receives carries one, so no table edit reaches it
#: (``test_kernel.py::test_requestorless_deliveries_fail_like_the_reference``);
#: and the unexpected message (``make_missing_inv_mutant``).
ERROR_MUTANTS = {
    # Actions or destinations the controller cannot execute.
    "cache-clears-owner": (
        2, 2, "cache", "M", LOAD, _append(ClearOwner()),
        "cache 0 cannot execute action ClearOwner()",
    ),
    "directory-invalidates-data": (
        2, 1, "directory", "I", MessageEvent("GetS"), _append(InvalidateData()),
        "directory cannot execute action InvalidateData()",
    ),
    "directory-sends-to-no-owner": (
        2, 2, "directory", "I", MessageEvent("GetS"), _sends(to=Dest.OWNER),
        "directory: Data needs an owner",
    ),
    "access-sends-to-no-requestor": (
        2, 2, "cache", "I", LOAD, _sends(to=Dest.REQUESTOR),
        "cache 0: GetS needs a requestor but none is available",
    ),
    "cache-sends-to-owner": (
        2, 2, "cache", "I", LOAD, _sends(to=Dest.OWNER),
        "cache 0: unsupported destination Dest.OWNER for GetS",
    ),
    "directory-sends-to-directory": (
        2, 2, "directory", "I", MessageEvent("GetS"), _sends(to=Dest.DIRECTORY),
        "directory: unsupported destination Dest.DIRECTORY for Data",
    ),
    # Two guarded candidates match a Data with no acks outstanding.
    "ambiguous-guards": (
        2, 1, "cache", "IM_AD", MessageEvent("Data", "ack_count_nonzero"),
        _guard("acks_incomplete"),
        "ambiguous transitions for Data in state 'IM_AD': "
        "Data[ack_count_zero], Data[acks_incomplete]",
    ),
    # Data, saved requestors and the data-value checks.
    "cache-copies-from-inv": (
        2, 1, "cache", "S", MessageEvent("Inv"), _prepend(CopyDataFromMessage()),
        "cache 0 expected data in Inv Dir->C0 (req=C1)",
    ),
    "directory-copies-from-gets": (
        2, 1, "directory", "I", MessageEvent("GetS"),
        _prepend(CopyDataFromMessage()),
        "directory expected data in GetS C0->Dir (req=C0)",
    ),
    "ack-to-empty-slot": (
        2, 1, "cache", "S", MessageEvent("Inv"), _sends(requestor_slot=0),
        "cache 0: deferred response Inv_Ack has no saved requestor",
    ),
    "request-on-behalf-of-empty-slot": (
        2, 1, "cache", "I", LOAD, _sends(requestor_from_slot=0),
        "cache 0: deferred response GetS has no saved requestor to send on "
        "behalf of",
    ),
    "load-before-data": (
        2, 1, "cache", "I", LOAD, _append(PerformAccess()),
        "cache 0 performed a load without data",
    ),
    "store-before-data": (
        2, 1, "cache", "I", STORE, _append(PerformAccess()),
        "cache 0 performed a store without data",
    ),
    # Memory misses the downgraded owner's data: the next store from S
    # builds on the stale copy.
    "directory-drops-downgrade-data": (
        2, 2, "directory", "S_D", MessageEvent("Data"),
        _without(CopyDataFromMessage),
        "data-value invariant violated: cache 0 stores on top of version 0 "
        "but the latest written version is 1",
    ),
    # Memory misses the written-back data: store, evict, load reads stale.
    "directory-drops-writeback-data": (
        1, 3, "directory", "M", MessageEvent("PutM", "from_owner"),
        _without(CopyDataFromMessage),
        "cache 0 load went backwards: saw version 0 after 1 (per-location SC "
        "violation)",
    ),
}


def make_missing_inv_mutant(msi_spec):
    """Generate MSI, then drop the Invalidation handling in S."""
    return drop_cache_handler(generate(msi_spec, GenerationConfig()), "S", "Inv")


def never_fires(system, state):
    """An invariant with no encoded evaluator: the kernel never vouches for
    it, so every new state is decoded and it is called on the object."""
    return None


#: The default pair plus a predicate only a decoded state can answer.
DECODED = (swmr_invariant, single_owner_invariant, never_fires)


def make_swmr_mutant(msi_spec):
    """Generate MSI, then pretend IS_D already grants write permission."""
    generated = generate(msi_spec, GenerationConfig())
    generated.cache.state("IS_D").permission = Permission.READ_WRITE
    return generated


def make_stalled_request_mutant(msi_spec, mtype: str = "GetM"):
    """Generate stalling MSI, then make the directory stall *mtype* in every
    state: a request of that type is never taken in, so its requestor waits
    forever -- a non-quiescent deadlock, symmetric in the cache IDs.  The
    protocol-level twin of :class:`MessageDroppingSystem` (same verdict, same
    depth), expressed in the tables, so ``verify()`` can run it."""
    generated = generate(msi_spec, GenerationConfig.stalling())
    directory = generated.directory
    directory._transitions = [
        replace(t, stall=True, actions=(), next_state=t.state)
        if isinstance(t.event, MessageEvent) and t.event.message == mtype
        else t
        for t in directory.transitions()
    ]
    directory._index = {}
    for t in directory._transitions:
        directory._index.setdefault((t.state, event_key(t.event)), []).append(t)
    return generated


class MessageDroppingSystem(ReferenceSystem):
    """A system whose network silently refuses to deliver one message type.

    Dropping a request type is symmetric in the cache IDs, so it is a valid
    subject for the symmetry-reduced search; it deadlocks as soon as any
    cache waits on a response to the dropped request.  ``verify()`` refuses
    it (the compiled tables would ignore the override): it runs on
    :func:`reference_search` only.
    """

    def __init__(self, *args, dropped_mtype: str, **kwargs):
        super().__init__(*args, **kwargs)
        self.dropped_mtype = dropped_mtype

    def enabled_events(self, state):
        return [
            e
            for e in super().enabled_events(state)
            if not (
                isinstance(e, DeliverMessage) and e.message.mtype == self.dropped_mtype
            )
        ]


#: Cache states of the MSI-Unordered late-absorb redirects (the PR 2 fix):
#: their unordered network sections are the largest relabel surfaces.
LATE_ABSORB_STATES = {"IM_AD_I", "IM_AD_SI", "IM_A_I", "IM_A_SI", "SM_AD_I",
                      "SM_A_I", "IS_D_I"}


def workload_for(name: str, accesses: int = 2) -> Workload:
    """*accesses* per cache for protocol *name*: every access kind, except
    for MSI-Unordered, which has no eviction path by design."""
    if name == "MSI-Unordered":
        return Workload(max_accesses_per_cache=accesses,
                        access_kinds=(AccessKind.LOAD, AccessKind.STORE))
    return Workload(max_accesses_per_cache=accesses)


def invariants_for(name: str, litmus=None) -> tuple | None:
    """The invariants a search of protocol *name* checks -- ``None`` (the
    default pair), except for TSO-CC, which breaks SWMR in physical time by
    design (stale untracked readers) and is held to single ownership -- plus
    the outcome checker of the *litmus* test, if one is given."""
    if litmus is None:
        return (single_owner_invariant,) if name == "TSO-CC" else None
    if name == "TSO-CC":
        return (single_owner_invariant, litmus.invariant)
    return (swmr_invariant, single_owner_invariant, litmus.invariant)


def sample_reachable_states(
    system: System, *, seed: int, walks: int = 8, max_steps: int = 40
) -> list[GlobalState]:
    """Deterministic random-walk generator of reachable global states (on
    the reference system)."""
    system = reference(system)
    rng = random.Random(seed)
    states: list[GlobalState] = [system.initial_state()]
    for _ in range(walks):
        state = system.initial_state()
        for _ in range(max_steps):
            events = system.enabled_events(state)
            if not events:
                break
            outcome = system.apply(state, rng.choice(events))
            if outcome.error is not None:
                break
            state = outcome.state
            states.append(state)
    return states


def reference_walk(system, *, runs, max_steps, seed, invariants=None):
    """:func:`~repro.verification.random_walk` executed on the reference
    system: the same draws (a seeded ``rng.choice`` among the enabled
    events, in order) and the same checks.  Returns ``(ok, steps, trace,
    error, violation)``, the trace as event strings."""
    system = reference(system)
    invariants = restated(invariants)
    rng = random.Random(seed)
    steps = 0
    for _ in range(runs):
        state = system.initial_state()
        trace = []
        for _ in range(max_steps):
            events = system.enabled_events(state)
            if not events:
                if not system.is_quiescent(state):
                    return False, steps, trace, None, None
                break
            event = rng.choice(events)
            trace.append(str(event))
            steps += 1
            outcome = system.apply(state, event)
            if outcome.error is not None:
                return False, steps, trace, outcome.error, None
            state = outcome.state
            for invariant in invariants:
                violation = invariant(system, state)
                if violation is not None:
                    return False, steps, trace, None, violation
    return True, steps, [], None, None


def reference_canonicalize(state: GlobalState, perms) -> tuple[GlobalState, tuple]:
    """The definition of the canonical representative, executed literally:
    the smallest relabeling of *state*, first minimum in *perms* order.
    Returns ``(representative, witness)`` with ``representative ==
    relabeled(state, witness)``."""
    perm = min(perms, key=lambda p: sort_key(relabeled(state, p)))
    return relabeled(state, perm), perm


def production_canonicalize(system: System, state: GlobalState):
    """``(representative, witness)`` of *state* from the pipeline the
    searches run (:func:`canonicalizer_for`, on the packed key), decoded
    back to an object."""
    codec = system.codec()
    canonicalizer = canonicalizer_for(codec, system.symmetry_permutations())
    rep_key, perm = canonicalizer.canonicalize(encode_packed(codec, state))
    return decode_packed(codec, rep_key), perm


def has_saved_ids(codec, enc: tuple) -> bool:
    """True when any cache block of the encoding *enc* holds a saved
    requestor ID: the blocks a relabeling rewrites, which the
    canonicalizer translates through its block table."""
    width = codec.cache_width
    return any(
        any(enc[base + CF_SAVED : base + CF_PENDING])
        for base in range(0, codec.num_caches * width, width)
    )


@dataclass(frozen=True)
class ReferenceFailure:
    """The first failure :func:`reference_search` meets in FIFO order.

    ``kind`` is ``"error"``, ``"deadlock"`` or ``"violation"``; ``detail``
    the error text (in the frame of the state that raised it) or the
    violation's name, None for a deadlock; ``depth`` the events a BFS
    counterexample takes from the root, so a BFS ``verify()`` reports a
    trace of exactly that length."""

    kind: str
    detail: str | None
    depth: int
    #: A violation's restated verdict (not compared: frames differ).
    violation: InvariantViolation | None = field(default=None, compare=False)


def reference_search(
    system: System, symmetry: bool, invariants=(), deadlock: bool = False,
    on_state=None,
) -> tuple[int, int] | ReferenceFailure:
    """``(states, transitions)`` of *system*'s reachable space by the
    plainest search there is: a FIFO of ``GlobalState`` objects, a Python
    ``dict`` of them (to their depth) as the visited set, the reference
    system's ``enabled_events`` / ``apply`` for successors, one
    representative per orbit by :func:`reference_canonicalize` when
    *symmetry* is set, every applied transition counted.  It shares the
    ``System`` configuration and state dataclasses with the engine and
    nothing else.

    It is the verdict oracle too: the first failure in FIFO order -- a
    protocol error, a deadlock (a non-quiescent state with no enabled
    event; with *deadlock* also a quiescent one with workload left), or
    a new state failing the restatement of one of *invariants* -- is
    returned as a :class:`ReferenceFailure` instead of the counts.
    ``ReferenceSystem`` subclasses run here as written, overrides included.
    *on_state*, when given, is called with every state the search keeps."""
    system = reference(system)
    perms = system.symmetry_permutations()
    invariants = restated(invariants)

    def representative(state):
        return reference_canonicalize(state, perms)[0] if symmetry else state

    def violated(state):
        return next(filter(None, (inv(system, state) for inv in invariants)), None)

    keep = on_state or (lambda state: None)
    root = representative(system.initial_state())
    keep(root)
    if (violation := violated(root)) is not None:
        return ReferenceFailure("violation", violation.name, 0, violation)
    depth_of = {root: 0}
    frontier = deque([root])
    transitions = 0
    while frontier:
        state = frontier.popleft()
        depth = depth_of[state]
        events = system.enabled_events(state)
        if not events and (
            not system.is_quiescent(state)
            or deadlock and not system.is_complete(state)
        ):
            return ReferenceFailure("deadlock", None, depth)
        for event in events:
            transitions += 1
            outcome = system.apply(state, event)
            if outcome.error is not None:
                return ReferenceFailure("error", outcome.error, depth + 1)
            successor = representative(outcome.state)
            if successor not in depth_of:
                depth_of[successor] = depth + 1
                keep(successor)
                if (violation := violated(successor)) is not None:
                    return ReferenceFailure(
                        "violation", violation.name, depth + 1, violation)
                frontier.append(successor)
    return len(depth_of), transitions


def assert_matches_reference(result, expected):
    """*result* (a ``verify()`` result) against :func:`reference_search`'s
    *expected*: the counts on a pass; on a failure its kind, its trace
    length (the reference's depth; a DFS trace is only bounded below by
    it), a violation's name and, on an unreduced BFS (the reference's
    order), an error's text and a violation's detail."""
    if not isinstance(expected, ReferenceFailure):
        assert result.ok and not result.partial, result.summary
        assert (result.states_explored, result.transitions_explored) == expected
        return
    assert not result.ok, result.summary
    kind = (
        "error" if result.error is not None
        else "violation" if result.violation is not None
        else "deadlock" if result.deadlock
        else None
    )
    assert kind == expected.kind, (result.summary, expected)
    if result.strategy == "dfs":
        assert len(result.trace) >= expected.depth, (result.summary, expected)
    else:
        assert len(result.trace) == expected.depth, (result.summary, expected)
    in_order = result.strategy == "bfs" and not result.symmetry_reduced
    if kind == "violation":
        assert result.violation.name == expected.detail
        if in_order and expected.violation is not None:
            assert result.violation == expected.violation
    if kind == "error" and in_order:
        assert result.error == expected.detail


def assert_expansion_parity(system, state, invariants=None):
    """One-state differential check of the kernel against the reference
    system: the codec round trip, enabled events (in order), successors
    (bit-identical encodings), error texts (exact), and the quiescence,
    completion and invariant verdicts (*invariants*: the default pair when
    omitted)."""
    invariants = tuple(invariants or (swmr_invariant, single_owner_invariant))
    ref = reference(system)
    codec = system.codec()
    kernel = system.kernel()
    enc = codec.encode(state)
    assert codec.decode(enc) == state
    key = codec.pack(enc)
    events = ref.enabled_events(state)
    plans, net = kernel.enabled(key)
    assert [plan[1] for plan in plans] == [encode_event(codec, e) for e in events]
    assert kernel.is_quiescent(enc) == ref.is_quiescent(state)
    assert kernel.is_complete(enc) == ref.is_complete(state)
    codes = compiled_invariant_codes(invariants)
    expected = [inv(ref, state) for inv in restated(invariants)]
    assert kernel.check(enc, codes) == (expected == [None] * len(expected))
    for code, violation in zip(codes, expected):
        if code != INV_DECODED:
            worded = kernel.violation(enc, code)
            assert (worded and InvariantViolation(*worded)) == violation
    for event, plan in zip(events, plans):
        outcome = ref.apply(state, event)
        succ = apply_plan(key, plan, net)
        if type(succ) is str:
            assert outcome.error == succ, f"error text mismatch on {event}"
        else:
            assert outcome.error is None, (
                f"kernel applied {event} but the reference errored: "
                f"{outcome.error}"
            )
            assert succ == encode_packed(codec, outcome.state), (
                f"successor mismatch on {event}"
            )
