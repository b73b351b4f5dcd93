"""Regression: the MOSI owner-recall race (deferred ``Data -> Dir`` requestor).

A cache whose GetM was serialized but not yet answered can be redirected by
a later ``Fwd_GetS`` (it will serve the reader and demote toward O) and then
by an ``O_Fwd_GetM`` (it will return the data to the directory and fall to
I).  Those deferred responses execute when the cache's *own* transaction
completes -- at which point the completing message's requestor is the cache
itself, not the cache the ``O_Fwd_GetM`` recalled the block for.  The
directory then answered the wrong cache: its ``Data (acks=...)`` went back
to the redirected cache, which had meanwhile settled in stable ``I`` -- the
latent hole ``TestFourCacheTier`` used to pin as ``EXPECTED_OK["MOSI"] =
False``.

Deferred directory-destined responses now bank the redirect requestor in a
saved slot (``Send.requestor_from_slot``, honored by the kernel and the reference system) whenever
the directory actually reads the requestor of that message type.  These
tests pin the generated structure, drive the exact four-cache scenario by
hand, and run the previously-failing tier exhaustively.
"""

import pytest

from repro import protocols
from repro.core import GenerationConfig, generate
from repro.dsl.types import AccessKind, Dest, Send
from repro.system import DIRECTORY_ID, System, Workload
from repro.system.system import DeliverMessage, IssueAccess
from repro.verification import verify

from reference_system import ReferenceSystem, deliverable, in_flight


@pytest.fixture(scope="module")
def mosi_protocol():
    return generate(protocols.load("MOSI"), GenerationConfig.nonstalling())


def test_deferred_directory_responses_carry_the_saved_requestor(mosi_protocol):
    """The generated FSM stamps deferred Data->Dir sends with the slot that
    banks the redirecting forward's requestor."""
    stamped = [
        (transition.state, action)
        for transition in mosi_protocol.cache.transitions()
        for action in transition.actions
        if isinstance(action, Send) and action.requestor_from_slot is not None
    ]
    assert stamped, "no deferred directory-destined send was stamped"
    for state, action in stamped:
        assert action.to is Dest.DIRECTORY
        assert action.message == "Data"


def _deliver(system, state, mtype, dst, src=None):
    matches = [
        m
        for m in deliverable(state.network)
        if m.mtype == mtype and m.dst == dst and (src is None or m.src == src)
    ]
    assert len(matches) == 1, (
        f"expected exactly one deliverable {mtype} -> {dst}, "
        f"in flight: {[str(m) for m in in_flight(state.network)]}"
    )
    outcome = system.apply(state, DeliverMessage(message=matches[0]))
    assert outcome.error is None, outcome.error
    return outcome.state


def test_recall_data_reaches_the_recalling_requestor(mosi_protocol):
    """Drive the exact counterexample scenario; the recall must answer C1."""
    system = ReferenceSystem(
        mosi_protocol,
        num_caches=4,
        workload=Workload(max_accesses_per_cache=1,
                          access_kinds=(AccessKind.LOAD, AccessKind.STORE)),
    )
    state = system.initial_state()
    for cache_id, access in [
        (0, AccessKind.LOAD),
        (1, AccessKind.STORE),
        (2, AccessKind.STORE),
        (3, AccessKind.STORE),
    ]:
        outcome = system.apply(state, IssueAccess(cache_id=cache_id, access=access))
        assert outcome.error is None
        state = outcome.state

    state = _deliver(system, state, "GetM", DIRECTORY_ID, src=3)  # C3 -> M
    state = _deliver(system, state, "Data", 3)                     # C3 stores v1
    state = _deliver(system, state, "GetM", DIRECTORY_ID, src=2)  # Fwd_GetM -> C3
    state = _deliver(system, state, "GetS", DIRECTORY_ID, src=0)  # Fwd_GetS -> C2
    state = _deliver(system, state, "GetM", DIRECTORY_ID, src=1)  # O_Fwd_GetM -> C2
    state = _deliver(system, state, "Fwd_GetS", 2)     # redirect 1: saves C0
    state = _deliver(system, state, "O_Fwd_GetM", 2)   # redirect 2: saves C1
    state = _deliver(system, state, "Fwd_GetM", 3)     # C3 serves Data -> C2
    state = _deliver(system, state, "Data", 2, src=3)  # C2 completes, defers fire

    [recall] = [
        m for m in in_flight(state.network)
        if m.mtype == "Data" and m.dst == DIRECTORY_ID
    ]
    assert recall.requestor == 1, (
        f"recalled Data must be on behalf of the recalling requestor C1, "
        f"got {recall}"
    )

    state = _deliver(system, state, "Data", DIRECTORY_ID, src=2)
    directory_answers = [
        m for m in in_flight(state.network)
        if m.mtype == "Data" and m.src == DIRECTORY_ID
    ]
    assert [m.dst for m in directory_answers] == [1], (
        "the directory must answer the recalling requestor C1 "
        f"(got {[str(m) for m in directory_answers]})"
    )

    # Drain the remaining messages in a fixed order; the run must complete
    # without protocol errors and reach global quiescence.
    for _ in range(64):
        heads = deliverable(state.network)
        if not heads:
            break
        outcome = system.apply(state, DeliverMessage(message=heads[0]))
        assert outcome.error is None, outcome.error
        state = outcome.state
    assert system.is_complete(state)


def test_previously_failing_tier_verifies_clean(mosi_protocol):
    """The 4-cache x 1-access LOAD/STORE tier that pinned the hole passes."""
    system = System(
        mosi_protocol,
        num_caches=4,
        workload=Workload(max_accesses_per_cache=1,
                          access_kinds=(AccessKind.LOAD, AccessKind.STORE)),
    )
    result = verify(system, symmetry=True)
    assert result.ok, result.summary
    assert not result.truncated
