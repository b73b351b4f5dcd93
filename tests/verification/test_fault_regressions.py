"""Regression: the first counterexamples the fault-injection axes found.

Both traces are verbatim model-checker counterexamples from the first
fault-augmented searches of the bundled MSI protocol -- measured against
**un-hardened** builds (``GenerationConfig(harden=False)``), the generation
mode PR 6 shipped.  They are replayed step by step through the tests'
reference system (``reference_system``) so the original bug evidence
survives the hardening fix:

* **Duplicated response** (nonstalling MSI): the directory's ``Data``
  response to a ``GetS`` is duplicated in flight.  The first copy completes
  the load (``IS_D -> S``); the second copy reaches stable ``S``, which has
  no handler for an unsolicited response -- the exactly-once delivery
  assumption surfacing as an unexpected-message protocol error.
* **Reordered forward** (stalling MSI): C1's store is serialized first, then
  C0's load forces the directory to forward ``Fwd_GetS`` to the new owner --
  into the same Dir->C1 ordered channel that still carries C1's ``Data``.
  Swapping the two delivers the forward while C1 is still in ``IM_AD``; the
  stalling configuration stalls it, the ``Data`` it needs is queued *behind*
  the stalled message, and the system head-of-line deadlocks.

The hardened replays at the bottom run the *same traces* against the default
``harden=True`` builds: the duplicate is silently absorbed in stable ``S``,
the reordered head is re-queued instead of blocking, and both searches PASS.
"""

import pytest

from repro.core import GenerationConfig, generate
from repro.dsl.types import AccessKind
from repro.system import System, Workload
from repro.system.message import Message
from repro.system.system import (
    DeliverMessage,
    DuplicateMessage,
    FaultModel,
    IssueAccess,
    ReorderMessage,
)
from repro.verification import verify

from reference_system import in_flight, reference


#: Nonstalling MSI, 2 caches x 1 access, FaultModel(duplicate=True): C0's
#: load, the directory's response duplicated, both copies delivered.
DUPLICATED_DATA_TRACE = [
    IssueAccess(cache_id=0, access=AccessKind.LOAD),
    DeliverMessage(Message(mtype="GetS", src=0, dst=-1, requestor=0, vnet=0)),
    DuplicateMessage(Message(mtype="Data", src=-1, dst=0, requestor=0,
                             data=0, vnet=1)),
    DeliverMessage(Message(mtype="Data", src=-1, dst=0, requestor=0,
                           data=0, vnet=1)),
]

#: The failing final step: the second (duplicated) copy hits stable S.
DUPLICATED_DATA_FINAL = DeliverMessage(
    Message(mtype="Data", src=-1, dst=0, requestor=0, data=0, vnet=1)
)

#: Stalling MSI, 2 caches x 2 accesses, FaultModel(reorder=True): C1's store
#: serialized first, C0's load forwarded to the new owner, and the Dir->C1
#: channel's (Data, Fwd_GetS) pair swapped.
REORDERED_FORWARD_TRACE = [
    IssueAccess(cache_id=0, access=AccessKind.LOAD),
    IssueAccess(cache_id=1, access=AccessKind.STORE),
    DeliverMessage(Message(mtype="GetM", src=1, dst=-1, requestor=1, vnet=0)),
    DeliverMessage(Message(mtype="GetS", src=0, dst=-1, requestor=0, vnet=0)),
    ReorderMessage(src=-1, dst=1, vnet=1, position=0),
]


@pytest.fixture(scope="module")
def bare_msi_nonstalling(msi_spec):
    return generate(msi_spec, GenerationConfig.nonstalling(harden=False))


@pytest.fixture(scope="module")
def bare_msi_stalling(msi_spec):
    return generate(msi_spec, GenerationConfig.stalling(harden=False))


@pytest.fixture(scope="module")
def duplication_system(bare_msi_nonstalling):
    return System(bare_msi_nonstalling, num_caches=2,
                  workload=Workload(max_accesses_per_cache=1),
                  faults=FaultModel(duplicate=True))


@pytest.fixture(scope="module")
def reorder_system(bare_msi_stalling):
    # requeue=False restores PR 6's strict head-of-line blocking, the
    # semantics under which this counterexample deadlocked.
    return System(bare_msi_stalling, num_caches=2,
                  workload=Workload(max_accesses_per_cache=2),
                  faults=FaultModel(reorder=True, requeue=False))


@pytest.fixture(scope="module")
def duplication_replay(duplication_system):
    return reference(duplication_system)


@pytest.fixture(scope="module")
def reorder_replay(reorder_system):
    return reference(reorder_system)


@pytest.fixture(scope="module")
def hardened_duplication_system(msi_nonstalling):
    return System(msi_nonstalling, num_caches=2,
                  workload=Workload(max_accesses_per_cache=1),
                  faults=FaultModel(duplicate=True))


@pytest.fixture(scope="module")
def hardened_reorder_system(msi_stalling):
    return System(msi_stalling, num_caches=2,
                  workload=Workload(max_accesses_per_cache=2),
                  faults=FaultModel(reorder=True))


class TestDuplicatedDataCounterexampleReplay:
    def test_prefix_applies_without_error(self, duplication_replay):
        state = duplication_replay.initial_state()
        for event in DUPLICATED_DATA_TRACE:
            outcome = duplication_replay.apply(state, event)
            assert outcome.error is None, f"{event}: {outcome.error}"
            state = outcome.state

    def test_duplicate_leaves_two_copies_and_burns_the_budget(
        self, duplication_replay
    ):
        state = duplication_replay.initial_state()
        for event in DUPLICATED_DATA_TRACE[:3]:
            state = duplication_replay.apply(state, event).state
        assert state.faults_used == 1
        copies = [m for m in in_flight(state.network) if m.mtype == "Data"]
        assert len(copies) == 2 and copies[0] == copies[1]
        # The budget is spent: no further fault events are offered.
        assert not any(
            isinstance(e, DuplicateMessage)
            for e in duplication_replay.enabled_events(state)
        )

    def test_second_copy_is_an_unexpected_message_in_stable_s(
        self, duplication_replay
    ):
        state = duplication_replay.initial_state()
        for event in DUPLICATED_DATA_TRACE:
            state = duplication_replay.apply(state, event).state
        assert state.caches[0].fsm_state == "S"
        final = duplication_replay.apply(state, DUPLICATED_DATA_FINAL)
        assert final.error is not None
        assert "cannot handle message" in final.error

    def test_search_still_finds_this_class(self, duplication_system):
        result = verify(duplication_system)
        assert not result.ok
        assert result.error is not None and "cannot handle message" in result.error


class TestReorderedForwardCounterexampleReplay:
    def test_trace_applies_without_error(self, reorder_replay):
        state = reorder_replay.initial_state()
        for event in REORDERED_FORWARD_TRACE:
            outcome = reorder_replay.apply(state, event)
            assert outcome.error is None, f"{event}: {outcome.error}"
            state = outcome.state

    def test_swap_puts_the_forward_ahead_of_the_data(self, reorder_replay):
        state = reorder_replay.initial_state()
        for event in REORDERED_FORWARD_TRACE[:-1]:
            state = reorder_replay.apply(state, event).state
        channel = dict(state.network.channels)[(-1, 1, 1)]
        assert [m.mtype for m in channel] == ["Data", "Fwd_GetS"]
        state = reorder_replay.apply(state, REORDERED_FORWARD_TRACE[-1]).state
        channel = dict(state.network.channels)[(-1, 1, 1)]
        assert [m.mtype for m in channel] == ["Fwd_GetS", "Data"]
        assert state.faults_used == 1

    def test_reordered_state_is_a_head_of_line_deadlock(self, reorder_replay):
        """C1 (IM_AD) stalls the forward, the Data it needs is stuck behind
        it, and no other event is enabled: a genuine deadlock state."""
        state = reorder_replay.initial_state()
        for event in REORDERED_FORWARD_TRACE:
            state = reorder_replay.apply(state, event).state
        assert state.caches[1].fsm_state == "IM_AD"
        assert state.caches[0].fsm_state == "IS_D"
        assert not reorder_replay.is_quiescent(state)
        assert reorder_replay.enabled_events(state) == []

    def test_search_reports_the_deadlock(self, reorder_system):
        result = verify(reorder_system)
        assert not result.ok and result.deadlock
        assert any(line.startswith("reorder") for line in result.trace)


class TestHardenedDuplicationReplay:
    """The same counterexample trace against the default hardened build."""

    def test_second_copy_is_silently_absorbed_in_stable_s(
        self, hardened_duplication_system
    ):
        system = reference(hardened_duplication_system)
        state = system.initial_state()
        for event in DUPLICATED_DATA_TRACE:
            outcome = system.apply(state, event)
            assert outcome.error is None, f"{event}: {outcome.error}"
            state = outcome.state
        assert state.caches[0].fsm_state == "S"
        final = system.apply(state, DUPLICATED_DATA_FINAL)
        assert final.error is None
        # Idempotent no-op: the duplicate changes nothing observable.
        assert final.state.caches[0].fsm_state == "S"
        assert final.state.caches == state.caches

    def test_search_passes(self, hardened_duplication_system):
        result = verify(hardened_duplication_system)
        assert result.ok, result.summary


class TestHardenedReorderReplay:
    """The same reordered-forward trace against the default hardened build."""

    def test_reordered_state_is_no_longer_stuck(self, hardened_reorder_system):
        system = reference(hardened_reorder_system)
        state = system.initial_state()
        for event in REORDERED_FORWARD_TRACE:
            outcome = system.apply(state, event)
            assert outcome.error is None, f"{event}: {outcome.error}"
            state = outcome.state
        assert state.caches[1].fsm_state == "IM_AD"
        # Re-queue semantics: the stalled head rotates behind the Data it
        # chases instead of head-of-line blocking the channel.
        assert system.enabled_events(state) != []

    def test_search_passes(self, hardened_reorder_system):
        result = verify(hardened_reorder_system)
        assert result.ok and not result.deadlock, result.summary


#: ``(policy, fault axis, accesses) -> (BFS, DFS)`` states explored up to
#: the first failure, on the benchmark's four expected-FAIL ``matrix-2c``
#: cells (``bare-dup`` / ``bare-reorder-strict`` x stalling / nonstalling).
FIRST_FAILURE_STATES = {
    ("stalling", "duplicate", 1): (65, 7),
    ("stalling", "reorder-strict", 2): (71, 46),
    ("nonstalling", "duplicate", 1): (65, 7),
    ("nonstalling", "reorder-strict", 2): (442, 46),
}


@pytest.mark.parametrize("cell", FIRST_FAILURE_STATES,
                         ids=lambda cell: f"{cell[1]}-{cell[0]}")
def test_depth_first_reaches_a_failure_in_fewer_states(
        bare_msi_stalling, bare_msi_nonstalling, cell):
    """What ``strategy="dfs"`` is measured to win: on every expected-FAIL
    cell it stops at a counterexample after fewer explored states than BFS
    (a count, not a clock).  The failure kind is not compared: on the
    stalling reorder cell BFS meets the deadlock first, DFS an error."""
    policy, axis, accesses = cell
    protocol = bare_msi_stalling if policy == "stalling" else bare_msi_nonstalling
    faults = (
        FaultModel(duplicate=True) if axis == "duplicate"
        else FaultModel(reorder=True, requeue=False)
    )
    system = System(protocol, num_caches=2,
                    workload=Workload(max_accesses_per_cache=accesses),
                    faults=faults)
    bfs, dfs = (verify(system, strategy=strategy) for strategy in ("bfs", "dfs"))
    assert not bfs.ok and not dfs.ok
    assert (bfs.states_explored, dfs.states_explored) == FIRST_FAILURE_STATES[cell]
