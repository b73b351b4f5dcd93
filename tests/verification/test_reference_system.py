"""Unit tests for the tests' reference system (``reference_system``): FSM
interpretation -- guards, sends, access semantics --, the network it steps,
and the whole-system event half, enumeration and application."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.fsm import FsmTransition, MessageEvent
from repro.dsl.types import (
    AccessKind,
    AddRequestorToSharers,
    ClearSharers,
    CopyDataFromMessage,
    Dest,
    IncrementAcksReceived,
    PerformAccess,
    ResetAckCounters,
    SaveRequestor,
    Send,
    SetAcksExpectedFromMessage,
)
from repro.system import Workload
from repro.system.message import DIRECTORY_ID, Message
from repro.system.network import OrderedNetwork, UnorderedNetwork
from repro.system.node_state import CacheNodeState, DirectoryNodeState
from repro.system.system import DeliverMessage, IssueAccess

from reference_system import (
    ProtocolRuntimeError,
    ReferenceSystem,
    _guard_satisfied,
    deliver,
    deliverable,
    duplicate,
    execute_cache_transition,
    execute_directory_transition,
    in_flight,
    message_sort_key,
    reorder,
    reorderable,
    select_transition,
    send,
)


def _transition(actions=(), next_state="X", stall=False, guard=None):
    return FsmTransition(
        state="S0", event=MessageEvent("Data", guard), actions=tuple(actions),
        next_state=next_state, stall=stall,
    )


def _msg(mtype="Data", src=0, dst=1, vnet=1, **kw):
    return Message(mtype=mtype, src=src, dst=dst, vnet=vnet, **kw)


FIFO, BAG = OrderedNetwork(), UnorderedNetwork()


class TestReferenceNetwork:
    def test_fifo_order_within_channel(self):
        net = send(FIFO, _msg("A"), _msg("B"), _msg("C"))
        assert [m.mtype for m in deliverable(net)] == ["A"]
        net = deliver(net, deliverable(net)[0])
        assert [m.mtype for m in deliverable(net)] == ["B"]

    def test_channels_are_independent(self):
        net = send(FIFO, _msg("A", src=0, dst=1), _msg("B", src=1, dst=0))
        assert {m.mtype for m in deliverable(net)} == {"A", "B"}

    def test_virtual_networks_are_independent(self):
        net = send(FIFO, _msg("GetM", vnet=0), _msg("Data", vnet=1))
        # Both are at the head of their own virtual network.
        assert {m.mtype for m in deliverable(net)} == {"GetM", "Data"}

    def test_deliver_requires_head_of_queue(self):
        net = send(FIFO, _msg("A"), _msg("B"), _msg("C"))
        with pytest.raises(ValueError, match="not at position 0"):
            deliver(net, _msg("B"))

    def test_deliver_takes_the_record_at_its_position(self):
        net = send(FIFO, _msg("A"), _msg("B"), _msg("C"))
        # Re-queue order: a record behind the head leaves, the head stays.
        assert in_flight(deliver(net, _msg("B"), 1)) == (_msg("A"), _msg("C"))

    def test_delivering_the_last_message_empties_the_network(self):
        for net in (FIFO, BAG):
            net = send(net, _msg("A"))
            assert len(in_flight(net)) == 1
            assert not in_flight(deliver(net, deliverable(net)[0]))

    def test_every_message_of_a_bag_is_deliverable(self):
        net = send(BAG, _msg("A"), _msg("B"), _msg("C"))
        assert {m.mtype for m in deliverable(net)} == {"A", "B", "C"}

    def test_equal_messages_of_a_bag_are_one_delivery(self):
        net = send(BAG, _msg("A"), _msg("A"))
        assert len(deliverable(net)) == 1 and len(in_flight(net)) == 2
        assert len(in_flight(deliver(net, _msg("A")))) == 1

    def test_deliver_unknown_message_rejected(self):
        with pytest.raises(ValueError):
            deliver(BAG, _msg("A"))
        with pytest.raises(ValueError):
            deliver(send(BAG, _msg("A")), _msg("B"))

    def test_ordered_duplicate_prepends_a_copy_at_the_head(self):
        m, n = _msg(), _msg(data=1)
        assert in_flight(duplicate(send(FIFO, m, n), m)) == (m, m, n)

    def test_ordered_duplicate_rejects_non_head_messages(self):
        m, n = _msg(), _msg(data=1)
        with pytest.raises(ValueError, match="not deliverable"):
            duplicate(send(FIFO, m, n), n)

    def test_unordered_duplicate_adds_a_copy_of_any_in_flight_message(self):
        m, n = _msg(), _msg(data=1)
        net = send(BAG, m, n)
        assert sorted(in_flight(duplicate(net, n)), key=message_sort_key) == sorted(
            (m, n, n), key=message_sort_key
        )
        with pytest.raises(ValueError, match="not deliverable"):
            duplicate(net, _msg(mtype="GetM"))

    def test_reorder_swaps_adjacent_differing_records_only(self):
        a, b = _msg(dst=0), _msg(dst=0, data=1)
        net = send(FIFO, a, a, b)
        # (a, a) at 0 is no reorder; (a, b) at 1 is.
        assert reorderable(net) == ((0, 0, 1, 1),)
        assert in_flight(reorder(net, 0, 0, 1, 1)) == (a, b, a)

    def test_ordered_reorder_rejects_out_of_range_positions(self):
        a, b = _msg(dst=0), _msg(dst=0, data=1)
        net = send(FIFO, a, a, b)
        # Position 0 holds an equal pair; 5 is past the channel.
        for position in (0, 5):
            with pytest.raises(ValueError, match="no adjacent differing pair"):
                reorder(net, 0, 0, 1, position)

    def test_a_bag_has_no_reorder_axis(self):
        net = send(BAG, _msg(), _msg(data=1))
        assert reorderable(net) == ()
        with pytest.raises(ValueError):
            reorder(net, 0, 1, 1, 0)

    _messages = st.builds(
        Message,
        mtype=st.sampled_from(["GetS", "GetM", "Data", "Inv", "Put_Ack"]),
        src=st.integers(min_value=-1, max_value=2),
        dst=st.integers(min_value=-1, max_value=2),
        requestor=st.none() | st.integers(min_value=0, max_value=2),
        data=st.none() | st.integers(min_value=0, max_value=3),
        ack_count=st.none() | st.integers(min_value=0, max_value=2),
        vnet=st.integers(min_value=0, max_value=1),
    )

    @given(st.lists(_messages, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_per_channel_fifo_is_preserved(self, messages):
        sent: dict = {}
        for message in messages:
            sent.setdefault((message.src, message.dst, message.vnet), []).append(message)
        # Drain the network, always taking a head: each channel is received
        # in send order.
        net, received = send(FIFO, *messages), {}
        while in_flight(net):
            head = deliverable(net)[0]
            received.setdefault((head.src, head.dst, head.vnet), []).append(head)
            net = deliver(net, head)
        assert received == sent

    @given(st.lists(_messages, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_a_bag_conserves_messages(self, messages):
        net, drained = send(BAG, *messages), []
        assert sorted(in_flight(net), key=message_sort_key) == sorted(
            messages, key=message_sort_key)
        while in_flight(net):
            drained.append(deliverable(net)[0])
            net = deliver(net, drained[-1])
        assert sorted(drained, key=message_sort_key) == sorted(
            messages, key=message_sort_key)


class TestGuardEvaluation:
    def _select(self, fsm_like_cache, message, cache):
        # Use select_transition indirectly through guard evaluation by building
        # a tiny FSM on the fly.
        from repro.core.fsm import ControllerFsm, FsmState, StateKind
        from repro.dsl.types import ControllerKind, Permission

        fsm = ControllerFsm("t", ControllerKind.CACHE, "S0")
        fsm.add_state(FsmState("S0", StateKind.TRANSIENT, Permission.NONE))
        fsm.add_state(FsmState("X", StateKind.STABLE, Permission.NONE))
        for t in fsm_like_cache:
            fsm.add_transition(t)
        return select_transition(fsm, "S0", MessageEvent("Data"), message=message, cache=cache)

    def test_ack_count_zero_accounts_for_early_acks(self):
        zero = _transition(next_state="X", guard="ack_count_zero")
        nonzero = _transition(next_state="S0", guard="ack_count_nonzero")
        cache = CacheNodeState(fsm_state="S0", acks_received=2)
        message = Message("Data", src=DIRECTORY_ID, dst=0, ack_count=2)
        chosen = self._select([zero, nonzero], message, cache)
        assert chosen.event.guard == "ack_count_zero"

    def test_ack_count_nonzero_when_acks_outstanding(self):
        zero = _transition(next_state="X", guard="ack_count_zero")
        nonzero = _transition(next_state="S0", guard="ack_count_nonzero")
        cache = CacheNodeState(fsm_state="S0", acks_received=0)
        message = Message("Data", src=DIRECTORY_ID, dst=0, ack_count=1)
        chosen = self._select([zero, nonzero], message, cache)
        assert chosen.event.guard == "ack_count_nonzero"

    def test_guarded_transition_preferred_over_unguarded(self):
        unguarded = _transition(next_state="S0")
        guarded = _transition(next_state="X", guard="ack_count_zero")
        cache = CacheNodeState(fsm_state="S0")
        message = Message("Data", src=DIRECTORY_ID, dst=0, ack_count=0)
        chosen = self._select([unguarded, guarded], message, cache)
        assert chosen.event.guard == "ack_count_zero"

    def test_acks_complete_requires_expected_count(self):
        complete = _transition(next_state="X", guard="acks_complete")
        incomplete = _transition(next_state="S0", guard="acks_incomplete")
        message = Message("Data", src=1, dst=0)
        waiting = CacheNodeState(fsm_state="S0", acks_expected=2, acks_received=1)
        assert self._select([complete, incomplete], message, waiting).event.guard == "acks_complete"
        early = CacheNodeState(fsm_state="S0", acks_expected=None, acks_received=1)
        assert self._select([complete, incomplete], message, early).event.guard == "acks_incomplete"

    def test_directory_owner_and_sharer_guards(self):
        directory = DirectoryNodeState(fsm_state="S0", owner=1, sharers=frozenset({2}))
        from_owner = Message("Data", src=1, dst=DIRECTORY_ID)
        from_other = Message("Data", src=2, dst=DIRECTORY_ID)
        assert _guard_satisfied(MessageEvent("Data", "from_owner"), message=from_owner,
                                cache=None, directory=directory)
        assert not _guard_satisfied(MessageEvent("Data", "from_owner"), message=from_other,
                                    cache=None, directory=directory)
        assert _guard_satisfied(MessageEvent("Data", "from_sharer"), message=from_other,
                                cache=None, directory=directory)
        assert _guard_satisfied(MessageEvent("Data", "last_sharer"), message=from_other,
                                cache=None, directory=directory)
        assert not _guard_satisfied(MessageEvent("Data", "last_sharer"), message=from_owner,
                                    cache=None, directory=directory)

    def test_unknown_guard_rejected(self):
        with pytest.raises(ProtocolRuntimeError):
            _guard_satisfied(MessageEvent("Data", "sometimes"), message=None,
                             cache=None, directory=None)


class TestCacheExecution:
    def test_stall_returns_without_changes(self):
        cache = CacheNodeState(fsm_state="S0")
        result = execute_cache_transition(
            _transition(stall=True), cache, 0, message=None, access=None, latest_version=0
        )
        assert result.stalled and result.node == cache

    def test_copy_data_and_bookkeeping(self):
        cache = CacheNodeState(fsm_state="S0")
        message = Message("Data", src=DIRECTORY_ID, dst=0, data=3, ack_count=2)
        transition = _transition(
            actions=[CopyDataFromMessage(), SetAcksExpectedFromMessage(), IncrementAcksReceived()]
        )
        result = execute_cache_transition(
            transition, cache, 0, message=message, access=None, latest_version=3
        )
        assert result.node.data == 3
        assert result.node.acks_expected == 2
        assert result.node.acks_received == 1
        assert result.node.fsm_state == "X"

    def test_reset_ack_counters_and_save_requestor(self):
        cache = CacheNodeState(fsm_state="S0", acks_expected=2, acks_received=2)
        message = Message("Fwd_GetS", src=DIRECTORY_ID, dst=0, requestor=1)
        transition = _transition(actions=[ResetAckCounters(), SaveRequestor(slot=1)])
        result = execute_cache_transition(
            transition, cache, 0, message=message, access=None, latest_version=0
        )
        assert result.node.acks_expected is None and result.node.acks_received == 0
        assert result.node.saved[1] == 1

    def test_store_increments_version_and_requires_latest(self):
        cache = CacheNodeState(fsm_state="S0", data=4)
        transition = _transition(actions=[PerformAccess()])
        ok = execute_cache_transition(
            transition, cache, 0, message=None, access=AccessKind.STORE, latest_version=4
        )
        assert ok.error is None
        assert ok.latest_version == 5 and ok.node.data == 5

        stale = execute_cache_transition(
            transition, cache, 0, message=None, access=AccessKind.STORE, latest_version=7
        )
        assert stale.error is not None and "data-value" in stale.error

    def test_load_without_data_is_an_error(self):
        cache = CacheNodeState(fsm_state="S0", data=None)
        transition = _transition(actions=[PerformAccess()])
        result = execute_cache_transition(
            transition, cache, 0, message=None, access=AccessKind.LOAD, latest_version=0
        )
        assert result.error is not None

    def test_load_monotonicity_violation_detected(self):
        cache = CacheNodeState(fsm_state="S0", data=1, last_observed=3)
        transition = _transition(actions=[PerformAccess()])
        result = execute_cache_transition(
            transition, cache, 0, message=None, access=AccessKind.LOAD, latest_version=3
        )
        assert result.error is not None and "backwards" in result.error

    def test_send_destinations(self):
        cache = CacheNodeState(fsm_state="S0", data=9, saved=(7, None, None, None))
        message = Message("Fwd_GetS", src=DIRECTORY_ID, dst=0, requestor=1)
        transition = _transition(
            actions=[
                Send("Data", Dest.REQUESTOR, with_data=True),
                Send("Data", Dest.DIRECTORY, with_data=True),
                Send("Data", Dest.REQUESTOR, with_data=True, requestor_slot=0),
            ]
        )
        result = execute_cache_transition(
            transition, cache, 0, message=message, access=None, latest_version=9
        )
        destinations = [m.dst for m in result.sends]
        assert destinations == [1, DIRECTORY_ID, 7]
        assert all(m.data == 9 for m in result.sends)

    def test_deferred_send_without_saved_requestor_is_error(self):
        cache = CacheNodeState(fsm_state="S0", data=9)
        transition = _transition(actions=[Send("Data", Dest.REQUESTOR, requestor_slot=0)])
        with pytest.raises(ProtocolRuntimeError, match="no saved requestor"):
            execute_cache_transition(
                transition, cache, 0, message=None, access=None, latest_version=9
            )


class TestDirectoryExecution:
    def test_sharer_bookkeeping_and_ack_count(self):
        directory = DirectoryNodeState(fsm_state="S0", sharers=frozenset({1, 2}), memory=5)
        message = Message("GetM", src=3, dst=DIRECTORY_ID, requestor=3)
        transition = _transition(
            actions=[
                Send("Data", Dest.REQUESTOR, with_data=True, with_ack_count=True),
                Send("Inv", Dest.SHARERS),
                AddRequestorToSharers(),
                ClearSharers(),
            ]
        )
        result = execute_directory_transition(transition, directory, message=message)
        data = [m for m in result.sends if m.mtype == "Data"][0]
        assert data.dst == 3 and data.data == 5 and data.ack_count == 2
        invs = [m for m in result.sends if m.mtype == "Inv"]
        assert sorted(m.dst for m in invs) == [1, 2]
        assert all(m.requestor == 3 for m in invs)
        assert result.node.sharers == frozenset()

    def test_inv_not_sent_to_requestor_itself(self):
        directory = DirectoryNodeState(fsm_state="S0", sharers=frozenset({1, 3}))
        message = Message("GetM", src=3, dst=DIRECTORY_ID, requestor=3)
        transition = _transition(actions=[Send("Inv", Dest.SHARERS)])
        result = execute_directory_transition(transition, directory, message=message)
        assert [m.dst for m in result.sends] == [1]

    def test_forward_to_owner_requires_owner(self):
        directory = DirectoryNodeState(fsm_state="S0", owner=None)
        message = Message("GetS", src=1, dst=DIRECTORY_ID, requestor=1)
        transition = _transition(actions=[Send("Fwd_GetS", Dest.OWNER)])
        with pytest.raises(ProtocolRuntimeError, match="needs an owner"):
            execute_directory_transition(transition, directory, message=message)

    def test_copy_data_updates_memory(self):
        directory = DirectoryNodeState(fsm_state="S0", memory=1)
        message = Message("PutM", src=1, dst=DIRECTORY_ID, requestor=1, data=4)
        transition = _transition(actions=[CopyDataFromMessage()])
        result = execute_directory_transition(transition, directory, message=message)
        assert result.node.memory == 4

    def test_missing_data_is_error(self):
        directory = DirectoryNodeState(fsm_state="S0")
        message = Message("PutM", src=1, dst=DIRECTORY_ID, requestor=1, data=None)
        transition = _transition(actions=[CopyDataFromMessage()])
        result = execute_directory_transition(transition, directory, message=message)
        assert result.error is not None

    def test_sharer_without_requestor_is_an_error(self):
        """A null cache ID has no place in the sharer set (no encoding
        represents it): the kernel and this executor both refuse it."""
        directory = DirectoryNodeState(fsm_state="S0")
        message = Message("GetS", src=1, dst=DIRECTORY_ID)
        transition = _transition(actions=[AddRequestorToSharers()])
        with pytest.raises(ProtocolRuntimeError,
                           match=r"AddRequestorToSharers\(\) needs a requestor"):
            execute_directory_transition(transition, directory, message=message)


@pytest.fixture
def system(msi_nonstalling):
    return ReferenceSystem(msi_nonstalling, num_caches=2,
                           workload=Workload(max_accesses_per_cache=2))


class TestEventEnumeration:
    def test_initial_events_are_loads_and_stores(self, system):
        events = system.enabled_events(system.initial_state())
        accesses = {(e.cache_id, e.access) for e in events if isinstance(e, IssueAccess)}
        # Replacements are meaningless in I, so only loads and stores appear.
        assert accesses == {
            (0, AccessKind.LOAD), (0, AccessKind.STORE),
            (1, AccessKind.LOAD), (1, AccessKind.STORE),
        }

    def test_workload_bound_respected(self, msi_nonstalling):
        system = ReferenceSystem(
            msi_nonstalling, num_caches=1, workload=Workload(max_accesses_per_cache=0)
        )
        assert system.enabled_events(system.initial_state()) == []

    def test_access_kinds_can_be_restricted(self, msi_nonstalling):
        system = ReferenceSystem(
            msi_nonstalling,
            num_caches=1,
            workload=Workload(max_accesses_per_cache=1, access_kinds=(AccessKind.LOAD,)),
        )
        events = system.enabled_events(system.initial_state())
        assert {e.access for e in events} == {AccessKind.LOAD}


class TestSimpleScenario:
    """Drive one cache through a full load transaction by hand."""

    def test_load_round_trip(self, msi_nonstalling):
        system = ReferenceSystem(msi_nonstalling, num_caches=1,
                                 workload=Workload(max_accesses_per_cache=1))
        state = system.initial_state()

        out = system.apply(state, IssueAccess(cache_id=0, access=AccessKind.LOAD))
        assert out.error is None
        state = out.state
        assert state.caches[0].fsm_state == "IS_D"
        [gets] = in_flight(state.network)
        assert gets.mtype == "GetS" and gets.dst == DIRECTORY_ID and gets.vnet == 0

        out = system.apply(state, DeliverMessage(gets))
        state = out.state
        assert state.directory.fsm_state == "S"
        [data] = in_flight(state.network)
        assert data.mtype == "Data" and data.dst == 0 and data.vnet == 1

        out = system.apply(state, DeliverMessage(data))
        state = out.state
        assert state.caches[0].fsm_state == "S"
        assert out.observations and out.observations[0].access is AccessKind.LOAD
        assert system.is_complete(state)

    def test_store_bumps_version(self, msi_nonstalling):
        system = ReferenceSystem(msi_nonstalling, num_caches=1,
                                 workload=Workload(max_accesses_per_cache=1))
        state = system.initial_state()
        out = system.apply(state, IssueAccess(cache_id=0, access=AccessKind.STORE))
        state = out.state
        [getm] = in_flight(state.network)
        state = system.apply(state, DeliverMessage(getm)).state
        [data] = in_flight(state.network)
        out = system.apply(state, DeliverMessage(data))
        assert out.state.caches[0].fsm_state == "M"
        assert out.state.latest_version == 1
        assert out.state.caches[0].data == 1


class TestDeliveryGating:
    def test_stalled_messages_are_not_enabled(self, msi_stalling):
        system = ReferenceSystem(msi_stalling, num_caches=2,
                                 workload=Workload(max_accesses_per_cache=1))
        state = system.initial_state()
        # C0 starts a store; C1 starts a store; the directory serves C0 first.
        state = system.apply(state, IssueAccess(0, AccessKind.STORE)).state
        state = system.apply(state, IssueAccess(1, AccessKind.STORE)).state
        getm0 = [m for m in in_flight(state.network) if m.src == 0][0]
        state = system.apply(state, DeliverMessage(getm0)).state
        getm1 = [m for m in in_flight(state.network) if m.src == 1][0]
        state = system.apply(state, DeliverMessage(getm1)).state
        # The directory forwarded C1's GetM to C0, which is still in IM_AD;
        # the stalling protocol must not deliver it yet.
        fwd = [m for m in in_flight(state.network) if m.mtype == "Fwd_GetM"][0]
        enabled = system.enabled_events(state)
        assert DeliverMessage(fwd) not in enabled
        # The Data response for C0 is still deliverable (separate event).
        data = [m for m in in_flight(state.network) if m.mtype == "Data" and m.dst == 0][0]
        assert DeliverMessage(data) in enabled
