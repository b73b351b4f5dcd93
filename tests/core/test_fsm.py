"""Unit tests for the generated-FSM container."""

import pytest

from repro.core.fsm import (
    AccessEvent,
    ControllerFsm,
    FsmState,
    FsmTransition,
    MessageEvent,
    StateKind,
    event_key,
)
from repro.dsl.errors import GenerationError
from repro.dsl.types import AccessKind, ControllerKind, PerformAccess, Permission


@pytest.fixture
def fsm():
    fsm = ControllerFsm("test-cache", ControllerKind.CACHE, initial="I")
    fsm.add_state(FsmState("I", StateKind.STABLE, Permission.NONE, frozenset({"I"})))
    fsm.add_state(FsmState("S", StateKind.STABLE, Permission.READ, frozenset({"S"})))
    fsm.add_state(
        FsmState("IS_D", StateKind.TRANSIENT, Permission.NONE, frozenset({"I", "S"}),
                 aliases=("IS_D_alias",))
    )
    return fsm


class TestStates:
    def test_duplicate_state_rejected(self, fsm):
        with pytest.raises(GenerationError, match="duplicate"):
            fsm.add_state(FsmState("I", StateKind.STABLE))

    def test_unknown_state_lookup_rejected(self, fsm):
        with pytest.raises(GenerationError, match="unknown FSM state"):
            fsm.state("Z")

    def test_stable_and_transient_partitions(self, fsm):
        assert {s.name for s in fsm.stable_states()} == {"I", "S"}
        assert {s.name for s in fsm.transient_states()} == {"IS_D"}


class TestTransitions:
    def test_add_and_lookup(self, fsm):
        transition = FsmTransition(
            state="I",
            event=AccessEvent(AccessKind.LOAD),
            actions=(PerformAccess(),),
            next_state="IS_D",
        )
        fsm.add_transition(transition)
        assert fsm.has_transition("I", AccessEvent(AccessKind.LOAD))
        assert fsm.candidates("I", AccessEvent(AccessKind.LOAD)) == [transition]
        assert fsm.num_transitions == 1

    def test_unknown_source_state_rejected(self, fsm):
        with pytest.raises(GenerationError, match="unknown state"):
            fsm.add_transition(
                FsmTransition("Z", AccessEvent(AccessKind.LOAD), (), "I")
            )

    def test_unknown_target_state_rejected(self, fsm):
        with pytest.raises(GenerationError, match="unknown state"):
            fsm.add_transition(
                FsmTransition("I", AccessEvent(AccessKind.LOAD), (), "Z")
            )

    def test_duplicate_event_rejected(self, fsm):
        fsm.add_transition(FsmTransition("I", MessageEvent("Data"), (), "S"))
        with pytest.raises(GenerationError, match="duplicate transition"):
            fsm.add_transition(FsmTransition("I", MessageEvent("Data"), (), "I"))

    def test_guarded_variants_coexist(self, fsm):
        fsm.add_transition(FsmTransition("I", MessageEvent("Data", "ack_count_zero"), (), "S"))
        fsm.add_transition(
            FsmTransition("I", MessageEvent("Data", "ack_count_nonzero"), (), "IS_D")
        )
        assert len(fsm.candidates("I", MessageEvent("Data"))) == 2

    def test_stall_counts(self, fsm):
        fsm.add_transition(
            FsmTransition("IS_D", MessageEvent("Inv"), (), "IS_D", stall=True)
        )
        assert fsm.num_stalls == 1

    def test_messages_handled_in(self, fsm):
        fsm.add_transition(FsmTransition("IS_D", MessageEvent("Data"), (), "S"))
        fsm.add_transition(FsmTransition("IS_D", AccessEvent(AccessKind.LOAD), (), "IS_D", stall=True))
        handled = {t.event.message for t in fsm.transitions_from("IS_D")
                   if isinstance(t.event, MessageEvent) and not t.stall}
        assert handled == {"Data"}
        assert fsm.has_transition("IS_D", MessageEvent("Data"))
        assert not fsm.has_transition("IS_D", MessageEvent("Inv"))
        [load] = fsm.candidates("IS_D", AccessEvent(AccessKind.LOAD))
        assert load.stall


    def test_transitions_from_is_the_filter_in_insertion_order(self, fsm):
        """The per-state index reads what a scan of ``transitions()`` would:
        insertion order, a replacement in its old place, a copy."""
        load = FsmTransition("I", AccessEvent(AccessKind.LOAD), (), "IS_D")
        for t in (load,
                  FsmTransition("S", MessageEvent("Inv"), (), "I"),
                  FsmTransition("I", MessageEvent("Inv"), (), "I"),
                  FsmTransition("I", MessageEvent("Data"), (), "S")):
            fsm.add_transition(t)
        hit = fsm.replace_transition(load, load.with_actions((PerformAccess(),)))

        def scanned(state):
            return [t for t in fsm.transitions() if t.state == state]

        assert fsm.transitions_from("I")[0] is hit
        for state in ("I", "S", "IS_D", "unknown"):
            assert fsm.transitions_from(state) == scanned(state)
        fsm.transitions_from("I").clear()
        assert len(fsm.transitions_from("I")) == 3

    def test_generated_controllers_index_every_transition(self, all_generated):
        for generated in all_generated.values():
            for fsm in (generated.cache, generated.directory):
                for name in fsm.state_names():
                    assert fsm.transitions_from(name) == [
                        t for t in fsm.transitions() if t.state == name
                    ], (fsm.name, name)


class TestEventKey:
    def test_access_and_message_keys_differ(self):
        assert event_key(AccessEvent(AccessKind.LOAD)) != event_key(MessageEvent("Load"))

    def test_guard_not_part_of_key(self):
        assert event_key(MessageEvent("Data", "ack_count_zero")) == event_key(
            MessageEvent("Data")
        )

    def test_unknown_event_type_rejected(self):
        class Weird:
            pass

        with pytest.raises(GenerationError):
            event_key(Weird())
