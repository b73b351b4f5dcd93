"""Unit tests for the SSP data model (states, transactions, reactions, specs)."""

import pytest

from repro.core.fsm import MessageEvent
from repro.dsl.errors import SpecError
from repro.dsl.ssp import AwaitStage, Reaction, Transaction, Trigger
from repro.dsl.types import AccessKind, Dest, Send


def _simple_transaction(**overrides):
    defaults = dict(
        start_state="I",
        initiator=AccessKind.LOAD,
        final_state="S",
        request=Send("GetS", Dest.DIRECTORY),
        stages=(
            AwaitStage(
                name="D",
                triggers=(Trigger(message="Data", receives_data=True),),
            ),
        ),
    )
    defaults.update(overrides)
    return Transaction(**defaults)


class TestTrigger:
    def test_invalid_condition_rejected(self):
        with pytest.raises(SpecError, match="unknown trigger condition"):
            Trigger(message="Data", condition="sometimes")

    def test_completes_when_no_next_stage(self):
        assert Trigger(message="Data").completes
        assert not Trigger(message="Data", next_stage="A").completes


class TestAwaitStage:
    def test_empty_stage_rejected(self):
        with pytest.raises(SpecError, match="no triggers"):
            AwaitStage(name="D", triggers=())

    def test_trigger_messages(self, msi_spec, msi_nonstalling):
        """Each await stage becomes a transient state that handles every
        one of the stage's trigger messages without stalling."""
        transaction = msi_spec.cache.transaction_for("I", AccessKind.STORE)
        [stage, _] = transaction.stages
        assert {t.message for t in stage.triggers} == {"Data", "Inv_Ack"}
        for trigger in stage.triggers:
            transitions = msi_nonstalling.cache.candidates(
                "IM_AD", MessageEvent(trigger.message))
            assert transitions and not any(t.stall for t in transitions)


class TestTransaction:
    def test_duplicate_stage_names_rejected(self):
        stage = AwaitStage(name="D", triggers=(Trigger(message="Data"),))
        with pytest.raises(SpecError, match="duplicate"):
            _simple_transaction(stages=(stage, stage))

    def test_unknown_next_stage_rejected(self):
        stage = AwaitStage(
            name="D", triggers=(Trigger(message="Data", next_stage="missing"),)
        )
        with pytest.raises(SpecError, match="unknown stage"):
            _simple_transaction(stages=(stage,))

    def test_silent_transaction(self):
        silent = Transaction(
            start_state="E", initiator=AccessKind.STORE, final_state="M"
        )
        assert silent.is_silent

    def test_stage_lookup(self):
        """A trigger may name a later stage or its own (a loop while acks
        arrive); both resolve among the transaction's stage names."""
        transaction = _simple_transaction(stages=(
            AwaitStage(name="AD", triggers=(
                Trigger(message="Data", next_stage="A"),
                Trigger(message="Inv_Ack", next_stage="AD"),
            )),
            AwaitStage(name="A", triggers=(Trigger(message="Inv_Ack"),)),
        ))
        assert [stage.name for stage in transaction.stages] == ["AD", "A"]
        with pytest.raises(SpecError, match="unknown stage 'Z'"):
            _simple_transaction(stages=(
                AwaitStage(name="AD", triggers=(Trigger(message="Data", next_stage="Z"),)),
            ))

    def test_all_actions_include_request_and_triggers(self):
        extra = Send("Inv_Ack", Dest.REQUESTOR)
        transaction = _simple_transaction(
            stages=(
                AwaitStage(name="D", triggers=(Trigger(message="Data", actions=(extra,)),)),
            )
        )
        actions = transaction.actions
        assert Send("GetS", Dest.DIRECTORY) in actions
        assert extra in actions


class TestReaction:
    def test_invalid_guard_rejected(self):
        with pytest.raises(SpecError, match="unknown reaction guard"):
            Reaction(state="S", message="Inv", next_state="I", guard="maybe")

    def test_valid_guards_accepted(self):
        for guard in (None, "from_owner", "last_sharer", "not_from_sharer"):
            Reaction(state="S", message="Inv", next_state="I", guard=guard)


class TestControllerSpecQueries:
    def test_transaction_lookup(self, msi_spec):
        cache = msi_spec.cache
        assert cache.transaction_for("I", AccessKind.LOAD) is not None
        assert cache.transaction_for("I", AccessKind.REPLACEMENT) is None

    def test_request_for_access(self, msi_spec):
        cache = msi_spec.cache
        for state, access, request in (("I", AccessKind.STORE, "GetM"),
                                       ("S", AccessKind.STORE, "GetM"),
                                       ("M", AccessKind.REPLACEMENT, "PutM")):
            assert cache.transaction_for(state, access).request.message == request

    def test_reactions_for(self, msi_spec):
        cache = msi_spec.cache
        assert len(cache.reactions_for("S", "Inv")) == 1
        assert cache.reactions_for("I", "Inv") == []

    def test_messages_handled_in(self, msi_spec):
        directory = msi_spec.directory
        assert {"GetS", "GetM", "PutS"} <= directory.messages_handled_in("S")

    def test_state_lookup_error(self, msi_spec):
        with pytest.raises(SpecError, match="unknown state"):
            msi_spec.cache.state("Z")


class TestProtocolSpecQueries:
    def test_forwarded_messages(self, msi_spec):
        assert set(msi_spec.forwarded_messages()) == {"Fwd_GetS", "Fwd_GetM", "Inv"}

    def test_cache_arrival_states(self, msi_spec, mosi_spec):
        assert msi_spec.cache_arrival_states("Inv") == ["S"]
        assert msi_spec.cache_arrival_states("Fwd_GetS") == ["M"]
        assert set(mosi_spec.cache_arrival_states("Fwd_GetS")) == {"M", "O"}

    def test_copy_is_deep_enough(self, msi_spec):
        copy = msi_spec.copy()
        copy.cache.states.pop("M")
        assert "M" in msi_spec.cache.states
