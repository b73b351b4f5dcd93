"""Tests for SSP preprocessing (forwarded-request renaming, Tables III/IV)."""

import pytest

from repro.core.preprocess import forwarded_arrival_states, preprocess
from repro.dsl.types import Dest, MessageClass, Send


class TestMsiNeedsNoRenaming:
    def test_no_renamings(self, msi_spec):
        result = preprocess(msi_spec)
        assert result.renamings == {}

    def test_each_forward_arrives_in_one_state(self, msi_spec):
        arrival = forwarded_arrival_states(msi_spec)
        assert arrival == {"Fwd_GetS": ["M"], "Fwd_GetM": ["M"], "Inv": ["S"]}

    def test_original_spec_untouched(self, msi_spec):
        before = set(msi_spec.messages.names())
        preprocess(msi_spec)
        assert set(msi_spec.messages.names()) == before


class TestMosiRenaming:
    """The MOSI example from the paper's Tables III and IV."""

    def test_fwd_gets_split_into_two_names(self, mosi_spec):
        result = preprocess(mosi_spec)
        assert result.renamings["Fwd_GetS"] == ["Fwd_GetS", "O_Fwd_GetS"]
        assert result.renamings["Fwd_GetM"] == ["Fwd_GetM", "O_Fwd_GetM"]

    def test_renamed_message_registered_in_catalog(self, mosi_spec):
        spec = preprocess(mosi_spec).spec
        assert "O_Fwd_GetS" in spec.messages
        assert spec.messages["O_Fwd_GetS"].renamed_from == "Fwd_GetS"
        assert spec.messages["O_Fwd_GetS"].message_class is MessageClass.FORWARD

    def test_cache_arrivals_rewritten(self, mosi_spec):
        spec = preprocess(mosi_spec).spec
        assert spec.cache_arrival_states("Fwd_GetS") == ["M"]
        assert spec.cache_arrival_states("O_Fwd_GetS") == ["O"]

    def test_directory_sends_rewritten_per_state(self, mosi_spec):
        spec = preprocess(mosi_spec).spec
        sent_from_m = _messages_sent_from(spec.directory, "M")
        sent_from_o = _messages_sent_from(spec.directory, "O")
        assert "Fwd_GetS" in sent_from_m and "O_Fwd_GetS" not in sent_from_m
        assert "O_Fwd_GetS" in sent_from_o and "Fwd_GetS" not in sent_from_o

    def test_invariant_holds_after_preprocessing(self, mosi_spec):
        spec = preprocess(mosi_spec).spec
        arrival = forwarded_arrival_states(spec)
        assert all(len(states) == 1 for states in arrival.values())

    def test_preprocessing_is_idempotent(self, mosi_spec):
        once = preprocess(mosi_spec).spec
        twice = preprocess(once)
        assert twice.renamings == {}


class TestMesiSilentClassExemption:
    """E and M are connected by a silent transition, so Fwd_GetS arriving in
    both does not need renaming -- the arrival class carries the same
    serialization information."""

    def test_no_renaming_for_mesi(self, mesi_spec):
        result = preprocess(mesi_spec)
        assert result.renamings == {}

    def test_fwd_gets_still_arrives_in_both(self, mesi_spec):
        spec = preprocess(mesi_spec).spec
        assert set(spec.cache_arrival_states("Fwd_GetS")) == {"E", "M"}


class TestDisambiguationErrors:
    def test_missing_recipient_state_raises(self, mosi_spec):
        from repro.core.preprocess import GenerationError
        from dataclasses import replace

        spec = mosi_spec.copy()
        # Strip both the recipient_state annotations and the owner_view hints
        # so preprocessing cannot tell which variant the directory must send.
        spec.directory.states = {
            name: replace(state, owner_view=None) for name, state in spec.directory.states.items()
        }
        spec.directory.rewrite_actions(lambda actions, _state: tuple(
            replace(a, recipient_state=None) if isinstance(a, Send) else a
            for a in actions
        ))
        with pytest.raises(GenerationError, match="cannot disambiguate"):
            preprocess(spec)


def _messages_sent_from(directory, state: str) -> set[str]:
    return {
        a.message
        for handler in directory.handlers() if handler.state == state
        for a in handler.actions if isinstance(a, Send)
    }
