"""Tests for directory-controller generation (Section V-F)."""

import pytest

from repro.core import GenerationConfig, generate
from repro.core.directory import _put_ack_template
from repro.core.fsm import MessageEvent, StateKind
from repro.dsl.ssp import AwaitStage, Transaction, Trigger
from repro.dsl.types import Dest, RemoveRequestorFromSharers, Send


class TestMsiDirectory:
    def test_states(self, msi_nonstalling):
        directory = msi_nonstalling.directory
        # M_cap is the hardening pass's captured sibling of M (memory made
        # current by a stale-Put capture while a handoff was in flight).
        assert set(directory.state_names()) == {"I", "S", "M", "M_cap", "S_D"}
        assert directory.state("S_D").kind is StateKind.TRANSIENT
        assert directory.state("M_cap").kind is StateKind.STABLE
        assert directory.state("M_cap").meta["captured_from"] == "M"

    def test_transient_state_from_waiting_transaction(self, msi_nonstalling):
        directory = msi_nonstalling.directory
        [transition] = directory.candidates("M", MessageEvent("GetS"))
        assert transition.next_state == "S_D"
        [completion] = directory.candidates("S_D", MessageEvent("Data"))
        assert completion.next_state == "S"

    def test_requests_stall_in_transient_directory_state(self, msi_nonstalling):
        directory = msi_nonstalling.directory
        for request in ("GetS", "GetM"):
            [transition] = directory.candidates("S_D", MessageEvent(request))
            assert transition.stall

    def test_puts_do_not_stall_in_transient_directory_state(self, msi_nonstalling):
        directory = msi_nonstalling.directory
        for request in ("PutS", "PutM"):
            candidates = directory.candidates("S_D", MessageEvent(request))
            assert candidates and not any(t.stall for t in candidates)


class TestStalePutHandling:
    """Section V-F: any stale Put is simply acknowledged."""

    @pytest.mark.parametrize(
        "state, put",
        [("I", "PutS"), ("I", "PutM"), ("S", "PutM"), ("M", "PutS"), ("S_D", "PutS")],
    )
    def test_stale_put_is_acknowledged_without_state_change(self, msi_nonstalling, state, put):
        directory = msi_nonstalling.directory
        candidates = [
            t for t in directory.candidates(state, MessageEvent(put)) if t.event.guard is None
        ]
        assert len(candidates) == 1
        transition = candidates[0]
        assert transition.next_state == state
        assert any(isinstance(a, Send) and a.message == "Put_Ack" for a in transition.actions)

    def test_stale_put_drops_requestor_from_sharers(self, msi_nonstalling):
        directory = msi_nonstalling.directory
        [transition] = [
            t for t in directory.candidates("S_D", MessageEvent("PutM"))
            if t.event.guard is None
        ]
        assert any(isinstance(a, RemoveRequestorFromSharers) for a in transition.actions)

    def test_owner_putm_keeps_ssp_handling_and_gains_stale_variant(self, msi_nonstalling):
        directory = msi_nonstalling.directory
        guards = {t.event.guard for t in directory.candidates("M", MessageEvent("PutM"))}
        assert guards == {"from_owner", "not_from_owner"}

    def test_ack_comes_from_a_waiting_put_transactions_completion(self, msi_spec):
        # A waiting Put transaction whose trigger answers the requestor with
        # another response: the stale-Put ack is the completion's Put_Ack,
        # never the trigger's send.
        spec = msi_spec.copy()
        spec.directory.reactions = [
            r for r in spec.directory.reactions if r.message != "PutM"
        ]
        spec.directory.transactions.append(Transaction(
            start_state="M", initiator="PutM", final_state="I",
            stages=(AwaitStage("W", (Trigger(
                "Data", actions=(Send("Inv_Ack", to=Dest.REQUESTOR),),
            ),)),),
            completion_actions=(Send("Put_Ack", to=Dest.REQUESTOR),),
        ))
        assert _put_ack_template(spec, "PutM") == Send("Put_Ack", to=Dest.REQUESTOR)

    def test_stale_handling_can_be_disabled(self, msi_spec):
        generated = generate(msi_spec, GenerationConfig(generate_stale_put_handling=False))
        directory = generated.directory
        assert directory.candidates("I", MessageEvent("PutM")) == []


class TestRequestReinterpretation:
    """Section V-D1: the Upgrade example."""

    def test_upgrade_reinterpreted_as_getm_in_i_and_m(self, all_generated):
        directory = all_generated[("MSI-Upgrade", "nonstalling")].directory
        for state in ("I", "M"):
            getm = directory.candidates(state, MessageEvent("GetM"))
            upgrade = directory.candidates(state, MessageEvent("Upgrade"))
            assert len(upgrade) == len(getm)
            assert {t.next_state for t in upgrade} == {t.next_state for t in getm}

    def test_upgrade_not_duplicated_where_ssp_defines_it(self, all_generated):
        directory = all_generated[("MSI-Upgrade", "nonstalling")].directory
        guards = {t.event.guard for t in directory.candidates("S", MessageEvent("Upgrade"))}
        assert guards == {"from_sharer", "not_from_sharer"}

    def test_cache_side_records_reinterpretation_via_restart(self, all_generated):
        cache = all_generated[("MSI-Upgrade", "nonstalling")].cache
        # SM_AC is the upgrade transient; an Inv restarts the store from I,
        # landing in the GetM transient even though the Upgrade is in flight.
        upgrade_transients = [
            s.name for s in cache.transient_states() if s.meta.get("start") == "S"
            and s.meta.get("stage") == "AC" and not s.meta.get("chain")
        ]
        assert upgrade_transients, "expected the S->M upgrade transient to exist"
        [transition] = cache.candidates(upgrade_transients[0], MessageEvent("Inv"))
        assert transition.next_state == "IM_AD"


class TestMosiOwnerPutReinterpretation:
    def test_putm_from_owner_in_o_handled_like_puto(self, mosi_nonstalling):
        directory = mosi_nonstalling.directory
        putm = {
            t.event.guard: t for t in directory.candidates("O", MessageEvent("PutM"))
        }
        assert "from_owner" in putm
        assert putm["from_owner"].next_state == "S"

    def test_mosi_directory_has_recall_transient(self, mosi_nonstalling):
        directory = mosi_nonstalling.directory
        assert "M_D" in directory.state_names()
        # The unguarded (non-owner) GetM handling starts the recall; the
        # owner-upgrade path is the guarded reaction.
        [transition] = [
            t for t in directory.candidates("O", MessageEvent("GetM"))
            if t.event.guard is None
        ]
        assert transition.next_state == "M_D"
