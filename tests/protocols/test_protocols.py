"""Tests for the bundled protocol SSPs and the registry."""

import pytest

from repro import protocols
from repro.dsl.types import AccessKind, Permission
from repro.dsl.validation import validate_protocol


class TestRegistry:
    def test_available_protocols(self):
        assert set(protocols.available_protocols()) == {
            "MSI", "MESI", "MOSI", "MSI-Upgrade", "MSI-Unordered", "TSO-CC",
        }

    def test_load_builds_fresh_spec_each_time(self):
        first = protocols.load("MSI")
        second = protocols.load("MSI")
        assert first is not second
        assert first.name == second.name == "MSI"

    def test_unknown_protocol_rejected(self):
        with pytest.raises(KeyError, match="unknown protocol"):
            protocols.load("MOESIF")


class TestMsiSpec:
    """The MSI SSP transcribes the paper's Tables I and II."""

    def test_stable_states_and_permissions(self, msi_spec):
        cache = msi_spec.cache
        assert cache.state("I").permission is Permission.NONE
        assert cache.state("S").permission is Permission.READ
        assert cache.state("M").permission is Permission.READ_WRITE

    def test_table1_transactions(self, msi_spec):
        cache = msi_spec.cache
        assert cache.transaction_for("I", AccessKind.LOAD).request.message == "GetS"
        assert cache.transaction_for("I", AccessKind.STORE).request.message == "GetM"
        assert cache.transaction_for("S", AccessKind.STORE).request.message == "GetM"
        assert cache.transaction_for("S", AccessKind.REPLACEMENT).request.message == "PutS"
        assert cache.transaction_for("M", AccessKind.REPLACEMENT).request.message == "PutM"

    def test_table1_forwarded_request_reactions(self, msi_spec):
        cache = msi_spec.cache
        assert cache.reactions_for("S", "Inv")[0].next_state == "I"
        assert cache.reactions_for("M", "Fwd_GetS")[0].next_state == "S"
        assert cache.reactions_for("M", "Fwd_GetM")[0].next_state == "I"

    def test_table2_directory_states(self, msi_spec):
        directory = msi_spec.directory
        assert set(directory.state_names()) == {"I", "S", "M"}
        assert directory.state("M").owner_view == "M"

    def test_table2_directory_behaviour(self, msi_spec):
        directory = msi_spec.directory
        assert directory.reactions_for("I", "GetS")[0].next_state == "S"
        assert directory.reactions_for("S", "GetM")[0].next_state == "M"
        # M + GetS waits for the owner's data.
        transaction = directory.transaction_for("M", "GetS")
        assert transaction is not None and transaction.final_state == "S"

    def test_ordered_network_assumption(self, msi_spec):
        assert msi_spec.ordered_network is True


class TestOtherSpecs:
    def test_mesi_has_exclusive_state_with_silent_upgrade(self, mesi_spec):
        cache = mesi_spec.cache
        transaction = cache.transaction_for("E", AccessKind.STORE)
        assert transaction is not None and transaction.is_silent
        assert transaction.final_state == "M"

    def test_mosi_owned_state_has_read_permission(self, mosi_spec):
        assert mosi_spec.cache.state("O").permission is Permission.READ

    def test_mosi_forwards_arrive_in_two_states(self, mosi_spec):
        assert set(mosi_spec.cache_arrival_states("Fwd_GetS")) == {"M", "O"}

    def test_msi_unordered_declares_unordered_network(self):
        spec = protocols.load("MSI-Unordered")
        assert spec.ordered_network is False
        # No eviction path by design.
        assert spec.cache.transaction_for("M", AccessKind.REPLACEMENT) is None

    def test_msi_upgrade_uses_upgrade_from_s(self):
        spec = protocols.load("MSI-Upgrade")
        assert spec.cache.transaction_for("S", AccessKind.STORE).request.message == "Upgrade"
        assert spec.cache.transaction_for("I", AccessKind.STORE).request.message == "GetM"

    def test_tso_cc_has_no_invalidation_and_no_sharer_state(self):
        spec = protocols.load("TSO-CC")
        assert "Inv" not in spec.messages
        assert "S" not in spec.directory.state_names()

    @pytest.mark.parametrize("name", protocols.available_protocols())
    def test_every_spec_validates(self, name):
        assert not validate_protocol(protocols.load(name), strict=True).errors


class TestPrimerBaselines:
    def test_nonstalling_baseline_has_18_states(self):
        baseline = protocols.primer.nonstalling_msi_cache()
        assert baseline.num_states == 18

    def test_stalling_baseline_has_primer_states(self, primer_stalling_cache):
        baseline = primer_stalling_cache
        assert baseline.num_states == 11 - 1  # II_A does not exist when Inv stalls in SI_A

    def test_baseline_stall_cells_include_imad_forwards(self):
        baseline = protocols.primer.nonstalling_msi_cache()
        stalls = baseline.stall_cells()
        assert ("IM_AD", "Fwd_GetS") in stalls
        assert ("SM_AD", "Fwd_GetM") in stalls

    def test_baseline_cell_lookup(self):
        baseline = protocols.primer.nonstalling_msi_cache()
        assert baseline.cell("M", "Fwd_GetM") == ("send Data to Req", "I")
        assert baseline.cell("I", "Fwd_GetM") is None

    def test_transition_count_positive(self):
        baseline = protocols.primer.nonstalling_msi_cache()
        assert baseline.transitions() > 30
