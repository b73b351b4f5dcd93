"""Unit tests for MessageType / MessageCatalog."""

import pytest

from repro.dsl.errors import SpecError
from repro.dsl.messages import MessageCatalog, MessageType
from repro.dsl.types import MessageClass


@pytest.fixture
def catalog():
    catalog = MessageCatalog()
    catalog.declare("GetS", MessageClass.REQUEST)
    catalog.declare("Fwd_GetS", MessageClass.FORWARD)
    catalog.declare("Data", MessageClass.RESPONSE, carries_data=True, carries_ack_count=True)
    return catalog


class TestCatalogBasics:
    def test_contains_and_getitem(self, catalog):
        assert "GetS" in catalog
        assert catalog["Data"].carries_data

    def test_unknown_message_raises(self, catalog):
        with pytest.raises(SpecError, match="unknown message"):
            catalog["Nope"]

    def test_duplicate_declaration_rejected(self, catalog):
        with pytest.raises(SpecError, match="duplicate"):
            catalog.declare("GetS", MessageClass.REQUEST)

    def test_len_and_iteration(self, catalog):
        assert len(catalog.names()) == 3
        assert {m.name for m in catalog} == {"GetS", "Fwd_GetS", "Data"}

    def test_by_class_partitions(self, catalog):
        assert [m.name for m in catalog.requests] == ["GetS"]
        assert [m.name for m in catalog.by_class(MessageClass.FORWARD)] == ["Fwd_GetS"]
        assert [m.name for m in catalog.responses] == ["Data"]

    def test_copy_is_independent(self, catalog):
        copy = catalog.copy()
        copy.declare("GetM", MessageClass.REQUEST)
        assert "GetM" in copy
        assert "GetM" not in catalog


class TestRenaming:
    def test_derive_renamed_records_origin(self, catalog):
        renamed = catalog.derive_renamed("Fwd_GetS", "O_Fwd_GetS")
        assert renamed.renamed_from == "Fwd_GetS"
        assert renamed.message_class is MessageClass.FORWARD
        assert "O_Fwd_GetS" in catalog

    def test_derive_renamed_is_idempotent(self, catalog):
        first = catalog.derive_renamed("Fwd_GetS", "O_Fwd_GetS")
        second = catalog.derive_renamed("Fwd_GetS", "O_Fwd_GetS")
        assert first is second
        assert len(catalog.names()) == 4

    def test_message_type_rename_helper(self):
        original = MessageType("Fwd_GetS", MessageClass.FORWARD)
        renamed = original.rename("O_Fwd_GetS")
        assert renamed.name == "O_Fwd_GetS"
        assert renamed.renamed_from == "Fwd_GetS"

    def test_virtual_channel_follows_class(self, mosi_nonstalling):
        """MOSI's renamed forwards keep their class, so they travel on the
        virtual network of the message they were renamed from."""
        compiled = mosi_nonstalling.compiled()
        vnet = dict(zip(compiled.mtype_names, compiled.mtype_vnet))
        renamed = [m for m in mosi_nonstalling.messages if m.renamed_from]
        assert {m.name for m in renamed} == {"O_Fwd_GetS", "O_Fwd_GetM"}
        for message in renamed:
            assert message.message_class is MessageClass.FORWARD
            assert vnet[message.name] == vnet[message.renamed_from]
