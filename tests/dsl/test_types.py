"""Unit tests for the permission / access / action vocabulary."""

import pytest

from repro.dsl.types import (
    AccessKind,
    AddRequestorToSharers,
    ClearSharers,
    CopyDataFromMessage,
    Dest,
    IncrementAcksReceived,
    MessageClass,
    PerformAccess,
    Permission,
    SaveRequestor,
    Send,
    SetAcksExpectedFromMessage,
    StallMarker,
    describe_action,
    is_data_send,
)


class TestPermission:
    def test_ordering(self):
        assert Permission.NONE < Permission.READ < Permission.READ_WRITE

    def test_none_allows_nothing(self):
        assert not Permission.NONE.allows(AccessKind.LOAD)
        assert not Permission.NONE.allows(AccessKind.STORE)

    def test_read_allows_loads_only(self):
        assert Permission.READ.allows(AccessKind.LOAD)
        assert not Permission.READ.allows(AccessKind.STORE)

    def test_read_write_allows_loads_and_stores(self):
        assert Permission.READ_WRITE.allows(AccessKind.LOAD)
        assert Permission.READ_WRITE.allows(AccessKind.STORE)

    @pytest.mark.parametrize("permission", list(Permission))
    def test_replacement_never_hits(self, permission):
        assert not permission.allows(AccessKind.REPLACEMENT)

    def test_min_is_meet(self):
        assert min(Permission.READ, Permission.READ_WRITE) is Permission.READ
        assert min(Permission.NONE, Permission.READ) is Permission.NONE


class TestMessageClass:
    def test_request_is_channel_zero(self, all_generated):
        """Requests travel on virtual network 0 and every forward or
        response on another one, in every generated protocol."""
        for generated in all_generated.values():
            compiled = generated.compiled()
            vnet = dict(zip(compiled.mtype_names, compiled.mtype_vnet))
            for message in generated.messages:
                is_request = message.message_class is MessageClass.REQUEST
                assert (vnet[message.name] == 0) == is_request, message.name


class TestSend:
    def test_renamed_preserves_fields(self):
        send = Send("Fwd_GetS", Dest.OWNER, with_data=True, recipient_state="M")
        renamed = send.renamed("O_Fwd_GetS")
        assert renamed.message == "O_Fwd_GetS"
        assert renamed.with_data is True
        assert renamed.recipient_state == "M"
        assert renamed.to is Dest.OWNER

    def test_is_data_send(self):
        assert is_data_send(Send("Data", Dest.REQUESTOR, with_data=True))
        assert not is_data_send(Send("Inv_Ack", Dest.REQUESTOR))
        assert not is_data_send(CopyDataFromMessage())

    def test_actions_are_hashable(self):
        assert hash(Send("Data", Dest.REQUESTOR)) == hash(Send("Data", Dest.REQUESTOR))
        assert Send("Data", Dest.REQUESTOR) != Send("Data", Dest.DIRECTORY)


class TestDescribeAction:
    @pytest.mark.parametrize(
        "action, fragment",
        [
            (Send("Data", Dest.REQUESTOR, with_data=True), "send Data"),
            (Send("Data", Dest.REQUESTOR, with_data=True), "+Data"),
            (Send("Data", Dest.REQUESTOR, requestor_slot=1), "saved requestor[1]"),
            (AddRequestorToSharers(), "Sharers += requestor"),
            (ClearSharers(), "Sharers := {}"),
            (SetAcksExpectedFromMessage(), "acksExpected"),
            (IncrementAcksReceived(), "acksReceived"),
            (SaveRequestor(slot=2), "[2]"),
            (PerformAccess(), "pending access"),
            (StallMarker(), "stall"),
            (CopyDataFromMessage(), "copy data"),
        ],
    )
    def test_descriptions_mention_key_detail(self, action, fragment):
        assert fragment in describe_action(action)
