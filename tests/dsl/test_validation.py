"""Unit tests for atomic-model SSP validation."""

import pytest

from repro import protocols
from repro.dsl.builder import CacheSpecBuilder, DirectorySpecBuilder, ProtocolBuilder
from repro.dsl.errors import ValidationError
from repro.dsl.types import AccessKind, Dest, Permission, Send
from repro.dsl.validation import validate_protocol


def _skeleton(declare_forward=True):
    protocol = ProtocolBuilder("Test")
    protocol.request("GetS")
    protocol.request("GetM")
    if declare_forward:
        protocol.forward("Inv")
    protocol.response("Data", carries_data=True)

    cache = CacheSpecBuilder(initial="I")
    cache.state("I", Permission.NONE)
    cache.state("S", Permission.READ)
    cache.state("M", Permission.READ_WRITE)
    (
        cache.on_access("I", AccessKind.LOAD)
        .request("GetS")
        .await_stage("D")
        .when("Data", receives_data=True).complete("S")
        .done()
    )
    (
        cache.on_access("I", AccessKind.STORE)
        .request("GetM")
        .await_stage("D")
        .when("Data", receives_data=True).complete("M")
        .done()
    )
    (
        cache.on_access("S", AccessKind.STORE)
        .request("GetM")
        .await_stage("D")
        .when("Data", receives_data=True).complete("M")
        .done()
    )

    directory = DirectorySpecBuilder(initial="I")
    directory.state("I")
    directory.react("I", "GetS", "I", Send("Data", Dest.REQUESTOR, with_data=True))
    directory.react("I", "GetM", "I", Send("Data", Dest.REQUESTOR, with_data=True))
    return protocol, cache, directory


class TestValidProtocolsPass:
    @pytest.mark.parametrize("name", protocols.available_protocols())
    def test_bundled_protocols_validate(self, name):
        report = validate_protocol(protocols.load(name), strict=True)
        assert not report.errors

    def test_skeleton_validates(self):
        protocol, cache, directory = _skeleton()
        report = validate_protocol(protocol.build(cache, directory), strict=False)
        assert not report.errors


class TestInvalidProtocolsFail:
    def test_undeclared_awaited_message(self):
        protocol, cache, directory = _skeleton()
        (
            cache.on_access("M", AccessKind.REPLACEMENT)
            .request("GetS")
            .await_stage("A")
            .when("Nonexistent_Ack").complete("I")
            .done()
        )
        spec = protocol.build(cache, directory)
        with pytest.raises(ValidationError, match="undeclared message"):
            validate_protocol(spec)

    def test_cache_sending_forwarded_request_rejected(self):
        protocol, cache, directory = _skeleton()
        cache.react("M", "Inv", "I", Send("Inv", Dest.REQUESTOR))
        spec = protocol.build(cache, directory)
        report = validate_protocol(spec, strict=False)
        assert any("only the directory may send forwards" in e for e in report.errors)

    def test_directory_issuing_request_rejected(self):
        protocol, cache, directory = _skeleton()
        directory.react("I", "Data", "I", Send("GetM", Dest.REQUESTOR))
        spec = protocol.build(cache, directory)
        report = validate_protocol(spec, strict=False)
        assert any("only caches may issue requests" in e for e in report.errors)

    def test_strict_mode_raises(self):
        protocol, cache, directory = _skeleton()
        cache.react("M", "Inv", "I", Send("Inv", Dest.REQUESTOR))
        with pytest.raises(ValidationError):
            validate_protocol(protocol.build(cache, directory), strict=True)


class TestWarnings:
    def test_unsatisfiable_access_warns(self):
        protocol, cache, directory = _skeleton()
        # A store in S neither hits nor starts a transaction in this skeleton
        # variant: drop the S-store transaction by rebuilding without it.
        protocol2, cache2, directory2 = _skeleton()
        cache2._transactions = [
            t for t in cache2._transactions
            if not (t.start_state == "S" and t.initiator is AccessKind.STORE)
        ]
        report = validate_protocol(protocol2.build(cache2, directory2), strict=False)
        assert any("neither hits nor starts" in w for w in report.warnings)

    def test_unhandled_get_in_initial_directory_state_warns(self):
        protocol, cache, directory = _skeleton()
        directory._reactions = [r for r in directory._reactions if r.message != "GetM"]
        report = validate_protocol(protocol.build(cache, directory), strict=False)
        assert any("does not handle request" in w for w in report.warnings)

    def test_report_raise_if_failed_includes_all_errors(self):
        protocol, cache, directory = _skeleton()
        cache.react("M", "Inv", "I", Send("Inv", Dest.REQUESTOR))
        cache.react("S", "Inv", "I", Send("Inv", Dest.REQUESTOR))
        report = validate_protocol(protocol.build(cache, directory), strict=False)
        assert len(report.errors) >= 2
        with pytest.raises(ValidationError):
            report.raise_if_failed()
