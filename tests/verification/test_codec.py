"""Property tests for the encoded-state core (:mod:`repro.system.codec`).

The engine de-duplicates, canonicalizes and ships *encodings* of global
states, so two properties carry the whole correctness argument:

* the codec is a **bijection** on reachable states --
  ``decode(encode(s)) == s`` exactly (and through the packed ``bytes`` form),
  which is what keeps ``verify()`` defaults bit-compatible with the seed
  explorer;
* encoded **canonicalization agrees with its definition** -- same
  representative *and* same witness permutation as
  ``reference_canonicalize`` (``min`` over the relabeled states' sort keys,
  executed on objects), including the states whose saved-requestor slots
  make their blocks permutation-dependent (the whole matrix is in
  ``test_canonical.py``)
  -- and the lane-level relabel that pipeline's packed one is pinned
  against, ``relabel_via_tables``, equals the object-level ``relabeled``
  of the reference system, encoded.

States are sampled with the deterministic random-walk generator used by the
canonicalization property tests, across all six bundled protocols (the
MSI-Unordered cells exercise the unordered-network section layout).
"""

from array import array

import pytest

from repro import protocols
from repro.system import System, Workload
from repro.verification.engine.canonical import canonicalizer_for, invert

from reference_system import reference, relabeled
from verification_helpers import (
    decode_packed,
    encode_event,
    encode_packed,
    LATE_ABSORB_STATES,
    has_saved_ids,
    production_canonicalize,
    reference_canonicalize,
    sample_reachable_states,
    workload_for,
)

ALL_PROTOCOLS = protocols.available_protocols()


@pytest.fixture(scope="module")
def sampled_by_protocol(all_generated):
    """(system, states) per protocol: 3 caches, 2 accesses, nonstalling."""
    result = {}
    for name in ALL_PROTOCOLS:
        system = System(
            all_generated[(name, "nonstalling")],
            num_caches=3,
            workload=Workload(max_accesses_per_cache=2),
        )
        result[name] = (system, sample_reachable_states(system, seed=len(name)))
    return result


@pytest.mark.parametrize("name", ALL_PROTOCOLS)
class TestRoundTrip:
    def test_decode_encode_is_identity(self, sampled_by_protocol, name):
        system, states = sampled_by_protocol[name]
        codec = system.codec()
        for state in states:
            enc = codec.encode(state)
            assert codec.decode(enc) == state
            assert all(isinstance(v, int) and v >= 0 for v in enc)

    def test_packed_bytes_round_trip(self, sampled_by_protocol, name):
        system, states = sampled_by_protocol[name]
        codec = system.codec()
        for state in states:
            enc = codec.encode(state)
            packed = codec.pack(enc)
            assert isinstance(packed, bytes)
            assert codec.unpack(packed) == enc
            # The packed form is a flat native-order lane dump: what NumPy
            # row bytes and region-memo keys are compared against.
            assert packed == array(codec.typecode, enc).tobytes()
            cut = codec.net_offset
            assert packed == codec.pack(enc[:cut]) + codec.pack(enc[cut:])
            assert decode_packed(codec, encode_packed(codec, state)) == state

    def test_encoding_is_injective_on_the_sample(self, sampled_by_protocol, name):
        system, states = sampled_by_protocol[name]
        codec = system.codec()
        distinct = set(states)
        assert len({codec.encode(s) for s in distinct}) == len(distinct)

    def test_relabel_commutes_with_object_relabeling(self, sampled_by_protocol, name):
        """The gather-table relabel is the reference's object-level
        ``relabeled`` computed on the encoding, on every sampled state and every
        permutation — including the saved-requestor states whose slots hold
        cache IDs — and a group action like it."""
        system, states = sampled_by_protocol[name]
        codec = system.codec()
        perms = system.symmetry_permutations()
        for state in states[:120]:
            enc = codec.encode(state)
            for perm in perms:
                moved = codec.relabel_via_tables(enc, perm)
                assert moved == codec.encode(relabeled(state, perm))
                assert codec.relabel_via_tables(moved, invert(perm)) == enc

    def test_event_codec_round_trips(self, sampled_by_protocol, name):
        system, states = sampled_by_protocol[name]
        codec = system.codec()
        replay = reference(system)
        seen = 0
        for state in states[:80]:
            for event in replay.enabled_events(state):
                assert codec.decode_event(encode_event(codec, event)) == event
                seen += 1
        assert seen > 0


@pytest.mark.parametrize("name", ALL_PROTOCOLS)
class TestEncodedCanonicalAgreement:
    def test_idempotent_on_encodings(self, sampled_by_protocol, name):
        system, states = sampled_by_protocol[name]
        codec = system.codec()
        perms = system.symmetry_permutations()
        canonicalize = canonicalizer_for(codec, perms).canonicalize
        for state in states[:100]:
            rep_key, _ = canonicalize(encode_packed(codec, state))
            again, perm = canonicalize(rep_key)
            assert again is rep_key, "an identity winner returns its argument"
            assert perm == perms[0]


def test_mosi_saved_requestor_states_agree_on_all_pipelines(all_generated):
    """MOSI nonstalling reaches deferred-send states whose saved slots hold
    cache IDs (the owner-recall `requestor_from_slot` stamping): the exact
    states that used to decode into an object brute force.  Pin the
    production pipeline against the definition on them."""
    system = System(all_generated[("MOSI", "nonstalling")], num_caches=3,
                    workload=Workload(max_accesses_per_cache=2))
    codec = system.codec()
    perms = system.symmetry_permutations()
    states = sample_reachable_states(system, seed=29, walks=10, max_steps=60)
    with_saved = [s for s in states if has_saved_ids(codec, codec.encode(s))]
    assert with_saved, "sampling never reached a saved-requestor state"
    for state in with_saved:
        assert production_canonicalize(system, state) == reference_canonicalize(
            state, perms
        )


def test_msi_unordered_late_absorb_states_agree_on_all_pipelines(all_generated):
    """MSI-Unordered nonstalling reaches the late-absorb redirect states of
    the PR 2 fix (IM_AD_I and friends); their unordered network sections are
    the largest relabel surfaces, so pin the canonicalizer and the table
    relabel against the object model through them."""
    system = System(all_generated[("MSI-Unordered", "nonstalling")],
                    num_caches=3,
                    workload=workload_for("MSI-Unordered"))
    codec = system.codec()
    perms = system.symmetry_permutations()
    states = sample_reachable_states(system, seed=43, walks=10, max_steps=60)
    touched = [
        s for s in states
        if any(cache.fsm_state in LATE_ABSORB_STATES for cache in s.caches)
    ]
    assert touched, "sampling never reached a late-absorb state"
    for state in touched:
        assert production_canonicalize(system, state) == reference_canonicalize(
            state, perms
        )
        enc = codec.encode(state)
        for perm in perms:
            assert codec.relabel_via_tables(enc, perm) == codec.encode(
                relabeled(state, perm)
            )


class _NameTable:
    def __init__(self, names):
        self._names = list(names)
        self.initial = self._names[0]

    def state_names(self):
        return self._names

    def names(self):
        return self._names


class _SyntheticProtocol:
    """Protocol stub exposing just the catalogs the codec indexes (and an
    initial state per controller, for the root)."""

    def __init__(self, *, cache_states, dir_states, mtypes):
        self.cache = _NameTable(cache_states)
        self.directory = _NameTable(dir_states)
        self.messages = _NameTable(mtypes)


class TestLaneWidening:
    """The codec derives its lane width from a static bound on every lane:
    8 bits wherever they fit, 16 or 32 above (it never errors out, and no
    caller chooses)."""

    def test_bundled_protocols_take_the_8_bit_layout(self, sampled_by_protocol):
        for system, _ in sampled_by_protocol.values():
            codec = system.codec()
            assert codec.typecode == "B" and codec.lane_bytes == 1

    def test_huge_state_catalog_selects_32_bit_lanes_and_round_trips(self):
        from repro.system import StateCodec
        from repro.system.node_state import CacheNodeState, DirectoryNodeState
        from repro.system.system import GlobalState
        from repro.system.network import UnorderedNetwork

        names = [f"T{i:05d}" for i in range(70_000)]
        protocol = _SyntheticProtocol(
            cache_states=names, dir_states=["DI", "DM"], mtypes=["Get", "Put"]
        )
        codec = StateCodec(protocol, 2, ordered=False)
        assert codec.lane_bytes == 4
        state = GlobalState(
            caches=(
                CacheNodeState(fsm_state=names[69_999], data=5, issued=1),
                CacheNodeState(fsm_state=names[0]),
            ),
            directory=DirectoryNodeState(fsm_state="DM", owner=0,
                                         sharers=frozenset({1}), memory=5),
            network=UnorderedNetwork(),
            latest_version=5,
        )
        enc = codec.encode(state)
        assert codec.decode(enc) == state
        packed = codec.pack(enc)
        assert len(packed) == 4 * len(enc)
        assert packed == array(codec.typecode, enc).tobytes()
        assert codec.unpack(packed) == enc
        assert decode_packed(codec, encode_packed(codec, state)) == state

    def test_value_bound_alone_widens_the_lanes(self):
        from repro.system import StateCodec

        protocol = _SyntheticProtocol(
            cache_states=["I", "M"], dir_states=["DI"], mtypes=["Get"]
        )
        narrow = StateCodec(protocol, 2, ordered=True, value_bound=1_000)
        wide = StateCodec(protocol, 2, ordered=True, value_bound=100_000)
        assert narrow.typecode == "H"
        assert wide.lane_bytes == 4

    def test_width_boundaries(self):
        """A lane holds its bound with one value to spare: the largest
        bounded value 0xFE still takes 8-bit lanes, 0xFF takes 16."""
        from repro.system import StateCodec

        protocol = _SyntheticProtocol(
            cache_states=["I", "M"], dir_states=["DI"], mtypes=["Get"]
        )

        def typecode(value_bound):
            return StateCodec(
                protocol, 2, ordered=True, value_bound=value_bound
            ).typecode

        # ``value_bound + 2`` is the largest lane value the bound allows.
        assert typecode(0xFE - 2) == "B" and typecode(0xFF - 2) == "H"
        assert typecode(0xFFFE - 2) == "H" and typecode(0xFFFF - 2) == "I"

    def test_the_bound_covers_the_count_lanes(self):
        """Catalogs and data versions are not the only lanes: the fault
        counter, the channel count of an ordered section and the messages
        in flight widen the lanes too."""
        from repro.system import StateCodec

        protocol = _SyntheticProtocol(
            cache_states=["I", "M"], dir_states=["DI"], mtypes=["Get"]
        )
        assert StateCodec(protocol, 2, ordered=True).typecode == "B"
        assert StateCodec(
            protocol, 2, ordered=True, faults=True, fault_budget=300
        ).typecode == "H"
        # 11 caches: 2 * 12 * 12 = 288 possible (src, dst, vnet) channels.
        assert StateCodec(protocol, 10, ordered=True).typecode == "B"
        assert StateCodec(protocol, 11, ordered=True).typecode == "H"

    @pytest.mark.parametrize("bound, typecode", [(5, "B"), (300, "H"), (70_000, "I")])
    def test_pack_is_the_array_dump_at_every_width(
        self, msi_nonstalling, monkeypatch, bound, typecode
    ):
        """One pack/unpack for all three widths: the bytes of
        ``array(typecode, enc)``, whichever width the bound derives."""
        from repro.system import System, Workload

        monkeypatch.setattr(System, "value_bound", lambda self: bound)
        system = System(msi_nonstalling, num_caches=2,
                        workload=Workload(max_accesses_per_cache=2))
        codec = system.codec()
        assert codec.typecode == typecode
        assert array(typecode).itemsize == codec.lane_bytes
        for state in sample_reachable_states(system, seed=3)[:100]:
            enc = codec.encode(state)
            packed = codec.pack(enc)
            assert packed == array(typecode, enc).tobytes()
            assert codec.unpack(packed) == enc
            cut = codec.net_offset
            assert packed[codec.net_byte_offset:] == codec.pack(enc[cut:])

    def test_a_value_wider_than_its_lane_raises_by_name(self, msi_nonstalling):
        """``struct`` raises where a NumPy cast would wrap; the codec names
        the error so no caller mistakes it for a crash."""
        from repro.system import LaneOverflow, System, Workload

        system = System(msi_nonstalling, num_caches=2,
                        workload=Workload(max_accesses_per_cache=2))
        codec = system.codec()
        enc = codec.unpack(codec.root())
        assert codec.pack(enc[:-1] + (codec.lane_max,))
        with pytest.raises(LaneOverflow, match="8-bit lanes"):
            codec.pack(enc[:-1] + (codec.lane_max + 1,))

    def test_deep_workload_system_still_verifies(self, msi_nonstalling):
        """End to end through the system hook: a workload whose version bound
        crosses the 16-bit range runs on wide lanes and still verifies (tiny
        budget -- the point is the layout, not the coverage)."""
        from repro.system import System, Workload
        from repro.verification import verify

        system = System(msi_nonstalling, num_caches=2,
                        workload=Workload(max_accesses_per_cache=40_000))
        assert system.codec().lane_bytes == 4
        result = verify(system, max_states=200)
        assert result.ok and result.partial
