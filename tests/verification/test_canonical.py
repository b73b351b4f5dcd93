"""Property-based tests for cache-ID symmetry canonicalization.

Every property is asserted on the pipeline the searches run
(``canonicalizer_for(codec, perms).canonicalize``, through
``production_canonicalize``) and checked against the definition executed as
written (``reference_canonicalize``: the smallest relabeling, first minimum
in permutation order).  Hand-rolled generators (deterministic seeded random
walks over MSI / MESI / MOSI systems) produce random reachable global
states; the properties mirror what Murphi guarantees for scalarsets:

* canonicalization is **idempotent** -- the representative canonicalizes to
  itself under the identity permutation;
* canonicalization is **permutation-invariant** -- every relabeling of a
  state has the same representative;
* canonicalization **preserves invariant verdicts** -- a state and its
  representative agree on every default invariant (same violation name, or
  both clean);
* relabeling is a **group action** -- applying a permutation and then its
  inverse is the identity, and the transition relation commutes with
  relabeling (on the reference system, ``apply(perm(s), perm(e))`` equals
  ``perm(apply(s, e))``).
"""

import pytest

from repro import protocols
from repro.system import System, Workload
from repro.verification.engine.canonical import (
    EncodedCanonicalizer,
    canonicalizer_for,
    compose,
    invert,
)

from reference_system import reference, relabeled, restated, sort_key
from verification_helpers import (
    encode_event,
    encode_packed,
    LATE_ABSORB_STATES,
    has_saved_ids,
    production_canonicalize,
    reference_canonicalize,
    sample_reachable_states,
    workload_for,
)


def _relabeled_event(system, event, perm):
    """*event* relabeled as a trace's are: its encoding, by the codec."""
    codec = system.codec()
    return codec.decode_event(codec.relabeled_event(encode_event(codec, event), perm))


def _system(protocol, num_caches=3):
    return System(protocol, num_caches=num_caches, workload=Workload(max_accesses_per_cache=2))


@pytest.fixture(scope="module", params=["msi", "mesi", "mosi"])
def sampled(request, msi_nonstalling, mesi_nonstalling, mosi_nonstalling):
    protocol = {
        "msi": msi_nonstalling,
        "mesi": mesi_nonstalling,
        "mosi": mosi_nonstalling,
    }[request.param]
    system = _system(protocol)
    states = sample_reachable_states(system, seed=hash(request.param) % 1000)
    return system, states


class TestPermutationAlgebra:
    def test_invert_roundtrip(self):
        perm = (2, 0, 1)
        assert invert(invert(perm)) == perm
        assert compose(perm, invert(perm)) == (0, 1, 2)
        assert compose(invert(perm), perm) == (0, 1, 2)

    def test_compose_applies_inner_first(self):
        inner = (1, 0, 2)
        outer = (2, 0, 1)
        composed = compose(outer, inner)
        assert composed == tuple(outer[inner[i]] for i in range(3))


class TestCanonicalizerConstruction:
    """The canonicalizer takes exactly what ``symmetry_permutations()``
    returns -- the one group every search passes -- and says so instead of
    ranking whatever it is handed."""

    def test_rejects_a_proper_subgroup(self, msi_nonstalling):
        system = _system(msi_nonstalling)
        full = system.symmetry_permutations()
        with pytest.raises(ValueError, match="full symmetric group on the 3 caches"):
            EncodedCanonicalizer(system.codec(), (full[0], full[-1]))

    def test_rejects_a_group_that_does_not_start_with_the_identity(
        self, msi_nonstalling
    ):
        system = _system(msi_nonstalling)
        full = system.symmetry_permutations()
        with pytest.raises(ValueError, match="identity first"):
            EncodedCanonicalizer(system.codec(), full[1:] + full[:1])


@pytest.mark.parametrize("typecode", ["B", "H"])
@pytest.mark.parametrize("num_caches", [3, 4])
@pytest.mark.parametrize("policy", ["nonstalling", "stalling"])
@pytest.mark.parametrize("name", protocols.available_protocols())
def test_packed_representative_and_witness_equal_the_definition(
    all_generated, monkeypatch, name, policy, num_caches, typecode
):
    """The canonicalizer every search runs returns, for a packed key, the
    packed representative *and* the witness the three-line definition names
    on every sampled state of every bundled configuration -- at the bundled
    8-bit lanes and under a codec forced to 16-bit ones, where packed bytes
    no longer order like lanes (compare lanes, emit bytes).  The sample
    must contain what the pipeline treats specially: saved-requestor states
    (permutation-dependent blocks, reached by every nonstalling protocol)
    and MSI-Unordered's late-absorb states."""
    if typecode == "H":
        monkeypatch.setattr(System, "value_bound", lambda self: 300)
    system = System(all_generated[(name, policy)], num_caches=num_caches,
                    workload=workload_for(name))
    codec = system.codec()
    assert codec.typecode == typecode
    perms = system.symmetry_permutations()
    canonicalizer = canonicalizer_for(codec, perms)
    states = sample_reachable_states(
        system, seed=len(name) + num_caches, walks=10, max_steps=50
    )
    if policy == "nonstalling":
        assert any(has_saved_ids(codec, codec.encode(s)) for s in states), (
            "sample never reached a saved-requestor state"
        )
        if name == "MSI-Unordered":
            assert any(
                cache.fsm_state in LATE_ABSORB_STATES
                for s in states for cache in s.caches
            ), "sample never reached a late-absorb state"
    for state in states:
        rep, perm = reference_canonicalize(state, perms)
        assert canonicalizer.canonicalize(encode_packed(codec, state)) == (
            encode_packed(codec, rep), perm
        )


def test_region_records_say_what_the_cache_blocks_alone_decide(msi_nonstalling):
    """A region's record is the cache-key-minimal permutations of its
    blocks, whatever its saved-requestor slots hold: the shared
    ``identity_orbit`` (what the batch path's ``minimal`` mask tests by
    identity) when the identity alone is minimal, ``(winner, relabeled
    region)`` for any other unique winner -- a saved-requestor region used
    to be filed as tied there and relabeled the slow way on every state --
    and the tied candidates otherwise."""
    system = _system(msi_nonstalling)
    codec = system.codec()
    perms = system.symmetry_permutations()
    canonicalizer = canonicalizer_for(codec, perms)
    seen = set()
    for state in sample_reachable_states(system, seed=7, walks=10, max_steps=60):
        enc = codec.encode(state)
        if not has_saved_ids(codec, enc):
            continue
        keys = {p: sort_key(relabeled(state, p))[0] for p in perms}
        minimal = tuple(p for p in perms if keys[p] == min(keys.values()))
        record = canonicalizer.orbit_for(codec.pack(enc[: codec.dir_offset]))
        if len(minimal) > 1:
            assert record == (None, minimal)
            seen.add("tied")
        elif minimal == perms[:1]:
            assert record is canonicalizer.identity_orbit
            seen.add("identity")
        else:
            moved = codec.encode(relabeled(state, minimal[0]))
            assert record == (minimal[0], codec.pack(moved[: codec.dir_offset]))
            seen.add("unique")
    assert seen == {"tied", "identity", "unique"}, "sample missed a record shape"


def test_wide_lanes_are_compared_as_lanes_not_bytes(msi_nonstalling, monkeypatch):
    """At 16 bits a packed block no longer orders like its lanes (256 packs
    as ``00 01``, below 1's ``01 00`` on a little-endian host): blocks are
    sliced and emitted as bytes but ranked by the block table's lanes.  The
    FSM lanes are overwritten with 256 / 1 / 2 so the two orders disagree
    on every sampled region, sorted (saved-free) and ranked (saved) alike;
    encodings are order-isomorphic to sort keys, so the definition is the
    first minimum over the relabeled lane tuples."""
    monkeypatch.setattr(System, "value_bound", lambda self: 300)
    system = _system(msi_nonstalling)
    codec = system.codec()
    assert codec.lane_bytes == 2
    perms = system.symmetry_permutations()
    canonicalizer = canonicalizer_for(codec, perms)
    saved = set()
    for state in sample_reachable_states(system, seed=7, walks=10, max_steps=60):
        lanes = list(codec.encode(state))
        lanes[: codec.dir_offset : codec.cache_width] = (256, 1, 2)
        enc = tuple(lanes)
        saved.add(has_saved_ids(codec, enc))
        perm = min(perms, key=lambda p: codec.relabel_via_tables(enc, p))
        assert canonicalizer.canonicalize(codec.pack(enc)) == (
            codec.pack(codec.relabel_via_tables(enc, perm)), perm
        )
    assert saved == {True, False}


class TestCanonicalizationProperties:
    def test_idempotent(self, sampled):
        system, states = sampled
        perms = system.symmetry_permutations()
        for state in states:
            rep, _ = production_canonicalize(system, state)
            again, perm = production_canonicalize(system, rep)
            assert again == rep
            assert perm == perms[0], "a representative must canonicalize via the identity"

    def test_permutation_invariant(self, sampled):
        system, states = sampled
        perms = system.symmetry_permutations()
        for state in states:
            rep, _ = production_canonicalize(system, state)
            for perm in perms:
                rep2, _ = production_canonicalize(system, relabeled(state, perm))
                assert rep2 == rep

    def test_relabel_roundtrip(self, sampled):
        system, states = sampled
        perms = system.symmetry_permutations()
        for state in states:
            for perm in perms:
                assert relabeled(relabeled(state, perm), invert(perm)) == state

    def test_canonicalize_returns_witness_permutation(self, sampled):
        system, states = sampled
        for state in states:
            rep, perm = production_canonicalize(system, state)
            assert relabeled(state, perm) == rep

    def test_canonical_key_is_minimal(self, sampled):
        """The pipeline (ranking the cache blocks, staged tie-breaks, all on
        encodings) must pick the minimum over all fully-relabeled
        states, and the first permutation that attains it."""
        system, states = sampled
        perms = system.symmetry_permutations()
        for state in states:
            rep, perm = production_canonicalize(system, state)
            assert sort_key(rep) == min(sort_key(relabeled(state, p)) for p in perms)
            assert (rep, perm) == reference_canonicalize(state, perms)

    def test_invariant_verdicts_preserved(self, sampled):
        system, states = sampled
        ref = reference(system)
        for state in states:
            rep, _ = production_canonicalize(system, state)
            for invariant in restated(None):
                original = invariant(ref, state)
                canonical = invariant(ref, rep)
                assert (original is None) == (canonical is None)
                if original is not None:
                    assert original.name == canonical.name


class TestSortedSignaturePrecanonicalization:
    """The 4-cache pipeline: rank the cache blocks -> tie-break.

    The canonicalizer ranks the ``4! = 24`` permutations position by
    position instead of relabeling the state under each; these properties
    pin its exact agreement with the enumeration the definition prescribes
    on random reachable 4-cache states (both sampled and adversarially
    symmetric ones).
    """

    @pytest.fixture(scope="class", params=["stalling", "nonstalling"])
    def four_cache_sampled(self, request, msi_spec):
        from repro.core import GenerationConfig, generate

        config = (
            GenerationConfig.stalling()
            if request.param == "stalling"
            else GenerationConfig.nonstalling()
        )
        protocol = generate(msi_spec, config)
        system = System(
            protocol, num_caches=4, workload=Workload(max_accesses_per_cache=2)
        )
        states = sample_reachable_states(system, seed=2024, walks=10, max_steps=50)
        return system, states

    def test_agrees_with_bruteforce(self, four_cache_sampled):
        system, states = four_cache_sampled
        perms = system.symmetry_permutations()
        for state in states:
            rep, perm = production_canonicalize(system, state)
            assert (rep, perm) == reference_canonicalize(state, perms)
            assert relabeled(state, perm) == rep

    def test_permutation_invariant(self, four_cache_sampled):
        system, states = four_cache_sampled
        perms = system.symmetry_permutations()
        for state in states[:60]:
            rep, _ = production_canonicalize(system, state)
            for perm in perms:
                rep2, _ = production_canonicalize(system, relabeled(state, perm))
                assert rep2 == rep

    def test_idempotent(self, four_cache_sampled):
        system, states = four_cache_sampled
        perms = system.symmetry_permutations()
        for state in states:
            rep, _ = production_canonicalize(system, state)
            again, perm = production_canonicalize(system, rep)
            assert again == rep
            assert perm == perms[0]

    def test_fully_symmetric_state_hits_the_orbit_path(self, four_cache_sampled):
        """The initial state (four identical caches) has the maximal orbit:
        every permutation ties on the cache blocks, so the tie-break must resolve
        to the identity and the state must already be canonical."""
        system, _ = four_cache_sampled
        perms = system.symmetry_permutations()
        initial = reference(system).initial_state()
        rep, perm = production_canonicalize(system, initial)
        assert rep == initial
        assert perm == perms[0]

    def test_saved_requestor_states_fall_back_consistently(self, four_cache_sampled):
        """States whose saved slots hold cache IDs rank translated blocks
        (each permutation's own translation); their representatives must
        still agree across every relabeling."""
        system, states = four_cache_sampled
        perms = system.symmetry_permutations()
        with_saved = [
            s for s in states
            if any(any(v is not None and v >= 0 for v in c.saved) for c in s.caches)
        ][:40]
        for state in with_saved:
            rep, _ = production_canonicalize(system, state)
            for perm in perms[:8]:
                rep2, _ = production_canonicalize(system, relabeled(state, perm))
                assert rep2 == rep


class TestTransitionEquivariance:
    def test_apply_commutes_with_relabeling(self, sampled):
        """apply(perm(s), perm(e)) == perm(apply(s, e)) -- the property that
        makes exploring one representative per orbit sound -- with events
        relabeled on their encodings, as a trace's are."""
        system, states = sampled
        system = reference(system)
        perms = system.symmetry_permutations()
        for state in states[:40]:
            events = system.enabled_events(state)
            for event in events:
                outcome = system.apply(state, event)
                if outcome.error is not None:
                    continue
                for perm in perms:
                    moved = system.apply(
                        relabeled(state, perm), _relabeled_event(system, event, perm)
                    )
                    assert moved.error is None
                    assert moved.state == relabeled(outcome.state, perm)

    def test_enabled_events_equivariant(self, sampled):
        system, states = sampled
        system = reference(system)
        perms = system.symmetry_permutations()
        for state in states[:40]:
            events = set(system.enabled_events(state))
            for perm in perms:
                moved = {_relabeled_event(system, e, perm) for e in events}
                assert set(system.enabled_events(relabeled(state, perm))) == moved
