"""Property-based tests over the generator and the execution substrate."""

from hypothesis import example, given, settings, strategies as st

from repro import protocols
from repro.core import GenerationConfig, generate
from repro.core.preprocess import forwarded_arrival_states, preprocess
from repro.dsl.types import AccessKind, Permission
from repro.system import System, Workload
from repro.verification import single_owner_invariant, verify
from repro.verification.random_walk import random_walk


_protocol_names = st.sampled_from(protocols.available_protocols())
_configs = st.sampled_from(
    [
        GenerationConfig.nonstalling(),
        GenerationConfig.nonstalling(immediate=False),
        GenerationConfig.stalling(),
        GenerationConfig(pending_transaction_limit=1),
        GenerationConfig(merge_equivalent_states=False),
        GenerationConfig(allow_transient_accesses=False),
    ]
)


class TestGeneratorProperties:
    @given(name=_protocol_names, config=_configs)
    @settings(max_examples=25, deadline=None)
    def test_preprocessing_invariant_holds_for_every_generated_protocol(self, name, config):
        generated = generate(protocols.load(name), config)
        spec = generated.source_spec
        arrival = forwarded_arrival_states(spec)
        from repro.core.context import compute_silent_classes

        silent = compute_silent_classes(spec)

        def class_of(state):
            for cls in silent:
                if state in cls:
                    return cls
            return frozenset({state})

        for message, states in arrival.items():
            classes = {class_of(s) for s in states}
            assert len(classes) <= 1, f"{message} arrives in {states}"

    @given(name=_protocol_names, config=_configs)
    @settings(max_examples=25, deadline=None)
    def test_transient_permission_is_meet_of_endpoints(self, name, config):
        generated = generate(protocols.load(name), config)
        spec = generated.source_spec
        stable_permission = {s.name: s.permission for s in spec.cache.states.values()}
        for state in generated.cache.transient_states():
            if not config.allow_transient_accesses:
                assert state.permission is Permission.NONE
                continue
            start = state.meta.get("start")
            if start in stable_permission:
                assert state.permission <= stable_permission[start]

    @given(name=_protocol_names, config=_configs)
    @settings(max_examples=25, deadline=None)
    def test_every_state_set_member_is_a_stable_state(self, name, config):
        generated = generate(protocols.load(name), config)
        stable = {s.name for s in generated.cache.stable_states()}
        for state in generated.cache.states():
            assert set(state.state_sets) <= stable

    @given(name=_protocol_names)
    @settings(max_examples=10, deadline=None)
    def test_generation_is_deterministic(self, name):
        first = generate(protocols.load(name), GenerationConfig())
        second = generate(protocols.load(name), GenerationConfig())
        assert sorted(first.cache.state_names()) == sorted(second.cache.state_names())
        assert first.cache.num_transitions == second.cache.num_transitions

    @given(name=_protocol_names)
    @settings(max_examples=10, deadline=None)
    def test_preprocessing_idempotent(self, name):
        once = preprocess(protocols.load(name))
        twice = preprocess(once.spec)
        assert twice.renamings == {}


class TestRandomScheduleProperties:
    """Random schedules over the generated MSI protocol never violate the
    invariants, for arbitrary seeds and small workload shapes."""

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        accesses=st.integers(min_value=1, max_value=3),
        caches=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=20, deadline=None)
    def test_msi_random_walks_hold_invariants(self, seed, accesses, caches):
        generated = generate(protocols.load("MSI"), GenerationConfig())
        system = System(
            generated, num_caches=caches,
            workload=Workload(max_accesses_per_cache=accesses),
        )
        result = random_walk(system, runs=3, max_steps=150, seed=seed)
        assert result.ok, result.summary

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=10, deadline=None)
    def test_tso_cc_random_walks_hold_ownership_invariants(self, seed):
        generated = generate(protocols.load("TSO-CC"), GenerationConfig())
        system = System(generated, num_caches=3,
                        workload=Workload(max_accesses_per_cache=2))
        result = random_walk(
            system, runs=3, max_steps=150, seed=seed,
            invariants=[single_owner_invariant],
        )
        assert result.ok, result.summary


class TestWorkloadShapeProperties:
    @given(
        accesses=st.integers(min_value=1, max_value=2),
        kinds=st.sets(
            st.sampled_from([AccessKind.LOAD, AccessKind.STORE, AccessKind.REPLACEMENT]),
            min_size=1,
        ),
    )
    @example(accesses=1, kinds={AccessKind.REPLACEMENT})
    @settings(max_examples=8, deadline=None)
    def test_msi_verifies_for_any_small_workload_shape(self, accesses, kinds):
        """MSI passes on every shape but one: replacements alone.  No state
        issues a replacement from I, so the root is stuck with budget left
        -- a deadlock, as Murphi reports it, at the root."""
        generated = generate(protocols.load("MSI"), GenerationConfig())
        system = System(
            generated,
            num_caches=2,
            workload=Workload(max_accesses_per_cache=accesses, access_kinds=tuple(kinds)),
        )
        result = verify(system)
        if kinds == {AccessKind.REPLACEMENT}:
            assert (result.ok, result.deadlock, result.states_explored,
                    result.transitions_explored, result.trace) == (
                False, True, 1, 0, []), result.summary
        else:
            assert result.ok, result.summary
