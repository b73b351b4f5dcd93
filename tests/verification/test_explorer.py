"""Tests for the explicit-state model checker (the Murphi stand-in).

Whole searches of the bundled protocols and of the broken ones, held to the
reference search, are the rows of the conformance matrix
(``test_conformance.py``); here, the result's surface and the random walk.
"""

from dataclasses import replace

import pytest

from repro.core import GenerationConfig, generate
from repro.system import System, Workload
from repro.system.node_state import CacheNodeState
from repro.verification import (
    default_invariants,
    random_walk,
    single_owner_invariant,
    swmr_invariant,
    verify,
)

from verification_helpers import (
    MessageDroppingSystem,
    make_missing_inv_mutant,
    make_swmr_mutant,
    make_wedged_mutant,
    reference_walk,
)


@pytest.fixture(scope="module")
def msi_system(msi_nonstalling):
    return System(msi_nonstalling, num_caches=2, workload=Workload(max_accesses_per_cache=2))


class TestVerifyPasses:
    def test_msi_nonstalling_two_caches(self, msi_system):
        result = verify(msi_system)
        assert result.ok
        assert result.states_explored > 1000
        assert result.complete_states > 0
        assert "PASS" in result.summary

    def test_single_cache_is_trivially_safe(self, msi_nonstalling):
        system = System(msi_nonstalling, num_caches=1,
                        workload=Workload(max_accesses_per_cache=3))
        result = verify(system)
        assert result.ok

    def test_truncation_reported(self, msi_system):
        result = verify(msi_system, max_states=10)
        assert result.truncated
        assert result.ok  # nothing wrong found in the prefix


class TestInvariantHelpers:
    def test_default_invariants_include_swmr(self):
        assert swmr_invariant in tuple(default_invariants())
        assert single_owner_invariant in tuple(default_invariants())

    def test_a_state_is_checked_through_its_invariants_code(self, msi_system):
        codec, kernel = msi_system.codec(), msi_system.kernel()
        state = codec.decode(codec.unpack(codec.root()))
        assert kernel.violation(codec.encode(state), swmr_invariant.code) is None
        both = codec.encode(replace(state, caches=(CacheNodeState("M"),) * 2))
        assert kernel.violation(both, swmr_invariant.code)[1].endswith("simultaneously")
        assert kernel.violation(both, single_owner_invariant.code)[0] == "single-owner"
        assert not callable(swmr_invariant)


class TestRandomWalk:
    def test_random_walk_passes_on_msi(self, msi_nonstalling):
        system = System(msi_nonstalling, num_caches=3,
                        workload=Workload(max_accesses_per_cache=2))
        result = random_walk(system, runs=25, max_steps=200, seed=7)
        assert result.ok
        assert result.steps > 0

    def test_random_walk_finds_injected_bug(self, msi_spec):
        generated = generate(msi_spec, GenerationConfig())
        from repro.dsl.types import Permission

        generated.cache.state("IM_AD").permission = Permission.READ_WRITE
        system = System(generated, num_caches=2, workload=Workload(max_accesses_per_cache=2))
        result = random_walk(system, runs=50, max_steps=200, seed=3)
        assert not result.ok
        assert result.violation is not None

    def test_random_walk_is_deterministic_per_seed(self, msi_nonstalling):
        system = System(msi_nonstalling, num_caches=2,
                        workload=Workload(max_accesses_per_cache=1))
        a = random_walk(system, runs=5, max_steps=100, seed=11)
        b = random_walk(system, runs=5, max_steps=100, seed=11)
        assert a.steps == b.steps

    @pytest.mark.parametrize("subject",
                             ["pass", "error", "violation", "deadlock"])
    def test_walk_equals_the_reference_walk(self, msi_spec, msi_nonstalling,
                                            subject):
        """The walk steps the compiled kernel; drawing among its plans --
        which come in the reference system's event order -- makes the same
        choices as a walk over the reference system with the same seed:
        same steps, same failing trace, same error or violation.  A run
        stuck short of complete -- here quiescent, with workload left -- is
        a deadlock, as in ``verify()``."""
        protocol, caches = {
            "pass": (msi_nonstalling, 3),
            "error": (make_missing_inv_mutant(msi_spec), 2),
            "violation": (make_swmr_mutant(msi_spec), 2),
            "deadlock": (make_wedged_mutant(msi_spec), 2),
        }[subject]
        system = System(protocol, num_caches=caches,
                        workload=Workload(max_accesses_per_cache=2))
        result = random_walk(system, runs=20, max_steps=120, seed=13)
        ok, steps, trace, error, violation = reference_walk(
            system, runs=20, max_steps=120, seed=13
        )
        assert (result.ok, result.steps, result.trace, result.error) == (
            ok, steps, trace, error
        )
        assert str(result.violation) == str(violation)
        assert result.ok == (subject == "pass")
        assert result.deadlock == (subject == "deadlock")

    def test_system_subclass_is_refused_like_verify(self, msi_stalling):
        """The walk runs the tables ``verify()`` searches, so a ``System``
        subclass's overrides would be ignored: both refuse it, alike."""
        system = MessageDroppingSystem(
            msi_stalling, num_caches=2,
            workload=Workload(max_accesses_per_cache=1),
            dropped_mtype="GetM",
        )
        with pytest.raises(TypeError, match="MessageDroppingSystem's overrides") as walk:
            random_walk(system, runs=1, max_steps=5)
        with pytest.raises(TypeError) as search:
            verify(system)
        assert str(walk.value) == str(search.value)
