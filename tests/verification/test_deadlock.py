"""Workload-deadlock detection (``verify(..., deadlock=True)``).

A quiescent, canonically-reachable state whose caches still hold unissued
workload budget -- but where no transition is enabled -- can never absorb
the remaining accesses: the protocol has wedged the workload, not just a
message.  The seed explorer counts such states as completed runs, so the
check is **off by default** (keeping the pinned state counts); with
``deadlock=True`` the state is reported as a deadlock failure with a
replayable trace, on every backend and search strategy, at the depth
``reference_search`` finds it.
"""

import pytest

from repro.core import GenerationConfig, generate
from repro.core.fsm import AccessEvent
from repro.dsl.types import AccessKind
from repro.system import System, Workload
from repro.system.system import DuplicateMessage, FaultModel, IssueAccess
from repro.verification import verify

from reference_system import ReferenceSystem, reference
from verification_helpers import (
    assert_matches_reference,
    reference_search,
    set_transitions,
)


def drop_cache_accesses(generated, state: str):
    """Sabotage a generated protocol: remove every core-access transition
    from cache state *state* (mutation in place -- generate freshly)."""
    cache = generated.cache
    set_transitions(cache, (
        t
        for t in cache.transitions()
        if not (t.state == state and isinstance(t.event, AccessEvent))
    ))
    return generated


@pytest.fixture(scope="module")
def wedged_msi(msi_spec):
    """MSI whose caches can never issue an access out of stable S: a cache
    that loaded once parks in S with budget left and nothing enabled."""
    return drop_cache_accesses(generate(msi_spec, GenerationConfig()), "S")


def _system(generated, num_caches=2):
    return System(generated, num_caches=num_caches,
                  workload=Workload(max_accesses_per_cache=2,
                                    access_kinds=(AccessKind.LOAD,
                                                  AccessKind.STORE)))


MODES = [
    dict(),
    dict(kernel="vectorized"),
    dict(symmetry=True),
    dict(symmetry=True, strategy="parallel", processes=2),
]


@pytest.mark.parametrize("mode", MODES, ids=lambda m: "-".join(
    f"{k}={v}" for k, v in m.items()) or "compiled")
def test_workload_deadlock_reported_with_replayable_trace(wedged_msi, mode):
    system = _system(wedged_msi)
    result = verify(system, deadlock=True, **mode)
    assert not result.ok and result.deadlock
    assert result.trace, "a counterexample trace must be reported"
    # Replay: the trace must land in a quiescent state with no enabled
    # transitions while some cache still holds unissued budget.
    system = reference(system)
    state = system.initial_state()
    for event in result.trace_events:
        assert event in system.enabled_events(state)
        outcome = system.apply(state, event)
        assert outcome.error is None
        state = outcome.state
    assert system.is_quiescent(state)
    assert not system.enabled_events(state)
    assert any(c.issued < system.workload.max_accesses_per_cache
               for c in state.caches)


def test_workload_deadlock_off_by_default(wedged_msi):
    """Without the flag, the wedged runs count as complete (seed behaviour)."""
    result = verify(_system(wedged_msi))
    assert result.ok and result.complete_states > 0


@pytest.mark.parametrize("symmetry", [False, True])
def test_workload_deadlock_point_matches_the_reference(wedged_msi, symmetry):
    system = _system(wedged_msi)
    result = verify(system, deadlock=True, symmetry=symmetry)
    expected = reference_search(system, symmetry, deadlock=True)
    assert expected.kind == "deadlock"
    assert_matches_reference(result, expected)


def test_deadlock_flag_keeps_counts_on_correct_protocols(msi_nonstalling):
    """On a correct protocol the stricter check never fires, so the pinned
    exploration is untouched."""
    system = System(msi_nonstalling, num_caches=2,
                    workload=Workload(max_accesses_per_cache=2))
    plain = verify(system)
    strict = verify(system, deadlock=True)
    assert plain.ok and strict.ok
    assert strict.states_explored == plain.states_explored == 1702
    assert strict.transitions_explored == plain.transitions_explored


class TestFaultBudgetVsWorkloadDeadlock:
    """Fault-budget exhaustion must never masquerade as a workload deadlock.

    The classification (``is_quiescent`` / ``is_complete``) depends only on
    the network and the workload, never on ``faults_used``: a quiescent
    completed run whose fault budget is burnt (or unspent) is a completed
    run, and a genuinely wedged workload is still a deadlock when a fault
    model is attached."""

    @pytest.mark.parametrize(
        "faults",
        [
            FaultModel(duplicate=True),
            FaultModel(reorder=True),
            FaultModel(duplicate=True, reorder=True, budget=2),
        ],
        ids=["duplicate", "reorder", "both"],
    )
    def test_budget_exhausted_quiescence_counts_as_complete(
        self, msi_stalling, faults
    ):
        system = System(msi_stalling, num_caches=2,
                        workload=Workload(max_accesses_per_cache=1),
                        faults=faults)
        result = verify(system, deadlock=True)
        assert result.ok and not result.deadlock, result.summary
        assert result.complete_states > 0
        assert_matches_reference(
            result, reference_search(system, False, deadlock=True)
        )

    def test_exhausted_budget_replay_is_complete_not_deadlocked(
        self, msi_nonstalling
    ):
        """Drive one run to quiescence with the whole budget burnt and check
        the classifier state by state."""
        system = ReferenceSystem(msi_nonstalling, num_caches=2,
                                 workload=Workload(max_accesses_per_cache=1,
                                                   access_kinds=(AccessKind.LOAD,)),
                                 faults=FaultModel(duplicate=True))

        def step(state, pred):
            for event in system.enabled_events(state):
                if pred(event):
                    outcome = system.apply(state, event)
                    assert outcome.error is None, outcome.error
                    return outcome.state
            raise AssertionError("expected event not enabled")

        state = system.initial_state()
        state = step(state, lambda e: isinstance(e, IssueAccess)
                     and e.cache_id == 0)
        state = step(state, lambda e: not isinstance(
            e, (IssueAccess, DuplicateMessage)))
        # Burn the budget on the directory's Data response, deliver both
        # copies (the second is absorbed by the hardened cache).
        state = step(state, lambda e: isinstance(e, DuplicateMessage))
        assert state.faults_used == 1
        while not system.is_quiescent(state):
            state = step(state, lambda e: not isinstance(e, IssueAccess))
        state = step(state, lambda e: isinstance(e, IssueAccess)
                     and e.cache_id == 1)
        while not system.is_quiescent(state):
            state = step(state, lambda e: True)
        # Quiescent, workload done, budget exhausted: a completed run.
        assert state.faults_used == 1
        assert system.enabled_events(state) == []
        assert system.is_complete(state)

    def test_wedged_workload_still_deadlocks_under_fault_injection(
        self, wedged_msi
    ):
        system = System(wedged_msi, num_caches=2,
                        workload=Workload(max_accesses_per_cache=2,
                                          access_kinds=(AccessKind.LOAD,
                                                        AccessKind.STORE)),
                        faults=FaultModel(duplicate=True))
        result = verify(system, deadlock=True)
        assert not result.ok and result.deadlock
