"""Workload deadlocks: a stuck state is a deadlock unless it is complete.

A quiescent, canonically-reachable state whose caches still hold unissued
workload budget -- but where no transition is enabled -- can never absorb
the remaining accesses: the protocol has wedged the workload, not just a
message.  As in Murphi, no flag is needed to see it: every search reports
it as a deadlock failure with a replayable trace, on every backend and
search strategy, at the depth ``reference_search`` finds it, and
``random_walk`` fails on it too (``test_explorer.py``).  On a correct
protocol the rule never fires, so the pinned counts stand.
"""

import pytest

from repro.dsl.types import AccessKind
from repro.system import System, Workload
from repro.system.system import DuplicateMessage, FaultModel, IssueAccess
from repro.verification import verify

from reference_system import ReferenceSystem, reference
from verification_helpers import (
    assert_matches_reference,
    make_wedged_mutant,
    reference_search,
)


@pytest.fixture(scope="module")
def wedged_msi(msi_spec):
    """MSI whose caches can never issue an access out of stable S: a cache
    that loaded once parks in S with budget left and nothing enabled."""
    return make_wedged_mutant(msi_spec)


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
    result = verify(system, **mode)
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


def test_default_search_reports_the_wedged_workload(wedged_msi):
    """No keyword asks for it: the default search fails on the wedged runs
    instead of counting them complete."""
    result = verify(_system(wedged_msi))
    assert not result.ok and result.deadlock, result.summary
    assert result.trace


@pytest.mark.parametrize("symmetry", [False, True])
def test_workload_deadlock_point_matches_the_reference(wedged_msi, symmetry):
    system = _system(wedged_msi)
    result = verify(system, symmetry=symmetry)
    expected = reference_search(system, symmetry)
    assert expected.kind == "deadlock"
    assert_matches_reference(result, expected)


def test_leaf_rule_keeps_the_seed_pin_on_a_correct_protocol(msi_nonstalling):
    """On a correct protocol the rule never fires: every stuck state is
    complete, so the seed explorer's pin stands."""
    system = System(msi_nonstalling, num_caches=2,
                    workload=Workload(max_accesses_per_cache=2))
    result = verify(system)
    assert result.ok and result.complete_states > 0, result.summary
    assert (result.states_explored, result.transitions_explored) == (1702, 3078)


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
        result = verify(system)
        assert result.ok and not result.deadlock, result.summary
        assert result.complete_states > 0
        assert_matches_reference(result, reference_search(system, False))

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
        result = verify(system)
        assert not result.ok and result.deadlock
