"""Tests for the whole-system model: construction and the initial state.
What events do, and every predicate over a state, is the kernel's; the
tests hold it to the reference system
(``tests/verification/reference_system.py``)."""

import pytest

from repro.system import System, Workload


@pytest.fixture
def system(msi_nonstalling):
    return System(msi_nonstalling, num_caches=2, workload=Workload(max_accesses_per_cache=2))


class TestInitialState:
    def test_everything_starts_invalid_and_quiet(self, system):
        state = system.initial_state()
        assert all(c.fsm_state == "I" for c in state.caches)
        assert state.directory.fsm_state == "I"
        assert state.network.empty
        enc = system.codec().encode(state)
        assert system.kernel().is_quiescent(enc)
        assert not system.kernel().is_complete(enc)

    def test_initial_state_is_hashable(self, system):
        assert hash(system.initial_state()) == hash(system.initial_state())

    def test_at_least_one_cache_required(self, msi_nonstalling):
        with pytest.raises(ValueError):
            System(msi_nonstalling, num_caches=0)


def test_system_holds_no_second_interpretation():
    """The compiled kernel is the one production interpretation of a
    protocol: no object-level executor, event half or predicate is left in
    the package."""
    import importlib

    for name in ("apply", "enabled_events", "is_quiescent", "is_complete",
                 "writers_and_readers"):
        assert not hasattr(System, name), name
    with pytest.raises(ImportError):
        importlib.import_module("repro.system.executor")
