"""Tests for the whole-system model: construction and the predicates over
decoded states.  What events do is the kernel's; the tests hold it to the
reference system (``tests/verification/reference_system.py``)."""

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
        assert system.is_quiescent(state)
        assert not system.is_complete(state)

    def test_initial_state_is_hashable(self, system):
        assert hash(system.initial_state()) == hash(system.initial_state())

    def test_at_least_one_cache_required(self, msi_nonstalling):
        with pytest.raises(ValueError):
            System(msi_nonstalling, num_caches=0)


class TestPermissions:
    def test_writers_and_readers(self, system):
        state = system.initial_state()
        writers, readers = system.writers_and_readers(state)
        assert writers == [] and readers == []


def test_system_holds_no_second_interpretation():
    """The compiled kernel is the one production interpretation of a
    protocol: no object-level executor or event half is left in the
    package."""
    import importlib

    assert not hasattr(System, "apply")
    assert not hasattr(System, "enabled_events")
    with pytest.raises(ImportError):
        importlib.import_module("repro.system.executor")
