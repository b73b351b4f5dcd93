"""Tests for the whole-system model: construction and the initial state
(the codec's root key).
What events do, and every predicate over a state, is the kernel's; the
tests hold it to the reference system
(``tests/verification/reference_system.py``)."""

import pytest

from repro.system import OrderedNetwork, System, Workload


@pytest.fixture
def system(msi_nonstalling):
    return System(msi_nonstalling, num_caches=2, workload=Workload(max_accesses_per_cache=2))


def _initial(system):
    codec = system.codec()
    return codec.decode(codec.unpack(codec.root()))


class TestInitialState:
    def test_everything_starts_invalid_and_quiet(self, system):
        state = _initial(system)
        assert all(c.fsm_state == "I" for c in state.caches)
        assert state.directory.fsm_state == "I"
        assert state.network == OrderedNetwork()
        enc = system.codec().encode(state)
        assert system.kernel().is_quiescent(enc)
        assert not system.kernel().is_complete(enc)

    def test_initial_state_is_hashable(self, system):
        assert hash(_initial(system)) == hash(_initial(system))

    def test_at_least_one_cache_required(self, msi_nonstalling):
        with pytest.raises(ValueError):
            System(msi_nonstalling, num_caches=0)


def test_system_holds_no_second_interpretation():
    """The compiled kernel is the one production interpretation of a
    protocol: no object-level executor, event half or predicate is left in
    the package."""
    import importlib

    for name in ("apply", "enabled_events", "is_quiescent", "is_complete",
                 "writers_and_readers", "initial_state"):
        assert not hasattr(System, name), name
    with pytest.raises(ImportError):
        importlib.import_module("repro.system.executor")
