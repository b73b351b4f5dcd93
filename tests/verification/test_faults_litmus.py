"""The fault-injection and litmus-test workload axes.

Three ``verify()`` axes ride on the same differential-oracle contract as
the rest of the engine -- the compiled kernel must agree bit-identically with
the reference system (``reference_system``, per state, here) and with
``reference_search`` (whole searches: the ``duplicate-``, ``reorder-``,
``two-address-`` and ``litmus-`` rows of ``test_conformance.py``) on every
one of them:

* **fault injection** -- per-channel message duplication and bounded
  adjacent reordering beyond the unordered model
  (:class:`~repro.system.system.FaultModel`);
* **multi-address workloads** -- per-address directory/cache-block planes so
  a search interleaves accesses to independent blocks
  (``System(num_addresses=2)``);
* **litmus tests** -- data values through ``Data`` messages and memory, with
  :class:`~repro.verification.invariants.LitmusInvariant` checking
  final-observed-value outcomes (SB, MP, coRR bundled in
  :mod:`repro.verification.litmus`).

The empirical headline the matrix pins: **every bundled protocol passes all
three litmus tests fault-free, and -- with the generation-level hardening
pass (``GenerationConfig.harden``) -- survives both measured fault classes.**
A duplicated response is absorbed by generated idempotence reactions
(miss-report + directory-side recovery), and a reordered ordered channel no
longer head-of-line-deadlocks the stalling configurations (re-queue
semantics).  This module holds the fault model and its events, the
per-state parity, the residuals that still fail and the symmetry gates (the
duplicate and reorder primitives are the reference network's, tested in
``test_reference_system.py``).  The pre-hardening
counterexamples survive in ``test_fault_regressions.py`` against
``harden=False`` builds.
"""

import pytest

from repro import protocols
from repro.dsl.types import AccessKind
from repro.system import System, Workload
from repro.system.message import Message
from repro.system.network import OrderedNetwork, UnorderedNetwork
from repro.system.system import (
    DeliverMessage,
    DuplicateMessage,
    FaultModel,
    IssueAccess,
    LitmusWorkload,
    ReorderMessage,
)
from repro.verification import LITMUS_TESTS, verify

from reference_system import ReferenceSystem, message_sort_key, reference
from verification_helpers import (
    assert_expansion_parity,
    assert_matches_reference,
    encode_event,
    invariants_for,
    reference_search,
    replay_and_check,
    sample_reachable_states,
    workload_for,
)

ALL_PROTOCOLS = protocols.available_protocols()
ORDERED_PROTOCOLS = [n for n in ALL_PROTOCOLS if n != "MSI-Unordered"]


# ---------------------------------------------------------------------------
# The fault model and its events
# ---------------------------------------------------------------------------


def _msg(mtype="GetS", src=0, dst=-1, vnet=0, data=None):
    return Message(mtype=mtype, src=src, dst=dst, requestor=max(src, 0),
                   vnet=vnet, data=data)


class TestModelValidation:
    def test_fault_model_requires_an_axis(self):
        with pytest.raises(ValueError):
            FaultModel()

    def test_fault_model_rejects_negative_budgets(self):
        with pytest.raises(ValueError):
            FaultModel(duplicate=True, budget=-1)

    def test_litmus_program_count_must_match_caches(self, msi_nonstalling):
        workload = LitmusWorkload(programs=(((AccessKind.LOAD, 0),),))
        with pytest.raises(ValueError):
            System(msi_nonstalling, num_caches=2, workload=workload)

    def test_num_addresses_must_cover_the_programs(self, msi_nonstalling):
        workload = LitmusWorkload(programs=(
            ((AccessKind.LOAD, 1),), ((AccessKind.STORE, 0),),
        ))
        with pytest.raises(ValueError):
            System(msi_nonstalling, num_caches=2, workload=workload,
                   num_addresses=1)

    def test_fault_events_rejected_without_a_fault_model(self, msi_nonstalling):
        system = ReferenceSystem(msi_nonstalling, num_caches=2,
                                 workload=Workload(max_accesses_per_cache=1))
        state = system.initial_state()
        outcome = system.apply(state, DuplicateMessage(message=_msg()))
        assert outcome.error is not None


# ---------------------------------------------------------------------------
# Event codec + symmetry relabeling of fault events
# ---------------------------------------------------------------------------


class TestFaultEventCodecAndRelabel:
    @pytest.fixture()
    def fault_system(self, msi_nonstalling):
        return System(msi_nonstalling, num_caches=2,
                      workload=Workload(max_accesses_per_cache=1),
                      faults=FaultModel(duplicate=True, reorder=True))

    def test_fault_events_round_trip_through_the_codec(self, fault_system):
        codec = fault_system.codec()
        events = [
            DuplicateMessage(message=_msg(mtype=codec.mtypes[0], dst=1, vnet=1)),
            ReorderMessage(src=-1, dst=1, vnet=1, position=2),
        ]
        for event in events:
            assert codec.decode_event(encode_event(codec, event)) == event

    def test_multi_address_events_carry_the_plane(self, msi_nonstalling):
        system = System(msi_nonstalling, num_caches=2,
                        workload=Workload(max_accesses_per_cache=1),
                        num_addresses=2,
                        faults=FaultModel(duplicate=True, reorder=True))
        codec = system.codec()
        events = [
            IssueAccess(cache_id=1, access=AccessKind.STORE, addr=1),
            DeliverMessage(message=_msg(mtype=codec.mtypes[0]), addr=1),
            DuplicateMessage(message=_msg(mtype=codec.mtypes[0]), addr=1),
            ReorderMessage(src=0, dst=-1, vnet=0, position=0, addr=1),
        ]
        for event in events:
            assert codec.decode_event(encode_event(codec, event)) == event

    def test_relabel_permutes_fault_event_endpoints(self, fault_system):
        """A trace's events relabel on their encodings: cache endpoints
        move, the directory and the reorder position stay."""
        codec = fault_system.codec()
        for event, moved in (
            (DuplicateMessage(message=_msg(mtype=codec.mtypes[0], src=0, dst=1)),
             DuplicateMessage(message=_msg(mtype=codec.mtypes[0], src=1, dst=0))),
            (ReorderMessage(src=-1, dst=0, vnet=1, position=3),
             ReorderMessage(src=-1, dst=1, vnet=1, position=3)),
        ):
            eev = codec.relabeled_event(encode_event(codec, event), (1, 0))
            assert codec.decode_event(eev) == moved


# ---------------------------------------------------------------------------
# Expansion parity: kernel vs reference system, per state, per axis
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ALL_PROTOCOLS)
def test_duplication_expansion_parity(all_generated, name):
    system = System(all_generated[(name, "nonstalling")], num_caches=2,
                    workload=workload_for(name),
                    faults=FaultModel(duplicate=True))
    states = sample_reachable_states(system, seed=61 + len(name), walks=6,
                                     max_steps=30)
    assert any(s.faults_used for s in states), "walks never injected a fault"
    for state in states:
        assert_expansion_parity(system, state)


@pytest.mark.parametrize("name", ORDERED_PROTOCOLS)
def test_reorder_expansion_parity(all_generated, name):
    system = System(all_generated[(name, "nonstalling")], num_caches=2,
                    workload=workload_for(name),
                    faults=FaultModel(reorder=True, budget=2))
    states = sample_reachable_states(system, seed=67 + len(name), walks=6,
                                     max_steps=30)
    for state in states:
        assert_expansion_parity(system, state)


@pytest.mark.parametrize("name", ALL_PROTOCOLS)
def test_two_address_expansion_parity(all_generated, name):
    system = System(all_generated[(name, "nonstalling")], num_caches=2,
                    workload=workload_for(name, 1), num_addresses=2)
    states = sample_reachable_states(system, seed=71 + len(name), walks=6,
                                     max_steps=30)
    assert any(
        c.fsm_state != system.protocol.cache.initial
        for s in states for c in s.caches[system.num_caches:]
    ), "walks never touched the second address plane"
    for state in states:
        assert_expansion_parity(system, state)


@pytest.mark.parametrize("name", ALL_PROTOCOLS)
def test_litmus_expansion_parity(all_generated, name):
    from repro.verification import message_passing

    test = message_passing()
    system = System(all_generated[(name, "stalling")], num_caches=2,
                    workload=test.workload)
    states = sample_reachable_states(system, seed=73 + len(name), walks=6,
                                     max_steps=30)
    assert any(reference(system).is_complete(s) for s in states), (
        "walks never completed the litmus programs"
    )
    for state in states:
        assert_expansion_parity(system, state, invariants_for(name, test))


# ---------------------------------------------------------------------------
# The historical layout and the documented fault outcomes
# ---------------------------------------------------------------------------


def test_single_address_fault_free_layout_is_unchanged(msi_nonstalling):
    """The multi-plane/fault-lane codec extensions must be invisible for the
    historical configuration: same encoding, same pinned search."""
    system = System(msi_nonstalling, num_caches=2,
                    workload=Workload(max_accesses_per_cache=2))
    codec = system.codec()
    assert codec.fault_offset is None
    assert codec.net_offset == codec.version_offset + 1
    result = verify(system)
    assert (result.states_explored, result.transitions_explored) == (1702, 3078)


class TestThreeCacheResiduals:
    """The hardened guarantee is the measured 2-cache PR 6 matrix.  At
    three caches two residual classes remain; pin them so a future fix
    flips these knowingly (ROADMAP direction 4)."""

    def test_duplicated_inv_ack_double_count(self, all_generated):
        """A duplicated ``Inv_Ack`` is counted twice by the ack *counter*
        (per-sender bookkeeping would be needed to dedupe), so the storer
        reaches M while an un-invalidated sharer still reads."""
        result = verify(
            System(all_generated[("MSI", "stalling")], num_caches=3,
                   workload=Workload(max_accesses_per_cache=1),
                   faults=FaultModel(duplicate=True)),
        )
        assert not result.ok and not result.deadlock
        assert result.violation is not None and "SWMR" in str(result.violation)
        assert any(line.startswith("duplicate Inv_Ack")
                   for line in result.trace)

    def test_reordered_multi_access_miss_recovery_deadlock(
        self, all_generated
    ):
        """With replacements in play (2 accesses), a reordered ``Put_Ack``
        past a forward leaves the directory in a *later* transaction's
        transient when the earlier transaction's miss report arrives; the
        recovery absorbs it without re-serving the requestor and the
        search deadlocks."""
        result = verify(
            System(all_generated[("MSI", "stalling")], num_caches=3,
                   workload=Workload(max_accesses_per_cache=2),
                   faults=FaultModel(reorder=True)),
        )
        assert not result.ok and result.deadlock

    def test_single_access_three_cache_reorder_passes(self, all_generated):
        """Without replacements the reorder hardening does extend to three
        caches -- the nightly throughput smoke relies on this config."""
        result = verify(
            System(all_generated[("MSI", "stalling")], num_caches=3,
                   workload=Workload(max_accesses_per_cache=1),
                   faults=FaultModel(reorder=True)),
        )
        assert result.ok, result.summary


def test_corr_duplication_aliasing_is_the_documented_residual(all_generated):
    """coRR issues two loads from the same cache; a duplicated
    owner-to-requestor ``Data`` from the first load can satisfy the second
    load's transient after an intervening invalidation (the messages are
    indistinguishable without transaction IDs, which generation-level
    hardening deliberately does not add).  Pin the residual so a future
    tagging scheme flips this test knowingly."""
    test = next(b() for b in LITMUS_TESTS if b().name == "litmus-coRR")
    system = System(all_generated[("MSI", "stalling")], num_caches=2,
                    workload=test.workload, faults=FaultModel(duplicate=True))
    invariants = test.invariants()
    result = verify(system, invariants=invariants)
    assert not result.ok
    assert result.violation is not None
    assert "SWMR" in str(result.violation)
    assert any(line.startswith("duplicate Data") for line in result.trace)
    assert_matches_reference(
        result, reference_search(system, False, invariants=invariants)
    )
    replay_and_check(system, result, invariants)


# ---------------------------------------------------------------------------
# Litmus mutants: each test catches an injected consistency bug
# ---------------------------------------------------------------------------


class StaleDataSystem(ReferenceSystem):
    """Injected consistency bug: deliveries to caches on selected address
    planes carry stale data -- any payload version ``>= min_version`` is
    replaced with the initial value (version 0) just before delivery.

    A ``ReferenceSystem`` subclass: ``verify()`` refuses it (the compiled
    tables would ignore the ``apply`` override), so it runs on
    ``reference_search``,
    which calls the override as written.  The corruption is a deterministic
    function of the delivered message, keeping the state space well-defined.
    """

    def __init__(self, *args, corrupt_addrs, min_version, **kwargs):
        super().__init__(*args, **kwargs)
        self.corrupt_addrs = corrupt_addrs
        self.min_version = min_version

    def apply(self, state, event):
        if (
            isinstance(event, DeliverMessage)
            and event.addr in self.corrupt_addrs
            and event.message.dst >= 0
            and event.message.data is not None
            and event.message.data >= self.min_version
        ):
            from dataclasses import replace as _replace

            stale = _replace(event.message, data=0)
            network = self._plane_network(state, event.addr)
            network = _replace_message(network, event.message, stale)
            state = self._with_plane(state, event.addr, network=network)
            event = DeliverMessage(message=stale, addr=event.addr)
        return super().apply(state, event)


def _replace_message(network, old, new):
    """Swap one in-flight message in place (same channel position)."""
    if isinstance(network, OrderedNetwork):
        channels = []
        replaced = False
        for key, msgs in network.channels:
            if not replaced and old in msgs:
                i = msgs.index(old)
                msgs = msgs[:i] + (new,) + msgs[i + 1:]
                replaced = True
            channels.append((key, msgs))
        assert replaced
        return OrderedNetwork(channels=tuple(channels))
    msgs = list(network.messages)
    msgs[msgs.index(old)] = new
    return UnorderedNetwork(messages=tuple(sorted(msgs, key=message_sort_key)))


def _first_failure(system, invariants):
    """The reference search's verdict on a ``System`` subclass, after
    checking that ``verify()`` refuses it."""
    with pytest.raises(TypeError, match="StaleDataSystem"):
        verify(system, invariants=invariants)
    return reference_search(system, False, invariants=invariants)


class TestLitmusMutantsCatchInjectedBugs:
    def test_sb_catches_stale_reads_of_both_locations(self, msi_stalling):
        from repro.verification import store_buffering

        test = store_buffering()
        system = StaleDataSystem(msi_stalling, num_caches=2,
                                 workload=test.workload,
                                 corrupt_addrs={0, 1}, min_version=1)
        failure = _first_failure(system, test.invariants())
        assert (failure.kind, failure.detail) == ("violation", "litmus-SB")

    def test_mp_catches_stale_data_behind_a_fresh_flag(self, msi_stalling):
        from repro.verification import message_passing

        test = message_passing()
        system = StaleDataSystem(msi_stalling, num_caches=2,
                                 workload=test.workload,
                                 corrupt_addrs={0}, min_version=1)
        failure = _first_failure(system, test.invariants())
        assert (failure.kind, failure.detail) == ("violation", "litmus-MP")

    def test_corr_catches_backwards_reads_via_the_substrate(self, msi_stalling):
        from repro.verification import coherent_read_read

        test = coherent_read_read()
        system = StaleDataSystem(msi_stalling, num_caches=2,
                                 workload=test.workload,
                                 corrupt_addrs={0}, min_version=2)
        failure = _first_failure(system, test.invariants())
        assert failure.kind == "error" and "went backwards" in failure.detail

# ---------------------------------------------------------------------------
# Symmetry: faults compose, litmus and multi-address gate off
# ---------------------------------------------------------------------------


class TestSymmetryComposition:
    """``verify(symmetry=True)`` is the one place symmetry is asked for, and
    it rejects the unsupported combinations with an error naming each.
    Faults compose with it: the reduced fault rows of the conformance
    matrix, ``3c-duplicate-`` and ``3c-reorder-`` among them."""

    def test_multi_address_symmetry_is_rejected(self, msi_nonstalling):
        system = System(msi_nonstalling, num_caches=2,
                        workload=Workload(max_accesses_per_cache=1),
                        num_addresses=2)
        assert not system.supports_symmetry
        with pytest.raises(ValueError, match="num_addresses=2"):
            verify(system, symmetry=True)

    def test_litmus_symmetry_is_rejected(self, msi_nonstalling):
        from repro.verification import store_buffering

        test = store_buffering()
        system = System(msi_nonstalling, num_caches=2, workload=test.workload)
        assert not system.supports_symmetry
        with pytest.raises(ValueError, match="litmus"):
            verify(system, symmetry=True, invariants=test.invariants())

    def test_system_takes_no_symmetry_argument(self, msi_nonstalling):
        with pytest.raises(TypeError, match="symmetry"):
            System(msi_nonstalling, num_caches=3,
                   workload=Workload(max_accesses_per_cache=1), symmetry=True)

    def test_faults_alone_keep_symmetry_support(self, msi_nonstalling):
        system = System(msi_nonstalling, num_caches=2,
                        workload=Workload(max_accesses_per_cache=1),
                        faults=FaultModel(duplicate=True))
        assert system.supports_symmetry

    def test_random_walk_coverage_rejects_unsupported_symmetry(
        self, msi_nonstalling
    ):
        """The coverage count refuses what ``verify`` refuses, with the
        same message naming the combination."""
        from repro.verification import random_walk, store_buffering

        system = System(msi_nonstalling, num_caches=2,
                        workload=Workload(max_accesses_per_cache=1),
                        num_addresses=2)
        with pytest.raises(ValueError, match="unsupported with num_addresses=2"):
            random_walk(system, runs=1, max_steps=5, track_coverage=True)
        test = store_buffering()
        system = System(msi_nonstalling, num_caches=2, workload=test.workload)
        with pytest.raises(ValueError, match="unsupported with a litmus workload"):
            random_walk(system, runs=1, max_steps=5, track_coverage=True,
                        invariants=test.invariants())


# ---------------------------------------------------------------------------
# Partial aborts record their stats (satellite fix pin)
# ---------------------------------------------------------------------------


class TestPartialAbortStats:
    def test_budgeted_abort_still_reports_the_time_split(self, msi_nonstalling):
        system = System(msi_nonstalling, num_caches=2,
                        workload=Workload(max_accesses_per_cache=2))
        result = verify(system, max_states=200)
        assert result.partial and result.ok
        assert result.states_explored == 200
        stats = result.stats
        assert stats["kernel"] == "compiled"
        assert stats["decode_count"] == 0
        assert isinstance(stats["canonicalization_seconds"], float)
        assert isinstance(stats["expansion_seconds"], float)
        assert stats["expansion_seconds"] >= 0.0

    def test_budgeted_abort_on_faulted_search(self, msi_nonstalling):
        system = System(msi_nonstalling, num_caches=2,
                        workload=Workload(max_accesses_per_cache=2),
                        faults=FaultModel(duplicate=True, reorder=True,
                                          budget=2))
        result = verify(system, max_states=50)
        assert result.states_explored == 50
        stats = result.stats
        assert stats["kernel"] == "compiled"
        assert stats["strategy"] == "bfs"
        assert stats["expansion_seconds"] is not None
