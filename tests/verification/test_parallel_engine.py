"""Shared-memory parallel engine: forced spin-up correctness suite.

The engine only forks its worker fleet once a frontier crosses
``POOL_SPINUP_FRONTIER``; these tests pin the threshold to 0 so every
search -- even the small two-cache spaces the fast tier can afford --
actually exercises the owner-computes rounds (hash-partitioned levels,
bucket arenas, owner dedup, link columns) and the sharded checkpoint,
rather than the in-process warm-up path.

Contracts under test:

* count parity with the serial engine across the symmetry / hash-compaction
  / kernel / spill axes and two fleet sizes (the engine shares the serial
  search's canonical frames, so states, transitions and complete-state
  counts must match exactly);
* failure verdicts (protocol error, SWMR violation, deadlock) survive the
  fleet: the winning counterexample replays step-by-step through
  ``System.apply``.  Which equal-depth counterexample wins differs from the
  serial run's after sharded dedup, so traces are replay-verified rather
  than compared to it;
* determinism: nothing is claimed or stolen, so two runs at one worker
  count agree on per-worker counts, every stored trace link and every
  failure trace;
* cold visited-set partitions spill to disk when a ``spill_dir`` is given
  (forced here with a tiny threshold) without changing any count;
* a sharded checkpoint resumes under a *different* worker count -- the
  digest dumps are re-sharded on seed and the pending pairs re-dealt by
  owner -- and still lands on the serial totals;
* robustness: a worker killed outright ends the search with an error
  naming it, and no run -- passing, failing or killed -- leaves a child
  process or a ``/dev/shm`` segment behind.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro.system import System, Workload
from repro.verification import verify
from repro.verification.engine import parallel as parallel_mod
from repro.verification.engine import search as search_mod
from repro.verification.engine.shard import SpillableKeySet

from verification_helpers import (
    MessageDroppingSystem,
    make_missing_inv_mutant,
    make_swmr_mutant,
    replay_and_check,
)


@pytest.fixture(autouse=True)
def force_spinup(monkeypatch):
    monkeypatch.setattr(search_mod, "POOL_SPINUP_FRONTIER", 0)


@pytest.fixture(scope="module")
def msi_missing_inv_mutant(msi_spec):
    return make_missing_inv_mutant(msi_spec)


@pytest.fixture(scope="module")
def msi_swmr_mutant(msi_spec):
    return make_swmr_mutant(msi_spec)


def forced_parallel(system, **kwargs):
    kwargs.setdefault("processes", 2)
    result = verify(system, strategy="parallel", **kwargs)
    if result.strategy != "parallel":  # fork unavailable: serial fallback
        pytest.skip("parallel strategy unavailable on this platform")
    return result


PARITY_MODES = [
    dict(),
    dict(symmetry=True),
    dict(hash_compaction=True),
    dict(symmetry=True, hash_compaction=True),
    dict(kernel="object"),
    dict(spill_dir=True),  # stands for the test's tmp_path
]


@pytest.mark.parametrize("processes", [2, 3])
@pytest.mark.parametrize("mode", PARITY_MODES, ids=lambda m: "-".join(
    f"{k}={v}" for k, v in m.items()) or "compiled")
def test_forked_search_matches_serial_counts(msi_nonstalling, tmp_path, mode,
                                             processes):
    system = System(msi_nonstalling, num_caches=2,
                    workload=Workload(max_accesses_per_cache=2))
    mode = dict(mode)
    fleet_only = {"spill_dir": str(tmp_path)} if mode.pop("spill_dir", None) else {}
    serial = verify(system, **mode)
    result = forced_parallel(system, processes=processes, **mode, **fleet_only)

    assert result.ok == serial.ok is True
    assert result.states_explored == serial.states_explored
    assert result.transitions_explored == serial.transitions_explored
    assert result.complete_states == serial.complete_states
    assert len(result.stats["worker_states"]) == processes
    assert sum(result.stats["worker_states"]) > 0


def test_default_fleet_size_follows_schedulable_cores(msi_nonstalling,
                                                      monkeypatch):
    """Without ``processes`` the fleet is sized from the cores this process
    may run on (affinity/cgroup aware), not from the host's CPU count."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    system = System(msi_nonstalling, num_caches=2,
                    workload=Workload(max_accesses_per_cache=1))
    result = forced_parallel(system, processes=None)
    assert result.ok
    assert len(result.stats["worker_states"]) == 3


def failing_twice(system):
    """The fleet's verdict on a broken *system* -- reached twice: nothing is
    claimed or stolen, so the second run must report the very same trace."""
    result, again = (forced_parallel(system, symmetry=True) for _ in range(2))
    assert not result.ok and result.trace, "a counterexample must be reported"
    assert again.trace == result.trace
    return result


class TestForkedFailureVerdicts:
    def test_protocol_error_trace(self, msi_missing_inv_mutant):
        system = System(msi_missing_inv_mutant, num_caches=2,
                        workload=Workload(max_accesses_per_cache=2))
        result = failing_twice(system)
        assert result.error is not None
        replay_and_check(system, result)

    def test_invariant_violation_trace(self, msi_swmr_mutant):
        system = System(msi_swmr_mutant, num_caches=2,
                        workload=Workload(max_accesses_per_cache=2))
        result = failing_twice(system)
        assert result.violation is not None
        assert result.violation.name == "SWMR"
        replay_and_check(system, result)

    def test_deadlock_trace(self, msi_stalling):
        """The dropped-message system overrides ``enabled_events``, which
        pushes the workers onto the object executor -- the fleet's
        decode-and-apply fallback gets exercised too."""
        system = MessageDroppingSystem(
            msi_stalling, num_caches=2,
            workload=Workload(max_accesses_per_cache=1),
            dropped_mtype="GetM",
        )
        result = failing_twice(system)
        assert result.deadlock
        replay_and_check(system, result)


def test_spill_dir_bounds_shards_without_changing_counts(
        msi_nonstalling, tmp_path, monkeypatch):
    """A tiny spill threshold forces every worker shard onto the cold tier;
    membership answers must come back from the sorted disk runs with the
    same totals, and the spilled bytes must be reported."""
    class TinySpill(SpillableKeySet):
        def __init__(self, spill_dir=None, **kwargs):
            kwargs.setdefault("spill_threshold", 64)
            super().__init__(spill_dir, **kwargs)

    monkeypatch.setattr(parallel_mod, "SpillableKeySet", TinySpill)
    system = System(msi_nonstalling, num_caches=2,
                    workload=Workload(max_accesses_per_cache=2))
    serial = verify(system, symmetry=True, hash_compaction=True)
    result = forced_parallel(system, symmetry=True, hash_compaction=True,
                             spill_dir=str(tmp_path))

    assert result.ok
    assert result.states_explored == serial.states_explored
    assert result.transitions_explored == serial.transitions_explored
    assert result.complete_states == serial.complete_states
    assert result.stats["spill_bytes"] > 0


def test_sharded_checkpoint_resumes_under_different_worker_count(
        msi_nonstalling, tmp_path):
    """The checkpoint carries worker digest dumps, not a key dict; seeding
    re-shards them, so leg 2 may run a different fleet size than leg 1 and
    must still land on the uninterrupted totals."""
    system = System(msi_nonstalling, num_caches=2,
                    workload=Workload(max_accesses_per_cache=2))
    serial = verify(system, symmetry=True)
    path = str(tmp_path / "run.ckpt")

    cut = max(2, serial.states_explored // 2)
    leg = forced_parallel(system, symmetry=True, max_states=cut,
                          checkpoint=path)
    assert leg.partial and leg.ok
    assert os.path.exists(path), "the budgeted leg must persist a checkpoint"

    result = forced_parallel(system, symmetry=True, processes=3,
                             max_states=10 ** 6, checkpoint=path)
    assert result.ok and not result.partial
    assert result.stats["resume_level"] is not None
    assert result.states_explored == serial.states_explored
    assert result.transitions_explored == serial.transitions_explored
    assert result.complete_states == serial.complete_states
    assert len(result.stats["worker_states"]) == 3
    assert not os.path.exists(path), "a completed run consumes its checkpoint"


# -- determinism ---------------------------------------------------------------


@pytest.mark.parametrize("processes", [2, 3])
def test_passing_runs_repeat_exactly(msi_nonstalling, explorations, processes):
    """The hash partition is the work split: per-worker counts and every
    stored trace link (hence every state ID) repeat from run to run."""
    system = System(msi_nonstalling, num_caches=2,
                    workload=Workload(max_accesses_per_cache=2))
    runs = [forced_parallel(system, symmetry=True, processes=processes)
            for _ in range(2)]
    first, second = (ctx.store for ctx in explorations[-2:])
    assert runs[0].stats["worker_states"] == runs[1].stats["worker_states"]
    assert runs[0].stats["round_count"] == runs[1].stats["round_count"]
    assert len(first) == len(second) == runs[0].states_explored
    assert all(first.link(i) == second.link(i) for i in range(len(first)))


# -- budget, retained objects --------------------------------------------------


def test_budget_clip_past_spinup_ends_partial(msi_nonstalling):
    """Without a checkpoint the level that crosses the budget is clipped:
    the owners expand prefixes of their levels summing to what is left."""
    system = System(msi_nonstalling, num_caches=2,
                    workload=Workload(max_accesses_per_cache=2))
    budget = 700
    result = forced_parallel(system, max_states=budget)
    assert result.ok and result.partial
    assert 0 < result.states_explored <= budget
    assert sum(result.stats["worker_states"]) <= budget
    assert result.stats["round_count"] > 1, "the clip must land past spin-up"


def test_fleet_level_is_per_owner_counts(msi_nonstalling, monkeypatch):
    """Past spin-up the parent holds no state: the level the driver loops
    over is one count per owner, and the engine owns no input arena and no
    claim cursor."""
    seen = []
    real_expand = parallel_mod.ShmEngine.expand

    def spying_expand(engine, level):
        seen.append((engine, level))
        return real_expand(engine, level)

    monkeypatch.setattr(parallel_mod.ShmEngine, "expand", spying_expand)
    system = System(msi_nonstalling, num_caches=2,
                    workload=Workload(max_accesses_per_cache=2))
    result = forced_parallel(system, processes=3)
    assert result.ok and len(seen) == result.stats["round_count"]
    widest = max(len(level) for _engine, level in seen)
    assert widest > 100, "the space must be wide enough to tell"
    for engine, level in seen:
        assert not isinstance(level, (list, tuple))
        assert len(level.counts) == 3 and sum(level.counts) == len(level)
        assert all(isinstance(count, int) for count in level.counts)
        for gone in ("input_arena", "claim", "claim_lock"):
            assert not hasattr(engine, gone)


@pytest.mark.parametrize("kernel", ["compiled", "object"])
def test_spinup_hands_the_fleet_the_whole_level(msi_nonstalling, monkeypatch,
                                                kernel):
    """The compiled expander's ``lower`` is the identity, so the level the
    lazy fleet clears and the frontier it deals out must not be one list
    (cleared first, the search ended at spin-up with idle workers)."""
    monkeypatch.setattr(search_mod, "POOL_SPINUP_FRONTIER", 50)
    dealt = []
    real_lift = parallel_mod.ShmEngine.lift

    def spying_lift(engine, pairs):
        dealt.append(list(pairs))
        return real_lift(engine, pairs)

    monkeypatch.setattr(parallel_mod.ShmEngine, "lift", spying_lift)
    system = System(msi_nonstalling, num_caches=2,
                    workload=Workload(max_accesses_per_cache=2))
    result = forced_parallel(system, kernel=kernel)
    assert result.ok and result.states_explored == 1702
    (pairs,) = dealt
    assert len(pairs) > 50
    assert all(type(sid) is int and type(key) is bytes for sid, key in pairs)
    assert sum(result.stats["worker_states"]) > len(pairs)


@pytest.mark.parametrize("kernel", ["compiled", "object"])
def test_owners_check_foreign_states_through_the_expander_seam(
        msi_swmr_mutant, explorations, kernel):
    """An owner holds a foreign successor only as its packed key; it lifts
    the key and hands the payload to ``violation`` -- one call that suits
    both per-state expanders (a key for the compiled one, a decoded state
    for the object one), so the worker never branches on the backend."""
    from repro.verification.engine.driver import per_state_expander

    system = System(msi_swmr_mutant, num_caches=2,
                    workload=Workload(max_accesses_per_cache=2))
    result = forced_parallel(system, kernel=kernel)
    assert not result.ok and result.violation.name == "SWMR"
    replay_and_check(system, result)

    ctx = explorations[-1]
    state = system.initial_state()
    for event in result.trace_events:
        state = system.apply(state, event).state
    expander = per_state_expander(ctx)
    assert type(expander).__name__ == (
        "CompiledExpander" if kernel == "compiled" else "ObjectExpander"
    )
    for packed, violated in ((ctx.root_key, False),
                             (ctx.codec.encode_packed(state), True)):
        ((position, payload),) = expander.lift([(7, packed)])
        assert position == 7
        violation = expander.violation(payload)
        assert (violation is not None) == violated
    assert violation.name == "SWMR"


# -- robustness: dead workers, leaked segments ---------------------------------


def shm_listing():
    if not os.path.isdir("/dev/shm"):
        pytest.skip("no /dev/shm on this platform")
    return sorted(os.listdir("/dev/shm"))


def kill_a_worker_in_round(monkeypatch, round_no):
    """SIGKILL worker 0 as round *round_no* begins (it is idle then, and the
    parent has been told of its bucket arena)."""
    real_round = parallel_mod.ShmEngine._round

    def killing_round(engine, level):
        if engine.ctx.round_count == round_no - 1:
            os.kill(engine.procs[0].pid, signal.SIGKILL)
        return real_round(engine, level)

    monkeypatch.setattr(parallel_mod.ShmEngine, "_round", killing_round)


def test_killed_worker_ends_the_search_with_a_named_error(
        msi_nonstalling, monkeypatch):
    kill_a_worker_in_round(monkeypatch, 3)
    system = System(msi_nonstalling, num_caches=2,
                    workload=Workload(max_accesses_per_cache=2))
    started = time.monotonic()
    with pytest.raises(RuntimeError, match=r"worker 0 died .*exit code -9"):
        forced_parallel(system)
    assert time.monotonic() - started < 30, "a dead worker must not hang verify"
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("run", ["passing", "failing", "killed"])
def test_no_shared_memory_segment_outlives_a_run(
        msi_nonstalling, msi_swmr_mutant, monkeypatch, run):
    """Workers unlink their own arenas on the way out; the parent unlinks
    what a killed (or terminated) one left behind."""
    before = shm_listing()
    generated = msi_swmr_mutant if run == "failing" else msi_nonstalling
    system = System(generated, num_caches=2,
                    workload=Workload(max_accesses_per_cache=2))
    if run == "killed":
        kill_a_worker_in_round(monkeypatch, 3)
        with pytest.raises(RuntimeError, match="died"):
            forced_parallel(system)
    else:
        assert forced_parallel(system).ok == (run == "passing")
    assert multiprocessing.active_children() == []
    assert shm_listing() == before
