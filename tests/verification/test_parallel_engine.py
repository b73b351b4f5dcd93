"""Shared-memory parallel engine: correctness suite.

``strategy="parallel"`` forks its worker fleet before the first level, so
even the small two-cache spaces the fast tier can afford exercise the
owner-computes rounds (hash-partitioned levels, bucket arenas, owner dedup,
link columns).

Contracts under test (count parity with ``reference_search`` and failure
verdicts -- a protocol error, an SWMR violation, a deadlock -- on every
axis, replay-verified and repeated run to run, are the ``fleet`` rows of
the conformance matrix, ``test_conformance.py``):

* determinism: nothing is claimed or stolen, so two runs at one worker
  count agree on per-worker counts and every stored trace link;
* asking for the fleet gets the fleet or an error, never a serial search
  in its place: one worker is a one-worker fleet, and no worker, a
  checkpoint path or a platform without ``fork`` raise before anything
  forks, while BFS and DFS ignore ``processes``;
* robustness: a worker killed outright ends the search with an error
  naming it, and no run -- passing, failing, killed or interrupted in the
  parent -- leaves a child process or a ``/dev/shm`` segment behind.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro.system import System, Workload
from repro.verification import verify
from repro.verification.engine import parallel as parallel_mod
from repro.verification.engine.driver import CompiledExpander

from reference_system import reference
from verification_helpers import DECODED, encode_packed, make_swmr_mutant, replay_and_check


@pytest.fixture(scope="module")
def msi_swmr_mutant(msi_spec):
    return make_swmr_mutant(msi_spec)


def on_the_fleet(system, **kwargs):
    kwargs.setdefault("processes", 2)
    return verify(system, strategy="parallel", **kwargs)


def test_asking_for_workers_forks_them_from_the_root(msi_nonstalling):
    """The fleet runs every level, the root's included: one round per BFS
    level of the space, every state expanded on a worker, and -- the worker
    CPU sum not being comparable with the parent's wall-clock -- no
    expansion split."""
    system = System(msi_nonstalling, num_caches=2,
                    workload=Workload(max_accesses_per_cache=2))
    result = on_the_fleet(system)
    assert result.ok
    assert (result.states_explored, result.transitions_explored) == (1702, 3078)
    assert sum(result.stats["worker_states"]) == 1702
    assert result.stats["round_count"] == 19
    assert result.stats["expansion_seconds"] is None


def test_default_fleet_size_follows_schedulable_cores(msi_nonstalling,
                                                      monkeypatch):
    """Without ``processes`` the fleet is sized from the cores this process
    may run on (affinity/cgroup aware), not from the host's CPU count."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    system = System(msi_nonstalling, num_caches=2,
                    workload=Workload(max_accesses_per_cache=1))
    result = on_the_fleet(system, processes=None)
    assert result.ok
    assert len(result.stats["worker_states"]) == 3


# -- the fleet or an error -----------------------------------------------------


def test_one_worker_is_a_one_worker_fleet(msi_nonstalling):
    """``processes=1`` forks one worker that owns every digest; the result
    is the fleet's, not a serial search's under another name."""
    system = System(msi_nonstalling, num_caches=2,
                    workload=Workload(max_accesses_per_cache=2))
    result = on_the_fleet(system, processes=1)
    assert result.ok and result.strategy == "parallel"
    assert (result.states_explored, result.transitions_explored) == (1702, 3078)
    assert result.stats["worker_states"] == [1702]
    assert result.stats["cross_shard_share"] == 0.0


@pytest.mark.parametrize("processes", [0, -2])
def test_fewer_than_one_worker_is_refused(msi_nonstalling, processes):
    system = System(msi_nonstalling, num_caches=2,
                    workload=Workload(max_accesses_per_cache=1))
    with pytest.raises(ValueError, match=f"processes={processes}"):
        on_the_fleet(system, processes=processes)
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("strategy", ["bfs", "dfs"])
def test_serial_strategies_ignore_processes(msi_nonstalling, strategy):
    """Only the fleet reads ``processes``: a serial search given none, or a
    count the fleet would refuse, runs as if it had not been passed."""
    system = System(msi_nonstalling, num_caches=2,
                    workload=Workload(max_accesses_per_cache=2))
    for processes in (None, 0):
        result = verify(system, strategy=strategy, processes=processes)
        assert result.ok and result.strategy == strategy
        assert (result.states_explored,
                result.transitions_explored) == (1702, 3078)
    assert not multiprocessing.active_children()


def test_a_checkpoint_path_is_refused_before_anything_forks(
        msi_nonstalling, tmp_path, monkeypatch):
    """The fleet's visited set lives in its workers, so it has no
    checkpoint to write: the combination is a named error, raised before
    a worker forks or a file is read or written."""
    def no_fork(*args, **kwargs):
        raise AssertionError("a refused search must not fork")

    monkeypatch.setattr(parallel_mod.ShmEngine, "spinup", no_fork)
    system = System(msi_nonstalling, num_caches=2,
                    workload=Workload(max_accesses_per_cache=2))
    path = tmp_path / "run.ckpt"
    with pytest.raises(ValueError, match="checkpoint.*strategy='parallel'"):
        on_the_fleet(system, max_states=300, checkpoint=str(path))
    assert not path.exists() and not os.listdir(tmp_path)
    assert not multiprocessing.active_children()


def test_a_platform_without_fork_raises(msi_nonstalling, monkeypatch):
    """Where ``fork`` is missing, ``get_context("fork")`` raises and so does
    ``verify``: no serial BFS reports itself in the fleet's place."""
    def no_fork_context(method=None):
        raise ValueError(f"cannot find context for {method!r}")

    monkeypatch.setattr(multiprocessing, "get_context", no_fork_context)
    system = System(msi_nonstalling, num_caches=2,
                    workload=Workload(max_accesses_per_cache=1))
    with pytest.raises(ValueError, match="cannot find context for 'fork'"):
        on_the_fleet(system)


# -- determinism ---------------------------------------------------------------


@pytest.mark.parametrize("processes", [2, 3])
def test_passing_runs_repeat_exactly(msi_nonstalling, explorations, processes):
    """The hash partition is the work split: per-worker counts and every
    stored trace link (hence every state ID) repeat from run to run."""
    system = System(msi_nonstalling, num_caches=2,
                    workload=Workload(max_accesses_per_cache=2))
    runs = [on_the_fleet(system, symmetry=True, processes=processes)
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
    result = on_the_fleet(system, max_states=budget)
    assert result.ok and result.partial
    assert 0 < result.states_explored <= budget
    assert sum(result.stats["worker_states"]) <= budget
    assert result.stats["round_count"] > 1, "the clip must land mid-search"


def test_fleet_level_is_per_owner_counts(msi_nonstalling, monkeypatch):
    """The parent holds no state: the level the driver loops over is one
    count per owner, and the engine owns no input arena and no claim
    cursor."""
    seen = []
    real_expand = parallel_mod.ShmEngine.expand

    def spying_expand(engine, level):
        seen.append((engine, level))
        return real_expand(engine, level)

    monkeypatch.setattr(parallel_mod.ShmEngine, "expand", spying_expand)
    system = System(msi_nonstalling, num_caches=2,
                    workload=Workload(max_accesses_per_cache=2))
    result = on_the_fleet(system, processes=3)
    assert result.ok and len(seen) == result.stats["round_count"]
    widest = max(len(level) for _engine, level in seen)
    assert widest > 100, "the space must be wide enough to tell"
    for engine, level in seen:
        assert not isinstance(level, (list, tuple))
        assert len(level.counts) == 3 and sum(level.counts) == len(level)
        assert all(isinstance(count, int) for count in level.counts)
        for gone in ("input_arena", "claim", "claim_lock"):
            assert not hasattr(engine, gone)


@pytest.mark.parametrize("invariants", [None, DECODED],
                         ids=["encoded", "decoded"])
def test_owners_check_foreign_states_through_the_expander_seam(
        msi_swmr_mutant, explorations, invariants):
    """An owner holds a foreign successor only as its packed key and hands
    it to ``violation`` -- the compiled expander's one seam, which answers
    from the kernel's encoded check, or decodes the state when an invariant
    has no encoded evaluator."""
    system = System(msi_swmr_mutant, num_caches=2,
                    workload=Workload(max_accesses_per_cache=2))
    result = on_the_fleet(system, invariants=invariants)
    assert not result.ok and result.violation.name == "SWMR"
    replay_and_check(system, result)

    ctx = explorations[-1]
    replay = reference(system)
    state = replay.initial_state()
    for event in result.trace_events:
        state = replay.apply(state, event).state
    expander = CompiledExpander(ctx)
    for packed, violated in ((ctx.root_key, False),
                             (encode_packed(ctx.codec, state), True)):
        violation = expander.violation(packed)
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
        on_the_fleet(system)
    assert time.monotonic() - started < 30, "a dead worker must not hang verify"
    assert multiprocessing.active_children() == []


def interrupt_the_parent_in_round(monkeypatch, round_no):
    """Ctrl-C in the parent while round *round_no*'s workers are expanding."""
    real_collect = parallel_mod.ShmEngine._collect

    def interrupted_collect(engine, kind):
        if engine.ctx.round_count == round_no:
            raise KeyboardInterrupt
        return real_collect(engine, kind)

    monkeypatch.setattr(parallel_mod.ShmEngine, "_collect", interrupted_collect)


@pytest.mark.parametrize("run", ["passing", "failing", "killed", "interrupted"])
def test_no_shared_memory_segment_outlives_a_run(
        msi_nonstalling, msi_swmr_mutant, monkeypatch, run):
    """Workers unlink their own arenas on the way out; the parent unlinks
    what a killed (or terminated) one left behind, and does both on its way
    out of a ``KeyboardInterrupt``."""
    before = shm_listing()
    generated = msi_swmr_mutant if run == "failing" else msi_nonstalling
    system = System(generated, num_caches=2,
                    workload=Workload(max_accesses_per_cache=2))
    if run == "killed":
        kill_a_worker_in_round(monkeypatch, 3)
        with pytest.raises(RuntimeError, match="died"):
            on_the_fleet(system)
    elif run == "interrupted":
        interrupt_the_parent_in_round(monkeypatch, 3)
        with pytest.raises(KeyboardInterrupt):
            on_the_fleet(system)
    else:
        assert on_the_fleet(system).ok == (run == "passing")
    assert multiprocessing.active_children() == []
    assert shm_listing() == before
