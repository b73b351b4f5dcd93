"""Checkpoint/resume parity: a budgeted search chain must be bit-identical
to an uninterrupted run.

The contract under test (``verify(..., checkpoint=PATH)``):

* a run that stops at ``max_states`` persists its frontier, store links and
  counters atomically, and a later call with the same configuration resumes
  it under a fresh budget;
* the completed chain reports the same states/transitions/complete-state
  counts -- and, when the search fails, the same verdict and the same
  counterexample trace -- as a single uninterrupted run;
* a completed run consumes its checkpoint file;
* a checkpoint written by a *different* search configuration (symmetry,
  workload, fault model, network order, backend, payload version), or one
  that cannot be read back
  (truncated, garbage), refuses to resume with :class:`CheckpointMismatch`
  instead of silently corrupting the search.

There is one checkpoint shape; what varies is who lowers the frontier into
it.  Every configuration of the conformance matrix (``test_conformance.py``)
on the MSI family runs a ``resume-bfs`` and a ``resume-dfs`` row: a leg at
half the space, then the resume, held to the reference search and to the
uninterrupted run's trace.  Covered here: a resume at any budget on a fresh
``System`` for the per-state expander (with the default invariants and with
one the kernel cannot evaluate) and the vectorized expander, each under BFS
and DFS (whose boundary is the exact pop) and both symmetry modes; the
per-state expander's reduced BFS and DFS also with each leg in a fresh
interpreter (the vectorized expander's: ``test_row_table.py``).  The worker
fleet takes none: ``test_parallel_engine.py`` checks that it refuses a
checkpoint path.
"""

import hashlib
import json
import os
import pickle
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.system import FaultModel, System, Workload
from repro.verification import (
    message_passing,
    single_owner_invariant,
    swmr_invariant,
    verify,
)
from repro.verification.engine import CheckpointMismatch
from repro.verification.engine.checkpoint import CHECKPOINT_VERSION, fingerprint

from verification_helpers import DECODED, make_missing_inv_mutant, make_swmr_mutant


@pytest.fixture(scope="module")
def msi_swmr_mutant(msi_spec):
    return make_swmr_mutant(msi_spec)


@pytest.fixture(scope="module")
def uninterrupted():
    """Uninterrupted runs, by ``(mutant, kernel, symmetry, strategy)``: the
    property below compares every drawn budget against the same one.
    ``kernel="decoded"`` is the compiled kernel with :data:`DECODED`."""
    return {}


@pytest.mark.parametrize("strategy", ["bfs", "dfs"])
@pytest.mark.parametrize("symmetry", [False, True], ids=["full", "reduced"])
@pytest.mark.parametrize("kernel", ["compiled", "decoded", "vectorized"])
@pytest.mark.parametrize("mutant", [False, True], ids=["msi", "swmr-mutant"])
@given(data=st.data())
@settings(max_examples=4, deadline=None, derandomize=True, database=None)
def test_resume_at_any_budget_equals_the_uninterrupted_run(
        msi_nonstalling, msi_swmr_mutant, uninterrupted, mutant, kernel,
        symmetry, strategy, data):
    """Checkpoint at a drawn budget, resume on a fresh ``System``: the end
    is the uninterrupted run's -- counts and complete states, and on the
    SWMR mutant its verdict and trace."""
    protocol = msi_swmr_mutant if mutant else msi_nonstalling
    workload = Workload(max_accesses_per_cache=2)
    mode = dict(symmetry=symmetry, strategy=strategy)
    if kernel == "decoded":
        mode.update(invariants=DECODED)
    else:
        mode.update(kernel=kernel)
    run = (mutant, kernel, symmetry, strategy)
    if run not in uninterrupted:
        uninterrupted[run] = verify(
            System(protocol, num_caches=2, workload=workload), **mode)
    whole = uninterrupted[run]
    assert whole.ok == (not mutant) and not whole.partial
    budget = data.draw(st.integers(1, whole.states_explored - 1), label="budget")
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "run.ckpt")
        leg = verify(System(protocol, num_caches=2, workload=workload),
                     max_states=budget, checkpoint=path, **mode)
        assert leg.partial and leg.ok and os.path.exists(path)
        resumed = verify(System(protocol, num_caches=2, workload=workload),
                         max_states=10 ** 6, checkpoint=path, **mode)
        assert not os.path.exists(path)
    assert resumed.stats["resume_level"] is not None
    assert (resumed.ok, resumed.states_explored, resumed.transitions_explored,
            resumed.complete_states) == (
        whole.ok, whole.states_explored, whole.transitions_explored,
        whole.complete_states)
    assert str(resumed.violation) == str(whole.violation)
    assert resumed.trace == whole.trace


#: One budgeted leg of the symmetry-reduced search of the missing-Inv MSI
#: mutant, run in a fresh interpreter; prints the result as JSON.
_LEG = """
import json, sys
from repro import protocols
from repro.system import System, Workload
from repro.verification import verify
from verification_helpers import make_missing_inv_mutant

system = System(make_missing_inv_mutant(protocols.load("MSI")), num_caches=2,
                workload=Workload(max_accesses_per_cache=2))
result = verify(system, symmetry=True, strategy=%(strategy)r,
                max_states=%(budget)d, checkpoint=%(path)r)
json.dump({
    "partial": result.partial,
    "counts": [result.states_explored, result.transitions_explored,
               result.complete_states],
    "error": result.error,
    "trace": result.trace,
    "resume_level": result.stats["resume_level"],
}, sys.stdout)
"""


def _leg_in_a_fresh_interpreter(strategy, budget, path):
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(here, "..", "..", "src")
    done = subprocess.run(
        [sys.executable, "-c",
         _LEG % dict(strategy=strategy, budget=budget, path=path)],
        env=dict(os.environ,
                 PYTHONPATH=os.pathsep.join([os.path.abspath(src), here])),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.mark.parametrize("strategy", ["bfs", "dfs"])
def test_per_state_resume_across_fresh_interpreters(msi_spec, tmp_path, strategy):
    """The per-state expander under symmetry: the budgeted leg runs in one
    new interpreter and the resume in another, and the chain ends with the
    uninterrupted run's counters, error (concretized through the kernel)
    and trace."""
    system = System(make_missing_inv_mutant(msi_spec), num_caches=2,
                    workload=Workload(max_accesses_per_cache=2))
    whole = verify(system, symmetry=True, strategy=strategy)
    assert whole.error is not None and whole.kernel == "compiled"
    path = str(tmp_path / "run.ckpt")
    leg = _leg_in_a_fresh_interpreter(strategy, whole.states_explored // 2, path)
    assert leg["partial"] and leg["error"] is None and os.path.exists(path)
    resumed = _leg_in_a_fresh_interpreter(strategy, 10 ** 6, path)
    assert resumed["resume_level"] is not None
    assert resumed["counts"] == [whole.states_explored, whole.transitions_explored,
                                 whole.complete_states]
    assert (resumed["error"], resumed["trace"]) == (whole.error, whole.trace)
    assert not os.path.exists(path), "a completed run consumes its checkpoint"


class TestCheckpointLifecycle:
    def test_unbudgeted_completed_run_leaves_no_file(self, msi_nonstalling,
                                                     tmp_path):
        system = System(msi_nonstalling, num_caches=2,
                        workload=Workload(max_accesses_per_cache=2))
        path = str(tmp_path / "run.ckpt")
        result = verify(system, checkpoint=path)
        assert result.ok and not result.partial
        assert not os.path.exists(path)

    def test_resume_level_reported_in_stats(self, msi_nonstalling, tmp_path):
        """A resumed search surfaces the depth its checkpoint stood at."""
        system = System(msi_nonstalling, num_caches=2,
                        workload=Workload(max_accesses_per_cache=2))
        path = str(tmp_path / "run.ckpt")
        leg = verify(system, max_states=300, checkpoint=path,
                     kernel="vectorized")
        assert leg.partial
        result = verify(system, max_states=40_000, checkpoint=path,
                        kernel="vectorized")
        assert result.ok
        assert result.stats["resume_level"] is not None
        assert result.stats["resume_level"] >= 1
        # A fresh (non-resumed) run reports None on the same key.
        fresh = verify(system, kernel="vectorized")
        assert fresh.stats["resume_level"] is None


class TestMismatchRejection:
    @pytest.fixture
    def saved_checkpoint(self, msi_nonstalling, tmp_path):
        system = System(msi_nonstalling, num_caches=2,
                        workload=Workload(max_accesses_per_cache=2))
        path = str(tmp_path / "run.ckpt")
        leg = verify(system, max_states=300, checkpoint=path)
        assert leg.partial and os.path.exists(path)
        return system, path

    def test_symmetry_axis_mismatch(self, saved_checkpoint):
        system, path = saved_checkpoint
        with pytest.raises(CheckpointMismatch):
            verify(system, max_states=40_000, checkpoint=path, symmetry=True)

    def test_kernel_mismatch(self, saved_checkpoint):
        system, path = saved_checkpoint
        with pytest.raises(CheckpointMismatch):
            verify(system, max_states=40_000, checkpoint=path,
                   kernel="vectorized")

    def test_workload_mismatch(self, msi_nonstalling, saved_checkpoint):
        _, path = saved_checkpoint
        other = System(msi_nonstalling, num_caches=2,
                       workload=Workload(max_accesses_per_cache=1))
        with pytest.raises(CheckpointMismatch):
            verify(other, max_states=40_000, checkpoint=path)

    @pytest.mark.parametrize("saved, resumed", [
        (dict(faults=FaultModel(duplicate=True)), dict(faults=FaultModel(reorder=True))),
        (dict(ordered=True), dict(ordered=False)),
        (dict(faults=FaultModel(duplicate=True, budget=1)),
         dict(faults=FaultModel(duplicate=True, budget=2))),
    ], ids=["fault-kind", "network-order", "fault-budget"])
    def test_fault_model_and_network_order_mismatch(
            self, msi_stalling, tmp_path, saved, resumed):
        """The fault model and the network order shape the successor
        relation as much as the workload does: a frontier saved under one
        and expanded under another reports a verdict neither search has
        (an SWMR FAIL, a directory that cannot handle a message) or stops
        at another count."""
        path = str(tmp_path / "run.ckpt")
        workload = Workload(max_accesses_per_cache=2)
        leg = verify(System(msi_stalling, num_caches=2, workload=workload, **saved),
                     max_states=200, checkpoint=path)
        assert leg.partial and os.path.exists(path)
        other = System(msi_stalling, num_caches=2, workload=workload, **resumed)
        with pytest.raises(CheckpointMismatch, match="run.ckpt"):
            verify(other, max_states=40_000, checkpoint=path)

    def test_lane_width_mismatch(self, msi_nonstalling, tmp_path, monkeypatch):
        """The frontier and the visited set are packed keys: a payload saved
        under wider lanes could never match one key of this search, so it
        must be refused, not resumed into re-exploring everything."""
        path = str(tmp_path / "wide.ckpt")
        workload = Workload(max_accesses_per_cache=2)
        with monkeypatch.context() as forced:
            forced.setattr(System, "value_bound", lambda self: 300)
            wide = System(msi_nonstalling, num_caches=2, workload=workload)
            assert wide.codec().typecode == "H"
            leg = verify(wide, max_states=300, checkpoint=path)
            assert leg.partial and os.path.exists(path)
        narrow = System(msi_nonstalling, num_caches=2, workload=workload)
        assert narrow.codec().typecode == "B"
        with pytest.raises(CheckpointMismatch, match="wide.ckpt"):
            verify(narrow, max_states=40_000, checkpoint=path)

    @pytest.mark.parametrize("version", [-1, 4, 5, 6, 7, 8, 9])
    @pytest.mark.parametrize("fingerprint", ["kept", "foreign"])
    def test_stale_payload_version(self, saved_checkpoint, version, fingerprint):
        """An intact file (its checksum holds) of another payload version
        -- the previous ones included: no reader is kept for any.  Version 9
        kept the workload-deadlock flag in its fingerprint material, version 8
        left the fault model and the network order out of its fingerprint
        material, version 7 carried the worker fleet's shard digests,
        version 6 kept the transition-kernel flag in its fingerprint
        material, version 5 the deadlock-check flag as well and version 4
        the hash-compaction flag too: the refusal names the version, not a
        different search configuration, whether or not the fingerprint
        matches."""
        assert CHECKPOINT_VERSION == 10
        system, path = saved_checkpoint
        with open(path, "rb") as f:
            payload = pickle.load(f)
        payload["version"] = version
        if fingerprint == "foreign":
            payload["fingerprint"] = hashlib.blake2b(
                b"another search", digest_size=16).hexdigest()
        body = pickle.dumps(payload)
        with open(path, "wb") as f:
            f.write(body + hashlib.blake2b(body, digest_size=32).digest())
        with pytest.raises(CheckpointMismatch,
                           match=f"version {version}, expected 10") as refused:
            verify(system, max_states=40_000, checkpoint=path)
        assert "configuration" not in str(refused.value)

    @pytest.mark.parametrize("damage", ["truncated", "garbage"])
    def test_unreadable_file(self, saved_checkpoint, damage):
        """A file that cannot be unpickled is a mismatch naming the path,
        not a bare pickle error."""
        system, path = saved_checkpoint
        with open(path, "rb") as f:
            blob = f.read()
        with open(path, "wb") as f:
            f.write(blob[: len(blob) // 2] if damage == "truncated"
                    else b"not a checkpoint\n" * 8)
        with pytest.raises(CheckpointMismatch, match="run.ckpt"):
            verify(system, max_states=40_000, checkpoint=path)

    @pytest.mark.parametrize("mode", [
        dict(),
        dict(kernel="vectorized"),
    ], ids=["serial", "vectorized"])
    def test_flipped_byte_is_refused(self, msi_nonstalling, tmp_path, mode):
        """A checkpoint still unpickles with one byte flipped inside a key
        or a column; the payload checksum is what refuses it -- whoever
        wrote the file: the serial store or the row table."""
        system = System(msi_nonstalling, num_caches=2,
                        workload=Workload(max_accesses_per_cache=2))
        path = str(tmp_path / "run.ckpt")
        leg = verify(system, max_states=600, checkpoint=path, **mode)
        assert leg.partial and os.path.exists(path)
        with open(path, "rb") as f:
            blob = bytearray(f.read())
        blob[len(blob) // 2] ^= 0x01
        with open(path, "wb") as f:
            f.write(blob)
        with pytest.raises(CheckpointMismatch, match="run.ckpt.*checksum"):
            verify(system, max_states=40_000, checkpoint=path, **mode)

    def test_budget_and_worker_count_are_not_bound(self, msi_nonstalling,
                                                   saved_checkpoint):
        """Resuming under a different budget is the whole point; the
        fingerprint deliberately excludes ``max_states``."""
        system, path = saved_checkpoint
        result = verify(system, max_states=40_000, checkpoint=path)
        assert result.ok and not result.partial


@pytest.mark.parametrize("litmus, digest", [
    (False, "927d7a7bc13e368788e721496595df2c"),
    (True, "55e8ae1c4d9ab57ff478997543ad0639"),
], ids=["msi-2c2a", "litmus-MP"])
def test_invariant_values_keep_the_fingerprint(msi_nonstalling, msi_stalling,
                                               explorations, litmus, digest):
    """The built-in invariants are values named like the functions they
    replaced, and a litmus invariant is named by its repr, so a checkpoint
    written while they were functions still resumes: the digests are the
    ones those functions gave (MSI 2c x 2a with the default pair, and MP on
    MSI stalling with both and its outcome check), less the workload-deadlock
    flag version 10 dropped from the material."""
    if litmus:
        mp = message_passing()
        system = System(msi_stalling, num_caches=2, workload=mp.workload)
        options = {"invariants": (swmr_invariant, single_owner_invariant, mp.invariant)}
    else:
        system = System(msi_nonstalling, num_caches=2,
                        workload=Workload(max_accesses_per_cache=2))
        options = {}
    verify(system, max_states=5, **options)
    assert fingerprint(explorations[-1]) == digest
