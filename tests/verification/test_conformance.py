"""One conformance matrix: every configuration x search mode, held once to
the reference search.

``reference_search`` (``verification_helpers``) is the verdict oracle: a
``deque``, a plain ``dict`` of ``GlobalState`` objects, the reference
system's ``enabled_events`` / ``apply`` (``reference_system.py``: the
generated tables interpreted over dataclasses by the tests' own executor)
and the definition of the canonical representative executed as written --
no codec, store, kernel or canonicalizer.  It shares with the engine the
``System`` configuration, the state dataclasses and the generated tables,
and nothing else.  So a search that drops, merges or double-counts states
(a truncated key, a wrong representative, a bad visited-set probe), or a
kernel that executes a table entry otherwise than the reference executor
does, disagrees with it here without anyone having pinned the right number
first.  What the parity cannot check is the tables themselves: a generation
bug both interpretations execute faithfully is the invariants' to catch.

A row is one cell (:data:`CELLS`: a protocol, a policy and an axis -- plain,
three caches, duplicate, reorder, two addresses, a litmus program -- or a
broken protocol), one search mode (:data:`MODES`) and one symmetry setting.
It asserts:

* the reference's verdict -- counts on a pass; on a failure its kind, its
  depth (a DFS trace is only bounded below by it) and, on an unreduced BFS,
  its exact error text (:func:`assert_matches_reference`);
* the cell's own verdict and pins (an ``error-*`` cell's whole error text
  on an unreduced BFS), and the complete states of the cell's BFS compiled
  search;
* the kernel that ran (``kernel="vectorized"`` runs the batch kernel on a
  plain BFS only: every other configuration falls back to the compiled
  one, and says so);
* on a failure, that the trace replays on the reference system to the same
  verdict (a violation's name and detail as its restated invariant words
  them) and repeats the trace of the uninterrupted search it stands for
  (a reduced 2-cache fleet's: its own, run twice);
* with built-in invariants, that nothing was decoded, failing or not;
* that the search's root key, ``codec.root()``, is the reference's initial
  state encoded;
* on a ``resume-`` row, that each leg of the chain stops partial with a
  checkpoint and gets further than the last, a resumed one included
  (:func:`resumed`);
* reduced <= full, and strictly (by the cell's factor) at 3 caches or more.

The reference searches a (cell, symmetry) once, asserting the codec's
in-flight bound on every state it keeps, and only where
:attr:`Cell.reference` says so -- the object-level search is the slow half
of a row; a (cell, symmetry) it does not search is held to the cell's BFS
compiled search, which carries the cell's verdict and pins.  Every cell
runs BFS compiled; the batch kernel runs the plain cells and MSI on every
other axis; DFS, the fleet and checkpoint-resume run MSI and MSI-Unordered
on every axis; every expander that writes a checkpoint (:data:`EXPANDERS`)
resumes on ``plain-MSI-nonstalling`` and ``missing-inv-2c``.  The paper's
3-cache x 2-access configuration and the 4-cache tier are ``slow`` cells.
Run one row, or one cell's rows, with ``-k``::

    pytest tests/verification/test_conformance.py -k "duplicate and MSI-stalling"
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass, field
from typing import Callable

import pytest

from repro import protocols
from repro.core import GenerationConfig, generate
from repro.dsl.types import AccessKind
from repro.system import FaultModel, System, Workload
from repro.verification import LITMUS_TESTS, LitmusInvariant, LitmusTest, verify

from verification_helpers import (
    DECODED,
    encode_packed,
    ERROR_MUTANTS,
    MUTANT_DROPS,
    MessageDroppingSystem,
    ReferenceFailure,
    assert_matches_reference,
    drop_cache_handler,
    invariants_for,
    make_missing_inv_mutant,
    make_stalled_request_mutant,
    make_swmr_mutant,
    make_wedged_mutant,
    reference_search,
    replay_and_check,
    rewrite_transition,
    workload_for,
)
from reference_system import in_flight, reference

ALL_PROTOCOLS = protocols.available_protocols()
POLICIES = ("nonstalling", "stalling")
LOAD_STORE = (AccessKind.LOAD, AccessKind.STORE)

#: ``verify()`` keywords of each search mode, on top of the cell's
#: invariants and the row's symmetry.  A ``resume-`` mode runs its
#: uninterrupted twin as a chain of checkpointed legs (:func:`resumed`).
MODES = {
    "bfs": {},
    "vectorized": {"kernel": "vectorized"},
    "dfs": {"strategy": "dfs"},
    "dfs-vectorized": {"strategy": "dfs", "kernel": "vectorized"},
    "decoded": {"invariants": DECODED},
    "dfs-decoded": {"strategy": "dfs", "invariants": DECODED},
    "fleet": {"strategy": "parallel", "processes": 2},
    "fleet3-decoded": {"strategy": "parallel", "processes": 3,
                       "invariants": DECODED},
    "resume-bfs": {},
    "resume-dfs": {"strategy": "dfs"},
    "resume-vectorized": {"kernel": "vectorized"},
    "resume-dfs-vectorized": {"strategy": "dfs", "kernel": "vectorized"},
    "resume-decoded": {"invariants": DECODED},
    "resume-dfs-decoded": {"strategy": "dfs", "invariants": DECODED},
}

#: The uninterrupted search whose trace a failing row must repeat.
TWINS = {"vectorized": "bfs", "resume-bfs": "bfs", "dfs-vectorized": "dfs",
         "resume-dfs": "dfs", "resume-vectorized": "vectorized",
         "resume-dfs-vectorized": "dfs-vectorized", "resume-decoded": "decoded",
         "resume-dfs-decoded": "dfs-decoded"}

SEARCHES = ("dfs", "fleet", "resume-bfs", "resume-dfs")

#: The remaining modes of every expander that writes a checkpoint (per-state,
#: decoded invariants, batch) under BFS and DFS, uninterrupted and resumed:
#: run on one passing and one failing cell.
EXPANDERS = ("dfs-vectorized", "decoded", "dfs-decoded", "resume-vectorized",
             "resume-dfs-vectorized", "resume-decoded", "resume-dfs-decoded")


def modes(name: str, vectorized: bool) -> tuple[str, ...]:
    """BFS compiled everywhere; the batch kernel where asked; DFS, the fleet
    and checkpoint-resume on the MSI family."""
    return (("bfs",) + (("vectorized",) if vectorized else ())
            + (SEARCHES if name in ("MSI", "MSI-Unordered") else ()))


@dataclass(eq=False)
class Cell:
    """One configuration: how to build its ``System`` (from the session's
    generated protocols) and what a search of it finds."""

    name: str
    build: Callable[[dict], System]
    invariants: tuple | None = None  # None: verify()'s default pair
    verdict: str = "ok"  # or "error" / "violation" / "deadlock"
    #: A substring of the error, or the violated invariant's name.
    detail: str | None = None
    #: *detail* is the whole error text of an unreduced BFS.
    whole: bool = False
    pins: dict = field(default_factory=dict)  # symmetry -> (states, transitions)
    symmetries: tuple = (False, True)
    reference: tuple = (False, True)  # the symmetries the reference searches
    batch: bool = True  # kernel="vectorized" runs the batch kernel
    modes: tuple = ("bfs", "vectorized")
    #: Reduced BFS x this < full BFS, on a passing cell of 3 caches or more.
    reduction: float = 1.0
    marks: tuple = ()


def configured(name, policy, caches=2, **options):
    return lambda generated: System(generated[(name, policy)],
                                    num_caches=caches, **options)


# Exact hardened fault-matrix pins: (states, transitions) per protocol and
# concurrency policy, measured with the default harden=True generation.  Any
# drift here means the hardening pass (or the search) changed behaviour.
DUPLICATION_MATRIX = {
    "MSI": {"stalling": (476, 840), "nonstalling": (508, 894)},
    "MESI": {"stalling": (515, 878), "nonstalling": (547, 932)},
    "MOSI": {"stalling": (442, 778), "nonstalling": (488, 852)},
    "MSI-Upgrade": {"stalling": (476, 840), "nonstalling": (508, 894)},
    "MSI-Unordered": {"stalling": (525, 936), "nonstalling": (923, 1708)},
    "TSO-CC": {"stalling": (380, 686), "nonstalling": (390, 700)},
}

REORDER_MATRIX = {
    "MSI": {"stalling": (2682, 4922), "nonstalling": (3336, 5890)},
    "MESI": {"stalling": (2758, 5072), "nonstalling": (3691, 6470)},
    "MOSI": {"stalling": (2430, 4106), "nonstalling": (2815, 4582)},
    "MSI-Upgrade": {"stalling": (2762, 5082), "nonstalling": (3396, 6006)},
    "TSO-CC": {"stalling": (1292, 2250), "nonstalling": (1414, 2364)},
}

#: Litmus programs under fault injection on hardened MSI stalling.
#: Single-transaction-per-location programs pass under duplication; coRR
#: under duplication is the documented residual
#: (``test_faults_litmus.py::test_corr_duplication_aliasing_is_the_documented_residual``).
LITMUS_FAULT_PINS = {
    ("litmus-SB", "duplicate"): (1524, 3364),
    ("litmus-MP", "duplicate"): (1778, 4083),
    ("litmus-SB", "reorder"): (211, 348),
}

#: MSI nonstalling, the seed explorer's configuration: 2c x 2a and 3c x 1a.
SEED_PINS = {2: {False: (1702, 3078), True: (862, 1557)},
             3: {False: (1203, 2394), True: (229, 467)}}

#: MSI stalling at 4 caches x 1 LOAD/STORE access, and 3 caches full.
STALLING_4C = {True: (813, 2097)}
STALLING_3C = {False: (981, 1956)}

FAULTS = {"duplicate": FaultModel(duplicate=True),
          "reorder": FaultModel(reorder=True)}


def protocol_cells():
    for name in ALL_PROTOCOLS:
        for policy in POLICIES:
            seed = name == "MSI" and policy == "nonstalling"
            yield Cell(
                f"plain-{name}-{policy}",
                configured(name, policy, workload=workload_for(name)),
                invariants_for(name), pins=SEED_PINS[2] if seed else {},
                modes=modes(name, True)
                + (("fleet3-decoded", *EXPANDERS) if seed else ()),
            )
            # One access of LOAD/STORE keeps three caches fast (and
            # MSI-Unordered has no eviction path anyway).
            yield Cell(
                f"3c-{name}-{policy}",
                configured(name, policy, caches=3,
                           workload=Workload(max_accesses_per_cache=1,
                                             access_kinds=LOAD_STORE)),
                invariants_for(name), pins=SEED_PINS[3] if seed else
                STALLING_3C if name == "MSI" else {},
                reference=(False, True) if seed else (),
                modes=modes(name, True),
            )
            yield Cell(
                f"duplicate-{name}-{policy}",
                configured(name, policy, workload=workload_for(name, 1),
                           faults=FAULTS["duplicate"]),
                invariants_for(name),
                pins={False: DUPLICATION_MATRIX[name][policy]},
                reference=(False,), batch=False,
                modes=modes(name, name == "MSI"),
            )
            if name != "MSI-Unordered":  # no reorder axis unordered
                yield Cell(
                    f"reorder-{name}-{policy}",
                    configured(name, policy,
                               workload=Workload(max_accesses_per_cache=2),
                               faults=FAULTS["reorder"]),
                    invariants_for(name),
                    pins={False: REORDER_MATRIX[name][policy]},
                    reference=(False,), batch=False,
                    modes=modes(name, name == "MSI"),
                )
        # Two address planes and litmus programs tell the caches apart:
        # no symmetry.
        yield Cell(
            f"two-address-{name}-nonstalling",
            configured(name, "nonstalling", workload=workload_for(name, 1),
                       num_addresses=2),
            invariants_for(name), symmetries=(False,), reference=(False,),
            batch=False, modes=modes(name, name == "MSI"),
        )
        for litmus in LITMUS_TESTS:
            test = litmus()
            yield Cell(
                f"{test.name}-{name}-stalling",
                configured(name, "stalling", workload=test.workload),
                invariants_for(name, test), symmetries=(False,),
                reference=(False,), batch=False,
                modes=modes(name, name == "MSI"),
            )
    # At 3 caches a duplicated Inv_Ack is counted twice (the documented
    # residual, ``test_faults_litmus.py::TestThreeCacheResiduals``).
    for fault, faults in FAULTS.items():
        duplicate = fault == "duplicate"
        yield Cell(
            f"3c-{fault}-MSI-nonstalling",
            configured("MSI", "nonstalling", caches=3,
                       workload=Workload(max_accesses_per_cache=1),
                       faults=faults),
            verdict="violation" if duplicate else "ok",
            detail="SWMR" if duplicate else None,
            reference=(True,) if duplicate else (), batch=False,
            modes=("bfs",),
        )
    for (litmus, fault), pin in LITMUS_FAULT_PINS.items():
        test = next(b() for b in LITMUS_TESTS if b().name == litmus)
        yield Cell(
            f"{litmus}-{fault}-MSI-stalling",
            configured("MSI", "stalling", workload=test.workload,
                       faults=FAULTS[fault]),
            invariants_for("MSI", test), pins={False: pin},
            symmetries=(False,), reference=(False,), batch=False,
            modes=modes("MSI", True),
        )
    # A reachable outcome (flag and data seen) declared forbidden after MP's
    # clause: the kernel words the second clause's violation in every mode.
    mp = next(b() for b in LITMUS_TESTS if b().name == "litmus-MP")
    yield Cell(
        "allowed-MP-MSI-stalling",
        configured("MSI", "stalling", workload=mp.workload),
        invariants_for("MSI", LitmusTest("allowed-MP", mp.workload, LitmusInvariant(
            "litmus-MP-allowed", (*mp.invariant.clauses, ((1, 1, 1), (1, 0, 1)))))),
        verdict="violation", detail="litmus-MP-allowed", symmetries=(False,),
        reference=(False,), batch=False, modes=modes("MSI", True),
    )
    # Under the slow marker: the paper's Murphi configuration (3 caches x 2
    # accesses; MSI's reduced search is the reduced-3c pin), where reduction
    # approaches 3! = 6, and the 4-cache tier, where it approaches 4! = 24.
    for name in ("MSI", "MESI", "MOSI"):
        yield Cell(
            f"3c2a-{name}-stalling",
            configured(name, "stalling", caches=3,
                       workload=Workload(max_accesses_per_cache=2)),
            pins={True: (29_533, 76_135)} if name == "MSI" else {},
            reference=(True,) if name == "MSI" else (), modes=("bfs",),
            reduction=4.0, marks=(pytest.mark.slow,),
        )
    for name, policy in [(name, "nonstalling") for name in ALL_PROTOCOLS] + [
            ("MSI", "stalling")]:
        yield Cell(
            f"4c-{name}-{policy}",
            configured(name, policy, caches=4, workload=Workload(
                max_accesses_per_cache=1, access_kinds=LOAD_STORE)),
            invariants_for(name), reference=(), modes=("bfs",),
            # MSI stalling: the reduced 4-cache search is smaller than the
            # full 3-cache one (813 < 981): reduction pays for a cache.
            pins=STALLING_4C if policy == "stalling" else {},
            reduction=10.0, marks=(pytest.mark.slow,),
        )


MSI_SPEC = protocols.load("MSI")


def broken(make, *args, caches=2, workload=Workload(max_accesses_per_cache=2)):
    """A ``System`` of the fresh mutant ``make(*args)`` (mutations are in
    place, so the session's generated protocols are never handed over)."""
    return lambda _: System(make(*args), num_caches=caches, workload=workload)


def error_mutant(mutant):
    _, _, controller, state, event, rewrite, _ = ERROR_MUTANTS[mutant]
    return rewrite_transition(generate(MSI_SPEC, GenerationConfig.stalling()),
                              controller, state, event, rewrite)


def dropped_handler(name, state, message):
    return drop_cache_handler(
        generate(protocols.load(name), GenerationConfig.nonstalling()),
        state, message)


def mutant_cells():
    for caches in (2, 3):
        yield Cell(
            f"missing-inv-{caches}c",
            broken(make_missing_inv_mutant, MSI_SPEC, caches=caches),
            verdict="error", detail="cannot handle message Inv",
            reference=(False, True) if caches == 2 else (),
            modes=("bfs", "vectorized", *SEARCHES)
            + (EXPANDERS if caches == 2 else ()),
        )
        yield Cell(
            f"swmr-{caches}c",
            broken(make_swmr_mutant, MSI_SPEC, caches=caches),
            verdict="violation", detail="SWMR",
            reference=(False,) if caches == 2 else (),
            modes=("bfs", "vectorized", *SEARCHES),
        )
    # A directory that never takes a GetM in strands its requestor.
    yield Cell(
        "stalled-request-2c",
        broken(make_stalled_request_mutant, MSI_SPEC,
               workload=Workload(max_accesses_per_cache=1)),
        verdict="deadlock", modes=("bfs", "vectorized", *SEARCHES),
    )
    # Caches that cannot access out of S strand their workload there: the
    # system goes quiescent with budget left, a deadlock in every mode.
    yield Cell(
        "wedged-2c",
        broken(make_wedged_mutant, MSI_SPEC,
               workload=Workload(max_accesses_per_cache=2,
                                 access_kinds=LOAD_STORE)),
        verdict="deadlock", modes=("bfs", "vectorized", *SEARCHES),
    )
    for mutant, (caches, accesses, *_, error) in sorted(ERROR_MUTANTS.items()):
        yield Cell(
            f"error-{mutant}",
            broken(error_mutant, mutant, caches=caches,
                   workload=Workload(max_accesses_per_cache=accesses)),
            verdict="error", detail=error, whole=True,
        )
    for name, (state, message) in MUTANT_DROPS.items():
        if name != "MSI":  # MSI's is missing-inv-2c
            yield Cell(
                f"dropped-{state}-{message}-{name}",
                broken(dropped_handler, name, state, message,
                       workload=workload_for(name)),
                invariants_for(name), verdict="error",
                detail=f"cannot handle message {message}", reference=(),
            )
        yield Cell(
            f"dropped-{state}-{message}-{name}-4c",
            broken(dropped_handler, name, state, message, caches=4,
                   workload=Workload(max_accesses_per_cache=1,
                                     access_kinds=LOAD_STORE)),
            invariants_for(name), verdict="error",
            detail=f"cannot handle message {message}", reference=(),
            modes=("bfs",), marks=(pytest.mark.slow,),
        )


CELLS = [*protocol_cells(), *mutant_cells()]
STALLED = next(cell for cell in CELLS if cell.name == "stalled-request-2c")


def outcome(result):
    """A complete ``verify()`` result in :func:`reference_search`'s terms."""
    assert not result.partial, result.summary
    if result.ok:
        return result.states_explored, result.transitions_explored
    if result.error is not None:
        return ReferenceFailure("error", result.error, len(result.trace))
    if result.violation is not None:
        return ReferenceFailure("violation", result.violation.name,
                                len(result.trace), result.violation)
    return ReferenceFailure("deadlock", None, len(result.trace))


class CellRuns:
    """What the rows of one cell share: its ``System`` and its
    uninterrupted searches, by mode and symmetry."""

    def __init__(self, cell, generated):
        self.cell = cell
        self.system = cell.build(generated)
        self.runs = {}

    def options(self, mode, symmetry):
        invariants = {} if self.cell.invariants is None else {
            "invariants": self.cell.invariants}
        return {"symmetry": symmetry, **invariants, **MODES[mode]}

    def run(self, mode, symmetry):
        if (mode, symmetry) not in self.runs:
            self.runs[mode, symmetry] = verify(
                self.system, **self.options(mode, symmetry))
        return self.runs[mode, symmetry]


class Matrix:
    """The session's caches: the expected outcome by (cell, symmetry) -- the
    reference search's, or the cell's BFS compiled search's where the
    reference does not run -- and the runs of the cell in hand (rows come
    cell by cell, so one cell's systems are alive at a time)."""

    def __init__(self, generated):
        self.generated = generated
        self.current = None
        self.expected = {}

    def runs(self, cell):
        if self.current is None or self.current.cell is not cell:
            self.current = CellRuns(cell, self.generated)
        return self.current

    def expect(self, cell, symmetry):
        if (cell.name, symmetry) not in self.expected:
            runs = self.runs(cell)
            if symmetry in cell.reference:
                peak = [0]  # the most messages in flight on one plane

                def keep(state):
                    planes = (state.network, *state.extra_networks)
                    peak[0] = max(peak[0], *(len(in_flight(nw)) for nw in planes))

                expected = reference_search(runs.system, symmetry, on_state=keep,
                                            invariants=cell.invariants)
                # The bound StateCodec.__init__ sizes its count lanes by.
                n, faults = runs.system.num_caches, runs.system.faults
                bound = n * (2 * n + 2) + (faults.budget if faults else 0)
                assert peak[0] <= bound, (cell.name, peak, bound)
            else:
                expected = outcome(runs.run("bfs", symmetry))
            self.expected[cell.name, symmetry] = expected
        return self.expected[cell.name, symmetry]


@pytest.fixture(scope="session")
def matrix(all_generated):
    return Matrix(all_generated)


def resumed(runs, mode, symmetry, path):
    """The search of *mode*'s twin as a chain of checkpointed legs: one
    budgeted at a third of the uninterrupted run's states, a resume of it
    budgeted one state short of the whole run (so that a BFS leg, which
    stops at a level boundary, reaches a later one than the first leg did)
    that stops partial again with its own checkpoint, and
    a resume under a fresh budget that finishes the search.  A search of
    two states has room for the first leg only."""
    twin = TWINS[mode]
    whole = runs.run(twin, symmetry)
    options = runs.options(twin, symmetry)
    explored = 0
    for budget in sorted({max(1, whole.states_explored // 3),
                          whole.states_explored - 1}):
        leg = verify(runs.system, max_states=budget, checkpoint=path,
                     **options)
        assert leg.partial and leg.ok and os.path.exists(path), leg.summary
        assert explored < leg.states_explored < whole.states_explored, (
            "a resumed leg must progress")
        explored = leg.states_explored
    result = verify(runs.system, max_states=10 ** 6, checkpoint=path,
                    **options)
    assert not os.path.exists(path), "a completed run consumes its checkpoint"
    assert result.stats["resume_level"] is not None
    return result


def assert_cell_verdict(cell, result):
    if cell.verdict == "ok":
        assert result.ok, result.summary
    elif cell.verdict == "error":
        assert result.error is not None and cell.detail in result.error, (
            result.summary)
        if (cell.whole and result.strategy == "bfs"
                and not result.symmetry_reduced):
            assert result.error == cell.detail
    elif cell.verdict == "violation":
        assert result.violation is not None, result.summary
        assert result.violation.name == cell.detail
    else:
        assert result.deadlock, result.summary


ROWS = [
    pytest.param(cell, mode, symmetry, marks=cell.marks,
                 id=f"{cell.name}-{mode}-{'reduced' if symmetry else 'full'}")
    for cell in CELLS for mode in cell.modes for symmetry in cell.symmetries
]


@pytest.mark.parametrize("cell, mode, symmetry", ROWS)
def test_row(matrix, tmp_path, cell, mode, symmetry):
    runs = matrix.runs(cell)
    caches = runs.system.num_caches
    expected = matrix.expect(cell, symmetry)
    options = MODES[mode]
    if mode.startswith("resume-"):
        result = resumed(runs, mode, symmetry, str(tmp_path / "run.ckpt"))
    else:
        result = runs.run(mode, symmetry)

    codec = runs.system.codec()
    assert codec.root() == encode_packed(codec, reference(runs.system).initial_state())
    batch = (cell.batch and options.get("kernel") == "vectorized"
             and "strategy" not in options)
    assert result.kernel == ("vectorized" if batch else "compiled")
    assert result.strategy == options.get("strategy", "bfs")
    assert result.symmetry_reduced == (symmetry and caches > 1)
    assert_matches_reference(result, expected)
    assert_cell_verdict(cell, result)
    if batch:
        assert result.stats["fallback_transitions"] == 0
    if options.get("strategy") == "parallel":
        assert len(result.stats["worker_states"]) == options["processes"]

    anchor = runs.run("bfs", symmetry)
    if "invariants" not in options:
        # Built-in invariants only: the kernel checks every state and words
        # a violation from its lanes, so nothing is decoded, failing or not.
        assert result.stats["decode_count"] == 0
    if result.ok:
        assert result.complete_states == anchor.complete_states > 0
        if symmetry in cell.pins:
            assert (result.states_explored,
                    result.transitions_explored) == cell.pins[symmetry]
    else:
        # The violation's name and detail are the restated predicate's on
        # the state the trace reaches, in every mode, full and reduced.
        replay_and_check(runs.system, result, cell.invariants)
        if options.get("strategy") == "parallel":
            # Which equal-depth counterexample wins is the fleet's own, and
            # nothing is claimed or stolen: a second run reports it again.
            if symmetry and caches == 2:
                again = verify(runs.system, **runs.options(mode, symmetry))
                assert again.trace == result.trace
        else:
            assert result.trace == runs.run(TWINS.get(mode, mode), symmetry).trace
    if symmetry and False in cell.symmetries and mode == "bfs":
        full = runs.run("bfs", False)
        assert result.states_explored <= full.states_explored
        if caches >= 3 and result.ok:
            # Three interchangeable caches: almost every state sits in a
            # non-trivial orbit, so reduction must strictly shrink the search.
            assert result.states_explored * cell.reduction < full.states_explored
            assert result.transitions_explored < full.transitions_explored


@pytest.mark.parametrize("symmetry", [False, True], ids=["full", "reduced"])
def test_a_dropped_request_type_is_the_stalled_cells_twin(
        matrix, msi_stalling, symmetry):
    """``MessageDroppingSystem`` expresses the stalled-request fault as a
    ``System`` override: the fleet refuses it before any worker forks (as
    every ``verify()`` does: ``test_kernel.py``), and the reference search
    finds the stalled cell's deadlock at its depth."""
    dropping = MessageDroppingSystem(
        msi_stalling, num_caches=2, workload=Workload(max_accesses_per_cache=1),
        dropped_mtype="GetM")
    with pytest.raises(TypeError, match="MessageDroppingSystem"):
        verify(dropping, symmetry=symmetry, **MODES["fleet"])
    assert not multiprocessing.active_children()
    expected = matrix.expect(STALLED, symmetry)
    assert expected.kind == "deadlock"
    assert reference_search(dropping, symmetry, invariants=None) == expected
