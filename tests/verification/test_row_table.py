"""The batch path's visited set: an exact open-addressed table of rows.

Two layers are under test.  :class:`RowTable` alone, against a Python
``set`` of row bytes as the reference (membership is decided by comparing
whole rows, so it must agree with the set whatever the hash does).  And the
vectorized expander on top of it: the arena index of a row is the state's
ID, the store keeps links only, and packed keys reappear only at the
boundaries -- a checkpoint, a per-state fallback level, a violation.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.system import System, Workload
from repro.dsl import AccessKind
from repro.verification import verify
from repro.verification.engine.store import RowTable, StateStore

from verification_helpers import make_swmr_mutant


class _Reference:
    """``RowTable`` as a dict of row bytes -> dense ID."""

    def __init__(self):
        self.ids: dict[bytes, int] = {}

    def add(self, rows) -> list:
        fresh = []
        for row in rows:
            key = row.tobytes()
            fresh.append(key not in self.ids)
            self.ids.setdefault(key, len(self.ids))
        return fresh

    def intern(self, rows) -> list:
        return [self.ids.setdefault(row.tobytes(), len(self.ids)) for row in rows]

    def find(self, rows) -> list:
        return [self.ids.get(row.tobytes(), -1) for row in rows]


def _batches(rng, width, count, size, pool):
    """*count* random batches drawn from a pool of *pool* distinct-ish rows,
    so a batch repeats rows of earlier batches and of itself."""
    universe = rng.integers(0, 256, size=(pool, width), dtype=np.uint8)
    for _ in range(count):
        yield universe[rng.integers(0, pool, size=size)]


@pytest.mark.parametrize("width", [44, 13, 6, 16])
class TestRowTable:
    def test_agrees_with_a_set_of_row_bytes(self, width):
        """In-batch duplicates (the first wins), cross-batch duplicates,
        several slot rebuilds (64 slots at birth) and arena growths."""
        rng = np.random.default_rng(width)
        table, reference = RowTable(np, width), _Reference()
        rebuilds, slots = 0, len(table._slots)
        for batch in _batches(rng, width, count=40, size=300, pool=4000):
            assert table.add(batch).tolist() == reference.add(batch)
            assert len(table) == len(reference.ids)
            rebuilds += len(table._slots) != slots
            slots = len(table._slots)
            assert 2 * len(table) <= slots, "load above one half"
        assert rebuilds >= 4 and len(table) > 3000
        # The arena is the distinct rows in first-insertion order ...
        assert [row.tobytes() for row in table.rows(np.uint8)] == list(reference.ids)
        # ... a row's index is its ID, and absent rows are absent.
        probe = rng.integers(0, 256, size=(500, width), dtype=np.uint8)
        probe[::2] = table.rows(np.uint8)[rng.integers(0, len(table), size=250)]
        assert table.find(probe).tolist() == reference.find(probe)
        assert table.nbytes == len(table) * width + table._slots.nbytes

    def test_a_batch_is_probed_a_chunk_at_a_time(self, width, monkeypatch):
        """A raw level is one batch of millions of rows, mostly repeats: it
        is probed in chunks, in order -- the same mask and the same IDs as
        one probe (a row first seen in one chunk is known to the next), and
        slots are reserved per chunk, not for every repeat of the batch."""
        monkeypatch.setattr(RowTable, "_CHUNK", 64)
        rng = np.random.default_rng(width + 3)
        table, reference = RowTable(np, width), _Reference()
        for turn, batch in enumerate(_batches(rng, width, count=6, size=1000, pool=300)):
            if turn % 2:
                assert table.add(batch).tolist() == reference.add(batch)
            else:
                assert table.intern(batch).tolist() == reference.intern(batch)
        assert len(table) == len(reference.ids) <= 300
        assert [row.tobytes() for row in table.rows(np.uint8)] == list(reference.ids)
        assert len(table._slots) == 1024  # 2 x (300 + a chunk), not 2 x 1300

    def test_rows_differing_in_one_trailing_byte(self, width):
        """The last prefix lane and every byte of the section ID are part
        of the row: two rows that differ only there are two states."""
        base = np.zeros((1, width), dtype=np.uint8)
        rows = np.repeat(base, 6, axis=0)
        for i, at in enumerate((-5, -4, -3, -2, -1), start=1):
            rows[i, at] = 1
        table = RowTable(np, width)
        assert table.add(rows).all() and len(table) == 6
        assert not table.add(rows[::-1]).any()
        assert table.find(rows).tolist() == [0, 1, 2, 3, 4, 5]

    def test_empty_batch(self, width):
        table = RowTable(np, width)
        empty = np.empty((0, width), dtype=np.uint8)
        assert table.add(empty).tolist() == [] and len(table) == 0
        assert table.find(empty).tolist() == []
        table.add(np.ones((3, width), dtype=np.uint8))
        assert table.add(empty).tolist() == [] and len(table) == 1

    def test_exact_under_a_constant_hash(self, width, monkeypatch):
        """Every row in one probe chain: slower, and still exact."""
        monkeypatch.setattr(
            RowTable, "_hash",
            lambda self, words: np.zeros(len(words), dtype=np.uint64),
        )
        rng = np.random.default_rng(1)
        table, reference = RowTable(np, width), _Reference()
        for batch in _batches(rng, width, count=6, size=60, pool=150):
            assert table.add(batch).tolist() == reference.add(batch)
        probe = np.concatenate([batch, batch + 1])
        assert table.find(probe).tolist() == reference.find(probe)

    @pytest.mark.parametrize("constant_hash", [False, True])
    def test_intern_agrees_with_a_dict(self, width, monkeypatch, constant_hash):
        """``intern`` is ``add`` answering with IDs: every row's arena
        index, new or known, the first of equal rows in a batch naming the
        rest -- one probe, interleaved here with ``add`` on the same table,
        and exact under a constant hash too."""
        if constant_hash:
            monkeypatch.setattr(
                RowTable, "_hash",
                lambda self, words: np.zeros(len(words), dtype=np.uint64),
            )
        rng = np.random.default_rng(width + 7)
        table, reference = RowTable(np, width), _Reference()
        sizes = dict(count=8, size=60, pool=150) if constant_hash else dict(
            count=40, size=300, pool=4000)
        repeats = 0
        for turn, batch in enumerate(_batches(rng, width, **sizes)):
            repeats += len(batch) - len({row.tobytes() for row in batch})
            if turn % 3 == 2:
                assert table.add(batch).tolist() == reference.add(batch)
            else:
                ids = table.intern(batch)
                assert ids.tolist() == reference.intern(batch)
                assert ids.dtype.kind == "i" and len(ids) == len(batch)
            assert len(table) == len(reference.ids)
        assert repeats > 0, "no batch held a row twice"
        assert [row.tobytes() for row in table.rows(np.uint8)] == list(reference.ids)
        everything = table.rows(np.uint8).copy()
        assert table.intern(everything).tolist() == list(range(len(table)))
        empty = np.empty((0, width), dtype=np.uint8)
        assert table.intern(empty).tolist() == []

    def test_a_matrix_of_another_width_is_refused(self, width):
        with pytest.raises(ValueError, match=f"{width}-byte rows"):
            RowTable(np, width).add(np.zeros((2, width + 1), dtype=np.uint8))


@pytest.mark.parametrize("columns", [5, 6, 7], ids=lambda c: f"{c - 3}-caches")
def test_rows_of_small_integers_hash_apart(columns):
    """The batch path's rows are vectors of small ``uint32`` IDs (block,
    version, section), hashed as 64-bit words where those tile the row, and
    the hash is all that spreads them over the slots.  Distinct rows get
    distinct 64-bit hashes, and the low bits -- the slot index -- spread
    like a random function's, on the shape such rows have: a few columns
    varying together over dense ranges (a plain FNV-1a chain over whole
    words maps this grid, at 3 caches, to 16 384 hashes: a directory block
    one up cancels against a section 435 up)."""
    grid = np.indices((20, 9000), dtype=np.uint32).reshape(2, -1).T
    rows = np.full((len(grid), columns), 3, dtype=np.uint32)
    rows[:, -3] = grid[:, 0]  # directory block
    rows[:, -1] = grid[:, 1]  # section
    table = RowTable(np, 4 * columns)
    hashes = table._hash(table._as_words(rows))
    assert len(np.unique(hashes)) == len(rows) == 180_000
    low = np.unique(hashes & np.uint64((1 << 20) - 1))
    expected = (1 << 20) * (1 - np.exp(-len(rows) / (1 << 20)))
    assert len(low) > 0.98 * expected


def test_the_table_is_a_leaf_both_layers_import():
    """One class, homed below both of its users: the batch kernel's section
    table does not make ``repro.system`` import the verification package."""
    from repro.system.rowtable import RowTable as leaf

    assert leaf is RowTable
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.system; "
         "print(sorted(m for m in sys.modules if m.startswith('repro.verification')))"],
        env=dict(os.environ, PYTHONPATH=os.path.abspath(src)),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("width", [44, 16])
def test_wider_lanes_are_the_same_bytes(width):
    rng = np.random.default_rng(2)
    rows = rng.integers(0, 1 << 32, size=(50, width // 4), dtype=np.uint32)
    table = RowTable(np, width)
    assert table.add(rows).all()
    assert not table.add(rows.view(np.uint8)).any()
    assert (table.rows(np.uint32) == rows).all()


# -- the expander on top -----------------------------------------------------------

CELLS = [
    ("MSI", "nonstalling", 2, 2),
    ("MSI-Unordered", "nonstalling", 3, 1),
]


def _system(all_generated, cell):
    name, policy, num_caches, accesses = cell
    kinds = {}
    if name == "MSI-Unordered":  # no eviction path by design
        kinds = dict(access_kinds=(AccessKind.LOAD, AccessKind.STORE))
    return System(all_generated[(name, policy)], num_caches=num_caches,
                  workload=Workload(max_accesses_per_cache=accesses, **kinds))


@pytest.fixture
def batches(monkeypatch):
    """``(rows, result)`` of every ``StateStore.intern_batch`` call."""
    seen = []
    original = StateStore.intern_batch

    def spying(store, rows, *links):
        result = original(store, rows, *links)
        seen.append((np.array(rows), result))
        return result

    monkeypatch.setattr(StateStore, "intern_batch", spying)
    return seen


@pytest.mark.parametrize("symmetry", [False, True], ids=["full", "reduced"])
@pytest.mark.parametrize("cell", CELLS, ids=lambda c: f"{c[0]}-{c[2]}c{c[3]}a")
def test_arena_index_is_the_compiled_searchs_state_id(
        all_generated, explorations, batches, cell, symmetry):
    system = _system(all_generated, cell)
    compiled = verify(system, symmetry=symmetry)
    vectorized = verify(system, symmetry=symmetry, kernel="vectorized")
    assert compiled.ok and vectorized.ok
    assert (compiled.kernel, vectorized.kernel) == ("compiled", "vectorized")
    assert vectorized.stats["fallback_transitions"] == 0
    by_key, by_row = (ctx.store for ctx in explorations[-2:])
    # No key index survives on the batch path: rows, and links.
    assert by_row._ids is None and by_key._rows is None
    assert len(by_row._rows) == len(by_row) == compiled.states_explored
    # Row i lowered is the key the compiled search interned as ID i, and
    # the three link columns (and their side tables) are the compiled run's.
    assert by_row.snapshot() == by_key.snapshot()
    # intern_batch's result marks exactly the new rows, in ID order.
    known = {by_row._rows.rows(np.uint8)[0].tobytes(): 0}  # the root
    for rows, result in batches:
        assert len(result) == len(rows)
        for row, new_id in zip(rows, result.tolist()):
            key = row.tobytes()
            if key in known:
                assert new_id == -1
            else:
                assert new_id == len(known)
                known[key] = new_id
    assert len(known) == compiled.states_explored


@pytest.mark.parametrize("cell, counts", [
    (("MSI", "stalling", 4, 1), (14_990, 37_180)),
    (("MOSI", "nonstalling", 4, 1), (22_413, 50_256)),
], ids=["MSI-stalling-4c1a", "MOSI-nonstalling-4c1a"])
def test_four_caches_are_forty_columns(all_generated, explorations, cell, counts):
    """The batch kernel past 3 caches: a section is a vector over the 40
    ``(src, dst, vnet)`` channels of five nodes, and every state still gets
    the compiled search's ID."""
    system = _system(all_generated, cell)
    assert len(system.vectorized_kernel()._col_of) == 40
    compiled = verify(system)
    vectorized = verify(system, kernel="vectorized")
    assert compiled.ok and vectorized.ok
    assert (compiled.kernel, vectorized.kernel) == ("compiled", "vectorized")
    assert (vectorized.states_explored, vectorized.transitions_explored) == counts
    assert (compiled.states_explored, compiled.transitions_explored) == counts
    assert vectorized.stats["fallback_transitions"] == 0
    by_key, by_row = (ctx.store for ctx in explorations[-2:])
    assert by_row.snapshot() == by_key.snapshot()


def test_two_raw_successors_of_one_representative_intern_once(
        msi_stalling, batches):
    """Symmetry on: the level's candidates are representatives, and two raw
    successors of one level can share one -- the table takes the first."""
    system = System(msi_stalling, num_caches=3,
                    workload=Workload(max_accesses_per_cache=2))
    result = verify(system, symmetry=True, kernel="vectorized")
    assert result.ok and result.kernel == "vectorized"
    assert (result.states_explored, result.transitions_explored) == (29_533, 76_135)
    shared = 0
    for rows, new_ids in batches:
        first = {}
        for pos, row in enumerate(rows):
            earlier = first.setdefault(row.tobytes(), pos)
            if earlier != pos:
                assert new_ids[pos] == -1
                shared += 1
    assert shared > 0, "no level held two raw successors of one representative"


#: ``System.value_bound`` values that force each lane width.
WIDE = {"H": 300, "I": 70_000}


@pytest.mark.parametrize("typecode", WIDE)
def test_forced_wide_lanes_read_the_pinned_counts(msi_nonstalling, monkeypatch,
                                                  typecode):
    monkeypatch.setattr(System, "value_bound", lambda self: WIDE[typecode])
    system = System(msi_nonstalling, num_caches=2,
                    workload=Workload(max_accesses_per_cache=2))
    assert system.codec().typecode == typecode
    for symmetry, counts in ((False, (1702, 3078)), (True, (862, 1557))):
        result = verify(system, symmetry=symmetry, kernel="vectorized")
        assert result.ok and result.kernel == "vectorized"
        assert (result.states_explored, result.transitions_explored) == counts
        # A row is 4 x (caches + 3) bytes whatever the lane width.
        assert system.vectorized_kernel().row_width == 5
        assert result.stats["visited_bytes"] == (
            counts[0] * 20 + (4096 if counts[0] == 1702 else 2048) * 4
        )


def test_search_is_exact_under_a_constant_hash(msi_nonstalling, monkeypatch):
    """Membership is full-row comparison: with every row of every batch in
    one slot chain the search still reads 1702 / 3078."""
    monkeypatch.setattr(
        RowTable, "_hash",
        lambda self, words: np.zeros(len(words), dtype=np.uint64),
    )
    system = System(msi_nonstalling, num_caches=2,
                    workload=Workload(max_accesses_per_cache=2))
    result = verify(system, kernel="vectorized")
    assert result.ok and result.kernel == "vectorized"
    assert (result.states_explored, result.transitions_explored) == (1702, 3078)


def test_failing_search_goes_through_the_key_taking_intern(
        msi_spec, explorations, monkeypatch):
    """A level the batch path cannot express replays per state, and every
    key that body interns lands in the row table through ``intern``."""
    from verification_helpers import make_missing_inv_mutant

    system = System(make_missing_inv_mutant(msi_spec), num_caches=2,
                    workload=Workload(max_accesses_per_cache=2))
    calls = []
    original = StateStore.intern

    def spying(store, key, *link, **named):
        out = original(store, key, *link, **named)
        calls.append((store._rows is not None, out[1]))
        return out

    monkeypatch.setattr(StateStore, "intern", spying)
    compiled = verify(system)
    calls.clear()
    vectorized = verify(system, kernel="vectorized")
    assert not vectorized.ok and vectorized.kernel == "vectorized"
    assert (vectorized.error, vectorized.trace) == (compiled.error, compiled.trace)
    on_rows = [is_new for rows, is_new in calls if rows]
    assert True in on_rows and False in on_rows
    by_key, by_row = (ctx.store for ctx in explorations[-2:])
    # Same states under the same IDs, whichever way each one came in.
    assert by_row.snapshot()["keys"] == by_key.snapshot()["keys"][: len(by_row)]


# -- checkpoint: rows out as keys, back in as rows ---------------------------------

_RESUME = """
import json, sys
from repro import protocols
from repro.core import GenerationConfig, generate
from repro.system import System, Workload
from repro.verification import verify
from repro.verification.engine import core

made = []
class Recorded(core.Exploration):
    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        made.append(self)
core.Exploration = Recorded

generated = generate(protocols.load("MSI"), GenerationConfig.nonstalling())
system = System(generated, num_caches=2, workload=Workload(max_accesses_per_cache=2))
# Fill the section table in another order than the first leg's process did.
verify(System(generated, num_caches=2, workload=Workload(max_accesses_per_cache=1)),
       kernel="vectorized")
result = verify(system, kernel="vectorized", symmetry=%(symmetry)r,
                max_states=10 ** 6, checkpoint=%(path)r)
store = made[-1].store
json.dump({
    "counts": [result.states_explored, result.transitions_explored,
               result.complete_states],
    "resume_level": result.stats["resume_level"],
    "links": [[p, repr(e), repr(s)] for p, e, s in map(store.link, range(len(store)))],
    "keys": [key.hex() for key in store.snapshot()["keys"]],
}, sys.stdout)
"""


@pytest.mark.parametrize("symmetry", [False, True], ids=["full", "reduced"])
def test_resume_in_a_fresh_process_equals_the_uninterrupted_run(
        msi_nonstalling, explorations, tmp_path, symmetry):
    """Leg 1 here, leg 2 in a new interpreter whose section IDs are its own:
    the checkpoint carries keys, never rows, so every state keeps its ID."""
    system = System(msi_nonstalling, num_caches=2,
                    workload=Workload(max_accesses_per_cache=2))
    whole = verify(system, kernel="vectorized", symmetry=symmetry)
    store = explorations[-1].store
    path = str(tmp_path / "run.ckpt")
    leg = verify(system, kernel="vectorized", symmetry=symmetry,
                 max_states=whole.states_explored // 2, checkpoint=path)
    assert leg.partial and os.path.exists(path)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    done = subprocess.run(
        [sys.executable, "-c", _RESUME % dict(symmetry=symmetry, path=path)],
        env=dict(os.environ, PYTHONPATH=os.path.abspath(src)),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    resumed = json.loads(done.stdout)
    assert resumed["resume_level"] is not None
    assert resumed["counts"] == [whole.states_explored,
                                 whole.transitions_explored,
                                 whole.complete_states]
    assert resumed["keys"] == [key.hex() for key in store.snapshot()["keys"]]
    assert resumed["links"] == [
        [p, repr(e), repr(s)] for p, e, s in map(store.link, range(len(store)))
    ]
    assert not os.path.exists(path), "a completed run consumes its checkpoint"


def test_resumed_failure_keeps_ids_and_trace(msi_spec, explorations, tmp_path):
    system = System(make_swmr_mutant(msi_spec), num_caches=2,
                    workload=Workload(max_accesses_per_cache=2))
    whole = verify(system, kernel="vectorized")
    assert not whole.ok and whole.violation is not None
    path = str(tmp_path / "run.ckpt")
    leg = verify(system, kernel="vectorized", checkpoint=path,
                 max_states=whole.states_explored // 2)
    assert leg.partial and leg.ok
    fresh = System(make_swmr_mutant(msi_spec), num_caches=2,
                   workload=Workload(max_accesses_per_cache=2))
    resumed = verify(fresh, kernel="vectorized", checkpoint=path,
                     max_states=10 ** 6)
    assert str(resumed.violation) == str(whole.violation)
    assert resumed.trace == whole.trace
    assert resumed.states_explored == whole.states_explored
    first, second = (ctx.store for ctx in (explorations[0], explorations[-1]))
    assert second.snapshot() == first.snapshot()
