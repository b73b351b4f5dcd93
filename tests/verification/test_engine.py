"""Engine-level tests: the interned state store, search strategies, the
search statistics and what a search retains.

Whole searches -- every strategy and backend held to ``reference_search``,
and every reported counterexample replayed -- are the rows of the
conformance matrix (``test_conformance.py``).  Under symmetry reduction the
stored search tree lives in canonical frames, so a naive readback would
interleave incompatible cache labelings; the engine relabels every event
through the inverse permutation chain, and each failing row replays its
trace step by step on the tests' reference system (``replay_and_check``
steps ``ReferenceSystem``, from the true initial state), demanding the
exact violation, error or deadlock.
"""

from array import array

import pytest

from repro.system import System, Workload
from repro.verification import InvariantViolation, verify
from repro.verification.engine import Exploration, StateStore
from repro.verification.engine.canonical import (
    EncodedCanonicalizer,
    canonicalizer_for,
)
from repro.verification.random_walk import random_walk

from reference_system import ReferenceSystem


class TestStrategies:
    ALIASES = ["breadth-first", "depth-first", "parallel-bfs", "BFS"]

    @pytest.mark.parametrize("spec", ALIASES)
    def test_only_the_three_names_are_strategies(self, msi_nonstalling, spec):
        """No alias and no other case: the error names the three strategies
        there are."""
        system = System(msi_nonstalling, num_caches=2,
                        workload=Workload(max_accesses_per_cache=1))
        with pytest.raises(ValueError, match="'bfs', 'dfs' or 'parallel'"):
            verify(system, strategy=spec)

    def test_parallel_truncation_is_bounded(self, msi_nonstalling):
        system = System(msi_nonstalling, num_caches=2,
                        workload=Workload(max_accesses_per_cache=2))
        result = verify(system, strategy="parallel", processes=2, max_states=50)
        assert result.truncated and result.ok

    @pytest.mark.parametrize("symmetry", [False, True], ids=["full", "reduced"])
    @pytest.mark.parametrize("strategy", ["bfs", "parallel"])
    def test_an_invariant_the_root_violates_fails_state_0(
        self, msi_nonstalling, explorations, monkeypatch, strategy, symmetry
    ):
        """The root is checked like every other state, through
        ``first_violation`` on its key's lanes: an invariant it violates
        fails the search at state ID 0 with an empty trace, before anything
        is expanded (or forked)."""
        def always_fires(system, state):
            return InvariantViolation(name="always", detail="fires everywhere")

        failed_at = []
        failure = Exploration.failure

        def recorded(self, **kwargs):
            failed_at.append(kwargs.get("leaf_id"))
            return failure(self, **kwargs)

        monkeypatch.setattr(Exploration, "failure", recorded)
        system = System(msi_nonstalling, num_caches=3,
                        workload=Workload(max_accesses_per_cache=1))
        result = verify(system, invariants=(always_fires,), symmetry=symmetry,
                        strategy=strategy, processes=1)
        assert not result.ok and result.violation.name == "always"
        assert failed_at == [0] and explorations[-1].root_id == 0
        assert result.trace == [] and result.trace_events == []
        assert result.states_explored == 0

    def test_max_states_budget_aborts_cleanly(self, msi_nonstalling):
        """A budgeted run stops at exactly the budget with a partial report."""
        system = System(msi_nonstalling, num_caches=2,
                        workload=Workload(max_accesses_per_cache=2))
        result = verify(system, max_states=100)
        assert result.ok and result.truncated and result.partial
        assert result.states_explored == 100
        assert "partial" in result.summary
        # A budget the search never reaches leaves the result complete.
        full = verify(system, max_states=10_000)
        assert full.ok and not full.partial
        assert full.states_explored == 1702


class TestStateStore:
    def test_intern_dedups_and_links(self, msi_nonstalling):
        system = ReferenceSystem(msi_nonstalling, num_caches=2)
        store = StateStore()
        initial = system.initial_state()
        root, new = store.intern(initial)
        assert new and root == 0 and len(store) == 1
        event = system.enabled_events(initial)[0]
        successor = system.apply(initial, event).state
        child, new = store.intern(successor, parent=root, event=event)
        assert new and child == 1
        again, new = store.intern(successor, parent=99, event=None)
        assert not new and again == child
        assert store.link(child) == (root, event, None)
        assert initial in store._ids and successor in store._ids
        chain = store.chain(child)
        assert [e for e, _ in chain] == [None, event]

    def test_extend_links_equals_repeated_append_link(self):
        """The fleet lands a round's trace links as three columns; the block
        must read back exactly as the same links appended one by one."""
        parents = array("q", [0, 0, 1, 3, 2])
        events = [(0, 1, 0), (1, 4, 0, 1), (0, 1, 0), None, (2, 4, 1, 0)]
        perms = [None, (1, 0), (0, 1), None, (1, 0)]
        one_by_one, blockwise = StateStore(), StateStore()
        for store in (one_by_one, blockwise):
            store.intern(b"root")
        ids = [one_by_one.append_link(*link)
               for link in zip(parents, events, perms)]
        base = blockwise.extend_links(parents, iter(events), iter(perms))
        assert ids == list(range(base, base + len(parents))) == [1, 2, 3, 4, 5]
        assert len(blockwise) == len(one_by_one) == 6
        for state_id in range(6):
            assert blockwise.link(state_id) == one_by_one.link(state_id)
        assert blockwise.chain(5) == one_by_one.chain(5)
        assert blockwise.extend_links((), (), ()) == 6 and len(blockwise) == 6


class TestBackwardCompatibility:
    def test_verify_takes_eight_keywords(self):
        """Every keyword earns its place; one more is a deliberate edit
        here, not a drive-by."""
        import inspect

        params = inspect.signature(verify).parameters
        assert list(params) == [
            "system", "invariants", "max_states", "deadlock", "symmetry",
            "strategy", "processes", "kernel", "checkpoint",
        ]
        assert all(p.kind is p.KEYWORD_ONLY for p in list(params.values())[1:])


class TestRandomWalkCoverage:
    @pytest.mark.parametrize("num_caches, raw_count, reduced_count",
                             [(2, 191, 162), (3, 361, 310)])
    def test_coverage_counts_canonical_states(
        self, msi_nonstalling, monkeypatch, num_caches, raw_count, reduced_count
    ):
        """Coverage is counted on the searches' own terms: packed keys,
        canonicalized by the searches' canonicalizer.  The figures are the
        ones the walk reported when it kept whole ``GlobalState`` trees
        canonicalized on the object model."""
        import sys

        made = []

        class Recorded(set):
            def __init__(self):
                super().__init__()
                made.append(self)

        # The walk's one ``set()`` call builds its coverage set.
        monkeypatch.setattr(sys.modules["repro.verification.random_walk"],
                            "set", Recorded, raising=False)
        system = System(msi_nonstalling, num_caches=num_caches,
                        workload=Workload(max_accesses_per_cache=2))
        raw = random_walk(system, runs=20, max_steps=120, seed=5,
                          track_coverage=True, symmetry=False)
        reduced = random_walk(system, runs=20, max_steps=120, seed=5,
                              track_coverage=True)
        assert raw.ok and reduced.ok
        assert (raw.unique_states, reduced.unique_states) == (raw_count, reduced_count)
        assert [len(seen) for seen in made] == [raw_count, reduced_count]
        assert all(type(key) is bytes for seen in made for key in seen)
        # The exhaustive search bounds the walk's canonical coverage.
        exhaustive = verify(system, symmetry=True)
        assert reduced.unique_states <= exhaustive.states_explored
        assert "unique states" in reduced.summary

    def test_coverage_off_by_default(self, msi_nonstalling):
        system = System(msi_nonstalling, num_caches=2,
                        workload=Workload(max_accesses_per_cache=1))
        result = random_walk(system, runs=3, max_steps=50, seed=1)
        assert result.ok and result.unique_states == 0


@pytest.fixture(scope="module")
def msi_2c2a(msi_nonstalling):
    """``verify()`` of a fresh MSI nonstalling 2c x 2a system, once per
    keyword set: a stats test reads a run's result, never its system."""
    runs = {}

    def run(**mode):
        key = tuple(sorted(mode.items()))
        if key not in runs:
            runs[key] = verify(System(msi_nonstalling, num_caches=2,
                                      workload=Workload(max_accesses_per_cache=2)),
                               **mode)
        return runs[key]

    return run


class TestSearchStats:
    """`VerificationResult.stats`: measured time split and decode counting.

    A search with built-in invariants decodes no `GlobalState`, failing or
    not: the conformance matrix pins ``stats["decode_count"]`` to 0 on
    every such row; here, a decoded invariant counts its decodes.
    """

    def test_stats_fields_and_time_split(self, msi_2c2a):
        result = msi_2c2a(symmetry=True)
        stats = result.stats
        assert stats["kernel"] == result.kernel
        assert stats["strategy"] == result.strategy
        assert stats["canonicalization_seconds"] > 0.0
        assert stats["expansion_seconds"] >= 0.0
        assert (
            stats["canonicalization_seconds"] + stats["expansion_seconds"]
            <= result.elapsed_seconds + 1e-6
        )

    def test_full_search_reports_no_canonicalization_time(self, msi_2c2a):
        assert msi_2c2a().stats["canonicalization_seconds"] == 0.0

    def test_symmetry_cache_sizes(self, msi_2c2a):
        """The symmetry pipeline's region memo reports its size at search
        end (distinct cache-block regions classified); without symmetry
        there is nothing to report."""
        assert msi_2c2a().stats["orbit_memo_entries"] is None
        assert msi_2c2a(symmetry=True).stats["orbit_memo_entries"] == 577

    def test_lane_width_and_parse_memo_size(self, msi_2c2a):
        """Beside the two symmetry caches: the lane width the codec derived
        and the distinct packed network sections its parse memo holds."""
        full = msi_2c2a().stats
        assert full["lane_bytes"] == 1
        assert full["parse_memo_entries"] == 442
        assert msi_2c2a(symmetry=True).stats["parse_memo_entries"] == 340

    def test_kernel_memos_say_what_they_hold(self, msi_nonstalling, msi_2c2a):
        """The compiled kernel's two per-key memos: what they hold at search
        end and how often a miss ran the generated functions (nothing is
        cleared at this size, so the two agree).  The batch kernel leaves
        them empty: it evaluates its own misses, and no level falls back."""
        names = ("access_memo_entries", "access_memo_misses",
                 "delivery_memo_entries", "delivery_memo_misses")

        def memos(**mode):
            stats = msi_2c2a(**mode).stats
            return [stats[name] for name in names]

        assert memos() == memos(strategy="dfs") == [384, 384, 440, 440]
        assert memos(symmetry=True) == [256, 256, 303, 303]
        assert memos(kernel="vectorized") == [0, 0, 0, 0]
        # A second address plane: one key per (plane, cache, block) and per
        # (plane, record, receiver block), the evaluator still run once each.
        two_planes = System(msi_nonstalling, num_caches=2, num_addresses=2,
                            workload=Workload(max_accesses_per_cache=1))
        stats = verify(two_planes).stats
        assert [stats[name] for name in names] == [72, 72, 72, 72]

    def test_visited_bytes_is_the_row_table(self, msi_2c2a):
        """Bytes per stored state as a reported count: the batch path's row
        table is its rows in use (five ``uint32`` IDs at 2 caches: a block
        per cache, the directory's, the version, the section) plus the
        int32 slot table; a dict or the fleet's shards are not measurable
        from the store and report None."""
        full = msi_2c2a(kernel="vectorized")
        assert (full.kernel, full.states_explored) == ("vectorized", 1702)
        assert full.stats["visited_bytes"] == 1702 * 20 + 4096 * 4
        reduced = msi_2c2a(kernel="vectorized", symmetry=True)
        assert reduced.stats["visited_bytes"] == 862 * 20 + 2048 * 4
        for mode in (dict(), dict(kernel="vectorized", strategy="dfs"),
                     dict(strategy="parallel", processes=2)):
            assert msi_2c2a(**mode).stats["visited_bytes"] is None, mode

    def test_batch_kernel_says_what_it_retains(self, msi_2c2a):
        """The plan tables a batch search leaves behind, as counts that
        repeat exactly: hash-consed network sections, tail-memo keys
        ``(section, delivered record, sends)``, distinct ``(event, sends)``
        outcomes, what sections are made of -- distinct channel contents
        (cells) and message records -- what the controller columns are made
        of -- distinct cache and directory blocks -- and the distinct
        ``(outcome, column, new block, new version)`` plans.  Absent on the
        other backends, like ``expansion_batches``."""

        def stats(**mode):
            return msi_2c2a(**mode).stats

        tables = ("section_entries", "tail_memo_entries", "outcome_entries",
                  "cell_entries", "record_entries", "cache_block_entries",
                  "dir_block_entries", "plan_entries")
        full = stats(kernel="vectorized")
        assert [full[name] for name in tables] == [
            442, 1142, 134, 84, 64, 168, 35, 448
        ]
        # A section the batch path creates is never parsed (nor packed):
        # the codec's memo holds the boundary parses only -- here the root.
        assert full["parse_memo_entries"] == 1
        reduced = stats(kernel="vectorized", symmetry=True)
        assert [reduced[name] for name in tables] == [
            340, 700, 112, 79, 62, 151, 35, 325
        ]
        # ... and under symmetry the relabeled representatives' sections.
        assert 1 < reduced["parse_memo_entries"] < reduced["section_entries"]
        for mode in (dict(), dict(kernel="vectorized", strategy="dfs")):
            assert not set(tables) & set(stats(**mode)), mode

    def test_omission_bound_says_what_a_digest_can_miss(self, msi_2c2a):
        """Membership by 128-bit digest can merge two distinct states; the
        result states the birthday bound on that over the states stored.
        Only the fleet's shards hold digests: where keys or rows are
        compared whole -- every in-process search -- there is nothing to
        bound."""
        bound = 1702 * 1701 / 2 / 2**128
        assert 0 < bound < 1e-32
        for mode in (dict(), dict(strategy="dfs"), dict(symmetry=True)):
            assert msi_2c2a(**mode).stats["omission_bound"] is None, mode
        rows = msi_2c2a(kernel="vectorized")
        assert rows.kernel == "vectorized"
        assert rows.stats["omission_bound"] is None
        fleet = msi_2c2a(strategy="parallel", processes=2)
        assert fleet.states_explored == 1702
        assert fleet.stats["omission_bound"] == bound

    def test_decoded_invariant_counts_its_decodes(self, msi_nonstalling):
        """An invariant with no encoded evaluator is called on a decoded
        state, one decode per new state; the stats must say so rather than
        pretend otherwise."""
        system = System(msi_nonstalling, num_caches=2,
                        workload=Workload(max_accesses_per_cache=2))
        result = verify(system, symmetry=True,
                        invariants=[lambda system, state: None])
        assert result.ok and result.kernel == "compiled"
        assert result.stats["decode_count"] >= result.states_explored - 1

    def test_vectorized_reduced_search_batch_telemetry(self, msi_stalling):
        """The batch kernel's hot-path contract, pinned by telemetry: on a
        fault-free single-address reduced search every transition is expanded
        by the lane-matrix path (zero fallbacks) with zero object decodes."""
        system = System(msi_stalling, num_caches=3,
                        workload=Workload(max_accesses_per_cache=1))
        codec = system.codec()
        before = codec.decode_count
        result = verify(system, symmetry=True, kernel="vectorized")
        assert result.ok and result.kernel == "vectorized"
        stats = result.stats
        assert stats["expansion_batches"] > 0
        assert stats["mean_batch_width"] > 0.0
        # One batch per BFS level: mean width is states / levels.
        assert stats["mean_batch_width"] == pytest.approx(
            result.states_explored / stats["expansion_batches"]
        )
        assert stats["vectorized_transitions"] == result.transitions_explored
        assert stats["fallback_transitions"] == 0
        assert codec.decode_count == before
        assert stats["decode_count"] == 0

    def test_vectorized_full_search_batch_telemetry(self, msi_2c2a):
        result = msi_2c2a(kernel="vectorized")
        assert result.ok and result.kernel == "vectorized"
        assert result.stats["expansion_batches"] > 0
        assert result.stats["fallback_transitions"] == 0
        assert result.stats["decode_count"] == 0

    def test_compiled_search_reports_no_batch_telemetry(self, msi_nonstalling):
        """Batch counters are vectorized-only: the serial kernels must not
        report fields they never populate."""
        system = System(msi_nonstalling, num_caches=2,
                        workload=Workload(max_accesses_per_cache=1))
        result = verify(system)
        assert result.kernel == "compiled"
        assert "expansion_batches" not in result.stats
        assert "fallback_transitions" not in result.stats

    def test_parallel_search_aggregates_worker_stats(self, msi_2c2a):
        result = msi_2c2a(symmetry=True, strategy="parallel", processes=2)
        assert result.stats["decode_count"] == 0
        assert result.stats["canonicalization_seconds"] > 0.0

    def test_forked_parallel_run_reports_worker_telemetry(self, msi_2c2a):
        """A search on the shared-memory fleet must say what the workers
        did: states expanded per worker and chunks stolen beyond the
        one-per-worker baseline.  Those two are the only keys it adds to an
        in-process search's: a worker's visited set is one in-memory digest
        set, with no disk tier to report on."""
        result = msi_2c2a(symmetry=True, strategy="parallel", processes=2)
        stats = result.stats
        assert len(stats["worker_states"]) == 2
        assert sum(stats["worker_states"]) > 0
        # Nothing is stolen under the hash partition (the key stays for the
        # bench harness, which sums it).
        assert stats["steal_count"] == 0
        serial = msi_2c2a(symmetry=True).stats
        assert stats.keys() - serial.keys() == {"steal_count", "worker_states"}
        assert stats["resume_level"] is None
        # One round per BFS level; with two owners some, but
        # fewer than all, candidates cross to the other shard.
        assert 0 < stats["round_count"] < result.states_explored
        assert 0.0 < stats["cross_shard_share"] < 1.0

    def test_in_process_search_reports_no_worker_telemetry(self, msi_2c2a):
        """Worker counters are fleet-only: a search that never forked must
        not fabricate them (mirrors the batch-telemetry rule above)."""
        result = msi_2c2a(symmetry=True)
        assert "worker_states" not in result.stats
        assert "steal_count" not in result.stats
        assert result.stats["round_count"] is None
        assert result.stats["cross_shard_share"] is None
        assert result.stats["resume_level"] is None

    def test_parallel_pool_spinup_suppresses_expansion_split(self, msi_2c2a):
        """The multi-process contract: worker CPU time is summed, so no
        wall-clock expansion figure is fabricated."""
        result = msi_2c2a(symmetry=True, strategy="parallel", processes=2)
        assert result.ok
        assert result.stats["expansion_seconds"] is None


class TestNoSilentWrap:
    """A lane that outgrows its width ends the search with the codec's named
    error on every path -- NumPy casts wrap where ``struct.pack`` raises, so
    none of them may get that far -- never with a truncated key and a PASS.

    The width is forced one size too narrow by ageing the root key:
    ``value_bound`` promises data versions below 6, the search starts at
    version 254, and the first data message carries lane value 256.
    """

    @pytest.fixture
    def aged(self, msi_nonstalling, monkeypatch):
        from repro.system import StateCodec

        fresh_root = StateCodec.root

        def aged_root(self):
            lanes = list(self.unpack(fresh_root(self)))
            # The directory's memory lane, then the plane's version lane.
            lanes[self.version_offset - 1] = lanes[self.version_offset] = 254
            return self.pack(lanes)

        monkeypatch.setattr(StateCodec, "root", aged_root)
        system = System(msi_nonstalling, num_caches=2,
                        workload=Workload(max_accesses_per_cache=2))
        assert system.codec().typecode == "B"
        return system

    @pytest.mark.parametrize("kernel", ["compiled", "vectorized"])
    def test_serial_paths_raise(self, aged, kernel):
        from repro.system import LaneOverflow

        with pytest.raises(LaneOverflow, match="lane value 256"):
            verify(aged, kernel=kernel)

    def test_the_fleet_raises_the_same_error(self, aged):
        import multiprocessing

        from repro.system import LaneOverflow

        with pytest.raises(LaneOverflow, match="lane value 256"):
            verify(aged, strategy="parallel", processes=2)
        assert not multiprocessing.active_children()

    def test_wide_enough_lanes_run_the_same_search(self, aged, monkeypatch):
        """The same aged search on the width its values need: no error."""
        monkeypatch.setattr(System, "value_bound", lambda self: 300)
        wide = System(aged.protocol, num_caches=2, workload=aged.workload)
        assert wide.codec().typecode == "H"
        result = verify(wide)
        assert result.ok and result.states_explored == 1702


#: ``System.value_bound`` values that derive each lane width.
LANE_WIDTHS = {"B": 5, "H": 300, "I": 70_000}


@pytest.mark.parametrize("typecode", LANE_WIDTHS)
class TestLaneWidthParity:
    """Lane width is a derived codec detail: every backend runs the same
    functions at 8, 16 and 32 bits and counts the same states."""

    @pytest.fixture
    def system(self, msi_nonstalling, monkeypatch, typecode):
        monkeypatch.setattr(
            System, "value_bound", lambda self: LANE_WIDTHS[typecode]
        )
        system = System(msi_nonstalling, num_caches=2,
                        workload=Workload(max_accesses_per_cache=2))
        assert system.codec().typecode == typecode
        return system

    @pytest.mark.parametrize("kernel", ["compiled", "vectorized"])
    def test_full_search_counts(self, system, kernel):
        result = verify(system, kernel=kernel)
        assert result.ok and result.kernel == kernel
        assert result.states_explored == 1702
        assert result.transitions_explored == 3078
        assert result.stats["lane_bytes"] == system.codec().lane_bytes
        if kernel == "vectorized":
            assert result.stats["fallback_transitions"] == 0

    @pytest.mark.parametrize("kernel", ["compiled", "vectorized"])
    def test_reduced_search_counts_and_cache_sizes(self, system, kernel):
        result = verify(system, symmetry=True, kernel=kernel)
        assert result.ok and result.kernel == kernel
        assert (result.states_explored, result.transitions_explored) == (862, 1557)
        assert result.stats["orbit_memo_entries"] == 577

    @pytest.mark.parametrize("symmetry", [False, True])
    def test_fleet_counts(self, system, symmetry):
        result = verify(system, symmetry=symmetry, strategy="parallel",
                        processes=2)
        assert result.ok and sum(result.stats["worker_states"]) > 0
        assert (result.states_explored, result.transitions_explored) == (
            (862, 1557) if symmetry else (1702, 3078)
        )


@pytest.mark.parametrize("run", [
    lambda system: verify(system),
    lambda system: verify(system, strategy="dfs"),
    lambda system: verify(system, kernel="vectorized"),
    lambda system: verify(system, symmetry=True),
    lambda system: random_walk(system, runs=5, max_steps=40, seed=3,
                               track_coverage=True),
], ids=["bfs", "dfs", "vectorized", "reduced", "random-walk"])
def test_a_passing_search_builds_no_state_object(msi_nonstalling, monkeypatch, run):
    """The root is the codec's key (``StateCodec.root``) and every other key
    is spliced out of its parent's: a passing search with the built-in
    invariants constructs no ``GlobalState`` at all."""
    from repro.system import GlobalState

    built = []
    init = GlobalState.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(GlobalState, "__init__", counted)
    result = run(System(msi_nonstalling, num_caches=2,
                        workload=Workload(max_accesses_per_cache=1)))
    assert result.ok
    assert built == []


@pytest.mark.parametrize("cell", [
    ("MSI", "nonstalling", 2, 2),
    ("MSI-Unordered", "nonstalling", 3, 1),
], ids=lambda cell: f"{cell[0]}-{cell[2]}c{cell[3]}a")
class TestRetainedObjects:
    """What a symmetry-reduced search keeps per state is packed bytes or a
    shared object, never a lane tuple of its own -- structure only: no
    clock, no megabytes."""

    @pytest.fixture
    def canonicalized(self, monkeypatch):
        """Every key the search hands ``canonicalize`` that comes back as
        its own representative, by ``id`` (held here, so ids stay unique)."""
        kept = {}
        real = EncodedCanonicalizer.canonicalize

        def spying(canonicalizer, key):
            out = real(canonicalizer, key)
            if out[0] is key:
                kept[id(key)] = key
            return out

        monkeypatch.setattr(EncodedCanonicalizer, "canonicalize", spying)
        return kept

    @pytest.fixture
    def ctx(self, all_generated, explorations, canonicalized, cell):
        name, policy, num_caches, accesses = cell
        system = System(all_generated[(name, policy)], num_caches=num_caches,
                        workload=Workload(max_accesses_per_cache=accesses))
        result = verify(system, symmetry=True)
        assert result.ok and result.kernel == "compiled"
        return explorations[-1]

    def test_identity_winner_is_interned_as_the_packed_bytes(
            self, ctx, canonicalized):
        """A raw successor that is its own representative costs one bytes
        object: ``canonicalize`` returns the very key the expander packed,
        and the store keys on that object."""
        store = ctx.store
        identity = ctx.perms[0]
        shared = 0
        for key, state_id in store._ids.items():
            if state_id != ctx.root_id and store.link(state_id)[2] == identity:
                assert type(key) is bytes
                assert canonicalized.get(id(key)) is key
                shared += 1
        assert shared > 0

    def test_one_region_memo_keyed_by_packed_regions(self, ctx, canonicalized):
        from repro.system.vectorized import VectorizedKernel

        canonicalizer = canonicalizer_for(ctx.codec, ctx.perms)
        assert not hasattr(canonicalizer, "_saved_memo")
        assert not hasattr(EncodedCanonicalizer, "saved_candidates")
        assert not hasattr(VectorizedKernel(ctx.system), "_region_orbits")
        width = ctx.codec.dir_offset * ctx.codec.lane_bytes
        assert canonicalizer._orbit_memo
        for region in canonicalizer._orbit_memo:
            assert type(region) is bytes and len(region) == width
        # Every stored key that is its own raw successor was classified by
        # its region (a relabeled representative's region need not have
        # turned up raw), and so was every key canonicalized to itself.
        memo = set(canonicalizer._orbit_memo)
        store = ctx.store
        stored = {
            key[:width] for key, state_id in store._ids.items()
            if store.link(state_id)[2] == ctx.perms[0]
        }
        assert stored and stored <= memo
        assert {key[:width] for key in canonicalized.values()} <= memo

    def test_stored_events_are_shared_tuples(self, ctx):
        store = ctx.store  # the root has no event
        events = [store.link(state_id)[1] for state_id in range(1, len(store))]
        assert all(type(event) is tuple for event in events)
        assert len({id(event) for event in events}) == len(set(events))

    def test_parse_memo_is_keyed_by_packed_sections(self, ctx):
        codec = ctx.codec
        assert codec._net_items_memo
        for memo in (codec._net_items_memo, codec._planes_memo):
            assert all(type(section) is bytes for section in memo)
        # Every section is a slice of some stored key.
        tails = {key[codec.net_byte_offset:] for key in ctx.store._ids}
        assert tails <= set(codec._net_items_memo)

    def test_parse_handles_share_their_message_records(self, ctx):
        """Tens of thousands of sections hold a few hundred distinct
        records: each is one object, like the interned events."""
        codec = ctx.codec
        records = []
        for items, _offsets, deliveries, *_span in codec._net_items_memo.values():
            for item in items:
                records.extend(item[3] if codec.ordered else (item,))
            records.extend(rec for _where, rec, _packed in deliveries)
        assert len(records) > 100
        assert len({id(rec) for rec in records}) == len(set(records))
        triples = [
            triple
            for _items, _offsets, deliveries, *_span in codec._net_items_memo.values()
            for triple in deliveries
        ]
        assert len({id(triple) for triple in triples}) == len(set(triples))

    def test_compiled_levels_hold_the_stores_own_keys(
            self, ctx, explorations, monkeypatch):
        """Every entry a compiled ``expand`` receives and returns is
        ``(state_id, packed_key)`` and the key *is* the object the store
        keys on: a state at rest costs no second copy."""
        from repro.verification.engine.driver import CompiledExpander

        seen = []
        real_expand = CompiledExpander.expand

        def spying_expand(expander, level):
            received = list(level)
            successors, result = real_expand(expander, level)
            seen.append((received, list(successors or ())))
            return successors, result

        monkeypatch.setattr(CompiledExpander, "expand", spying_expand)
        fresh = System(ctx.system.protocol, num_caches=ctx.system.num_caches,
                       workload=ctx.system.workload)
        result = verify(fresh)
        assert result.ok and result.kernel == "compiled"
        store_keys = {key: key for key in explorations[-1].store._ids}
        entries = [entry for pair in seen for level in pair for entry in level]
        assert len(entries) >= 2 * result.states_explored - 1
        for state_id, key in entries:
            assert type(state_id) is int and type(key) is bytes
            assert store_keys[key] is key

    def test_no_second_frontier_form_survives(self, ctx):
        from repro.system.vectorized import VectorizedKernel
        from repro.verification.engine.driver import CompiledExpander

        assert "lift" not in vars(CompiledExpander)
        assert "lower" not in vars(CompiledExpander)
        # A fresh system: a codec whose parse memo the compiled search
        # above has not filled.
        fresh = System(ctx.system.protocol, num_caches=ctx.system.num_caches,
                       workload=ctx.system.workload)
        codec = fresh.codec()
        vkernel = VectorizedKernel(fresh)
        root = vkernel.rows_of([ctx.root_key])
        level = vkernel.collect_level([ctx.root_id], root)
        created = set(level.sids.tolist()) - set(root[:, -1].tolist())
        assert created and not level.fallbacks
        # A section is a row of cell IDs in the kernel's section table and
        # its deliveries rows of the typed section CSR: for one the hot
        # path created there is no packed tail and no parse handle, let
        # alone a lane tuple or a zero-prefixed fake encoding -- only the
        # root's, which crossed the boundary, was parsed.
        assert not hasattr(vkernel, "_zero_prefix")
        assert not hasattr(vkernel, "_section_info")
        assert len(vkernel._sections) == 1 + len(created)
        assert list(vkernel._tail_ids.values()) == root[:, -1].tolist()
        assert not vkernel._packed
        assert list(codec._net_items_memo) == [
            ctx.root_key[codec.net_byte_offset:]
        ]
        # The packed tail is rebuilt at the boundary, on request, and what
        # it rebuilds is what the compiled kernel would have packed.
        sids = sorted(created)
        assert vkernel.intern_sections(vkernel.packed_tails(sids)).tolist() == sids
        assert set(vkernel._packed) == created
        assert codec.parse_memo_entries == 1 + len(created)


def test_each_plane_section_is_parsed_once(msi_nonstalling, explorations):
    """With two address planes every entry of the section memo is one
    plane's section, parsed once: its misses are the distinct plane
    sections of the states the search expanded, however many multi-plane
    suffixes combine them."""
    system = System(msi_nonstalling, num_caches=2, num_addresses=2,
                    workload=Workload(max_accesses_per_cache=1))
    result = verify(system)
    assert result.ok and result.states_explored == 5476
    codec = system.codec()
    sections = set()
    for key in explorations[-1].store._ids:
        enc = codec.unpack(key)
        pos = codec.net_offset
        for _ in range(codec.num_addresses):
            end = pos + codec._section_length(enc, pos)
            sections.add(codec.pack(enc[pos:end]))
            pos = end
    memo = codec._net_items_memo
    assert set(memo) == sections
    assert memo.misses == len(sections) < len(codec._planes_memo)
    assert not memo.clears
    assert result.stats["parse_memo_entries"] == len(sections) + len(
        codec._planes_memo)


@pytest.mark.parametrize("axes", [
    dict(faults=dict(duplicate=True, reorder=True)),
    dict(num_addresses=2),
    dict(strategy="parallel"),
], ids=lambda axes: "-".join(axes))
def test_stored_events_are_shared_off_the_hot_loop(
        msi_nonstalling, explorations, axes):
    """The general (fault / multi-address) enumeration and the fleet's
    absorb loop hand the store the same interned event tuples the simple
    per-state path does."""
    from repro.system.system import FaultModel

    axes = dict(axes)
    mode = {}
    if "strategy" in axes:
        mode = dict(strategy=axes.pop("strategy"), processes=2)
    if "faults" in axes:
        axes["faults"] = FaultModel(**axes["faults"])
    system = System(msi_nonstalling, num_caches=2,
                    workload=Workload(max_accesses_per_cache=1), **axes)
    result = verify(system, **mode)
    assert result.ok and result.kernel == "compiled"
    store = explorations[-1].store
    events = [store.link(state_id)[1] for state_id in range(1, len(store))]
    assert len(events) > 50
    assert len({id(event) for event in events}) == len(set(events))
