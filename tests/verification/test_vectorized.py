"""Differential tests for the vectorized frontier kernel.

The batch path's contract is *bit-exactness*: ``kernel="vectorized"`` must
return the same verdicts, the same traces and (on passing searches) the same
exploration counts as the compiled per-state kernel, while performing zero
``GlobalState`` decodes on the hot path.  Whole searches -- every plain
configuration, full and reduced, failing mutants among them, and the
fallback contract (fault models, multi-address planes, litmus workloads and
DFS run, and report, the compiled kernel) -- are rows of the conformance
matrix (``test_conformance.py``).  Here, the layers below them:

* **Expansion parity** -- for sampled reachable states, one
  :meth:`VectorizedKernel.collect_level` call must enumerate exactly the
  plans (same encoded events, same successor encodings, same order) that
  ``TransitionKernel.enabled`` + per-plan apply produce -- state by state,
  and with all of them as the rows of one level.  A state is a row of
  block, version and section IDs there; the successor rows ``assemble``
  lays out are read back through the block tables.
* **The section algebra** -- every array splice against the tests'
  reference network.
* **The row boundary** -- packed keys in, rows out, and back, at every
  lane width.
* **Tail-key overflow** -- a field too wide for its bits replays the level,
  never wraps.
* **The batch invariant check** -- ``check_level`` against the per-state
  ``TransitionKernel.check``.
"""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from repro import protocols
from repro.system import System, Workload
from repro.system.codec import decode_message
from repro.system.kernel import DEFAULT_CODES
from repro.system.rowtable import RowTable
from repro.verification import verify

from reference_system import deliver, send
from verification_helpers import sample_reachable_states, workload_for


def _serial_stream(kernel, enc):
    """``enabled`` + ``apply`` of one encoded state: its ``(event,
    successor lanes)`` pairs in plan order (``None``: a plan reports a
    protocol error)."""
    codec = kernel.codec
    key = codec.pack(enc)
    plans, net = kernel.enabled(key)
    stream = []
    for plan in plans:
        succ = plan[0](key, plan, net)
        if type(succ) is str:
            return None
        stream.append((plan[1], codec.unpack(succ)))
    return stream


def _batch_stream(vk, R, level):
    """What a collected level stands for, successor by successor: ``(parent
    row, event, successor encoding)`` -- the rows ``assemble`` makes of it,
    read back into lanes through the block and section tables."""
    return list(zip(
        level.parent_pos.tolist(),
        vk.events_of(level.pids),
        map(vk.codec.unpack, vk.keys_of(vk.assemble(R, level))),
    ))


class TestExpansionParity:
    """collect_level against enabled+apply: state by state, then with the
    same states as one level."""

    @pytest.mark.parametrize("config_label", ["nonstalling", "stalling"])
    @pytest.mark.parametrize("name", protocols.available_protocols())
    def test_sampled_states_expand_identically(
        self, all_generated, name, config_label
    ):
        generated = all_generated[(name, config_label)]
        system = System(generated, num_caches=3, workload=workload_for(name))
        vk = system.vectorized_kernel()
        assert vk.supported, f"{name}/{config_label} should support batching"
        kernel = system.kernel()
        codec = system.codec()
        compared = 0
        for state in sample_reachable_states(system, seed=20):
            enc = codec.encode(state)
            serial = _serial_stream(kernel, enc)
            R = vk.rows_of([codec.pack(enc)])
            level = vk.collect_level([0], R)
            if level.fallbacks:
                # The batch path may only refuse rows the compiled path also
                # finds hard (slow-path applies); it must never *drop* rows.
                assert serial is None or level.fallbacks == [0]
                continue
            assert serial is not None
            # Same plans, same order, same encoded events, same successor
            # encodings, reconstructed from the rows.
            assert _batch_stream(vk, R, level) == [
                (0, eev, succ) for eev, succ in serial
            ]
            compared += 1
        assert compared >= 10, f"only {compared} states compared"

    @pytest.mark.parametrize("config_label", ["nonstalling", "stalling"])
    @pytest.mark.parametrize("name", protocols.available_protocols())
    def test_a_whole_level_is_the_concatenation_of_its_rows(
        self, all_generated, name, config_label
    ):
        """One-row levels cannot see an ordering bug: the order *between*
        rows, and between a row's access and delivery plans, is what the
        level's one stable sort decides.  The sampled states as one level
        -- duplicate rows included, leaf rows in the middle -- must read as
        the per-state ``enabled`` + ``apply`` streams end to end."""
        generated = all_generated[(name, config_label)]
        system = System(generated, num_caches=3, workload=workload_for(name))
        vk = system.vectorized_kernel()
        kernel = system.kernel()
        codec = system.codec()
        # Walks run to their end, so each contributes its terminal state (a
        # leaf) before the next one starts over near the root.
        states = sample_reachable_states(system, seed=20, max_steps=400)
        encs = [codec.encode(state) for state in states]
        encs += encs[:5] + encs[-5:]
        assert len(set(encs)) < len(encs)
        streams = [_serial_stream(kernel, enc) for enc in encs]
        assert None not in streams
        ids = np.arange(1000, 1000 + len(encs))
        R = vk.rows_of([codec.pack(enc) for enc in encs])
        assert R.dtype == np.uint32 and R.shape == (len(encs), vk.row_width)
        level = vk.collect_level(ids, R)
        assert not level.fallbacks
        for column in (level.parent_pos, level.pids, level.sids):
            assert isinstance(column, np.ndarray) and column.dtype.kind in "iu"
            assert len(column) == level.transitions
        expected = [
            (pos, eev, succ)
            for pos, stream in enumerate(streams)
            for eev, succ in stream
        ]
        assert _batch_stream(vk, R, level) == expected
        # Leaves: (successors before, state ID, row), in row order.
        leaves, before = [], 0
        for pos, stream in enumerate(streams):
            if not stream:
                leaves.append((before, 1000 + pos, pos))
            before += len(stream)
        assert level.leaves == leaves
        assert any(0 < pos < len(encs) - 1 for _k, _id, pos in leaves)
        # ... and `assemble` lays out those very states, raw: a row per
        # successor, equal ones included; the visited set's probe is what
        # names the distinct ones, in first-occurrence order.
        S = vk.assemble(R, level)
        assert S.dtype == np.uint32 and S.shape == (len(expected), vk.row_width)
        assert S[:, -1].tolist() == level.sids.tolist()
        assert vk.keys_of(S) == [codec.pack(succ) for _pos, _eev, succ in expected]
        first_seen: dict = {}
        for u, (_pos, _eev, succ) in enumerate(expected):
            first_seen.setdefault(succ, u)
        assert len(first_seen) < len(expected)
        fresh = RowTable(np, 4 * vk.row_width).add(S)
        assert np.flatnonzero(fresh).tolist() == sorted(first_seen.values())

    @pytest.mark.parametrize("config_label", ["nonstalling", "stalling"])
    @pytest.mark.parametrize("name", protocols.available_protocols())
    def test_a_directory_plan_keeps_each_rows_version(
        self, all_generated, name, config_label
    ):
        """The directory's delivery key has no version in it, so one plan
        serves rows of different versions: it is evaluated on the first row
        carrying the key and must not stamp that row's version on the
        others (a plan's version is "unchanged" unless the transition wrote
        it).  Every sampled state next to its twin one version on, as one
        level, on a kernel that has evaluated nothing yet."""
        generated = all_generated[(name, config_label)]
        system = System(generated, num_caches=3, workload=workload_for(name))
        vk = system.vectorized_kernel()
        kernel = system.kernel()
        codec = system.codec()
        vo = vk.version_offset
        encs, streams = [], []
        for state in sample_reachable_states(system, seed=22):
            enc = codec.encode(state)
            pair = [enc, enc[:vo] + (enc[vo] + 1,) + enc[vo + 1 :]]
            serial = [_serial_stream(kernel, enc) for enc in pair]
            if None not in serial:  # the twin may be a state nothing reaches
                encs += pair
                streams += serial
        to_directory = sum(
            eev[0] == 1 and eev[3] == 1 for stream in streams for eev, _ in stream
        )
        assert to_directory > 10, "no delivery to the directory sampled"
        R = vk.rows_of([codec.pack(enc) for enc in encs])
        assert (R[1::2, -2] == R[::2, -2] + 1).all()
        level = vk.collect_level(np.arange(len(encs)), R)
        assert not level.fallbacks
        assert _batch_stream(vk, R, level) == [
            (pos, eev, succ)
            for pos, stream in enumerate(streams)
            for eev, succ in stream
        ]


class TestSectionAlgebra:
    """The network as a product of channels: a section is a vector of cell
    IDs, and a splice -- deliver one record, send a list -- is cell
    operations on the touched columns.  The oracle is the reference
    network's ``deliver`` + ``send`` (``reference_system``, the one the
    compiled kernel's byte splices are held to in ``test_kernel.py``), on a
    ``(section, delivered, sends)`` matrix: every deliverable message of
    every sampled section, or none, against a pool of send lists."""

    @pytest.mark.parametrize("config_label", ["nonstalling", "stalling"])
    @pytest.mark.parametrize("name", protocols.available_protocols())
    def test_array_splices_equal_the_compiled_kernels(
        self, all_generated, name, config_label
    ):
        import repro.system.vectorized as vec

        generated = all_generated[(name, config_label)]
        system = System(generated, num_caches=3, workload=workload_for(name))
        vk = system.vectorized_kernel()
        codec = system.codec()
        no = vk.net_offset
        encs = list(dict.fromkeys(
            codec.encode(state)
            for state in sample_reachable_states(system, seed=21, max_steps=60)
        ))
        keys = [codec.pack(enc) for enc in encs]
        R = vk.rows_of(keys)
        # The boundary, both ways, before the hot path has run at all.
        assert vk.keys_of(R) == keys
        sids = R[:, -1]
        # One level over the samples fills the send-list table with what
        # this protocol really sends.
        level = vk.collect_level(np.arange(len(encs)), R)
        assert not level.fallbacks
        prefix = (0,) * no

        def send_list_id(sends):
            outcome = ((0,), prefix[vk.dir_offset : vk.version_offset], None,
                       tuple(sends))
            pid = vk._intern_plan(outcome, None)
            return vk._out_sends[vk._plan_oid[pid]]

        real = [
            [vk._recs[rid] for rid in
             vk._sends_rec[vk._sends_ptr[k] : vk._sends_ptr[k + 1]]]
            for k in range(min(10, len(vk._sends_ptr) - 1))
        ]
        assert [] in real and max(map(len, real)) >= 1

        def message(rec):
            return decode_message(rec, codec.mtypes)

        bits = vec._TAIL_FIELD_BITS
        splices = []  # (tail-memo key, the reference network's lanes for it)
        reopened = False
        assert list(map(codec.unpack, vk.packed_tails(sids.tolist()))) == [
            enc[no:] for enc in encs
        ]
        for enc, sid in zip(encs, sids.tolist()):
            net = codec.parsed_planes(enc)[0]
            state = codec.decode(enc)
            network = state.network
            for where, rec, _packed in ((None, None, None), *net[2]):
                pool = list(real)
                if rec is not None:
                    # Back into the channel it left (re-opening it where it
                    # was alone), and twice over: a FIFO of two, or a bag
                    # holding one message twice.
                    pool += [[rec], [rec, rec]]
                    reopened |= (
                        len(net[0][where][3]) == 1 if codec.ordered
                        else net[0].count(rec) == 1
                    )
                left = network if rec is None else deliver(network, message(rec))
                for sends in pool:
                    if where is None and not sends:
                        continue
                    after = send(left, *map(message, sends))
                    slot = 0 if rec is None else vk._rec_ids[rec] + 1
                    splices.append((
                        (sid << bits | slot) << bits | send_list_id(sends),
                        codec.encode(replace(state, network=after))[no:],
                    ))
        assert reopened and len(splices) > 200
        successors = vk._emit_tails(
            np.asarray([key for key, _lanes in splices], dtype=np.int64)
        ).tolist()
        hot = set(successors) - set(sids.tolist())
        assert hot and not hot & set(vk._packed)  # created, never packed
        tails = vk.packed_tails(successors)
        for (key, lanes), tail in zip(splices, tails):
            assert codec.unpack(tail) == lanes, (name, config_label, key)
        # ... and the boundary names the same sections for those lanes.
        assert vk.intern_sections(
            [codec.pack(lanes) for _key, lanes in splices]
        ).tolist() == successors
        # Every section is one row: equal lanes, equal ID, and back.
        assert len({lanes for _key, lanes in splices}) == len(set(successors))
        emitted = [
            codec.parsed_section(codec.pack(lanes))[0] for _key, lanes in splices
        ]
        if codec.ordered:  # a FIFO of two or more ...
            assert any(len(item[3]) >= 2 for items in emitted for item in items)
        else:  # ... a bag holding one message twice
            assert any(len(set(items)) < len(items) for items in emitted)
        # Whole states, through the boundary and back: the samples spliced
        # onto their successors' sections.
        spliced = [
            keys[k % len(keys)][: codec.net_byte_offset] + codec.pack(lanes)
            for k, (_key, lanes) in enumerate(splices)
        ]
        assert vk.keys_of(vk.rows_of(spliced)) == spliced


#: ``System.value_bound`` values that derive each lane width.
LANE_WIDTHS = {"uint8": 5, "uint16": 300, "uint32": 70_000}


@pytest.mark.parametrize("dtype", LANE_WIDTHS)
class TestRawSuccessorRows:
    """A state row is ``uint32`` IDs -- a block per controller, the version,
    the section -- whatever the lane width; lanes exist in the block tables
    and at the boundary only.  (The section-ID-over-lanes split, and the
    test that two section IDs differing past one lane stayed distinct, went
    with the lane rows.)"""

    @pytest.fixture
    def widened(self, monkeypatch, dtype):
        monkeypatch.setattr(System, "value_bound", lambda self: LANE_WIDTHS[dtype])

    @pytest.mark.parametrize("config_label", ["nonstalling", "stalling"])
    @pytest.mark.parametrize("name", protocols.available_protocols())
    def test_the_boundary_round_trips(
        self, all_generated, widened, dtype, name, config_label
    ):
        """``keys_of(rows_of(keys)) == keys``, and ``prefixes_of`` gathers
        from the block tables the very lanes ``codec.unpack`` reads."""
        generated = all_generated[(name, config_label)]
        system = System(generated, num_caches=3, workload=workload_for(name))
        vk = system.vectorized_kernel()
        codec = system.codec()
        assert vk.dtype == np.dtype(dtype)
        keys = list(dict.fromkeys(
            codec.pack(codec.encode(state))
            for state in sample_reachable_states(system, seed=23)
        ))
        assert len(keys) > 50
        R = vk.rows_of(keys)
        assert R.dtype == np.uint32 and R.shape == (len(keys), 3 + 3)
        assert vk.keys_of(R) == keys
        # Equal rows are equal keys: a row is a bijection with its key.
        assert len({row.tobytes() for row in R}) == len(keys)
        assert vk.keys_of(vk.rows_of(keys[::-1] + keys)) == keys[::-1] + keys
        P = vk.prefixes_of(R)
        assert P.dtype == vk.dtype and P.shape == (len(keys), vk.net_offset)
        encs = [codec.unpack(key) for key in keys]
        assert [tuple(row) for row in P.tolist()] == [
            enc[: vk.net_offset] for enc in encs
        ]
        # All three caches share one block table: far fewer blocks than
        # (state, cache) pairs.
        assert R[:, :3].max() + 1 == vk.cache_block_entries < len(keys)
        assert R[:, 3].max() + 1 == vk.dir_block_entries

    def test_a_first_seen_block_wider_than_a_lane_raises(
        self, msi_nonstalling, widened, dtype
    ):
        """Nothing downstream of a plan packs its lanes, and NumPy wraps
        where ``codec.pack`` raises: the block tables refuse a lane value
        the lane dtype cannot hold, once, at the block's first sight --
        and so does a plan's version."""
        from repro.system import LaneOverflow

        system = System(msi_nonstalling, num_caches=2,
                        workload=Workload(max_accesses_per_cache=2))
        vk = system.vectorized_kernel()
        assert vk.dtype == np.dtype(dtype)
        lane_max = vk.codec.lane_max
        for cid, width, lane in ((None, vk.version_offset - vk.dir_offset, 0),
                                 (1, vk.cache_width, 2)):
            block = [0] * width
            block[lane] = lane_max
            pid = vk._intern_plan(((0,), tuple(block), None, ()), cid)
            assert pid >= 0 and vk._plan_ver[pid] == -1
            block[lane] += 1
            with pytest.raises(LaneOverflow):
                vk._intern_plan(((0,), tuple(block), None, ()), cid)
        block = (0,) * vk.cache_width
        pid = vk._intern_plan(((0,), block, lane_max, ()), 0)
        assert vk._plan_ver[pid] == lane_max
        with pytest.raises(LaneOverflow):
            vk._intern_plan(((0,), block, lane_max + 1, ()), 0)

    def test_a_write_outside_the_controllers_block_is_refused(
        self, msi_nonstalling, widened, dtype
    ):
        """A plan replaces one column (and maybe the version): the compiled
        kernel's per-key evaluator refuses a transition that changed
        anything else, and the batch kernel files the refusal as a
        fallback."""
        from types import SimpleNamespace

        import repro.system.vectorized as vec
        from repro.system.kernel import FAILED

        system = System(msi_nonstalling, num_caches=2,
                        workload=Workload(max_accesses_per_cache=2))
        vk = system.vectorized_kernel()
        kernel = system.kernel()
        prefix = (0,) * vk.net_offset
        rec = (0,) * 10
        ct = SimpleNamespace(next_state=0, has_perform=False)

        def writing(lane):
            def fn(out, *args):
                out[lane] = 1
            return fn

        # A cache may write its own block and the version lane.
        for lane in (vk.cache_width + 3, vk.version_offset):
            outcome = kernel._evaluate((0,), ct, writing(lane), prefix, 1, rec, None)
            assert outcome is not FAILED
        for cid, lane in (
            (0, vk.cache_width),        # cache 0 writing cache 1's block
            (1, 0),                     # cache 1 writing cache 0's
            (0, vk.dir_offset),         # a cache writing the directory's
            (None, 0),                  # the directory writing a cache's
            (None, vk.version_offset),  # the directory writing the version
        ):
            outcome = kernel._evaluate((0,), ct, writing(lane), prefix, cid, rec, None)
            assert outcome is FAILED
            assert vk._intern_plan(outcome, cid) == vec._FALLBACK
        assert vk.plan_entries == 0


class TestTailKeyOverflow:
    """A tail-memo key packs ``(section ID, delivered record ID + 1,
    send-list ID)`` into one integer; a record or send-list ID too wide for
    its bit field sends the level to the per-state replay -- it never wraps
    into another key's successor section."""

    @pytest.mark.parametrize("symmetry", [False, True])
    @pytest.mark.parametrize("bits", [3, 5])
    def test_a_field_wider_than_its_bits_replays_the_level(
        self, msi_nonstalling, explorations, monkeypatch, bits, symmetry
    ):
        import repro.system.vectorized as vec

        def fresh():  # a fresh kernel: every key it holds has *bits*-wide fields
            return System(msi_nonstalling, num_caches=2,
                          workload=Workload(max_accesses_per_cache=2))

        compiled = verify(fresh(), symmetry=symmetry)
        monkeypatch.setattr(vec, "_TAIL_FIELD_BITS", bits)
        vectorized = verify(fresh(), symmetry=symmetry, kernel="vectorized")
        assert vectorized.ok and vectorized.kernel == "vectorized"
        assert (
            (vectorized.states_explored, vectorized.transitions_explored)
            == (compiled.states_explored, compiled.transitions_explored)
            == ((862, 1557) if symmetry else (1702, 3078))
        )
        # Some levels still fit (the first ones: few records, few send
        # lists -- and the last: leaves only), the others replay, and the two
        # kinds of level hand over to each other, both ways, without a state
        # changing its ID.
        stats = vectorized.stats
        assert stats["fallback_transitions"] > 0
        assert stats["vectorized_transitions"] > 0
        assert (stats["fallback_transitions"] + stats["vectorized_transitions"]
                == vectorized.transitions_explored)
        by_key, by_row = (ctx.store for ctx in explorations[-2:])
        assert by_row.snapshot() == by_key.snapshot()


def test_an_unknown_kernel_name_is_refused(msi_nonstalling):
    system = System(msi_nonstalling, num_caches=2,
                    workload=Workload(max_accesses_per_cache=1))
    with pytest.raises(ValueError, match="vectorized"):
        verify(system, kernel="simd")


def test_the_batch_invariant_check_equals_the_per_state_one(msi_nonstalling):
    """``check_level`` files a writer and a reader count per cache block:
    on every assignment of FSM states to three caches -- two writers, a
    writer beside a reader, two stable writers, neither -- its mask equals
    ``TransitionKernel.check`` on the same keys."""
    system = System(msi_nonstalling, num_caches=3,
                    workload=Workload(max_accesses_per_cache=1))
    codec, kernel, vk = system.codec(), system.kernel(), system.vectorized_kernel()
    lanes = list(codec.unpack(codec.root()))
    keys = []
    for states in itertools.product(range(len(kernel.spec.cache.permission)), repeat=3):
        lanes[: codec.dir_offset : codec.cache_width] = states
        keys.append(codec.pack(lanes))
    expected = [kernel.check(codec.view(key), DEFAULT_CODES) for key in keys]
    assert 0 < sum(expected) < len(keys)
    assert vk.check_level(vk.rows_of(keys), DEFAULT_CODES).tolist() == expected
