"""Differential tests: the compiled transition kernel vs the reference system.

The compiled kernel (:mod:`repro.system.kernel`) is the only interpretation
of a protocol in ``src/``, so its correctness argument is *exact agreement*
with the tests' object-level reference system (``reference_system``):

* per-state expansion parity -- identical enabled events (in order),
  bit-identical successor encodings, identical error texts, identical
  quiescence and invariant verdicts -- property-tested over random-walk
  samples of every bundled protocol in both generation configs, including
  the MOSI saved-requestor (deferred-send) states and the MSI-Unordered
  late-absorb redirect states;
* whole spaces -- every reachable state of the 2-cache multi-address,
  fault and litmus configurations expands like the reference (whole
  *searches* against ``reference_search``, the table mutants of
  ``ERROR_MUTANTS`` among them, are the rows of ``test_conformance.py``);
* the kernel contract -- a custom invariant runs on the compiled kernel, a
  ``System`` subclass and an unknown backend name are refused;
* the generated code -- the transition sources of a fixed grid of
  configurations, pinned by hash.
"""

import itertools
from dataclasses import replace

import pytest

from repro import protocols
from repro.core import GenerationConfig, generate
from repro.core.fsm import MessageEvent
from repro.dsl.types import AccessKind
from repro.system import FaultModel, System, Workload
from repro.system.kernel import DEFAULT_CODES
from repro.system.network import OrderedNetwork
from repro.verification import (
    InvariantViolation,
    default_invariants,
    message_passing,
    verify,
)

from reference_system import (deliver, deliverable, duplicate, make_network, reference,
                              reorder, reorderable, restated, send)
from verification_helpers import (
    decode_packed,
    encode_event,
    encode_packed,
    message_record,
    MessageDroppingSystem,
    assert_expansion_parity,
    assert_matches_reference,
    has_saved_ids,
    make_missing_inv_mutant,
    reference_search,
    replay_and_check,
    rewrite_actions,
    rewrite_transition,
    sample_reachable_states,
    workload_for,
)

ALL_PROTOCOLS = protocols.available_protocols()
CONFIGS = ["nonstalling", "stalling"]


@pytest.mark.parametrize("config_label", CONFIGS)
@pytest.mark.parametrize("name", ALL_PROTOCOLS)
def test_random_walk_expansion_parity(all_generated, name, config_label):
    system = System(all_generated[(name, config_label)], num_caches=2,
                    workload=workload_for(name))
    states = sample_reachable_states(system, seed=17 + len(name), walks=6,
                                     max_steps=30)
    for state in states:
        assert_expansion_parity(system, state)


def test_saved_requestor_states_parity(all_generated):
    """MOSI nonstalling at 3 caches reaches deferred-send states whose saved
    slots hold cache IDs (the `requestor_from_slot` stamping of the owner
    recall); the kernel must expand those bit-identically too."""
    system = System(all_generated[("MOSI", "nonstalling")], num_caches=3,
                    workload=Workload(max_accesses_per_cache=2))
    states = sample_reachable_states(system, seed=29, walks=10, max_steps=60)
    codec = system.codec()
    assert any(has_saved_ids(codec, codec.encode(s)) for s in states), (
        "sampling never reached a saved-requestor state; pick another seed"
    )
    for state in states:
        assert_expansion_parity(system, state)


def test_late_absorb_states_parity(all_generated):
    """MSI-Unordered nonstalling reaches the late-absorb redirect states of
    the PR 2 fix (e.g. IM_AD_I); pin the kernel's agreement through them."""
    system = System(all_generated[("MSI-Unordered", "nonstalling")], num_caches=3,
                    workload=Workload(max_accesses_per_cache=2,
                                      access_kinds=(AccessKind.LOAD,
                                                    AccessKind.STORE)))
    states = sample_reachable_states(system, seed=43, walks=10, max_steps=60)
    absorb_states = {"IM_AD_I", "IM_AD_SI", "IM_A_I", "IM_A_SI", "SM_AD_I",
                     "SM_A_I", "IS_D_I"}
    assert any(
        cache.fsm_state in absorb_states for s in states for cache in s.caches
    ), "sampling never reached a late-absorb state; pick another seed"
    for state in states:
        assert_expansion_parity(system, state)


#: Whole-space configurations on 2 caches: label -> (policy, accesses per
#: cache, system options, what ``verify()`` finds).  Each needs more than
#: one address plane, a fault lane or a litmus program -- what the memo keys
#: carry a plane for, what edits ``faults_used``, what reads all of a
#: cache's planes.  The reorder spaces run the stalling tables: under
#: re-queue order a stalled channel head is bypassed, and only a stalling
#: controller stalls a head; under strict order one wedges its channel.
WHOLE_SPACES = {
    "two-address": ("nonstalling", 1, dict(num_addresses=2), "ok"),
    "duplicate": ("nonstalling", 1, dict(faults=FaultModel(duplicate=True)), "ok"),
    "reorder-requeue": ("stalling", 2, dict(faults=FaultModel(reorder=True)), "ok"),
    "reorder-strict": (
        "stalling", 2, dict(faults=FaultModel(reorder=True, requeue=False)),
        "deadlock",
    ),
    "litmus": ("stalling", 0, dict(workload=message_passing().workload), "ok"),
    "missing-inv-two-address": ("nonstalling", 1, dict(num_addresses=2), "error"),
}


@pytest.mark.parametrize("label, name", [
    (label, name)
    for label in WHOLE_SPACES
    for name in ("MSI", "MSI-Unordered")
    # No reorder axis on an unordered network; one mutant.
    if name == "MSI" or not label.startswith(("reorder", "missing-inv"))
])
def test_whole_spaces_expand_like_the_reference(all_generated, msi_spec, label, name):
    """Every configuration builds its successors with the one byte splice.
    Over every reachable state of each multi-address, fault and litmus
    configuration -- MSI, and MSI-Unordered where the axis applies -- the
    kernel must enumerate the reference system's events in order, build
    its successors byte for byte and fail with its texts
    (:func:`assert_expansion_parity`).  The space it spans is the one
    ``verify()`` counts on a pass; the strict-order space wedges and the
    mutant's holds failing plans."""
    policy, accesses, options, verdict = WHOLE_SPACES[label]
    if label.startswith("missing-inv"):
        generated = make_missing_inv_mutant(msi_spec)
    else:
        generated = all_generated[(name, policy)]
    options = {
        "workload": workload_for(name, accesses),
        **options,
    }
    system = System(generated, num_caches=2, **options)
    kernel, codec = system.kernel(), system.codec()
    root = codec.root()
    seen, pending, transitions, failing, requeued = {root}, [root], 0, 0, 0
    while pending:
        key = pending.pop()
        assert_expansion_parity(system, decode_packed(codec, key))
        plans, net = kernel.enabled(key)
        transitions += len(plans)
        for plan in plans:
            # A delivery plan's last field: the record's place in its channel.
            requeued += plan[1][0] == 1 and plan[4] > 0
            succ = kernel.apply(key, plan, net)
            if type(succ) is str:
                failing += 1
            elif succ not in seen:
                seen.add(succ)
                pending.append(succ)
    assert bool(requeued) == (label == "reorder-requeue")
    assert bool(failing) == (verdict == "error")
    result = verify(system)
    assert result.kernel == "compiled"
    assert (result.ok, result.deadlock, bool(result.error)) == (
        verdict == "ok", verdict == "deadlock", verdict == "error"
    )
    if result.ok:
        assert (result.states_explored, result.transitions_explored) == (
            len(seen), transitions
        )


@pytest.mark.parametrize("name", ["MSI", "TSO-CC"])
def test_every_cache_assignment_is_worded_like_the_reference(all_generated, name):
    """On every assignment of FSM states to three caches -- two writers, a
    writer beside readers, two stable owners, none -- the kernel's check
    and its worded violations equal the restated invariants."""
    system = System(all_generated[(name, "stalling")], num_caches=3)
    codec, kernel, ref = system.codec(), system.kernel(), reference(system)
    lanes = list(codec.unpack(codec.root()))
    details = set()
    for states in itertools.product(range(len(codec.cache_states)), repeat=3):
        lanes[: codec.dir_offset : codec.cache_width] = states
        state = codec.decode(tuple(lanes))
        expected = [inv(ref, state) for inv in restated(None)]
        assert kernel.check(lanes, DEFAULT_CODES) == (expected == [None, None])
        for code, violation in zip(DEFAULT_CODES, expected):
            worded = kernel.violation(lanes, code)
            assert (worded and InvariantViolation(*worded)) == violation
            details.add(violation and violation.detail.rsplit("] ", 1)[1].split()[0])
    assert details == {None, "hold", "can", "are"}, "an invariant text was never hit"


@pytest.mark.parametrize("rewrite, error", [
    (None, "directory: Data needs a requestor"),
    (rewrite_actions(lambda actions: actions[::-1]),
     "directory: AddRequestorToSharers() needs a requestor"),
], ids=["send", "add-sharer"])
def test_requestorless_deliveries_fail_like_the_reference(msi_spec, rewrite, error):
    """A directory transition that needs the requestor of a message with
    none: no search reaches one (caches stamp every message they send), so
    the state is built by hand and the kernel's text held to the
    reference's.  Recording a null sharer is an error too, not a state no
    encoding can hold."""
    from repro.system.message import DIRECTORY_ID, Message

    generated = generate(msi_spec, GenerationConfig.stalling())
    if rewrite is not None:
        rewrite_transition(generated, "directory", "I", MessageEvent("GetS"), rewrite)
    system = System(generated, num_caches=2)
    gets = Message("GetS", src=0, dst=DIRECTORY_ID, vnet=0)
    state = replace(reference(system).initial_state(), network=send(make_network(True), gets))
    assert_expansion_parity(system, state)
    key = encode_packed(system.codec(), state)
    plans, net = system.kernel().enabled(key)
    assert [system.kernel().apply(key, plan, net) for plan in plans][-1] == error


def _no_cache_in(fsm_state):
    """A custom invariant (no encoded evaluator): no cache sits in
    *fsm_state*."""
    def invariant(system, state):
        holders = [i for i, cache in enumerate(state.caches)
                   if cache.fsm_state == fsm_state]
        if holders:
            return InvariantViolation(f"no-{fsm_state}", f"caches {holders}")
        return None

    return invariant


class TestKernelContract:
    def test_system_subclass_is_rejected(self, msi_stalling):
        system = MessageDroppingSystem(
            msi_stalling, num_caches=2,
            workload=Workload(max_accesses_per_cache=1),
            dropped_mtype="GetM",
        )
        with pytest.raises(TypeError, match="MessageDroppingSystem's overrides"):
            verify(system)

    def test_custom_invariant_that_never_fires_stays_compiled(
            self, msi_nonstalling):
        def never_fails(system, state):
            return None

        system = System(msi_nonstalling, num_caches=2,
                        workload=Workload(max_accesses_per_cache=2))
        result = verify(system, invariants=[never_fails])
        assert result.kernel == "compiled" and result.ok
        assert (result.states_explored, result.transitions_explored) == (
            1702, 3078
        )

    @pytest.mark.parametrize("symmetry", [False, True])
    def test_custom_invariant_that_fires_reports_a_replayable_violation(
            self, msi_nonstalling, symmetry):
        invariants = (*default_invariants(), _no_cache_in("M"))
        system = System(msi_nonstalling, num_caches=2,
                        workload=Workload(max_accesses_per_cache=2))
        expected = reference_search(system, symmetry, invariants=invariants)
        for kernel in ("compiled", "vectorized"):
            result = verify(system, invariants=invariants, kernel=kernel,
                            symmetry=symmetry)
            assert result.kernel == kernel
            assert result.violation.name == "no-M"
            assert_matches_reference(result, expected)
            replay_and_check(system, result, invariants)

    def test_known_invariant_subset_stays_compiled(self, msi_nonstalling):
        from repro.verification import swmr_invariant

        system = System(msi_nonstalling, num_caches=2,
                        workload=Workload(max_accesses_per_cache=1))
        result = verify(system, invariants=[swmr_invariant])
        assert result.kernel == "compiled" and result.ok

    @pytest.mark.parametrize("retired", ["object"])
    def test_object_kernel_is_rejected(self, msi_nonstalling, retired):
        """The object-level reference system is the tests' oracle, not a
        backend."""
        system = System(msi_nonstalling, num_caches=2,
                        workload=Workload(max_accesses_per_cache=1))
        with pytest.raises(ValueError, match="'compiled' or 'vectorized'"):
            verify(system, kernel=retired)

    def test_unknown_kernel_name_rejected(self, msi_nonstalling):
        system = System(msi_nonstalling, num_caches=2)
        with pytest.raises(ValueError):
            verify(system, kernel="jit")


def _state_with(system, network):
    """The initial state of *system*, its network replaced by *network*."""
    return replace(reference(system).initial_state(), network=network)


def _byte_splice(kernel, section, net, where, sends, pos=0):
    """The kernel's byte splice of the packed *section* (parse handle *net*)
    for a delivery of record *pos* at *where* (None: none) and the send
    records *sends*: the splice its memoized outcome would pick."""
    splice = kernel._splicer(where is not None, len(sends))
    if splice is None:
        return section
    return splice(kernel, section, net, where, kernel._packed_sends(sends), pos)


def _random_network(rng, ordered, mtypes, messages=5):
    """A network of up to *messages* random messages among three caches and
    the directory."""
    from repro.system.message import Message

    network = make_network(ordered)
    for _ in range(rng.randrange(0, messages)):
        network = send(network, Message(
            mtype=rng.choice(mtypes),
            src=rng.choice(_NODES), dst=rng.choice(_NODES),
            vnet=rng.randrange(2),
            requestor=rng.choice([None, -1, 0, 1, 2]),
            data=rng.choice([None, 1, 2]),
            ack_count=rng.choice([None, 0, 2]),
        ))
    return network


_NODES = [-1, 0, 1, 2]


class TestSpliceDifferential:
    """The kernel's byte splices of a network section vs the reference
    network (``reference_system``): its `deliver` / `send` / `duplicate` /
    `reorder` on the decoded network, packed back through the codec.  The
    randomized sweeps plus the pinned corner cases cover the edit
    interactions on both network kinds -- in particular a send re-opening
    the very channel its delivery just emptied, which a first version of a
    one-send path corrupted (count lane decremented to zero with the record
    left behind).
    """

    @pytest.fixture(scope="class", params=["ordered", "unordered"])
    def system(self, request, all_generated):
        name = "MSI" if request.param == "ordered" else "MSI-Unordered"
        system = System(all_generated[(name, "stalling")], num_caches=3,
                        workload=workload_for(name))
        assert system.ordered == (request.param == "ordered")
        return system

    def _assert_matches_oracle(self, system, network, which, send_msgs,
                               pos=0):
        """Deliver record *pos* of the channel of ``deliverable(network)
        [which]`` (None: nothing) and send *send_msgs*: the byte splice
        against the reference network."""
        codec = system.codec()
        enc = codec.encode(_state_with(system, network))
        net = codec.parsed_planes(enc)[0]
        expected, where = network, None
        if which is not None:
            message = deliverable(network)[which]
            if pos:
                key = (message.src, message.dst, message.vnet)
                message = dict(network.channels)[key][pos]
            expected = deliver(network, message, pos)
            where = net[2][which][0]
        expected = _state_with(system, send(expected, *send_msgs))
        sends = [message_record(codec, msg) for msg in send_msgs]
        cut = codec.net_byte_offset
        spliced = _byte_splice(system.kernel(), codec.pack(enc)[cut:], net,
                               where, sends, pos)
        assert spliced == encode_packed(codec, expected)[cut:], (
            f"where={where}, pos={pos}, sends={send_msgs}, network={network}"
        )

    def test_send_reopens_the_channel_its_delivery_emptied(self, system):
        """Deliver the only message of a channel and emit one send with the
        same (src, dst, vnet) key: the channel must survive with count 1 and
        the new record — the corruption class the fuzz sweep caught.  On a
        bag: the only message out and an equal one, or a neighbour, in."""
        from repro.system.message import Message

        mtype = system.codec().mtypes[0]
        old = Message(mtype=mtype, src=0, dst=0, vnet=1)
        new = Message(mtype=mtype, src=0, dst=0, vnet=1, data=1)
        network = send(make_network(system.ordered), old)
        for sends in ([new], [old], [new, old], [old, new]):
            self._assert_matches_oracle(system, network, 0, sends)
        # One copy of two equal messages out, one in (a FIFO of two).
        self._assert_matches_oracle(system, send(network, old), 0, [old])

    def test_several_sends_across_channels(self, system):
        """Several sends at once: two into a channel that does not exist yet,
        one into the channel the delivery empties (re-opened in place) and
        one into a channel that sorts next to it -- insertions that meet at
        one place in the section must go in in channel order."""
        from repro.system.message import Message

        mtypes = system.codec().mtypes

        def msg(src, dst, vnet, data=None, mtype=0):
            return Message(mtype=mtypes[mtype], src=src, dst=dst, vnet=vnet,
                           data=data)

        network = send(make_network(system.ordered),
                       msg(0, -1, 0), msg(1, -1, 1), msg(1, -1, 1, data=2))
        sends = [msg(2, 0, 0), msg(0, -1, 0, data=1), msg(0, -1, 1),
                 msg(2, 0, 0, data=1), msg(1, -1, 1, mtype=1)]
        for which in (None, *range(len(deliverable(network)))):
            for cut in range(1, len(sends) + 1):
                self._assert_matches_oracle(system, network, which, sends[:cut])
                self._assert_matches_oracle(system, network, which,
                                            sends[:cut][::-1])

    def test_one_pass_places_every_edit(self, system):
        """The places where the one-pass splice meets two edits at once: a
        send into the delivered channel, a channel opened just before and
        just after it, a delivery that empties its channel with and
        without a send back into it -- and on a bag, a record sent into
        the removed record's place, just below it and equal to it."""
        from repro.system.message import Message

        mtypes = system.codec().mtypes

        def msg(src, dst, vnet, mtype=0, data=None):
            return Message(mtype=mtypes[mtype], src=src, dst=dst, vnet=vnet,
                           data=data)

        # Channels (src, dst, vnet), in section order: (-1, 0, 1) first,
        # the delivered (0, -1, 1), and (1, -1, 0) last; (0, -1, 0) sorts
        # just before the delivered one and (0, 0, 0) just after it.
        head, second = msg(0, -1, 1, 2), msg(0, -1, 1, 3)
        network = send(make_network(system.ordered),
                       msg(-1, 0, 1), head, msg(1, -1, 0))
        which = deliverable(network).index(head)
        into, before, after = msg(0, -1, 1, 4), msg(0, -1, 0), msg(0, 0, 0)
        for fuller in (False, True):  # the delivery empties its channel, or not
            parent = send(network, second) if fuller else network
            for sends in ([into], [before], [after], [before, after],
                          [before, into, after], [], [msg(1, -1, 0, 1)]):
                self._assert_matches_oracle(system, parent, which, sends)
        if system.ordered:
            return
        # A bag: sends at the removed record's place -- just below it (in
        # front of it), equal to it (behind it) -- and beside both.
        below = msg(0, -1, 0, 2)
        codec = system.codec()
        assert message_record(codec, below) < message_record(codec, head)
        for sends in ([below], [head], [below, head], [below, head, into]):
            self._assert_matches_oracle(system, network, which, sends)

    def test_the_other_plane_comes_back_byte_identical(self, system):
        """Two address planes: every plan of a random two-plane state is
        the reference system's successor, and a plan on one plane leaves
        the other plane's section byte-identical -- before it (its bytes
        at the same place) or after it (shifted by the edited section's
        change in length)."""
        import random

        two = System(system.protocol, num_caches=3, num_addresses=2,
                     workload=Workload(max_accesses_per_cache=1))
        codec, kernel = two.codec(), two.kernel()
        rng = random.Random(20261019)
        checked = 0
        for _ in range(120):
            state = replace(
                reference(two).initial_state(),
                network=_random_network(rng, system.ordered, codec.mtypes),
                extra_networks=(
                    _random_network(rng, system.ordered, codec.mtypes),),
            )
            assert_expansion_parity(two, state)
            key = encode_packed(codec, state)
            plans, net = kernel.enabled(key)
            for plan in plans:
                succ = kernel.apply(key, plan, net)
                if type(succ) is str:
                    continue
                addr = codec.decode_event(plan[1]).addr
                other = 1 - addr
                after = codec.parsed_planes(None, succ)
                assert (succ[after[other][3] : after[other][4]]
                        == key[net[other][3] : net[other][4]])
                checked += 1
        assert checked > 100

    def test_randomized_against_the_reference(self, system):
        import random

        from repro.system.message import Message

        rng = random.Random(20260731)
        mtypes = system.codec().mtypes
        for _ in range(1500):
            network = _random_network(rng, system.ordered, mtypes)
            heads = deliverable(network)
            which = (
                rng.randrange(len(heads))
                if heads and rng.random() < 0.7
                else None
            )
            sends = [
                Message(
                    mtype=rng.choice(mtypes),
                    src=rng.choice(_NODES), dst=rng.choice(_NODES),
                    vnet=rng.randrange(2),
                    data=rng.choice([None, 1]),
                )
                for _ in range(rng.randrange(0, 3))
            ]
            if which is None and not sends:
                continue
            self._assert_matches_oracle(system, network, which, sends)

    @staticmethod
    def _faulted(system):
        """*system* with duplicates and reorders enabled."""
        return System(system.protocol, num_caches=3, workload=system.workload,
                      faults=FaultModel(duplicate=True, reorder=True))

    @staticmethod
    def _fault_successor(faulted, network, event):
        """The kernel's successor for the fault *event* in a state of
        *faulted* holding *network* -- the plan ``enabled`` lists for it."""
        codec, kernel = faulted.codec(), faulted.kernel()
        key = encode_packed(codec, _state_with(faulted, network))
        plans, net = kernel.enabled(key)
        eev = encode_event(codec, event)
        (plan,) = [plan for plan in plans if plan[1] == eev]
        return kernel.apply(key, plan, net)

    def test_duplicate_goes_in_beside_its_twin(self, system):
        """A duplicated record: a second copy at the head of its channel,
        whose count lane is raised, or one more in the bag."""
        import random

        from repro.system.system import DuplicateMessage

        faulted = self._faulted(system)
        codec = faulted.codec()
        rng = random.Random(20261017)
        duplicated = 0
        for _ in range(300):
            network = _random_network(rng, system.ordered, codec.mtypes)
            for message in deliverable(network):
                expected = replace(_state_with(faulted, network),
                                   network=duplicate(network, message),
                                   faults_used=1)
                succ = self._fault_successor(
                    faulted, network, DuplicateMessage(message=message))
                assert succ == encode_packed(codec, expected), (
                    f"{message} in {network}")
                duplicated += 1
        assert duplicated > 300

    def test_reorder_swaps_two_adjacent_records(self, system):
        """A reordered channel: records *pos* and *pos + 1* swapped, from
        the head to the channel's last pair.  An unordered network has no
        reorder axis."""
        import random

        from repro.system.system import ReorderMessage

        faulted = self._faulted(system)
        codec = faulted.codec()
        rng = random.Random(20261018)
        swapped = 0
        for _ in range(300):
            network = _random_network(rng, system.ordered, codec.mtypes, 8)
            for src, dst, vnet, pos in reorderable(network):
                expected = replace(_state_with(faulted, network),
                                   network=reorder(network, src, dst, vnet, pos),
                                   faults_used=1)
                succ = self._fault_successor(faulted, network, ReorderMessage(
                    src=src, dst=dst, vnet=vnet, position=pos))
                assert succ == encode_packed(codec, expected), network
                swapped += 1
        assert bool(swapped) == system.ordered

    def test_requeue_delivers_a_record_behind_the_head(self, all_generated):
        """Under re-queue order a channel delivers its first record that
        does not stall: record *pos* leaves the channel, the head stays --
        for every *pos* up to the channel's last record, with no send, with
        a send elsewhere, and with one that re-enters the channel."""
        from repro.system.message import Message

        system = System(all_generated[("MSI", "stalling")], num_caches=3,
                        workload=workload_for("MSI"))
        mtypes = system.codec().mtypes

        def msg(src, dst, vnet, mtype=0, data=None):
            return Message(mtype=mtypes[mtype], src=src, dst=dst, vnet=vnet,
                           data=data)

        channel = [msg(0, -1, 0, m) for m in range(4)]
        network = send(OrderedNetwork(), msg(-1, 1, 1), *channel, msg(2, -1, 0))
        which = deliverable(network).index(channel[0])
        for pos in range(len(channel)):
            for send_msgs in ([], [msg(1, 0, 1)], [msg(0, -1, 0, 1, data=1)],
                              [msg(0, -1, 0, 2), msg(-1, 1, 1, 1)]):
                self._assert_matches_oracle(system, network, which, send_msgs,
                                            pos)


class TestSpliceLaneOverflow:
    """A count lane the byte splice writes -- a channel's message count,
    the section's channel count, the bag's size -- that outgrows its
    ``"B"`` lane raises the codec's :class:`LaneOverflow`, never an
    ``IndexError`` or a wrapped byte.  The states are built by hand: no
    bundled search gets near 255 messages in flight."""

    @staticmethod
    def _splice(system, network, sends, which=None):
        codec, kernel = system.codec(), system.kernel()
        assert codec.typecode == "B"
        enc = codec.encode(_state_with(system, network))
        net = codec.parsed_planes(enc)[0]
        where = None if which is None else net[2][which][0]
        sends = [message_record(codec, m) for m in sends]
        return _byte_splice(
            kernel, codec.pack(enc)[codec.net_byte_offset :], net, where, sends
        )

    @pytest.mark.parametrize("ordered", [True, False], ids=["fifo", "bag"])
    def test_a_message_count_past_the_lane(self, all_generated, ordered):
        from repro.system import LaneOverflow
        from repro.system.message import Message

        name = "MSI" if ordered else "MSI-Unordered"
        system = System(all_generated[(name, "stalling")], num_caches=3,
                        workload=workload_for(name))
        mtype = system.codec().mtypes[0]
        message = Message(mtype=mtype, src=0, dst=-1, vnet=0)
        network = send(make_network(ordered), *[message] * 254)
        # 255 fits, and a delivery makes room for one more ...
        assert self._splice(system, network, [message])
        full = send(network, message)
        assert self._splice(system, full, [message], which=0)
        # ... but the 256th does not.
        with pytest.raises(LaneOverflow, match="lane value 256 does not fit"):
            self._splice(system, full, [message])

    def test_a_channel_count_past_the_lane(self, msi_stalling):
        from repro.system import LaneOverflow
        from repro.system.message import Message

        system = System(msi_stalling, num_caches=3)
        mtype = system.codec().mtypes[0]
        network = send(OrderedNetwork(), *[
            Message(mtype=mtype, src=src, dst=-1, vnet=vnet)
            for src in range(128) for vnet in range(2)
        ][:255])
        opening = Message(mtype=mtype, src=200, dst=-1, vnet=0)
        with pytest.raises(LaneOverflow, match="lane value 256 does not fit"):
            self._splice(system, network, [opening])
        # Emptying a channel on the way leaves the count where it was.
        assert self._splice(system, network, [opening], which=0)


    @pytest.mark.parametrize("ordered", [True, False], ids=["fifo", "bag"])
    def test_a_duplicate_past_the_lane(self, all_generated, ordered):
        """A channel, or the bag, holding 255 records, and one of them
        duplicated: ``enabled`` still lists the plan, and applying it
        raises."""
        from repro.system import LaneOverflow
        from repro.system.message import Message
        from repro.system.system import DuplicateMessage

        name = "MSI" if ordered else "MSI-Unordered"
        system = System(all_generated[(name, "stalling")], num_caches=3,
                        workload=workload_for(name),
                        faults=FaultModel(duplicate=True))
        codec, kernel = system.codec(), system.kernel()
        assert codec.typecode == "B"
        message = Message(mtype=codec.mtypes[0], src=0, dst=-1, vnet=0)
        network = send(make_network(ordered), *[message] * 255)
        key = encode_packed(codec, _state_with(system, network))
        plans, net = kernel.enabled(key)
        eev = encode_event(codec, DuplicateMessage(message=message))
        (plan,) = [plan for plan in plans if plan[1] == eev]
        with pytest.raises(LaneOverflow, match="lane value 256 does not fit"):
            kernel.apply(key, plan, net)


def test_a_plane_one_overflow_raises_the_codecs_error(msi_stalling):
    """A delivery on plane 1 of a two-address key whose response joins a
    channel already holding 255 records: ``apply`` splices plane 1's
    section and raises the codec's :class:`LaneOverflow`, never an
    ``IndexError``; the same delivery on plane 0 still fits."""
    from repro.system import LaneOverflow
    from repro.system.message import Message
    from repro.system.system import DeliverMessage

    system = System(msi_stalling, num_caches=3, num_addresses=2,
                    workload=Workload(max_accesses_per_cache=1))
    codec, kernel = system.codec(), system.kernel()
    assert codec.typecode == "B"
    request = Message(mtype="GetS", src=0, dst=-1, requestor=0, vnet=0)
    full = [Message(mtype="Inv", src=-1, dst=0, requestor=1)] * 255
    state = replace(
        reference(system).initial_state(),
        network=send(OrderedNetwork(), request, *full[:254]),
        extra_networks=(send(OrderedNetwork(), request, *full),),
    )
    key = encode_packed(codec, state)
    plans, net = kernel.enabled(key)

    def delivery(addr):
        eev = encode_event(codec, DeliverMessage(message=request, addr=addr))
        (plan,) = [plan for plan in plans if plan[1] == eev]
        return plan

    assert type(kernel.apply(key, delivery(0), net)) is bytes
    with pytest.raises(LaneOverflow, match="lane value 256 does not fit"):
        kernel.apply(key, delivery(1), net)


def test_a_write_outside_the_block_is_spliced_with_its_plane(
        msi_nonstalling, monkeypatch):
    """A transition that writes outside its controller's block -- only a
    hand-built one does -- runs on its plane's unpacked lanes, which go
    back into the successor whole: it is the unmutated successor but for
    the lane written, on the access's plane."""
    from repro.system.kernel import TransitionKernel

    def system():
        return System(msi_nonstalling, num_caches=2, num_addresses=2,
                      workload=Workload(max_accesses_per_cache=1))

    plain = system()
    codec = plain.codec()
    root = codec.root()
    plans, net = plain.kernel().enabled(root)
    expected = [plain.kernel().apply(root, plan, net) for plan in plans]
    memory = codec.version_offset - 1  # the directory's memory lane
    compile_cache_fn = TransitionKernel._compile_cache_fn

    def writing_memory(kernel, ct):
        fn = compile_cache_fn(kernel, ct)

        def written(out, *args):
            out[memory] = 5
            return None if fn is None else fn(out, *args)

        return written

    monkeypatch.setattr(TransitionKernel, "_compile_cache_fn", writing_memory)
    kernel = system().kernel()
    plans, net = kernel.enabled(root)
    assert len(plans) == len(expected) > 0
    for plan, succ in zip(plans, expected):
        assert plan[0] == kernel._apply_unconfined
        lanes = list(codec.unpack(succ))
        lanes[codec.decode_event(plan[1]).addr * codec.plane_stride + memory] = 5
        assert kernel.apply(root, plan, net) == codec.pack(lanes)


class TestGeneratedSourceIsCompiledOnce:
    """The per-transition functions close over nothing, so one ``exec`` per
    distinct generated source serves every transition -- and every kernel --
    that produces the same text."""

    @staticmethod
    def _system(generated):
        # A fresh System per build: ``System.kernel()`` caches its kernel.
        return System(generated, num_caches=2,
                      workload=Workload(max_accesses_per_cache=2))

    def test_one_kernel_build_execs_no_source_twice(self, msi_spec, monkeypatch):
        from repro.system import kernel as kernel_mod

        executed = []

        def counting_exec(source, namespace):
            executed.append(source)
            exec(source, namespace)

        monkeypatch.setattr(kernel_mod, "_COMPILED_SOURCES", {})
        monkeypatch.setattr(kernel_mod, "exec", counting_exec, raising=False)
        generated = generate(msi_spec, GenerationConfig.nonstalling())
        built = self._system(generated).kernel()
        functions = [fn for fn in built._cache_fns.values() if fn is not None]
        functions += built._dir_fns.values()
        assert len(executed) == len(set(executed)) > 0
        assert len(executed) == len(set(functions)) < len(functions)
        # A second kernel of the same protocol compiles nothing at all.
        self._system(generated).kernel()
        assert len(executed) == len(set(functions))

    def test_two_kernels_share_their_functions(self, msi_nonstalling):
        first = self._system(msi_nonstalling).kernel()
        second = self._system(msi_nonstalling).kernel()
        assert first is not second
        for table in ("_cache_fns", "_dir_fns"):
            # Keyed by ``id(ct)`` of each kernel's own spec, in table order.
            ours = list(getattr(first, table).values())
            theirs = list(getattr(second, table).values())
            assert len(ours) == len(theirs) > 0
            assert all(a is b for a, b in zip(ours, theirs))


#: Count and sha256 of the distinct transition sources the kernels of
#: ``test_generated_sources_are_pinned``'s grid generate.  A kernel edit that
#: changes what any transition compiles to moves them; update them only for
#: an intended change of the generated code.
PINNED_SOURCES = (
    217, "2371f5f91dce0272a53c9aa100b67b2dc7a265ac5e0d5db285d80cb795988a60"
)


def test_generated_sources_are_pinned(all_generated, monkeypatch):
    """Every source handed to ``_compiled`` while building the kernels of a
    fixed grid -- every protocol x policy x ``harden`` at 2 caches, MSI
    stalling at 3 caches, a 2-address, a duplicate-fault and a litmus
    configuration -- hashes to the pinned value."""
    import hashlib

    from repro.system import FaultModel, LitmusWorkload
    from repro.system import kernel as kernel_mod

    sources = set()
    compiled = kernel_mod._compiled

    def recording(source):
        sources.add(source)
        return compiled(source)

    monkeypatch.setattr(kernel_mod, "_compiled", recording)

    def build(generated, num_caches=2, **kwargs):
        System(generated, num_caches=num_caches, **kwargs).kernel()

    for name in ALL_PROTOCOLS:
        for policy in CONFIGS:
            build(all_generated[(name, policy)], workload=workload_for(name))
            bare = generate(protocols.load(name),
                            getattr(GenerationConfig, policy)(harden=False))
            build(bare, workload=workload_for(name))
    build(all_generated[("MSI", "stalling")], num_caches=3,
          workload=workload_for("MSI"))
    msi = all_generated[("MSI", "nonstalling")]
    one_access = Workload(max_accesses_per_cache=1)
    build(msi, workload=one_access, num_addresses=2)
    build(msi, workload=one_access, faults=FaultModel(duplicate=True))
    build(msi, workload=LitmusWorkload(programs=(
        ((AccessKind.STORE, 0),),
        ((AccessKind.LOAD, 0),),
    )))
    digest = hashlib.sha256("\0".join(sorted(sources)).encode()).hexdigest()
    assert (len(sources), digest) == PINNED_SOURCES
