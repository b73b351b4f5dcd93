"""Regression: the MSI-Unordered repeated-invalidation hole found by PR 1.

The deeper 3-cache x 2-access search exposed a latent hole in the bundled
unordered-network MSI spec: a cache whose store was serialized from ``S``
(so an earlier-ordered ``Inv`` may still be in flight) and that was then
redirected by a later-ordered ``Fwd_GetM`` had no transition for the late
``Inv`` -- the state was reported as ``IM_AD_I`` because the redirected
``SM_AD_I`` used to structurally merge with it.

The generator now records the pre-redirect Case-1 messages on every Case-2
redirect (``TransientDescriptor.late_absorbs``) and emits an absorb
transition: acknowledge the late message immediately and re-base the
transaction on the reaction's landing state (``SM_AD_I`` absorbing ``Inv``
lands in ``IM_AD_I``, dropping the dead copy's access permission).

This module replays the *exact* counterexample trace PR 1 recorded, then
pins the generated-FSM shape that closes the hole.
"""

import pytest

from repro.dsl.types import AccessKind
from repro.core.fsm import MessageEvent
from repro.system import Workload
from repro.system.message import Message
from repro.system.system import DeliverMessage, IssueAccess

from reference_system import ReferenceSystem, in_flight


#: The verbatim counterexample from PR 1's E9 benchmark: C0's load completes,
#: C2's store is serialized first (its Inv to C0 lingers on the unordered
#: network), then C0's own GetM, then C1's GetM whose Fwd_GetM redirects C0 --
#: and only then the earlier-ordered Inv arrives.
DOUBLE_INV_TRACE = [
    IssueAccess(cache_id=0, access=AccessKind.LOAD),
    IssueAccess(cache_id=1, access=AccessKind.STORE),
    IssueAccess(cache_id=2, access=AccessKind.STORE),
    DeliverMessage(Message(mtype="GetS", src=0, dst=-1, requestor=0, vnet=0)),
    DeliverMessage(Message(mtype="Data", src=-1, dst=0, requestor=0, data=0, vnet=1)),
    IssueAccess(cache_id=0, access=AccessKind.STORE),
    DeliverMessage(Message(mtype="GetM", src=2, dst=-1, requestor=2, vnet=0)),
    DeliverMessage(Message(mtype="GetM", src=0, dst=-1, requestor=0, vnet=0)),
    DeliverMessage(Message(mtype="GetM", src=1, dst=-1, requestor=1, vnet=0)),
    DeliverMessage(Message(mtype="Fwd_GetM", src=-1, dst=0, requestor=1, vnet=1)),
    DeliverMessage(Message(mtype="Inv", src=-1, dst=0, requestor=2, vnet=1)),
]


@pytest.fixture(scope="module")
def unordered_msi(all_generated):
    return all_generated[("MSI-Unordered", "nonstalling")]


@pytest.fixture(scope="module")
def deep_system(unordered_msi):
    return ReferenceSystem(
        unordered_msi,
        num_caches=3,
        workload=Workload(max_accesses_per_cache=2,
                          access_kinds=(AccessKind.LOAD, AccessKind.STORE)),
        ordered=False,
    )


class TestDoubleInvCounterexampleReplay:
    def test_trace_applies_without_error(self, deep_system):
        """Every step of PR 1's counterexample now has a transition."""
        state = deep_system.initial_state()
        for event in DOUBLE_INV_TRACE:
            outcome = deep_system.apply(state, event)
            assert outcome.error is None, f"{event}: {outcome.error}"
            state = outcome.state

    def test_redirect_then_late_inv_rebases_the_transaction(self, deep_system):
        """C0 walks SM_AD -> SM_AD_I (redirect) -> IM_AD_I (late-Inv absorb)
        and the absorb immediately acknowledges the invalidating requestor."""
        state = deep_system.initial_state()
        for event in DOUBLE_INV_TRACE[:-1]:
            state = deep_system.apply(state, event).state
        assert state.caches[0].fsm_state == "SM_AD_I"
        final = deep_system.apply(state, DOUBLE_INV_TRACE[-1])
        assert final.error is None
        assert final.state.caches[0].fsm_state == "IM_AD_I"
        acks = [
            m for m in in_flight(final.state.network)
            if m.mtype == "Inv_Ack" and m.src == 0 and m.dst == 2
        ]
        assert acks, "the late Inv must be acknowledged immediately"

    def test_run_drains_to_quiescence(self, deep_system):
        """After the double invalidation the system still completes: every
        in-flight message is absorbable and all caches settle."""
        state = deep_system.initial_state()
        for event in DOUBLE_INV_TRACE:
            state = deep_system.apply(state, event).state
        for _ in range(64):
            deliveries = [
                e for e in deep_system.enabled_events(state)
                if isinstance(e, DeliverMessage)
            ]
            if not deliveries:
                break
            outcome = deep_system.apply(state, deliveries[0])
            assert outcome.error is None, outcome.error
            state = outcome.state
        assert deep_system.is_quiescent(state)
        # C1's GetM was serialized last: it ends as the writer.
        assert [c.fsm_state for c in state.caches] == ["I", "M", "I"]


class TestGeneratedLateAbsorptions:
    def test_sm_ad_i_absorbs_late_inv(self, unordered_msi):
        """The redirected SM_AD_I state (no longer merged with IM_AD_I)
        handles Inv by re-basing onto IM_AD_I."""
        cache = unordered_msi.cache
        transitions = [
            t for t in cache.transitions()
            if t.state == "SM_AD_I"
            and isinstance(t.event, MessageEvent) and t.event.message == "Inv"
        ]
        assert len(transitions) == 1
        assert transitions[0].next_state == "IM_AD_I"

    def test_sm_ad_s_absorbs_late_inv(self, unordered_msi):
        """A redirect that will settle in S must not misread the late Inv as
        invalidating the future copy: it re-bases onto IM_AD_S and keeps the
        chain-S target."""
        cache = unordered_msi.cache
        transitions = [
            t for t in cache.transitions()
            if t.state == "SM_AD_S"
            and isinstance(t.event, MessageEvent) and t.event.message == "Inv"
        ]
        assert len(transitions) == 1
        assert transitions[0].next_state == "IM_AD_S"

    def test_pure_i_provenance_states_keep_the_diagnostic(self):
        """IM_AD_I (store from I; never a sharer before serialization) can
        never legally receive an Inv under exactly-once delivery -- with
        hardening off, the generator must NOT add a blanket absorb there, so
        the model checker still flags a directory that sent one.  The
        hardened build covers the cell too (a duplicated Inv can land
        anywhere), but marks it as generated fault tolerance."""
        from repro import protocols
        from repro.core import GenerationConfig, generate

        spec = protocols.load("MSI-Unordered")

        def inv_transitions(protocol):
            return [
                t for t in protocol.cache.transitions()
                if t.state == "IM_AD_I"
                and isinstance(t.event, MessageEvent) and t.event.message == "Inv"
            ]

        bare = generate(spec, GenerationConfig.nonstalling(harden=False))
        assert inv_transitions(bare) == []
        hardened = generate(spec, GenerationConfig.nonstalling())
        assert all(t.absorb for t in inv_transitions(hardened))
        assert inv_transitions(hardened)

    def test_ordered_protocols_unchanged(self, all_generated):
        """late_absorbs only activates for unordered-network specs: ordered
        MSI generates no SSP-level Inv transitions in redirected states --
        every Inv cell there is a hardening absorption (re-acknowledged so a
        post-reorder late Inv cannot strand the invalidator's ack count)."""
        from repro import protocols
        from repro.core import GenerationConfig, generate

        bare = generate(
            protocols.load("MSI"), GenerationConfig.nonstalling(harden=False)
        )
        assert not any(
            t for t in bare.cache.transitions()
            if t.state in ("SM_AD_I", "IM_AD_I")
            and isinstance(t.event, MessageEvent)
            and t.event.message == "Inv"
        )
        cache = all_generated[("MSI", "nonstalling")].cache
        hardened = [
            t for t in cache.transitions()
            if t.state in ("SM_AD_I", "IM_AD_I")
            and isinstance(t.event, MessageEvent)
            and t.event.message == "Inv"
        ]
        assert hardened and all(t.absorb for t in hardened)
