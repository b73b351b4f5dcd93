"""Shared mutable context for cache-controller generation.

The generator passes a single :class:`CacheGenContext` between Steps 1-4.
It owns the output FSM, the Step-1 State Sets, the registry of transient
state descriptors, and the worklist of descriptors whose concurrency handling
(Step 3) is still pending.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace

from repro.core.config import GenerationConfig
from repro.core.fsm import ControllerFsm, FsmState, StateKind
from repro.core.naming import redirected_name, stale_request_name, transient_name
from repro.core.state_sets import StateSets
from repro.dsl.ssp import AwaitStage, ProtocolSpec, Transaction
from repro.dsl.types import AccessKind, Action, Permission


@dataclass(frozen=True)
class TransientDescriptor:
    """Structural description of one generated cache transient state.

    A descriptor captures everything the generator needs to know about a
    transient state: the transaction it belongs to (start / final stable
    states, outstanding request, remaining waiting stages), the State Sets it
    belongs to, the chain of later-ordered targets it has observed (Case 2),
    and the responses it has deferred.
    """

    start: str
    access: AccessKind
    request: str | None
    final: str
    all_stages: tuple[AwaitStage, ...]
    stage_index: int
    membership: frozenset[str]
    chain: tuple[str, ...] = ()
    deferred: tuple[Action, ...] = ()
    slots_used: int = 0
    access_performed: bool = False
    completion_actions: tuple[Action, ...] = ()
    stale: bool = False
    #: ``(message, reacting_state)`` pairs for forwarded messages that belong
    #: to transactions ordered *before* the own transaction and may still
    #: arrive late (unordered networks only): once a Case-2 redirect proves
    #: the own transaction was serialized, any message the pre-redirect state
    #: would have routed through Case 1 can still be in flight.  The reacting
    #: state is the stable state whose SSP reaction supplies the required
    #: acknowledgment (Section V-D, extended to interconnects without
    #: point-to-point ordering).
    late_absorbs: frozenset[tuple[str, str]] = frozenset()

    def late_absorb_for(self, message: str) -> tuple[str, str] | None:
        for pair in self.late_absorbs:
            if pair[0] == message:
                return pair
        return None

    # -- derived --------------------------------------------------------------
    @property
    def current_stage(self) -> AwaitStage:
        return self.all_stages[self.stage_index]

    @property
    def remaining_stages(self) -> tuple[AwaitStage, ...]:
        return self.all_stages[self.stage_index:]

    @property
    def redirected(self) -> bool:
        return bool(self.chain) or self.stale

    @property
    def logical_target(self) -> str:
        """The stable state the cache will settle in when its transaction completes."""
        if self.chain:
            return self.chain[-1]
        return self.final

    def reachable_finals(self) -> frozenset[str]:
        """Stable states in which the own transaction can complete from here."""
        if self.chain:
            return frozenset({self.chain[-1]})
        finals = set()
        for stage in self.remaining_stages:
            for trigger in stage.triggers:
                if trigger.completes:
                    finals.add(trigger.final_state or self.final)
        return frozenset(finals or {self.final})

    @property
    def base_name(self) -> str:
        if self.stale:
            return stale_request_name(self.logical_target, self.current_stage.name)
        return transient_name(self.start, self.final, self.current_stage.name)

    @property
    def name(self) -> str:
        if self.stale:
            return self.base_name
        return redirected_name(self.base_name, self.chain)

    @property
    def structural_key(self) -> tuple:
        """Key used to merge structurally identical redirected states.

        The outstanding request is deliberately *not* part of the key: once a
        transaction is in flight, the cache's behaviour depends only on the
        responses it still awaits (the remaining stages), not on which request
        message started it -- this is what lets, e.g., the stale-wait states of
        a PutS and a PutM collapse into a single ``II_A``.
        """
        return (
            self.membership,
            self.access,
            self.remaining_stages,
            self.logical_target,
            self.deferred,
            self.completion_actions,
            self.access_performed,
            self.stale,
            # States that must absorb different late (earlier-ordered)
            # messages behave differently and must not merge: SM_AD_I still
            # owes an Inv_Ack for its original S copy, IM_AD_I does not.
            self.late_absorbs,
        )


class CacheGenContext:
    """Mutable state threaded through the cache-generation steps."""

    def __init__(self, spec: ProtocolSpec, config: GenerationConfig):
        self.spec = spec
        self.config = config
        self.fsm = ControllerFsm(
            name=f"{spec.name}-cache",
            kind=spec.cache.kind,
            initial=spec.cache.initial,
        )
        self.state_sets = StateSets(stable_states=spec.cache.state_names())
        #: FSM state name -> descriptor
        self.descriptors: dict[str, TransientDescriptor] = {}
        #: structural key -> canonical FSM state name (redirected / stale states only)
        self._merge_index: dict[tuple, str] = {}
        #: (derived name, structural key) -> registered FSM state name
        self._name_index: dict[tuple, str] = {}
        #: descriptors waiting for wait-transition emission and Step-3 handling
        self.worklist: deque[str] = deque()
        #: (original request, reinterpreted request) pairs discovered during Case 1
        self.reinterpretations: set[tuple[str, str]] = set()

    # -- stable states ---------------------------------------------------------
    def add_stable_states(self) -> None:
        for state in self.spec.cache.states.values():
            self.fsm.add_state(
                FsmState(
                    name=state.name,
                    kind=StateKind.STABLE,
                    permission=state.permission,
                    state_sets=frozenset({state.name}),
                )
            )

    # -- transient states ------------------------------------------------------
    def ensure_state(self, descriptor: TransientDescriptor) -> str:
        """Register *descriptor* (or find its merge target) and return the FSM name."""
        permission = self._transient_permission(descriptor)
        merge_eligible = descriptor.redirected and self.config.merge_equivalent_states
        # The access permission is part of the merge key: two structurally
        # identical states are kept apart if one of them can still serve hits
        # (e.g. the paper's SM_AD_S allows load hits while IM_AD_S does not).
        merge_key = descriptor.structural_key + (permission,)
        # Exact duplicate (same derived name and same structure): reuse it.
        registered = self._name_index.get((descriptor.name, merge_key))
        if registered is not None:
            return registered
        if merge_eligible:
            existing = self._merge_index.get(merge_key)
            if existing is not None:
                self._record_alias(existing, descriptor.name)
                return existing

        name = descriptor.name
        if self.fsm.has_state(name):
            # Two structurally different transient states derived the same
            # name (e.g. two different forwarded requests both redirect the
            # transaction to the same stable target).  Disambiguate with a
            # numeric suffix; the provenance stays available in the metadata.
            suffix = 2
            while self.fsm.has_state(f"{name}_v{suffix}"):
                suffix += 1
            name = f"{name}_v{suffix}"

        state = FsmState(
            name=name,
            kind=StateKind.TRANSIENT,
            permission=permission,
            state_sets=descriptor.membership,
            meta={
                "start": descriptor.start,
                "final": descriptor.final,
                "stage": descriptor.current_stage.name,
                "chain": descriptor.chain,
                "stale": descriptor.stale,
                "deferred": len(descriptor.deferred),
            },
        )
        self.fsm.add_state(state)
        self.state_sets.add(name, descriptor.membership)
        self.descriptors[name] = descriptor
        self._name_index[(descriptor.name, merge_key)] = name
        if merge_eligible:
            self._merge_index[merge_key] = name
        self.worklist.append(name)
        return name

    def _record_alias(self, canonical: str, alias: str) -> None:
        if alias == canonical:
            return
        state = self.fsm.state(canonical)
        if alias not in state.aliases:
            state.aliases = state.aliases + (alias,)

    def _transient_permission(self, descriptor: TransientDescriptor) -> Permission:
        """Paper Step 4: a transient state's permission is the meet of its
        transaction's initial and final stable-state permissions."""
        if not self.config.allow_transient_accesses:
            return Permission.NONE
        start_perm = self.spec.cache.state(descriptor.start).permission
        target_perm = self.spec.cache.state(descriptor.logical_target).permission
        return min(start_perm, target_perm)

    # -- helpers ----------------------------------------------------------------
    def descriptor_for_stage(
        self, transaction: Transaction, stage_index: int
    ) -> TransientDescriptor:
        """Build the Step-2 descriptor for *transaction*'s *stage_index*-th stage."""
        access = transaction.initiator
        if not isinstance(access, AccessKind):
            raise TypeError("cache transactions must be initiated by a core access")
        descriptor = TransientDescriptor(
            start=transaction.start_state,
            access=access,
            request=transaction.request.message if transaction.request else None,
            final=transaction.final_state,
            all_stages=transaction.stages,
            stage_index=stage_index,
            membership=frozenset(),
            completion_actions=transaction.completion_actions,
        )
        membership = descriptor.reachable_finals()
        if stage_index == 0:
            membership = membership | {transaction.start_state}
        return replace(descriptor, membership=frozenset(membership))

    def advanced(self, descriptor: TransientDescriptor, stage_name: str) -> TransientDescriptor:
        """Descriptor after the own transaction advances to *stage_name*."""
        index = next(
            i for i, stage in enumerate(descriptor.all_stages) if stage.name == stage_name
        )
        if index == descriptor.stage_index:
            # A trigger that merely absorbs a message (e.g. an early Inv_Ack)
            # stays in the same state.
            return descriptor
        advanced = replace(descriptor, stage_index=index)
        if descriptor.chain or descriptor.stale:
            return advanced
        return replace(advanced, membership=advanced.reachable_finals())


def compute_silent_classes(spec: ProtocolSpec) -> list[frozenset[str]]:
    """Group stable cache states connected by silent transactions.

    A silent transaction (no request message, no waiting -- e.g. MESI's E->M
    upgrade on a store) cannot race with anything, so forwarded requests that
    can arrive in any state of the group carry the same ordering information.
    The preprocessing renaming treats such a group as a single arrival state.
    """
    parent: dict[str, str] = {name: name for name in spec.cache.state_names()}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: str, b: str) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for transaction in spec.cache.transactions:
        if transaction.is_silent:
            union(transaction.start_state, transaction.final_state)

    groups: dict[str, set[str]] = {}
    for name in spec.cache.state_names():
        groups.setdefault(find(name), set()).add(name)
    return [frozenset(group) for group in groups.values()]
