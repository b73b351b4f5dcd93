"""Directory-controller generation (paper Section V-F).

Generating the directory is simpler than generating the cache controller: the
directory is the serialization point, so any request that arrives while a
directory entry is in a transient state is by definition ordered *after* the
in-flight transaction -- the generated directory simply stalls it (the
configuration hook :class:`repro.core.config.DirectoryPolicy` exists so a
non-stalling directory could be added without touching callers).

Two things are unique to the directory:

* **Stale Put requests.**  With a non-stalling cache protocol a Put request
  can "lose" its race to the directory and arrive in a state that the atomic
  SSP says is impossible (e.g. a PutS arriving while the directory is in M).
  The issuer's epoch was already ended by an earlier transaction, so the
  correct behaviour for MOESIF-style protocols is simply to acknowledge the
  Put so the issuer can finish its stale transaction.
* **Request reinterpretation.**  When the same access issues different
  requests from different stable states (the Upgrade example of Section
  V-D1), a request can arrive at the directory from a cache whose state has
  changed since it issued it.  The directory reinterprets the request as the
  one the access would have issued from the state the directory sees.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.config import GenerationConfig
from repro.core.fsm import ControllerFsm, FsmState, FsmTransition, MessageEvent, StateKind
from repro.core.naming import directory_transient_name
from repro.core.transient import implicit_trigger_actions
from repro.dsl.errors import GenerationError
from repro.dsl.ssp import ProtocolSpec, Transaction
from repro.dsl.types import (
    AccessKind,
    Action,
    Dest,
    MessageClass,
    Permission,
    Send,
)


def generate_directory(spec: ProtocolSpec, config: GenerationConfig) -> ControllerFsm:
    fsm = ControllerFsm(
        name=f"{spec.name}-directory",
        kind=spec.directory.kind,
        initial=spec.directory.initial,
    )
    _add_stable_states(spec, fsm)
    _emit_transactions(spec, fsm)
    _emit_reactions(spec, fsm)
    _reinterpret_requests(spec, fsm)
    if config.generate_stale_put_handling:
        _generate_stale_put_handling(spec, fsm)
    _stall_requests_in_transient_states(spec, fsm)
    return fsm


# ---------------------------------------------------------------------------


def _add_stable_states(spec: ProtocolSpec, fsm: ControllerFsm) -> None:
    for state in spec.directory.states.values():
        fsm.add_state(
            FsmState(
                name=state.name,
                kind=StateKind.STABLE,
                permission=Permission.NONE,
                state_sets=frozenset({state.name}),
                meta={"owner_view": state.owner_view},
            )
        )


def _emit_transactions(spec: ProtocolSpec, fsm: ControllerFsm) -> None:
    for transaction in spec.directory.transactions:
        initiator = transaction.initiator
        if isinstance(initiator, AccessKind):
            raise GenerationError("directory transactions must be initiated by requests")
        if not transaction.stages:
            actions = transaction.issue_actions + transaction.completion_actions
            fsm.add_transition(
                FsmTransition(
                    state=transaction.start_state,
                    event=MessageEvent(initiator),
                    actions=actions,
                    next_state=transaction.final_state,
                )
            )
            continue
        _emit_waiting_transaction(spec, fsm, transaction)


def _emit_waiting_transaction(
    spec: ProtocolSpec, fsm: ControllerFsm, transaction: Transaction
) -> None:
    stage_names = {
        stage.name: directory_transient_name(
            transaction.start_state, transaction.final_state, stage.name
        )
        for stage in transaction.stages
    }
    for stage in transaction.stages:
        name = stage_names[stage.name]
        if not fsm.has_state(name):
            fsm.add_state(
                FsmState(
                    name=name,
                    kind=StateKind.TRANSIENT,
                    permission=Permission.NONE,
                    state_sets=frozenset({transaction.start_state, transaction.final_state}),
                    meta={
                        "start": transaction.start_state,
                        "final": transaction.final_state,
                        "stage": stage.name,
                    },
                )
            )

    first = stage_names[transaction.stages[0].name]
    fsm.add_transition(
        FsmTransition(
            state=transaction.start_state,
            event=MessageEvent(str(transaction.initiator)),
            actions=transaction.issue_actions,
            next_state=first,
        )
    )
    for stage in transaction.stages:
        name = stage_names[stage.name]
        for trigger in stage.triggers:
            actions: list[Action] = implicit_trigger_actions(trigger) + list(trigger.actions)
            if trigger.next_stage is not None:
                next_state = stage_names[trigger.next_stage]
            else:
                next_state = trigger.final_state or transaction.final_state
                actions.extend(transaction.completion_actions)
            fsm.add_transition(
                FsmTransition(
                    state=name,
                    event=MessageEvent(trigger.message, guard=trigger.condition),
                    actions=tuple(actions),
                    next_state=next_state,
                )
            )


def _emit_reactions(spec: ProtocolSpec, fsm: ControllerFsm) -> None:
    for reaction in spec.directory.reactions:
        fsm.add_transition(
            FsmTransition(
                state=reaction.state,
                event=MessageEvent(reaction.message, guard=reaction.guard),
                actions=reaction.actions,
                next_state=reaction.next_state,
            )
        )


# ---------------------------------------------------------------------------
# Request reinterpretation (the Upgrade situation)
# ---------------------------------------------------------------------------


def _requests_by_access(spec: ProtocolSpec) -> dict[AccessKind, set[str]]:
    by_access: dict[AccessKind, set[str]] = {}
    for transaction in spec.cache.transactions:
        if isinstance(transaction.initiator, AccessKind) and transaction.request is not None:
            by_access.setdefault(transaction.initiator, set()).add(transaction.request.message)
    return by_access


def _reinterpret_requests(spec: ProtocolSpec, fsm: ControllerFsm) -> None:
    by_access = _requests_by_access(spec)
    put_requests = _put_requests(spec)
    for access, requests in by_access.items():
        if len(requests) < 2:
            continue
        for request in sorted(requests):
            alternatives = requests - {request}
            is_put = request in put_requests
            for state in list(fsm.state_names()):
                if not fsm.state(state).is_stable:
                    continue
                if fsm.candidates(state, MessageEvent(request)):
                    continue
                if is_put:
                    _reinterpret_put(spec, fsm, state, request, alternatives)
                    continue
                handled = [
                    alt for alt in sorted(alternatives)
                    if fsm.candidates(state, MessageEvent(alt))
                ]
                if len(handled) != 1:
                    continue
                for transition in fsm.candidates(state, MessageEvent(handled[0])):
                    fsm.add_transition(
                        replace(
                            transition,
                            event=MessageEvent(request, guard=transition.event.guard),
                        )
                    )


def _reinterpret_put(
    spec: ProtocolSpec,
    fsm: ControllerFsm,
    state: str,
    request: str,
    alternatives: set[str],
) -> None:
    """Reinterpret a Put from the *current owner* as the downgrade the owner's
    actual state would have issued.

    Example (MOSI): the owner in M is downgraded to O by a forwarded GetS
    while its PutM is in flight.  The directory, now in O, receives a PutM
    from its current owner; the correct handling is the one specified for
    PutO -- write back the data, acknowledge, and surrender ownership.  Puts
    from non-owners are covered by the stale-Put handling instead.
    """
    carries_data = spec.messages[request].carries_data
    for alternative in sorted(alternatives):
        if spec.messages[alternative].carries_data != carries_data:
            continue
        owner_guarded = [
            t for t in fsm.candidates(state, MessageEvent(alternative))
            if t.event.guard == "from_owner"
        ]
        for transition in owner_guarded:
            fsm.add_transition(
                replace(transition, event=MessageEvent(request, guard="from_owner"))
            )
        if owner_guarded:
            return


# ---------------------------------------------------------------------------
# Stale Put handling
# ---------------------------------------------------------------------------


def _put_requests(spec: ProtocolSpec) -> set[str]:
    """Requests issued by replacement transactions ("Put"-style downgrades)."""
    puts: set[str] = set()
    for transaction in spec.cache.transactions:
        if transaction.initiator is AccessKind.REPLACEMENT and transaction.request is not None:
            puts.add(transaction.request.message)
    return puts


def _put_ack_template(spec: ProtocolSpec, put_request: str) -> Send | None:
    """Find the acknowledgment the SSP directory sends for *put_request*."""
    def sends_of(actions: tuple[Action, ...]):
        for action in actions:
            if isinstance(action, Send) and action.to is Dest.REQUESTOR and not action.with_data:
                if spec.messages[action.message].message_class is MessageClass.RESPONSE:
                    yield action

    for reaction in spec.directory.reactions:
        if reaction.message == put_request:
            for send in sends_of(reaction.actions):
                return Send(message=send.message, to=Dest.REQUESTOR)
    for transaction in spec.directory.transactions:
        if transaction.initiator == put_request:
            for send in sends_of(transaction.issue_actions + transaction.completion_actions):
                return Send(message=send.message, to=Dest.REQUESTOR)
    return None


def _generate_stale_put_handling(spec: ProtocolSpec, fsm: ControllerFsm) -> None:
    # A stale Put is acknowledged in *every* state -- including transient
    # directory states -- so the issuer can finish its stale transaction.
    # We also drop the issuer from the sharer list (a no-op when it is not a
    # sharer); this keeps the directory's sharer list from accumulating caches
    # that have already given up the block, which would otherwise cause
    # spurious Invalidations to caches in I.
    from repro.dsl.types import RemoveRequestorFromSharers

    for put_request in sorted(_put_requests(spec)):
        ack = _put_ack_template(spec, put_request)
        if ack is None:
            continue
        stale_actions = (ack, RemoveRequestorFromSharers())
        for state in fsm.states():
            existing = fsm.candidates(state.name, MessageEvent(put_request))
            if not existing:
                fsm.add_transition(
                    FsmTransition(
                        state=state.name,
                        event=MessageEvent(put_request),
                        actions=stale_actions,
                        next_state=state.name,
                    )
                )
                continue
            guards = {t.event.guard for t in existing}
            if guards == {"from_owner"}:
                fsm.add_transition(
                    FsmTransition(
                        state=state.name,
                        event=MessageEvent(put_request, guard="not_from_owner"),
                        actions=stale_actions,
                        next_state=state.name,
                    )
                )


# ---------------------------------------------------------------------------
# Stalling in transient directory states
# ---------------------------------------------------------------------------


def _stall_requests_in_transient_states(spec: ProtocolSpec, fsm: ControllerFsm) -> None:
    request_names = [m.name for m in spec.messages.requests]
    for state in fsm.transient_states():
        for request in request_names:
            if fsm.candidates(state.name, MessageEvent(request)):
                continue
            fsm.add_transition(
                FsmTransition(
                    state=state.name,
                    event=MessageEvent(request),
                    actions=(),
                    next_state=state.name,
                    stall=True,
                )
            )
