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
from repro.core.transient import emit_reactions, implicit_trigger_actions
from repro.dsl.errors import GenerationError
from repro.dsl.ssp import ProtocolSpec, Transaction
from repro.dsl.types import (
    AccessKind,
    Dest,
    MessageClass,
    Permission,
    RemoveRequestorFromSharers,
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
    emit_reactions(fsm, spec.directory)
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
        if isinstance(transaction.initiator, AccessKind):
            raise GenerationError("directory transactions must be initiated by requests")
        _emit_transaction(fsm, transaction)


def _emit_transaction(fsm: ControllerFsm, transaction: Transaction) -> None:
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

    if transaction.stages:
        actions, target = transaction.issue_actions, stage_names[transaction.stages[0].name]
    else:
        actions = transaction.issue_actions + transaction.completion_actions
        target = transaction.final_state
    fsm.add_transition(FsmTransition(
        transaction.start_state, MessageEvent(transaction.initiator), actions, target
    ))
    for stage in transaction.stages:
        for trigger in stage.triggers:
            actions = implicit_trigger_actions(trigger) + list(trigger.actions)
            if trigger.next_stage is not None:
                target = stage_names[trigger.next_stage]
            else:
                target = trigger.final_state or transaction.final_state
                actions.extend(transaction.completion_actions)
            fsm.add_transition(FsmTransition(
                stage_names[stage.name],
                MessageEvent(trigger.message, guard=trigger.condition),
                tuple(actions),
                target,
            ))


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
    return _requests_by_access(spec).get(AccessKind.REPLACEMENT, set())


def _put_ack_template(spec: ProtocolSpec, put_request: str) -> Send | None:
    """Find the acknowledgment the SSP directory sends for *put_request*:
    in a reaction's actions, or a transaction's issue and completion
    actions (never a trigger's, which answer the awaited message)."""
    for handler in spec.directory.handlers(put_request):
        if isinstance(handler, Transaction):
            actions = handler.issue_actions + handler.completion_actions
        else:
            actions = handler.actions
        for action in actions:
            if (
                isinstance(action, Send)
                and action.to is Dest.REQUESTOR
                and not action.with_data
                and spec.messages[action.message].message_class is MessageClass.RESPONSE
            ):
                return Send(message=action.message, to=Dest.REQUESTOR)
    return None


def _generate_stale_put_handling(spec: ProtocolSpec, fsm: ControllerFsm) -> None:
    # A stale Put is acknowledged in *every* state -- including transient
    # directory states -- so the issuer can finish its stale transaction:
    # unguarded where nothing handles it, and as the complement of a
    # ``from_owner`` handler.  We also drop the issuer from the sharer list
    # (a no-op when it is not a sharer); this keeps the directory's sharer
    # list from accumulating caches that have already given up the block,
    # which would otherwise cause spurious Invalidations to caches in I.
    for put_request in sorted(_put_requests(spec)):
        ack = _put_ack_template(spec, put_request)
        if ack is None:
            continue
        stale_actions = (ack, RemoveRequestorFromSharers())
        for state in fsm.state_names():
            fsm.fill(state, MessageEvent(put_request), stale_actions)
            fsm.fill(
                state, MessageEvent(put_request, guard="not_from_owner"), stale_actions,
                vacant=lambda guards: guards == {"from_owner"},
            )


# ---------------------------------------------------------------------------
# Stalling in transient directory states
# ---------------------------------------------------------------------------


def _stall_requests_in_transient_states(spec: ProtocolSpec, fsm: ControllerFsm) -> None:
    for state in fsm.transient_states():
        for request in spec.messages.requests:
            fsm.fill(state.name, MessageEvent(request.name), stall=True)
