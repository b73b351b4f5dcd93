"""Step 2: transient states in the absence of concurrency (paper Section V-C).

For every SSP cache transaction we create one transient state per waiting
stage (e.g. ``IM_AD`` then ``IM_A`` for the I->M transaction of MSI, Table V)
and emit:

* the access transition that starts the transaction from the stable state,
* for every trigger of every stage, the message transition that advances or
  completes the transaction.

The completion transition performs the pending core access (the load or store
that started the transaction) and any completion actions from the SSP, plus --
for states created later by Step 3 -- the deferred responses.
"""

from __future__ import annotations

from repro.core.context import CacheGenContext, TransientDescriptor
from repro.core.fsm import AccessEvent, ControllerFsm, FsmTransition, MessageEvent
from repro.dsl.errors import GenerationError
from repro.dsl.ssp import ControllerSpec, Transaction, Trigger
from repro.dsl.types import (
    AccessKind,
    Action,
    CopyDataFromMessage,
    IncrementAcksReceived,
    PerformAccess,
    ResetAckCounters,
    SetAcksExpectedFromMessage,
)


def build_initial_transients(ctx: CacheGenContext) -> None:
    """Create the Step-2 transient states and the access transitions that enter them."""
    for transaction in ctx.spec.cache.transactions:
        if not isinstance(transaction.initiator, AccessKind):
            # Forwarded-request handling at stable states is expressed as
            # Reactions; transactions initiated by messages on the cache side
            # are not part of the supported input model.
            raise GenerationError(
                "cache transactions must be initiated by core accesses; "
                f"got initiator {transaction.initiator!r}"
            )
        _emit_access_transition(ctx, transaction)


def _emit_access_transition(ctx: CacheGenContext, transaction: Transaction) -> None:
    actions: list[Action] = list(transaction.issue_actions)
    request = [transaction.request] if transaction.request is not None else []
    if transaction.stages:
        actions += [ResetAckCounters(), *request]
        target = ctx.ensure_state(ctx.descriptor_for_stage(transaction, 0))
    else:
        # Silent or single-step transaction: complete immediately.
        actions += [*request, PerformAccess(), *transaction.completion_actions]
        target = transaction.final_state
    ctx.fsm.add_transition(FsmTransition(
        transaction.start_state, AccessEvent(transaction.initiator), tuple(actions), target
    ))


# ---------------------------------------------------------------------------
# SSP behaviour as it is written: reactions (cache and directory alike) and
# the wait transitions of one transient state (Step 2 and Step 3 alike)
# ---------------------------------------------------------------------------


def emit_reactions(fsm: ControllerFsm, controller: ControllerSpec) -> None:
    """One transition per SSP reaction, at its stable state."""
    for reaction in controller.reactions:
        fsm.add_transition(FsmTransition(
            reaction.state,
            MessageEvent(reaction.message, guard=reaction.guard),
            reaction.actions,
            reaction.next_state,
        ))


def implicit_trigger_actions(trigger: Trigger) -> list[Action]:
    actions: list[Action] = []
    if trigger.receives_data:
        actions.append(CopyDataFromMessage())
    if trigger.latches_ack_count:
        actions.append(SetAcksExpectedFromMessage())
    if trigger.counts_ack:
        actions.append(IncrementAcksReceived())
    return actions


def emit_wait_transitions(ctx: CacheGenContext, name: str, descriptor: TransientDescriptor) -> None:
    """Emit the own-transaction transitions (advance / complete) for *descriptor*."""
    for trigger in descriptor.current_stage.triggers:
        actions = implicit_trigger_actions(trigger) + list(trigger.actions)
        if trigger.next_stage is not None:
            target = ctx.ensure_state(ctx.advanced(descriptor, trigger.next_stage))
        else:  # completion
            target = descriptor.logical_target if descriptor.redirected else (
                trigger.final_state or descriptor.final
            )
            if not descriptor.access_performed and not descriptor.stale:
                actions.append(PerformAccess())
            if not descriptor.stale:
                actions.extend(descriptor.completion_actions)
            actions.extend(descriptor.deferred)
        ctx.fsm.add_transition(FsmTransition(
            name, MessageEvent(trigger.message, guard=trigger.condition), tuple(actions), target
        ))
