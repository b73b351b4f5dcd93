"""Step 3: accommodating concurrency (paper Section V-D, Figures 1 and 2).

For every transient cache state and every forwarded request that can arrive
there, decide whether the forwarded request belongs to a transaction that was
serialized at the directory *before* (Case 1) or *after* (Case 2) the cache's
own transaction, and generate the corresponding behaviour:

* **Case 1 -- other transaction ordered earlier.**  The cache must respond
  immediately (stalling could deadlock) and logically restart its own
  transaction from the stable state the response leaves it in.  If the same
  access would issue the same request from that state, the cache simply moves
  to that transaction's first transient state; if the access needs a
  *different* request (the Upgrade example), the directory later reinterprets
  the stale request; if the access needs *no* transaction at all, the cache
  waits out its now-stale request in a ``II_A``-style state.

* **Case 2 -- other transaction ordered after.**  Depending on the
  configuration the cache stalls, or transitions immediately to a new
  transient state while deferring (some or all of) the responses until its
  own transaction completes.

On an interconnect *without* point-to-point ordering one more situation
arises: a message of an **earlier**-ordered transaction (Case 1) can be
overtaken by messages of **later**-ordered ones (Case 2) and arrive only
after the cache has already been redirected.  The classic instance is a
repeated invalidation: a cache in ``SM_AD`` whose Case-2 redirect moved it
to ``IM_AD_I`` can still receive the ``Inv`` that was sent while its own
``GetM`` was unserialized.  Every Case-2 redirect therefore records which
messages the pre-redirect state would have routed through Case 1
(``TransientDescriptor.late_absorbs``); the redirected state -- and every
state its transaction advances through -- acknowledges such a late arrival
in place (the response never carries data, so it can always be sent
immediately; deferring it could deadlock the earlier transaction, which is
what makes this the unordered-network analogue of the Case-1 "respond
immediately" rule).
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.config import ConcurrencyPolicy
from repro.core.context import CacheGenContext, TransientDescriptor
from repro.core.fsm import FsmTransition, MessageEvent
from repro.core.transient import emit_wait_transitions
from repro.dsl.errors import GenerationError
from repro.dsl.ssp import Reaction, Transaction
from repro.dsl.types import (
    Action,
    AddRequestorToSharers,
    Dest,
    PerformAccess,
    RemoveRequestorFromSharers,
    SaveRequestor,
    Send,
    SetOwnerToRequestor,
    is_data_send,
)


def accommodate_concurrency(ctx: CacheGenContext) -> None:
    """Drain the worklist: for every transient state, emit wait transitions and
    handle every forwarded request that can arrive in it (to fixpoint)."""
    while ctx.worklist:
        name = ctx.worklist.popleft()
        descriptor = ctx.descriptors[name]
        emit_wait_transitions(ctx, name, descriptor)
        _handle_forwarded_requests(ctx, name, descriptor)


def _handle_forwarded_requests(
    ctx: CacheGenContext, name: str, descriptor: TransientDescriptor
) -> None:
    """Route every forwarded request that can arrive in *name* to its case and
    add the transition: the reaction of the stable state the message is
    routed as arriving in, with that reaction's guard."""
    for message in ctx.spec.forwarded_messages():
        if ctx.fsm.has_transition(name, MessageEvent(message)):
            # Already handled (e.g. the forwarded request doubles as a trigger
            # of the own transaction in an unusual SSP).
            continue
        late = descriptor.late_absorb_for(message)
        relevant = set(ctx.spec.cache_arrival_states(message)) & descriptor.membership
        if late is not None:
            # A message of an earlier-ordered transaction arriving late on an
            # unordered network: acknowledge it in place (see module docs).
            reaction = _single_reaction(ctx, late[1], message)
            actions, target = _absorb_late_arrival(ctx, name, descriptor, reaction, late)
        elif not relevant:
            continue
        elif _ordered_earlier(descriptor, relevant):
            reaction = _single_reaction(ctx, descriptor.start, message)
            actions, target = _case1_other_ordered_earlier(ctx, descriptor, reaction)
        else:
            # Prefer an arrival state the own transaction can complete in.
            arrival = min(relevant & descriptor.reachable_finals() or relevant)
            reaction = _single_reaction(ctx, arrival, message)
            actions, target = _case2_other_ordered_after(ctx, descriptor, reaction)
        ctx.fsm.add_transition(FsmTransition(
            name, MessageEvent(message, guard=reaction.guard), tuple(actions),
            target or name, stall=target is None,
        ))


def _ordered_earlier(descriptor: TransientDescriptor, arrival_states) -> bool:
    """The Case-1 routing rule: a forwarded request that can arrive in
    *arrival_states* belongs to a transaction ordered before the own one
    when one of them is the own transaction's start state, that state is
    still in the descriptor's State Sets (no redirect has happened) and the
    transaction cannot already complete in it."""
    return (
        not descriptor.redirected
        and descriptor.start in descriptor.membership
        and descriptor.start in arrival_states
        and descriptor.start not in descriptor.reachable_finals()
    )


def _single_reaction(ctx: CacheGenContext, state: str, message: str) -> Reaction:
    reactions = ctx.spec.cache.reactions_for(state, message)
    if not reactions:
        raise GenerationError(
            f"the SSP does not say how a cache in {state!r} handles {message!r}"
        )
    return reactions[0]


# ---------------------------------------------------------------------------
# Late arrivals of earlier-ordered messages (unordered networks)
# ---------------------------------------------------------------------------


def _case1_messages(
    ctx: CacheGenContext, descriptor: TransientDescriptor
) -> frozenset[tuple[str, str]]:
    """``(message, reacting_state)`` pairs *descriptor* routes through Case 1.

    The dispatch of :func:`_handle_forwarded_requests` -- the one Case-1
    rule, :func:`_ordered_earlier` -- including its already-handled guard: a
    forwarded request that doubles as a trigger of the own transaction's
    current stage is consumed by the transaction, never by Case 1.  (The
    dispatch expresses that guard as ``has_transition``, which is equivalent
    only at the message's own loop iteration; here the trigger set is
    consulted directly so the answer is independent of how much of the
    forwarded loop has already run.)  These are exactly the messages that may
    still be in flight -- and, on an unordered network, arrive late -- once a
    Case-2 redirect proves the own transaction was serialized at the
    directory.
    """
    own_triggers = {t.message for t in descriptor.current_stage.triggers}
    return frozenset(
        (message, descriptor.start)
        for message in ctx.spec.forwarded_messages()
        if message not in own_triggers
        and _ordered_earlier(descriptor, ctx.spec.cache_arrival_states(message))
    )


def _absorb_late_arrival(
    ctx: CacheGenContext,
    name: str,
    descriptor: TransientDescriptor,
    reaction: Reaction,
    pair: tuple[str, str],
) -> tuple[list[Action], str]:
    """Acknowledge a late earlier-ordered *message* and drop the dead copy.

    The cache already logically gave up the copy the message targets (its own
    transaction was serialized after the message's transaction), so the only
    obligation left is the protocol-level acknowledgment -- e.g. the
    ``Inv_Ack`` the invalidating requestor is counting on.  The response is
    sent immediately regardless of the concurrency policy: the earlier
    transaction cannot complete without it, and the own transaction's data
    response is (transitively) deferred behind that completion, so deferring
    the acknowledgment would deadlock.

    The target state re-bases the transaction on the reaction's landing state
    (``SM_AD_S`` absorbing the late ``Inv`` lands in ``IM_AD_S``): the
    original copy no longer contributes access permission, which is what
    keeps SWMR intact once the invalidating writer completes.
    """
    for action in reaction.actions:
        if not isinstance(action, Send) or is_data_send(action):
            raise GenerationError(
                f"cannot absorb late {reaction.message!r} in transient state {name!r}: "
                f"the {reaction.state!r} reaction requires {action!r}, which "
                "cannot be performed after the copy was given up; extend the "
                "SSP to resolve this race explicitly"
            )
    landed = replace(
        descriptor,
        start=reaction.next_state,
        late_absorbs=descriptor.late_absorbs - {pair},
    )
    return list(reaction.actions), ctx.ensure_state(landed)


# ---------------------------------------------------------------------------
# Case 1
# ---------------------------------------------------------------------------


def _case1_other_ordered_earlier(
    ctx: CacheGenContext, descriptor: TransientDescriptor, reaction: Reaction
) -> tuple[list[Action], str]:
    landing = reaction.next_state
    actions: list[Action] = list(reaction.actions)

    restart = ctx.spec.cache.transaction_for(landing, descriptor.access)
    if restart is not None and restart.stages:
        # Restart the own transaction from the landing state: move to that
        # transaction's first transient state.  No new request is issued; if
        # the landing state would have issued a different request, the
        # directory reinterprets the one already in flight (Section V-D1,
        # :func:`repro.core.directory._reinterpret_requests`).
        return actions, ctx.ensure_state(ctx.descriptor_for_stage(restart, 0))

    # No restart transaction is needed (or it completes without waiting): the
    # access either already hits in the landing state or needs nothing (a
    # replacement of a block that is now invalid).  The original request is
    # still in flight, so wait it out in a stale-request state; the directory
    # will acknowledge it as stale (Section V-F).
    settled = restart.final_state if restart is not None else landing
    access_performed = descriptor.access_performed
    if not access_performed and ctx.spec.cache.state(settled).permission.allows(descriptor.access):
        actions.append(PerformAccess())
        access_performed = True

    stale = replace(
        descriptor,
        membership=frozenset({settled}),
        chain=(settled,),
        stale=True,
        access_performed=access_performed,
    )
    return actions, ctx.ensure_state(stale)


# ---------------------------------------------------------------------------
# Case 2
# ---------------------------------------------------------------------------


def _case2_other_ordered_after(
    ctx: CacheGenContext, descriptor: TransientDescriptor, reaction: Reaction
) -> tuple[list[Action], str | None]:
    """The redirect's actions and target state, or no target: stall."""
    config = ctx.config
    if config.policy is ConcurrencyPolicy.STALLING or (
        len(descriptor.chain) >= config.pending_transaction_limit
    ):
        return [], None

    immediate, deferred, save_slot = _partition_actions(
        ctx, reaction.actions, descriptor.slots_used
    )
    transition_actions: list[Action] = []
    slots_used = descriptor.slots_used
    if save_slot is not None:
        transition_actions.append(SaveRequestor(slot=save_slot))
        slots_used = save_slot + 1
    transition_actions.extend(immediate)

    late_absorbs = descriptor.late_absorbs
    if not ctx.spec.ordered_network:
        # The redirect proves the own transaction was serialized: every
        # Case-1 message of the pre-redirect state may now arrive late.
        late_absorbs = late_absorbs | _case1_messages(ctx, descriptor)
    redirected = replace(
        descriptor,
        membership=frozenset({reaction.next_state}),
        chain=descriptor.chain + (reaction.next_state,),
        deferred=descriptor.deferred + tuple(deferred),
        slots_used=slots_used,
        late_absorbs=late_absorbs,
    )
    return transition_actions, ctx.ensure_state(redirected)


def _directory_reads_requestor(ctx: CacheGenContext, message: str) -> bool:
    """Does any directory handler for *message* observe its requestor field?

    A deferred cache response executes when the *own* transaction completes,
    at which point the triggering message's requestor is whoever answered
    the own request -- not the cache the redirecting forward was sent for.
    If the directory merely banks the data (MSI's ``Fwd_GetS`` writeback),
    the stale requestor field is inert and the generated messages can stay
    bit-identical to the seed's; but when any directory reaction or
    transaction trigger for *message* answers / records the requestor (the
    MOSI owner-recall completes with ``Data -> requestor`` plus
    ``SetOwnerToRequestor``), the original requestor must be preserved
    through a saved slot or the directory responds to the wrong cache.
    """

    def reads(actions) -> bool:
        for action in actions:
            if isinstance(
                action,
                (SetOwnerToRequestor, AddRequestorToSharers, RemoveRequestorFromSharers),
            ):
                return True
            if isinstance(action, Send) and (
                action.to is Dest.REQUESTOR
                or action.to is Dest.SHARERS  # targets exclude the requestor
                or action.with_ack_count  # counts sharers minus the requestor
            ):
                return True
        return False

    directory = ctx.spec.directory
    # A directory transaction is initiated by an incoming message; its
    # requestor flows into the issue actions.  Triggers are checked below.
    if any(
        reads(h.issue_actions if isinstance(h, Transaction) else h.actions)
        for h in directory.handlers(message)
    ):
        return True
    for transaction in directory.transactions:
        for stage in transaction.stages:
            for trigger in stage.triggers:
                if trigger.message != message:
                    continue
                if reads(trigger.actions):
                    return True
                if trigger.completes and reads(transaction.completion_actions):
                    return True
    return False


def _partition_actions(
    ctx: CacheGenContext, actions: tuple[Action, ...], slots_used: int
) -> tuple[list[Action], list[Action], int | None]:
    """Split reaction actions into (immediate, deferred, requestor slot).

    Data-carrying sends are always deferred: their contents depend on the own
    transaction completing (paper Section V-D2, "Immediate Transition and
    Responses").  Other sends are sent immediately under the
    NONSTALLING_IMMEDIATE policy and deferred under NONSTALLING_DEFERRED.
    Non-send bookkeeping is applied at completion time.

    Deferred sends lose the redirecting message by the time they execute, so
    any requestor information they need is banked in a saved slot:
    responses *to* the requestor address it through ``requestor_slot``, and
    responses to the directory whose requestor field the directory actually
    reads (:func:`_directory_reads_requestor`) carry it through
    ``requestor_from_slot``.
    """
    config = ctx.config
    immediate: list[Action] = []
    deferred: list[Action] = []
    save_slot: int | None = None
    for action in actions:
        if isinstance(action, Send):
            must_defer = is_data_send(action) or (
                config.policy is ConcurrencyPolicy.NONSTALLING_DEFERRED
            )
            if must_defer:
                if action.to is Dest.REQUESTOR:
                    if save_slot is None:
                        save_slot = slots_used
                    action = replace(action, requestor_slot=save_slot)
                elif action.to is Dest.DIRECTORY and _directory_reads_requestor(
                    ctx, action.message
                ):
                    if save_slot is None:
                        save_slot = slots_used
                    action = replace(action, requestor_from_slot=save_slot)
                deferred.append(action)
            else:
                immediate.append(action)
        else:
            deferred.append(action)
    return immediate, deferred, save_slot
