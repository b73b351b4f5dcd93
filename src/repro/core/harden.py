"""Fault-tolerance hardening pass (beyond the paper's network assumptions).

The paper generates controllers for networks with exactly-once, per-channel
ordered delivery.  The fault-injection axes measured that every bundled
protocol inherits two failure classes from that assumption: a single
duplicated response is an unhandled message ("cannot handle message"), and a
single adjacent reorder can land a late forward at a cache that no longer
holds the block -- losing the only copy of the data and starving both the
requestor and the directory.  This pass closes both classes at generation
level, the same place the late-invalidation and owner-recall holes were
fixed.  Five rules cooperate:

* **Cache absorption with miss notification.**  Every (state, forward /
  response) pair the generated cache controller leaves unhandled gets an
  *absorption* transition: the message is consumed idempotently and the
  state is unchanged.  Three flavours, chosen per forward:

  - a *data-serving* forward (one whose stable handlers supply a copy of
    the block: ``Fwd_GetS``/``Fwd_GetM``) cannot be served from a state
    without the block, so the absorption *notifies* the directory with a
    generated dataless ``<Fwd>_Miss`` response that preserves the original
    requestor -- the directory recovers (below) from its own memory, which
    the stale-Put capture keeps current;
  - an *ack-only* forward (``Inv``) is absorbed with its acknowledgment
    re-sent, because a real post-reorder ``Inv`` can reach a cache that
    already gave the block up while the invalidating requestor still counts
    the ``Inv_Ack``;
  - everything else (re-delivered responses: a duplicated ``Data``, a
    second ``Put_Ack``) is absorbed silently.

* **Stale-Put data capture with captured-state splitting.**  The generated
  stale-Put acknowledgment used to *drop* a data-carrying Put's payload.
  That is exactly how a reorder loses the only copy: the ``Put_Ack``
  overtakes an in-flight forward, the owner completes its eviction, and the
  late forward finds no data anywhere.  Hardening prepends
  ``CopyDataFromMessage`` to every generated stale acknowledgment of a
  data-carrying Put, so the payload lands in memory the moment the owner's
  epoch ends.  In *stable* forwarding states the capture additionally moves
  the directory to a generated ``<state>_cap`` sibling recording that
  memory is now current -- the fact the miss recovery below needs, and one
  the directory state could not otherwise express.  Any handler that
  re-installs an owner leaves the sibling for the plain (memory-stale)
  variant.  (Fault-free state spaces change under this rule: the capture is
  reachable in fault-free eviction races too, where it is benign -- the
  captured data is the same value a racing writeback would install.)

* **Directory miss recovery.**  A ``<Fwd>_Miss`` arriving at the directory
  is handled where the forward was issued:

  - in an awaiting-data transient, the miss completes the transaction from
    memory: the requestor is served a ``Data`` built from the (captured)
    memory copy unless the transaction's own completion actions already
    serve it, and the completion bookkeeping runs as usual;
  - in a stable state that forwards the original request to the owner, the
    miss is split on a generated guard pair: if the directory's current
    owner *is* the miss's requestor (``owner_is_requestor``), the plain
    variant absorbs the miss silently -- the only way to reach it is a
    duplicated forward whose real data response is already in flight to
    the requestor on another channel, and serving (stale) memory would
    race it -- while the ``_cap`` variant replays the forwarding handler
    with the forward replaced by a ``Data`` served from the captured
    memory (an evaporated owner's Put is always processed before the miss
    it causes, so the capture has provably run); otherwise
    (``owner_not_requestor``) the forwarding handler is replayed verbatim
    against the *current* owner;
  - in a stable state that serves the original request from memory, that
    memory-serving handler is replayed (bookkeeping included) -- the
    canonical case after an eviction race dissolved the ownership the
    forward was aimed at.

* **Directory-side duplicate-ownership absorption.**  A duplicated
  ownership request (``GetM``/``Upgrade``) arrives at the directory *after*
  the original installed its issuer as owner.  The un-hardened directory
  re-runs the handler and forwards the request to the owner -- the requestor
  itself, which then surrenders its own block to nobody.  In a stable
  directory state whose ``owner_view``'s *silent closure* (the cache states
  reachable from it through request-free transactions, e.g. MESI's silent
  E->M upgrade) issues no such request, an ownership request *from the
  current owner* can only be such an echo, so a ``from_owner``-guarded
  absorption shadows the unguarded handler.  The closure test keeps MOSI's
  legitimate ``O GetM`` owner upgrade live while covering MESI's dir-E
  state, whose owner may be in E *or* (silently) M.

* **Directory response absorption** (last, so the recovery rules above win
  their cells): re-delivered responses -- including ``*_Miss`` responses in
  states that need no recovery -- are absorbed silently.

Every transition the rules add is a default for a slot the generated
tables leave open, so each one goes through the one default-fill rule,
:meth:`~repro.core.fsm.ControllerFsm.fill` (a self-loop, or a recovery move,
added only when the guards already on the slot leave it unhandled); what the
SSP's cache does on a forward is read through the one SSP walk,
:meth:`~repro.dsl.ssp.ControllerSpec.handlers`.  Only the ``_cap`` split and
the capture rewrite edit existing transitions.

Known residuals (documented, not hidden): a duplicated ``Inv_Ack`` arriving
while the requestor is still *counting* acknowledgments is counted twice,
and a stale-Put capture behind a newer writeback can transiently rewind
memory.  Both need three or more caches to matter (two-cache configurations
are decided before the duplicate/stale payload arrives); sequence-numbered
messages would be required beyond that, which is outside the paper's message
format.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.directory import _put_requests
from repro.core.fsm import (
    ControllerFsm,
    FsmState,
    MessageEvent,
    StateKind,
)
from repro.core.naming import directory_transient_name
from repro.dsl.ssp import ProtocolSpec
from repro.dsl.types import (
    CopyDataFromMessage,
    Dest,
    MessageClass,
    Permission,
    Send,
    SetOwnerToRequestor,
    WriteDataToMemory,
)


def harden_protocol(
    spec: ProtocolSpec, cache_fsm: ControllerFsm, directory_fsm: ControllerFsm
) -> None:
    """Add the hardening transitions described in the module docstring.

    Mutates both FSMs in place (and declares the generated ``*_Miss``
    response messages in the spec's catalog); every *added* transition
    carries ``absorb=True`` so renderers and tests can tell generated fault
    tolerance from SSP-specified behaviour.
    """
    miss_names = _declare_miss_messages(spec)
    _harden_cache(spec, cache_fsm, miss_names)
    _capture_stale_put_data(spec, directory_fsm)
    _recover_transients(spec, directory_fsm, miss_names)
    _recover_stable_states(spec, directory_fsm, miss_names)
    _split_captured_states(spec, directory_fsm, miss_names)
    _absorb_duplicate_ownership(spec, directory_fsm)
    _absorb_directory_responses(spec, directory_fsm)


# ---------------------------------------------------------------------------
# Miss messages
# ---------------------------------------------------------------------------


def _serve_send(spec: ProtocolSpec, forward: str) -> Send | None:
    """The data response the *owner* would have sent to the requestor when
    handling *forward* -- the exact message the requestor is waiting for --
    re-targeted so the directory can send it from memory instead."""
    for handler in spec.cache.handlers(forward):
        for action in handler.actions:
            if isinstance(action, Send) and action.with_data and action.to is Dest.REQUESTOR:
                return Send(
                    message=action.message,
                    to=Dest.REQUESTOR,
                    with_data=True,
                    with_ack_count=action.with_ack_count,
                )
    return None


def _declare_miss_messages(spec: ProtocolSpec) -> dict[str, str]:
    """Declare a dataless ``<Fwd>_Miss`` response per data-serving forward.

    A forward is data-serving when any cache handler for it sends a copy of
    the block (to the requestor *or* back to the directory -- MOSI's
    owner-recall forward does the latter).  Losing such a forward loses
    data, so its absorption must tell the directory.
    """
    miss_names: dict[str, str] = {}
    for forward in sorted(spec.forwarded_messages()):
        serves_data = any(
            isinstance(action, Send) and action.with_data
            for handler in spec.cache.handlers(forward)
            for action in handler.actions
        )
        if not serves_data:
            continue
        name = f"{forward}_Miss"
        if name not in spec.messages:
            spec.messages.declare(name, MessageClass.RESPONSE)
        miss_names[forward] = name
    return miss_names


# ---------------------------------------------------------------------------
# Cache side
# ---------------------------------------------------------------------------


def _reack_template(fsm: ControllerFsm, message: str) -> Send | None:
    """The response to re-send when absorbing *message*, or ``None``.

    A forward is *ack-only* when every stable-state handler for it sends
    nothing but one kind of dataless response to the requestor (the ``Inv``
    -> ``Inv_Ack`` shape).  Any data-carrying or differently-routed send
    disqualifies it.
    """
    ack_names: set[str] = set()
    seen_handler = False
    for state in fsm.stable_states():
        for transition in fsm.candidates(state.name, MessageEvent(message)):
            if transition.stall:
                continue
            seen_handler = True
            for action in transition.actions:
                if not isinstance(action, Send):
                    continue
                if (
                    action.to is not Dest.REQUESTOR
                    or action.with_data
                    or action.requestor_slot is not None
                    or action.requestor_from_slot is not None
                ):
                    return None
                ack_names.add(action.message)
    if not seen_handler or len(ack_names) != 1:
        return None
    return Send(message=ack_names.pop(), to=Dest.REQUESTOR)


def _harden_cache(
    spec: ProtocolSpec, fsm: ControllerFsm, miss_names: dict[str, str]
) -> None:
    forwards = sorted(spec.forwarded_messages())
    responses = sorted(
        m.name for m in spec.messages.responses if m.name not in miss_names.values()
    )
    templates: dict[str, Send | None] = {
        name: Send(message=miss_names[name], to=Dest.DIRECTORY)
        if name in miss_names else _reack_template(fsm, name)
        for name in forwards
    }
    for state in fsm.state_names():
        for name in forwards + responses:
            template = templates.get(name)
            fsm.fill(state, MessageEvent(name), (template,) if template else (), absorb=True)


# ---------------------------------------------------------------------------
# Directory side: stale-Put data capture
# ---------------------------------------------------------------------------


def _writes_data(actions) -> bool:
    return any(
        isinstance(a, (CopyDataFromMessage, WriteDataToMemory)) for a in actions
    )


def _capture_stale_put_data(spec: ProtocolSpec, fsm: ControllerFsm) -> None:
    """Prepend ``CopyDataFromMessage`` to generated stale acknowledgments of
    data-carrying Puts (the ack-only self-loops stale-Put handling emits) --
    but only where memory is stale and the payload is the missing copy:
    ``not_from_owner`` acknowledgments (a live owner's state, so the Put is
    the evaporating *previous* owner's writeback) and the unguarded ones in
    awaiting-data transients.  In ownerless *stable* states memory is
    already current and the Put is necessarily ancient -- capturing there
    would rewind memory (reachable fault-free with three caches: a slow
    ``PutM`` from two ownership epochs ago arriving at ``I``)."""
    data_puts = {
        put for put in _put_requests(spec) if spec.messages[put].carries_data
    }
    for transition in fsm.transitions():
        event = transition.event
        if not isinstance(event, MessageEvent) or event.message not in data_puts:
            continue
        if event.guard != "not_from_owner" and not (
            event.guard is None and not fsm.state(transition.state).is_stable
        ):
            continue
        if (
            transition.stall
            or transition.next_state != transition.state
            or _writes_data(transition.actions)
            or not any(isinstance(a, Send) for a in transition.actions)
        ):
            continue
        fsm.replace_transition(
            transition,
            transition.with_actions((CopyDataFromMessage(),) + transition.actions),
        )


# ---------------------------------------------------------------------------
# Directory side: miss recovery
# ---------------------------------------------------------------------------


def _forwards_issued(actions, miss_names: dict[str, str]) -> list[str]:
    return [
        a.message
        for a in actions
        if isinstance(a, Send) and a.to is Dest.OWNER and a.message in miss_names
    ]


def _serves_requestor(actions) -> bool:
    return any(
        isinstance(a, Send) and a.to is Dest.REQUESTOR and a.with_data
        for a in actions
    )


def _recover_transients(
    spec: ProtocolSpec, fsm: ControllerFsm, miss_names: dict[str, str]
) -> None:
    for tx in spec.directory.transactions:
        if not tx.stages:
            continue
        forwards = _forwards_issued(tx.issue_actions, miss_names)
        if not forwards:
            continue
        for stage in tx.stages:
            completing = [
                tr
                for tr in stage.triggers
                if tr.completes and tr.condition is None and tr.receives_data
            ]
            if not completing:
                continue
            trigger = completing[0]
            tname = directory_transient_name(tx.start_state, tx.final_state, stage.name)
            tail = tuple(trigger.actions) + tuple(tx.completion_actions)
            if _serves_requestor(tail):
                actions = tail
            else:
                serve = _serve_send(spec, forwards[0])
                if serve is None:
                    continue
                actions = (serve,) + tail
            for forward in forwards:
                fsm.fill(
                    tname, MessageEvent(miss_names[forward]), actions,
                    next_state=trigger.final_state or tx.final_state, absorb=True,
                )


def _recover_stable_states(
    spec: ProtocolSpec, fsm: ControllerFsm, miss_names: dict[str, str]
) -> None:
    # Requests whose directory handling (in some state) issues each forward:
    # the replay sources for states that serve the request from memory.
    origins: dict[str, set[str]] = {f: set() for f in miss_names}
    requests = {m.name for m in spec.messages.requests}
    for transition in fsm.transitions():
        event = transition.event
        if not isinstance(event, MessageEvent) or event.message not in requests:
            continue
        for forward in _forwards_issued(transition.actions, miss_names):
            origins[forward].add(event.message)

    for forward in sorted(miss_names):
        miss = miss_names[forward]
        for state in fsm.stable_states():
            forwarding = [
                t
                for t in fsm.transitions_from(state.name)
                if not t.stall and forward in _forwards_issued(t.actions, miss_names)
            ]
            if forwarding:
                handler = forwarding[0]
                fsm.fill(
                    state.name, MessageEvent(miss, guard="owner_not_requestor"),
                    handler.actions, next_state=handler.next_state, absorb=True,
                )
                # owner *is* the miss's requestor: the handoff target itself
                # reported the miss.  Either the forward was duplicated (the
                # duplicate was served, the real data response is in flight
                # to the requestor on another channel) or the old owner
                # evicted (its Put was processed first: the missing cache
                # gives the block up only on ``Put_Ack``, so the directory
                # took the Put before the miss was generated -- see
                # :func:`_split_captured_states` -- and the capture-time
                # serve already pushed current memory to the requestor).
                # Serving *again* from memory here is unsound: in the
                # duplication case memory is stale and the recovery data
                # races the real data.  Absorb silently instead.
                fsm.fill(
                    state.name, MessageEvent(miss, guard="owner_is_requestor"), absorb=True,
                    vacant=lambda guards: guards == {"owner_not_requestor"},
                )
                continue
            # No forwarding handler here: replay the memory-serving handler
            # of an originating request, bookkeeping included.
            for request in sorted(origins[forward]):
                replays = [
                    t
                    for t in fsm.candidates(state.name, MessageEvent(request))
                    if t.event.guard is None
                    and not t.stall
                    and _serves_requestor(t.actions)
                ]
                if replays:
                    fsm.fill(
                        state.name, MessageEvent(miss), replays[0].actions,
                        next_state=replays[0].next_state, absorb=True,
                    )
                    break


# ---------------------------------------------------------------------------
# Directory side: captured variants of dirty stable states
# ---------------------------------------------------------------------------


def _split_captured_states(
    spec: ProtocolSpec, fsm: ControllerFsm, miss_names: dict[str, str]
) -> None:
    """Split every forwarding stable state on whether memory is current.

    In a stable state with a recorded owner, memory is normally *stale* (the
    owner holds the authoritative copy), so a missed forward cannot be
    recovered from memory there.  But when the directory captures a stale
    Put (``not_from_owner``: the evaporating cache is the *previous* owner,
    racing a handoff to the recorded one), memory becomes current at that
    instant.  Recording that fact as a generated ``<state>_cap`` sibling --
    entered by the capture self-loops, left again by any handler that
    re-installs an owner -- lets the miss recovery be exact:

    * in the plain state, an ``owner_is_requestor`` miss is absorbed
      silently (the only way to get here is a duplicated forward, whose real
      data response is already in flight to the requestor on another
      channel; serving stale memory would race it);
    * in the ``_cap`` sibling, the same miss is the eviction race -- the
      evaporated owner's Put was necessarily processed *before* the miss was
      generated (the missing cache only gives the block up on ``Put_Ack``) --
      so the forwarding handler is replayed with the forward replaced by a
      ``Data`` served from the captured memory, bookkeeping intact.
    """
    puts = _put_requests(spec)
    for state in list(fsm.stable_states()):
        transitions = fsm.transitions_from(state.name)
        forwarding = [
            t
            for t in transitions
            if not t.stall and _forwards_issued(t.actions, miss_names)
        ]
        captures = [
            t
            for t in transitions
            if isinstance(t.event, MessageEvent)
            and t.event.message in puts
            and t.event.guard == "not_from_owner"
            and t.next_state == state.name
            and not t.stall
        ]
        if not forwarding or not captures:
            continue
        cap = f"{state.name}_cap"
        fsm.add_state(
            FsmState(
                name=cap,
                kind=StateKind.STABLE,
                permission=state.permission,
                state_sets=frozenset({state.name}),
                meta={**state.meta, "captured_from": state.name},
            )
        )
        capture_ids = {id(t) for t in captures}
        for t in transitions:
            if id(t) in capture_ids:
                mapped = cap
            elif any(isinstance(a, SetOwnerToRequestor) for a in t.actions):
                # Re-installing an owner makes memory prospectively stale
                # again: fall back to the plain variant of the target.
                mapped = t.next_state
            elif t.next_state == state.name:
                mapped = cap
            else:
                mapped = t.next_state
            fsm.add_transition(replace(t, state=cap, next_state=mapped))
        for t in captures:
            fsm.replace_transition(t, replace(t, next_state=cap))
        # Upgrade the copied owner_is_requestor absorptions: with captured
        # memory the directory can serve the miss itself.
        for handler in forwarding:
            if handler.next_state != state.name:
                continue  # staged issue: the transient recovery covers it
            for forward in _forwards_issued(handler.actions, miss_names):
                serve = _serve_send(spec, forward)
                if serve is None:
                    continue
                absorbed = [
                    t
                    for t in fsm.candidates(cap, MessageEvent(miss_names[forward]))
                    if isinstance(t.event, MessageEvent)
                    and t.event.guard == "owner_is_requestor"
                ]
                if not absorbed:
                    continue
                actions = tuple(
                    serve
                    if isinstance(a, Send)
                    and a.to is Dest.OWNER
                    and a.message == forward
                    else a
                    for a in handler.actions
                )
                fsm.replace_transition(
                    absorbed[0],
                    replace(
                        absorbed[0],
                        actions=actions,
                        next_state=handler.next_state,
                    ),
                )


# ---------------------------------------------------------------------------
# Directory side: duplicate-ownership absorption
# ---------------------------------------------------------------------------


def _silent_closure(spec: ProtocolSpec, state: str) -> set[str]:
    """Cache states reachable from *state* through silent transactions."""
    seen = {state}
    frontier = [state]
    while frontier:
        current = frontier.pop()
        for tx in spec.cache.transactions_from(current):
            if tx.is_silent and tx.final_state not in seen:
                seen.add(tx.final_state)
                frontier.append(tx.final_state)
    return seen


def _requests_issued_from(spec: ProtocolSpec, states: set[str]) -> set[str]:
    return {
        tx.request.message
        for state in states
        for tx in spec.cache.transactions_from(state)
        if tx.request is not None
    }


def _ownership_requests(spec: ProtocolSpec) -> set[str]:
    """Requests whose completion can install the issuer as read-write owner."""
    requests: set[str] = set()
    cache = spec.cache
    for transaction in cache.transactions:
        if transaction.request is None:
            continue
        finals = {transaction.final_state}
        for stage in transaction.stages:
            for trigger in stage.triggers:
                if trigger.completes and trigger.final_state is not None:
                    finals.add(trigger.final_state)
        if any(
            cache.state(final).permission is Permission.READ_WRITE
            for final in finals
        ):
            requests.add(transaction.request.message)
    return requests


def _absorb_duplicate_ownership(spec: ProtocolSpec, fsm: ControllerFsm) -> None:
    ownership = sorted(_ownership_requests(spec))
    for state in fsm.stable_states():
        owner_view = state.meta.get("owner_view")
        if owner_view is None:
            continue
        issuable = _requests_issued_from(spec, _silent_closure(spec, owner_view))
        for request in ownership:
            if request in issuable:
                # The believed owner state can legitimately issue this
                # request (MOSI's O->M upgrade): not an echo, keep it live.
                continue
            # An unguarded handler alone: shadow it for the owner's echo.
            fsm.fill(
                state.name, MessageEvent(request, guard="from_owner"), absorb=True,
                vacant=lambda guards: guards == {None},
            )


# ---------------------------------------------------------------------------
# Directory side: response absorption (must run last)
# ---------------------------------------------------------------------------


def _absorb_directory_responses(spec: ProtocolSpec, fsm: ControllerFsm) -> None:
    responses = sorted(m.name for m in spec.messages.responses)
    for state in fsm.state_names():
        for name in responses:
            # No handler at all, or only guarded recovery variants: add the
            # unguarded absorption as the default (guards win when they
            # match -- e.g. a miss whose guard pair finds no recorded owner
            # falls through to this).
            fsm.fill(
                state, MessageEvent(name), absorb=True,
                vacant=lambda guards: None not in guards,
            )
