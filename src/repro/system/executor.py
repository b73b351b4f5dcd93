"""Interpretation of generated FSM transitions over concrete node states.

The executor is a pure function layer: given a controller FSM, the node's
current architectural state and a stimulus (a core access or an incoming
message), it selects the matching transition, executes its actions and
returns the new node state plus the messages to inject into the network.

Two backends run the same generated spec: this object executor, and the
compiled kernel (:mod:`repro.system.kernel`), which generates one function
per transition from the same actions, indexed by
:func:`repro.core.fsm.compile_spec`, and runs it over encoded states.
They share the guard vocabulary (:data:`repro.core.fsm.GUARD_CODES`,
evaluated here by :func:`evaluate_guard`) and the transition-selection
policy; the object executor is the differential oracle -- the kernel
delegates every error path to it, and the property tests in
``tests/verification/test_kernel.py`` pin the two backends to bit-identical
successors, events and verdicts.

Guard semantics
---------------

``ack_count_zero`` / ``ack_count_nonzero``
    Compare the acknowledgment count carried by a Data response against the
    acknowledgments that have *already* been received: invalidation acks can
    race ahead of the Data response, so "zero" really means "no further acks
    outstanding once this message is accounted for".
``acks_complete`` / ``acks_incomplete``
    Whether counting the current Inv_Ack makes the received count reach the
    expected count.
``from_owner`` / ``not_from_owner`` and ``last_sharer`` / ``not_last_sharer``
    Directory-side guards on the sender of the message relative to the
    directory's auxiliary state.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.fsm import (
    GUARD_CODES,
    ControllerFsm,
    Event,
    FsmTransition,
    MessageEvent,
)
from repro.dsl.errors import VerificationError
from repro.dsl.types import (
    AccessKind,
    Action,
    AddOwnerToSharers,
    AddRequestorToSharers,
    ClearOwner,
    ClearSharers,
    CopyDataFromMessage,
    Dest,
    IncrementAcksReceived,
    InvalidateData,
    PerformAccess,
    RemoveRequestorFromSharers,
    ResetAckCounters,
    SaveRequestor,
    Send,
    SetAcksExpectedFromMessage,
    SetOwnerToRequestor,
    WriteDataToMemory,
)
from repro.system.message import DIRECTORY_ID, Message
from repro.system.node_state import CacheNodeState, DirectoryNodeState


@dataclass(frozen=True)
class Observation:
    """A load or store performed by a cache (used by the invariant checks)."""

    cache_id: int
    access: AccessKind
    value: int | None


@dataclass
class StepResult:
    """Outcome of presenting one stimulus to one controller."""

    stalled: bool = False
    node: object | None = None
    sends: tuple[Message, ...] = ()
    observations: tuple[Observation, ...] = ()
    latest_version: int = 0
    error: str | None = None


class ProtocolRuntimeError(VerificationError):
    """The controller received a stimulus its FSM does not know how to handle."""


# ---------------------------------------------------------------------------
# Transition selection
# ---------------------------------------------------------------------------


def select_transition(
    fsm: ControllerFsm,
    state_name: str,
    event: Event,
    *,
    message: Message | None,
    cache: CacheNodeState | None = None,
    directory: DirectoryNodeState | None = None,
) -> FsmTransition | None:
    """Pick the transition matching *event* under the current guards.

    Returns ``None`` if the FSM has no entry at all for the stimulus (the
    caller reports this as a protocol error for messages, or treats the
    stimulus as disabled for accesses).
    """
    candidates = fsm.candidates(state_name, event)
    if not candidates:
        return None
    matching = [
        t for t in candidates
        if _guard_satisfied(t.event, message=message, cache=cache, directory=directory)
    ]
    if not matching:
        return None
    # Prefer a guarded (more specific) transition over an unguarded default.
    guarded = [t for t in matching if isinstance(t.event, MessageEvent) and t.event.guard]
    if len(guarded) == 1:
        return guarded[0]
    if len(matching) == 1:
        return matching[0]
    raise ProtocolRuntimeError(
        f"ambiguous transitions for {event} in state {state_name!r}: "
        + ", ".join(str(t.event) for t in matching)
    )


def _guard_satisfied(
    event: Event,
    *,
    message: Message | None,
    cache: CacheNodeState | None,
    directory: DirectoryNodeState | None,
) -> bool:
    if not isinstance(event, MessageEvent) or event.guard is None:
        return True
    code = GUARD_CODES.get(event.guard)
    if code is None:
        raise ProtocolRuntimeError(f"unknown guard {event.guard!r}")
    return evaluate_guard(code, message=message, cache=cache, directory=directory)


def evaluate_guard(
    code: int,
    *,
    message: Message | None,
    cache: CacheNodeState | None,
    directory: DirectoryNodeState | None,
) -> bool:
    """Evaluate one guard code over object-form node state.

    This is the object half of the shared guard vocabulary
    (:data:`repro.core.fsm.GUARD_CODES`); the compiled kernel
    (:mod:`repro.system.kernel`) evaluates the same codes over encoded
    fields, and the differential tests pin the two in agreement.
    """
    if code <= 2:  # ack_count_zero / ack_count_nonzero
        assert message is not None and cache is not None
        outstanding = (message.ack_count or 0) - cache.acks_received
        return outstanding <= 0 if code == 1 else outstanding > 0
    if code <= 4:  # acks_complete / acks_incomplete
        assert cache is not None
        if cache.acks_expected is None:
            return code == 4
        complete = cache.acks_received + 1 >= cache.acks_expected
        return complete if code == 3 else not complete
    assert message is not None and directory is not None
    if code <= 6:  # from_owner / not_from_owner
        is_owner = directory.owner is not None and message.src == directory.owner
        return is_owner if code == 5 else not is_owner
    if code <= 8:  # last_sharer / not_last_sharer
        last = message.src in directory.sharers and len(directory.sharers) == 1
        return last if code == 7 else not last
    if code <= 10:  # from_sharer / not_from_sharer
        is_sharer = message.src in directory.sharers
        return is_sharer if code == 9 else not is_sharer
    # owner_is_requestor / owner_not_requestor: unlike from_owner these test
    # the message's carried requestor identity, not its sender.  Both
    # require a recorded owner (the recovery transitions they guard act on
    # it), so with no owner neither matches and an unguarded default wins.
    is_req_owner = (
        directory.owner is not None and message.requestor == directory.owner
    )
    if code == 11:
        return is_req_owner
    return directory.owner is not None and not is_req_owner


# ---------------------------------------------------------------------------
# Cache execution
# ---------------------------------------------------------------------------


def execute_cache_transition(
    transition: FsmTransition,
    cache: CacheNodeState,
    cache_id: int,
    *,
    message: Message | None,
    access: AccessKind | None,
    latest_version: int,
) -> StepResult:
    """Execute *transition* for cache *cache_id* and return the outcome."""
    if transition.stall:
        return StepResult(stalled=True, node=cache, latest_version=latest_version)

    node = cache
    sends: list[Message] = []
    observations: list[Observation] = []
    version = latest_version
    requestor = message.requestor if message is not None else None
    pending = access if access is not None else node.pending_access

    for action in transition.actions:
        if isinstance(action, Send):
            sends.append(_cache_send(action, node, cache_id, message))
        elif isinstance(action, CopyDataFromMessage):
            if message is None or message.data is None:
                return StepResult(
                    error=f"cache {cache_id} expected data in {message}", latest_version=version
                )
            node = replace(node, data=message.data)
        elif isinstance(action, InvalidateData):
            node = replace(node, data=None)
        elif isinstance(action, SetAcksExpectedFromMessage):
            node = replace(node, acks_expected=(message.ack_count if message else None))
        elif isinstance(action, IncrementAcksReceived):
            node = replace(node, acks_received=node.acks_received + 1)
        elif isinstance(action, ResetAckCounters):
            node = replace(node, acks_expected=None, acks_received=0)
        elif isinstance(action, SaveRequestor):
            saved = list(node.saved)
            saved[action.slot] = requestor
            node = replace(node, saved=tuple(saved))
        elif isinstance(action, PerformAccess):
            node, version, observation, error = _perform_access(node, cache_id, pending, version)
            if error is not None:
                return StepResult(error=error, latest_version=version)
            if observation is not None:
                observations.append(observation)
        else:
            return StepResult(
                error=f"cache {cache_id} cannot execute action {action!r}",
                latest_version=version,
            )

    node = node.with_state(transition.next_state)
    if any(isinstance(a, PerformAccess) for a in transition.actions):
        node = replace(node, pending_access=None)
    return StepResult(
        node=node,
        sends=tuple(sends),
        observations=tuple(observations),
        latest_version=version,
    )


def _cache_send(
    action: Send, node: CacheNodeState, cache_id: int, message: Message | None
) -> Message:
    if action.requestor_slot is not None:
        dst = node.saved[action.requestor_slot]
        if dst is None:
            raise ProtocolRuntimeError(
                f"cache {cache_id}: deferred response {action.message} has no saved requestor"
            )
    elif action.to is Dest.DIRECTORY:
        dst = DIRECTORY_ID
    elif action.to is Dest.REQUESTOR:
        if message is None or message.requestor is None:
            raise ProtocolRuntimeError(
                f"cache {cache_id}: {action.message} needs a requestor but none is available"
            )
        dst = message.requestor
    elif action.to is Dest.SELF:
        dst = cache_id
    else:
        raise ProtocolRuntimeError(
            f"cache {cache_id}: unsupported destination {action.to} for {action.message}"
        )
    # Responses sent while handling a forwarded request keep the original
    # requestor; messages the cache originates on its own behalf carry its own
    # id (so the directory knows whom to respond to).  Deferred responses
    # execute when the *own* transaction completes, so the redirecting
    # forward's requestor -- banked in a saved slot at redirect time -- takes
    # precedence over the completion message's.
    if action.requestor_from_slot is not None:
        requestor = node.saved[action.requestor_from_slot]
        if requestor is None:
            raise ProtocolRuntimeError(
                f"cache {cache_id}: deferred response {action.message} has no "
                f"saved requestor to send on behalf of"
            )
    else:
        requestor = message.requestor if message is not None else cache_id
        if requestor is None:
            requestor = cache_id
    return Message(
        mtype=action.message,
        src=cache_id,
        dst=dst,
        requestor=requestor,
        data=node.data if action.with_data else None,
    )


def _perform_access(
    node: CacheNodeState,
    cache_id: int,
    access: AccessKind | None,
    latest_version: int,
) -> tuple[CacheNodeState, int, Observation | None, str | None]:
    """Perform the pending core access; enforce the data-value invariant."""
    if access is None:
        # A PerformAccess with nothing pending is a no-op (e.g. a replayed hit).
        return node, latest_version, None, None
    if access is AccessKind.LOAD:
        if node.data is None:
            return node, latest_version, None, (
                f"cache {cache_id} performed a load without data"
            )
        if node.data < node.last_observed:
            return node, latest_version, None, (
                f"cache {cache_id} load went backwards: saw version {node.data} after "
                f"{node.last_observed} (per-location SC violation)"
            )
        node = replace(node, last_observed=node.data)
        return node, latest_version, Observation(cache_id, access, node.data), None
    if access is AccessKind.STORE:
        if node.data is None:
            return node, latest_version, None, (
                f"cache {cache_id} performed a store without data"
            )
        if node.data != latest_version:
            return node, latest_version, None, (
                f"data-value invariant violated: cache {cache_id} stores on top of version "
                f"{node.data} but the latest written version is {latest_version}"
            )
        new_version = latest_version + 1
        node = replace(node, data=new_version, last_observed=new_version)
        return node, new_version, Observation(cache_id, access, new_version), None
    # Replacement: the block simply leaves the cache.
    return replace(node, data=None), latest_version, Observation(cache_id, access, None), None


# ---------------------------------------------------------------------------
# Directory execution
# ---------------------------------------------------------------------------


def execute_directory_transition(
    transition: FsmTransition,
    directory: DirectoryNodeState,
    *,
    message: Message | None,
) -> StepResult:
    if transition.stall:
        return StepResult(stalled=True, node=directory)

    node = directory
    sends: list[Message] = []
    requestor = message.requestor if message is not None else None

    for action in transition.actions:
        if isinstance(action, Send):
            sends.extend(_directory_sends(action, node, message))
        elif isinstance(action, (CopyDataFromMessage, WriteDataToMemory)):
            if message is None or message.data is None:
                return StepResult(error=f"directory expected data in {message}")
            node = replace(node, memory=message.data)
        elif isinstance(action, SetOwnerToRequestor):
            node = replace(node, owner=requestor)
        elif isinstance(action, ClearOwner):
            node = replace(node, owner=None)
        elif isinstance(action, AddRequestorToSharers):
            node = replace(node, sharers=node.sharers | {requestor})
        elif isinstance(action, AddOwnerToSharers):
            if node.owner is not None:
                node = replace(node, sharers=node.sharers | {node.owner})
        elif isinstance(action, RemoveRequestorFromSharers):
            node = replace(node, sharers=node.sharers - {requestor})
        elif isinstance(action, ClearSharers):
            node = replace(node, sharers=frozenset())
        else:
            return StepResult(error=f"directory cannot execute action {action!r}")

    node = node.with_state(transition.next_state)
    return StepResult(node=node, sends=tuple(sends))


def _directory_sends(
    action: Send, node: DirectoryNodeState, message: Message | None
) -> list[Message]:
    requestor = message.requestor if message is not None else None
    data = node.memory if action.with_data else None
    ack_count = None
    if action.with_ack_count:
        ack_count = len(node.sharers - ({requestor} if requestor is not None else set()))

    def build(dst: int) -> Message:
        return Message(
            mtype=action.message,
            src=DIRECTORY_ID,
            dst=dst,
            requestor=requestor,
            data=data,
            ack_count=ack_count,
        )

    if action.to is Dest.REQUESTOR:
        if requestor is None:
            raise ProtocolRuntimeError(f"directory: {action.message} needs a requestor")
        return [build(requestor)]
    if action.to is Dest.OWNER:
        if node.owner is None:
            raise ProtocolRuntimeError(f"directory: {action.message} needs an owner")
        return [build(node.owner)]
    if action.to is Dest.SHARERS:
        targets = sorted(node.sharers - ({requestor} if requestor is not None else set()))
        return [build(t) for t in targets]
    raise ProtocolRuntimeError(
        f"directory: unsupported destination {action.to} for {action.message}"
    )
