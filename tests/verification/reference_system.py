"""The tests' reference system: the generated FSMs interpreted over objects.

The compiled kernel (:mod:`repro.system.kernel`) is the only interpretation
of a generated protocol in ``src/``.  This module is the second, written
the plainest way there is and kept here as the oracle the kernel is held
to: given a controller FSM, a node's dataclass state and a stimulus (a
core access or an incoming message), it selects the matching transition,
executes its actions and returns the new node state plus the messages to
inject into the network (:func:`select_transition`,
:func:`execute_cache_transition`, :func:`execute_directory_transition`);
:class:`ReferenceSystem` adds the whole-system half -- which events are
enabled in a :class:`~repro.system.system.GlobalState` and what applying
one does -- over the same ``System`` configuration ``verify()`` takes --
with its own network (:func:`send`, :func:`deliver`, :func:`duplicate`,
:func:`reorder` ...), the one oracle every network splice of both kernels
is held to -- its own state predicates and invariants, restated from the
paper (:func:`restated`), and the relabel and order that define the
canonical form (:func:`relabeled`, :func:`sort_key`).

It shares with the engine the configuration, the state and network value
dataclasses, the guard vocabulary (:data:`repro.core.fsm.GUARD_CODES`) and
the invariants' names, and nothing else: no codec, no kernel.
``reference_search`` / ``replay_and_check`` / ``sample_reachable_states``
(``verification_helpers``) run on it, and the per-state parity checks pin
the kernel to its successors, event order, error texts and violations.

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
from typing import Iterable

from repro.core.fsm import (
    GUARD_CODES,
    AccessEvent,
    ControllerFsm,
    Event,
    FsmTransition,
    MessageEvent,
)
from repro.dsl.errors import VerificationError
from repro.dsl.types import (
    AccessKind,
    AddOwnerToSharers,
    AddRequestorToSharers,
    ClearOwner,
    ClearSharers,
    CopyDataFromMessage,
    Dest,
    IncrementAcksReceived,
    InvalidateData,
    PerformAccess,
    Permission,
    RemoveRequestorFromSharers,
    ResetAckCounters,
    SaveRequestor,
    Send,
    SetAcksExpectedFromMessage,
    SetOwnerToRequestor,
    WriteDataToMemory,
)
from repro.system.message import DIRECTORY_ID, Message
from repro.system.network import Network, OrderedNetwork, UnorderedNetwork
from repro.system.node_state import CacheNodeState, DirectoryNodeState
from repro.system.system import (
    DeliverMessage,
    DuplicateMessage,
    GlobalState,
    IssueAccess,
    LitmusWorkload,
    ReorderMessage,
    System,
    SystemEvent,
)
from repro.verification import (
    InvariantViolation,
    LitmusInvariant,
    single_owner_invariant,
    swmr_invariant,
)


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

    The object half of the shared guard vocabulary
    (:data:`repro.core.fsm.GUARD_CODES`); the compiled kernel evaluates the
    same codes over encoded fields, and the parity tests pin the two in
    agreement.
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

    node = replace(node, fsm_state=transition.next_state)
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
            if requestor is None:
                raise ProtocolRuntimeError(f"directory: {action!r} needs a requestor")
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

    node = replace(node, fsm_state=transition.next_state)
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


# ---------------------------------------------------------------------------
# The network: one FIFO per (src, dst, vnet) channel, or a sorted bag
# ---------------------------------------------------------------------------
# Steps on ``codec.decode``'s values, in the codec's layout: sorted, none empty.


def _edit(network: Network, key: tuple, edit) -> OrderedNetwork:
    channels = dict(network.channels)
    channels[key] = edit(channels.get(key, ()))
    return OrderedNetwork(tuple(sorted((k, q) for k, q in channels.items() if q)))


def make_network(ordered: bool) -> Network:
    """An empty network of the requested kind."""
    return OrderedNetwork() if ordered else UnorderedNetwork()


def in_flight(network: Network) -> tuple[Message, ...]:
    if not network.ordered:
        return network.messages
    return tuple(m for _, queue in network.channels for m in queue)


def deliverable(network: Network) -> tuple[Message, ...]:
    """Each channel's head, or each distinct message of the bag."""
    if not network.ordered:
        return tuple(dict.fromkeys(network.messages))
    return tuple(queue[0] for _, queue in network.channels)


def send(network: Network, *messages: Message) -> Network:
    if not network.ordered:
        return UnorderedNetwork(tuple(sorted(network.messages + messages, key=message_sort_key)))
    for m in messages:
        network = _edit(network, (m.src, m.dst, m.vnet), lambda q: q + (m,))
    return network


def deliver(network: Network, m: Message, position: int = 0) -> Network:
    """One copy of *m* out of the bag, or record *position* of its channel."""
    if not network.ordered:
        i = network.messages.index(m)
        return UnorderedNetwork(network.messages[:i] + network.messages[i + 1 :])
    if dict(network.channels).get((m.src, m.dst, m.vnet), ())[position : position + 1] != (m,):
        raise ValueError(f"message {m} is not at position {position} of its channel")
    return _edit(network, (m.src, m.dst, m.vnet), lambda q: q[:position] + q[position + 1 :])


def duplicate(network: Network, m: Message) -> Network:
    if m not in deliverable(network):
        raise ValueError(f"message {m} is not deliverable")
    if not network.ordered:
        return send(network, m)
    return _edit(network, (m.src, m.dst, m.vnet), lambda q: (m,) + q)


def reorderable(network: Network) -> tuple[tuple[int, int, int, int], ...]:
    """Adjacent differing records of a channel; a bag admits every order."""
    channels = network.channels if network.ordered else ()
    return tuple((*key, i) for key, q in channels for i in range(len(q) - 1) if q[i] != q[i + 1])


def reorder(network: Network, src: int, dst: int, vnet: int, i: int) -> Network:
    if (src, dst, vnet, i) not in reorderable(network):
        raise ValueError(f"no adjacent differing pair at {i} in channel {(src, dst, vnet)}")
    return _edit(network, (src, dst, vnet), lambda q: (*q[:i], q[i + 1], q[i], *q[i + 2 :]))


# ---------------------------------------------------------------------------
# Cache-ID symmetry: the relabel and the total order the canonical form is
# defined by (``reference_canonicalize``: the smallest relabeling)
# ---------------------------------------------------------------------------


def message_sort_key(m: Message) -> tuple:
    """Messages in field order, ``None`` below every value."""
    def k(value):
        return (0, 0) if value is None else (1, value)

    return (m.mtype, m.src, m.dst, m.vnet, k(m.requestor), k(m.data), k(m.ack_count))


def relabeled(state: GlobalState, perm: tuple[int, ...]) -> GlobalState:
    """*state* with every cache ID -- cache positions, saved requestors,
    directory owner and sharers, message endpoints and requestors --
    remapped through *perm* (``perm[old] = new``); the directory is a
    fixed point, and sorted collections are sorted again."""
    def node(i):
        return i if i is None or i < 0 else perm[i]

    def message(m):
        return replace(m, src=node(m.src), dst=node(m.dst), requestor=node(m.requestor))

    def directory(d):
        return replace(d, owner=node(d.owner), sharers=frozenset(map(node, d.sharers)))

    def network(nw):
        if not nw.ordered:
            return UnorderedNetwork(tuple(sorted(map(message, nw.messages), key=message_sort_key)))
        return OrderedNetwork(tuple(sorted(
            ((node(src), node(dst), vnet), tuple(map(message, queue)))
            for (src, dst, vnet), queue in nw.channels)))

    n = len(perm)
    caches = [None] * len(state.caches)
    for idx, cache in enumerate(state.caches):
        caches[idx - idx % n + perm[idx % n]] = replace(cache, saved=tuple(map(node, cache.saved)))
    return replace(
        state, caches=tuple(caches), directory=directory(state.directory),
        network=network(state.network), extra_dirs=tuple(map(directory, state.extra_dirs)),
        extra_networks=tuple(map(network, state.extra_networks)))


def sort_key(state: GlobalState) -> tuple:
    """The total order over global states: caches, directory, network,
    version, then the extra planes and the fault count; ``None`` sorts
    below every value."""
    def cache(c):
        return (c.fsm_state, c.issued, -1 if c.data is None else c.data,
                -1 if c.acks_expected is None else c.acks_expected, c.acks_received,
                tuple(-1 if s is None else s for s in c.saved),
                "" if c.pending_access is None else c.pending_access.value, c.last_observed)

    def directory(d):
        return (d.fsm_state, -2 if d.owner is None else d.owner, tuple(sorted(d.sharers)), d.memory)

    def network(nw):
        if not nw.ordered:
            return tuple(map(message_sort_key, nw.messages))
        return tuple((key, tuple(map(message_sort_key, queue))) for key, queue in nw.channels)

    return (tuple(map(cache, state.caches)), directory(state.directory),
            network(state.network), state.latest_version,
            tuple(map(directory, state.extra_dirs)), state.extra_versions,
            tuple(map(network, state.extra_networks)), state.faults_used)


# ---------------------------------------------------------------------------
# The whole system: enabled events and their outcomes
# ---------------------------------------------------------------------------


@dataclass
class StepOutcome:
    """Result of applying one event to a global state."""

    state: GlobalState
    observations: tuple[Observation, ...] = ()
    error: str | None = None


class ReferenceSystem(System):
    """A :class:`~repro.system.system.System` that also enumerates and
    applies events on ``GlobalState`` objects, through the executor above.

    ``verify()`` refuses it like any ``System`` subclass; build one from a
    plain system with :func:`reference`.  The tests' ``System``-subclass
    mutants override its methods and run on ``reference_search``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        try:
            self._request_names = {m.name for m in self.protocol.messages.requests}
        except AttributeError:  # pragma: no cover - untyped message catalogs
            self._request_names = set()

    def _tag(self, sends: tuple[Message, ...]) -> tuple[Message, ...]:
        """Assign each outgoing message to its virtual network (0 = requests).

        Messages are built with the response vnet (1), so only requests need
        the rebuild -- responses and forwards pass through untouched.
        """
        return tuple(
            replace(m, vnet=0) if m.mtype in self._request_names and m.vnet != 0 else m
            for m in sends
        )

    def initial_state(self) -> GlobalState:
        """Every cache and directory in its FSM's initial state on every
        plane, nothing in flight (the object the codec's root key
        decodes to)."""
        planes = self.num_addresses
        directory = DirectoryNodeState(fsm_state=self.protocol.directory.initial)
        return GlobalState(
            caches=(CacheNodeState(fsm_state=self.protocol.cache.initial),)
            * (self.num_caches * planes),
            directory=directory,
            network=make_network(self.ordered),
            extra_dirs=(directory,) * (planes - 1),
            extra_versions=(0,) * (planes - 1),
            extra_networks=(make_network(self.ordered),) * (planes - 1),
        )

    # -- per-address plane accessors -----------------------------------------
    def _plane_network(self, state: GlobalState, addr: int) -> Network:
        return state.network if addr == 0 else state.extra_networks[addr - 1]

    def _plane_directory(self, state: GlobalState, addr: int) -> DirectoryNodeState:
        return state.directory if addr == 0 else state.extra_dirs[addr - 1]

    def _plane_version(self, state: GlobalState, addr: int) -> int:
        return state.latest_version if addr == 0 else state.extra_versions[addr - 1]

    def _with_plane(
        self,
        state: GlobalState,
        addr: int,
        *,
        caches: tuple[CacheNodeState, ...] | None = None,
        directory: DirectoryNodeState | None = None,
        network: Network | None = None,
        version: int | None = None,
        faults_used: int | None = None,
    ) -> GlobalState:
        """Rebuild *state* with plane-*addr* components replaced."""
        changes: dict = {}
        if caches is not None:
            changes["caches"] = caches
        if faults_used is not None:
            changes["faults_used"] = faults_used
        if addr == 0:
            if directory is not None:
                changes["directory"] = directory
            if network is not None:
                changes["network"] = network
            if version is not None:
                changes["latest_version"] = version
        else:
            if directory is not None:
                dirs = list(state.extra_dirs)
                dirs[addr - 1] = directory
                changes["extra_dirs"] = tuple(dirs)
            if network is not None:
                nets = list(state.extra_networks)
                nets[addr - 1] = network
                changes["extra_networks"] = tuple(nets)
            if version is not None:
                versions = list(state.extra_versions)
                versions[addr - 1] = version
                changes["extra_versions"] = tuple(versions)
        return replace(state, **changes)

    # -- predicates -------------------------------------------------------------
    def is_quiescent(self, state: GlobalState) -> bool:
        """Nothing in flight, and every controller in a stable state."""
        return (
            not any(map(in_flight, (state.network, *state.extra_networks)))
            and all(self.protocol.directory.state(d.fsm_state).is_stable
                    for d in (state.directory, *state.extra_dirs))
            and all(self.protocol.cache.state(c.fsm_state).is_stable for c in state.caches)
        )

    def is_complete(self, state: GlobalState) -> bool:
        """Quiescent, and every cache has exhausted its workload."""
        if not self.is_quiescent(state):
            return False
        n = self.num_caches
        if isinstance(self.workload, LitmusWorkload):
            return all(
                sum(state.caches[addr * n + cid].issued for addr in range(self.num_addresses))
                >= len(program)
                for cid, program in enumerate(self.workload.programs))
        return all(c.issued >= self.workload.max_accesses_per_cache for c in state.caches)

    # -- event enumeration ------------------------------------------------------
    def enabled_events(self, state: GlobalState) -> list[SystemEvent]:
        events: list[SystemEvent] = []
        events.extend(self._access_events(state))
        events.extend(self._delivery_events(state))
        events.extend(self._fault_events(state))
        return events

    def _access_events(self, state: GlobalState) -> Iterable[SystemEvent]:
        if isinstance(self.workload, LitmusWorkload):
            yield from self._litmus_access_events(state)
            return
        fsm = self.protocol.cache
        n = self.num_caches
        for cache_id in range(n):
            for addr in range(self.num_addresses):
                cache = state.caches[addr * n + cache_id]
                if cache.issued >= self.workload.max_accesses_per_cache:
                    continue
                if not fsm.state(cache.fsm_state).is_stable:
                    # One outstanding transaction per block and per cache.
                    continue
                for access in self.workload.access_kinds:
                    transition = select_transition(
                        fsm, cache.fsm_state, AccessEvent(access),
                        message=None, cache=cache,
                    )
                    if transition is None or transition.stall:
                        continue
                    yield IssueAccess(cache_id=cache_id, access=access, addr=addr)

    def _litmus_access_events(self, state: GlobalState) -> Iterable[SystemEvent]:
        fsm = self.protocol.cache
        n = self.num_caches
        for cache_id in range(n):
            program = self.workload.programs[cache_id]
            blocks = [
                state.caches[addr * n + cache_id]
                for addr in range(self.num_addresses)
            ]
            pc = sum(block.issued for block in blocks)
            if pc >= len(program):
                continue
            if not all(fsm.state(b.fsm_state).is_stable for b in blocks):
                # Strict program order: the previous op must fully complete.
                continue
            access, addr = program[pc]
            cache = blocks[addr]
            transition = select_transition(
                fsm, cache.fsm_state, AccessEvent(access), message=None, cache=cache
            )
            if transition is None or transition.stall:
                continue
            yield IssueAccess(cache_id=cache_id, access=access, addr=addr)

    def _delivery_events(self, state: GlobalState) -> Iterable[SystemEvent]:
        for addr in range(self.num_addresses):
            network = self._plane_network(state, addr)
            if self.faults is not None and self.faults.requeue and network.ordered:
                # Re-queue semantics under a fault model: a stalled channel
                # head no longer blocks the channel -- the first deliverable
                # message behind it may be delivered instead (one candidate
                # per channel keeps FIFO among the non-stalled messages and
                # the branching bounded).
                for _, msgs in network.channels:
                    for message in msgs:
                        if self._delivery_enabled(state, message, addr):
                            yield DeliverMessage(message=message, addr=addr)
                            break
                continue
            for message in deliverable(network):
                if self._delivery_enabled(state, message, addr):
                    yield DeliverMessage(message=message, addr=addr)

    def _fault_events(self, state: GlobalState) -> Iterable[SystemEvent]:
        faults = self.faults
        if faults is None or state.faults_used >= faults.budget:
            return
        if faults.duplicate:
            for addr in range(self.num_addresses):
                # deliverable() enumerates exactly the duplication candidates:
                # channel heads (ordered) / distinct messages (unordered).
                for message in deliverable(self._plane_network(state, addr)):
                    yield DuplicateMessage(message=message, addr=addr)
        if faults.reorder and self.ordered:
            for addr in range(self.num_addresses):
                for src, dst, vnet, pos in reorderable(self._plane_network(state, addr)):
                    yield ReorderMessage(
                        src=src, dst=dst, vnet=vnet, position=pos, addr=addr
                    )

    def _delivery_enabled(
        self, state: GlobalState, message: Message, addr: int = 0
    ) -> bool:
        """A delivery is enabled unless the receiving controller stalls it.

        A message the receiver has *no* entry for at all is still enabled:
        applying it produces an error outcome that the model checker reports
        as a protocol bug (this mirrors Murphi's "unexpected message" error).
        """
        try:
            transition, _ = self._transition_for_message(state, message, addr)
        except ProtocolRuntimeError:
            return True
        if transition is None:
            return True
        return not transition.stall

    def _bypass_position(
        self, state: GlobalState, network: Network, message: Message, addr: int
    ) -> int | None:
        """Position of *message* in its channel under re-queue order.

        The first *enabled* message of a channel is the only one deliverable
        (stalled messages ahead of it are bypassed); returns ``None`` when
        *message* is not that first enabled message."""
        key = (message.src, message.dst, message.vnet)
        for chan_key, msgs in network.channels:
            if chan_key != key:
                continue
            for position, queued in enumerate(msgs):
                if self._delivery_enabled(state, queued, addr):
                    return position if queued == message else None
            return None
        return None

    def _transition_for_message(
        self, state: GlobalState, message: Message, addr: int = 0
    ):
        if message.dst == DIRECTORY_ID:
            fsm = self.protocol.directory
            node = self._plane_directory(state, addr)
            transition = select_transition(
                fsm, node.fsm_state, MessageEvent(message.mtype),
                message=message, directory=node,
            )
            return transition, node
        fsm = self.protocol.cache
        node = state.caches[addr * self.num_caches + message.dst]
        transition = select_transition(
            fsm, node.fsm_state, MessageEvent(message.mtype),
            message=message, cache=node,
        )
        return transition, node

    # -- event application -------------------------------------------------------
    def apply(self, state: GlobalState, event: SystemEvent) -> StepOutcome:
        """The outcome of *event* in *state*.  A protocol error -- returned
        by the executor or raised by it as :class:`ProtocolRuntimeError`,
        on whichever controller and event kind -- is the outcome's
        ``error``, with *state* unchanged."""
        try:
            if isinstance(event, IssueAccess):
                return self._apply_access(state, event)
            if isinstance(event, DeliverMessage):
                return self._apply_delivery(state, event)
            if isinstance(event, DuplicateMessage):
                return self._apply_duplicate(state, event)
            if isinstance(event, ReorderMessage):
                return self._apply_reorder(state, event)
        except ProtocolRuntimeError as exc:
            return StepOutcome(state=state, error=str(exc))
        raise TypeError(f"unknown event {event!r}")

    def _apply_access(self, state: GlobalState, event: IssueAccess) -> StepOutcome:
        fsm = self.protocol.cache
        addr = event.addr
        idx = addr * self.num_caches + event.cache_id
        cache = state.caches[idx]
        transition = select_transition(
            fsm, cache.fsm_state, AccessEvent(event.access), message=None, cache=cache
        )
        if transition is None or transition.stall:
            return StepOutcome(state=state, error=f"access {event} issued while not enabled")
        issuing = replace(cache, pending_access=event.access, issued=cache.issued + 1)
        result = execute_cache_transition(
            transition,
            issuing,
            event.cache_id,
            message=None,
            access=event.access,
            latest_version=self._plane_version(state, addr),
        )
        if result.error:
            return StepOutcome(state=state, error=result.error)
        caches = list(state.caches)
        caches[idx] = result.node
        new_state = self._with_plane(
            state,
            addr,
            caches=tuple(caches),
            network=send(self._plane_network(state, addr), *self._tag(result.sends)),
            version=result.latest_version,
        )
        return StepOutcome(state=new_state, observations=result.observations)

    def _apply_delivery(self, state: GlobalState, event: DeliverMessage) -> StepOutcome:
        message = event.message
        addr = event.addr
        transition, node = self._transition_for_message(state, message, addr)
        if transition is None:
            receiver = "directory" if message.dst == DIRECTORY_ID else f"cache {message.dst}"
            holder_state = node.fsm_state
            return StepOutcome(
                state=state,
                error=f"{receiver} in state {holder_state!r} cannot handle message {message}",
            )
        if transition.stall:
            return StepOutcome(state=state, error=f"stalled message {message} was delivered")

        network = self._plane_network(state, addr)
        if self.faults is not None and self.faults.requeue and network.ordered:
            position = self._bypass_position(state, network, message, addr)
            if position is None:
                return StepOutcome(
                    state=state,
                    error=f"message {message} is not deliverable under re-queue order",
                )
            network = deliver(network, message, position)
        else:
            network = deliver(network, message)
        if message.dst == DIRECTORY_ID:
            result = execute_directory_transition(
                transition, self._plane_directory(state, addr), message=message
            )
            if result.error:
                return StepOutcome(state=state, error=result.error)
            new_state = self._with_plane(
                state,
                addr,
                directory=result.node,
                network=send(network, *self._tag(result.sends)),
            )
            return StepOutcome(state=new_state, observations=result.observations)

        idx = addr * self.num_caches + message.dst
        result = execute_cache_transition(
            transition,
            state.caches[idx],
            message.dst,
            message=message,
            access=None,
            latest_version=self._plane_version(state, addr),
        )
        if result.error:
            return StepOutcome(state=state, error=result.error)
        caches = list(state.caches)
        caches[idx] = result.node
        new_state = self._with_plane(
            state,
            addr,
            caches=tuple(caches),
            network=send(network, *self._tag(result.sends)),
            version=result.latest_version,
        )
        return StepOutcome(state=new_state, observations=result.observations)

    def _fault_precondition(self, state: GlobalState) -> str | None:
        if self.faults is None:
            return "fault event applied without an active fault model"
        if state.faults_used >= self.faults.budget:
            return "fault event applied with the fault budget exhausted"
        return None

    def _apply_duplicate(
        self, state: GlobalState, event: DuplicateMessage
    ) -> StepOutcome:
        error = self._fault_precondition(state)
        if error is None and not self.faults.duplicate:
            error = "duplication fault applied but the model does not enable it"
        if error is not None:
            return StepOutcome(state=state, error=error)
        try:
            network = duplicate(self._plane_network(state, event.addr), event.message)
        except ValueError as exc:
            return StepOutcome(state=state, error=str(exc))
        new_state = self._with_plane(
            state, event.addr, network=network, faults_used=state.faults_used + 1
        )
        return StepOutcome(state=new_state)

    def _apply_reorder(self, state: GlobalState, event: ReorderMessage) -> StepOutcome:
        error = self._fault_precondition(state)
        if error is None and not self.faults.reorder:
            error = "reorder fault applied but the model does not enable it"
        if error is not None:
            return StepOutcome(state=state, error=error)
        try:
            network = reorder(self._plane_network(state, event.addr),
                              event.src, event.dst, event.vnet, event.position)
        except ValueError as exc:
            return StepOutcome(state=state, error=str(exc))
        new_state = self._with_plane(
            state, event.addr, network=network, faults_used=state.faults_used + 1
        )
        return StepOutcome(state=new_state)


def reference(system: System) -> ReferenceSystem:
    """*system* as a :class:`ReferenceSystem` (itself when it is one
    already, a mutant included): the same configuration, object-level
    events."""
    if isinstance(system, ReferenceSystem):
        return system
    return ReferenceSystem(
        system.protocol,
        system.num_caches,
        workload=system.workload,
        ordered=system.ordered,
        num_addresses=system.num_addresses,
        faults=system.faults,
    )


# ---------------------------------------------------------------------------
# The invariants, restated from the paper over the objects
# ---------------------------------------------------------------------------


def _held(system: ReferenceSystem, state: GlobalState, addr: int) -> list:
    """The FSM state of each cache on address *addr*."""
    n = system.num_caches
    return [system.protocol.cache.state(c.fsm_state)
            for c in state.caches[addr * n : (addr + 1) * n]]


def swmr(system: ReferenceSystem, state: GlobalState) -> InvariantViolation | None:
    """Single writer, multiple readers, per address: at most one cache may
    write a block, and none may read it while one can write."""
    for addr in range(system.num_addresses):
        held = _held(system, state, addr)
        writers = [cid for cid, s in enumerate(held) if s.permission is Permission.READ_WRITE]
        readers = [cid for cid, s in enumerate(held) if s.permission is Permission.READ]
        at = f" on address {addr}" if addr else ""
        if len(writers) > 1:
            return InvariantViolation(
                "SWMR", f"caches {writers} hold write permission simultaneously{at}")
        if writers and readers:
            return InvariantViolation("SWMR", f"cache {writers[0]} holds write "
                                      f"permission while caches {readers} can read{at}")
    return None


def single_owner(system: ReferenceSystem, state: GlobalState) -> InvariantViolation | None:
    """Per address, at most one cache in a stable state with write permission."""
    for addr in range(system.num_addresses):
        owners = [cid for cid, s in enumerate(_held(system, state, addr))
                  if s.is_stable and s.permission is Permission.READ_WRITE]
        if len(owners) > 1:
            at = f" on address {addr}" if addr else ""
            return InvariantViolation("single-owner", f"caches {owners} are "
                                      f"simultaneously in a stable writable state{at}")
    return None


def forbidden_outcome(invariant: LitmusInvariant):
    """*invariant*'s litmus check: a complete state where each ``(c, a, v)``
    of a clause holds -- cache ``c`` last saw version ``v`` of ``a``."""
    def check(system: ReferenceSystem, state: GlobalState) -> InvariantViolation | None:
        if not system.is_complete(state):
            return None
        n = system.num_caches
        for clause in invariant.clauses:
            if all(state.caches[a * n + c].last_observed == v for c, a, v in clause):
                outcome = ", ".join(f"C{c} observed v{v} at a{a}" for c, a, v in clause)
                return InvariantViolation(invariant.name, f"forbidden outcome reached: {outcome}")
        return None

    return check


def restated(invariants) -> tuple:
    """The restatement here of each of *invariants* (``verify()``'s default
    pair when ``None``); a test's own object-level predicate as it is."""
    if invariants is None:
        return (swmr, single_owner)
    return tuple(
        swmr if invariant is swmr_invariant
        else single_owner if invariant is single_owner_invariant
        else forbidden_outcome(invariant) if isinstance(invariant, LitmusInvariant)
        else invariant
        for invariant in invariants)
