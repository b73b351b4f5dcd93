"""Whole-system model: N caches + directory + interconnect for one block.

The :class:`System` assembles a generated protocol into an executable model
that the model checker (:mod:`repro.verification`) explores exhaustively and
the random-walk simulator samples.  The model is deliberately the same kind
of model the paper verifies with Murphi: a small number of caches, a single
cache block, non-deterministic core accesses bounded per cache, and
non-deterministic message delivery.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Iterable

from repro.core.fsm import AccessEvent, GeneratedProtocol, MessageEvent
from repro.dsl.types import AccessKind, Permission
from repro.system.executor import (
    Observation,
    ProtocolRuntimeError,
    execute_cache_transition,
    execute_directory_transition,
    select_transition,
)
from repro.system.message import DIRECTORY_ID, Message
from repro.system.network import Network, make_network
from repro.system.node_state import CacheNodeState, DirectoryNodeState


# ---------------------------------------------------------------------------
# Global state and events
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GlobalState:
    """One hashable snapshot of the whole system.

    Cache IDs are interchangeable (the workload and the protocol treat all
    caches identically), so global states that differ only by a renaming of
    the caches are behaviourally equivalent.  ``relabeled`` applies such a
    renaming consistently -- to the cache tuple itself and to every cache-ID
    reference buried in directory auxiliary state and in-flight messages --
    and ``sort_key`` provides the total order the verification engine uses
    to pick one representative per equivalence class.

    Multi-address systems hold one protocol *plane* per address: ``caches``
    grows address-major (``caches[addr * num_caches + cache_id]``) and the
    extra planes' directories, ghost versions and networks ride in the
    ``extra_*`` tuples (address 0 keeps the original field names, so
    single-address states -- and their hashes and encodings -- are
    unchanged).  ``faults_used`` counts injected network faults against the
    fault model's budget; it stays 0 whenever no fault model is active.
    """

    caches: tuple[CacheNodeState, ...]
    directory: DirectoryNodeState
    network: Network
    latest_version: int = 0
    extra_dirs: tuple[DirectoryNodeState, ...] = ()
    extra_versions: tuple[int, ...] = ()
    extra_networks: tuple[Network, ...] = ()
    faults_used: int = 0

    def relabeled(self, perm: tuple[int, ...]) -> "GlobalState":
        """Apply the cache permutation *perm* (``perm[old] = new``) everywhere."""
        n = len(perm)
        caches: list[CacheNodeState | None] = [None] * len(self.caches)
        for idx, cache in enumerate(self.caches):
            plane = idx - idx % n
            caches[plane + perm[idx % n]] = cache.relabeled(perm)
        return GlobalState(
            caches=tuple(caches),  # type: ignore[arg-type]
            directory=self.directory.relabeled(perm),
            network=self.network.relabeled(perm),
            latest_version=self.latest_version,
            extra_dirs=tuple(d.relabeled(perm) for d in self.extra_dirs),
            extra_versions=self.extra_versions,
            extra_networks=tuple(nw.relabeled(perm) for nw in self.extra_networks),
            faults_used=self.faults_used,
        )

    def sort_key(self) -> tuple:
        """Total-order key over global states (canonicalization hook)."""
        return (
            tuple(c.sort_key() for c in self.caches),
            self.directory.sort_key(),
            self.network.sort_key(),
            self.latest_version,
            tuple(d.sort_key() for d in self.extra_dirs),
            self.extra_versions,
            tuple(n.sort_key() for n in self.extra_networks),
            self.faults_used,
        )


@dataclass(frozen=True)
class SystemEvent:
    """Base class of the kinds of non-deterministic events."""


@dataclass(frozen=True)
class IssueAccess(SystemEvent):
    cache_id: int
    access: AccessKind
    addr: int = 0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        suffix = f" @{self.addr}" if self.addr else ""
        return f"C{self.cache_id}: {self.access}{suffix}"


@dataclass(frozen=True)
class DeliverMessage(SystemEvent):
    message: Message
    addr: int = 0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        suffix = f" @{self.addr}" if self.addr else ""
        return f"deliver {self.message}{suffix}"


@dataclass(frozen=True)
class DuplicateMessage(SystemEvent):
    """Fault event: the network delivers an extra copy of *message*.

    On an ordered network only the channel head may be duplicated (the copy
    queues directly behind the original, preserving FIFO for everything
    else); on an unordered network any in-flight message may be duplicated.
    """

    message: Message
    addr: int = 0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        suffix = f" @{self.addr}" if self.addr else ""
        return f"duplicate {self.message}{suffix}"


@dataclass(frozen=True)
class ReorderMessage(SystemEvent):
    """Fault event: swap two adjacent differing messages in one ordered
    channel, modelling a bounded reordering/extra-delay fault beyond the
    FIFO guarantee.  Meaningless on unordered networks (the bag already
    admits every ordering)."""

    src: int
    dst: int
    vnet: int
    position: int
    addr: int = 0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        suffix = f" @{self.addr}" if self.addr else ""
        return (
            f"reorder ({self.src}->{self.dst} vnet{self.vnet})"
            f" at {self.position}{suffix}"
        )


@dataclass
class StepOutcome:
    """Result of applying one event to a global state."""

    state: GlobalState
    observations: tuple[Observation, ...] = ()
    error: str | None = None


# ---------------------------------------------------------------------------
# Workload description
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """Bounded non-deterministic workload: each cache may issue up to
    ``max_accesses_per_cache`` accesses *per address*, each chosen from
    ``access_kinds``.  With several addresses a cache may run transactions
    on different blocks concurrently (each block gates its own issue)."""

    max_accesses_per_cache: int = 2
    access_kinds: tuple[AccessKind, ...] = (
        AccessKind.LOAD,
        AccessKind.STORE,
        AccessKind.REPLACEMENT,
    )


@dataclass(frozen=True)
class LitmusWorkload:
    """Per-cache straight-line programs of ``(AccessKind, address)`` ops.

    Each cache issues its program strictly in order, and an op is enabled
    only once *all* of that cache's blocks are stable again -- every access
    completes (its value is observed) before the next one issues.  That
    makes the issuing cores sequentially consistent by construction, so any
    forbidden-outcome reachability is the protocol's fault, not the
    workload's.  The program counter is recovered from the per-block
    ``issued`` lanes (their sum), so litmus mode adds no new state."""

    programs: tuple[tuple[tuple[AccessKind, int], ...], ...]

    @property
    def num_addresses(self) -> int:
        return 1 + max(
            (addr for program in self.programs for _, addr in program), default=0
        )

    @property
    def access_kinds(self) -> tuple[AccessKind, ...]:
        """Catalog of kinds for codec index tables (full, for stability)."""
        return (AccessKind.LOAD, AccessKind.STORE, AccessKind.REPLACEMENT)


@dataclass(frozen=True)
class FaultModel:
    """Network fault-injection axes, bounded by a total fault ``budget``.

    ``duplicate`` enables :class:`DuplicateMessage` events; ``reorder``
    enables :class:`ReorderMessage` events (ordered networks only -- an
    unordered network already admits every delivery order).  The budget
    caps the *total* number of injected faults along any one execution,
    which keeps the fault-augmented state space finite and small.

    ``requeue`` (default) gives stalled ordered-channel heads re-queue
    semantics -- deliverable messages behind a stalled head may bypass it,
    so one adjacent reorder no longer head-of-line-deadlocks the stalling
    configurations.  ``requeue=False`` restores strict head-of-line
    blocking, which keeps the original reorder-deadlock counterexamples
    replayable (see ``tests/verification/test_fault_regressions.py``)."""

    duplicate: bool = False
    reorder: bool = False
    budget: int = 1
    requeue: bool = True

    def __post_init__(self):
        if self.budget < 0:
            raise ValueError("fault budget must be non-negative")
        if not (self.duplicate or self.reorder):
            raise ValueError("fault model enables no fault kind")


class System:
    """Executable model of a generated protocol."""

    def __init__(
        self,
        protocol: GeneratedProtocol,
        num_caches: int = 2,
        *,
        workload: Workload | LitmusWorkload | None = None,
        ordered: bool | None = None,
        num_addresses: int | None = None,
        faults: FaultModel | None = None,
    ):
        if num_caches < 1:
            raise ValueError("need at least one cache")
        self.protocol = protocol
        self.num_caches = num_caches
        self.workload = workload or Workload()
        if isinstance(self.workload, LitmusWorkload):
            if len(self.workload.programs) != num_caches:
                raise ValueError(
                    f"litmus workload has {len(self.workload.programs)} programs "
                    f"for {num_caches} caches"
                )
            needed = self.workload.num_addresses
            if num_addresses is None:
                num_addresses = needed
            elif num_addresses < needed:
                raise ValueError(
                    f"litmus workload touches {needed} addresses, "
                    f"num_addresses={num_addresses}"
                )
        if num_addresses is None:
            num_addresses = 1
        if num_addresses < 1:
            raise ValueError("need at least one address")
        self.num_addresses = num_addresses
        self.faults = faults
        if ordered is None:
            ordered = getattr(protocol.source_spec, "ordered_network", True)
        self.ordered = ordered
        try:
            self._request_names = {m.name for m in protocol.messages.requests}
        except AttributeError:  # pragma: no cover - untyped message catalogs
            self._request_names = set()
        self._codec = None
        self._kernel = None
        self._vkernel = None

    @property
    def supports_symmetry(self) -> bool:
        """Whether the cache-ID symmetry reduction applies to this config.

        Litmus programs distinguish caches, so permuting IDs is unsound
        there.  Multi-address plain workloads are symmetric in principle,
        but the encoded canonicalizer only handles single-plane layouts --
        an engine limitation, reported as unsupported rather than silently
        producing an unsound reduction.  Fault models compose fine (faults
        are cache-ID symmetric)."""
        return self.num_addresses == 1 and not isinstance(
            self.workload, LitmusWorkload
        )

    def value_bound(self) -> int:
        """Exclusive upper bound on ghost data versions per address."""
        if isinstance(self.workload, LitmusWorkload):
            total_ops = sum(len(p) for p in self.workload.programs)
            return total_ops + 1
        return self.num_caches * self.workload.max_accesses_per_cache + 1

    def codec(self):
        """The :class:`~repro.system.codec.StateCodec` for this configuration.

        Built lazily and cached: the codec's index tables depend only on the
        generated protocol, the cache count and the network kind, so one
        instance (and its sub-object memo tables) serves a whole search.
        """
        if self._codec is None:
            from repro.system.codec import StateCodec

            self._codec = StateCodec.for_system(self)
        return self._codec

    def kernel(self):
        """The compiled :class:`~repro.system.kernel.TransitionKernel` for
        this configuration (built lazily, cached like the codec).

        Raises :class:`repro.core.fsm.CompilationUnsupported` when the
        protocol uses a construct the tables cannot index; there is no other
        backend, so ``verify()`` raises it too.
        """
        if self._kernel is None:
            from repro.system.kernel import TransitionKernel

            self._kernel = TransitionKernel(self)
        return self._kernel

    def vectorized_kernel(self):
        """The :class:`~repro.system.vectorized.VectorizedKernel` for this
        configuration (built lazily, cached like the codec; wraps and caches
        :meth:`kernel`).

        Propagates :class:`repro.core.fsm.CompilationUnsupported` from the
        underlying compiled kernel.  A returned kernel may still have
        ``supported=False`` (fault models, litmus workloads, multi-address
        planes): the search then falls back to the compiled kernel.
        """
        if self._vkernel is None:
            from repro.system.vectorized import VectorizedKernel

            self._vkernel = VectorizedKernel(self)
        return self._vkernel

    def _tag(self, sends: tuple[Message, ...]) -> tuple[Message, ...]:
        """Assign each outgoing message to its virtual network (0 = requests).

        Messages are built with the response vnet (1), so only requests need
        the rebuild -- responses and forwards pass through untouched.
        """
        return tuple(
            replace(m, vnet=0) if m.mtype in self._request_names and m.vnet != 0 else m
            for m in sends
        )

    # -- construction ---------------------------------------------------------
    def initial_state(self) -> GlobalState:
        n_planes = self.num_addresses
        caches = tuple(
            CacheNodeState(fsm_state=self.protocol.cache.initial_state)
            for _ in range(self.num_caches * n_planes)
        )
        directory = DirectoryNodeState(fsm_state=self.protocol.directory.initial_state)
        return GlobalState(
            caches=caches,
            directory=directory,
            network=make_network(self.ordered),
            latest_version=0,
            extra_dirs=tuple(
                DirectoryNodeState(fsm_state=self.protocol.directory.initial_state)
                for _ in range(n_planes - 1)
            ),
            extra_versions=(0,) * (n_planes - 1),
            extra_networks=tuple(
                make_network(self.ordered) for _ in range(n_planes - 1)
            ),
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

    def symmetry_permutations(self) -> tuple[tuple[int, ...], ...]:
        """All cache permutations, identity first.

        The workload bounds and access kinds are uniform across caches, so
        the full symmetric group on cache IDs is a valid symmetry of the
        transition system (``apply(perm(s), perm(e)) == perm(apply(s, e))``).
        """
        return tuple(itertools.permutations(range(self.num_caches)))

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
            for message in network.deliverable():
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
                for message in self._plane_network(state, addr).deliverable():
                    yield DuplicateMessage(message=message, addr=addr)
        if faults.reorder and self.ordered:
            for addr in range(self.num_addresses):
                for src, dst, vnet, pos in self._plane_network(
                    state, addr
                ).reorderable():
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
            network=self._plane_network(state, addr).send(*self._tag(result.sends)),
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
            network = network.deliver_at(message, position)
        else:
            network = network.deliver(message)
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
                network=network.send(*self._tag(result.sends)),
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
            network=network.send(*self._tag(result.sends)),
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
            network = self._plane_network(state, event.addr).duplicate(event.message)
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
            network = self._plane_network(state, event.addr).reorder(
                event.src, event.dst, event.vnet, event.position
            )
        except ValueError as exc:
            return StepOutcome(state=state, error=str(exc))
        new_state = self._with_plane(
            state, event.addr, network=network, faults_used=state.faults_used + 1
        )
        return StepOutcome(state=new_state)

    # -- predicates ----------------------------------------------------------------
    def is_quiescent(self, state: GlobalState) -> bool:
        """True when nothing is in flight and every controller is in a stable state."""
        if not state.network.empty:
            return False
        if any(not network.empty for network in state.extra_networks):
            return False
        if not self.protocol.directory.state(state.directory.fsm_state).is_stable:
            return False
        if any(
            not self.protocol.directory.state(d.fsm_state).is_stable
            for d in state.extra_dirs
        ):
            return False
        return all(
            self.protocol.cache.state(c.fsm_state).is_stable for c in state.caches
        )

    def is_complete(self, state: GlobalState) -> bool:
        """Quiescent and every cache has exhausted its workload."""
        if not self.is_quiescent(state):
            return False
        if isinstance(self.workload, LitmusWorkload):
            n = self.num_caches
            return all(
                sum(
                    state.caches[addr * n + cache_id].issued
                    for addr in range(self.num_addresses)
                )
                >= len(self.workload.programs[cache_id])
                for cache_id in range(n)
            )
        return all(
            c.issued >= self.workload.max_accesses_per_cache for c in state.caches
        )

    def writers_and_readers(
        self, state: GlobalState, addr: int = 0
    ) -> tuple[list[int], list[int]]:
        """Cache IDs currently holding write / read permission on *addr*."""
        writers: list[int] = []
        readers: list[int] = []
        base = addr * self.num_caches
        for cache_id in range(self.num_caches):
            cache = state.caches[base + cache_id]
            permission = self.protocol.cache.state(cache.fsm_state).permission
            if permission is Permission.READ_WRITE:
                writers.append(cache_id)
            elif permission is Permission.READ:
                readers.append(cache_id)
        return writers, readers
