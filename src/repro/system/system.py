"""Whole-system model: N caches + directory + interconnect for one block.

The :class:`System` binds a generated protocol to a configuration -- cache
count, workload, network ordering, address planes, fault model -- that the
model checker (:mod:`repro.verification`) explores exhaustively and the
random-walk simulator samples.  The model is deliberately the same kind of
model the paper verifies with Murphi: a small number of caches, a single
cache block, non-deterministic core accesses bounded per cache, and
non-deterministic message delivery.

What a transition does and what a state satisfies is the compiled
kernel's (:meth:`System.kernel`), on encoded states, and a search's
initial state is the codec's key (:meth:`StateCodec.root
<repro.system.codec.StateCodec.root>`).  This module holds, as plain data,
the vocabulary results are reported in: the :class:`GlobalState` a state
decodes to and the :class:`SystemEvent` kinds a trace is made of.  The
initial state as an object, the object-level predicates, relabel and sort
key are the tests' (``tests/verification/reference_system.py``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.core.fsm import GeneratedProtocol
from repro.dsl.types import AccessKind
from repro.system.message import Message
from repro.system.network import Network
from repro.system.node_state import CacheNodeState, DirectoryNodeState


# ---------------------------------------------------------------------------
# Global state and events
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GlobalState:
    """One hashable snapshot of the whole system.

    Cache IDs are interchangeable (the workload and the protocol treat all
    caches identically), so global states that differ only by a renaming of
    the caches are behaviourally equivalent; the engine picks one
    representative per equivalence class on encodings
    (:mod:`repro.verification.engine.canonical`).

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
    """A generated protocol in one model configuration; its compiled
    :meth:`kernel` is what executes it."""

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

    def symmetry_group(self) -> tuple[tuple[int, ...], ...] | None:
        """What a symmetry-reduced search or coverage count canonicalizes
        over: :meth:`symmetry_permutations`, or ``None`` with one cache
        (nothing to permute).  A configuration without
        :attr:`supports_symmetry` raises ``ValueError`` naming it -- the
        one refusal ``verify(symmetry=True)`` and ``random_walk``'s
        coverage count share."""
        if self.num_caches == 1:
            return None
        if not self.supports_symmetry:
            combination = (
                "a litmus workload (litmus programs distinguish the caches)"
                if isinstance(self.workload, LitmusWorkload)
                else f"num_addresses={self.num_addresses} (the encoded "
                "canonicalizer only handles single-plane layouts)"
            )
            raise ValueError(f"symmetry=True is unsupported with {combination}")
        return self.symmetry_permutations()

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

    def symmetry_permutations(self) -> tuple[tuple[int, ...], ...]:
        """All cache permutations, identity first.

        The workload bounds and access kinds are uniform across caches, so
        the full symmetric group on cache IDs is a valid symmetry of the
        transition system: applying ``perm(e)`` in ``perm(s)`` leads to
        ``perm`` of where ``e`` leads from ``s``.
        """
        return tuple(itertools.permutations(range(self.num_caches)))
