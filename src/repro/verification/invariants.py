"""Safety invariants checked over every reachable state.

The paper verifies its generated protocols with the Murphi model checker for
SWMR and deadlock freedom; the data-value invariant is folded into the
execution substrate (stores must build on the latest written version, loads
must never go backwards).  This module contains the per-state predicates the
explorer evaluates:

* **SWMR** -- at most one cache with write permission, and no readers while a
  writer exists.  Permissions are the ones the generator assigned in Step 4,
  so transient states with deferred ownership count conservatively.
* **Directory consistency** -- sanity conditions tying the directory's
  auxiliary state to its coherence state (an owner exists when the directory
  believes the block is owned, the sharer list is empty when it believes the
  block is uncached, ...).  These are optional, protocol-specific checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.system.kernel import INV_DECODED
from repro.system.system import GlobalState, System


@dataclass(frozen=True)
class InvariantViolation:
    """A named invariant that failed in a particular state."""

    name: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name}: {self.detail}"


Invariant = Callable[[System, GlobalState], InvariantViolation | None]


def swmr_invariant(system: System, state: GlobalState) -> InvariantViolation | None:
    """Single-Writer / Multiple-Reader over the generated permission map.

    A per-address property: with several address planes each plane is
    checked independently (writers on different blocks may coexist)."""
    for addr in range(system.num_addresses):
        writers, readers = system.writers_and_readers(state, addr)
        at = f" on address {addr}" if addr else ""
        if len(writers) > 1:
            return InvariantViolation(
                name="SWMR",
                detail=f"caches {writers} hold write permission simultaneously{at}",
            )
        if writers and readers:
            return InvariantViolation(
                name="SWMR",
                detail=f"cache {writers[0]} holds write permission while caches {readers} can read{at}",
            )
    return None


def single_owner_invariant(system: System, state: GlobalState) -> InvariantViolation | None:
    """No two caches may simultaneously sit in a stable MODIFIED-like state.

    This is a stricter structural variant of SWMR that does not depend on the
    permission assignment; it only looks at stable states.  Per-address, like
    SWMR.
    """
    fsm = system.protocol.cache
    n = system.num_caches
    for addr in range(system.num_addresses):
        stable_writers = [
            cache_id
            for cache_id in range(n)
            for cache in (state.caches[addr * n + cache_id],)
            if fsm.state(cache.fsm_state).is_stable
            and fsm.state(cache.fsm_state).permission.name == "READ_WRITE"
        ]
        if len(stable_writers) > 1:
            at = f" on address {addr}" if addr else ""
            return InvariantViolation(
                name="single-owner",
                detail=f"caches {stable_writers} are simultaneously in a stable writable state{at}",
            )
    return None


@dataclass(frozen=True)
class LitmusInvariant:
    """Forbidden final-outcome checker for litmus-test workloads.

    *clauses* is a tuple of forbidden outcomes; each clause is a tuple of
    ``(cache_id, addr, version)`` observations and is considered matched
    when, in a **complete** state (quiescent, every program finished), every
    listed cache's last observed value on the listed address equals the
    listed ghost version.  Any matched clause is a consistency violation.

    Callable with the ``(system, state)`` invariant signature so it drops
    into ``verify(invariants=...)`` next to the default pair; the kernel
    evaluates the same clauses decode-free via the ``("litmus", clauses)``
    compiled code (see :meth:`TransitionKernel.check`).
    """

    name: str
    clauses: tuple[tuple[tuple[int, int, int], ...], ...]

    def __call__(
        self, system: System, state: GlobalState
    ) -> InvariantViolation | None:
        if not system.is_complete(state):
            return None
        n = system.num_caches
        for clause in self.clauses:
            if all(
                state.caches[addr * n + cache_id].last_observed == version
                for cache_id, addr, version in clause
            ):
                outcome = ", ".join(
                    f"C{cache_id} observed v{version} at a{addr}"
                    for cache_id, addr, version in clause
                )
                return InvariantViolation(
                    name=self.name,
                    detail=f"forbidden outcome reached: {outcome}",
                )
        return None


def default_invariants() -> Sequence[Invariant]:
    return (swmr_invariant, single_owner_invariant)


#: Invariants the compiled kernel can evaluate directly on encoded states,
#: mapped to their :mod:`repro.system.kernel` evaluator codes.
COMPILED_INVARIANTS: dict[Invariant, str] = {
    swmr_invariant: "swmr",
    single_owner_invariant: "single_owner",
}


def compiled_invariant_codes(
    invariants: Sequence[Invariant],
) -> tuple[str | tuple, ...]:
    """Kernel evaluator codes for *invariants*, in order.

    Litmus invariants compile to the structured ``("litmus", clauses)`` code
    (the checker is parameterized by its clause table, not its identity).
    Any other predicate gets :data:`~repro.system.kernel.INV_DECODED`, for
    which :meth:`TransitionKernel.check` never vouches: every new state is
    then decoded and the ``(system, state)`` predicates are called on it
    unchanged, so a custom invariant runs on the compiled kernel too.
    """
    codes = []
    for invariant in invariants:
        if isinstance(invariant, LitmusInvariant):
            # Litmus checkers are data, not identity: the kernel evaluates
            # the clause table directly on encoded last-observed lanes.
            codes.append(("litmus", invariant.clauses))
        else:
            codes.append(COMPILED_INVARIANTS.get(invariant, INV_DECODED))
    return tuple(codes)
