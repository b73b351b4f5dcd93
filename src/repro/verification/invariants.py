"""Safety invariants checked over every reachable state.

The paper verifies its generated protocols with the Murphi model checker for
SWMR and deadlock freedom; the data-value invariant is folded into the
execution substrate (stores must build on the latest written version, loads
must never go backwards).  This module names the invariants a caller hands
``verify(invariants=...)``:

* **SWMR** -- at most one cache with write permission, and no readers while a
  writer exists.  Permissions are the ones the generator assigned in Step 4,
  so transient states with deferred ownership count conservatively.
* **Single owner** -- no two caches in a stable writable state at once.
* **Litmus outcomes** -- :class:`LitmusInvariant`'s forbidden outcomes.

Each compiles to a :mod:`repro.system.kernel` code that the kernel checks
and words (:meth:`TransitionKernel.violation`) on a state's lanes, so
called on a ``GlobalState`` an invariant encodes it and asks the kernel.
Any other ``(system, state)`` predicate runs on the decoded state.  The
tests restate all three over objects (``reference_system.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.system.kernel import INV_DECODED, INV_SINGLE_OWNER, INV_SWMR
from repro.system.system import GlobalState, System


@dataclass(frozen=True)
class InvariantViolation:
    """A named invariant that failed in a particular state."""

    name: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name}: {self.detail}"


Invariant = Callable[[System, GlobalState], InvariantViolation | None]


def _asked(system: System, state: GlobalState, code) -> InvariantViolation | None:
    """The kernel's verdict on compiled invariant *code* in *state*."""
    worded = system.kernel().violation(system.codec().encode(state), code)
    return None if worded is None else InvariantViolation(*worded)


def swmr_invariant(system: System, state: GlobalState) -> InvariantViolation | None:
    """Single-Writer / Multiple-Reader over the generated permission map.

    A per-address property: with several address planes each plane is
    checked independently (writers on different blocks may coexist)."""
    return _asked(system, state, INV_SWMR)


def single_owner_invariant(system: System, state: GlobalState) -> InvariantViolation | None:
    """No two caches may simultaneously sit in a stable MODIFIED-like state
    (per address, like SWMR)."""
    return _asked(system, state, INV_SINGLE_OWNER)


@dataclass(frozen=True)
class LitmusInvariant:
    """Forbidden final-outcome checker for litmus-test workloads.

    *clauses* is a tuple of forbidden outcomes; each clause is a tuple of
    ``(cache_id, addr, version)`` observations and is considered matched
    when, in a **complete** state (quiescent, every program finished), every
    listed cache's last observed value on the listed address equals the
    listed ghost version.  Any matched clause is a consistency violation.

    Callable with the ``(system, state)`` invariant signature so it drops
    into ``verify(invariants=...)`` next to the default pair; it compiles to
    the kernel code ``("litmus", clauses, name)`` (:attr:`code`).
    """

    name: str
    clauses: tuple[tuple[tuple[int, int, int], ...], ...]

    @property
    def code(self) -> tuple:
        return ("litmus", self.clauses, self.name)

    def __call__(
        self, system: System, state: GlobalState
    ) -> InvariantViolation | None:
        return _asked(system, state, self.code)


def default_invariants() -> Sequence[Invariant]:
    return (swmr_invariant, single_owner_invariant)


#: Invariants the compiled kernel can evaluate directly on encoded states,
#: mapped to their :mod:`repro.system.kernel` evaluator codes.
COMPILED_INVARIANTS: dict[Invariant, str] = {
    swmr_invariant: INV_SWMR,
    single_owner_invariant: INV_SINGLE_OWNER,
}


def compiled_invariant_codes(
    invariants: Sequence[Invariant],
) -> tuple[str | tuple, ...]:
    """Kernel evaluator codes for *invariants*, in order.

    Litmus invariants compile to their structured :attr:`LitmusInvariant.code`
    (the checker is parameterized by its clause table, not its identity).
    Any other predicate gets :data:`~repro.system.kernel.INV_DECODED`, for
    which :meth:`TransitionKernel.check` never vouches: every new state is
    then decoded and the ``(system, state)`` predicates are called on it
    unchanged, so a custom invariant runs on the compiled kernel too.
    """
    return tuple(
        invariant.code
        if isinstance(invariant, LitmusInvariant)
        else COMPILED_INVARIANTS.get(invariant, INV_DECODED)
        for invariant in invariants
    )
