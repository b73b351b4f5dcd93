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

Each is a value carrying its :mod:`repro.system.kernel` code (``code``),
which the kernel checks and words (:meth:`TransitionKernel.violation`) on
a state's lanes; none is called on a ``GlobalState``.  To check a state by
hand, ask the kernel: ``system.kernel().violation(codec.encode(state),
invariant.code)``.  Any other ``(system, state)`` predicate runs on the
decoded state.  The tests restate all three over objects
(``reference_system.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Union

from repro.system.kernel import INV_DECODED, INV_SINGLE_OWNER, INV_SWMR
from repro.system.system import GlobalState, System


@dataclass(frozen=True)
class InvariantViolation:
    """A named invariant that failed in a particular state."""

    name: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name}: {self.detail}"


class KernelInvariant:
    """A built-in invariant: its name and the kernel :attr:`code` that
    checks and words it.  ``__name__`` is the name of the function it
    once was, which a checkpoint's fingerprint records."""

    __slots__ = ("__name__", "code")

    def __init__(self, name: str, code: str):
        self.__name__ = name
        self.code = code

    def __repr__(self) -> str:
        return self.__name__


#: Single-Writer / Multiple-Reader over the generated permission map, per
#: address plane (writers on different blocks may coexist).
swmr_invariant = KernelInvariant("swmr_invariant", INV_SWMR)

#: No two caches simultaneously in a stable MODIFIED-like state (per
#: address, like SWMR).
single_owner_invariant = KernelInvariant("single_owner_invariant", INV_SINGLE_OWNER)


@dataclass(frozen=True)
class LitmusInvariant:
    """Forbidden final-outcome checker for litmus-test workloads.

    *clauses* is a tuple of forbidden outcomes; each clause is a tuple of
    ``(cache_id, addr, version)`` observations and is considered matched
    when, in a **complete** state (quiescent, every program finished), every
    listed cache's last observed value on the listed address equals the
    listed ghost version.  Any matched clause is a consistency violation.
    It drops into ``verify(invariants=...)`` next to the default pair,
    compiled to the kernel code ``("litmus", clauses, name)`` (:attr:`code`).
    """

    name: str
    clauses: tuple[tuple[tuple[int, int, int], ...], ...]

    @property
    def code(self) -> tuple:
        return ("litmus", self.clauses, self.name)


Invariant = Union[
    KernelInvariant,
    LitmusInvariant,
    Callable[[System, GlobalState], "InvariantViolation | None"],
]


def default_invariants() -> Sequence[Invariant]:
    return (swmr_invariant, single_owner_invariant)


def compiled_invariant_codes(
    invariants: Sequence[Invariant],
) -> tuple[str | tuple, ...]:
    """Kernel evaluator codes for *invariants*, in order: each one's
    ``code``, or :data:`~repro.system.kernel.INV_DECODED` for a
    ``(system, state)`` predicate, for which :meth:`TransitionKernel.check`
    never vouches: every new state is then decoded and the predicate called
    on it, so a custom invariant runs on the compiled kernel too."""
    return tuple(getattr(invariant, "code", INV_DECODED) for invariant in invariants)
