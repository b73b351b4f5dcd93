"""Canonical litmus tests as workload + forbidden-outcome pairs.

A litmus test is a tiny multi-address program per cache plus a set of
*forbidden outcomes* over the values the caches observed.  The issuing
cores are sequentially consistent by construction (a
:class:`~repro.system.system.LitmusWorkload` op only issues once the
previous op has fully completed), so any reachable forbidden outcome is a
coherence-protocol bug, not core-side reordering.  Data values are the
ghost versions the execution substrate already threads through ``Data``
messages: version 0 is the initial memory value of every location, the
*n*-th store to a location writes version *n*.

Three classics are bundled:

* **SB (store buffering)** -- ``C0: ST x; LD y`` / ``C1: ST y; LD x``;
  forbidden: both loads observe the initial value (``r0 = r1 = 0``).
* **MP (message passing)** -- ``C0: ST x; ST y`` / ``C1: LD y; LD x``;
  forbidden: the reader sees the flag (``y = 1``) but stale data
  (``x = 0``).
* **coRR (coherent read-read)** -- ``C0: ST x; ST x`` / ``C1: LD x; LD x``;
  forbidden: the two reads of one location go backwards.  This outcome has
  no clause table: the execution substrate itself raises a per-location SC
  violation when a load observes an older version than the same cache
  already saw, so the test relies on (and exercises) that built-in check.

Each builder returns a :class:`LitmusTest`; run one with::

    test = store_buffering()
    system = System(protocol, num_caches=2, workload=test.workload)
    result = verify(system, invariants=test.invariants())
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dsl.types import AccessKind
from repro.system.system import LitmusWorkload
from repro.verification.invariants import (
    Invariant,
    LitmusInvariant,
    default_invariants,
)

LD = AccessKind.LOAD
ST = AccessKind.STORE


@dataclass(frozen=True)
class LitmusTest:
    """A named litmus workload with its forbidden-outcome invariant."""

    name: str
    workload: LitmusWorkload
    invariant: LitmusInvariant

    def invariants(self) -> tuple[Invariant, ...]:
        """The default safety invariants plus this test's outcome checker."""
        return tuple(default_invariants()) + (self.invariant,)


def store_buffering() -> LitmusTest:
    """SB: both writers then cross-reads; both must not miss both stores."""
    return LitmusTest(
        name="litmus-SB",
        workload=LitmusWorkload(
            programs=(
                ((ST, 0), (LD, 1)),
                ((ST, 1), (LD, 0)),
            )
        ),
        # C0 read y's initial value AND C1 read x's initial value.
        invariant=LitmusInvariant(
            name="litmus-SB",
            clauses=(((0, 1, 0), (1, 0, 0)),),
        ),
    )


def message_passing() -> LitmusTest:
    """MP: data then flag; seeing the flag forces seeing the data."""
    return LitmusTest(
        name="litmus-MP",
        workload=LitmusWorkload(
            programs=(
                ((ST, 0), (ST, 1)),
                ((LD, 1), (LD, 0)),
            )
        ),
        # C1 saw the flag store (y == 1) but stale data (x == 0).
        invariant=LitmusInvariant(
            name="litmus-MP",
            clauses=(((1, 1, 1), (1, 0, 0)),),
        ),
    )


def coherent_read_read() -> LitmusTest:
    """coRR: per-location reads must be monotone in coherence order.

    No forbidden clause: a backwards read is already a substrate error
    (``load went backwards`` from the kernel's data-value check), which
    ``verify`` reports as a failing trace.  The empty-clause invariant
    still routes the search through the litmus machinery (completion
    semantics, value tracking) on both backends.
    """
    return LitmusTest(
        name="litmus-coRR",
        workload=LitmusWorkload(
            programs=(
                ((ST, 0), (ST, 0)),
                ((LD, 0), (LD, 0)),
            )
        ),
        invariant=LitmusInvariant(name="litmus-coRR", clauses=()),
    )


#: All bundled litmus tests, in presentation order.
LITMUS_TESTS = (store_buffering, message_passing, coherent_read_read)
