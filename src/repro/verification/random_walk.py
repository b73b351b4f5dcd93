"""Randomized deep simulation for configurations too large to explore exhaustively.

Exhaustive exploration in pure Python becomes expensive beyond two or three
caches.  :func:`random_walk` complements it: it runs many random schedules
(random choice among the enabled events at every step) and checks the same
invariants along the way.  It cannot prove absence of bugs, but it routinely
finds the same classes of races the exhaustive search finds, and it scales to
more caches and longer workloads.

With ``track_coverage=True`` the walk also counts the distinct states it
visits -- as packed keys, canonicalized by the canonicalizer the
symmetry-reduced exhaustive search runs
(:func:`repro.verification.engine.canonical.canonicalizer_for`), so coverage
numbers are comparable with it: two visits that differ only by a renaming of
the caches count as one state.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Sequence

from repro.system.system import System
from repro.verification.engine.canonical import canonicalizer_for
from repro.verification.engine.core import compiled_tables
from repro.verification.engine.driver import first_violation
from repro.verification.invariants import Invariant, InvariantViolation, default_invariants


@dataclass
class RandomWalkResult:
    ok: bool
    runs: int
    steps: int
    elapsed_seconds: float
    violation: InvariantViolation | None = None
    error: str | None = None
    deadlock: bool = False
    trace: list[str] = field(default_factory=list)
    #: Distinct (canonical) states visited; 0 unless ``track_coverage=True``.
    unique_states: int = 0

    @property
    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        detail = ""
        if self.violation:
            detail = f" [{self.violation}]"
        elif self.error:
            detail = f" [{self.error}]"
        elif self.deadlock:
            detail = " [deadlock]"
        if self.unique_states:
            detail += f" ({self.unique_states} unique states)"
        return f"{status}: {self.runs} runs, {self.steps} steps, {self.elapsed_seconds:.2f}s{detail}"


def random_walk(
    system: System,
    *,
    runs: int = 100,
    max_steps: int = 400,
    seed: int = 0,
    invariants: Sequence[Invariant] | None = None,
    track_coverage: bool = False,
    symmetry: bool = True,
) -> RandomWalkResult:
    """Run *runs* random schedules of up to *max_steps* events each.

    Every step is a uniform draw among the compiled kernel's enabled plans,
    applied by the kernel -- the tables :func:`~repro.verification.verify`
    searches, so a ``System`` subclass raises the same ``TypeError``.  A
    state is decoded only for an invariant with no encoded evaluator, and
    events only for the failing run's trace.  A run that reaches a state
    with no enabled event ends there, and fails as a deadlock unless the
    state is complete -- ``verify``'s leaf rule.

    ``track_coverage`` counts distinct visited states in
    :attr:`RandomWalkResult.unique_states`; with ``symmetry`` (the default)
    the count is over cache-permutation orbits rather than raw states, and
    a configuration the reduction does not support raises ``verify``'s
    ``ValueError`` (:meth:`System.symmetry_group`).
    """
    invariants = tuple(invariants) if invariants is not None else tuple(default_invariants())
    kernel, codes = compiled_tables(system, invariants)
    codec = system.codec()
    root = codec.root()
    rng = random.Random(seed)
    start = time.perf_counter()
    total_steps = 0

    canonicalize = None
    seen: set[bytes] | None = None
    if track_coverage:
        seen = set()
        perms = system.symmetry_group() if symmetry else None
        if perms is not None:
            canonicalize = canonicalizer_for(codec, perms).canonicalize

    def note(key: bytes) -> None:
        if seen is None:
            return
        if canonicalize is not None:
            key = canonicalize(key)[0]
        seen.add(key)

    def finish(trace=(), **kwargs) -> RandomWalkResult:
        return RandomWalkResult(
            elapsed_seconds=time.perf_counter() - start,
            unique_states=len(seen) if seen is not None else 0,
            trace=[str(codec.decode_event(eev)) for eev in trace],
            **kwargs,
        )

    for run in range(runs):
        key = root
        note(key)
        trace: list[tuple] = []
        for _ in range(max_steps):
            plans, net = kernel.enabled(key)
            if not plans:
                if not kernel.is_complete(codec.unpack(key)):
                    return finish(
                        ok=False,
                        runs=run + 1,
                        steps=total_steps,
                        deadlock=True,
                        trace=trace,
                    )
                break
            plan = rng.choice(plans)
            trace.append(plan[1])
            total_steps += 1
            key = plan[0](key, plan, net)
            if type(key) is str:  # the protocol error's text
                return finish(
                    ok=False,
                    runs=run + 1,
                    steps=total_steps,
                    error=key,
                    trace=trace,
                )
            note(key)
            violation = first_violation(system, invariants, codes, codec.unpack(key))
            if violation is not None:
                return finish(
                    ok=False,
                    runs=run + 1,
                    steps=total_steps,
                    violation=violation,
                    trace=trace,
                )

    return finish(ok=True, runs=runs, steps=total_steps)
