"""Verification layer: explicit-state model checking and random simulation.

This is the reproduction's replacement for the Murphi model checker used in
the paper: :func:`repro.verification.verify` enumerates the reachable state
space of a generated protocol (N caches, one block, bounded non-deterministic
workload, non-deterministic message delivery) and checks SWMR, the data-value
invariant (enforced inside the execution substrate) and deadlock freedom.

The checker lives in the :mod:`repro.verification.engine` subsystem and
mirrors Murphi's scalarset machinery: ``verify(system, symmetry=True)``
canonicalizes cache IDs before de-duplication (up to ``num_caches!`` fewer
states, identical verdicts, replayable counterexample traces) -- through one
canonicalizer, which searches, seeding and ``random_walk`` coverage all
share (:func:`repro.verification.engine.canonical.canonicalizer_for`) --
states are interned in a compact, exact store, and
``verify(strategy=...)`` names the search order: ``"bfs"``, ``"dfs"`` or
``"parallel"`` (BFS on forked workers).
"""

from repro.verification.engine import (
    StateStore,
    VerificationResult,
    verify,
)
from repro.verification.invariants import (
    Invariant,
    InvariantViolation,
    LitmusInvariant,
    default_invariants,
    single_owner_invariant,
    swmr_invariant,
)
from repro.verification.litmus import (
    LITMUS_TESTS,
    LitmusTest,
    coherent_read_read,
    message_passing,
    store_buffering,
)
from repro.verification.random_walk import RandomWalkResult, random_walk

__all__ = [
    "Invariant",
    "InvariantViolation",
    "LITMUS_TESTS",
    "LitmusInvariant",
    "LitmusTest",
    "RandomWalkResult",
    "StateStore",
    "VerificationResult",
    "coherent_read_read",
    "default_invariants",
    "message_passing",
    "random_walk",
    "single_owner_invariant",
    "store_buffering",
    "swmr_invariant",
    "verify",
]
