"""Symmetry-reduced, parallel-capable verification engine.

The engine is the repo's Murphi stand-in.  One loop searches; everything
else plugs into it:

* :mod:`~repro.verification.engine.driver` -- the one search loop (budget
  clip, checkpoint save, depth counter) and the one per-state expander,
  on the compiled kernel;
* :mod:`~repro.verification.engine.search` -- ``search``, the one place
  that maps the ``strategy`` string (BFS, DFS, parallel BFS) to a
  frontier order and an expander, and the vectorized batch expander;
* :mod:`~repro.verification.engine.parallel` -- the third expander, a
  fleet of forked workers in owner-computes rounds: a state is deduped,
  checked, kept and expanded by the worker that owns its digest (one
  in-memory digest set per worker), only foreign successors cross a
  shared-memory arena, and the parent receives trace-link columns, never
  keys;
* :mod:`~repro.verification.engine.checkpoint` -- budget checkpoint/resume,
  one file shape for the in-process searches (the fleet takes none);
* :mod:`~repro.verification.engine.canonical` -- cache-ID permutation
  algebra and the one scalarset-style canonicalizer
  (:func:`canonicalizer_for`: the smallest relabeling of a state, evaluated
  on encodings; the definition itself, over object-level relabels and
  sort keys, is executed only by the tests that check it);
* :mod:`~repro.verification.engine.store` -- interned state store with
  columnar parent links: the one, exact, visited set of an in-process
  search;
* :mod:`~repro.verification.engine.core` -- the :func:`verify` facade tying
  them together, including permutation-correct counterexample traces.

``verify(system)`` behaves exactly like the seed explorer;
``verify(system, symmetry=True)`` explores one representative per
cache-permutation orbit, which is what makes three-cache, two-access
workloads tractable (E7--E10).
"""

from repro.verification.engine.canonical import (
    Permutation,
    canonicalizer_for,
    compose,
    identity_permutation,
    invert,
)
from repro.verification.engine.checkpoint import CheckpointMismatch
from repro.verification.engine.core import Exploration, VerificationResult, verify
from repro.verification.engine.parallel import ShmEngine
from repro.verification.engine.store import StateStore

__all__ = [
    "CheckpointMismatch",
    "Exploration",
    "Permutation",
    "ShmEngine",
    "StateStore",
    "VerificationResult",
    "canonicalizer_for",
    "compose",
    "identity_permutation",
    "invert",
    "verify",
]
