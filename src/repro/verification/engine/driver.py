"""The one search loop and the per-state expanders it drives.

Every strategy, backend and worker process runs the same two pieces:

* :func:`drive` -- the only loop in the engine that reads ``max_states``.
  It alone owns the budget clip, the checkpoint save, and the depth
  counter; it knows nothing about how a state is expanded.
* an **expander** -- ``expand(level)`` consumes one native level and
  returns ``(next_level, result)``: the successors that turned out new, or
  the :class:`VerificationResult` that ends the search.  The portable
  frontier is ``(state_id, packed_key)`` pairs -- the checkpoint's currency
  and the root level the fleet is dealt at spin-up -- and for the compiled
  expander it *is* the native one: a state is the ``bytes`` the store
  keys on from birth to rest -- its successors are spliced out of it, and
  a leaf and a new state's invariant check read its lanes in place
  (:meth:`~repro.system.codec.StateCodec.view`) -- so no lane tuple is
  built for a state that does not fail.  The expanders whose native
  level is something else convert with ``lift`` (a row matrix, per-owner
  counts) and, where a checkpoint may be saved, ``lower`` (the row
  matrix).  A native level is a list, or anything else with ``len()`` and
  slicing.

:func:`~repro.verification.engine.search.search` picks the expander.

:class:`CompiledExpander` holds the only per-state body in ``src/``
(enabled plans -> leaf verdict -> apply -> canonicalize -> intern ->
invariant check); ``intern`` is the only dedup a successor meets.  The
kernel is the only thing that applies a transition, key to key: a plan
returns its successor's packed key -- spliced out of the parent's, on
every configuration (:mod:`repro.system.kernel`) -- or its protocol
error's text, which ends the search; the object oracle the body is
checked against lives in the tests.
The vectorized batch expander subclasses the compiled one
(:mod:`~repro.verification.engine.search`), and the worker fleet is both a
third expander in the parent (its native level is a count per owner) and
a *user* of the per-state one in every worker, against a context whose
``store.intern`` is the shard sink
(:mod:`~repro.verification.engine.parallel`).  This module imports neither,
so both can import it.
"""

from __future__ import annotations

from time import perf_counter

from repro.system.kernel import INV_DECODED
from repro.verification.engine import checkpoint as checkpoint_mod
from repro.verification.engine.canonical import canonicalizer_for
from repro.verification.invariants import InvariantViolation


def first_violation(system, invariants, codes, enc):
    """The first of *invariants* (compiled to *codes*) the state with lanes
    *enc* violates, or None.  The kernel's encoded check answers first;
    where it does not vouch for the state, :func:`violations` words the
    first failure."""
    if system.kernel().check(enc, codes):
        return None
    return next(violations(system, invariants, codes, enc), None)


def violations(system, invariants, codes, enc):
    """Each violation of *invariants* (compiled to *codes*) on the lanes
    *enc*, in order: worded by the kernel, or -- for an ``INV_DECODED``
    predicate only -- by the predicate on the state decoded once."""
    kernel = system.kernel()
    state = None
    for invariant, code in zip(invariants, codes):
        if code == INV_DECODED:
            if state is None:
                state = system.codec().decode(enc)
            violation = invariant(system, state)
        else:
            worded = kernel.violation(enc, code)
            violation = None if worded is None else InvariantViolation(*worded)
        if violation is not None:
            yield violation


def start_point(ctx):
    """``(frontier pairs, depth)`` a search starts from: the loaded
    checkpoint's, else the root at depth 0."""
    if ctx.resume is not None:
        return ctx.resume["frontier"], ctx.resume["level"]
    return [(ctx.root_id, ctx.root_key)], 0


def drive(ctx, expander, frontier, depth, lifo=False):
    """Expand *frontier* to exhaustion, budget or failure; returns the result.

    FIFO hands the expander the whole level, so *depth* counts BFS levels;
    LIFO hands it the top of the stack and pushes what comes back, so DFS
    rides the same loop (and *depth* counts pops).  Either way the visit
    order is the historical one: level cuts are arbitrary cuts of the same
    FIFO stream.

    A level wider than the remaining ``max_states`` budget is clipped to it
    -- unless a checkpoint path is set: then the level is saved *unclipped*
    and the search stops at that boundary, so the resumed run explores the
    identical level sequence and ends with an uninterrupted run's exact
    counters (for DFS the boundary is the exact pop).
    """
    level = expander.lift(frontier)
    while level:
        remaining = ctx.max_states - ctx.explored
        if (1 if lifo else len(level)) > remaining:
            ctx.truncated = True
            if ctx.checkpoint_path is not None:
                checkpoint_mod.save(ctx, expander.lower(level), depth)
                break
            if remaining <= 0:
                break
            level = level[:remaining]
        # BFS: ``batch`` *is* the level, and ``expand`` consumes it.
        batch = [level.pop()] if lifo else level
        successors, result = expander.expand(batch)
        if result is not None:
            return result
        if lifo:
            level += successors
        else:
            level = successors
        depth += 1
    return ctx.success()


class Expander:
    """Interface; the defaults suit an expander whose native frontier *is*
    the portable one and whose visited set lives in ``ctx.store``."""

    def lift(self, pairs):
        """Native frontier for ``(state_id, packed_key)`` *pairs*."""
        return pairs

    def lower(self, level):
        """``(state_id, packed_key)`` pairs for a native *level*."""
        return level


class CompiledExpander(Expander):
    """Per-state expansion on the compiled kernel.  The native level is the
    portable one -- ``(state_id, packed_key)`` pairs whose key is the very
    ``bytes`` object the store keys on -- so ``lift``/``lower`` are the
    base-class identity and a checkpoint saves the frontier as it stands.

    ``expand`` calls :meth:`TransitionKernel.enabled` once per state, on its
    key, and each plan's handler once per transition, which returns the
    successor's key: no lanes are built for a state unless it is a leaf or
    new (its invariant check).  Nothing decodes, failures included, but
    for a predicate with no compiled code (asserted by the codec's
    ``decode_count`` instrumentation)."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.canonicalizer = (
            canonicalizer_for(ctx.codec, ctx.perms)
            if ctx.perms is not None
            else None
        )
        self.canonicalize = (
            self.canonicalizer.canonicalize
            if self.canonicalizer is not None
            else None
        )

    def leaf(self, sid, enc):
        """Verdict for a state (its lanes *enc*) with no enabled events
        (failure or None).

        Fine if nothing is actually outstanding (quiescent); otherwise it
        is a deadlock.  A quiescent state that still holds workload budget
        can never absorb it -- reported only under ``deadlock=True``.
        """
        ctx = self.ctx
        if ctx.kernel.is_quiescent(enc):
            if ctx.check_workload_deadlock and ctx.kernel.workload_remaining(enc):
                return ctx.failure(deadlock=True, leaf_id=sid)
            ctx.complete_states += 1
            return None
        return ctx.failure(deadlock=True, leaf_id=sid)

    def violation(self, key):
        """:func:`first_violation` of the state packed as *key*: the one
        seam for a caller that holds a state only as its packed key (the
        fleet's owners)."""
        ctx = self.ctx
        return first_violation(
            ctx.system, ctx.invariants, ctx.kernel_codes, ctx.codec.unpack(key)
        )

    def expand(self, level):
        ctx = self.ctx
        codec = ctx.codec
        codes = ctx.kernel_codes
        canonicalize = self.canonicalize
        timer = perf_counter
        view = codec.view
        intern = ctx.store.intern
        enabled = ctx.kernel.enabled
        check = ctx.kernel.check
        successors: list = []
        # Consume the level rather than iterate it: each expanded state is
        # released at once, so one level is resident, not two.
        level.reverse()
        while level:
            sid, packed = level.pop()
            ctx.explored += 1
            plans, net = enabled(packed)
            if not plans:
                failure = self.leaf(sid, view(packed))
                if failure is not None:
                    return None, failure
                continue
            for plan in plans:
                ctx.transitions += 1
                key = plan[0](packed, plan, net)
                if type(key) is str:  # the protocol error's text
                    return None, ctx.failure(
                        error=key, leaf_id=sid, final_event=plan[1],
                    )
                perm = None
                if canonicalize is not None:
                    start = timer()
                    key, perm = canonicalize(key)
                    ctx.canon_seconds += timer() - start
                new_id, is_new = intern(key, sid, plan[1], perm)
                if not is_new:
                    continue
                if not check(view(key), codes):
                    violation = self.violation(key)
                    if violation is not None:
                        return None, ctx.failure(
                            violation=violation, leaf_id=new_id
                        )
                successors.append((new_id, key))
        return successors, None


__all__ = ["CompiledExpander", "Expander", "drive", "first_violation", "start_point",
           "violations"]
