"""Shared helpers for the verification-layer tests: protocol mutants,
random reachable-state sampling (hand-rolled, deterministic generators) and
the two **reference oracles** the engine is checked against -- the
definition of symmetry canonicalization executed as written
(:func:`reference_canonicalize`) and a plain-``set`` breadth-first search
built on it (:func:`reference_search`).  Neither touches the codec, the
store, a kernel or the engine's canonicalizer.

Kept out of conftest.py on purpose: test modules import these helpers by
module name, and ``conftest`` is ambiguous once several test roots (tests/,
benchmarks/) each carry their own conftest on sys.path."""

from __future__ import annotations

import random
from collections import deque

import pytest

from repro.core import GenerationConfig, generate
from repro.core.fsm import MessageEvent, event_key
from repro.dsl.types import AccessKind, Permission
from repro.system import System, Workload
from repro.system.system import DeliverMessage, GlobalState
from repro.verification import default_invariants
from repro.verification.engine.canonical import canonicalizer_for


def replay_and_check(system, result):
    """Replay ``result.trace_events`` from the initial state and assert the
    reported outcome is reproduced exactly."""
    state = system.initial_state()
    events = result.trace_events
    assert [str(e) for e in events] == result.trace
    for step, event in enumerate(events):
        assert event in system.enabled_events(state), (
            f"replay step {step}: {event} is not enabled"
        )
        outcome = system.apply(state, event)
        if step == len(events) - 1 and result.error is not None:
            assert outcome.error == result.error
            return
        assert outcome.error is None, f"replay step {step} errored: {outcome.error}"
        state = outcome.state
    if result.error is not None:
        pytest.fail("error trace replayed without reproducing the error")
    if result.violation is not None:
        reproduced = [
            v
            for v in (inv(system, state) for inv in default_invariants())
            if v is not None and str(v) == str(result.violation)
        ]
        assert reproduced, f"violation {result.violation} not reproduced by replay"
        return
    if result.deadlock:
        assert not system.enabled_events(state)
        assert not system.is_quiescent(state)
        return
    pytest.fail("failing result carried no violation/error/deadlock")


def drop_cache_handler(generated, state: str, message: str):
    """Sabotage a generated protocol: remove the cache transition(s) for
    *message* in *state*.

    The model checker reports the resulting hole as an 'unexpected message'
    protocol error (mirroring Murphi), with a counterexample trace.  Always
    pass a freshly generated protocol -- the mutation is in place, so shared
    fixtures must not be handed to it.
    """
    cache = generated.cache
    cache._transitions = [
        t
        for t in cache.transitions()
        if not (
            t.state == state
            and isinstance(t.event, MessageEvent)
            and t.event.message == message
        )
    ]
    cache._index = {}
    for t in cache._transitions:
        cache._index.setdefault((t.state, event_key(t.event)), []).append(t)
    return generated


#: Per-protocol (state, message) pairs whose dropped handler is reachable on
#: a 1-access LOAD/STORE workload: another cache's store forwards an
#: invalidation (or an ownership transfer, for TSO-CC which has no Inv) into
#: the victim.
MUTANT_DROPS = {
    "MSI": ("S", "Inv"),
    "MESI": ("S", "Inv"),
    "MOSI": ("S", "Inv"),
    "MSI-Upgrade": ("S", "Inv"),
    "MSI-Unordered": ("S", "Inv"),
    "TSO-CC": ("M", "Fwd_GetM"),
}


def make_missing_inv_mutant(msi_spec):
    """Generate MSI, then drop the Invalidation handling in S."""
    return drop_cache_handler(generate(msi_spec, GenerationConfig()), "S", "Inv")


def make_swmr_mutant(msi_spec):
    """Generate MSI, then pretend IS_D already grants write permission."""
    generated = generate(msi_spec, GenerationConfig())
    generated.cache.state("IS_D").permission = Permission.READ_WRITE
    return generated


class MessageDroppingSystem(System):
    """A system whose network silently refuses to deliver one message type.

    Dropping a request type is symmetric in the cache IDs, so it is a valid
    subject for the symmetry-reduced search; it deadlocks as soon as any
    cache waits on a response to the dropped request.
    """

    def __init__(self, *args, dropped_mtype: str, **kwargs):
        super().__init__(*args, **kwargs)
        self.dropped_mtype = dropped_mtype

    def enabled_events(self, state):
        return [
            e
            for e in super().enabled_events(state)
            if not (
                isinstance(e, DeliverMessage) and e.message.mtype == self.dropped_mtype
            )
        ]


#: Cache states of the MSI-Unordered late-absorb redirects (the PR 2 fix):
#: their unordered network sections are the largest relabel surfaces.
LATE_ABSORB_STATES = {"IM_AD_I", "IM_AD_SI", "IM_A_I", "IM_A_SI", "SM_AD_I",
                      "SM_A_I", "IS_D_I"}


def two_access_workload(name: str) -> Workload:
    """Two accesses per cache for protocol *name*: every access kind, except
    for MSI-Unordered, which has no eviction path by design."""
    if name == "MSI-Unordered":
        return Workload(max_accesses_per_cache=2,
                        access_kinds=(AccessKind.LOAD, AccessKind.STORE))
    return Workload(max_accesses_per_cache=2)


def sample_reachable_states(
    system: System, *, seed: int, walks: int = 8, max_steps: int = 40
) -> list[GlobalState]:
    """Deterministic random-walk generator of reachable global states."""
    rng = random.Random(seed)
    states: list[GlobalState] = [system.initial_state()]
    for _ in range(walks):
        state = system.initial_state()
        for _ in range(max_steps):
            events = system.enabled_events(state)
            if not events:
                break
            outcome = system.apply(state, rng.choice(events))
            if outcome.error is not None:
                break
            state = outcome.state
            states.append(state)
    return states


def reference_canonicalize(state: GlobalState, perms) -> tuple[GlobalState, tuple]:
    """The definition of the canonical representative, executed literally:
    the smallest relabeling of *state*, first minimum in *perms* order.
    Returns ``(representative, witness)`` with ``representative ==
    state.relabeled(witness)``."""
    perm = min(perms, key=lambda p: state.relabeled(p).sort_key())
    return state.relabeled(perm), perm


def production_canonicalize(system: System, state: GlobalState):
    """``(representative, witness)`` of *state* from the pipeline the
    searches run (:func:`canonicalizer_for`, on the packed key), decoded
    back to an object."""
    codec = system.codec()
    canonicalizer = canonicalizer_for(codec, system.symmetry_permutations())
    rep_key, perm = canonicalizer.canonicalize(codec.encode_packed(state))
    return codec.decode_packed(rep_key), perm


def reference_search(system: System, symmetry: bool) -> tuple[int, int]:
    """``(states, transitions)`` of *system*'s reachable space by the
    plainest search there is: a FIFO of ``GlobalState`` objects, a Python
    ``set`` of them as the visited set, ``System.enabled_events`` /
    ``System.apply`` for successors, one representative per orbit by
    :func:`reference_canonicalize` when *symmetry* is set, every applied
    transition counted.  It shares ``System`` with the engine and nothing
    else."""
    perms = system.symmetry_permutations()

    def representative(state):
        return reference_canonicalize(state, perms)[0] if symmetry else state

    root = representative(system.initial_state())
    seen = {root}
    frontier = deque([root])
    transitions = 0
    while frontier:
        state = frontier.popleft()
        for event in system.enabled_events(state):
            transitions += 1
            outcome = system.apply(state, event)
            assert outcome.error is None, outcome.error
            successor = representative(outcome.state)
            if successor not in seen:
                seen.add(successor)
                frontier.append(successor)
    return len(seen), transitions
