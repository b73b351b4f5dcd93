"""The protocol mutants change exactly what they claim.

Every broken-protocol row of the conformance matrix rests on a helper in
``verification_helpers`` that rebuilds a generated controller through
``ControllerFsm``'s public calls.  A helper that silently left a dropped
transition behind in one of the controller's indexes would make its row
test nothing, so each is checked here against the controller it started
from, through every public view of the tables.
"""

import pytest

from repro import protocols
from repro.core import GenerationConfig, generate
from repro.core.fsm import AccessEvent, MessageEvent

from verification_helpers import (
    MUTANT_DROPS,
    drop_cache_accesses,
    drop_cache_handler,
    make_stalled_request_mutant,
)


def views(fsm):
    """The transitions *fsm* hands out, as a set: through ``transitions()``,
    per state through ``transitions_from()`` and per slot -- for every
    state and every event it handles anywhere -- through ``candidates()``."""
    events = {t.event for t in fsm.transitions()}
    return (
        set(fsm.transitions()),
        {t for name in fsm.state_names() for t in fsm.transitions_from(name)},
        {t for name in fsm.state_names() for event in events
         for t in fsm.candidates(name, event)},
    )


def assert_dropped(before, after, dropped):
    assert dropped, "the mutant must drop something"
    assert after.num_transitions == before.num_transitions - len(dropped)
    assert after.transitions() == [t for t in before.transitions() if t not in dropped]
    assert views(after) == (set(after.transitions()),) * 3
    assert after.state_names() == before.state_names()


@pytest.mark.parametrize("name", sorted(MUTANT_DROPS))
def test_drop_cache_handler_drops_the_handler(name):
    spec = protocols.load(name)
    state, message = MUTANT_DROPS[name]
    before = generate(spec, GenerationConfig.nonstalling()).cache
    after = drop_cache_handler(
        generate(spec, GenerationConfig.nonstalling()), state, message).cache
    dropped = [t for t in before.transitions()
               if t.state == state and isinstance(t.event, MessageEvent)
               and t.event.message == message]
    assert_dropped(before, after, dropped)


def test_drop_cache_accesses_drops_every_access(msi_spec):
    before = generate(msi_spec, GenerationConfig()).cache
    after = drop_cache_accesses(generate(msi_spec, GenerationConfig()), "S").cache
    dropped = [t for t in before.transitions()
               if t.state == "S" and isinstance(t.event, AccessEvent)]
    assert_dropped(before, after, dropped)
    assert not any(isinstance(t.event, AccessEvent) for t in after.transitions_from("S"))


@pytest.mark.parametrize("mtype", ["GetM", "GetS"])
def test_stalled_request_mutant_stalls_every_request_of_its_type(msi_spec, mtype):
    before = generate(msi_spec, GenerationConfig.stalling()).directory
    after = make_stalled_request_mutant(msi_spec, mtype).directory
    requests = [t for t in before.transitions()
                if isinstance(t.event, MessageEvent) and t.event.message == mtype]
    newly_stalled = [t for t in requests if not t.stall]
    assert newly_stalled
    assert after.num_transitions == before.num_transitions
    assert after.num_stalls == before.num_stalls + len(newly_stalled)
    assert views(after) == (set(after.transitions()),) * 3
    stalled = [t for t in after.transitions()
               if isinstance(t.event, MessageEvent) and t.event.message == mtype]
    assert len(stalled) == len(requests)
    assert all(t.stall and not t.actions and t.next_state == t.state
               for t in stalled)
