"""Protocol metrics: state / transition / stall counts (paper Section VI-B).

The paper characterises the generated non-stalling protocols as "fairly
non-trivial with 18-20 states and 46-60 transitions".  Its transition count
refers to the *protocol* transitions (message-triggered behaviour plus the
access transitions that start or satisfy transactions), not the stall markers
or the purely administrative hit rows; :func:`protocol_transition_count`
reproduces that notion so the numbers are comparable.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.fsm import AccessEvent, ControllerFsm, GeneratedProtocol


@dataclass(frozen=True)
class ControllerMetrics:
    name: str
    states: int
    stable_states: int
    transient_states: int
    transitions: int
    protocol_transitions: int
    stalls: int


def protocol_transition_count(fsm: ControllerFsm) -> int:
    """Transitions excluding stall markers, same-state access hits, and
    generated hardening absorptions (the paper's tables describe protocol
    behaviour under exactly-once delivery, with no fault tolerance)."""
    count = 0
    for transition in fsm.transitions():
        if transition.stall or transition.absorb:
            continue
        if (
            isinstance(transition.event, AccessEvent)
            and transition.next_state == transition.state
        ):
            # A hit that does not change state is not counted as a protocol
            # transition (it is the "hit" cell of the table).
            continue
        count += 1
    return count


def controller_metrics(fsm: ControllerFsm) -> ControllerMetrics:
    return ControllerMetrics(
        name=fsm.name,
        states=fsm.num_states,
        stable_states=len(fsm.stable_states()),
        transient_states=len(fsm.transient_states()),
        transitions=fsm.num_transitions,
        protocol_transitions=protocol_transition_count(fsm),
        stalls=fsm.num_stalls,
    )


@dataclass(frozen=True)
class ProtocolMetrics:
    protocol: str
    cache: ControllerMetrics
    directory: ControllerMetrics


def protocol_metrics(generated: GeneratedProtocol) -> ProtocolMetrics:
    return ProtocolMetrics(
        protocol=generated.name,
        cache=controller_metrics(generated.cache),
        directory=controller_metrics(generated.directory),
    )
