"""SSP preprocessing (paper Section V-A, Tables III / IV).

ProtoGen relies on the invariant that **every forwarded request can arrive at
exactly one stable cache state**: this is what lets a cache deduce, from an
incoming forwarded request alone, whether its own outstanding request was
serialized at the directory before or after the other transaction.

If the input SSP lets the same forwarded request arrive at two or more stable
states (the MOSI example: ``Fwd_GetS`` can arrive at both M and O), this pass
renames all but one occurrence (``O_Fwd_GetS``) and rewrites the directory
actions that send it so the directory emits the disambiguated name.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dsl.errors import GenerationError
from repro.dsl.ssp import ControllerSpec, ProtocolSpec
from repro.dsl.types import Action, MessageClass, Send


@dataclass
class PreprocessResult:
    """Outcome of preprocessing: the rewritten spec plus the renaming map."""

    spec: ProtocolSpec
    #: original forwarded-request name -> list of names it was split into
    #: (the first entry is the name kept for the "canonical" arrival state).
    renamings: dict[str, list[str]] = field(default_factory=dict)


def forwarded_arrival_states(spec: ProtocolSpec) -> dict[str, list[str]]:
    """Map every forwarded request to the stable cache states it can arrive in."""
    return {
        message.name: spec.cache_arrival_states(message.name)
        for message in spec.messages.by_class(MessageClass.FORWARD)
    }


def _arrival_classes(spec: ProtocolSpec, states: list[str]) -> list[list[str]]:
    """Group arrival states that are connected by silent transactions.

    Silent transitions (e.g. MESI's E->M upgrade) cannot race with anything,
    so a forwarded request arriving anywhere within such a group conveys the
    same serialization information; only arrivals in *different* groups need
    to be disambiguated by renaming.
    """
    from repro.core.context import compute_silent_classes

    silent_classes = compute_silent_classes(spec)

    def class_of(state: str) -> frozenset[str]:
        for cls in silent_classes:
            if state in cls:
                return cls
        return frozenset({state})

    grouped: dict[frozenset[str], list[str]] = {}
    for state in states:
        grouped.setdefault(class_of(state), []).append(state)
    return list(grouped.values())


def preprocess(spec: ProtocolSpec) -> PreprocessResult:
    """Return a copy of *spec* satisfying the one-arrival-state invariant."""
    working = spec.copy()
    renamings: dict[str, list[str]] = {}

    arrival = forwarded_arrival_states(working)
    for message_name, states in arrival.items():
        classes = _arrival_classes(working, states)
        if len(classes) <= 1:
            continue
        renamings[message_name] = _split_forwarded_request(working, message_name, classes)

    _check_invariant(working)
    return PreprocessResult(spec=working, renamings=renamings)


def _split_forwarded_request(
    spec: ProtocolSpec, message_name: str, classes: list[list[str]]
) -> list[str]:
    """Rename the occurrences of *message_name* arriving outside the first class."""
    new_names = [message_name]
    per_state_name: dict[str, str] = {state: message_name for state in classes[0]}
    for group in classes[1:]:
        label = sorted(group)[0]
        new_name = f"{label}_{message_name}"
        spec.messages.derive_renamed(message_name, new_name)
        for state in group:
            per_state_name[state] = new_name
        new_names.append(new_name)

    _rewrite_cache_arrivals(spec.cache, message_name, per_state_name)
    _rewrite_directory_sends(spec, message_name, per_state_name)
    return new_names


def _rewrite_cache_arrivals(
    cache: ControllerSpec, message_name: str, per_state_name: dict[str, str]
) -> None:
    for handler in cache.handlers(message_name):
        new_name = per_state_name.get(handler.state, message_name)
        if new_name != message_name:
            cache.rename_initiator(handler, new_name)


def _rewrite_directory_sends(
    spec: ProtocolSpec, message_name: str, per_state_name: dict[str, str]
) -> None:
    """Rewrite directory Send actions so the right renamed variant is emitted.

    The variant is chosen from, in priority order: the Send's explicit
    ``recipient_state`` annotation, then the ``owner_view`` of the directory
    state the send occurs in.  If neither identifies the recipient's stable
    state, keeping the original name would be right only for a recipient in
    the first arrival class, so we raise instead of guessing wrong silently.
    """
    directory = spec.directory

    def rewrite_actions(actions: tuple[Action, ...], dir_state: str) -> tuple[Action, ...]:
        return tuple(
            action.renamed(_variant_for(action, dir_state))
            if isinstance(action, Send) and action.message == message_name
            else action
            for action in actions
        )

    def _variant_for(action: Send, dir_state: str) -> str:
        recipient_state = action.recipient_state
        if recipient_state is None:
            recipient_state = directory.state(dir_state).owner_view
        if recipient_state is None:
            raise GenerationError(
                f"cannot disambiguate forwarded request {message_name!r} sent from "
                f"directory state {dir_state!r}: annotate the Send with recipient_state "
                "or give the directory state an owner_view"
            )
        if recipient_state not in per_state_name:
            raise GenerationError(
                f"directory state {dir_state!r} forwards {message_name!r} to a cache in "
                f"{recipient_state!r}, but the cache SSP never receives it in that state"
            )
        return per_state_name[recipient_state]

    directory.rewrite_actions(rewrite_actions)


def _check_invariant(spec: ProtocolSpec) -> None:
    arrival = forwarded_arrival_states(spec)
    offenders = {
        m: s for m, s in arrival.items() if len(_arrival_classes(spec, s)) > 1
    }
    if offenders:
        raise GenerationError(
            "preprocessing failed to establish the one-arrival-state invariant: "
            + ", ".join(f"{m} arrives in {s}" for m, s in offenders.items())
        )
