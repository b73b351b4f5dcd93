"""Generated finite-state-machine representation.

The generator's output is one :class:`ControllerFsm` per controller (cache
and directory).  The FSM is a flat table: for every state and every event
(core access or incoming message, possibly guarded) it gives the actions to
perform and the next state -- exactly the information in the paper's
Table VI.  The same structure is interpreted directly by the execution
substrate in :mod:`repro.system` and rendered by the backends.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable

from repro.dsl.errors import GenerationError
from repro.dsl.types import (
    AccessKind,
    Action,
    ControllerKind,
    Permission,
    PerformAccess,
)


class StateKind(enum.Enum):
    STABLE = "stable"
    TRANSIENT = "transient"


# ---------------------------------------------------------------------------
# Events
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Event:
    """Base event class (marker)."""

    guard = None  # only a MessageEvent carries one


@dataclass(frozen=True)
class AccessEvent(Event):
    """A core access (load / store / replacement) presented to the cache."""

    access: AccessKind

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return str(self.access)


@dataclass(frozen=True)
class MessageEvent(Event):
    """An incoming coherence message, with an optional guard.

    Guard values are the trigger conditions from the SSP layer
    (``ack_count_zero``, ``acks_complete``, ...) plus the sender guards used
    by the directory (``from_owner``, ``last_sharer``, ...).
    """

    message: str
    guard: str | None = None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.guard:
            return f"{self.message}[{self.guard}]"
        return self.message


def event_key(event: Event) -> tuple:
    """Key used to group transitions that compete for the same stimulus."""
    if isinstance(event, AccessEvent):
        return ("access", event.access)
    if isinstance(event, MessageEvent):
        return ("message", event.message)
    raise GenerationError(f"unknown event type {event!r}")


# ---------------------------------------------------------------------------
# States and transitions
# ---------------------------------------------------------------------------


@dataclass
class FsmState:
    """One state of a generated controller.

    ``state_sets`` is the set of *stable* state names whose State Set this
    state belongs to (paper Step 1, Section V-B).  A State Set exists for
    every stable state, which is the one member of its own; a transient
    state belongs to the set of every stable state in which the directory
    might currently see the block while the cache holds it in that transient
    state.  The generator reads the membership to decide whether an incoming
    forwarded request belongs to an earlier- or a later-ordered transaction.
    ``aliases`` records alternative names for states merged by the generator
    (e.g. ``IM_A_S`` / ``SM_A_S``).
    """

    name: str
    kind: StateKind
    permission: Permission = Permission.NONE
    state_sets: frozenset[str] = frozenset()
    aliases: tuple[str, ...] = ()
    # Free-form provenance used by analysis / table rendering.
    meta: dict = field(default_factory=dict)

    @property
    def is_stable(self) -> bool:
        return self.kind is StateKind.STABLE


@dataclass(frozen=True)
class FsmTransition:
    """One row-cell of the controller table.

    ``absorb`` marks transitions added by the hardening pass
    (:mod:`repro.core.harden`): idempotent consumption of a re-delivered
    message.  It does not change execution semantics -- absorption is just a
    (possibly re-acknowledging) self-loop -- but lets renderers and tests
    distinguish generated fault tolerance from SSP-specified behaviour.
    """

    state: str
    event: Event
    actions: tuple[Action, ...]
    next_state: str
    stall: bool = False
    absorb: bool = False

    def with_actions(self, actions: Iterable[Action]) -> "FsmTransition":
        return replace(self, actions=tuple(actions))


class ControllerFsm:
    """A complete generated controller."""

    def __init__(self, name: str, kind: ControllerKind, initial: str):
        self.name = name
        self.kind = kind
        self.initial = initial
        self._states: dict[str, FsmState] = {}
        self._transitions: list[FsmTransition] = []
        self._index: dict[tuple, list[FsmTransition]] = {}
        #: state name -> its transitions, in insertion order.
        self._by_state: dict[str, list[FsmTransition]] = {}

    # -- states ---------------------------------------------------------------
    def add_state(self, state: FsmState) -> FsmState:
        if state.name in self._states:
            raise GenerationError(f"duplicate FSM state {state.name!r}")
        self._states[state.name] = state
        self._by_state[state.name] = []
        return state

    def has_state(self, name: str) -> bool:
        return name in self._states

    def state(self, name: str) -> FsmState:
        try:
            return self._states[name]
        except KeyError:
            raise GenerationError(f"unknown FSM state {name!r}") from None

    def states(self) -> list[FsmState]:
        return list(self._states.values())

    def state_names(self) -> list[str]:
        return list(self._states)

    def stable_states(self) -> list[FsmState]:
        return [s for s in self._states.values() if s.is_stable]

    def transient_states(self) -> list[FsmState]:
        return [s for s in self._states.values() if not s.is_stable]

    # -- transitions ----------------------------------------------------------
    def add_transition(self, transition: FsmTransition) -> FsmTransition:
        if transition.state not in self._states:
            raise GenerationError(
                f"transition from unknown state {transition.state!r}"
            )
        if not transition.stall and transition.next_state not in self._states:
            raise GenerationError(
                f"transition from {transition.state!r} to unknown state "
                f"{transition.next_state!r}"
            )
        key = (transition.state, event_key(transition.event))
        existing = self._index.setdefault(key, [])
        for other in existing:
            if other.event == transition.event:
                raise GenerationError(
                    f"duplicate transition for {transition.event} in state "
                    f"{transition.state!r}"
                )
        existing.append(transition)
        self._transitions.append(transition)
        self._by_state[transition.state].append(transition)
        return transition

    def fill(
        self,
        state: str,
        event: Event,
        actions: tuple[Action, ...] = (),
        *,
        next_state: str | None = None,
        stall: bool = False,
        absorb: bool = False,
        vacant: Callable[[set[str | None]], bool] = operator.not_,
    ) -> None:
        """Give *state*'s unhandled slot for *event* its generated default.

        A default is a hit, a stall or an absorbing self-loop, with optional
        guard (the event's) and actions; miss recovery alone moves to another
        *next_state*.  The slot is unhandled when ``vacant(guards)`` holds
        for the guards of the transitions already competing for *event*'s
        stimulus -- by default, when there are none.  Every default-fill
        pass (access permissions, directory stalls, stale-Put handling,
        hardening) adds its transitions through here, one ``(state,
        event)`` index lookup each; request reinterpretation, which copies
        SSP transitions, does not.
        """
        guards = {t.event.guard for t in self._index.get((state, event_key(event)), ())}
        if vacant(guards):
            self.add_transition(FsmTransition(
                state, event, actions, state if next_state is None else next_state,
                stall, absorb,
            ))

    def replace_transition(self, old: FsmTransition, new: FsmTransition) -> FsmTransition:
        """Swap *old* for *new* in place (used by the hardening pass to
        rewrite a generated transition's actions).  Both must share the same
        (state, event) slot."""
        if (old.state, event_key(old.event)) != (new.state, event_key(new.event)):
            raise GenerationError(
                "replace_transition requires matching (state, event) slots"
            )
        self._transitions[self._transitions.index(old)] = new
        for bucket in (self._index[(old.state, event_key(old.event))],
                       self._by_state[old.state]):
            bucket[bucket.index(old)] = new
        return new

    def has_transition(self, state: str, event: Event) -> bool:
        key = (state, event_key(event))
        return any(t.event == event for t in self._index.get(key, []))

    def transitions(self) -> list[FsmTransition]:
        return list(self._transitions)

    def transitions_from(self, state: str) -> list[FsmTransition]:
        return list(self._by_state.get(state, ()))

    def candidates(self, state: str, event: Event) -> list[FsmTransition]:
        """All transitions in *state* that compete for *event*'s stimulus.

        For a :class:`MessageEvent` the returned list contains every guarded
        variant for the same message; the caller (the execution substrate)
        evaluates the guards against the concrete message and controller
        state.
        """
        key = (state, event_key(event))
        return list(self._index.get(key, []))

    # -- metrics --------------------------------------------------------------
    @property
    def num_states(self) -> int:
        return len(self._states)

    @property
    def num_transitions(self) -> int:
        return len(self._transitions)

    @property
    def num_stalls(self) -> int:
        return sum(1 for t in self._transitions if t.stall)


@dataclass
class GeneratedProtocol:
    """The full output of the generator for one input SSP."""

    name: str
    cache: ControllerFsm
    directory: ControllerFsm
    messages: "object"  # MessageCatalog; typed loosely to avoid an import cycle
    config: "object"    # GenerationConfig
    source_spec: "object"  # the (preprocessed) ProtocolSpec
    renamings: dict[str, list[str]] = field(default_factory=dict)

    def compiled(self) -> "CompiledSpec":
        """The integer-indexed table form of this protocol.

        Compiled fresh on every call -- test mutants edit controller tables
        in place, so a cached spec could go stale; the consumers that care
        (:class:`repro.system.kernel.TransitionKernel` via
        :meth:`repro.system.System.kernel`) cache at the system level, where
        the codec tables are snapshotted at the same time.  Raises
        :class:`CompilationUnsupported` when the protocol uses a guard, an
        event or a message type the tables cannot index; there is no other
        backend to run such a protocol on.
        """
        return compile_spec(self)


# ---------------------------------------------------------------------------
# Compiled (table-form) spec
# ---------------------------------------------------------------------------
#
# `ControllerFsm` objects -- string-keyed state lookups, dataclass events,
# action objects -- are the right representation for generation, for
# rendering and for the tests' object-level oracle, but the model checker
# executes millions of transitions per search, where every string hash shows
# up.  `compile_spec` indexes a generated protocol into flat integer-keyed
# dispatch tables -- states, guards, message types -- and keeps each
# transition's `Action` tuple as it is: the encoded-state kernel
# (`repro.system.kernel`), the one interpretation of a protocol in this
# package, turns every transition's actions into one generated function over
# packed states, the way Murphi compiles a model's rules to C.
#
# Index conventions (shared with `repro.system.codec.StateCodec`): FSM states
# and message types are indexed through their *sorted* name lists, access
# kinds through `AccessKind` sorted by value.

#: Guard codes (message-event trigger conditions).  The compiled kernel and
#: the tests' object-level oracle both dispatch on these, so the two cannot
#: drift on what a guard means; an unknown guard string fails compilation
#: here.
GUARD_CODES: dict[str, int] = {
    "ack_count_zero": 1,
    "ack_count_nonzero": 2,
    "acks_complete": 3,
    "acks_incomplete": 4,
    "from_owner": 5,
    "not_from_owner": 6,
    "last_sharer": 7,
    "not_last_sharer": 8,
    "from_sharer": 9,
    "not_from_sharer": 10,
    # Requestor-relative guards (hardening pass): unlike from_owner, which
    # tests the *sender* of the message, these test the message's carried
    # requestor identity against the directory's owner field.
    "owner_is_requestor": 11,
    "owner_not_requestor": 12,
}


class CompilationUnsupported(GenerationError):
    """The protocol uses a construct the table form cannot express."""


@dataclass(frozen=True)
class CompiledTransition:
    """One indexed `FsmTransition`: guard code, actions, next-state index."""

    guard: int          # 0 = unguarded, else a GUARD_CODES value
    next_state: int     # index into the controller's sorted state-name list
    actions: tuple[Action, ...]  # the transition's own actions; () for a stall
    stall: bool
    has_perform: bool   # any PerformAccess action (clears pending_access after)


@dataclass(frozen=True)
class CompiledController:
    """Integer-indexed dispatch tables for one controller FSM."""

    state_names: tuple[str, ...]           # sorted; index = state id
    stable: tuple[bool, ...]               # per state id
    permission: tuple[int, ...]            # per state id (Permission int value)
    #: per state id: tuple over access-kind index of CompiledTransition | None
    on_access: tuple[tuple, ...]
    #: per state id: dict message-type index -> tuple of candidate
    #: CompiledTransitions (same candidate order as `ControllerFsm.candidates`)
    on_message: tuple[dict, ...]


@dataclass(frozen=True)
class CompiledSpec:
    """Table form of a whole generated protocol."""

    cache: CompiledController
    directory: CompiledController
    mtype_names: tuple[str, ...]           # sorted; index = message-type id
    access_kinds: tuple[AccessKind, ...]   # sorted by value; index = access id
    #: per message-type id: the virtual network its sends travel on
    #: (0 for requests, 1 for forwards/responses -- the system model's tagging)
    mtype_vnet: tuple[int, ...]


def _compile_controller(
    fsm: ControllerFsm,
    *,
    mtype_index: dict[str, int],
    access_kinds: tuple[AccessKind, ...],
) -> CompiledController:
    state_names = tuple(sorted(fsm.state_names()))
    state_index = {name: i for i, name in enumerate(state_names)}

    def lower(transition: FsmTransition) -> CompiledTransition:
        guard = 0
        event = transition.event
        if isinstance(event, MessageEvent) and event.guard is not None:
            try:
                guard = GUARD_CODES[event.guard]
            except KeyError:
                raise CompilationUnsupported(
                    f"guard {event.guard!r}"
                ) from None
        if transition.stall:
            # Stalled cells never execute; next_state may be a placeholder.
            next_state = state_index.get(transition.next_state, 0)
            return CompiledTransition(guard, next_state, (), True, False)
        return CompiledTransition(
            guard,
            state_index[transition.next_state],
            transition.actions,
            False,
            any(isinstance(a, PerformAccess) for a in transition.actions),
        )

    on_access: list[tuple] = []
    on_message: list[dict] = []
    for name in state_names:
        access_row: list[CompiledTransition | None] = [None] * len(access_kinds)
        message_row: dict[int, list[CompiledTransition]] = {}
        for transition in fsm.transitions_from(name):
            event = transition.event
            if isinstance(event, AccessEvent):
                access_row[access_kinds.index(event.access)] = lower(transition)
            elif isinstance(event, MessageEvent):
                try:
                    mt = mtype_index[event.message]
                except KeyError:
                    raise CompilationUnsupported(
                        f"handler for unknown message type {event.message!r}"
                    ) from None
                message_row.setdefault(mt, []).append(lower(transition))
            else:
                raise CompilationUnsupported(f"event {event!r}")
        on_access.append(tuple(access_row))
        on_message.append({mt: tuple(cands) for mt, cands in message_row.items()})

    return CompiledController(
        state_names=state_names,
        stable=tuple(fsm.state(n).is_stable for n in state_names),
        permission=tuple(int(fsm.state(n).permission) for n in state_names),
        on_access=tuple(on_access),
        on_message=tuple(on_message),
    )


def compile_spec(protocol: GeneratedProtocol) -> CompiledSpec:
    """Index *protocol* into integer-keyed dispatch tables.

    The index conventions (sorted state / message-type names, value-sorted
    access kinds) are exactly those of
    :class:`repro.system.codec.StateCodec`, so a table lookup on an encoded
    field needs no translation.  Actions are kept as the transitions hold
    them.  Raises :class:`CompilationUnsupported` for an unknown guard, an
    unknown event kind or a handler for an unknown message type.
    """
    mtype_names = tuple(sorted(protocol.messages.names()))
    mtype_index = {name: i for i, name in enumerate(mtype_names)}
    try:
        request_names = {m.name for m in protocol.messages.requests}
    except AttributeError:  # pragma: no cover - untyped message catalogs
        request_names = set()
    mtype_vnet = tuple(0 if name in request_names else 1 for name in mtype_names)
    access_kinds = tuple(sorted(AccessKind, key=lambda a: a.value))
    return CompiledSpec(
        cache=_compile_controller(
            protocol.cache, mtype_index=mtype_index, access_kinds=access_kinds
        ),
        directory=_compile_controller(
            protocol.directory, mtype_index=mtype_index, access_kinds=access_kinds
        ),
        mtype_names=mtype_names,
        access_kinds=access_kinds,
        mtype_vnet=mtype_vnet,
    )
