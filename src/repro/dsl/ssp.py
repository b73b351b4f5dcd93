"""Stable State Protocol (SSP) representation.

An SSP describes a directory protocol as if every coherence transaction were
atomic: only stable states, and for each stable state what happens on a core
access or an incoming coherence message.  This is the information found in
the paper's Tables I and II.

Two behaviours are distinguished:

* A :class:`Transaction` is initiated by a core access (cache side) or by an
  incoming request (directory side) and may have to *wait* for one or more
  responses before it completes.  Waiting is expressed as a chain of
  :class:`AwaitStage` objects, each listing the :class:`Trigger` messages that
  advance or complete the transaction.  Each stage becomes a transient state
  in the generated protocol (Step 2 of the paper).
* A :class:`Reaction` handles an incoming message immediately, with no
  waiting -- e.g. a cache in M receiving a forwarded GetS, or the directory
  in S receiving a PutS.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dsl.errors import SpecError
from repro.dsl.messages import MessageCatalog
from repro.dsl.types import AccessKind, Action, ControllerKind, Permission, Send


@dataclass(frozen=True)
class StateSpec:
    """A stable controller state.

    ``owner_view`` is only meaningful for directory states: it names the
    stable *cache* state that the current owner is believed to be in while the
    directory is in this state (``"M"`` when the directory is in M, ``"O"``
    when in O, ...).  The preprocessing step uses it to disambiguate forwarded
    requests when the input SSP does not annotate its Send actions.
    """

    name: str
    permission: Permission = Permission.NONE
    owner_view: str | None = None


@dataclass(frozen=True)
class Trigger:
    """One message that advances an :class:`AwaitStage`.

    Attributes
    ----------
    message:
        Name of the message type that fires this trigger.
    condition:
        Optional guard evaluated against the message/controller state:

        * ``None`` -- always fires;
        * ``"ack_count_zero"`` -- the message's ack count is zero (no
          outstanding invalidations);
        * ``"ack_count_nonzero"`` -- the message carries a non-zero ack count;
        * ``"acks_complete"`` -- after counting this acknowledgment, all
          expected acknowledgments have been received ("Last Inv-Ack");
        * ``"acks_incomplete"`` -- acknowledgments are still outstanding.
    next_stage:
        Name of the stage to move to, or ``None`` if the trigger completes the
        transaction.
    final_state:
        Stable state entered when the transaction completes via this trigger.
        ``None`` means "use the transaction's default final state".
    actions:
        Extra actions performed when the trigger fires (beyond the implicit
        bookkeeping selected by the boolean flags below).
    receives_data / latches_ack_count / counts_ack:
        Implicit bookkeeping: copy the message data into the block, latch the
        expected-ack count, or count one received acknowledgment.
    """

    message: str
    condition: str | None = None
    next_stage: str | None = None
    final_state: str | None = None
    actions: tuple[Action, ...] = ()
    receives_data: bool = False
    latches_ack_count: bool = False
    counts_ack: bool = False

    VALID_CONDITIONS = (
        None,
        "ack_count_zero",
        "ack_count_nonzero",
        "acks_complete",
        "acks_incomplete",
    )

    def __post_init__(self) -> None:
        if self.condition not in self.VALID_CONDITIONS:
            raise SpecError(f"unknown trigger condition {self.condition!r}")

    @property
    def completes(self) -> bool:
        return self.next_stage is None


@dataclass(frozen=True)
class AwaitStage:
    """One waiting step of a transaction; becomes one transient state."""

    name: str
    triggers: tuple[Trigger, ...]

    def __post_init__(self) -> None:
        if not self.triggers:
            raise SpecError(f"await stage {self.name!r} has no triggers")


@dataclass(frozen=True)
class Transaction:
    """A transaction initiated in a stable state.

    Cache side: ``initiator`` is an :class:`AccessKind` (load / store /
    replacement).  Directory side: ``initiator`` is the name of the incoming
    request message (GetS, GetM, PutM, ...).

    ``request`` is the message issued to start the transaction (``None`` for
    silent transitions such as MESI's E->M upgrade on a store, or for
    directory transactions, which never issue a request of their own --
    their ``issue_actions`` contain any forwards/responses they send).
    """

    start_state: str
    initiator: AccessKind | str
    final_state: str
    request: Send | None = None
    issue_actions: tuple[Action, ...] = ()
    stages: tuple[AwaitStage, ...] = ()
    completion_actions: tuple[Action, ...] = ()

    def __post_init__(self) -> None:
        names = [stage.name for stage in self.stages]
        if len(set(names)) != len(names):
            raise SpecError(f"duplicate await-stage names in transaction from {self.start_state}")
        for stage in self.stages:
            for trigger in stage.triggers:
                if trigger.next_stage is not None and trigger.next_stage not in names:
                    raise SpecError(
                        f"trigger for {trigger.message!r} references unknown stage "
                        f"{trigger.next_stage!r} in transaction from {self.start_state}"
                    )

    @property
    def is_silent(self) -> bool:
        """True when the transaction needs no messages at all (e.g. E->M)."""
        return self.request is None and not self.stages and not self.issue_actions

    def all_actions(self) -> list[Action]:
        actions: list[Action] = list(self.issue_actions)
        if self.request is not None:
            actions.append(self.request)
        for stage in self.stages:
            for trigger in stage.triggers:
                actions.extend(trigger.actions)
        actions.extend(self.completion_actions)
        return actions


@dataclass(frozen=True)
class Reaction:
    """Immediate handling of an incoming message in a stable state."""

    state: str
    message: str
    next_state: str
    actions: tuple[Action, ...] = ()
    # Optional guard on the sender of the message relative to the directory's
    # auxiliary state.  Used by directory SSPs, e.g. "PutM from the owner" vs
    # "PutM from a non-owner".
    guard: str | None = None

    VALID_GUARDS = (None, "from_owner", "not_from_owner", "from_sharer", "not_from_sharer",
                    "last_sharer", "not_last_sharer")

    def __post_init__(self) -> None:
        if self.guard not in self.VALID_GUARDS:
            raise SpecError(f"unknown reaction guard {self.guard!r}")


@dataclass
class ControllerSpec:
    """The SSP of one controller (cache or directory)."""

    kind: ControllerKind
    states: dict[str, StateSpec]
    initial: str
    transactions: list[Transaction] = field(default_factory=list)
    reactions: list[Reaction] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.initial not in self.states:
            raise SpecError(f"initial state {self.initial!r} is not declared")

    # -- queries -------------------------------------------------------------
    def state(self, name: str) -> StateSpec:
        try:
            return self.states[name]
        except KeyError:
            raise SpecError(f"unknown state {name!r}") from None

    def state_names(self) -> list[str]:
        return list(self.states)

    def transactions_from(self, state: str) -> list[Transaction]:
        return [t for t in self.transactions if t.start_state == state]

    def transaction_for(self, state: str, initiator: AccessKind | str) -> Transaction | None:
        for transaction in self.transactions:
            if transaction.start_state == state and transaction.initiator == initiator:
                return transaction
        return None

    def reactions_in(self, state: str) -> list[Reaction]:
        return [r for r in self.reactions if r.state == state]

    def reactions_for(self, state: str, message: str) -> list[Reaction]:
        return [r for r in self.reactions if r.state == state and r.message == message]

    def messages_handled_in(self, state: str) -> set[str]:
        handled = {r.message for r in self.reactions_in(state)}
        for transaction in self.transactions_from(state):
            if not isinstance(transaction.initiator, AccessKind):
                handled.add(transaction.initiator)
        return handled

    # -- mutation helpers used by preprocessing ------------------------------
    def replace_transaction(self, old: Transaction, new: Transaction) -> None:
        index = self.transactions.index(old)
        self.transactions[index] = new

    def replace_reaction(self, old: Reaction, new: Reaction) -> None:
        index = self.reactions.index(old)
        self.reactions[index] = new

    def copy(self) -> "ControllerSpec":
        return ControllerSpec(
            kind=self.kind,
            states=dict(self.states),
            initial=self.initial,
            transactions=list(self.transactions),
            reactions=list(self.reactions),
        )


@dataclass
class ProtocolSpec:
    """A complete stable state protocol: cache + directory + message catalog."""

    name: str
    cache: ControllerSpec
    directory: ControllerSpec
    messages: MessageCatalog
    # True if the protocol assumes point-to-point ordering in the network
    # (Section VI-C discusses an MSI protocol that does not).
    ordered_network: bool = True
    description: str = ""

    def __post_init__(self) -> None:
        if self.cache.kind is not ControllerKind.CACHE:
            raise SpecError("ProtocolSpec.cache must be a CACHE controller spec")
        if self.directory.kind is not ControllerKind.DIRECTORY:
            raise SpecError("ProtocolSpec.directory must be a DIRECTORY controller spec")

    def copy(self) -> "ProtocolSpec":
        return ProtocolSpec(
            name=self.name,
            cache=self.cache.copy(),
            directory=self.directory.copy(),
            messages=self.messages.copy(),
            ordered_network=self.ordered_network,
            description=self.description,
        )

    # Convenience queries used throughout the generator ----------------------
    def forwarded_messages(self) -> list[str]:
        from repro.dsl.types import MessageClass

        return [m.name for m in self.messages.by_class(MessageClass.FORWARD)]

    def cache_arrival_states(self, forwarded_message: str) -> list[str]:
        """Stable cache states in which *forwarded_message* can arrive."""
        states = []
        for reaction in self.cache.reactions:
            if reaction.message == forwarded_message and reaction.state not in states:
                states.append(reaction.state)
        for transaction in self.cache.transactions:
            if transaction.initiator == forwarded_message and transaction.start_state not in states:
                states.append(transaction.start_state)
        return states
