"""Fluent builders for SSP specifications.

The bundled protocols in :mod:`repro.protocols` are written with these
builders; they read close to the paper's textual DSL (Listing 1) while staying
plain Python.  A typical cache-side snippet::

    cache = CacheSpecBuilder(initial="I")
    cache.state("I", Permission.NONE)
    cache.state("S", Permission.READ)
    cache.state("M", Permission.READ_WRITE)

    (cache.on_access("I", AccessKind.LOAD)
          .request("GetS")
          .await_stage("D")
          .when("Data", receives_data=True).complete("S")
          .done())
"""

from __future__ import annotations

from typing import Iterable

from repro.dsl.errors import SpecError
from repro.dsl.messages import MessageCatalog, MessageType
from repro.dsl.ssp import (
    AwaitStage,
    ControllerSpec,
    ProtocolSpec,
    Reaction,
    StateSpec,
    Transaction,
    Trigger,
)
from repro.dsl.types import (
    AccessKind,
    Action,
    ControllerKind,
    Dest,
    MessageClass,
    Permission,
    Send,
)


class _TransactionBuilder:
    """Builds one :class:`Transaction` via chained calls."""

    def __init__(self, parent: "_ControllerBuilder", start_state: str, initiator):
        self._parent = parent
        self._start_state = start_state
        self._initiator = initiator
        self._request: Send | None = None
        self._issue_actions: list[Action] = []
        self._stages: list[tuple[str, list[Trigger]]] = []
        self._final_state: str | None = None
        self._completion_actions: list[Action] = []

    # -- issuing -------------------------------------------------------------
    def request(self, message: str, *, with_data: bool = False) -> "_TransactionBuilder":
        """Issue *message* to the directory to start the transaction."""
        self._request = Send(message=message, to=Dest.DIRECTORY, with_data=with_data)
        return self

    def issue(self, *actions: Action) -> "_TransactionBuilder":
        """Add explicit actions performed when the transaction starts."""
        self._issue_actions.extend(actions)
        return self

    # -- waiting -------------------------------------------------------------
    def await_stage(self, name: str) -> "_TransactionBuilder":
        """Open a new waiting stage (becomes one transient state)."""
        if any(existing == name for existing, _ in self._stages):
            raise SpecError(f"duplicate stage name {name!r}")
        self._stages.append((name, []))
        return self

    def when(
        self,
        message: str,
        *,
        condition: str | None = None,
        receives_data: bool = False,
        latches_ack_count: bool = False,
        counts_ack: bool = False,
        actions: Iterable[Action] = (),
    ) -> "_TriggerBuilder":
        """Declare a trigger in the currently open stage."""
        if not self._stages:
            raise SpecError("when() called before await_stage()")
        return _TriggerBuilder(
            self,
            message=message,
            condition=condition,
            receives_data=receives_data,
            latches_ack_count=latches_ack_count,
            counts_ack=counts_ack,
            actions=tuple(actions),
        )

    def _add_trigger(self, trigger: Trigger) -> None:
        self._stages[-1][1].append(trigger)

    # -- completion ----------------------------------------------------------
    def completes_to(self, state: str, *actions: Action) -> "_TransactionBuilder":
        """Set the default final state (for silent / no-wait transactions)."""
        self._final_state = state
        self._completion_actions.extend(actions)
        return self

    def on_complete(self, *actions: Action) -> "_TransactionBuilder":
        self._completion_actions.extend(actions)
        return self

    def done(self) -> Transaction:
        """Finish and register the transaction with the controller builder."""
        final_state = self._final_state
        if final_state is None:
            final_state = self._infer_final_state()
        transaction = Transaction(
            start_state=self._start_state,
            initiator=self._initiator,
            final_state=final_state,
            request=self._request,
            issue_actions=tuple(self._issue_actions),
            stages=tuple(
                AwaitStage(name=name, triggers=tuple(triggers)) for name, triggers in self._stages
            ),
            completion_actions=tuple(self._completion_actions),
        )
        self._parent._register_transaction(transaction)
        return transaction

    def _infer_final_state(self) -> str:
        finals = {
            trigger.final_state
            for _, triggers in self._stages
            for trigger in triggers
            if trigger.completes and trigger.final_state is not None
        }
        if len(finals) == 1:
            return next(iter(finals))
        if not finals:
            raise SpecError(
                f"transaction from {self._start_state!r} has no final state; "
                "call completes_to() or give a final state to a completing trigger"
            )
        # Multiple completion states (e.g. MESI I->S or I->E): the transaction's
        # nominal final state is the one with the *least* permission, which is
        # the conservative choice for permission assignment.  Permission ties
        # (MESI's S/E are both read-only here) break toward the name sorting
        # last, matching the primer's IS_D naming — `finals` is a set, so an
        # unordered min() would leave the choice to hash randomization.
        parent_states = self._parent._states
        return min(sorted(finals, reverse=True),
                   key=lambda name: parent_states[name].permission)


class _TriggerBuilder:
    """Terminates a ``when(...)`` clause with ``complete()`` or ``goto_stage()``."""

    def __init__(self, transaction: _TransactionBuilder, **kwargs):
        self._transaction = transaction
        self._kwargs = kwargs

    def complete(self, final_state: str | None = None, *actions: Action) -> _TransactionBuilder:
        trigger = Trigger(
            message=self._kwargs["message"],
            condition=self._kwargs["condition"],
            next_stage=None,
            final_state=final_state,
            actions=self._kwargs["actions"] + tuple(actions),
            receives_data=self._kwargs["receives_data"],
            latches_ack_count=self._kwargs["latches_ack_count"],
            counts_ack=self._kwargs["counts_ack"],
        )
        self._transaction._add_trigger(trigger)
        return self._transaction

    def goto_stage(self, stage: str, *actions: Action) -> _TransactionBuilder:
        trigger = Trigger(
            message=self._kwargs["message"],
            condition=self._kwargs["condition"],
            next_stage=stage,
            final_state=None,
            actions=self._kwargs["actions"] + tuple(actions),
            receives_data=self._kwargs["receives_data"],
            latches_ack_count=self._kwargs["latches_ack_count"],
            counts_ack=self._kwargs["counts_ack"],
        )
        self._transaction._add_trigger(trigger)
        return self._transaction

    def stay(self, *actions: Action) -> _TransactionBuilder:
        """Trigger that is absorbed without advancing (e.g. an early Inv-Ack)."""
        current_stage = self._transaction._stages[-1][0]
        return self.goto_stage(current_stage, *actions)


class _ControllerBuilder:
    kind: ControllerKind

    def __init__(self, initial: str):
        self._states: dict[str, StateSpec] = {}
        self._initial = initial
        self._transactions: list[Transaction] = []
        self._reactions: list[Reaction] = []

    def state(
        self,
        name: str,
        permission: Permission = Permission.NONE,
        *,
        owner_view: str | None = None,
    ) -> "_ControllerBuilder":
        if name in self._states:
            raise SpecError(f"duplicate state {name!r}")
        self._states[name] = StateSpec(name=name, permission=permission, owner_view=owner_view)
        return self

    def _register_transaction(self, transaction: Transaction) -> None:
        self._check_state(transaction.start_state)
        self._check_state(transaction.final_state)
        self._transactions.append(transaction)

    def _check_state(self, name: str) -> None:
        if name not in self._states:
            raise SpecError(f"unknown state {name!r}")

    def react(
        self,
        state: str,
        message: str,
        next_state: str,
        *actions: Action,
        guard: str | None = None,
    ) -> "_ControllerBuilder":
        """Immediate reaction: handle *message* in *state*, go to *next_state*."""
        self._check_state(state)
        self._check_state(next_state)
        self._reactions.append(
            Reaction(state=state, message=message, next_state=next_state,
                     actions=tuple(actions), guard=guard)
        )
        return self

    def build(self) -> ControllerSpec:
        return ControllerSpec(
            kind=self.kind,
            states=dict(self._states),
            initial=self._initial,
            transactions=list(self._transactions),
            reactions=list(self._reactions),
        )


class CacheSpecBuilder(_ControllerBuilder):
    """Builder for the cache-controller SSP."""

    kind = ControllerKind.CACHE

    def on_access(self, state: str, access: AccessKind) -> _TransactionBuilder:
        self._check_state(state)
        return _TransactionBuilder(self, state, access)


class DirectorySpecBuilder(_ControllerBuilder):
    """Builder for the directory-controller SSP."""

    kind = ControllerKind.DIRECTORY

    def on_request(self, state: str, request: str) -> _TransactionBuilder:
        self._check_state(state)
        return _TransactionBuilder(self, state, request)


class ProtocolBuilder:
    """Assembles a full :class:`ProtocolSpec` (messages + cache + directory)."""

    def __init__(self, name: str, *, ordered_network: bool = True, description: str = ""):
        self.name = name
        self.ordered_network = ordered_network
        self.description = description
        self.messages = MessageCatalog()

    # -- message declarations -------------------------------------------------
    def request(self, name: str, **kwargs) -> MessageType:
        return self.messages.declare(name, MessageClass.REQUEST, **kwargs)

    def forward(self, name: str, **kwargs) -> MessageType:
        return self.messages.declare(name, MessageClass.FORWARD, **kwargs)

    def response(self, name: str, **kwargs) -> MessageType:
        return self.messages.declare(name, MessageClass.RESPONSE, **kwargs)

    # -- assembly --------------------------------------------------------------
    def build(self, cache: CacheSpecBuilder, directory: DirectorySpecBuilder) -> ProtocolSpec:
        return ProtocolSpec(
            name=self.name,
            cache=cache.build(),
            directory=directory.build(),
            messages=self.messages,
            ordered_network=self.ordered_network,
            description=self.description,
        )
