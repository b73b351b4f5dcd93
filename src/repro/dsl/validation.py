"""Atomic-model validation of SSP specifications.

ProtoGen requires a *correct and complete* SSP as input (paper Section IV-C):
it refines the atomic specification, it does not repair it.  The checks here
catch the structural mistakes that would otherwise surface as confusing
generation errors or model-checking counterexamples much later:

* every state, message and stage referenced actually exists;
* every message a transaction awaits is declared as a RESPONSE (or FORWARD,
  for directory transactions awaiting data from an owner);
* the permission structure of the stable states is consistent with SWMR under
  the atomic model (at most one controller-visible writer state chain);
* forwarded requests are only sent by the directory and requests only by
  caches;
* every cache access in every stable state is either a hit (permission
  allows it) or starts a transaction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dsl.errors import ValidationError
from repro.dsl.messages import MessageCatalog
from repro.dsl.ssp import ControllerSpec, ProtocolSpec, Transaction
from repro.dsl.types import AccessKind, MessageClass, Permission, Send


@dataclass
class ValidationReport:
    """Outcome of validating an SSP."""

    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def error(self, message: str) -> None:
        self.errors.append(message)

    def warn(self, message: str) -> None:
        self.warnings.append(message)

    def raise_if_failed(self) -> None:
        if self.errors:
            raise ValidationError(
                "SSP validation failed:\n" + "\n".join(f"  - {e}" for e in self.errors)
            )


def validate_protocol(spec: ProtocolSpec, *, strict: bool = True) -> ValidationReport:
    """Validate *spec*; raise :class:`ValidationError` if *strict* and invalid."""
    report = ValidationReport()
    _validate_messages(spec, report)
    _validate_controller(spec.cache, spec.messages, report)
    _validate_controller(spec.directory, spec.messages, report)
    _validate_cache_accesses(spec, report)
    _validate_message_directions(spec, report)
    _validate_permissions(spec, report)
    if strict:
        report.raise_if_failed()
    return report


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------


def _validate_messages(spec: ProtocolSpec, report: ValidationReport) -> None:
    if not spec.messages.requests:
        report.error("protocol declares no request messages")
    if not spec.messages.responses:
        report.error("protocol declares no response messages")


def _iter_sends(transaction: Transaction):
    for action in transaction.all_actions():
        if isinstance(action, Send):
            yield action


def _validate_controller(
    controller: ControllerSpec, messages: MessageCatalog, report: ValidationReport
) -> None:
    kind = controller.kind.value
    for transaction in controller.transactions:
        if transaction.start_state not in controller.states:
            report.error(f"{kind}: transaction starts in unknown state {transaction.start_state!r}")
        if transaction.final_state not in controller.states:
            report.error(f"{kind}: transaction ends in unknown state {transaction.final_state!r}")
        for send in _iter_sends(transaction):
            if send.message not in messages:
                report.error(f"{kind}: transaction sends undeclared message {send.message!r}")
        for stage in transaction.stages:
            for trigger in stage.triggers:
                if trigger.message not in messages:
                    report.error(
                        f"{kind}: stage {stage.name!r} awaits undeclared message "
                        f"{trigger.message!r}"
                    )
                if trigger.final_state is not None and trigger.final_state not in controller.states:
                    report.error(
                        f"{kind}: trigger {trigger.message!r} completes to unknown state "
                        f"{trigger.final_state!r}"
                    )
    for reaction in controller.reactions:
        if reaction.state not in controller.states:
            report.error(f"{kind}: reaction in unknown state {reaction.state!r}")
        if reaction.next_state not in controller.states:
            report.error(f"{kind}: reaction goes to unknown state {reaction.next_state!r}")
        if reaction.message not in messages:
            report.error(f"{kind}: reaction handles undeclared message {reaction.message!r}")
        for action in reaction.actions:
            if isinstance(action, Send) and action.message not in messages:
                report.error(f"{kind}: reaction sends undeclared message {action.message!r}")


def _validate_cache_accesses(spec: ProtocolSpec, report: ValidationReport) -> None:
    cache = spec.cache
    for state in cache.states.values():
        for access in (AccessKind.LOAD, AccessKind.STORE):
            hits = state.permission.allows(access)
            starts = cache.transaction_for(state.name, access) is not None
            if not hits and not starts:
                report.warn(
                    f"cache: {access} in state {state.name} neither hits nor starts a "
                    "transaction; the generated controller will treat it as impossible"
                )


def _validate_message_directions(spec: ProtocolSpec, report: ValidationReport) -> None:
    # Requests are issued by caches; forwarded requests are issued only by the
    # directory.  This is what lets caches use forwarded requests to deduce
    # serialization order, so we enforce it.
    for transaction in spec.cache.transactions:
        for send in _iter_sends(transaction):
            if send.message in spec.messages and \
                    spec.messages[send.message].message_class is MessageClass.FORWARD:
                report.error(
                    f"cache: transaction from {transaction.start_state!r} sends forwarded "
                    f"request {send.message!r}; only the directory may send forwards"
                )
    for reaction in spec.cache.reactions:
        for action in reaction.actions:
            if isinstance(action, Send) and action.message in spec.messages and \
                    spec.messages[action.message].message_class is MessageClass.FORWARD:
                report.error(
                    f"cache: reaction in {reaction.state!r} sends forwarded request "
                    f"{action.message!r}; only the directory may send forwards"
                )
    for transaction in spec.directory.transactions:
        for send in _iter_sends(transaction):
            if send.message in spec.messages and \
                    spec.messages[send.message].message_class is MessageClass.REQUEST:
                report.error(
                    f"directory: transaction in {transaction.start_state!r} issues request "
                    f"{send.message!r}; only caches may issue requests"
                )
    for reaction in spec.directory.reactions:
        for action in reaction.actions:
            if isinstance(action, Send) and action.message in spec.messages and \
                    spec.messages[action.message].message_class is MessageClass.REQUEST:
                report.error(
                    f"directory: reaction in {reaction.state!r} issues request "
                    f"{action.message!r}; only caches may issue requests"
                )


def _validate_permissions(spec: ProtocolSpec, report: ValidationReport) -> None:
    cache = spec.cache
    writable = [s.name for s in cache.states.values() if s.permission is Permission.READ_WRITE]
    if not writable:
        report.warn("cache: no stable state grants write permission (read-only protocol?)")
    # The directory must have a state from which it can supply data for the
    # very first request (the initial state).
    directory = spec.directory
    initial = directory.initial
    handled_in_initial = directory.messages_handled_in(initial)
    get_like = [m.name for m in spec.messages.requests if not m.name.lower().startswith("put")]
    missing = [m for m in get_like if m not in handled_in_initial]
    if missing:
        report.warn(
            f"directory: initial state {initial!r} does not handle request(s) {missing}; "
            "those requests can never be satisfied from an uncached block"
        )
