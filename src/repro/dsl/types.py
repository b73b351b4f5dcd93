"""Core enumerations and action vocabulary shared by the SSP layer, the
generator and the execution substrate.

The action vocabulary is deliberately small: it is the set of primitive
operations that appear in the textbook protocol tables (paper Tables I, II
and VI) -- "send Data to requestor and Dir", "add requestor to Sharers",
"set Owner = requestor", ack-counter bookkeeping, and the handful of
bookkeeping actions that the generator itself inserts (saving a requestor ID
for a deferred response, performing the pending core access when a
transaction completes, ...).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Permission(enum.IntEnum):
    """Coherence access permission carried by a controller state.

    The integer ordering is meaningful: ``NONE < READ < READ_WRITE``.
    """

    NONE = 0
    READ = 1
    READ_WRITE = 2

    def allows(self, access: "AccessKind") -> bool:
        """Return True if this permission level allows *access* to hit locally."""
        if access is AccessKind.LOAD:
            return self >= Permission.READ
        if access is AccessKind.STORE:
            return self >= Permission.READ_WRITE
        # A replacement never "hits"; it always needs a transaction (or is a
        # silent downgrade which the SSP expresses as a transaction with no
        # request message).
        return False


class AccessKind(enum.Enum):
    """Core-side accesses that can start a coherence transaction."""

    LOAD = "load"
    STORE = "store"
    REPLACEMENT = "replacement"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class ControllerKind(enum.Enum):
    """The two controller roles in a flat directory protocol."""

    CACHE = "cache"
    DIRECTORY = "directory"


class MessageClass(enum.Enum):
    """Coherence message classes; each class travels on its own virtual network.

    Keeping requests, forwarded requests and responses on separate virtual
    channels is the standard way directory protocols avoid protocol-level
    deadlock, and the paper assumes the user assigns messages to virtual
    channels (Section IV-C).
    """

    REQUEST = "request"
    FORWARD = "forward"
    RESPONSE = "response"


class Dest(enum.Enum):
    """Destination selectors used by :class:`Send` actions."""

    DIRECTORY = "directory"
    REQUESTOR = "requestor"
    OWNER = "owner"
    SHARERS = "sharers"
    SELF = "self"


# ---------------------------------------------------------------------------
# Action vocabulary
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Action:
    """Base class for all protocol actions (marker type)."""


@dataclass(frozen=True)
class Send(Action):
    """Send a coherence message.

    ``recipient_state`` is an optional annotation used only on directory
    actions that forward requests to a cache: it names the stable cache state
    the recipient is believed to be in.  The preprocessing step (Section V-A)
    uses it to rename forwarded requests so that each forwarded request type
    can arrive at exactly one stable cache state.
    """

    message: str
    to: Dest
    with_data: bool = False
    with_ack_count: bool = False
    recipient_state: str | None = None
    # Set by the generator for Case-2 deferred responses: the index of the
    # saved-requestor slot that holds the destination cache ID.
    requestor_slot: int | None = None
    # Set by the generator for Case-2 deferred responses whose *requestor
    # field* must name the cache the redirecting forward was sent for (not
    # the requestor of whatever message completes the own transaction): the
    # index of the saved-requestor slot holding that cache ID.  Needed when
    # the response travels to the directory, which reads the requestor to
    # answer / record the right cache (e.g. MOSI's owner-recall Data).
    requestor_from_slot: int | None = None

    def renamed(self, new_message: str) -> "Send":
        return Send(
            message=new_message,
            to=self.to,
            with_data=self.with_data,
            with_ack_count=self.with_ack_count,
            recipient_state=self.recipient_state,
            requestor_slot=self.requestor_slot,
            requestor_from_slot=self.requestor_from_slot,
        )


@dataclass(frozen=True)
class SetOwnerToRequestor(Action):
    """Directory: record the requestor as the new owner of the block."""


@dataclass(frozen=True)
class ClearOwner(Action):
    """Directory: forget the owner."""


@dataclass(frozen=True)
class AddRequestorToSharers(Action):
    """Directory: add the requestor to the sharer list."""


@dataclass(frozen=True)
class AddOwnerToSharers(Action):
    """Directory: add the (previous) owner to the sharer list."""


@dataclass(frozen=True)
class RemoveRequestorFromSharers(Action):
    """Directory: remove the requestor from the sharer list."""


@dataclass(frozen=True)
class ClearSharers(Action):
    """Directory: empty the sharer list."""


@dataclass(frozen=True)
class CopyDataFromMessage(Action):
    """Store the data carried by the incoming message into the local copy."""


@dataclass(frozen=True)
class WriteDataToMemory(Action):
    """Directory/LLC: write the data carried by the incoming message back to memory."""


@dataclass(frozen=True)
class InvalidateData(Action):
    """Cache: drop the local copy of the data."""


@dataclass(frozen=True)
class SetAcksExpectedFromMessage(Action):
    """Cache: latch the acknowledgment count carried by a Data response."""


@dataclass(frozen=True)
class IncrementAcksReceived(Action):
    """Cache: count one incoming invalidation acknowledgment."""


@dataclass(frozen=True)
class ResetAckCounters(Action):
    """Cache: reset both ack counters at the start of a transaction."""


@dataclass(frozen=True)
class SaveRequestor(Action):
    """Generator-inserted: remember the requestor of a later-ordered forwarded
    request so a deferred response can be sent when the own transaction
    completes.  ``slot`` distinguishes multiple pending requestors."""

    slot: int = 0


@dataclass(frozen=True)
class PerformAccess(Action):
    """Generator-inserted: perform the core access that started the own
    transaction.  For protocols that allow the single access after an
    invalidation (the classic livelock fix, Section VI-B), this action is what
    performs the load/store even though the epoch has logically ended."""


@dataclass(frozen=True)
class StallMarker(Action):
    """Placeholder action used in rendered tables for stalled events."""


def is_data_send(action: Action) -> bool:
    """True if *action* sends a message whose contents depend on the block data."""
    return isinstance(action, Send) and action.with_data


def describe_action(action: Action) -> str:
    """Human-readable one-line description, used by the table backend."""
    if isinstance(action, Send):
        parts = [f"send {action.message}"]
        if action.with_data:
            parts.append("+Data")
        if action.with_ack_count:
            parts.append("+AckCount")
        dest = action.to.value
        if action.requestor_slot is not None:
            dest = f"saved requestor[{action.requestor_slot}]"
        parts.append(f"to {dest}")
        if action.requestor_from_slot is not None:
            parts.append(f"as saved requestor[{action.requestor_from_slot}]")
        return " ".join(parts)
    if isinstance(action, SetOwnerToRequestor):
        return "Owner := requestor"
    if isinstance(action, ClearOwner):
        return "Owner := none"
    if isinstance(action, AddRequestorToSharers):
        return "Sharers += requestor"
    if isinstance(action, AddOwnerToSharers):
        return "Sharers += owner"
    if isinstance(action, RemoveRequestorFromSharers):
        return "Sharers -= requestor"
    if isinstance(action, ClearSharers):
        return "Sharers := {}"
    if isinstance(action, CopyDataFromMessage):
        return "copy data from message"
    if isinstance(action, WriteDataToMemory):
        return "write data to memory"
    if isinstance(action, InvalidateData):
        return "invalidate data"
    if isinstance(action, SetAcksExpectedFromMessage):
        return "acksExpected := msg.ackCount"
    if isinstance(action, IncrementAcksReceived):
        return "acksReceived += 1"
    if isinstance(action, ResetAckCounters):
        return "reset ack counters"
    if isinstance(action, SaveRequestor):
        return f"save requestor [{action.slot}]"
    if isinstance(action, PerformAccess):
        return "perform pending access"
    if isinstance(action, StallMarker):
        return "stall"
    return repr(action)
