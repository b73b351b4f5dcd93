"""Message type declarations and the per-protocol message catalog."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Iterator

from repro.dsl.errors import SpecError
from repro.dsl.types import MessageClass


@dataclass(frozen=True)
class MessageType:
    """Declaration of a coherence message type.

    Attributes
    ----------
    name:
        Unique message name, e.g. ``"GetM"`` or ``"Fwd_GetS"``.
    message_class:
        REQUEST (cache -> directory), FORWARD (directory -> cache) or
        RESPONSE (data / acknowledgments, any direction).
    carries_data:
        True if the message carries a copy of the cache block.
    carries_ack_count:
        True if the message carries an acknowledgment count (e.g. the Data
        response for a GetM that must also collect invalidation acks).
    renamed_from:
        For messages created by the preprocessing step, the original name in
        the input SSP.  ``None`` for user-declared messages.
    """

    name: str
    message_class: MessageClass
    carries_data: bool = False
    carries_ack_count: bool = False
    renamed_from: str | None = None

    def rename(self, new_name: str) -> "MessageType":
        return replace(self, name=new_name, renamed_from=self.name)


class MessageCatalog:
    """The set of message types used by a protocol.

    The catalog behaves like a read-mostly mapping from name to
    :class:`MessageType`.  The preprocessing step adds renamed forwarded
    requests to it.
    """

    def __init__(self, messages: Iterable[MessageType] = ()) -> None:
        self._messages: dict[str, MessageType] = {}
        for message in messages:
            self.add(message)

    # -- container protocol -------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._messages

    def __getitem__(self, name: str) -> MessageType:
        try:
            return self._messages[name]
        except KeyError:
            raise SpecError(f"unknown message type {name!r}") from None

    def __iter__(self) -> Iterator[MessageType]:
        return iter(self._messages.values())

    # -- mutation ------------------------------------------------------------
    def add(self, message: MessageType) -> MessageType:
        if message.name in self._messages:
            raise SpecError(f"duplicate message type {message.name!r}")
        self._messages[message.name] = message
        return message

    def declare(
        self,
        name: str,
        message_class: MessageClass,
        *,
        carries_data: bool = False,
        carries_ack_count: bool = False,
    ) -> MessageType:
        """Declare and register a new message type."""
        return self.add(
            MessageType(
                name=name,
                message_class=message_class,
                carries_data=carries_data,
                carries_ack_count=carries_ack_count,
            )
        )

    def derive_renamed(self, original: str, new_name: str) -> MessageType:
        """Register a renamed copy of *original* (used by preprocessing)."""
        base = self[original]
        if new_name in self._messages:
            return self._messages[new_name]
        renamed = base.rename(new_name)
        self._messages[new_name] = renamed
        return renamed

    # -- queries -------------------------------------------------------------
    def by_class(self, message_class: MessageClass) -> list[MessageType]:
        return [m for m in self._messages.values() if m.message_class is message_class]

    @property
    def requests(self) -> list[MessageType]:
        return self.by_class(MessageClass.REQUEST)

    @property
    def responses(self) -> list[MessageType]:
        return self.by_class(MessageClass.RESPONSE)

    def names(self) -> list[str]:
        return list(self._messages)

    def copy(self) -> "MessageCatalog":
        return MessageCatalog(self._messages.values())
