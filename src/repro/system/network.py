"""Interconnection network models.

Two models are provided, matching the two system models discussed in the
paper:

* :class:`OrderedNetwork` -- point-to-point ordering: messages between the
  same (source, destination) pair are delivered in the order they were sent.
  This is the assumption made by the bundled MSI / MESI / MOSI protocols.
* :class:`UnorderedNetwork` -- no ordering at all: any in-flight message may
  be delivered next.  Used by the MSI variant of Section VI-C.

Both networks are immutable value objects: ``send`` and ``deliver`` return
new network instances, so the model checker can hash and store them as part
of a global state snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.system.message import (
    MESSAGE_ENCODED_WIDTH,
    Message,
    decode_message,
    message_sort_key,
)


class Network:
    """Interface shared by both network models."""

    def send(self, *messages: Message) -> "Network":
        raise NotImplementedError

    def deliverable(self) -> tuple[Message, ...]:
        """Messages that may be delivered next (one per ordered channel, or
        every in-flight message for the unordered network)."""
        raise NotImplementedError

    def deliver(self, message: Message) -> "Network":
        """Remove *message* (which must be deliverable) and return the new network."""
        raise NotImplementedError

    def deliver_at(self, message: Message, position: int) -> "Network":
        """Remove *message* from *position* in its channel (re-queue
        semantics: a stalled channel head is bypassed, so deliveries may
        target a message behind it).  Ordered networks only -- the unordered
        bag has no positions to bypass."""
        raise ValueError("positional delivery applies to ordered networks only")

    def duplicate(self, message: Message) -> "Network":
        """Fault injection: add an extra copy of *message* (which must be
        deliverable) and return the new network."""
        raise NotImplementedError

    def reorderable(self) -> tuple[tuple[int, int, int, int], ...]:
        """Fault injection: the ``(src, dst, vnet, position)`` swaps that
        change the network (adjacent differing messages in one FIFO).  Empty
        for unordered networks -- the bag already admits every order."""
        return ()

    def reorder(self, src: int, dst: int, vnet: int, position: int) -> "Network":
        """Fault injection: swap the messages at ``position`` and
        ``position + 1`` in the ``(src, dst, vnet)`` channel."""
        raise ValueError("reorder faults apply to ordered networks only")

    @property
    def empty(self) -> bool:
        raise NotImplementedError

    def in_flight(self) -> tuple[Message, ...]:
        raise NotImplementedError

    @property
    def ordered(self) -> bool:
        raise NotImplementedError

    def relabeled(self, perm: tuple[int, ...]) -> "Network":
        """Return this network with every cache ID remapped through *perm*."""
        raise NotImplementedError

    def sort_key(self) -> tuple:
        """Total-order key over networks (symmetry-canonicalization hook)."""
        raise NotImplementedError

    def encoded(self, mtype_index: dict[str, int]) -> tuple:
        """Flat variable-length int section (codec hook; see
        :mod:`repro.system.codec` for the layout and its invariants)."""
        raise NotImplementedError


@dataclass(frozen=True)
class OrderedNetwork(Network):
    """Per (source, destination, virtual network) FIFO channels.

    Within a virtual network, ordering is enforced across *all* message
    classes between a pair of nodes: forwards and responses share one
    channel, so (for example) an Invalidation is never overtaken by a later
    Put-Ack from the directory -- an ordering the textbook protocols rely on.
    Requests travel on their own virtual network so a controller that stalls
    a request never blocks a response queued behind it.
    """

    channels: tuple[tuple[tuple[int, int, int], tuple[Message, ...]], ...] = ()

    def _as_dict(self) -> dict[tuple[int, int, int], tuple[Message, ...]]:
        return {key: msgs for key, msgs in self.channels}

    @staticmethod
    def _from_dict(
        channels: dict[tuple[int, int, int], tuple[Message, ...]]
    ) -> "OrderedNetwork":
        non_empty = {key: msgs for key, msgs in channels.items() if msgs}
        return OrderedNetwork(channels=tuple(sorted(non_empty.items())))

    def send(self, *messages: Message) -> "OrderedNetwork":
        channels = self._as_dict()
        for message in messages:
            key = (message.src, message.dst, message.vnet)
            channels[key] = channels.get(key, ()) + (message,)
        return self._from_dict(channels)

    def deliverable(self) -> tuple[Message, ...]:
        return tuple(msgs[0] for _, msgs in self.channels if msgs)

    def deliver(self, message: Message) -> "OrderedNetwork":
        channels = self._as_dict()
        key = (message.src, message.dst, message.vnet)
        queue = channels.get(key, ())
        if not queue or queue[0] != message:
            raise ValueError(f"message {message} is not at the head of its channel")
        channels[key] = queue[1:]
        return self._from_dict(channels)

    def deliver_at(self, message: Message, position: int) -> "OrderedNetwork":
        channels = self._as_dict()
        key = (message.src, message.dst, message.vnet)
        queue = channels.get(key, ())
        if not (0 <= position < len(queue)) or queue[position] != message:
            raise ValueError(
                f"message {message} is not at position {position} of its channel"
            )
        channels[key] = queue[:position] + queue[position + 1 :]
        return self._from_dict(channels)

    def duplicate(self, message: Message) -> "OrderedNetwork":
        channels = self._as_dict()
        key = (message.src, message.dst, message.vnet)
        queue = channels.get(key, ())
        if not queue or queue[0] != message:
            raise ValueError(f"message {message} is not at the head of its channel")
        channels[key] = (message,) + queue
        return self._from_dict(channels)

    def reorderable(self) -> tuple[tuple[int, int, int, int], ...]:
        swaps = []
        for (src, dst, vnet), msgs in self.channels:
            for pos in range(len(msgs) - 1):
                if msgs[pos] != msgs[pos + 1]:
                    swaps.append((src, dst, vnet, pos))
        return tuple(swaps)

    def reorder(self, src: int, dst: int, vnet: int, position: int) -> "OrderedNetwork":
        channels = self._as_dict()
        key = (src, dst, vnet)
        queue = channels.get(key, ())
        if not 0 <= position < len(queue) - 1:
            raise ValueError(
                f"no adjacent pair at position {position} in channel {key}"
            )
        msgs = list(queue)
        msgs[position], msgs[position + 1] = msgs[position + 1], msgs[position]
        channels[key] = tuple(msgs)
        return self._from_dict(channels)

    @property
    def empty(self) -> bool:
        return not self.channels

    def in_flight(self) -> tuple[Message, ...]:
        return tuple(m for _, msgs in self.channels for m in msgs)

    @property
    def ordered(self) -> bool:
        return True

    def relabeled(self, perm: tuple[int, ...]) -> "OrderedNetwork":
        channels: dict[tuple[int, int, int], tuple[Message, ...]] = {}
        for (src, dst, vnet), msgs in self.channels:
            key = (
                src if src < 0 else perm[src],
                dst if dst < 0 else perm[dst],
                vnet,
            )
            channels[key] = tuple(m.relabeled(perm) for m in msgs)
        return self._from_dict(channels)

    def sort_key(self) -> tuple:
        return tuple(
            (key, tuple(message_sort_key(m) for m in msgs))
            for key, msgs in self.channels
        )

    def encoded(self, mtype_index: dict[str, int]) -> tuple:
        """``(n_channels, then per channel: src+2, dst+2, vnet, count, msgs...)``.

        Channels appear in their stored order (sorted by raw channel key,
        which the +2 shift preserves); messages keep their FIFO order within
        a channel.
        """
        out = [len(self.channels)]
        for (src, dst, vnet), msgs in self.channels:
            out.extend((src + 2, dst + 2, vnet, len(msgs)))
            for m in msgs:
                out.extend(m.encoded(mtype_index))
        return tuple(out)

    @staticmethod
    def from_encoded(fields: tuple, offset: int, mtypes: tuple[str, ...]) -> "OrderedNetwork":
        """Inverse of :meth:`encoded`, reading from ``fields[offset:]``."""
        channels = []
        pos = offset + 1
        for _ in range(fields[offset]):
            src, dst, vnet, count = fields[pos : pos + 4]
            pos += 4
            msgs = []
            for _ in range(count):
                msgs.append(decode_message(fields[pos : pos + MESSAGE_ENCODED_WIDTH], mtypes))
                pos += MESSAGE_ENCODED_WIDTH
            channels.append(((src - 2, dst - 2, vnet), tuple(msgs)))
        return OrderedNetwork(channels=tuple(channels))


@dataclass(frozen=True)
class UnorderedNetwork(Network):
    """A bag of in-flight messages; any of them may be delivered next."""

    messages: tuple[Message, ...] = ()

    def send(self, *new_messages: Message) -> "UnorderedNetwork":
        return UnorderedNetwork(
            messages=tuple(
                sorted(self.messages + tuple(new_messages), key=message_sort_key)
            )
        )

    def deliverable(self) -> tuple[Message, ...]:
        # Deduplicate identical messages: delivering either copy leads to the
        # same successor state.
        seen: list[Message] = []
        for message in self.messages:
            if message not in seen:
                seen.append(message)
        return tuple(seen)

    def deliver(self, message: Message) -> "UnorderedNetwork":
        messages = list(self.messages)
        try:
            messages.remove(message)
        except ValueError:
            raise ValueError(f"message {message} is not in flight") from None
        return UnorderedNetwork(messages=tuple(messages))

    def duplicate(self, message: Message) -> "UnorderedNetwork":
        if message not in self.messages:
            raise ValueError(f"message {message} is not in flight")
        return self.send(message)

    @property
    def empty(self) -> bool:
        return not self.messages

    def in_flight(self) -> tuple[Message, ...]:
        return self.messages

    @property
    def ordered(self) -> bool:
        return False

    def relabeled(self, perm: tuple[int, ...]) -> "UnorderedNetwork":
        return UnorderedNetwork(
            messages=tuple(
                sorted((m.relabeled(perm) for m in self.messages), key=message_sort_key)
            )
        )

    def sort_key(self) -> tuple:
        return tuple(message_sort_key(m) for m in self.messages)

    def encoded(self, mtype_index: dict[str, int]) -> tuple:
        """``(n_messages, then the message records in stored order)``.

        The stored order is already sorted by :func:`message_sort_key`, and
        encoded records are order-isomorphic to that key, so the section is
        sorted under integer comparison too.
        """
        out = [len(self.messages)]
        for m in self.messages:
            out.extend(m.encoded(mtype_index))
        return tuple(out)

    @staticmethod
    def from_encoded(fields: tuple, offset: int, mtypes: tuple[str, ...]) -> "UnorderedNetwork":
        """Inverse of :meth:`encoded`, reading from ``fields[offset:]``."""
        messages = []
        pos = offset + 1
        for _ in range(fields[offset]):
            messages.append(decode_message(fields[pos : pos + MESSAGE_ENCODED_WIDTH], mtypes))
            pos += MESSAGE_ENCODED_WIDTH
        return UnorderedNetwork(messages=tuple(messages))


def make_network(ordered: bool) -> Network:
    """Create an empty network of the requested kind."""
    return OrderedNetwork() if ordered else UnorderedNetwork()
