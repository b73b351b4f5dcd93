"""Interconnection network models.

Two models are provided, matching the two system models discussed in the
paper:

* :class:`OrderedNetwork` -- point-to-point ordering: messages between the
  same (source, destination) pair are delivered in the order they were sent.
  This is the assumption made by the bundled MSI / MESI / MOSI protocols.
* :class:`UnorderedNetwork` -- no ordering at all: any in-flight message may
  be delivered next.  Used by the MSI variant of Section VI-C.

Both are immutable values of what is in flight: ``codec.decode`` builds
them out of a packed key and ``codec.encode`` lays them back out, while the
checker itself stores packed keys and splices their network sections in
bytes (:mod:`repro.system.kernel`).  Nothing here steps, relabels or
orders a network: the tests' reference system delivers and sends on these
values with its own network functions, and relabels and ranks them for the
canonical form (``tests/verification/reference_system.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.system.message import MESSAGE_ENCODED_WIDTH, Message, decode_message


class Network:
    """Interface shared by both network models."""

    @property
    def empty(self) -> bool:
        raise NotImplementedError

    @property
    def ordered(self) -> bool:
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

    @property
    def empty(self) -> bool:
        return not self.channels

    @property
    def ordered(self) -> bool:
        return True

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
    """A bag of in-flight messages; any of them may be delivered next.

    *messages* are in sorted order: the order of their encoded records."""

    messages: tuple[Message, ...] = ()

    @property
    def empty(self) -> bool:
        return not self.messages

    @property
    def ordered(self) -> bool:
        return False

    def encoded(self, mtype_index: dict[str, int]) -> tuple:
        """``(n_messages, then the message records in stored order)``.

        The stored order is sorted, records compared as their encodings
        (the order ``codec.decode`` reads them in), so the section is sorted
        under integer comparison.
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
