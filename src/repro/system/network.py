"""Interconnection network models.

Two models are provided, matching the two system models discussed in the
paper:

* :class:`OrderedNetwork` -- point-to-point ordering: messages between the
  same (source, destination) pair are delivered in the order they were sent.
  This is the assumption made by the bundled MSI / MESI / MOSI protocols.
* :class:`UnorderedNetwork` -- no ordering at all: any in-flight message may
  be delivered next.  Used by the MSI variant of Section VI-C.

Both are plain immutable values of what is in flight: ``codec.decode``
builds them out of a packed key and ``codec.encode`` lays them back out
(the section layout is :mod:`repro.system.codec`'s), while the checker
itself stores packed keys and splices their network sections in bytes
(:mod:`repro.system.kernel`).  Nothing here steps, relabels, orders or
builds a network: the tests' reference system delivers and sends on these
values with its own network functions, and relabels and ranks them for the
canonical form (``tests/verification/reference_system.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.system.message import Message


class Network:
    """What both network models share: :attr:`ordered`, whether delivery
    is FIFO per channel."""

    ordered: bool


@dataclass(frozen=True)
class OrderedNetwork(Network):
    """Per (source, destination, virtual network) FIFO channels.

    Within a virtual network, ordering is enforced across *all* message
    classes between a pair of nodes: forwards and responses share one
    channel, so (for example) an Invalidation is never overtaken by a later
    Put-Ack from the directory -- an ordering the textbook protocols rely on.
    Requests travel on their own virtual network so a controller that stalls
    a request never blocks a response queued behind it.  *channels* are
    sorted by channel key, none empty.
    """

    channels: tuple[tuple[tuple[int, int, int], tuple[Message, ...]], ...] = ()
    ordered = True


@dataclass(frozen=True)
class UnorderedNetwork(Network):
    """A bag of in-flight messages; any of them may be delivered next.

    *messages* are in sorted order: the order of their encoded records."""

    messages: tuple[Message, ...] = ()
    ordered = False
