"""Concrete in-flight coherence messages: the decoded value of a message
record, its 10-int encoding and the relabel of an encoded record."""

from __future__ import annotations

from dataclasses import dataclass

#: Node id of the directory / LLC in the system model.
DIRECTORY_ID = -1

#: Number of integers in one encoded message record (see :meth:`Message.encoded`).
MESSAGE_ENCODED_WIDTH = 10


def decode_message(fields: tuple, mtypes: tuple[str, ...]) -> "Message":
    """Inverse of :meth:`Message.encoded` (*fields* is one 10-int record)."""

    def pair(flag: int, value: int) -> int | None:
        return None if flag == 0 else value - 2

    return Message(
        mtype=mtypes[fields[0]],
        src=fields[1] - 2,
        dst=fields[2] - 2,
        vnet=fields[3],
        requestor=pair(fields[4], fields[5]),
        data=pair(fields[6], fields[7]),
        ack_count=pair(fields[8], fields[9]),
    )


def translate_encoded_message(fields: tuple, table: tuple[int, ...]) -> tuple:
    """The encoded record *fields* with its cache IDs remapped through a
    permutation, via that permutation's precomputed +2-shift table.

    *table* maps every encoded node-ID lane value to its relabeled value
    (``table[0] = 0`` for the absent-requestor placeholder, ``table[1] = 1``
    for the directory, ``table[v] = perm[v - 2] + 2`` for caches — see
    :meth:`repro.system.codec.StateCodec.perm_tables`), so relabeling a
    record is three lookups.
    """
    return (
        fields[0],
        table[fields[1]],
        table[fields[2]],
        fields[3],
        fields[4],
        table[fields[5]],
        *fields[6:],
    )


@dataclass(frozen=True)
class Message:
    """One coherence message in flight.

    ``data`` carries the ghost *version number* of the block (the substrate
    models data values as monotonically increasing versions, which is enough
    to check the data-value invariant).  ``requestor`` identifies the cache on
    whose behalf the message was sent: for requests it equals ``src``; for
    forwarded requests it is the cache that sent the original request, so the
    receiving cache knows where to send its response.
    """

    mtype: str
    src: int
    dst: int
    requestor: int | None = None
    data: int | None = None
    ack_count: int | None = None
    #: Virtual network: 0 for requests, 1 for forwards and responses.  The
    #: ordered interconnect keeps per-pair FIFO order *within* a virtual
    #: network; requests travel separately so a directory that stalls a
    #: request never blocks the response it is waiting for behind it.
    vnet: int = 1

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        def node(i: int | None) -> str:
            if i is None:
                return "?"
            return "Dir" if i == DIRECTORY_ID else f"C{i}"

        extra = []
        if self.requestor is not None:
            extra.append(f"req={node(self.requestor)}")
        if self.data is not None:
            extra.append(f"v{self.data}")
        if self.ack_count is not None:
            extra.append(f"acks={self.ack_count}")
        suffix = f" ({', '.join(extra)})" if extra else ""
        return f"{self.mtype} {node(self.src)}->{node(self.dst)}{suffix}"

    def encoded(self, mtype_index: dict[str, int]) -> tuple:
        """Flat 10-int record, in the order that defines message order.

        Fields are ``(mtype, src, dst, vnet, requestor, data, ack_count)``
        position by position: the message type becomes its index in the
        *sorted* type catalog (so integer order matches string order), node
        IDs are shifted by +2 (the directory's ``-1`` stays representable
        and ordering is preserved), and each optional field becomes a
        ``(flag, value)`` pair, so ``None`` sorts below every value.
        Comparing two encoded records therefore compares the two messages
        field by field -- the order a bag is kept in and the encoded
        canonicalization ranks by (the tests' object-level sort key states
        it on messages).
        """

        def pair(value: int | None) -> tuple[int, int]:
            return (0, 0) if value is None else (1, value + 2)

        return (
            mtype_index[self.mtype],
            self.src + 2,
            self.dst + 2,
            self.vnet,
            *pair(self.requestor),
            *pair(self.data),
            *pair(self.ack_count),
        )
