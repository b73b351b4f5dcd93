"""Concrete in-flight coherence messages: plain data, the decoded value of
a message record (the record's layout is :mod:`repro.system.codec`'s)."""

from __future__ import annotations

from dataclasses import dataclass

#: Node id of the directory / LLC in the system model.
DIRECTORY_ID = -1


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
