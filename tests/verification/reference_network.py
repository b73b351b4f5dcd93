"""The tests' lane-level network emitter: an oracle for the kernel's byte
splices.

:func:`emit_net` rebuilds one successor network section from the parent's
lanes -- a sorted merge of the surviving channels (or records) and the
sends -- where the kernel (:mod:`repro.system.kernel`) edits the parent's
packed bytes in place.  ``test_kernel.py`` holds both to the object
network (``Network.deliver`` / ``send`` + ``encoded()``), and
``test_vectorized.py`` holds the batch kernel's array splice to this.
"""

from repro.system.message import MESSAGE_ENCODED_WIDTH


def emit_net(
    ordered: bool, out: list, enc: tuple, net: tuple, where: int | None,
    sends: list, no: int, end: int, pos: int = 0,
) -> None:
    """Append the successor network section to *out*: the parent's section
    minus the delivered message (record *pos* of channel *where* when
    *ordered* -- non-zero only under re-queue order -- or record index
    *where* of the bag) plus *sends*, re-normalized exactly like
    ``Network.deliver`` + ``Network.send``.

    The parent section is already normalized (channels sorted, FIFO order
    inside each), so the successor is a sorted merge with at most a couple
    of touched channels, built from *enc* slices: every untouched channel
    is one slice copy through the channel offsets of *net* (the codec's
    parse handle).  *no*/*end* bound the section's lanes in *enc* (*net*'s
    offsets are relative to *no*).
    """
    if not sends and where is None:
        out.extend(enc[no:end])
        return
    items, offsets = net[0], net[1]
    mw = MESSAGE_ENCODED_WIDTH
    if not ordered:
        if not sends:
            at = no + 1 + where * mw
            out.append(enc[no] - 1)
            out.extend(enc[no + 1 : at])
            out.extend(enc[at + mw : end])
            return
        msgs = [m for i, m in enumerate(items) if i != where]
        msgs.extend(sends)
        msgs.sort()
        out.append(len(msgs))
        for m in msgs:
            out.extend(m)
        return
    if not sends:
        # Drop record `pos` of channel `where` by lane splicing alone.
        at = no + offsets[where]
        nmsgs = enc[at + 3]
        if nmsgs == 1:
            out.append(enc[no] - 1)
            out.extend(enc[no + 1 : at])
            out.extend(enc[at + 4 + mw : end])
            return
        rec0 = at + 4 + pos * mw
        out.append(enc[no])
        out.extend(enc[no + 1 : at + 3])
        out.append(nmsgs - 1)
        out.extend(enc[at + 4 : rec0])
        out.extend(enc[rec0 + mw : end])
        return
    send_map: dict = {}
    for m in sends:
        key = (m[1], m[2], m[3])
        queue = send_map.get(key)
        if queue is None:
            send_map[key] = [m]
        else:
            queue.append(m)
    emptied = where is not None and len(items[where][3]) == 1
    pending = []
    for key in send_map:
        for idx, item in enumerate(items):
            if (
                item[0] == key[0]
                and item[1] == key[1]
                and item[2] == key[2]
                and not (emptied and idx == where)
            ):
                break
        else:
            pending.append(key)
    pending.sort()
    flush_at = len(pending)
    out.append(len(items) - (1 if emptied else 0) + flush_at)
    flushed = 0
    for idx, item in enumerate(items):
        if flushed < flush_at:
            key = item[:3]
            while flushed < flush_at and pending[flushed] < key:
                fresh = pending[flushed]
                queue = send_map[fresh]
                out.extend(fresh)
                out.append(len(queue))
                for m in queue:
                    out.extend(m)
                flushed += 1
        if idx == where and emptied:
            # Removed; if a send re-opens this key the merge above (or
            # the tail flush) emits it at the same sorted position.
            continue
        extra = send_map.get(item[:3])
        if extra is None:
            if idx != where:
                out.extend(enc[no + offsets[idx] : no + offsets[idx + 1]])
                continue
            msgs = item[3][:pos] + item[3][pos + 1 :]
        elif idx == where:
            msgs = item[3][:pos] + item[3][pos + 1 :] + tuple(extra)
        else:
            msgs = item[3] + tuple(extra)
        out.extend((item[0], item[1], item[2], len(msgs)))
        for m in msgs:
            out.extend(m)
    while flushed < flush_at:
        fresh = pending[flushed]
        queue = send_map[fresh]
        out.extend(fresh)
        out.append(len(queue))
        for m in queue:
            out.extend(m)
        flushed += 1

