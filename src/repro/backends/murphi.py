"""Murphi backend: a listing of the generated tables in Murphi syntax.

The paper verifies its generated protocols with the Murphi model checker; the
original ProtoGen implementation has a Murphi backend.  This module emits a
``.m`` listing of the generated protocol: constant and type declarations,
per-node state records, the network, and one rule per generated transition,
laid out like the classic Murphi coherence models (the ones distributed with
the primer).  It is a listing, not a model a Murphi compiler accepts: the
``Value`` and ``Node`` types and the ``Send`` procedure are used but never
declared, and the rules' binders (``c``, ``msg``, ``access``) are never
bound by a ``ruleset``.  Within this repository the *internal* model checker
(:mod:`repro.verification`) plays Murphi's role, and the tests only check
that the listing is well-formed and complete (every state, message and
transition appears).
"""

from __future__ import annotations

from repro.core.fsm import (
    AccessEvent,
    ControllerFsm,
    FsmTransition,
    GeneratedProtocol,
    MessageEvent,
)
from repro.dsl.types import (
    AccessKind,
    Action,
    AddOwnerToSharers,
    AddRequestorToSharers,
    ClearOwner,
    ClearSharers,
    CopyDataFromMessage,
    Dest,
    IncrementAcksReceived,
    PerformAccess,
    ResetAckCounters,
    SaveRequestor,
    Send,
    SetAcksExpectedFromMessage,
    SetOwnerToRequestor,
    RemoveRequestorFromSharers,
)


def _sanitize(name: str) -> str:
    return name.replace("-", "_").replace(" ", "_")


def _state_const(prefix: str, state: str) -> str:
    return f"{prefix}_{_sanitize(state)}"


def _emit_action(action: Action, *, cache_side: bool) -> list[str]:
    node = "cache[c]" if cache_side else "dir"
    if isinstance(action, Send):
        dest = {
            Dest.DIRECTORY: "Directory",
            Dest.REQUESTOR: "msg.requestor",
            Dest.OWNER: "dir.owner",
            Dest.SHARERS: "-- every sharer (expanded by SendToSharers)",
            Dest.SELF: "c",
        }[action.to]
        extra = []
        if action.with_data:
            extra.append("data")
        if action.with_ack_count:
            extra.append("ack_count")
        suffix = f" -- carries {', '.join(extra)}" if extra else ""
        if action.to is Dest.SHARERS:
            return [f"SendToSharers(Msg_{_sanitize(action.message)}, msg.requestor);{suffix}"]
        return [f"Send(Msg_{_sanitize(action.message)}, {dest}, {node}.data);{suffix}"]
    if isinstance(action, CopyDataFromMessage):
        return [f"{node}.data := msg.data;"]
    if isinstance(action, SetAcksExpectedFromMessage):
        return [f"{node}.acksExpected := msg.ackCount;"]
    if isinstance(action, IncrementAcksReceived):
        return [f"{node}.acksReceived := {node}.acksReceived + 1;"]
    if isinstance(action, ResetAckCounters):
        return [f"{node}.acksReceived := 0;", f"{node}.acksExpected := UNDEFINED;"]
    if isinstance(action, SaveRequestor):
        return [f"{node}.savedRequestor[{action.slot}] := msg.requestor;"]
    if isinstance(action, PerformAccess):
        return ["PerformPendingAccess(c);" if cache_side else "-- directory access"]
    if isinstance(action, SetOwnerToRequestor):
        return ["dir.owner := msg.requestor;"]
    if isinstance(action, ClearOwner):
        return ["undefine dir.owner;"]
    if isinstance(action, AddRequestorToSharers):
        return ["dir.sharers := union(dir.sharers, msg.requestor);"]
    if isinstance(action, AddOwnerToSharers):
        return ["dir.sharers := union(dir.sharers, dir.owner);"]
    if isinstance(action, RemoveRequestorFromSharers):
        return ["dir.sharers := remove(dir.sharers, msg.requestor);"]
    if isinstance(action, ClearSharers):
        return ["clear dir.sharers;"]
    return [f"-- {type(action).__name__}"]


def _emit_rules(fsm: ControllerFsm, *, cache_side: bool, prefix: str) -> list[str]:
    lines: list[str] = []
    for index, transition in enumerate(fsm.transitions()):
        event = transition.event
        if isinstance(event, AccessEvent):
            trigger = f"access = Access_{event.access.name}"
        else:
            guard = f" & {event.guard}" if event.guard else ""
            trigger = f"msg.mtype = Msg_{_sanitize(event.message)}{guard}"
        node = "cache[c]" if cache_side else "dir"
        rule_name = f"{prefix}_{_sanitize(transition.state)}_{index}"
        lines.append(f'rule "{rule_name}"')
        lines.append(
            f"  {node}.state = {_state_const(prefix, transition.state)} & {trigger}"
        )
        lines.append("==>")
        lines.append("begin")
        if transition.stall:
            lines.append("  -- stall: leave the message at the head of its queue")
            lines.append("  stall := true;")
        else:
            for action in transition.actions:
                for stmt in _emit_action(action, cache_side=cache_side):
                    lines.append(f"  {stmt}")
            lines.append(
                f"  {node}.state := {_state_const(prefix, transition.next_state)};"
            )
        lines.append("endrule;")
        lines.append("")
    return lines


def emit_murphi(protocol: GeneratedProtocol, *, num_caches: int = 3) -> str:
    """Emit the full Murphi source for *protocol*."""
    cache = protocol.cache
    directory = protocol.directory
    messages = sorted({m.name for m in protocol.messages})

    lines: list[str] = []
    lines.append(f"-- Murphi model for protocol {protocol.name}")
    lines.append(f"-- generated by repro (ProtoGen reproduction); config: {protocol.config}")
    lines.append("")
    lines.append("const")
    lines.append(f"  NumCaches: {num_caches};")
    lines.append("  NetMax: 8;")
    lines.append("")
    lines.append("type")
    lines.append("  CacheId: scalarset(NumCaches);")
    lines.append("  CacheState: enum {")
    lines.append(
        "    " + ",\n    ".join(_state_const("C", s) for s in cache.state_names())
    )
    lines.append("  };")
    lines.append("  DirState: enum {")
    lines.append(
        "    " + ",\n    ".join(_state_const("D", s) for s in directory.state_names())
    )
    lines.append("  };")
    lines.append("  MessageType: enum {")
    lines.append("    " + ",\n    ".join(f"Msg_{_sanitize(m)}" for m in messages))
    lines.append("  };")
    lines.append("  AccessType: enum { Access_LOAD, Access_STORE, Access_REPLACEMENT };")
    lines.append("")
    lines.append("  Message: record")
    lines.append("    mtype: MessageType;")
    lines.append("    src: CacheId;")
    lines.append("    requestor: CacheId;")
    lines.append("    data: Value;")
    lines.append("    ackCount: 0..NumCaches;")
    lines.append("  end;")
    lines.append("")
    lines.append("var")
    lines.append("  cache: array [CacheId] of record")
    lines.append("    state: CacheState;")
    lines.append("    data: Value;")
    lines.append("    acksExpected: 0..NumCaches;")
    lines.append("    acksReceived: 0..NumCaches;")
    lines.append("    savedRequestor: array [0..3] of CacheId;")
    lines.append("  end;")
    lines.append("  dir: record")
    lines.append("    state: DirState;")
    lines.append("    owner: CacheId;")
    lines.append("    sharers: multiset [NumCaches] of CacheId;")
    lines.append("    data: Value;")
    lines.append("  end;")
    lines.append("  net: array [Node] of multiset [NetMax] of Message;")
    lines.append("")
    lines.append("-- ======================= cache controller rules =======================")
    lines.extend(_emit_rules(cache, cache_side=True, prefix="C"))
    lines.append("-- ===================== directory controller rules =====================")
    lines.extend(_emit_rules(directory, cache_side=False, prefix="D"))
    lines.append("-- ============================ invariants ==============================")
    lines.append('invariant "SWMR"')
    lines.append("  forall c1: CacheId do forall c2: CacheId do")
    lines.append("    (c1 != c2 & CacheHasWritePermission(c1)) -> !CacheHasReadPermission(c2)")
    lines.append("  end end;")
    lines.append("")
    lines.append('invariant "DataValue"')
    lines.append("  forall c: CacheId do")
    lines.append("    CacheHasWritePermission(c) -> cache[c].data = LatestValue")
    lines.append("  end;")
    lines.append("")
    return "\n".join(lines)
