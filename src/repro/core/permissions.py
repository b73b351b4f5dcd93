"""Step 4: assigning access permissions to states (paper Section V-E).

For stable states the permissions come directly from the SSP.  For transient
states the permission was computed when the state was created (the meet of
the initial and final stable-state permissions, or NONE when transient
accesses are disabled).  This pass turns those permissions into explicit
table entries, through the one default-fill rule
(:meth:`~repro.core.fsm.ControllerFsm.fill`: only an access slot no
transition handles yet is filled):

* a *hit* transition for every access the state's permission allows;
* a *stall* entry for every access a transient state cannot satisfy
  (the core must wait for the own transaction to complete).
"""

from __future__ import annotations

from repro.core.context import CacheGenContext
from repro.core.fsm import AccessEvent
from repro.dsl.types import AccessKind, PerformAccess


def assign_access_permissions(ctx: CacheGenContext) -> None:
    for state in ctx.fsm.states():
        for access in AccessKind:
            if state.permission.allows(access):
                ctx.fsm.fill(state.name, AccessEvent(access), (PerformAccess(),))
            elif not state.is_stable:
                ctx.fsm.fill(state.name, AccessEvent(access), stall=True)
