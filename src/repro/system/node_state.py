"""Immutable per-node states used in global system snapshots.

Plain data: the codec (:mod:`repro.system.codec`) lays a node state out as
a fixed-width block of lanes and reads it back; the relabel and the sort
key are the tests' (``tests/verification/reference_system.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dsl.types import AccessKind

#: Number of saved-requestor slots a cache keeps for deferred responses.
#: Directory protocols bound the number of forwarded requests a cache can
#: observe before settling (paper Section V-D2); four is comfortably above
#: the bound for MOESIF-style protocols.
NUM_SAVED_SLOTS = 4


@dataclass(frozen=True)
class CacheNodeState:
    """Architectural + auxiliary state of one cache for one block."""

    fsm_state: str
    data: int | None = None
    acks_expected: int | None = None
    acks_received: int = 0
    saved: tuple[int | None, ...] = (None,) * NUM_SAVED_SLOTS
    pending_access: AccessKind | None = None
    #: Version observed by this cache's most recent load (monotonicity check).
    last_observed: int = -1
    #: Number of accesses this cache has issued so far (bounds the workload).
    issued: int = 0


@dataclass(frozen=True)
class DirectoryNodeState:
    """Architectural + auxiliary state of the directory / LLC for one block."""

    fsm_state: str
    owner: int | None = None
    sharers: frozenset[int] = frozenset()
    memory: int = 0
