"""Immutable per-node states used in global system snapshots.

Plain data plus its encoding: ``encoded`` lays a node state out as a
fixed-width int block and ``decode_cache_block`` /
``decode_directory_block`` read it back.  A block's lanes compare like the
node's object-level sort key (``None`` fields below every integer, FSM
states by name, sharers as a sorted run), which is what lets the engine
rank cache-ID relabelings on encodings; the relabel and the sort key
themselves are the tests' (``tests/verification/reference_system.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dsl.types import AccessKind

#: Number of saved-requestor slots a cache keeps for deferred responses.
#: Directory protocols bound the number of forwarded requests a cache can
#: observe before settling (paper Section V-D2); four is comfortably above
#: the bound for MOESIF-style protocols.
NUM_SAVED_SLOTS = 4

#: Width of one encoded cache block (see :meth:`CacheNodeState.encoded`).
CACHE_ENCODED_WIDTH = 7 + NUM_SAVED_SLOTS

#: Lane offsets inside one encoded cache block, in :meth:`CacheNodeState.encoded`
#: order; the codec, the canonicalizer and both kernels read them from here.
CF_STATE = 0
CF_ISSUED = 1
CF_DATA = 2
CF_ACKS_EXPECTED = 3
CF_ACKS_RECEIVED = 4
CF_SAVED = 5
CF_PENDING = CF_SAVED + NUM_SAVED_SLOTS
CF_LAST_OBSERVED = CF_PENDING + 1


def decode_cache_block(
    block: tuple, state_names: tuple[str, ...], access_kinds: tuple
) -> "CacheNodeState":
    """Inverse of :meth:`CacheNodeState.encoded`."""
    pending = block[CF_PENDING]
    return CacheNodeState(
        fsm_state=state_names[block[CF_STATE]],
        issued=block[CF_ISSUED],
        data=None if block[CF_DATA] == 0 else block[CF_DATA] - 1,
        acks_expected=(
            None if block[CF_ACKS_EXPECTED] == 0 else block[CF_ACKS_EXPECTED] - 1
        ),
        acks_received=block[CF_ACKS_RECEIVED],
        saved=tuple(None if s == 0 else s - 1 for s in block[CF_SAVED:CF_PENDING]),
        pending_access=None if pending == 0 else access_kinds[pending - 1],
        last_observed=block[CF_LAST_OBSERVED] - 1,
    )


def decode_directory_block(block: tuple, state_names: tuple[str, ...]) -> "DirectoryNodeState":
    """Inverse of :meth:`DirectoryNodeState.encoded` (*block* has ``3 + n`` ints)."""
    return DirectoryNodeState(
        fsm_state=state_names[block[0]],
        owner=None if block[1] == 0 else block[1] - 2,
        sharers=frozenset(s - 2 for s in block[2:-1] if s != 0),
        memory=block[-1],
    )


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

    def encoded(self, state_index: dict[str, int], access_index: dict) -> tuple:
        """Flat fixed-width int block, order-isomorphic to the cache's
        object-level sort key (see the module docstring).

        Fields appear in key order -- FSM state, issued, data, acks
        expected and received, saved slots, pending access, last observed
        -- each shifted into the non-negative range (``None`` maps below
        every integer, the FSM state becomes its index in the *sorted*
        state-name list so integer order matches string order), so
        comparing two encoded blocks compares the two node states' keys.
        """
        return (
            state_index[self.fsm_state],
            self.issued,
            0 if self.data is None else self.data + 1,
            0 if self.acks_expected is None else self.acks_expected + 1,
            self.acks_received,
            *((0 if s is None else s + 1) for s in self.saved),
            0 if self.pending_access is None else access_index[self.pending_access] + 1,
            self.last_observed + 1,
        )


@dataclass(frozen=True)
class DirectoryNodeState:
    """Architectural + auxiliary state of the directory / LLC for one block."""

    fsm_state: str
    owner: int | None = None
    sharers: frozenset[int] = frozenset()
    memory: int = 0

    def encoded(self, state_index: dict[str, int], num_caches: int) -> tuple:
        """Flat ``3 + num_caches``-int block, order-isomorphic to the
        directory's object-level sort key (FSM state, owner, sorted
        sharers, memory).

        The sharer set becomes a fixed-width ascending run padded with zeros;
        since every encoded sharer is ``>= 2`` and a shorter sorted tuple that
        is a prefix of a longer one must compare smaller, the zero padding
        preserves the sorted tuple's variable-length ordering.
        """
        sharers = sorted(self.sharers)
        return (
            state_index[self.fsm_state],
            0 if self.owner is None else self.owner + 2,
            *(s + 2 for s in sharers),
            *((0,) * (num_caches - len(sharers))),
            self.memory,
        )
