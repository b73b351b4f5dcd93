"""Generation configuration (paper Section IV-A, "Configuration parameters")."""

from __future__ import annotations

import enum
from dataclasses import dataclass


class ConcurrencyPolicy(enum.Enum):
    """How the generated cache controller handles later-ordered forwarded
    requests that arrive while the cache is in a transient state
    (paper Section V-D2)."""

    #: Stall the forwarded request until the own transaction completes.
    STALLING = "stalling"
    #: Transition immediately to a new transient state but defer *all*
    #: responses until the own transaction completes (preserves SWMR in
    #: physical time).
    NONSTALLING_DEFERRED = "nonstalling-deferred"
    #: Transition immediately and respond immediately whenever the response
    #: does not depend on data the cache has not yet received (preserves
    #: per-location sequential consistency).
    NONSTALLING_IMMEDIATE = "nonstalling-immediate"


class DirectoryPolicy(enum.Enum):
    """How the generated directory handles requests arriving in a transient
    directory state.  The directory always orders such requests after the
    in-flight one (it is the serialization point), so the only question is
    whether it stalls them or absorbs them."""

    STALLING = "stalling"


@dataclass(frozen=True)
class GenerationConfig:
    """All knobs of the generator.

    Attributes
    ----------
    policy:
        Cache-controller concurrency policy (stalling / non-stalling).
    directory_policy:
        Directory-controller policy for requests hitting transient directory
        states.
    allow_transient_accesses:
        If True, loads and stores whose permission is granted by *both* the
        initial and final stable state of a transaction may be performed while
        the block is in a transient state (paper Step 4).  This can break
        SWMR in physical time but preserves per-location SC.
    pending_transaction_limit:
        Maximum number of later-ordered transactions a cache absorbs while its
        own transaction is outstanding before it falls back to stalling
        (the paper's limit ``L``).
    merge_equivalent_states:
        Merge structurally identical transient states created while
        accommodating concurrency (paper Section VI-B observed merges such as
        ``IM_A_S = SM_A_S``).
    generate_stale_put_handling:
        Add the directory's "acknowledge any stale Put" transitions
        (paper Section V-F).
    harden:
        Add the fault-tolerance hardening pass
        (:mod:`repro.core.harden`): absorption reactions that consume
        re-delivered responses/forwards idempotently instead of raising
        "cannot handle message" (re-acknowledging ack-only forwards such
        as a late ``Inv``, reporting missed data-serving forwards back to
        the directory), stale-Put data capture with captured-state
        splitting, directory-side miss recovery, and absorption of
        duplicated ownership requests from the current owner.  ``False``
        reproduces the un-hardened protocols, which fail under message
        duplication and deadlock under reordering.
    """

    policy: ConcurrencyPolicy = ConcurrencyPolicy.NONSTALLING_IMMEDIATE
    directory_policy: DirectoryPolicy = DirectoryPolicy.STALLING
    allow_transient_accesses: bool = True
    pending_transaction_limit: int = 3
    merge_equivalent_states: bool = True
    generate_stale_put_handling: bool = True
    harden: bool = True

    @classmethod
    def stalling(cls, **overrides) -> "GenerationConfig":
        """Convenience constructor for the stalling configuration."""
        defaults = dict(policy=ConcurrencyPolicy.STALLING)
        defaults.update(overrides)
        return cls(**defaults)

    @classmethod
    def nonstalling(cls, *, immediate: bool = True, **overrides) -> "GenerationConfig":
        """Convenience constructor for the non-stalling configurations."""
        policy = (
            ConcurrencyPolicy.NONSTALLING_IMMEDIATE
            if immediate
            else ConcurrencyPolicy.NONSTALLING_DEFERRED
        )
        defaults = dict(policy=policy)
        defaults.update(overrides)
        return cls(**defaults)
