"""Transient-state naming.

Names follow the primer / paper convention: ``IM_AD`` is the transient state
of a transaction from I to M while waiting in stage ``AD``; later-ordered
redirections append the observed target chain, e.g. ``IM_AD_S`` after a
forwarded GetS, ``IM_AD_SI`` after a subsequent Invalidation (these appear as
``IM^AD_S`` / IMADS etc. in the paper's Table VI).
"""

from __future__ import annotations


def transient_name(start: str, final: str, stage: str) -> str:
    """Name of a Step-2 transient state (no concurrency observed yet)."""
    return f"{start}{final}_{stage}"


def redirected_name(base: str, chain: tuple[str, ...]) -> str:
    """Name of a Step-3 transient state created by later-ordered transactions.

    ``base`` is the Step-2 name (e.g. ``IM_AD``) and ``chain`` the sequence of
    stable targets observed afterwards (e.g. ``("S", "I")`` -> ``IM_AD_SI``).
    """
    if not chain:
        return base
    return base + "_" + "".join(chain)


def stale_request_name(settled_state: str, stage: str) -> str:
    """Name of the state used while waiting out a stale request.

    This is the ``II_A`` situation: the cache's own transaction was overtaken
    (Case 1) and the restart access needs no new transaction, but the original
    request is still in flight and will be acknowledged as stale by the
    directory.
    """
    return f"{settled_state}{settled_state}_{stage}"


def directory_transient_name(start: str, final: str, stage: str) -> str:
    """Directory transient states use the target-state-plus-stage convention
    of the primer (e.g. ``S_D`` while the directory waits for data from the
    owner before settling in S)."""
    return f"{final}_{stage}"
