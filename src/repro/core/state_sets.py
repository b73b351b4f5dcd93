"""Step 1: State Sets (paper Section V-B).

A *State Set* exists for every stable state.  A transient state belongs to the
State Set of every stable state in which the directory might currently see
the block while the cache holds it in that transient state.  The generator
uses the membership to decide whether an incoming forwarded request belongs
to an earlier-ordered or later-ordered transaction.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class StateSets:
    """Tracks, for every stable state, which generated states belong to its set."""

    stable_states: list[str]
    _members: dict[str, set[str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for stable in self.stable_states:
            self._members.setdefault(stable, set()).add(stable)

    def add(self, state_name: str, membership: frozenset[str] | set[str]) -> None:
        """Record that *state_name* belongs to the State Sets in *membership*."""
        for stable in membership:
            if stable not in self._members:
                raise KeyError(f"unknown stable state {stable!r}")
            self._members[stable].add(state_name)

    def members(self, stable: str) -> frozenset[str]:
        return frozenset(self._members[stable])

    def as_dict(self) -> dict[str, frozenset[str]]:
        return {stable: frozenset(members) for stable, members in self._members.items()}

    def __contains__(self, stable: str) -> bool:
        return stable in self._members
