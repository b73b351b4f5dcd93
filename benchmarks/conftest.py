"""Shared fixture and banner for the paper-table suite.

Every module here regenerates one artifact of the paper's evaluation (a
table, a figure, or a quantitative claim), prints the corresponding rows so
the output can be compared against the paper side by side, and asserts its
counts and verdicts.  Nothing here measures: numbers come from
``bench/run.py`` (the one clock reading is E11's, the paper's own
"well under a second").
"""

from __future__ import annotations

import pytest

from repro import protocols
from repro.core import GenerationConfig, generate


def banner(title: str) -> None:
    print()
    print("=" * 78)
    print(title)
    print("=" * 78)


@pytest.fixture(scope="session")
def generated():
    """Every bundled protocol generated in both configurations (cached)."""
    result = {}
    for name in protocols.available_protocols():
        spec = protocols.load(name)
        result[(name, "nonstalling")] = generate(spec, GenerationConfig.nonstalling())
        result[(name, "stalling")] = generate(spec, GenerationConfig.stalling())
    return result
