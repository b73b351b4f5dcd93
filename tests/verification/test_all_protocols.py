"""Integration: generated protocols on unordered response delivery.

Every bundled protocol, stalling and non-stalling, verifying safe (SWMR +
data-value) and deadlock-free at two and three caches is a row of the
conformance matrix (``test_conformance.py``); the three-cache configuration
the paper uses with Murphi runs in the benchmark suite (experiment E7/E8).
"""

import pytest

from repro.dsl.types import AccessKind
from repro.system import System, Workload
from repro.verification import verify


@pytest.mark.parametrize("name", ["MSI", "MESI"])
def test_nonstalling_protocols_also_verify_on_unordered_delivery_of_responses(
    all_generated, name
):
    """The generated transient states absorb forwarded requests that overtake
    the responses they chase, so the read/write path (no evictions) is safe
    even without point-to-point ordering."""
    generated = all_generated[(name, "nonstalling")]
    system = System(
        generated,
        num_caches=2,
        workload=Workload(max_accesses_per_cache=2,
                          access_kinds=(AccessKind.LOAD, AccessKind.STORE)),
        ordered=False,
    )
    result = verify(system)
    assert result.ok, result.summary
