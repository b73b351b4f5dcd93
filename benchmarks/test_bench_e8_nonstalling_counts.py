"""E8 -- Section VI-B: non-stalling MSI / MESI / MOSI protocols.

The paper reports that the generated non-stalling protocols are "fairly
non-trivial with 18-20 states and 46-60 transitions", verified for SWMR and
deadlock freedom.  This benchmark prints the state / transition counts and
verifies each protocol with the internal model checker.
"""

import pytest
from conftest import banner

from repro.analysis import protocol_metrics
from repro.system import System, Workload
from repro.verification import verify


@pytest.mark.parametrize("name", ["MSI", "MESI", "MOSI"])
def test_nonstalling_protocol_counts_and_verification(generated, name):
    protocol = generated[(name, "nonstalling")]
    metrics = protocol_metrics(protocol)
    result = verify(System(protocol, num_caches=2,
                           workload=Workload(max_accesses_per_cache=2)))

    reduced = verify(
        System(protocol, num_caches=2, workload=Workload(max_accesses_per_cache=2)),
        symmetry=True,
    )
    three_reduced = verify(
        System(protocol, num_caches=3, workload=Workload(max_accesses_per_cache=1)),
        symmetry=True,
    )

    banner(f"E8 -- non-stalling {name}: size and verification")
    print(f"  cache     : {metrics.cache.states} states, "
          f"{metrics.cache.protocol_transitions} transitions, {metrics.cache.stalls} stalls")
    print(f"  directory : {metrics.directory.states} states, "
          f"{metrics.directory.protocol_transitions} transitions")
    print(f"  total     : {metrics.total_states} states, "
          f"{metrics.total_protocol_transitions} transitions "
          f"(paper: 18-20 states, 46-60 transitions)")
    print(f"  verification (2 caches)           : {result.summary}")
    print(f"  verification (2 caches, symmetry) : {reduced.summary}")
    print(f"  verification (3 caches, symmetry) : {three_reduced.summary}")

    assert result.ok
    assert reduced.ok and reduced.states_explored <= result.states_explored
    assert three_reduced.ok
    # Shape check: same order of magnitude as the paper; MOSI uses the
    # directory-recall variant and is therefore larger.
    if name in ("MSI", "MESI"):
        assert 18 <= metrics.total_states <= 34
    assert metrics.total_protocol_transitions >= 46
