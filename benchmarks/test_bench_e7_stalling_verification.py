"""E7 -- Section VI-A: stalling MSI / MESI / MOSI protocols.

The paper generates stalling versions of the primer's protocols and verifies
them with Murphi (SWMR + deadlock freedom, three caches).  Here the internal
model checker plays Murphi's role.  Murphi keeps the three-cache directory
state space tractable with scalarset symmetry reduction; the engine's
cache-ID canonicalization (``verify(..., symmetry=True)``) does the same,
which lets this benchmark run the paper's actual configuration -- three
caches with the full two-access workload -- instead of capping three-cache
runs at one access per cache as the seed did.
"""

import os
import resource

import pytest
from conftest import banner

from repro import protocols
from repro.core import GenerationConfig, generate
from repro.dsl.types import AccessKind
from repro.system import System, Workload
from repro.verification import verify


@pytest.mark.parametrize("name", ["MSI", "MESI", "MOSI"])
def test_stalling_protocol_verification(generated, name):
    protocol = generated[(name, "stalling")]
    result = verify(System(protocol, num_caches=2,
                           workload=Workload(max_accesses_per_cache=2)))

    three_system = System(protocol, num_caches=3, workload=Workload(
        max_accesses_per_cache=1,
        access_kinds=(AccessKind.LOAD, AccessKind.STORE),
    ))
    three_full = verify(three_system)
    three_reduced = verify(three_system, symmetry=True)

    banner(f"E7 -- stalling {name}: safety and deadlock freedom")
    print(f"  cache states: {protocol.cache.num_states}, "
          f"directory states: {protocol.directory.num_states}")
    print(f"  2 caches, 2 accesses each           : {result.summary}")
    print(f"  3 caches, 1 access  each (full)     : {three_full.summary}")
    print(f"  3 caches, 1 access  each (symmetry) : {three_reduced.summary}")
    print(f"  symmetry reduction factor           : "
          f"{three_full.states_explored / three_reduced.states_explored:.2f}x")

    assert result.ok
    assert three_full.ok
    assert three_reduced.ok
    assert three_reduced.states_explored < three_full.states_explored


def test_stalling_msi_three_caches_full_workload(generated):
    """The paper's Murphi configuration: three caches, two accesses per
    cache, full access mix -- tractable thanks to symmetry reduction (the
    unreduced search is ~6x larger: 174k vs 29.5k states)."""
    protocol = generated[("MSI", "stalling")]
    system = System(protocol, num_caches=3,
                    workload=Workload(max_accesses_per_cache=2))
    result = verify(system, symmetry=True)

    banner("E7 -- stalling MSI, 3 caches x 2 accesses (symmetry-reduced)")
    print(f"  {result.summary}")
    print(f"  complete (quiescent, workload-exhausted) states: "
          f"{result.complete_states}")

    assert result.ok
    assert result.symmetry_reduced
    assert not result.truncated


@pytest.mark.slow
def test_stalling_msi_three_caches_full_unreduced_kernel_axis(generated):
    """The full (unreduced) 174 189-state Murphi configuration, run once per
    transition kernel: the reference workload for the backend ladder.
    (The count moved from the 158 007 pinned at compiled-kernel time when
    fault hardening grew the generated protocols.)  Both backends must
    explore it exactly alike; how fast each one does it is ``bench/``'s
    ``full-3c`` vs ``full-3c-vec``."""
    protocol = generated[("MSI", "stalling")]
    system = System(protocol, num_caches=3,
                    workload=Workload(max_accesses_per_cache=2))

    compiled = verify(system)
    vectorized = verify(system, kernel="vectorized")

    banner("E7 -- stalling MSI, 3 caches x 2 accesses (full, kernel axis)")
    print(f"  compiled kernel   : {compiled.summary}")
    print(f"  vectorized kernel : {vectorized.summary}")

    assert compiled.ok and vectorized.ok
    assert vectorized.kernel == "vectorized"
    assert compiled.states_explored == vectorized.states_explored == 174_189
    assert (compiled.transitions_explored == vectorized.transitions_explored
            == 449_079)
    assert vectorized.stats["fallback_transitions"] == 0
    # What the batch kernel's plan tables hold at the end: one entry per
    # distinct network section and per distinct (section, delivered record,
    # sends) splice, the sections made of a few hundred channel contents.
    assert vectorized.stats["section_entries"] == 16_092
    assert vectorized.stats["tail_memo_entries"] == 56_049
    assert vectorized.stats["cell_entries"] == 369
    assert vectorized.stats["record_entries"] == 171
    # ... and the controller columns of its 174 189 rows of a few hundred
    # blocks (one table for the three caches).
    assert vectorized.stats["cache_block_entries"] == 229
    assert vectorized.stats["dir_block_entries"] == 105
    assert vectorized.stats["plan_entries"] == 2_190


@pytest.mark.slow
def test_stalling_msi_four_caches_full_budgeted_nightly(generated, tmp_path):
    """Nightly 4-cache x 2-access *full* (unreduced) MSI exploration, one
    process on the batch kernel, in two legs.

    The space measures **28 632 320 states / 92 874 792 transitions**: the
    default, fault-hardened protocol's (23.4x its reduced space's 1 224 363
    canonical states, right at the 4! = 24 orbit bound).  The 24 579 648 /
    1 052 239 this test and the README pinned until PR 21 are
    ``harden=False``'s -- the protocol as the paper generates it, see
    :func:`test_unhardened_msi_four_caches_reduced_space` -- and were never
    re-taken when hardening became the default.  ``kernel="vectorized"``
    covers it with **exact** membership (a row table compared whole:
    ``omission_bound`` is ``None``), zero fallback transitions and zero
    decodes; the run made at this commit (PR 23: a row is seven ``uint32``
    IDs; 2-core / 15 GB VM, alone on the box) took **3 min 09 s** of
    ``verify()`` -- leg 1 25 s, leg 2 164 s at 163 k states/s -- peak RSS
    **3 131 MB**, ``visited_bytes`` 1 021 MiB (37.4 B a state: the 28-byte
    row plus its share of the slot table), where PR 21's lane rows read
    271 s, 4 819 MB and 65.4 B.

    Leg 1 is the **resume smoke**: a 2M-state budgeted run stops at the
    last level boundary inside its budget and persists the checkpoint (the
    row table saved as the packed keys its rows stand for).  Leg 2 resumes
    from it under the full budget and must land on the exact uninterrupted
    totals -- checkpoint/resume at nightly scale, not just in the unit
    suite.  The summary line, throughput, peak memory and the visited
    set's size are printed (CI copies them to the job summary).
    """
    budget = 30_000_000
    protocol = generated[("MSI", "stalling")]
    system = System(protocol, num_caches=4,
                    workload=Workload(max_accesses_per_cache=2))
    checkpoint = str(tmp_path / "e7-nightly.ckpt")

    # Leg 1 -- budgeted prefix, checkpoint saved at a level boundary.
    partial = verify(system, max_states=2_000_000, kernel="vectorized",
                     checkpoint=checkpoint)
    assert partial.ok and partial.partial and partial.kernel == "vectorized"
    assert os.path.exists(checkpoint), "budgeted leg must persist a checkpoint"

    # Leg 2 -- resume under the full budget; head-room above the known size
    # keeps the clean partial-abort path as the backstop if the space ever
    # grows, while the assertions below demand full coverage.
    result = verify(system, max_states=budget, kernel="vectorized",
                    checkpoint=checkpoint)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    visited = result.stats["visited_bytes"]
    resumed = result.states_explored - partial.states_explored

    banner("E7 -- stalling MSI, 4 caches x 2 accesses (full, vectorized nightly)")
    print(f"  {result.summary}")
    print(f"  resumed at level        : {result.stats['resume_level']} "
          f"({partial.states_explored} states in, {partial.elapsed_seconds:.0f} s)")
    print(f"  states/s (leg 2)        : "
          f"{resumed / result.elapsed_seconds:,.0f}")
    print(f"  peak RSS                : {rss_kb / 1024:.0f} MB")
    print(f"  visited_bytes           : {visited / 2**20:.0f} MB "
          f"({visited / result.states_explored:.1f} B a state)")

    assert result.ok
    assert result.kernel == "vectorized"
    assert result.stats["resume_level"] is not None, "leg 2 must resume leg 1"
    assert not os.path.exists(checkpoint), "a completed run consumes its checkpoint"
    # Resume parity at scale: the two-leg search must land on the exact
    # uninterrupted totals.
    assert not result.partial
    assert result.states_explored == 28_632_320
    assert result.transitions_explored == 92_874_792
    assert result.stats["fallback_transitions"] == 0
    assert result.stats["decode_count"] == 0
    assert result.stats["omission_bound"] is None


@pytest.mark.slow
@pytest.mark.parametrize("kernel", ["compiled", "vectorized"])
def test_stalling_msi_four_caches_reduced_space(generated, kernel):
    """The default protocol's symmetry-reduced 4c x 2a space on both
    in-process kernels: 1 224 363 canonical states, 3 974 095 transitions,
    membership decided by the store alone (whole keys on the compiled
    kernel, whole rows on the batch one)."""
    system = System(generated[("MSI", "stalling")], num_caches=4,
                    workload=Workload(max_accesses_per_cache=2))
    result = verify(system, symmetry=True, kernel=kernel)

    banner(f"E7 -- stalling MSI, 4 caches x 2 accesses (reduced, {kernel})")
    print(f"  {result.summary}")

    assert result.ok and not result.partial and result.kernel == kernel
    assert (result.states_explored, result.transitions_explored) == (
        1_224_363, 3_974_095)
    assert result.stats["omission_bound"] is None


@pytest.mark.slow
def test_unhardened_msi_four_caches_reduced_space():
    """Whose pins 24 579 648 / 1 052 239 were: the protocol generated with
    ``harden=False`` -- the paper's, without the fault-tolerance pass that
    is this repo's default.  Its symmetry-reduced 4c x 2a space is exactly
    the 1 052 239 canonical states the README's reduction table carried
    (the full space, 24 579 648, is 23.4x that)."""
    protocol = generate(protocols.load("MSI"),
                        GenerationConfig.stalling(harden=False))
    system = System(protocol, num_caches=4,
                    workload=Workload(max_accesses_per_cache=2))
    result = verify(system, symmetry=True, kernel="vectorized")

    banner("E7 -- stalling MSI, harden=False, 4 caches x 2 accesses (reduced)")
    print(f"  {result.summary}")

    assert result.ok and not result.partial
    assert result.states_explored == 1_052_239
