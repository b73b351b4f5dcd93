"""E9 -- Section VI-C: an MSI protocol for an interconnect without
point-to-point ordering.

The generated protocol is model-checked on the *unordered* network model, in
which any in-flight message may be delivered next.

PR 1's deeper search (3 caches x 2 accesses) exposed a latent hole in the
bundled spec: a cache redirected out of ``SM_AD`` had no transition for the
earlier-ordered ``Inv`` that the unordered network delivered late (the
repeated-invalidation race).  The generator now tracks such late arrivals
(``TransientDescriptor.late_absorbs``) and emits absorb transitions, so this
benchmark asserts the deep run *passes* -- in both search modes, with the
exact state counts -- instead of documenting the failure.
"""

from conftest import banner

from repro.dsl.types import AccessKind
from repro.system import System, Workload
from repro.verification import verify

#: Exact explored-state counts for the 3-cache x 2-access LOAD/STORE deep
#: run of the fixed spec.  The full/reduced ratio approaches 3! = 6.
DEEP_FULL_STATES = 449_102
DEEP_REDUCED_STATES = 75_148


def test_unordered_msi_verification(generated):
    protocol = generated[("MSI-Unordered", "nonstalling")]
    result = verify(System(
        protocol,
        num_caches=2,
        workload=Workload(max_accesses_per_cache=2,
                          access_kinds=(AccessKind.LOAD, AccessKind.STORE)),
        ordered=False,
    ))

    three_system = System(
        protocol,
        num_caches=3,
        workload=Workload(max_accesses_per_cache=1,
                          access_kinds=(AccessKind.LOAD, AccessKind.STORE)),
        ordered=False,
    )
    three_caches = verify(three_system)
    three_reduced = verify(three_system, symmetry=True)
    # The deep workload that used to expose the repeated-invalidation hole
    # (second Inv after a Case-2 redirect out of SM_AD).  With the
    # late-absorption transitions in the generated controller it now
    # verifies clean in both modes.
    deep_system = System(
        protocol,
        num_caches=3,
        workload=Workload(max_accesses_per_cache=2,
                          access_kinds=(AccessKind.LOAD, AccessKind.STORE)),
        ordered=False,
    )
    deep_full = verify(deep_system)
    deep_reduced = verify(deep_system, symmetry=True)
    # The batch-vectorized frontier kernel must land on the same pinned
    # counts on this unordered-network deep run (its hardest parity case:
    # unordered sections dedupe in-flight multiset permutations).
    deep_reduced_vec = verify(deep_system, symmetry=True, kernel="vectorized")

    banner("E9 -- MSI for an unordered network")
    print(f"  cache states: {protocol.cache.num_states} "
          f"(ordered-network MSI: {generated[('MSI', 'nonstalling')].cache.num_states})")
    print(f"  2 caches, unordered delivery            : {result.summary}")
    print(f"  3 caches, unordered delivery            : {three_caches.summary}")
    print(f"  3 caches, unordered, symmetry           : {three_reduced.summary}")
    print(f"  3 caches x 2 accesses (repeated-invalidation deep run):")
    print(f"    full    : {deep_full.summary}")
    print(f"    symmetry: {deep_reduced.summary}")
    print(f"    symmetry, vectorized kernel: {deep_reduced_vec.summary}")

    assert result.ok
    assert three_caches.ok
    assert three_reduced.ok
    assert three_reduced.states_explored < three_caches.states_explored

    # The repeated-invalidation hole is fixed: both modes verify clean and
    # reproduce the recorded state counts exactly.
    assert deep_full.ok, deep_full.summary
    assert deep_reduced.ok, deep_reduced.summary
    assert deep_full.states_explored == DEEP_FULL_STATES
    assert deep_reduced.states_explored == DEEP_REDUCED_STATES
    assert deep_full.states_explored / deep_reduced.states_explored > 5.5
    assert deep_reduced_vec.ok, deep_reduced_vec.summary
    assert deep_reduced_vec.kernel == "vectorized"
    assert deep_reduced_vec.states_explored == DEEP_REDUCED_STATES
    assert (deep_reduced_vec.transitions_explored
            == deep_reduced.transitions_explored)
