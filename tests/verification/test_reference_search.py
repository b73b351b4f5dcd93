"""State counts checked by something other than the engine.

Every pinned count in this repository was produced by ``verify()`` itself at
some earlier commit.  ``reference_search`` (``verification_helpers``) is the
independent half of that comparison: a ``deque``, a plain ``dict`` of
``GlobalState`` objects, ``System.enabled_events`` / ``System.apply`` and the
three-line definition of the canonical representative -- no codec, store,
kernel or canonicalizer.  A search backend that drops, merges or double-counts
states (a truncated key, a wrong representative, a bad visited-set probe)
disagrees with it here without anyone having pinned the right number first.

It shares ``System`` (the executable semantics of the generated tables) with
the engine, so it does not check *that* layer; a table interpreter that does
is ROADMAP direction 1(b).
"""

import pytest

from repro import protocols
from repro.system import System, Workload
from repro.verification import single_owner_invariant, verify

from verification_helpers import reference_search, two_access_workload


def _counts(system, **kwargs):
    # TSO-CC intentionally relaxes SWMR in physical time; under the default
    # invariants its search would stop at the first stale reader.
    invariants = (
        [single_owner_invariant] if system.protocol.name == "TSO-CC" else None
    )
    result = verify(system, invariants=invariants, **kwargs)
    assert result.ok and not result.partial, result.summary
    assert result.kernel == kwargs["kernel"]
    return result.states_explored, result.transitions_explored


@pytest.mark.parametrize("symmetry", [False, True], ids=["full", "reduced"])
@pytest.mark.parametrize("policy", ["nonstalling", "stalling"])
@pytest.mark.parametrize("name", protocols.available_protocols())
def test_every_backend_counts_what_the_reference_search_counts(
    all_generated, name, policy, symmetry
):
    system = System(all_generated[(name, policy)], num_caches=2,
                    workload=two_access_workload(name))
    expected = reference_search(system, symmetry)
    for kernel in ("compiled", "vectorized"):
        assert _counts(system, symmetry=symmetry, kernel=kernel) == expected


@pytest.mark.parametrize(
    "num_caches, accesses, full, reduced",
    [(2, 2, (1702, 3078), (862, 1557)), (3, 1, (1203, 2394), (229, 467))],
    ids=["2c2a", "3c1a"],
)
def test_reference_search_reproduces_the_msi_nonstalling_pins(
    msi_nonstalling, num_caches, accesses, full, reduced
):
    system = System(msi_nonstalling, num_caches=num_caches,
                    workload=Workload(max_accesses_per_cache=accesses))
    assert reference_search(system, symmetry=False) == full
    assert reference_search(system, symmetry=True) == reduced
    assert _counts(system, symmetry=False, kernel="compiled") == full
    assert _counts(system, symmetry=True, kernel="compiled") == reduced


@pytest.mark.slow
def test_reference_search_reproduces_the_reduced_3c_pin(msi_stalling):
    """The ``reduced-3c`` benchmark workload's pin (MSI stalling 3c x 2a
    with symmetry), ~15 s of object-level search."""
    system = System(msi_stalling, num_caches=3,
                    workload=Workload(max_accesses_per_cache=2))
    assert reference_search(system, symmetry=True) == (29_533, 76_135)
