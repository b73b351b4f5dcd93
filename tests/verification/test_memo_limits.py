"""Memo clears never change a verdict.

Three limits bound the caches on the search hot paths, each cache cleared
whole when it reaches its limit and each documented as "correctness never
depends on a hit": the batch kernel's memos (``vectorized._MEMO_LIMIT``:
delivery, tail, ``(cell, record, operation)``, and the two boundary caches
-- packed tail -> section ID and section ID -> packed tail), the codec's
component, parse and relabel memos (``codec._MEMO_LIMIT``; the
packed-suffix memo a representative's key is concatenated from is one), and
the canonicalizer's region memo and block table
(``canonical._ORBIT_MEMO_LIMIT``).  No bundled tier-1 space is big enough
to reach a limit, so here each limit is forced down to 8 entries -- every
search then clears constantly -- and the counts must not move.

For the batch kernel's plan tables this is also the test that an ID handed
out before a clear stays valid: a cleared delivery memo re-evaluates to the
same outcome IDs, a reset tail memo re-splices to the same section IDs, a
cleared cell-operation memo re-derives the same cell IDs, and a boundary
cache that forgot a section finds it again in the section table.
"""

import pytest

from repro.dsl.types import AccessKind
from repro.system import System, Workload
from repro.system import codec as codec_module
from repro.system import vectorized as vectorized_module
from repro.verification import verify
from repro.verification.engine import canonical

_LOAD_STORE = (AccessKind.LOAD, AccessKind.STORE)

#: (protocol, policy, caches, accesses, access kinds) -> (states, transitions)
#: of the full and of the symmetry-reduced space.
SPACES = {
    ("MSI", "nonstalling", 2, 2, None): ((1702, 3078), (862, 1557)),
    ("MSI", "stalling", 3, 1, _LOAD_STORE): ((981, 1956), (192, 394)),
    ("MOSI", "nonstalling", 3, 1, None): ((1079, 2043), (204, 402)),
    ("MSI-Unordered", "nonstalling", 3, 1, _LOAD_STORE): ((2274, 4890), (410, 893)),
}

#: Where each limit is read from.
LIMITS = {
    "vectorized._MEMO_LIMIT": [(vectorized_module, "_MEMO_LIMIT")],
    "codec._MEMO_LIMIT": [(codec_module, "_MEMO_LIMIT")],
    "canonical._ORBIT_MEMO_LIMIT": [(canonical, "_ORBIT_MEMO_LIMIT")],
}


def _outcome(all_generated, space, kernel, symmetry):
    name, policy, caches, accesses, kinds = space
    workload = (
        Workload(max_accesses_per_cache=accesses)
        if kinds is None
        else Workload(max_accesses_per_cache=accesses, access_kinds=kinds)
    )
    # A fresh system: fresh codec, kernels and canonicalizer, so no memo
    # filled by another run (or under another limit) is carried in.
    system = System(all_generated[(name, policy)], num_caches=caches,
                    workload=workload)
    result = verify(system, kernel=kernel, symmetry=symmetry)
    assert result.kernel == kernel
    if symmetry:
        codec = system.codec()
        assert 0 < len(codec._packed_suffixes) <= codec_module._MEMO_LIMIT
        for entries in ("orbit_memo_entries", "block_table_entries"):
            assert 0 < result.stats[entries] <= canonical._ORBIT_MEMO_LIMIT
    if kernel == "vectorized":
        vk = system.vectorized_kernel()
        for memo in (vk._deliv_memo, vk._cell_ops, vk._tail_ids, vk._packed):
            assert len(memo) <= vectorized_module._MEMO_LIMIT
    # The batch kernel's table sizes ride along (None on the compiled
    # kernel): a clear must not mint a second ID for a section, a cell, a
    # record, an outcome, a block or a plan it has already numbered.
    return (result.ok, result.states_explored, result.transitions_explored,
            *map(result.stats.get,
                 ("fallback_transitions", "section_entries", "outcome_entries",
                  "cell_entries", "record_entries", "cache_block_entries",
                  "dir_block_entries", "plan_entries")))


@pytest.mark.parametrize("space", SPACES, ids=lambda s: f"{s[0]}-{s[2]}c{s[3]}a")
@pytest.mark.parametrize("limit", LIMITS)
def test_a_limit_of_eight_entries_changes_no_count(
        all_generated, monkeypatch, limit, space):
    runs = [(kernel, symmetry)
            for kernel in ("compiled", "vectorized")
            for symmetry in (False, True)]
    unpatched = {run: _outcome(all_generated, space, *run) for run in runs}
    for kernel, symmetry in runs:
        states, transitions = SPACES[space][symmetry]
        assert unpatched[kernel, symmetry][:3] == (True, states, transitions)
        assert unpatched[kernel, symmetry][3] == (
            0 if kernel == "vectorized" else None
        )
    for module, name in LIMITS[limit]:
        assert getattr(module, name) > 8
        monkeypatch.setattr(module, name, 8)
    for run in runs:
        assert _outcome(all_generated, space, *run) == unpatched[run], run
