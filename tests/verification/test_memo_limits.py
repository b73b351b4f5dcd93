"""Memo clears never change a verdict, and every bounded memo does clear.

Every bounded cache on the search hot paths is a ``codec.Memo``: the
codec's block-decode, parse and relabel memos (the packed-suffix memo a
representative's key is concatenated from is one), the compiled kernel's
access and delivery memos (what the per-state search splices successors
from) with its outcome intern table, the canonicalizer's region memo and block table, and the batch
kernel's delivery, ``(cell, record, operation)`` and two boundary memos --
packed tail -> section ID and section ID -> packed tail.
``codec._MEMO_LIMIT`` is the one bound they share (the batch kernel's NumPy
tail memo reads it too), each memo is cleared whole when it reaches it, and
correctness never depends on a hit.  No bundled tier-1 space is big enough
to reach the bound, so here it is forced down to 8 entries -- every search
then clears constantly -- and the counts must not move.  The bound must also be live: a memo that
kept more than 8 values in a run must report a clear, so one that lost its
bound fails here instead of passing unnoticed.

For the batch kernel's plan tables this is also the test that an ID handed
out before a clear stays valid: a cleared delivery memo re-evaluates to the
same outcome IDs, a reset tail memo re-splices to the same section IDs, a
cleared cell-operation memo re-derives the same cell IDs, and a boundary
cache that forgot a section finds it again in the section table.
"""

import pytest

from repro.dsl.types import AccessKind
from repro.system import FaultModel, System, Workload
from repro.system import codec as codec_module
from repro.system.codec import Memo
from repro.verification import verify
from repro.verification.engine.canonical import canonicalizer_for

_LOAD_STORE = (AccessKind.LOAD, AccessKind.STORE)

#: (protocol, policy, caches, accesses, access kinds, axis) -> (states,
#: transitions) of the full and of the symmetry-reduced space (None: a
#: two-address system has no symmetric search).  The axis -- a second
#: address plane or a duplication fault -- puts a plane lane in the compiled
#: kernel's memo keys or fault plans beside them; the batch kernel does not
#: take either, so those spaces run on the compiled kernel only.
SPACES = {
    ("MSI", "nonstalling", 2, 2, None, None): ((1702, 3078), (862, 1557)),
    ("MSI", "stalling", 3, 1, _LOAD_STORE, None): ((981, 1956), (192, 394)),
    ("MOSI", "nonstalling", 3, 1, None, None): ((1079, 2043), (204, 402)),
    ("MSI-Unordered", "nonstalling", 3, 1, _LOAD_STORE, None): (
        (2274, 4890), (410, 893),
    ),
    ("MSI", "nonstalling", 2, 1, None, "two-address"): ((5476, 16280), None),
    ("MSI", "nonstalling", 2, 1, None, "duplicate"): ((508, 894), (258, 455)),
}

#: What each axis adds to a system.
AXES = {
    None: {},
    "two-address": {"num_addresses": 2},
    "duplicate": {"faults": FaultModel(duplicate=True)},
}

#: Memos per owner: the codec's seven, the compiled kernel's three (access,
#: delivery and the outcome intern table), the canonicalizer's two and the
#: batch kernel's four.
CODEC_MEMOS, KERNEL_MEMOS, CANONICAL_MEMOS, VECTORIZED_MEMOS = 7, 3, 2, 4


def _memos(owner) -> list:
    """Every :class:`Memo` *owner* holds (the canonicalizer has slots)."""
    names = getattr(type(owner), "__slots__", None) or vars(owner)
    return [memo for memo in (getattr(owner, name) for name in names)
            if isinstance(memo, Memo)]


def _outcome(all_generated, space, kernel, symmetry):
    """The run's counts and table sizes, and the memos it filled."""
    name, policy, caches, accesses, kinds, axis = space
    workload = (
        Workload(max_accesses_per_cache=accesses)
        if kinds is None
        else Workload(max_accesses_per_cache=accesses, access_kinds=kinds)
    )
    # A fresh system: fresh codec, kernels and canonicalizer, so no memo
    # filled by another run (or under another limit) is carried in.
    system = System(all_generated[(name, policy)], num_caches=caches,
                    workload=workload, **AXES[axis])
    result = verify(system, kernel=kernel, symmetry=symmetry)
    assert result.kernel == kernel
    memos = _memos(system.codec())
    assert len(memos) == CODEC_MEMOS
    kernel_memos = _memos(system.kernel())
    assert len(kernel_memos) == KERNEL_MEMOS
    # The per-state search runs on them; the batch path falls back nowhere.
    assert all(memo.misses for memo in kernel_memos) == (kernel == "compiled")
    memos += kernel_memos
    if symmetry:
        canonicalizer = canonicalizer_for(system.codec(),
                                          system.symmetry_permutations())
        assert (result.stats["orbit_classifications"]
                == canonicalizer._orbit_memo.misses > 0)
        memos += _memos(canonicalizer)
        assert len(memos) == CODEC_MEMOS + KERNEL_MEMOS + CANONICAL_MEMOS
    if kernel == "vectorized":
        memos += _memos(system.vectorized_kernel())
        assert len(memos) == (CODEC_MEMOS + KERNEL_MEMOS
                              + CANONICAL_MEMOS * symmetry + VECTORIZED_MEMOS)
    # The batch kernel's table sizes ride along (None on the compiled
    # kernel): a clear must not mint a second ID for a section, a cell, a
    # record, an outcome, a block or a plan it has already numbered.
    counts = (result.ok, result.states_explored, result.transitions_explored,
              *map(result.stats.get,
                   ("fallback_transitions", "section_entries", "outcome_entries",
                    "cell_entries", "record_entries", "cache_block_entries",
                    "dir_block_entries", "plan_entries")))
    return counts, memos


def test_a_memo_computes_each_miss_once():
    computed = []
    memo = Memo(lambda key: computed.append(key) or key * 2)
    assert [memo[k] for k in (1, 2, 1, 2, 3)] == [2, 4, 2, 4, 6]
    assert computed == [1, 2, 3]
    assert (memo.misses, memo.clears) == (3, 0)
    assert memo.get(4) is None and 4 not in memo  # a probe computes nothing


def test_a_full_memo_is_cleared_before_it_keeps_the_next_value(monkeypatch):
    monkeypatch.setattr(codec_module, "_MEMO_LIMIT", 2)
    memo = Memo(str)
    assert [memo[k] for k in (1, 2, 3)] == ["1", "2", "3"]
    assert dict(memo) == {3: "3"}
    assert memo[1] == "1"  # dropped by the clear: computed again
    assert (memo.misses, memo.clears) == (4, 1)


def test_store_applies_the_same_bound(monkeypatch):
    monkeypatch.setattr(codec_module, "_MEMO_LIMIT", 2)
    memo = Memo()
    assert [memo.store(k, -k) for k in (1, 2, 3)] == [-1, -2, -3]
    assert dict(memo) == {3: -3}
    assert (memo.misses, memo.clears) == (3, 1)


@pytest.mark.parametrize(
    "space", SPACES, ids=lambda s: f"{s[0]}-{s[2]}c{s[3]}a" + (f"-{s[5]}" if s[5] else "")
)
def test_a_limit_of_eight_entries_changes_no_count(all_generated, monkeypatch, space):
    runs = [(kernel, symmetry)
            for kernel in ("compiled", "vectorized")
            for symmetry in (False, True)
            if SPACES[space][symmetry] and (kernel == "compiled" or not space[5])]
    unpatched = {}
    for kernel, symmetry in runs:
        counts, memos = _outcome(all_generated, space, kernel, symmetry)
        states, transitions = SPACES[space][symmetry]
        assert counts[:3] == (True, states, transitions)
        assert counts[3] == (0 if kernel == "vectorized" else None)
        assert not any(memo.clears for memo in memos)
        unpatched[kernel, symmetry] = counts
    assert codec_module._MEMO_LIMIT > 8
    monkeypatch.setattr(codec_module, "_MEMO_LIMIT", 8)
    cleared = 0
    for run in runs:
        counts, memos = _outcome(all_generated, space, *run)
        assert counts == unpatched[run], run
        for memo in memos:
            assert len(memo) <= 8
            if memo.misses > 8:
                assert memo.clears > 0, run
                cleared += 1
    assert cleared
