"""Cache-ID symmetry: permutation algebra and state canonicalization.

The protocols generated by this reproduction are symmetric in the cache IDs:
caches run identical controllers, the workload bounds are uniform, and the
directory's auxiliary state refers to caches only through IDs.  Renaming the
caches of a reachable global state therefore yields another reachable global
state with identical invariant verdicts -- exactly the property Murphi
exploits with ``scalarset`` types.

:func:`canonicalize` picks one representative per equivalence class: the
relabeling of the state that is smallest under :meth:`GlobalState.sort_key`.
De-duplicating on representatives shrinks the explored state space by up to
``num_caches!`` while preserving every verdict (safety violations, protocol
errors, deadlocks).

Permutations are tuples with ``perm[old_id] = new_id``.  The helpers here are
the small group-theory toolkit the engine needs to keep counterexample traces
valid: every stored transition records the permutation that canonicalized its
successor, and :mod:`repro.verification.engine.core` relabels events back
through the inverse of the accumulated permutation chain.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace
from operator import itemgetter

from repro.system.node_state import NUM_SAVED_SLOTS
from repro.system.system import (
    DeliverMessage,
    DuplicateMessage,
    GlobalState,
    IssueAccess,
    ReorderMessage,
    SystemEvent,
)

Permutation = tuple[int, ...]

#: First saved-requestor lane inside an encoded cache block (codec layout).
_SAVED_OFFSET = 5

#: Bound on the per-codec orbit memo (see :class:`EncodedCanonicalizer`).
_ORBIT_MEMO_LIMIT = 1 << 20


def identity_permutation(n: int) -> Permutation:
    return tuple(range(n))


def invert(perm: Permutation) -> Permutation:
    """Inverse permutation: ``invert(perm)[perm[i]] == i``."""
    inv = [0] * len(perm)
    for old_id, new_id in enumerate(perm):
        inv[new_id] = old_id
    return tuple(inv)


def compose(outer: Permutation, inner: Permutation) -> Permutation:
    """``compose(p, q)[i] == p[q[i]]`` (apply *inner* first, then *outer*)."""
    return tuple(outer[inner[i]] for i in range(len(inner)))


def relabel_event(event: SystemEvent, perm: Permutation | None) -> SystemEvent:
    """Remap the cache IDs mentioned by *event* through *perm*."""
    if perm is None:
        return event
    if isinstance(event, IssueAccess):
        new_id = event.cache_id if event.cache_id < 0 else perm[event.cache_id]
        if new_id == event.cache_id:
            return event
        return replace(event, cache_id=new_id)
    if isinstance(event, DeliverMessage):
        message = event.message.relabeled(perm)
        if message is event.message:
            return event
        return DeliverMessage(message=message, addr=event.addr)
    if isinstance(event, DuplicateMessage):
        message = event.message.relabeled(perm)
        if message is event.message:
            return event
        return DuplicateMessage(message=message, addr=event.addr)
    if isinstance(event, ReorderMessage):
        src = event.src if event.src < 0 else perm[event.src]
        dst = event.dst if event.dst < 0 else perm[event.dst]
        if src == event.src and dst == event.dst:
            return event
        return replace(event, src=src, dst=dst)
    return event


def canonicalize(
    state: GlobalState, perms: tuple[Permutation, ...]
) -> tuple[GlobalState, Permutation]:
    """Return ``(representative, perm)`` with ``representative == state.relabeled(perm)``.

    *perms* must start with the identity permutation (see
    :meth:`repro.system.System.symmetry_permutations`): ties then resolve to
    the identity, which makes canonicalization idempotent --
    ``canonicalize(rep, perms) == (rep, identity)`` for any representative.

    This is the search hot path (one call per explored transition).  The
    canonicalization pipeline has three stages:

    1. **Signature sort.**  When no cache holds a saved requestor ID, each
       per-cache key is permutation-invariant, so the minimal placement is
       simply the caches sorted by their signatures -- ``O(n log n)`` instead
       of ``n!`` key placements.
    2. **Orbit pruning.**  Only permutations that keep the sorted signature
       order can be minimal; they form the orbit of the equal-signature
       groups (a product of factorials that is 1 for fully distinguished
       states), and only those few candidates are ever materialized.
    3. **Tie-break permutations.**  The surviving candidates are ranked by
       the relabeled (directory, network) key -- the expensive relabels run
       only to break genuine ties, exactly as in the brute-force search.

    States whose saved-requestor slots hold cache IDs have permutation-
    *dependent* signatures and fall back to :func:`canonicalize_bruteforce`.
    Both paths return the representative a full
    ``min(state.relabeled(p).sort_key())`` would pick.
    """
    if len(perms) == 1:
        return state, perms[0]
    caches = state.caches
    if len(perms) != math.factorial(len(caches)) or any(
        any(s is not None and s >= 0 for s in c.saved) for c in caches
    ):
        # The sorted-signature argument needs the full symmetric group (the
        # orbit permutations must all be available); saved-requestor slots
        # make per-cache signatures permutation-dependent.  Either way, fall
        # back to trying exactly the permutations the caller supplied.
        return canonicalize_bruteforce(state, perms)
    keys = [c.sort_key() for c in caches]
    best_perm, candidates = _signature_orbit(keys)
    if best_perm is None:
        best_perm = _tie_break(state, candidates)
    if best_perm == perms[0]:
        return state, best_perm
    return state.relabeled(best_perm), best_perm


def _signature_orbit(
    keys: list,
) -> tuple[Permutation | None, list[Permutation]]:
    """Signature sort + orbit pruning over per-cache signature *keys*.

    Returns ``(perm, [])`` when the sorted signatures are fully
    distinguished (the minimal placement is unique), or ``(None,
    candidates)`` with the orbit of the equal-signature groups -- the only
    permutations that can be minimal -- sorted lexicographically so that
    first-minimum tie-breaking matches the brute-force iteration order
    (identity-first when applicable).  Shared by the object-level and
    encoded canonicalization paths; *keys* only need a total order.
    """
    n = len(keys)
    order = sorted(range(n), key=keys.__getitem__)  # position -> old cache ID
    groups: list[list[int]] = []  # runs of equal signatures, in position order
    begin = 0
    for i in range(1, n + 1):
        if i == n or keys[order[i]] != keys[order[begin]]:
            groups.append(order[begin:i])
            begin = i
    if all(len(group) == 1 for group in groups):
        best_list = [0] * n
        for pos, old_id in enumerate(order):
            best_list[old_id] = pos
        return tuple(best_list), []
    candidates: list[Permutation] = []
    for arrangement in itertools.product(
        *(itertools.permutations(group) for group in groups)
    ):
        flat = [old_id for group in arrangement for old_id in group]
        perm_list = [0] * n
        for pos, old_id in enumerate(flat):
            perm_list[old_id] = pos
        candidates.append(tuple(perm_list))
    candidates.sort()
    return None, candidates


#: ``_ORDER3[(b0 < b1, b1 < b2, b0 < b2)]``: the sorting permutation of three
#: pairwise-distinct cache blocks (the reference tier's common case).
_ORDER3 = {
    (True, True, True): (0, 1, 2),
    (True, False, True): (0, 2, 1),
    (True, False, False): (1, 2, 0),
    (False, True, True): (1, 0, 2),
    (False, True, False): (2, 0, 1),
    (False, False, False): (2, 1, 0),
}


class EncodedCanonicalizer:
    """The encoded symmetry pipeline, specialized to one ``(codec, perms)``.

    Wraps :func:`canonicalize_encoded`'s logic in an object that hoists the
    per-call invariants (identity permutation, full-group check) and keeps
    the **region memo**, the pipeline's only per-region cache: signature
    sort, orbit pruning and the saved-requestor block ranking all depend
    only on the cache-block region of an encoding, and those regions recur
    across far more states than they have distinct values, so each region
    is classified once -- subsequent states with the same cache blocks skip
    straight to the (memoized) tie-break keys.  The memo is keyed by the
    region's *packed bytes* -- a slice of the state's visited-set key, a
    third the size of the lane tuple and hashed at C speed.  Obtain
    instances through :func:`canonicalizer_for`; they are cached on the
    codec so the memo warms across searches of the same system.
    """

    __slots__ = (
        "codec", "perms", "identity", "_full_group", "_orbit_memo",
        "_saved_probe", "_region_bytes", "_identity_orbit", "_tied_orbits",
    )

    def __init__(self, codec, perms: tuple[Permutation, ...]):
        self.codec = codec
        self.perms = perms
        self.identity = perms[0]
        self._full_group = len(perms) == math.factorial(codec.num_caches)
        # packed region -> orbit record (see `orbit_for`)
        self._orbit_memo: dict[bytes, tuple] = {}
        self._region_bytes = codec.dir_offset * codec.lane_bytes
        # Records are shared wherever regions agree on them: one for every
        # identity winner, one per distinct (candidate set, saved) pair.
        self._identity_orbit = (self.identity, None, False)
        self._tied_orbits: dict[tuple, tuple] = {}
        # One C-level gather of every saved-requestor lane in the region:
        # `any()` over its result replaces 2n slice-and-scan steps.
        self._saved_probe = itemgetter(*codec._saved_lanes)

    @property
    def memo_entries(self) -> int:
        """Distinct regions the memo currently holds."""
        return len(self._orbit_memo)

    def orbit_for(self, region: bytes) -> tuple:
        """Memoized ``(best, extra, saved)`` record for one packed
        cache-block region (``codec.pack(enc)[:region_bytes]``).

        ``(identity, None, False)`` -- the region is already minimal;
        ``(perm, relabeled_prefix, False)`` -- a unique non-identity winner:
        it is a pure function of the region, and so is the relabeled
        cache-block prefix, which rides along as a list so repeat regions
        relabel by list concatenation instead of re-gathering lane by lane;
        ``(None, candidates, saved)`` -- the winner depends on the rest of
        the state and :func:`_tie_break_encoded` picks it among
        *candidates*: the orbit of the equal-signature groups, or, when
        saved-requestor slots are occupied (*saved*; signatures are then
        permutation-dependent), the cache-key-minimal permutations of the
        encoded brute force (:func:`_saved_tied`).  Shared by
        :meth:`canonicalize` and the vectorized expander's batch
        canonicalization (which looks each distinct region of a level up
        once via ``np.unique`` and then only assembles).
        """
        memo = self._orbit_memo
        orbit = memo.get(region)
        if orbit is None:
            if len(memo) >= _ORBIT_MEMO_LIMIT:
                memo.clear()
            orbit = memo[region] = self._classify(self.codec.unpack(region))
        return orbit

    def canonicalize(
        self, enc: tuple, key: bytes | None = None
    ) -> tuple[tuple, Permutation]:
        """``(canonical_encoding, witness_perm)`` — see :func:`canonicalize_encoded`.

        *key* is ``codec.pack(enc)`` when the caller already holds it (the
        searches do: it is their raw-successor dedup key), which makes the
        region-memo probe one slice of it.  An identity winner returns
        *enc* itself, so such a caller's *key* is also the canonical key.
        """
        perms = self.perms
        if len(perms) == 1:
            return enc, self.identity
        codec = self.codec
        if not self._full_group:
            # The sorted-signature argument needs the full symmetric group
            # (the orbit permutations must all be available); fall back to
            # trying exactly the permutations the caller supplied.
            return canonicalize_bruteforce_encoded(enc, codec, perms)
        if key is None:
            region = codec.pack_tail(enc[: codec.dir_offset])
        else:
            region = key[: self._region_bytes]
        best_perm, extra, saved = self.orbit_for(region)
        if best_perm is None:
            best_perm = _tie_break_encoded(enc, codec, extra)
            if best_perm == self.identity:
                return enc, best_perm
            # Only a saved-requestor region needs the slot-translation pass.
            return codec.relabel_via_tables(enc, best_perm, saved=saved), best_perm
        if extra is None:
            return enc, best_perm
        # Cached relabeled prefix + memoized relabeled suffix: the canonical
        # encoding assembles from two shared parts, no per-lane work.
        t2 = codec.perm_tables(best_perm)[2]
        return (
            tuple(extra + codec._relabeled_suffix(enc, best_perm, t2)),
            best_perm,
        )

    def _classify(self, lanes: tuple) -> tuple:
        """The orbit record of one cache-block region, given as lanes."""
        codec = self.codec
        if any(self._saved_probe(lanes)):
            # The brute-force cache-key ranking (including the per-
            # permutation saved-slot translation) reads nothing outside the
            # region, so ranking once per region leaves only the staged
            # tie-break per state.
            return self._tied(_saved_tied(codec, lanes, self.perms), True)
        width = codec.cache_width
        n = codec.num_caches
        blocks = [lanes[i * width : (i + 1) * width] for i in range(n)]
        if n == 3 and len(set(blocks)) == 3:
            # The reference tier: the all-distinct case (the vast majority
            # of regions) skips the generic sort-and-group walk.
            b0, b1, b2 = blocks
            best, candidates = _ORDER3[(b0 < b1, b1 < b2, b0 < b2)], None
        else:
            best, candidates = _signature_orbit(blocks)
        if best is None:
            return self._tied(tuple(candidates), False)
        if best == self.identity:
            return self._identity_orbit
        return (best, list(codec.perm_tables(best)[0](lanes)), False)

    def _tied(self, candidates: tuple, saved: bool) -> tuple:
        """The shared ``(None, candidates, saved)`` record: candidate sets
        number a handful, the regions mapping to them tens of thousands."""
        key = (candidates, saved)
        return self._tied_orbits.setdefault(key, (None, candidates, saved))


def canonicalizer_for(codec, perms: tuple[Permutation, ...]) -> EncodedCanonicalizer:
    """The (cached) :class:`EncodedCanonicalizer` for ``(codec, perms)``."""
    cache = codec.engine_scratch.setdefault("canonicalizers", {})
    canonicalizer = cache.get(perms)
    if canonicalizer is None:
        canonicalizer = cache[perms] = EncodedCanonicalizer(codec, perms)
    return canonicalizer


def canonicalize_encoded(
    enc: tuple, codec, perms: tuple[Permutation, ...]
) -> tuple[tuple, Permutation]:
    """:func:`canonicalize` operating on a :class:`~repro.system.codec.StateCodec`
    encoding; returns ``(canonical_encoding, perm)``.

    Picks the *same* representative (and the same witness permutation) as
    the object-level pipeline: encoded cache blocks are order-isomorphic to
    the per-cache sort keys, so the signature sort, orbit pruning and staged
    tie-breaks run directly on the int arrays.  States with saved-requestor
    IDs have permutation-dependent signatures and take
    :func:`canonicalize_bruteforce_encoded` -- still entirely on int lanes;
    the object-level :func:`canonicalize_bruteforce` is kept as the
    differential-test oracle, never called on the reduced hot path
    (property-tested bit-exact agreement either way).
    """
    return canonicalizer_for(codec, perms).canonicalize(enc)


def _tie_break_encoded(enc: tuple, codec, tied: list[Permutation]) -> Permutation:
    """Encoded mirror of :func:`_tie_break` (directory key, then network key)."""
    if len(tied) == 1:
        return tied[0]
    best_dir: tuple | None = None
    survivors: list[Permutation] = []
    for perm in tied:
        key = codec.relabeled_directory_key(enc, perm)
        if best_dir is None or key < best_dir:
            best_dir = key
            survivors = [perm]
        elif key == best_dir:
            survivors.append(perm)
    if len(survivors) == 1:
        return survivors[0]
    best_perm = survivors[0]
    best_net: tuple | None = None
    for perm in survivors:
        key = codec.relabeled_network_key(enc, perm)
        if best_net is None or key < best_net:
            best_net = key
            best_perm = perm
    return best_perm


def canonicalize_bruteforce_encoded(
    enc: tuple, codec, perms: tuple[Permutation, ...]
) -> tuple[tuple, Permutation]:
    """Full-enumeration canonicalization directly on an encoding.

    The encoded twin of :func:`canonicalize_bruteforce`, covering the states
    the signature sort cannot handle -- saved-requestor slots holding cache
    IDs (permutation-dependent signatures) and caller-restricted permutation
    sets.  Per-cache blocks are computed once; only the saved-requestor
    lanes are re-translated per permutation (through the codec's ``t1``
    table), and the directory/network keys -- the expensive relabels -- are
    evaluated only to break ties, exactly like the object oracle.  Because
    encoded blocks are order-isomorphic to the per-cache sort keys and the
    permutations are tried in the same order, the winner (representative
    *and* witness permutation) is identical to
    ``canonicalize_bruteforce(codec.decode(enc), perms)`` -- property-tested
    -- without materializing a single object.
    """
    if len(perms) == 1:
        return enc, perms[0]
    tied = _saved_tied(codec, enc, perms)
    best_perm = _tie_break_encoded(enc, codec, tied)
    if best_perm == perms[0]:
        return enc, best_perm
    return codec.relabel_via_tables(enc, best_perm), best_perm


def _saved_tied(codec, enc, perms: tuple[Permutation, ...]) -> tuple:
    """Cache-key-minimal permutations of *enc* (region prefix suffices).

    The block ranking -- including the per-permutation saved-slot
    translation through ``t1`` -- reads only the cache-block region, so
    callers may pass either a full encoding or just ``enc[:dir_offset]``;
    :meth:`EncodedCanonicalizer.orbit_for` memoizes the result per region on
    exactly that property.
    """
    n = codec.num_caches
    width = codec.cache_width
    blocks = [enc[i * width : (i + 1) * width] for i in range(n)]
    lo, hi = _SAVED_OFFSET, _SAVED_OFFSET + NUM_SAVED_SLOTS
    saved_has_ids = [any(block[lo:hi]) for block in blocks]
    tied: list[Permutation] = []
    best_cache_key: tuple | None = None
    for perm in perms:
        t1 = codec.perm_tables(perm)[1]
        parts: list[tuple | None] = [None] * n
        for old_id, block in enumerate(blocks):
            if saved_has_ids[old_id]:
                block = (
                    block[:lo]
                    + tuple(t1[v] for v in block[lo:hi])
                    + block[hi:]
                )
            parts[perm[old_id]] = block
        cache_key = tuple(parts)
        if best_cache_key is None or cache_key < best_cache_key:
            best_cache_key = cache_key
            tied = [perm]
        elif cache_key == best_cache_key:
            tied.append(perm)
    return tuple(tied)


def _tie_break(state: GlobalState, tied: list[Permutation]) -> Permutation:
    """Pick the minimum of *tied* by the relabeled (directory, network) key.

    ``latest_version`` is permutation-invariant, so the directory and network
    components are all that remains of the lexicographic state key once the
    cache components compare equal.  The comparison is staged: the cheap
    directory key prunes first, and the network key -- the expensive relabel
    -- is only computed for permutations still tied after that.  Keeps the
    first minimum, preserving identity-first (lexicographic) tie-breaking.
    """
    if len(tied) == 1:
        return tied[0]
    directory = state.directory
    best_dir: tuple | None = None
    survivors: list[Permutation] = []
    for perm in tied:
        key = directory.relabeled_sort_key(perm)
        if best_dir is None or key < best_dir:
            best_dir = key
            survivors = [perm]
        elif key == best_dir:
            survivors.append(perm)
    if len(survivors) == 1:
        return survivors[0]
    network = state.network
    best_perm = survivors[0]
    best_net: tuple | None = None
    for perm in survivors:
        key = network.relabeled_sort_key(perm)
        if best_net is None or key < best_net:
            best_net = key
            best_perm = perm
    return best_perm


def canonicalize_bruteforce(
    state: GlobalState, perms: tuple[Permutation, ...]
) -> tuple[GlobalState, Permutation]:
    """Full-enumeration canonicalization: try every permutation in *perms*.

    Minimizes the state key lazily instead of materializing every relabeled
    state: per-cache keys are computed once and only permuted in position
    (saved-requestor slots are the one cache-local field that needs
    re-keying, and only when they actually hold cache IDs); the directory
    and network components -- the expensive relabels -- are evaluated only
    to break ties between permutations whose cache components compare equal.
    The winner is identical to a full ``min(state.relabeled(p).sort_key())``.
    """
    if len(perms) == 1:
        return state, perms[0]
    caches = state.caches
    base_keys = [c.sort_key() for c in caches]
    saved_has_ids = [
        any(s is not None and s >= 0 for s in c.saved) for c in caches
    ]
    tied: list[Permutation] = []
    best_cache_key: tuple | None = None
    for perm in perms:
        parts: list[tuple | None] = [None] * len(caches)
        for old_id, cache in enumerate(caches):
            key = (
                cache.relabeled_sort_key(perm)
                if saved_has_ids[old_id]
                else base_keys[old_id]
            )
            parts[perm[old_id]] = key
        cache_key = tuple(parts)
        if best_cache_key is None or cache_key < best_cache_key:
            best_cache_key = cache_key
            tied = [perm]
        elif cache_key == best_cache_key:
            tied.append(perm)
    best_perm = _tie_break(state, tied)
    if best_perm == perms[0]:
        return state, best_perm
    return state.relabeled(best_perm), best_perm
