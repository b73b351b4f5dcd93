"""Cache-ID symmetry: permutation algebra and state canonicalization.

The protocols generated by this reproduction are symmetric in the cache IDs:
caches run identical controllers, the workload bounds are uniform, and the
directory's auxiliary state refers to caches only through IDs.  Renaming the
caches of a reachable global state therefore yields another reachable global
state with identical invariant verdicts -- exactly the property Murphi
exploits with ``scalarset`` types.

**The definition** lives on the object model and is three lines long: the
representative of a state is its smallest relabeling,
``min(perms, key=lambda p: state.relabeled(p).sort_key())`` -- the first
minimum in permutation order, so ties resolve to the identity and a
representative canonicalizes to itself.  De-duplicating on representatives
shrinks the explored state space by up to ``num_caches!`` while preserving
every verdict (safety violations, protocol errors, deadlocks).

**The implementation** is :class:`EncodedCanonicalizer`, the only
canonicalizer in ``src/``: it evaluates that definition on
:class:`~repro.system.codec.StateCodec` encodings (order-isomorphic to
``sort_key``) without building a single relabeled state -- signature sort,
orbit pruning and a region memo decide most states from their cache blocks
alone, staged tie-breaks on memoized keys decide the rest.  Every search,
:meth:`Exploration.seed` and ``random_walk``'s coverage count obtain it
through :func:`canonicalizer_for`.  The definition itself is executed only
by the tests (``reference_canonicalize`` in
``tests/verification/verification_helpers.py``), which pin the two to the
same representative *and* witness permutation.

Permutations are tuples with ``perm[old_id] = new_id``.  The helpers here are
the small group-theory toolkit the engine needs to keep counterexample traces
valid: every stored transition records the permutation that canonicalized its
successor, and :mod:`repro.verification.engine.core` relabels events back
through the inverse of the accumulated permutation chain.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from operator import itemgetter

from repro.system.node_state import NUM_SAVED_SLOTS
from repro.system.system import (
    DeliverMessage,
    DuplicateMessage,
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


def _signature_orbit(
    keys: list,
) -> tuple[Permutation | None, list[Permutation]]:
    """Signature sort + orbit pruning over per-cache signature *keys*.

    Returns ``(perm, [])`` when the sorted signatures are fully
    distinguished (the minimal placement is unique), or ``(None,
    candidates)`` with the orbit of the equal-signature groups -- the only
    permutations that can be minimal -- sorted lexicographically so that
    first-minimum tie-breaking matches the definition's iteration order
    (identity-first when applicable).  *keys* only need a total order.
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
    """The symmetry pipeline, specialized to one ``(codec, perms)``.

    Evaluates the module's definition on encodings.  Encoded cache blocks
    are order-isomorphic to the per-cache sort keys, so three stages pick
    the same representative and witness as the ``min`` over relabeled
    states:

    1. **Signature sort.**  When no cache holds a saved requestor ID, each
       cache block is a permutation-invariant signature, so the minimal
       placement is the caches sorted by block -- ``O(n log n)`` instead of
       ``n!`` placements.
    2. **Orbit pruning.**  Only permutations that keep the sorted order can
       be minimal: the orbit of the equal-signature groups (a single
       permutation for fully distinguished states).  Saved-requestor slots
       holding cache IDs make signatures permutation-dependent; those
       regions rank every permutation by its relabeled cache blocks instead
       (:func:`_saved_tied`) and keep the minimal ones.
    3. **Staged tie-breaks.**  Surviving candidates rank by the relabeled
       directory key, then -- only for genuine ties -- the relabeled network
       key, both memoized per (section, permutation) in the codec.

    Stages 1 and 2 read nothing outside the cache-block *region* of an
    encoding, and regions recur across far more states than they have
    distinct values, so each is classified once into the **region memo**
    (:meth:`orbit_for`), the pipeline's only per-region cache, keyed by the
    region's *packed bytes* -- a slice of the state's visited-set key, a
    third the size of the lane tuple and hashed at C speed.

    *perms* must be the full symmetric group on the codec's caches in
    lexicographic order, identity first -- what
    :meth:`repro.system.System.symmetry_permutations` returns: stages 1 and
    2 assume every permutation is available, and the lexicographic candidate
    order is what makes "first minimum" resolve ties to the identity.
    Anything else is a ``ValueError``.  Obtain instances through
    :func:`canonicalizer_for`; they are cached on the codec so the memo
    warms across searches of the same system.
    """

    __slots__ = (
        "codec", "perms", "identity", "identity_orbit", "_orbit_memo",
        "_saved_probe", "_region_bytes", "_tied_orbits",
    )

    def __init__(self, codec, perms: tuple[Permutation, ...]):
        n = codec.num_caches
        if perms != tuple(itertools.permutations(range(n))):
            raise ValueError(
                f"EncodedCanonicalizer needs the full symmetric group on the "
                f"{n} caches in lexicographic order, identity first "
                f"(System.symmetry_permutations()): signature sort and orbit "
                f"pruning assume every permutation is available; got "
                f"{len(perms)} permutation(s) starting with {perms[:1]}"
            )
        self.codec = codec
        self.perms = perms
        self.identity = perms[0]
        # packed region -> orbit record (see `orbit_for`)
        self._orbit_memo: dict[bytes, tuple] = {}
        self._region_bytes = codec.dir_offset * codec.lane_bytes
        # Records are shared wherever regions agree on them: one per
        # distinct (candidate set, saved) pair and, public because batch
        # callers test for it by identity, one for every region that is
        # already minimal (:meth:`resolve` then returns its argument).
        self.identity_orbit = (self.identity, None, False)
        self._tied_orbits: dict[tuple, tuple] = {}
        # One C-level gather of every saved-requestor lane in the region:
        # `any()` over its result replaces 2n slice-and-scan steps.
        self._saved_probe = itemgetter(*codec._saved_lanes)

    @property
    def memo_entries(self) -> int:
        """Distinct regions the memo currently holds."""
        return len(self._orbit_memo)

    def orbit_for(self, region: bytes) -> tuple:
        """The memoized orbit record of one packed cache-block region
        (``codec.pack(enc)[:region_bytes]``): what stages 1 and 2 decide
        about every state with these cache blocks.  Opaque outside this
        module except for :attr:`identity_orbit`; :meth:`resolve` turns it
        and a state into that state's representative.

        A record is ``(best, extra, saved)``:
        ``(identity, None, False)`` -- the region is already minimal (the
        one shared :attr:`identity_orbit`);
        ``(perm, relabeled_prefix, False)`` -- a unique non-identity winner:
        it is a pure function of the region, and so is the relabeled
        cache-block prefix, which rides along as a list so repeat regions
        relabel by list concatenation instead of re-gathering lane by lane;
        ``(None, candidates, saved)`` -- the winner depends on the rest of
        the state and the staged tie-break picks it among *candidates*: the
        orbit of the equal-signature groups, or, when saved-requestor slots
        are occupied (*saved*), the cache-key-minimal permutations.
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
        """``(canonical_encoding, witness_perm)`` with ``canonical_encoding
        == codec.relabel_via_tables(enc, witness_perm)``.

        *key* is ``codec.pack(enc)`` when the caller already holds it (the
        searches do: it is their raw-successor dedup key), which makes the
        region-memo probe one slice of it.  An identity winner returns
        *enc* itself, so such a caller's *key* is also the canonical key.
        """
        if key is None:
            region = self.codec.pack_tail(enc[: self.codec.dir_offset])
        else:
            region = key[: self._region_bytes]
        return self.resolve(enc, self.orbit_for(region))

    def resolve(self, enc: tuple, orbit: tuple) -> tuple[tuple, Permutation]:
        """:meth:`canonicalize` for a caller that already holds *enc*'s
        region record (the batch expander classifies each distinct region
        of a level once): stage 3 and the relabel."""
        best_perm, extra, saved = orbit
        codec = self.codec
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
        return tuple(extra + codec._relabeled_suffix(enc, best_perm)), best_perm

    def _classify(self, lanes: tuple) -> tuple:
        """The orbit record of one cache-block region, given as lanes."""
        codec = self.codec
        if any(self._saved_probe(lanes)):
            # Ranking every permutation by its relabeled cache blocks
            # (including the per-permutation saved-slot translation) reads
            # nothing outside the region, so ranking once per region leaves
            # only the staged tie-break per state.
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
            return self.identity_orbit
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


def _tie_break_encoded(enc: tuple, codec, tied: list[Permutation]) -> Permutation:
    """Stage 3: the minimum of *tied* by the relabeled (directory, network)
    key.

    ``latest_version`` is permutation-invariant, so the directory and network
    components are all that remains of the lexicographic state key once the
    cache components compare equal.  The comparison is staged: the cheap
    directory key prunes first, and the network key -- the expensive relabel
    -- is only computed for permutations still tied after that.  Keeps the
    first minimum, preserving identity-first (lexicographic) tie-breaking.
    """
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


def _saved_tied(codec, enc, perms: tuple[Permutation, ...]) -> tuple:
    """Cache-key-minimal permutations of a region whose saved-requestor
    slots hold cache IDs, in *perms* order.

    Per-cache blocks are taken once and only permuted in position; the
    saved lanes -- the one cache-local field a relabeling rewrites -- are
    re-translated per permutation through the codec's ``t1`` table.  The
    ranking reads only the cache-block region (*enc* may be just
    ``enc[:dir_offset]``), which is the property
    :meth:`EncodedCanonicalizer.orbit_for` memoizes it on.
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
