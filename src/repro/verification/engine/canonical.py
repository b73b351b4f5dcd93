"""Cache-ID symmetry: permutation algebra and state canonicalization.

The protocols generated by this reproduction are symmetric in the cache IDs:
caches run identical controllers, the workload bounds are uniform, and the
directory's auxiliary state refers to caches only through IDs.  Renaming the
caches of a reachable global state therefore yields another reachable global
state with identical invariant verdicts -- exactly the property Murphi
exploits with ``scalarset`` types.

**The definition** is one line: the representative of a state is its
smallest relabeling -- the relabeled state whose key (cache blocks, then
directory, then network) is least, the first minimum in permutation order,
so ties resolve to the identity and a representative canonicalizes to
itself.  De-duplicating on representatives shrinks the explored state
space by up to ``num_caches!`` while preserving every verdict (safety
violations, protocol errors, deadlocks).

**The implementation** is :class:`EncodedCanonicalizer`, the only
canonicalizer in ``src/``: it evaluates that definition on packed
:class:`~repro.system.codec.StateCodec` keys (their blocks
order-isomorphic to the object-level sort keys) without building a
relabeled state or unpacking a key.
One rule decides most states from their cache blocks alone: rank the
permutations position by position, in permutation order, each block
translated through a per-block table and each region ranked once into a
memo.  Staged tie-breaks on memoized keys decide the rest, and the
representative's key is two memoized byte strings concatenated.  Every
search, :meth:`Exploration.seed` and ``random_walk``'s coverage count
obtain it through :func:`canonicalizer_for`.  The definition itself --
with the object-level relabel and sort keys it is written in -- is
executed only by the tests (``reference_canonicalize`` in
``tests/verification/verification_helpers.py``, over
``tests/verification/reference_system.py``), which pin the two to the same
representative *and* witness permutation.

Permutations are tuples with ``perm[old_id] = new_id``.  The helpers here are
the small group-theory toolkit the engine needs to keep counterexample traces
valid: every stored transition records the permutation that canonicalized its
successor, and :mod:`repro.verification.engine.core` relabels event
encodings back through the inverse of the accumulated permutation chain
(:meth:`~repro.system.codec.StateCodec.relabeled_event`).
"""

from __future__ import annotations

import itertools

from repro.system.codec import CF_PENDING, CF_SAVED, Memo

Permutation = tuple[int, ...]


def invert(perm: Permutation) -> Permutation:
    """Inverse permutation: ``invert(perm)[perm[i]] == i``."""
    inv = [0] * len(perm)
    for old_id, new_id in enumerate(perm):
        inv[new_id] = old_id
    return tuple(inv)


def compose(outer: Permutation, inner: Permutation) -> Permutation:
    """``compose(p, q)[i] == p[q[i]]`` (apply *inner* first, then *outer*)."""
    return tuple(outer[inner[i]] for i in range(len(inner)))


class EncodedCanonicalizer:
    """The symmetry pipeline, specialized to one ``(codec, perms)``.

    Evaluates the module's definition on *packed keys*, one cache block at
    a time.  Encoded cache blocks are order-isomorphic to the per-cache
    sort keys, and the cache components lead the state key, so two stages
    pick the same representative and witness as the ``min`` over relabeled
    states:

    1. **Rank.**  Each cache position in turn keeps, among the permutations
       still in the running (in *perms* order), those that put the smallest
       translated block there (:meth:`_rank`).  A block whose
       saved-requestor slot holds a cache ID is permutation-dependent, and
       its translation under each permutation is read from the block table;
       any other block is its own translation.  What survives the last
       position is the cache-key-minimal permutations, in *perms* order:
       one is the winner of every state with these cache blocks.
    2. **Staged tie-breaks.**  Several surviving candidates rank by the
       relabeled directory key, then -- only for genuine ties -- the
       relabeled network key, both memoized per (packed section,
       permutation) in the codec.

    Two tables carry it.  The **block table** maps a packed cache block to
    its lanes and, if a saved slot is occupied, its translation under every
    permutation (lanes for comparing -- bytes only order like lanes at 8
    bits -- and bytes for emitting): a few hundred entries however many
    states a search stores.  Stage 1 reads nothing outside the cache-block
    *region* of a key, and regions recur across far more states than they
    have distinct values, so each is ranked once into the **region memo**
    (:meth:`orbit_for`), keyed by the region's packed bytes -- a slice of
    the state's visited-set key -- by slicing its blocks out and looking
    them up; nothing is unpacked.  A representative's key is then two
    memoized byte strings: the relabeled region (on the record, or joined
    from block-table entries) plus :meth:`StateCodec.relabeled_suffix`.

    *perms* must be the full symmetric group on the codec's caches in
    lexicographic order, identity first -- what
    :meth:`repro.system.System.symmetry_permutations` returns, the only
    group a search passes; keeping the first minimum in that order is what
    resolves ties to the identity, as the definition does.  Anything else
    is a ``ValueError``.  Obtain instances through
    :func:`canonicalizer_for`; they are cached on the codec so the tables
    warm across searches of the same system.
    """

    __slots__ = (
        "codec", "perms", "identity", "identity_orbit",
        "_orbit_memo", "_blocks", "_cuts", "_region_bytes",
        "_inverses", "_sources", "_index", "_tied_orbits",
    )

    def __init__(self, codec, perms: tuple[Permutation, ...]):
        n = codec.num_caches
        if perms != tuple(itertools.permutations(range(n))):
            raise ValueError(
                f"EncodedCanonicalizer needs the full symmetric group on the "
                f"{n} caches in lexicographic order, identity first "
                f"(System.symmetry_permutations(), the group every search "
                f"passes); got "
                f"{len(perms)} permutation(s) starting with {perms[:1]}"
            )
        self.codec = codec
        self.perms = perms
        self.identity = perms[0]
        # packed region -> orbit record (see `orbit_for`)
        self._orbit_memo = Memo(self._classify)
        # packed cache block -> (lanes, translations | None) (see `_entry`)
        self._blocks = Memo(self._entry)
        self._region_bytes = codec.dir_byte_offset
        width = codec.cache_width * codec.lane_bytes
        # where each packed cache block sits in a key
        self._cuts = [slice(at, at + width) for at in range(0, self._region_bytes, width)]
        # ``_inverses[k][pos]`` and ``_sources[pos][k]``: the cache
        # ``perms[k]`` moves to position *pos*
        self._inverses = tuple(map(invert, perms))
        self._sources = tuple(zip(*self._inverses))
        self._index = {perm: k for k, perm in enumerate(perms)}
        # Records are shared wherever regions agree on them: one per
        # distinct candidate set and, public because batch callers test for
        # it by identity, one for every region that is already minimal
        # (:meth:`resolve` then returns its argument).
        self.identity_orbit = (self.identity, None)
        self._tied_orbits: dict[tuple, tuple] = {}

    @property
    def memo_entries(self) -> int:
        """Distinct regions the memo currently holds."""
        return len(self._orbit_memo)

    @property
    def classifications(self) -> int:
        """Regions classified so far (region-memo misses)."""
        return self._orbit_memo.misses

    @property
    def block_entries(self) -> int:
        """Distinct cache blocks the block table currently holds."""
        return len(self._blocks)

    def orbit_for(self, region: bytes) -> tuple:
        """The memoized orbit record of one packed cache-block region
        (``key[:dir_byte_offset]``): what stage 1 decides about every
        state with these cache blocks.  Opaque outside this module except
        for :attr:`identity_orbit`; :meth:`resolve` turns it and a state's
        key into that state's representative.

        A record is ``(best, extra)``:
        ``(identity, None)`` -- the region is already minimal (the one
        shared :attr:`identity_orbit`);
        ``(perm, relabeled_region)`` -- a unique non-identity winner,
        whether or not saved slots are occupied: it is a pure function of
        the region, and so is the relabeled region, which rides along as
        packed bytes so repeat regions relabel by one concatenation;
        ``(None, candidates)`` -- the winner depends on the rest of the
        state and the staged tie-break picks it among *candidates*, the
        cache-key-minimal permutations (one shared record per distinct
        candidate set).
        """
        return self._orbit_memo[region]

    def canonicalize(self, key: bytes) -> tuple[bytes, Permutation]:
        """``(canonical_key, witness_perm)`` for the packed *key*, with
        ``canonical_key == pack(relabel_via_tables(unpack(key),
        witness_perm))``.  An identity winner returns *key* itself."""
        region = key[: self._region_bytes]
        # The memo hit inline: `orbit_for` runs per classification here.
        return self.resolve(key, self._orbit_memo.get(region) or self.orbit_for(region))

    def resolve(self, key: bytes, orbit: tuple) -> tuple[bytes, Permutation]:
        """:meth:`canonicalize` for a caller that already holds *key*'s
        region record (the batch expander classifies each distinct region
        of a level once): stage 2 and the relabel."""
        best, region = orbit
        if best is None:
            best = self._tie_break(key, region)
            if best == self.identity:
                return key, best
            region = self._relabeled(*self._lookup(key), self._index[best])
        elif region is None:
            return key, best
        suffix = key[self._region_bytes :]
        return region + self.codec.relabeled_suffix(suffix, best), best

    def _lookup(self, region: bytes) -> tuple[list[bytes], list[tuple]]:
        """The packed cache blocks of *region* (or of a whole key) and the
        block-table entry of each (see :meth:`_entry`)."""
        blocks = [region[cut] for cut in self._cuts]
        return blocks, list(map(self._blocks.__getitem__, blocks))

    def _entry(self, block: bytes) -> tuple:
        """The block-table entry of a packed cache block seen for the first
        time: ``(lanes, None)``, or ``(lanes, translations)`` when a
        saved-requestor slot holds a cache ID -- the one cache-local field a
        relabeling rewrites -- with ``translations[k]`` the block's
        ``(lanes, packed bytes)`` under ``perms[k]``."""
        codec = self.codec
        lanes = codec.unpack(block)
        lo, hi = CF_SAVED, CF_PENDING
        translations = None
        if any(lanes[lo:hi]):
            translations = []
            for perm in self.perms:
                t1 = codec.perm_tables(perm)[1]
                moved = lanes[:lo] + tuple(t1[v] for v in lanes[lo:hi]) + lanes[hi:]
                translations.append((moved, codec.pack(moved)))
        return (lanes, translations)

    def _relabeled(self, blocks: list, entries: list, k: int) -> bytes:
        """The packed region of *blocks* (their table *entries* beside
        them) relabeled through ``perms[k]``."""
        return b"".join([
            blocks[old] if entries[old][1] is None else entries[old][1][k][1]
            for old in self._inverses[k]
        ])

    def _classify(self, region: bytes) -> tuple:
        """The orbit record of one packed cache-block region."""
        blocks, entries = self._lookup(region)
        survivors = self._rank(entries)
        if len(survivors) > 1:
            # Candidate sets number a handful, the regions mapping to them
            # tens of thousands.
            candidates = tuple(map(self.perms.__getitem__, survivors))
            return self._tied_orbits.setdefault(candidates, (None, candidates))
        k = survivors[0]
        if k == 0:
            return self.identity_orbit
        return (self.perms[k], self._relabeled(blocks, entries, k))

    def _rank(self, entries: list) -> list[int]:
        """The indices in *perms* of the cache-key-minimal permutations of
        the region whose blocks' table *entries* are given, in *perms*
        order: the relabeled cache keys compare lexicographically, so each
        position in turn keeps the permutations that put the smallest
        translated block there."""
        survivors = range(len(self.perms))
        for sources in self._sources:
            kept = None
            for k in survivors:
                lanes, translations = entries[sources[k]]
                if translations is not None:
                    lanes = translations[k][0]
                if kept is None or lanes < smallest:
                    smallest = lanes
                    kept = [k]
                elif lanes == smallest:
                    kept.append(k)
            survivors = kept
            if len(kept) == 1:
                break
        return survivors

    def _tie_break(self, key: bytes, tied: tuple) -> Permutation:
        """Stage 2: the minimum of *tied* by the relabeled (directory,
        network) key of the state packed as *key*.

        ``latest_version`` is permutation-invariant, so the directory and
        network components are all that remains of the lexicographic state
        key once the cache components compare equal.  The comparison is
        staged: the cheap directory key prunes first, and the network key
        -- the expensive relabel -- is only computed for permutations still
        tied after that.  Keeps the first minimum, preserving
        identity-first (lexicographic) tie-breaking.
        """
        codec = self.codec
        block = key[self._region_bytes : codec.version_offset * codec.lane_bytes]
        best_dir: tuple | None = None
        survivors: list[Permutation] = []
        for perm in tied:
            dir_key = codec.relabeled_directory_key(block, perm)
            if best_dir is None or dir_key < best_dir:
                best_dir = dir_key
                survivors = [perm]
            elif dir_key == best_dir:
                survivors.append(perm)
        if len(survivors) == 1:
            return survivors[0]
        section = key[codec.net_byte_offset :]
        return min(survivors, key=lambda perm: codec.relabeled_network_key(section, perm))


def canonicalizer_for(codec, perms: tuple[Permutation, ...]) -> EncodedCanonicalizer:
    """The (cached) :class:`EncodedCanonicalizer` for ``(codec, perms)``."""
    cache = codec.engine_scratch.setdefault("canonicalizers", {})
    canonicalizer = cache.get(perms)
    if canonicalizer is None:
        canonicalizer = cache[perms] = EncodedCanonicalizer(codec, perms)
    return canonicalizer
