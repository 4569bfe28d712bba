"""Permutation-group cross-checks for the partition trapdoor.

The trapdoor has a clean group-theoretic shadow: a chain of linear
partitions survives every key exactly when the group generated by the keyed
encryption maps is imprimitive with the partition blocks as an imprimitivity
system.  This module samples generators for two groups, the group generated
by full encryption maps over a spanning set of key tuples and the group
generated by the individual keyed rounds, and offers block-system machinery
(minimal block systems, primitivity, exact search for invariant linear
partitions) to compare against the chains the cipher-level search finds.

A generator set has one form, a ``GeneratorSet``: a read-only (G, n) int64
array whose row k lists the images of generator k, with one label per row.
Every routine reads that array directly.  Block relabelling,
``preserved_by`` and ``partition_block_system`` are numpy expressions over
whole arrays, and one routine, ``_join_classes``, joins classes of points
by min-label propagation: the pairs of ``minimal_block``, and each x with
every g(x) for the transitivity check, which leaves the orbits.

Both sampled sets generate their group of interest exactly.  The round set
generates the group of all keyed round maps.  The encryption-map set
generates Gamma_enc, the group of all keyed encryptions with independent
round keys.  Proof: let f_i be the keyless round i, G_i = f_l o ... o
f_{i+1} (G_l = id, G_0 = E_0) and T_c the translation x -> x + c.  Then
G_{i-1} = G_i o f_i, so the keyed encryption
E_k = T_{k_l} o f_l o ... o T_{k_1} o f_1 is
[G_l T_{k_l} G_l^-1 o ... o G_1 T_{k_1} G_1^-1] o E_0.  Translations
compose by XOR, so G_i T_c G_i^-1 is a product of the G_i T_{e_j} G_i^-1,
and each of those is E_{i,j} o E_0^-1, where E_{i,j} is the sampled map
with bit j of round key i set.  So every keyed encryption lies in the
sampled group, which lies in Gamma_enc.  Both sets hold every translation
(i = l for the encryption maps), so every invariant partition is linear.

The invariant linear partitions L(U) of Gamma_enc are exactly the U_1 of
the chains with U_{l+1} = U_1.  Key addition keeps a linear partition, so
such a chain is invariant under every E_k.  Conversely, let L(U) be
invariant.  G_i T_c G_i^-1 keeps L(U) for every c, so G_i^-1(L(U)) is a
partition kept by every translation, which is linear: L(U_{i+1}).  f_i
maps L(U_i) onto L(U_{i+1}); U_{l+1} = U as G_l = id, and U_1 = U as E_0
keeps L(U).

Blocks are cosets.  Let G hold every translation, B be a block through 0
and b a point of B.  T_b(B) is a block holding T_b(0) = b, so it meets B,
and T_b(B) = B.  So b + B = B for every b in B: B is a subspace, and the
other blocks are its cosets.  The block systems of G are therefore exactly
the coset partitions L(U) of its invariant subspaces U.  The minimal system
through {0, beta} is L(C(beta)), for C(beta) the least invariant subspace
holding beta (one block when that is the full space), and G is primitive
exactly when no C(beta) is proper.  C(beta) is the partition search's
closure of the seed beta, so ``is_primitive`` reads the answer off the
search's seed pass whenever the set shows translations spanning F_2^d; any
other set takes Atkinson's block test (Math. Comp. 29, 1975) point by
point.

The invariant-partition search runs the chain search's closure engine,
``gf2._seed_closure``, on one position: L(U) is invariant under g exactly
when D_u g(x) = g(x + u) + g(x) lies in U for every x and every basis row
u of U, so the closed sets are the invariant subspaces, and their sums are
too.  A generator g + c has the derivatives of g, so one generator per
such class is kept.  Three facts spare one closure per seed.  C(v) holds
U1(v), the span of v and every phi_g(v) = g(v) + g(0) = D_v g(0), which one
numpy echelon reduction takes for every seed at once.  C(w) lies in C(v)
for every w in C(v), so a seed whose U1 holds a point with a full closure
is full too.  And C(v) = C(U1(v)), so one closure per distinct U1 settles
the seeds left.  ``gf2._joins`` then sums the closures, with no closing
step or test afterwards.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from .cipher import TbCipher, encryption_table, round_table
from .errors import CapExceeded, IntransitiveError
from .gf2 import (Subspace, _is_int, _joins, _reduced_blocks, _reduced_rows,
                  _seed_closure)

__all__ = [
    "MAX_DEGREE",
    "MAX_PARTITIONS",
    "GeneratorSet",
    "BlockSystem",
    "minimal_block",
    "is_primitive",
    "sample_ind_generators",
    "sample_round_generators",
    "invariant_linear_partition_search",
    "minimal_invariant_partitions",
    "partition_block_system",
]

MAX_DEGREE = 1 << 16

# The most invariant subspaces the partition search lists before it refuses
# with CapExceeded; every join it builds is one.
MAX_PARTITIONS = 512

# Elements in one batched array of the partition search's seed pass: seeds
# by vectors in the first step, spans by span elements in the second.  2^15
# is also the size of the largest proper span at MAX_DEGREE, so every span
# fits in one chunk.
_SEED_CHUNK = 1 << 15


def _check_degree(n: int) -> None:
    if n == 0 or n > MAX_DEGREE:
        raise ValueError(f"degree must be in [1, {MAX_DEGREE}]")


class GeneratorSet:
    """Permutations of {0, ..., n-1} as one read-only (G, n) int64 array.

    Row k of ``images`` holds the images of generator k, named by
    ``labels[k]``; applying row a and then row b is ``images[b][images[a]]``.
    The array must be of integer dtype, with 1 <= n <= ``MAX_DEGREE`` and a
    bijection in every row.
    """

    __slots__ = ("images", "labels")

    def __init__(self, images, labels: Sequence[str]) -> None:
        arr = np.asarray(images)
        if arr.ndim != 2:
            raise ValueError("generator images must form a (G, n) array, "
                             "one row per generator")
        if arr.dtype.kind not in "iu":
            raise ValueError(f"generator images must be integers, not "
                             f"{arr.dtype}")
        g, n = arr.shape
        if g == 0:
            raise ValueError("no generators")
        if len(labels) != g:
            raise ValueError("labels do not match generators")
        _check_degree(n)
        arr = arr.astype(np.int64)
        if arr.min() < 0 or arr.max() >= n:
            raise ValueError("permutation image out of range")
        # each row hits each point once: count every (row, point) pair
        hits = np.bincount((arr + n * np.arange(g)[:, None]).ravel(),
                           minlength=g * n).reshape(g, n)
        bad = np.flatnonzero((hits != 1).any(axis=1))
        if len(bad):
            raise ValueError(f"images of generator {bad[0]} "
                             f"({labels[bad[0]]!r}) do not form a bijection")
        arr.setflags(write=False)
        self.images = arr
        self.labels = tuple(labels)

    @property
    def degree(self) -> int:
        return self.images.shape[1]

    def __len__(self) -> int:
        return len(self.images)

    def __repr__(self) -> str:
        return f"GeneratorSet({len(self)} generators, degree={self.degree})"


class BlockSystem:
    """A partition of the domain preserved by a group, as a block-id array.

    Block ids must be a non-empty 1-D array of integers; they are
    renumbered in the order of each block's first point.
    """

    __slots__ = ("block_of", "n_blocks")

    def __init__(self, block_of) -> None:
        arr = np.asarray(block_of)
        if arr.ndim != 1:
            raise ValueError(f"block ids must form a 1-D array, one id per "
                             f"point, not {arr.ndim}-D")
        if not len(arr):
            raise ValueError("block ids are empty: there is no point")
        if arr.dtype.kind not in "iu":
            raise ValueError(f"block ids must be integers, not {arr.dtype}")
        _, first, inverse = np.unique(arr, return_index=True,
                                      return_inverse=True)
        rank = np.empty(len(first), dtype=np.int64)
        rank[np.argsort(first)] = np.arange(len(first))
        canon = rank[inverse.ravel()]
        canon.setflags(write=False)
        self.block_of = canon
        self.n_blocks = len(first)

    @property
    def degree(self) -> int:
        return len(self.block_of)

    @property
    def nontrivial(self) -> bool:
        return 1 < self.n_blocks < self.degree

    def block_size(self) -> int:
        """The common size of the blocks; refuses blocks of unequal sizes."""
        sizes = np.bincount(self.block_of)
        if sizes.min() != sizes.max():
            raise ValueError(f"blocks have sizes {sizes.min()} to "
                             f"{sizes.max()}, not one block size")
        return int(sizes[0])

    def blocks(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.n_blocks)]
        for x, b in enumerate(self.block_of.tolist()):
            out[b].append(x)
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BlockSystem):
            return NotImplemented
        return self.degree == other.degree and bool(
            (self.block_of == other.block_of).all())

    def __hash__(self) -> int:
        return hash(self.block_of.tobytes())

    def __repr__(self) -> str:
        return f"BlockSystem(degree={self.degree}, n_blocks={self.n_blocks})"

    def preserved_by(self, gens: GeneratorSet) -> bool:
        """Whether every generator maps blocks onto blocks.

        Every block is the block of some point, so a generator maps each
        block into one block exactly when its (block, image block) pairs
        number ``n_blocks``.
        """
        if gens.degree != self.degree:
            raise ValueError(f"generators of degree {gens.degree} act on "
                             f"another domain than a block system of "
                             f"degree {self.degree}")
        pairs = np.sort(self.block_of * self.n_blocks
                        + self.block_of[gens.images], axis=1)
        distinct = 1 + np.count_nonzero(np.diff(pairs, axis=1), axis=1)
        return bool((distinct == self.n_blocks).all())


def minimal_block(gens: GeneratorSet,
                  pairs: Sequence[tuple[int, int]]) -> BlockSystem:
    """The finest block system in which each given pair shares a block.

    Refuses, before any work, a pair that is not two integer points (a
    float, a bool, one point or three) and a pair with a point outside
    [0, n); then refuses an intransitive group (``_require_transitive``).
    """
    n = gens.degree
    for pair in pairs:
        pts = tuple(pair) if np.iterable(pair) else (pair,)
        if len(pts) != 2 or not all(_is_int(x) for x in pts):
            raise ValueError(f"pair {pts} is not two integer points")
        if not all(0 <= x < n for x in pts):
            raise ValueError(f"pair {pts} has a point outside [0, {n})")
    _require_transitive(gens)
    return _minimal_block(gens, np.array(pairs, dtype=np.int64).reshape(-1, 2))


def _minimal_block(gens: GeneratorSet, pairs: np.ndarray) -> BlockSystem:
    """``minimal_block`` of an integer (P, 2) array of pairs, without its
    checks, for callers that have already checked transitivity.

    Joining x and y forces g(x) and g(y) together for every generator g.
    Each class with least point r keeps g(x) in the class of g(r) for all
    its points x, until a step relabels r: joining g(r) with g(label[r])
    then mends it.  So each step chases only the least points the step
    before relabelled, each point at most once, until none moves or one
    class holds every point.
    """
    points = np.arange(gens.degree, dtype=np.int64)
    label = _join_classes(points, pairs[:, 0], pairs[:, 1])
    moved = np.flatnonzero(label != points)
    while len(moved) and label.any():
        # one raveled index array per end: np.minimum.at is far slower on 2-D
        new = _join_classes(label, gens.images[:, moved].ravel(),
                            gens.images[:, label[moved]].ravel())
        moved = np.flatnonzero((label == points) & (new != points))
        label = new
    return BlockSystem(label)


def _join_classes(label: np.ndarray, a: np.ndarray,
                  b: np.ndarray) -> np.ndarray:
    """Class labels after joining the class of a[i] with the class of b[i]
    for every i, from ``label``, which labels each point with the least
    point of its class.

    On the labels, each pair joins label[a[i]] and label[b[i]]; both ends
    drop to the smaller label of the two, then every label jumps to its own
    label, until nothing changes.  The labels are then constant on each
    joined class and name its least old label, which is its least point.
    """
    ends = (label[a], label[b])
    root = np.arange(len(label), dtype=np.int64)
    while True:
        low = np.minimum(root[ends[0]], root[ends[1]])
        nxt = root.copy()
        for end in ends:
            np.minimum.at(nxt, end, low)
        while not np.array_equal(nxt[nxt], nxt):
            nxt = nxt[nxt]
        if np.array_equal(nxt, root):
            return root[label]
        root = nxt


def _require_transitive(gens: GeneratorSet) -> None:
    """Raise IntransitiveError unless the orbit of 0 is every point.

    The orbits are the classes of ``_join_classes`` after joining each point
    x with g(x) for every generator g, so each orbit is labelled with its
    least point, and the group is transitive when every label is 0.
    """
    points = np.arange(gens.degree, dtype=np.int64)
    # one raveled index array per end: np.minimum.at is far slower on 2-D
    label = _join_classes(points, np.tile(points, len(gens)),
                          gens.images.ravel())
    if label.any():
        raise IntransitiveError(
            f"group is not transitive (orbit of 0 has size "
            f"{np.count_nonzero(label == 0)} of {gens.degree})")


def is_primitive(gens: GeneratorSet) -> tuple[bool, BlockSystem | None]:
    """Whether the generated (transitive) group is primitive.

    Atkinson's block test: the minimal block system Sigma_beta gluing 0 to
    beta is nontrivial for some beta exactly when the group is imprimitive,
    and the least such beta's system is returned as the witness.

    When the degree is 2^d and the translations x -> x + c among the rows
    and among each row composed after the inverse of row 0 (``images[k] ^
    arange(n)`` constant) have constants spanning F_2^d, the group holds
    every translation, so its blocks are cosets (module docstring):
    Sigma_beta is the coset partition of C(beta).  The round set's rows hold
    the basis translations, and the encryption-map set's quotients
    E_{l,j} o E_0^-1 are the translations by e_j.  The seed pass lists the
    proper closures in the order of their least seeds, so the group is
    primitive when it lists none, and otherwise the first is C(beta) for
    the least beta whose closure is proper, the witness.  The closures are
    read, not their joins, so ``MAX_PARTITIONS`` never refuses.  Any other
    set is checked for transitivity once (``_require_transitive``) and
    glues 0 to each beta in turn.
    """
    n = gens.degree
    d = n.bit_length() - 1
    images = gens.images
    shifts = np.concatenate([images, images[:, np.argsort(images[0])]]
                            ) ^ np.arange(n)
    steps = shifts[(shifts == shifts[:, :1]).all(axis=1), 0]
    if d and n == 1 << d and len(_reduced_rows(steps.tolist())) == d:
        closures = _seed_pass(gens, d)
        if not closures:
            return True, None
        return False, partition_block_system(Subspace(closures[0], d))
    _require_transitive(gens)
    for beta in range(1, n):
        system = _minimal_block(gens, np.array([[0, beta]]))
        if system.nontrivial:
            return False, system
    return True, None


# ---------------------------------------------------------------------------
# Cipher-derived generator sets.


def sample_ind_generators(cipher: TbCipher) -> GeneratorSet:
    """Encryption maps for the zero key tuple and for every single-round
    single-bit perturbation of it.

    They generate exactly the group of all keyed encryptions with
    independent round keys (see the module docstring).  It contains every
    translation (compose the zero-key map inverse with a last-round
    perturbed map), so each of its invariant partitions is linear, and
    those are exactly the U_1 of the chains with U_{l+1} = U_1.
    """
    d = cipher.layout.d
    _check_degree(1 << d)
    ell = cipher.ell
    keys = [(0,) * ell] + [tuple(1 << j if r == i else 0 for r in range(ell))
                            for i in range(ell) for j in range(d)]
    labels = ["enc[zero keys]"] + [f"enc[k{i + 1}+=bit{j}]"
                                   for i in range(ell) for j in range(d)]
    return GeneratorSet(np.stack([encryption_table(cipher, k) for k in keys]),
                        labels)


def sample_round_generators(cipher: TbCipher) -> GeneratorSet:
    """Keyless round maps plus basis translations.

    Every keyed round is a keyless round followed by a translation, so this
    set generates exactly the group spanned by all keyed round maps.
    """
    d = cipher.layout.d
    _check_degree(1 << d)
    points = np.arange(1 << d, dtype=np.uint32)
    rows = ([round_table(rnd) for rnd in cipher.rounds]
            + [points ^ (1 << j) for j in range(d)])
    labels = ([f"round{h + 1}[keyless]" for h in range(cipher.ell)]
              + [f"xor[bit{j}]" for j in range(d)])
    return GeneratorSet(np.stack(rows), labels)


# ---------------------------------------------------------------------------
# Invariant linear partitions.


def partition_block_system(s: Subspace) -> BlockSystem:
    """The coset partition of a subspace as a block system.

    Each point goes to its coset's representative with no pivot bit set
    (``Subspace.coset_rep``): a pivot bit lies in its own row only, so each
    row is added to the points that have its pivot bit.  Refuses an ambient
    space past ``MAX_DEGREE`` points.
    """
    if 1 << s.ambient > MAX_DEGREE:
        raise ValueError(f"2^{s.ambient} points exceed MAX_DEGREE = 2^16")
    reps = np.arange(1 << s.ambient, dtype=np.int64)
    for row in s.basis:
        reps ^= np.where(reps & (row & -row), row, 0)
    return BlockSystem(reps)


def _first_spans(phi: np.ndarray, d: int) -> np.ndarray:
    """U1(v), the span of v and every phi_g(v), for each seed v in 1..2^d - 1.

    Row v - 1 of the (2^d - 1, d) result holds ``_reduced_rows`` of U1(v),
    zero-padded after its rank, so it has no zero exactly when U1(v) is the
    full space.  Every chunk of seeds is reduced at once
    (``gf2._reduced_blocks``).
    """
    n = 1 << d
    out = np.zeros((n - 1, d), dtype=phi.dtype)
    step = max(1, _SEED_CHUNK // (phi.shape[1] + 1))
    for s0 in range(1, n, step):
        seeds = np.arange(s0, min(s0 + step, n), dtype=phi.dtype)
        vecs = np.concatenate([seeds[:, None], phi[seeds]], axis=1)
        out[s0 - 1:s0 - 1 + len(seeds)] = _reduced_blocks(vecs, d)[0]
    return out


def _span_elements_chunks(spans: np.ndarray, ids: np.ndarray):
    """(chunk, elements) pairs covering the spans ``spans[ids]``, rows laid
    out as by ``_first_spans``: the spans of one chunk share a rank r, and
    row i of ``elements`` lists span(spans[chunk[i]]), 2^r elements built
    by doubling, with at most ``_SEED_CHUNK`` elements in all."""
    rank = np.count_nonzero(spans[ids], axis=1)
    for r in np.unique(rank).tolist():
        same = ids[rank == r]
        step = max(1, _SEED_CHUNK >> r)
        for i0 in range(0, len(same), step):
            chunk = same[i0:i0 + step]
            rows = spans[chunk, :r]
            els = np.zeros((len(chunk), 1), dtype=spans.dtype)
            for j in range(r):
                els = np.concatenate([els, els ^ rows[:, j:j + 1]], axis=1)
            yield chunk, els


def _spread_full(spans: np.ndarray, full: np.ndarray) -> None:
    """Mark in place, as ``full``, every seed v whose U1(v) = spans[v - 1]
    holds a point that ``full`` marks, until nothing changes: C(w) lies in
    C(v) for w in U1(v), so C(v) is then the full space too."""
    pending = np.flatnonzero(~full[1:])
    while True:
        for ids, els in _span_elements_chunks(spans, pending):
            full[1 + ids[full[els].any(axis=1)]] = True
        settled = full[1 + pending]
        if not settled.any():
            return
        pending = pending[~settled]


def _seed_pass(gens: GeneratorSet, d: int) -> list[tuple[int, ...]]:
    """The proper closures C(v) of the partition search, as reduced rows, in
    the order of their least seeds v.

    The closures are those of ``gf2._seed_closure`` on one position whose
    self-loop gives span{D_u g(x)} over every x and every generator kept,
    memoised per u within the pass.  Three exact facts spare most of them:
    - C(v) holds U1(v), the span of v and every phi_g(v) = D_v g(0),
      taken for every seed in one batched reduction; rank d means a full
      closure;
    - C(w) lies in C(v) for w in C(v), so a seed is full once its U1 holds a
      full point; this is repeated over the spans until nothing changes,
      and the closures themselves stop early on a full point;
    - C(v) = C(U1(v)), so one closure per distinct U1 of the seeds left is
      enough.
    """
    n = 1 << d
    # points fit in 16 bits, as the degree is at most MAX_DEGREE = 2^16
    stack = gens.images.astype(np.uint16)
    phi = np.stack(list({row.tobytes(): row
                         for row in stack ^ stack[:, :1]}.values()), axis=1)
    points = np.arange(n, dtype=phi.dtype)

    @lru_cache(maxsize=None)
    def derivative_span(u: int) -> tuple[int, ...]:
        hit = np.zeros(n, dtype=bool)
        hit[phi[points ^ u] ^ phi] = True
        return _reduced_rows(np.flatnonzero(hit).tolist())

    edges = [[(0, derivative_span)]]
    spans = _first_spans(phi, d)
    full = np.zeros(n, dtype=bool)
    full[1:] = np.count_nonzero(spans, axis=1) == d
    _spread_full(spans, full)
    atoms: dict[tuple[int, ...], None] = {}
    memo: dict[tuple[int, ...], tuple[int, ...] | None] = {}
    for seed in (np.flatnonzero(~full[1:]) + 1).tolist():
        if full[seed]:
            continue
        u1 = tuple(row for row in spans[seed - 1].tolist() if row)
        if u1 not in memo:
            memo[u1] = _seed_closure(u1, edges, full, d)
        if memo[u1] is None:
            full[seed] = True
            _spread_full(spans, full)
        else:
            atoms.setdefault(memo[u1], None)
    return list(atoms)


def invariant_linear_partition_search(gens: GeneratorSet) -> list[Subspace]:
    """All proper nonzero subspaces U with L(U) invariant under every
    generator, exactly, sorted by (dim, basis).

    L(U) is invariant under g exactly when U holds span{D_u g(x)} for every
    x and every basis row u of U, so the invariant subspaces are the closed
    sets of the seed pass's closure (``_seed_pass``).  Each is the sum of
    the closures C(v) of its own vectors, and each such sum is invariant, so
    the answer is the proper sums of the proper closures (``gf2._joins``).
    The search refuses with CapExceeded on the invariant subspace past
    ``MAX_PARTITIONS``, before it builds any more.
    """
    n = gens.degree
    d = n.bit_length() - 1
    if n != 1 << d:
        raise ValueError("degree is not a power of two")
    out = []
    for rows in _joins(_seed_pass(gens, d), d):
        if len(out) == MAX_PARTITIONS:
            raise CapExceeded("too many closed subspaces",
                              estimate=MAX_PARTITIONS + 1,
                              limit=MAX_PARTITIONS)
        out.append(Subspace(rows, d))
    out.sort(key=lambda s: (s.dim, s.basis))
    return out


def minimal_invariant_partitions(found: Sequence[Subspace]) -> list[Subspace]:
    """The subspaces in ``found`` that contain no smaller member.

    Invariant subspaces are closed under sums, so the minimal ones generate
    the whole collection and make the tidiest summary.
    """
    out = []
    for s in found:
        dominated = any(
            t.dim < s.dim and all(row in s for row in t.basis)
            for t in found)
        if not dominated:
            out.append(s)
    return out
