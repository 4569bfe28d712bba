"""Permutation-group cross-checks for the partition trapdoor.

The trapdoor has a clean group-theoretic shadow: a chain of linear
partitions survives every key exactly when the group generated by the keyed
encryption maps is imprimitive with the partition blocks as an imprimitivity
system.  This module samples generators for two groups, the group generated
by full encryption maps over a spanning set of key tuples and the group
generated by the individual keyed rounds, and offers block-system machinery
(minimal block systems, primitivity, exact search for invariant linear
partitions) to compare against the chains the cipher-level search finds.

Soundness works one way round: the sampled group H sits inside (for the
per-round generators: equals) the group of interest G.  A partition
invariant under G is invariant under H, and H primitive forces G primitive,
but an invariant partition of H need not extend to G.  Both sampled sets
include all translations x -> x + c, which is what restricts the search for
invariant partitions to linear ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .cipher import TbCipher, encryption_table, round_table
from .errors import CapExceeded, IntransitiveError
from .gf2 import Subspace, _maps_cosets, _reduced_rows, _span_elements

__all__ = [
    "MAX_DEGREE",
    "Perm",
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


class Perm:
    """A permutation of {0, ..., n-1} stored as its image array."""

    __slots__ = ("images",)

    def __init__(self, images) -> None:
        arr = np.array(images, dtype=np.int64)
        if arr.ndim != 1:
            raise ValueError("permutation images must be one-dimensional")
        n = len(arr)
        if n == 0 or n > MAX_DEGREE:
            raise ValueError(f"degree must be in [1, {MAX_DEGREE}]")
        if arr.min() < 0 or arr.max() >= n:
            raise ValueError("permutation image out of range")
        if not (np.bincount(arr, minlength=n) == 1).all():
            raise ValueError("images do not form a bijection")
        arr.setflags(write=False)
        self.images = arr

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return int(self.images[x])

    def compose(self, other: "Perm") -> "Perm":
        """self followed by other: x -> other(self(x))."""
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return Perm(other.images[self.images])

    def inverse(self) -> "Perm":
        inv = np.empty(self.degree, dtype=np.int64)
        inv[self.images] = np.arange(self.degree, dtype=np.int64)
        return Perm(inv)

    def is_identity(self) -> bool:
        return bool((self.images == np.arange(self.degree)).all())

    @classmethod
    def identity(cls, n: int) -> "Perm":
        return cls(np.arange(n, dtype=np.int64))

    @classmethod
    def translation(cls, d: int, c: int) -> "Perm":
        """x -> x XOR c on {0,...,2^d - 1}."""
        if not 0 <= c < (1 << d):
            raise ValueError("translation constant out of range")
        return cls(np.arange(1 << d, dtype=np.int64) ^ c)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Perm):
            return NotImplemented
        return self.degree == other.degree and bool(
            (self.images == other.images).all())

    def __hash__(self) -> int:
        return hash((self.degree, self.images.tobytes()))

    def __repr__(self) -> str:
        return f"Perm(degree={self.degree})"


@dataclass(frozen=True)
class GeneratorSet:
    perms: tuple[Perm, ...]
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.perms:
            raise ValueError("no generators")
        if len(self.labels) != len(self.perms):
            raise ValueError("labels do not match generators")
        degrees = {p.degree for p in self.perms}
        if len(degrees) > 1:
            raise ValueError("generators have mixed degrees")

    @property
    def degree(self) -> int:
        return self.perms[0].degree

    def __len__(self) -> int:
        return len(self.perms)


class BlockSystem:
    """A partition of the domain preserved by a group, as a block-id array."""

    __slots__ = ("block_of", "n_blocks")

    def __init__(self, block_of) -> None:
        arr = np.asarray(block_of, dtype=np.int64)
        ids: dict[int, int] = {}
        canon = np.empty(len(arr), dtype=np.int64)
        for x, raw in enumerate(arr.tolist()):
            canon[x] = ids.setdefault(raw, len(ids))
        canon.setflags(write=False)
        self.block_of = canon
        self.n_blocks = len(ids)

    @property
    def degree(self) -> int:
        return len(self.block_of)

    @property
    def nontrivial(self) -> bool:
        return 1 < self.n_blocks < self.degree

    def block_size(self) -> int:
        return self.degree // self.n_blocks

    def blocks(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.n_blocks)]
        for x, b in enumerate(self.block_of.tolist()):
            out[b].append(x)
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BlockSystem):
            return NotImplemented
        return bool((self.block_of == other.block_of).all())

    def __hash__(self) -> int:
        return hash(self.block_of.tobytes())

    def __repr__(self) -> str:
        return f"BlockSystem(degree={self.degree}, n_blocks={self.n_blocks})"

    def preserved_by(self, gens: GeneratorSet) -> bool:
        """Whether every generator maps blocks onto blocks."""
        for p in gens.perms:
            image_block = np.full(self.n_blocks, -1, dtype=np.int64)
            src = self.block_of
            dst = self.block_of[p.images]
            for s, t in zip(src.tolist(), dst.tolist()):
                if image_block[s] < 0:
                    image_block[s] = t
                elif image_block[s] != t:
                    return False
        return True


def _check_transitive(gens: GeneratorSet) -> None:
    n = gens.degree
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    frontier = [0]
    count = 1
    while frontier and count < n:
        nxt = []
        for p in gens.perms:
            imgs = p.images[frontier]
            fresh = imgs[~seen[imgs]]
            if len(fresh):
                seen[fresh] = True
                nxt.extend(fresh.tolist())
                count = int(seen.sum())
        frontier = nxt
    if count < n:
        raise IntransitiveError(
            f"group is not transitive (orbit of 0 has size {count} of {n})")


def minimal_block(gens: GeneratorSet,
                  pairs: Sequence[tuple[int, int]]) -> BlockSystem:
    """The finest block system in which each given pair shares a block.

    Union-find refinement: merging two points forces their images under
    every generator to merge too, so merged pairs are queued and chased
    until stable.  Requires a transitive group.
    """
    _check_transitive(gens)
    n = gens.degree
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    queue: list[tuple[int, int]] = []
    classes = n
    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            classes -= 1
            queue.append((a, b))
    images = [p.images for p in gens.perms]
    while queue and classes > 1:
        a, b = queue.pop()
        for img in images:
            ga, gb = int(img[a]), int(img[b])
            ra, rb = find(ga), find(gb)
            if ra != rb:
                parent[ra] = rb
                classes -= 1
                if classes == 1:
                    break
                queue.append((ga, gb))
    return BlockSystem([find(x) for x in range(n)])


def is_primitive(gens: GeneratorSet) -> tuple[bool, BlockSystem | None]:
    """Whether the generated (transitive) group is primitive.

    Scans the minimal block system gluing 0 to each other point; any
    nontrivial one is returned as a witness.
    """
    _check_transitive(gens)
    for beta in range(1, gens.degree):
        system = minimal_block(gens, [(0, beta)])
        if system.nontrivial:
            return False, system
    return True, None


# ---------------------------------------------------------------------------
# Cipher-derived generator sets.


def sample_ind_generators(cipher: TbCipher) -> GeneratorSet:
    """Encryption maps for the zero key tuple and for every single-round
    single-bit perturbation of it.

    The generated group contains every translation (compose the zero-key map
    inverse with a last-round perturbed map), so each of its invariant
    partitions is linear, and it sits inside the group generated by all
    independent-key encryption maps.
    """
    d = cipher.layout.d
    ell = cipher.ell
    zero = (0,) * ell
    perms = [Perm(encryption_table(cipher, zero))]
    labels = ["enc[zero keys]"]
    for i in range(ell):
        for j in range(d):
            keys = list(zero)
            keys[i] = 1 << j
            perms.append(Perm(encryption_table(cipher, tuple(keys))))
            labels.append(f"enc[k{i + 1}+=bit{j}]")
    return GeneratorSet(tuple(perms), tuple(labels))


def sample_round_generators(cipher: TbCipher) -> GeneratorSet:
    """Keyless round maps plus basis translations.

    Every keyed round is a keyless round followed by a translation, so this
    set generates exactly the group spanned by all keyed round maps.
    """
    d = cipher.layout.d
    perms = []
    labels = []
    for h, rnd in enumerate(cipher.rounds):
        perms.append(Perm(round_table(rnd)))
        labels.append(f"round{h + 1}[keyless]")
    for j in range(d):
        perms.append(Perm.translation(d, 1 << j))
        labels.append(f"xor[bit{j}]")
    return GeneratorSet(tuple(perms), tuple(labels))


# ---------------------------------------------------------------------------
# Invariant linear partitions.


def partition_block_system(s: Subspace) -> BlockSystem:
    """The coset partition of a subspace as a block system."""
    n = 1 << s.ambient
    els = _span_elements(s.basis)
    block_of = np.full(n, -1, dtype=np.int64)
    bid = 0
    for x in range(n):
        if block_of[x] < 0:
            block_of[els ^ x] = bid
            bid += 1
    return BlockSystem(block_of)


def _phi_closure(images: list[np.ndarray], seed_rows: Iterable[int],
                 d: int) -> tuple[int, ...] | None:
    """Smallest subspace containing the seeds and closed under every map
    u -> g(u) + g(0); None when the closure is the full space."""
    rows = _reduced_rows(seed_rows, limit=d - 1)
    while rows is not None:
        els = _span_elements(rows)
        ind = np.zeros(1 << d, dtype=bool)
        ind[els] = True
        mapped = np.concatenate([img[els] ^ img[0] for img in images])
        outside = np.unique(mapped[~ind[mapped]])
        if not len(outside):
            return rows
        rows = _reduced_rows(rows + tuple(outside.tolist()), limit=d - 1)
    return None


def invariant_linear_partition_search(gens: GeneratorSet, *,
                                      max_results: int = 512
                                      ) -> list[Subspace]:
    """All proper nonzero subspaces U with L(U) invariant under every
    generator, exactly.

    Any invariant subspace is closed under every u -> g(u) + g(0), and is a
    join of the minimal such closures of its own elements.  The search takes
    the closure of every nonzero seed, joins closures pairwise to a fixed
    point, then keeps the candidates that pass the full derivative test
    (which the closure step, anchored at x = 0 only, does not imply).
    """
    n = gens.degree
    d = n.bit_length() - 1
    if n != 1 << d:
        raise ValueError("degree is not a power of two")
    images = [p.images for p in gens.perms]
    closures: dict[tuple[int, ...], None] = {}
    for seed in range(1, n):
        rows = _phi_closure(images, [seed], d)
        if rows is not None:
            closures.setdefault(rows, None)
    frontier = list(closures)
    while frontier:
        if len(closures) > max_results:
            raise CapExceeded("too many closed subspaces",
                              estimate=len(closures), limit=max_results)
        nxt = []
        for a in frontier:
            for b in list(closures):
                joined = _phi_closure(images, a + b, d)
                if joined is not None and joined not in closures:
                    closures[joined] = None
                    nxt.append(joined)
        frontier = nxt
    out = [Subspace(rows, d) for rows in closures
           if all(_maps_cosets(img, rows, rows) for img in images)]
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
