"""Bit-packed linear algebra over GF(2).

Vectors live in (F_2)^d and are represented as plain Python ints: bit j of
the int (LSB first) is coordinate j, and bits at position >= d must be zero.
Matrices act on the right, row-vector style: applying M to v XORs together
the rows of M selected by the set bits of v.  Subspaces are kept in a
canonical reduced row echelon form so that equality of subspaces is plain
tuple equality of their bases.

The exhaustive subspace enumerator generates reduced echelon bases directly
(choose pivot columns, then fill the free entries) instead of filtering
spans, so every subspace is produced exactly once.  Enumeration order is
canonical: pivot-column sets in lexicographic order, free entries in a
reflected Gray sequence within each pivot set.  ``_iter_rref_blocks`` states
that order once and walks it as numpy arrays, a chunk of a pivot set's block
at a time; every scan of subspaces (the S-box anti-invariance scan, the chain
search's dense fallback) iterates its blocks.

The rest of the package shares one kernel from here: ``_reduced_rows`` is the
echelon routine (spans, ranks, inverses and rank-bounded spans alike), and
``_reduced_blocks`` its numpy form for many spans at once (the chain search's
push, the groups seed pass); ``_span_elements`` lists every element of a span
as a numpy array (and ``Subspace.elements`` as a list), and ``_maps_cosets``
tests whether a lookup table sends each coset of U into a coset of W,
checking the basis rows of U only.
``Subspace`` checks that a basis is canonical in O(k), without re-reducing it.

``_seed_closure`` is the one closure engine, over a graph of positions: the
chain search runs it on a path of rounds, the group checks on one position.
Sums of closed families are closed, so ``_joins`` needs no closing step.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "AMBIENT_CAP",
    "BitMatrix",
    "Subspace",
    "BrickLayout",
    "rref",
    "subspace_image",
    "gaussian_binomial",
    "count_proper_subspaces",
    "wall_subspace",
    "wall_brick_mask",
]

AMBIENT_CAP = 128


def _is_int(x: object) -> bool:
    """Whether x is an int or a numpy integer, and not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _reduced_rows(vectors: Iterable[int],
                  limit: int | None = None) -> tuple[int, ...] | None:
    """Reduced row echelon basis of the span, pivots (lowest set bits) ascending.

    With ``limit``, returns None as soon as the rank exceeds it.
    """
    by_pivot: dict[int, int] = {}
    for v in vectors:
        while v:
            p = v & -v
            q = by_pivot.get(p)
            if q is None:
                if limit is not None and len(by_pivot) >= limit:
                    return None
                by_pivot[p] = v
                break
            v ^= q
    # Back-eliminate so every pivot bit appears in exactly one row.  Rows with
    # larger pivots are cleaned first; XORing them in cannot disturb smaller
    # pivot columns.
    reduced: dict[int, int] = {}
    for p in sorted(by_pivot, reverse=True):
        v = by_pivot[p]
        for q, w in reduced.items():
            if v & q:
                v ^= w
        reduced[p] = v
    return tuple(reduced[p] for p in sorted(reduced))


def _reduced_blocks(vectors: np.ndarray,
                    limit: int) -> tuple[np.ndarray, np.ndarray]:
    """``_reduced_rows(row, limit)`` of every row of an (n, N) array of
    vectors at once: the (n, limit) array of each row's reduced echelon
    basis, zero-padded after its rank, and the (n,) array of ranks.  Where
    a rank exceeds ``limit`` (``_reduced_rows`` gives None), the basis is
    cut short and means nothing.  The result keeps the vectors' dtype.

    Pivot bits are taken in ascending order.  Every vector left then has
    no bit below p set, so the first one with bit p set becomes the pivot
    row of p: it leaves the vectors, and is added to every vector and every
    earlier pivot row that has bit p set.  So each pivot bit ends up in its
    own row only, the canonical form.
    """
    vecs = vectors.copy()
    at = np.arange(len(vecs))
    width = int(np.bitwise_or.reduce(vecs, axis=None)).bit_length()
    cols = np.zeros((len(vecs), max(width, limit)), dtype=vecs.dtype)
    for p in range(width):
        bit = vecs.dtype.type(1 << p)
        has = (vecs & bit) != 0
        pivot = vecs[at, has.argmax(axis=1)]
        pivot = np.where(pivot & bit, pivot, 0)[:, None]
        vecs ^= has * pivot
        cols ^= ((cols & bit) != 0) * pivot
        cols[:, p:p + 1] = pivot
    order = np.argsort(cols == 0, axis=1, kind="stable")[:, :limit]
    return (np.take_along_axis(cols, order, axis=1),
            np.count_nonzero(cols, axis=1))


def _span_elements(rows: Iterable[int], dtype=np.int64) -> np.ndarray:
    """All elements of span(rows) as an array of ``dtype``, int64 unless
    given; element i XORs the rows selected by the bits of i (the order of
    Subspace.elements)."""
    els = np.zeros(1, dtype=dtype)
    for row in rows:
        els = np.concatenate([els, els ^ row])
    return els


def _maps_cosets(table: np.ndarray, u_rows: Iterable[int],
                 w_rows: Iterable[int]) -> bool:
    """Whether the lookup table maps every coset of span(u_rows) into a coset
    of span(w_rows), i.e. table[x ^ u] ^ table[x] lies in W for all x and u.
    A table with a row of images per point, one column per map, tests every
    map at once.  The table is indexed in its own dtype, with no copy.

    Only the rows u of U are tested: D_{u+u'}f(x) = D_u f(x+u') + D_{u'}f(x)
    and W is closed under addition, so the rows' derivatives carry the rest.
    """
    n = len(table)
    in_w = np.zeros(n, dtype=bool)
    in_w[_span_elements(w_rows)] = True
    idx = np.arange(n, dtype=table.dtype)
    return all(in_w[table[idx ^ u] ^ table].all() for u in u_rows)


def _seed_closure(seeds: Iterable[int],
                  edges: Sequence[list[tuple[int, Callable]]],
                  full, d: int) -> tuple[int, ...] | None:
    """The least closed family through the seeds (in position 0) on a graph
    of positions, as position 0's reduced rows, or None when it is full.

    ``edges[h]`` lists (target, kernel) pairs: u in position h puts kernel(u)
    into the target.  Each new echelon row is pushed along its edges once;
    the kernels give derivative spans, and D_{u+u'}f(x) = D_u f(x+u') +
    D_u' f(x), so the rows' spans carry the whole space's.  Rank d anywhere
    makes the family full.  So does a point of position 0 that ``full``
    flags (a bytearray or numpy bool array, only read) as having a full
    closure, since that closure lies in the family; a vector pushed there
    and its reduced form are both checked, and position 0 is served first.
    A proper family holds no flagged point, so it is never cut short, and
    it is the least fixpoint whatever the order.
    """
    spaces: list[dict[int, int]] = [{} for _ in edges]
    head = list(seeds)
    deep: list[tuple[int, int]] = []
    while head or deep:
        if head:
            h, v = 0, head.pop()
            if full[v]:
                return None
        else:
            h, v = deep.pop()
        rows = spaces[h]
        while v:
            p = v & -v
            q = rows.get(p)
            if q is None:
                break
            v ^= q
        if not v:
            continue
        if not h and full[v]:
            return None
        rows[p] = v
        if len(rows) == d:
            return None
        for target, kernel in edges[h]:
            if target:
                deep += [(target, w) for w in kernel(v)]
            else:
                head += kernel(v)
    return _reduced_rows(spaces[0].values())


def _joins(atoms: Iterable[tuple[int, ...]],
           d: int) -> Iterator[tuple[int, ...]]:
    """The atoms, then every other proper sum of them, each once, as
    reduced rows.

    A join adds one atom to a set already found, skipping an atom that set
    holds or that holds it.  Sums of closed families are closed (each
    closure's pair conditions are closed under sums), so there is no
    closing step: every proper sum is reached one atom at a time through
    sums inside it, and the search misses none of them.
    """
    found = list(dict.fromkeys(atoms))
    atoms = found[:]
    seen = set(found)
    yield from found
    for key in found:  # grows as joins are found
        for atom in atoms:
            rows = _reduced_rows(key + atom, limit=d - 1)
            if (rows is not None and len(rows) > max(len(key), len(atom))
                    and rows not in seen):
                seen.add(rows)
                found.append(rows)
                yield rows


@dataclass(frozen=True)
class Subspace:
    """A subspace of (F_2)^ambient with a canonical RREF basis.

    ``basis`` rows have strictly increasing pivot positions and each pivot
    column is zero in every other row, so two Subspace values are equal as
    dataclasses iff they are equal as subspaces.
    """

    basis: tuple[int, ...]
    ambient: int

    def __post_init__(self) -> None:
        if not 0 <= self.ambient <= AMBIENT_CAP:
            raise ValueError(f"ambient dimension {self.ambient} out of range")
        mask = (1 << self.ambient) - 1
        for row in self.basis:
            if row & ~mask:
                raise ValueError("basis row has bits beyond the ambient dimension")
        # The canonical form, checked in O(k): nonzero rows, pivots (lowest
        # set bits) strictly increasing, no pivot bit in another row.  Their
        # OR is kept for coset_rep.
        pivots = 0
        for row in self.basis:
            p = row & -row
            if p <= pivots:
                break
            pivots |= p
        else:
            if all(row & pivots == row & -row for row in self.basis):
                object.__setattr__(self, "_pivots", pivots)
                return
        raise ValueError("basis is not in canonical reduced echelon form")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coset_rep(self, v: int) -> int:
        """Canonical representative of v's coset (pivot bits cleared).  A
        pivot bit is set in its own row only, so the rows to add are those
        whose pivots v has: one step per such row, not one per row.  Rows
        are in pivot order, so the row of pivot p is the count of pivots
        below p."""
        pivots = self._pivots
        rest = v & pivots
        while rest:
            p = rest & -rest
            v ^= self.basis[(pivots & (p - 1)).bit_count()]
            rest ^= p
        return v

    def __contains__(self, v: int) -> bool:
        return self.coset_rep(v) == 0

    def elements(self) -> list[int]:
        """Every element, in the order of ``_span_elements``, which builds
        them as int64: rows must lie below bit 63."""
        return _span_elements(self.basis).tolist()

    def is_trivial(self) -> bool:
        return not 0 < len(self.basis) < self.ambient


def rref(vectors: Iterable[int], ambient: int) -> Subspace:
    """Canonicalize a spanning set into a Subspace."""
    return Subspace(_reduced_rows(vectors), ambient)


@dataclass(frozen=True)
class BitMatrix:
    """Matrix over GF(2); rows[i] is the image of basis vector e_i.

    The matrix represents a linear map (F_2)^nrows -> (F_2)^ncols applied as
    v @ M = XOR of rows selected by v's bits.
    """

    rows: tuple[int, ...]
    ncols: int

    def __post_init__(self) -> None:
        if not (_is_int(self.ncols) and 0 <= self.ncols <= AMBIENT_CAP
                and len(self.rows) <= AMBIENT_CAP):
            raise ValueError(f"ncols={self.ncols!r} or row count out of range")
        for row in dict(zip(map(type, self.rows), self.rows)).values():
            if not _is_int(row):  # one row per type is enough to test
                raise ValueError(f"matrix row {row!r} is not an integer")
        mask = (1 << self.ncols) - 1
        for row in self.rows:
            if row & ~mask:
                raise ValueError("matrix row has bits beyond ncols")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def apply(self, v: int) -> int:
        y = 0
        rows = self.rows
        while v:
            i = (v & -v).bit_length() - 1
            y ^= rows[i]
            v &= v - 1
        return y

    def mul(self, other: "BitMatrix") -> "BitMatrix":
        """self followed by other (row-vector convention: v(AB) = (vA)B)."""
        if self.ncols != other.nrows:
            raise ValueError("inner dimensions differ")
        return BitMatrix(tuple(other.apply(r) for r in self.rows), other.ncols)

    def rank(self) -> int:
        return len(_reduced_rows(self.rows))

    def is_invertible(self) -> bool:
        return self.nrows == self.ncols and self.rank() == self.nrows

    def inverse(self) -> "BitMatrix":
        n = self.nrows
        if n != self.ncols:
            raise ValueError("matrix is not square")
        # Gauss-Jordan on [A | I], one int per row: A in the low n bits, the
        # identity tag above.  A is invertible iff every reduced row keeps its
        # pivot in the A part; the row with pivot bit i is then e_i, and its
        # tag is the i-th row of the inverse.
        mask = (1 << n) - 1
        reduced = _reduced_rows(row | 1 << (n + i)
                                for i, row in enumerate(self.rows))
        if any(not row & mask for row in reduced):
            raise ValueError("matrix is singular")
        return BitMatrix(tuple(row >> n for row in reduced), n)


def identity_matrix(d: int) -> BitMatrix:
    return BitMatrix(tuple(1 << i for i in range(d)), d)


def random_invertible(rng: random.Random, d: int) -> BitMatrix:
    while True:
        rows = tuple(rng.getrandbits(d) for _ in range(d))
        m = BitMatrix(rows, d)
        if m.rank() == d:
            return m


def subspace_image(s: Subspace, m: BitMatrix) -> Subspace:
    """Image of a subspace under a linear map (dimension preserved iff m injective)."""
    if s.ambient != m.nrows:
        raise ValueError("subspace ambient does not match matrix input dimension")
    return rref((m.apply(r) for r in s.basis), m.ncols)


def gaussian_binomial(d: int, k: int) -> int:
    """Number of k-dimensional subspaces of (F_2)^d."""
    if not (_is_int(d) and _is_int(k)):
        raise ValueError(f"d={d!r} and k={k!r} must be integers")
    if k < 0 or k > d:
        return 0
    num = 1
    den = 1
    for i in range(k):
        num *= (1 << (d - i)) - 1
        den *= (1 << (i + 1)) - 1
    return num // den


def count_proper_subspaces(d: int) -> int:
    """Number of nontrivial subspaces (0 < dim < d)."""
    if not _is_int(d):
        raise ValueError(f"d={d!r} is not an integer")
    return sum(gaussian_binomial(d, k) for k in range(1, d))


_BLOCK_CHUNK = 1 << 14


def _iter_rref_blocks(d: int, k: int) -> Iterator[np.ndarray]:
    """The RREF bases of every k-dimensional subspace of (F_2)^d, in the
    canonical order, as int64 arrays of shape (n, k) with n <= ``_BLOCK_CHUNK``.

    The order: pivot-column sets lexicographically, then a block per pivot
    set.  The block's free slots are (row i, column c) with c right of row
    i's pivot and not itself a pivot column; bit s of the reflected Gray code
    g = t ^ (t >> 1) sets slot s of the block's t-th basis, so consecutive
    bases differ in one entry.  Blocks are cut into chunks so that memory
    stays flat however large the block.
    """
    for pivots in combinations(range(d), k):
        pivot_mask = sum(1 << p for p in pivots)
        slots = [(i, c)
                 for i in range(k)
                 for c in range(pivots[i] + 1, d)
                 if not (pivot_mask >> c) & 1]
        block = 1 << len(slots)
        pivot_rows = np.array([1 << p for p in pivots], dtype=np.int64)
        for t0 in range(0, block, _BLOCK_CHUNK):
            t = np.arange(t0, min(t0 + _BLOCK_CHUNK, block), dtype=np.int64)
            g = t ^ (t >> 1)
            rows = np.tile(pivot_rows, (len(t), 1))
            for s, (i, c) in enumerate(slots):
                rows[:, i] |= ((g >> s) & 1) << c
            yield rows


@dataclass(frozen=True)
class BrickLayout:
    """Splitting of (F_2)^d into b parallel bricks of m bits each.

    Brick i (1-based) occupies bit positions [(i-1)*m, i*m).
    """

    m: int
    b: int

    def __post_init__(self) -> None:
        if not (_is_int(self.m) and _is_int(self.b)):
            raise ValueError(f"m={self.m!r} and b={self.b!r} must be integers")
        if self.m < 2 or self.b < 2:
            raise ValueError("need m >= 2 and b >= 2")
        if self.m * self.b > AMBIENT_CAP:
            raise ValueError(f"total dimension {self.m * self.b} exceeds {AMBIENT_CAP}")

    @property
    def d(self) -> int:
        return self.m * self.b


def wall_subspace(layout: BrickLayout, mask: int) -> Subspace:
    """The wall whose bricks are the set bits of a b-bit brick mask (bit
    i - 1 for brick i): the direct sum of those bricks."""
    if not _is_int(mask):
        raise ValueError(f"brick mask {mask!r} is not an integer")
    if not 0 <= mask < 1 << layout.b:
        raise ValueError(f"brick mask {mask:#x} out of range for b={layout.b}")
    m = layout.m
    rows = [1 << (i * m + j)
            for i in range(layout.b) if mask >> i & 1 for j in range(m)]
    return Subspace(tuple(rows), layout.d)


def wall_brick_mask(s: Subspace, layout: BrickLayout) -> int | None:
    """The bricks of the wall that s is, as a b-bit mask (bit i - 1 for
    brick i), or None when s is not a wall.

    A subspace equals the direct sum of the bricks it touches iff its
    dimension is m times the number of touched bricks (containment in that
    direct sum is automatic).
    """
    if s.ambient != layout.d:
        raise ValueError("subspace ambient does not match layout")
    support = 0
    for row in s.basis:
        support |= row
    mask = _brick_support(support, layout.m)
    return mask if s.dim == layout.m * mask.bit_count() else None


def _brick_support(v: int, m: int) -> int:
    """The bricks (of m bits each) where v has support, as a mask with bit
    i - 1 for brick i."""
    brick, mask, bit = (1 << m) - 1, 0, 1
    while v:
        if v & brick:
            mask |= bit
        v >>= m
        bit <<= 1
    return mask


def _mask_bricks(mask: int) -> tuple[int, ...]:
    """The sorted 1-based bricks of a brick mask."""
    return tuple(j + 1 for j in range(mask.bit_length()) if (mask >> j) & 1)
