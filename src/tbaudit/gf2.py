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
at a time; every scan of subspaces (``enumerate_subspaces``, the S-box
anti-invariance scan, the chain search's dense fallback) iterates its blocks.

The rest of the package shares one kernel from here: ``_reduced_rows`` is the
echelon routine (spans, ranks, inverses and rank-bounded spans alike),
``_span_elements`` lists every element of a span as a numpy array (and
``Subspace.elements`` as a list), and ``_maps_cosets`` tests whether a lookup
table sends each coset of U into a coset of W, checking the basis rows of U
only.
``Subspace`` checks that a basis is canonical in O(k), without re-reducing it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Iterator

import numpy as np

from .errors import CapExceeded

__all__ = [
    "AMBIENT_CAP",
    "DEFAULT_ENUMERATION_CAP",
    "BitMatrix",
    "Subspace",
    "BrickLayout",
    "Wall",
    "rref",
    "subspace_sum",
    "subspace_image",
    "gaussian_binomial",
    "count_proper_subspaces",
    "enumerate_subspaces",
    "as_wall",
]

AMBIENT_CAP = 128
DEFAULT_ENUMERATION_CAP = 10


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


def _span_elements(rows: Iterable[int]) -> np.ndarray:
    """All elements of span(rows) as an int64 array; element i XORs the rows
    selected by the bits of i (the order of Subspace.elements)."""
    els = np.zeros(1, dtype=np.int64)
    for row in rows:
        els = np.concatenate([els, els ^ row])
    return els


def _maps_cosets(table: np.ndarray, u_rows: Iterable[int],
                 w_rows: Iterable[int]) -> bool:
    """Whether the lookup table maps every coset of span(u_rows) into a coset
    of span(w_rows), i.e. table[x ^ u] ^ table[x] lies in W for all x and u.
    A table with a row of images per point, one column per map, tests every
    map at once.

    Only the rows u of U are tested: D_{u+u'}f(x) = D_u f(x+u') + D_{u'}f(x)
    and W is closed under addition, so the rows' derivatives carry the rest.
    """
    n = len(table)
    in_w = np.zeros(n, dtype=bool)
    in_w[_span_elements(w_rows)] = True
    idx = np.arange(n, dtype=np.int64)
    return all(in_w[table[idx ^ u] ^ table].all() for u in u_rows)


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
        # set bits) strictly increasing, no pivot bit in another row.
        pivots = 0
        for row in self.basis:
            p = row & -row
            if p <= pivots:
                break
            pivots |= p
        else:
            if all(row & pivots == row & -row for row in self.basis):
                return
        raise ValueError("basis is not in canonical reduced echelon form")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coset_rep(self, v: int) -> int:
        """Canonical representative of v's coset (pivot bits cleared)."""
        for row in self.basis:
            if v & (row & -row):
                v ^= row
        return v

    def __contains__(self, v: int) -> bool:
        return self.coset_rep(v) == 0

    def elements(self) -> list[int]:
        """Every element, in the order of ``_span_elements``, which builds
        them as int64: rows must lie below bit 63."""
        return _span_elements(self.basis).tolist()

    def is_trivial(self) -> bool:
        return self.dim == 0 or self.dim == self.ambient


def rref(vectors: Iterable[int], ambient: int) -> Subspace:
    """Canonicalize a spanning set into a Subspace."""
    return Subspace(_reduced_rows(vectors), ambient)


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient != b.ambient:
        raise ValueError("ambient dimensions differ")
    return rref(a.basis + b.basis, a.ambient)


@dataclass(frozen=True)
class BitMatrix:
    """Matrix over GF(2); rows[i] is the image of basis vector e_i.

    The matrix represents a linear map (F_2)^nrows -> (F_2)^ncols applied as
    v @ M = XOR of rows selected by v's bits.
    """

    rows: tuple[int, ...]
    ncols: int

    def __post_init__(self) -> None:
        if not 0 <= self.ncols <= AMBIENT_CAP or len(self.rows) > AMBIENT_CAP:
            raise ValueError("matrix dimensions out of range")
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


def enumerate_subspaces(d: int, k: int, *,
                        cap: int = DEFAULT_ENUMERATION_CAP) -> Iterator[Subspace]:
    """All k-dimensional subspaces of (F_2)^d in canonical order.

    Refuses with CapExceeded when d exceeds ``cap`` (full enumeration cost
    grows like 2^(k(d-k))); the error carries the exact count that was
    requested.
    """
    if not 0 <= k <= d:
        raise ValueError(f"need 0 <= k <= d, got k={k} d={d}")
    if d > cap:
        raise CapExceeded(
            f"subspace enumeration at d={d} refused",
            estimate=gaussian_binomial(d, k), limit=cap)
    for bases in _iter_rref_blocks(d, k):
        for rows in bases.tolist():
            yield Subspace(tuple(rows), d)


@dataclass(frozen=True)
class BrickLayout:
    """Splitting of (F_2)^d into b parallel bricks of m bits each.

    Brick i (1-based) occupies bit positions [(i-1)*m, i*m).
    """

    m: int
    b: int

    def __post_init__(self) -> None:
        if self.m < 2 or self.b < 2:
            raise ValueError("need m >= 2 and b >= 2")
        if self.m * self.b > AMBIENT_CAP:
            raise ValueError(f"total dimension {self.m * self.b} exceeds {AMBIENT_CAP}")

    @property
    def d(self) -> int:
        return self.m * self.b

    def brick_mask(self, i: int) -> int:
        if not 1 <= i <= self.b:
            raise ValueError(f"brick index {i} out of range")
        return ((1 << self.m) - 1) << ((i - 1) * self.m)

    def bricks_of(self, v: int) -> frozenset[int]:
        """1-based indices of bricks where v has support."""
        out = []
        m = self.m
        i = 1
        while v:
            if v & ((1 << m) - 1):
                out.append(i)
            v >>= m
            i += 1
        return frozenset(out)


@dataclass(frozen=True)
class Wall(object):
    """Direct sum of a subset of bricks: the subspace spanned by their bits."""

    layout: BrickLayout
    bricks: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        for i in self.bricks:
            if not 1 <= i <= self.layout.b:
                raise ValueError(f"brick index {i} out of range")

    @property
    def is_proper(self) -> bool:
        return 0 < len(self.bricks) < self.layout.b

    @property
    def is_trivial(self) -> bool:
        return not self.is_proper

    def sorted_bricks(self) -> tuple[int, ...]:
        return tuple(sorted(self.bricks))

    def mask(self) -> int:
        out = 0
        for i in self.bricks:
            out |= self.layout.brick_mask(i)
        return out

    def subspace(self) -> Subspace:
        m = self.layout.m
        rows = [1 << ((i - 1) * m + j)
                for i in self.sorted_bricks() for j in range(m)]
        return Subspace(tuple(rows), self.layout.d)


def as_wall(s: Subspace, layout: BrickLayout) -> Wall | None:
    """Recognize a subspace as a wall, or return None.

    A subspace equals the direct sum of the bricks it touches iff its
    dimension is m times the number of touched bricks (containment in that
    direct sum is automatic).
    """
    if s.ambient != layout.d:
        raise ValueError("subspace ambient does not match layout")
    touched: set[int] = set()
    for row in s.basis:
        touched |= layout.bricks_of(row)
    if s.dim != layout.m * len(touched):
        return None
    return Wall(layout, frozenset(touched))
