"""Differential and subspace-invariance measurements for invertible S-boxes.

All measurements are taken on the normalized box f(x) ^ f(0), so f(0) = 0
holds whenever it matters; derivatives are unchanged by the shift and the
shift itself is recorded on the SBox.  The subspace scans refuse work above
a configurable budget (counted in subspaces visited) instead of silently
running for hours on wide boxes.  The budget counts every subspace of a
dimension, although numpy rejects almost all of them before any scalar work
(``_violation_scan``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple, Sequence

import numpy as np

from .errors import CapExceeded
from .gf2 import (Subspace, _iter_rref_blocks, _reduced_rows, _span_elements,
                  gaussian_binomial)

__all__ = [
    "MAX_M",
    "ANTI_INVARIANCE_BUDGET",
    "SBox",
    "DDTable",
    "DerivativeImage",
    "SBoxReport",
    "ddt",
    "differential_uniformity",
    "min_derivative_image",
    "meets_min_image_bound",
    "walsh_row_extrema",
    "nonlinearity",
    "has_linear_component",
    "anti_invariance_scan_cost",
    "is_strongly_anti_invariant",
    "anti_invariance_order",
    "analyze_sbox",
]

MAX_M = 12
ANTI_INVARIANCE_BUDGET = 8_000_000


def _check_width(m: int) -> None:
    """Refuse an S-box width above MAX_M, before any table is built."""
    if m > MAX_M:
        raise ValueError(f"m={m} exceeds the supported maximum {MAX_M}")


@dataclass(frozen=True)
class SBox:
    """An invertible lookup table on m-bit values."""

    table: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.table)
        m = n.bit_length() - 1
        if n < 4 or n != 1 << m:
            raise ValueError(f"table length {n} is not a power of two >= 4")
        _check_width(m)
        if sorted(self.table) != list(range(n)):
            seen: set[int] = set()
            for i, y in enumerate(self.table):
                if not 0 <= y < n:
                    raise ValueError(f"entry {i} is {y}, outside [0, {n})")
                if y in seen:
                    raise ValueError(f"table is not a bijection (value {y:#x} repeats)")
                seen.add(y)
            raise ValueError("table is not a bijection")

    @property
    def m(self) -> int:
        return len(self.table).bit_length() - 1

    @property
    def shift(self) -> int:
        """f(0); folded out of the table by normalized()."""
        return self.table[0]

    def normalized(self) -> tuple[int, ...]:
        c = self.table[0]
        if c == 0:
            return self.table
        return tuple(y ^ c for y in self.table)

    def inverse_table(self) -> tuple[int, ...]:
        inv = [0] * len(self.table)
        for x, y in enumerate(self.table):
            inv[y] = x
        return tuple(inv)


@dataclass(frozen=True)
class DDTable:
    """Difference distribution table: counts[a][b] = #{x : f(x+a)+f(x) = b}."""

    m: int
    counts: np.ndarray

    def row_image_size(self, a: int) -> int:
        return int(np.count_nonzero(self.counts[a]))


class DerivativeImage(NamedTuple):
    size: int
    u: int


def ddt(box: SBox) -> DDTable:
    n = 1 << box.m
    tbl = np.array(box.table, dtype=np.int64)
    idx = np.arange(n, dtype=np.int64)
    counts = np.empty((n, n), dtype=np.int64)
    for a in range(n):
        counts[a] = np.bincount(tbl[idx ^ a] ^ tbl, minlength=n)
    return DDTable(box.m, counts)


def differential_uniformity(box: SBox, table: DDTable | None = None) -> int:
    """Max DDT entry over nonzero input differences (delta)."""
    if table is None:
        table = ddt(box)
    return int(table.counts[1:].max())


def min_derivative_image(box: SBox, table: DDTable | None = None) -> DerivativeImage:
    """Smallest |Im(x -> f(x+u)+f(x))| over nonzero u, with the minimizing u."""
    if table is None:
        table = ddt(box)
    sizes = np.count_nonzero(table.counts[1:], axis=1)
    u = int(sizes.argmin()) + 1
    return DerivativeImage(int(sizes[u - 1]), u)


def meets_min_image_bound(box: SBox, r: int, table: DDTable | None = None) -> bool:
    """Whether every nonzero derivative image is strictly larger than 2^(m-r)."""
    if not 1 <= r <= box.m:
        raise ValueError(f"r={r} out of range [1, {box.m}]")
    return min_derivative_image(box, table).size > (1 << (box.m - r))


_PARITY_CACHE: dict[int, np.ndarray] = {}


def _parity(n: int) -> np.ndarray:
    out = _PARITY_CACHE.get(n)
    if out is None:
        out = np.array([bin(x).count("1") & 1 for x in range(n)], dtype=np.int32)
        _PARITY_CACHE[n] = out
    return out


def walsh_row_extrema(box: SBox) -> np.ndarray:
    """max |W_c(a)| over a, for every component mask c (index = c).

    W_c(a) = sum_x (-1)^(<c, f(x)> + <a, x>), computed with an in-place
    butterfly per block of component rows.
    """
    m = box.m
    n = 1 << m
    f = np.array(box.normalized(), dtype=np.int64)
    par = _parity(n)
    out = np.empty(n, dtype=np.int64)
    chunk = max(1, (1 << 22) // n)
    for lo in range(0, n, chunk):
        comps = np.arange(lo, min(lo + chunk, n), dtype=np.int64)
        w = 1 - 2 * par[comps[:, None] & f[None, :]].astype(np.int64)
        h = 1
        while h < n:
            w = w.reshape(len(comps), n // (2 * h), 2, h)
            top = w[:, :, 0, :] + w[:, :, 1, :]
            bot = w[:, :, 0, :] - w[:, :, 1, :]
            w = np.stack([top, bot], axis=2)
            h *= 2
        out[lo:lo + len(comps)] = np.abs(w.reshape(len(comps), n)).max(axis=1)
    return out


def nonlinearity(box: SBox) -> int:
    n = 1 << box.m
    return (n >> 1) - int(walsh_row_extrema(box)[1:].max()) // 2


def has_linear_component(box: SBox) -> tuple[bool, int | None]:
    """Whether some nonzero component <c, f(x)> is a linear function of x.

    A component is linear exactly when its Walsh transform attains magnitude
    2^m at some mask; returns the smallest such c.
    """
    n = 1 << box.m
    extrema = walsh_row_extrema(box)
    hits = np.nonzero(extrema[1:] == n)[0]
    if len(hits) == 0:
        return (False, None)
    return (True, int(hits[0]) + 1)


def anti_invariance_scan_cost(m: int, r: int) -> int:
    """Number of subspaces a strong r-anti-invariance check must visit."""
    return sum(gaussian_binomial(m, k) for k in range(m - r, m))


def is_strongly_anti_invariant(box: SBox, r: int, *,
                               budget: int = ANTI_INVARIANCE_BUDGET
                               ) -> tuple[bool, tuple[Subspace, Subspace] | None]:
    """Strong r-anti-invariance: no subspace U with m-r <= dim(U) < m has
    f(U) equal to a subspace.

    Returns (True, None) or (False, (U, W)) with the first violating pair in
    scan order (dimensions descending, canonical subspace order within each).
    Since f is injective and normalized, f(U) is a subspace iff span(f(U))
    has the same dimension as U.  The scan tests that rank with the shared
    echelon routine, stopping once it exceeds dim U, but only on the
    subspaces that pass a cheaper necessary condition first: if f(U) = W
    is a subspace, then for basis rows a, b of U the sum f(a) + f(b) lies in
    W = f(U), so f^-1(f(a) + f(b)) lies in U.  Subspaces failing it for some
    pair cannot violate, and numpy discards them a block at a time.
    """
    m = box.m
    if not 1 <= r <= m - 1:
        raise ValueError(f"r={r} out of range [1, {m - 1}]")
    # Refuse on the whole scan's cost up front: _violation_scan spends its
    # budget dimension by dimension, so alone it could return a violation
    # found before the budget ran out.
    cost = anti_invariance_scan_cost(m, r)
    if cost > budget:
        raise CapExceeded(
            f"strong {r}-anti-invariance scan at m={m} refused",
            estimate=cost, limit=budget)
    _, pair, _ = _violation_scan(box.normalized(), m, m - r, budget)
    return (pair is None, pair)


def _violation_scan(table: Sequence[int], m: int, k_lo: int, budget: int,
                    refuse: bool = True):
    """Scan dims m-1 down to k_lo for a subspace mapped onto a subspace.

    Returns (k*, pair, k_done): the first violating dimension and witness
    pair (or None, None), plus the lowest dimension the scan completed.
    When the budget runs out first, either raises CapExceeded (refuse=True)
    or returns early with k_done reflecting the progress made.

    Each dimension's subspaces come in canonical order, a block of RREF
    bases at a time, and numpy discards almost all of them before any scalar
    work by a necessary condition.  If f(U) = W is a subspace and a, b are
    basis rows of U, then f(a) + f(b) lies in W = f(U), so, f being
    injective, f^-1(f(a) + f(b)) lies in U.  A basis whose pairs all pass is
    decided, still in canonical order, by the rank of span(f(U)): f is
    injective, so |f(U)| = 2^k and f(U) is a subspace exactly when that rank
    is k, and the echelon routine stops as soon as it exceeds k.  The first
    violation found is thus the one a scan of every subspace would find.
    At k = 2 the condition is exact (the preimage can only be a + b); at
    k = 1 there are no pairs and every subspace is a violation."""
    f = np.asarray(table, dtype=np.int64)
    f_inv = np.empty_like(f)
    f_inv[f] = np.arange(len(f), dtype=np.int64)
    spent = 0
    k_done = m
    for k in range(m - 1, k_lo - 1, -1):
        spent += gaussian_binomial(m, k)
        if spent > budget:
            if refuse:
                raise CapExceeded(
                    f"anti-invariance scan at m={m} refused at dimension {k}",
                    estimate=spent, limit=budget)
            return None, None, k_done
        pairs = list(combinations(range(k), 2))
        for bases in _iter_rref_blocks(m, k):
            pivots = (bases[0] & -bases[0]).tolist()
            for a, b in pairs:
                y = f_inv[f[bases[:, a]] ^ f[bases[:, b]]]
                # In RREF, y lies in U iff it is the sum of the rows whose
                # pivot bit it has.
                member = np.zeros_like(y)
                for i, p in enumerate(pivots):
                    member ^= np.where(y & p, bases[:, i], 0)
                bases = bases[member == y]
                if not len(bases):
                    break
            for rows in bases.tolist():
                w = _reduced_rows(f[_span_elements(rows)].tolist(), limit=k)
                if w is not None:
                    return k, (Subspace(tuple(rows), m), Subspace(w, m)), k_done
        k_done = k
    return None, None, k_done


def anti_invariance_order(box: SBox, *, max_r: int | None = None,
                          budget: int = ANTI_INVARIANCE_BUDGET) -> int:
    """Largest r in [1, m-1] for which the box is strongly r-anti-invariant,
    or 0 if none.

    The answer is determined by the largest violating dimension k*: the
    order is m-1-k*, or m-1 when no dimension violates (the property is
    monotone: the dim window [m-r, m) only grows with r).  ``max_r`` caps the
    certified answer, which keeps the scan shallow for wide boxes.
    """
    m = box.m
    if max_r is None:
        max_r = m - 1
    if not 1 <= max_r <= m - 1:
        raise ValueError(f"max_r={max_r} out of range [1, {m - 1}]")
    k_star, _, _ = _violation_scan(box.normalized(), m, m - max_r, budget)
    if k_star is None:
        return max_r
    return m - 1 - k_star


@dataclass(frozen=True)
class SBoxReport:
    m: int
    shift: int
    delta: int
    min_image: DerivativeImage
    nonlinearity: int
    linear_component: int | None
    anti_invariance_order: int | None
    order_is_exact: bool
    violation: tuple[Subspace, Subspace] | None


def analyze_sbox(box: SBox, *, max_r: int | None = None,
                 budget: int = ANTI_INVARIANCE_BUDGET) -> SBoxReport:
    """One-stop measurement report; the anti-invariance order degrades to a
    lower bound (order_is_exact=False) when the budget stops the scan."""
    m = box.m
    table = ddt(box)
    delta = differential_uniformity(box, table)
    mini = min_derivative_image(box, table)
    lin, mask = has_linear_component(box)
    if max_r is None:
        max_r = m - 1
    norm = box.normalized()
    k_star, pair, k_done = _violation_scan(norm, m, m - max_r, budget,
                                           refuse=False)
    order: int | None
    if k_star is not None:
        order = m - 1 - k_star
        exact = True
    elif k_done < m:
        # Dimensions m-1 .. k_done are all clean, certifying order >= m - k_done;
        # the answer is exact only if nothing below was left unscanned.
        order = m - k_done
        exact = k_done == 1
    else:
        # The very first dimension exceeded the budget.
        order = None
        exact = False
    return SBoxReport(
        m=m, shift=box.shift, delta=delta, min_image=mini,
        nonlinearity=nonlinearity(box),
        linear_component=mask if lin else None,
        anti_invariance_order=order, order_is_exact=exact,
        violation=pair)
