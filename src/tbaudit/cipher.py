"""Translation-based cipher model and the partition-trapdoor audit.

A cipher here is a sequence of rounds, each one bricklayer substitution
(parallel S-boxes), one invertible mixing layer, one round-key XOR, with
independent round keys.  The trapdoor being audited is a chain of linear
partitions L(U_1) -> ... -> L(U_{l+1}) transported by the keyless round
maps; key addition never disturbs a linear partition, so such a chain works
for every key tuple at once.

Two search modes are provided.  The walls mode takes the walls that survive
the layer family (``mixing.family_strongly_proper``) and follows them all
through the mixing layers' wall tables (``mixing._wall_table``) at once
(complete for the family-not-strongly-proper case, where chains through
walls always exist).
The exhaustive mode is complete and capped at ``cap`` bits.  It closes every
nonzero seed under the rounds' forward and backward derivative spans, by
``gf2._seed_closure`` on a path of positions, and joins the distinct proper
closures' first positions U_1 by ``gf2._joins``; the group checks'
partition search uses the same engine and join.  Where the chain
lattice is so dense that the join would cost more than visiting every
subspace, it tries every nontrivial subspace of (F_2)^d as U_1 instead.
Either way one routine (``_push_heads``) pushes the U_1, a block of one
dimension at a time, through the rounds by the same spans to their chains:
per block and round, one ``_span_kernel`` call per distinct vector of the
block and one numpy echelon pass (``gf2._reduced_blocks``).  No route
builds a full-codebook table.

Derivative spans come from ``_span_kernel`` alone, the one routine that
splits a vector into its brick parts; it works brick by brick and without a
table, and its per-(brick, u_i) pieces sit in a cache bounded at
``_ROUND_TABLE_CACHE`` rounds.
Every full-codebook table is an XOR of per-brick pieces of 2^m entries and
is built from them brick by brick, in one pass over the 2^d points
(``_codebook_table``).  ``round_table`` is the one table cache, holding at
most ``_ROUND_TABLE_CACHE`` keyless round tables.

The audit itself is certificate-based: it reports Secure only when the
layer/brick hypotheses that provably exclude all chains hold, Vulnerable
only with a chain that re-verifies, and Inconclusive otherwise.  Every row
of the wall walk is a walls-mode chain (``_wall_walk``), so it counts the
rows and builds and fully re-verifies only the chain it reports.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import groupby
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import CapExceeded, SpecError
from .gf2 import (_BLOCK_CHUNK, BrickLayout, Subspace, _is_int,
                  _iter_rref_blocks, _joins, _maps_cosets, _reduced_blocks,
                  _reduced_rows, _seed_closure, _span_elements,
                  count_proper_subspaces, subspace_image, wall_brick_mask,
                  wall_subspace)
from .mixing import (FamilyReport, LayerFamily, MixingLayer, _popcount,
                     _wall_table, family_strongly_proper, is_strongly_proper)
from .sbox import (ANTI_INVARIANCE_BUDGET, DerivativeImage, SBox,
                   anti_invariance_scan_cost, ddt, differential_uniformity,
                   is_strongly_anti_invariant, min_derivative_image)
from . import presets

__all__ = [
    "MAX_TABLE_D",
    "DEFAULT_CHAIN_CAP",
    "SEMANTICS",
    "Round",
    "TbCipher",
    "PartitionChain",
    "BrickConditionReport",
    "RoundConditionReport",
    "AuditVerdict",
    "brick_condition",
    "encrypt",
    "substitution_table",
    "round_table",
    "encryption_table",
    "partition_image",
    "check_lemma_containment",
    "find_trapdoor_chains",
    "verify_chain",
    "chain_holds_under_key",
    "audit",
    "build_rotation_cipher",
    "build_present_toy_cipher",
    "build_secure_toy_cipher",
]

MAX_TABLE_D = 20
DEFAULT_CHAIN_CAP = 9
# The exhaustive search holds vectors in int64 arrays (``_iter_rref_blocks``,
# ``_push_heads``): below the sign bit, with one bit to spare.
_MAX_EXHAUSTIVE_D = 62

# Memo cache bounds: 16 round tables, one per round (4 MiB each at
# d = MAX_TABLE_D), cover every round that one audit touches.
_ROUND_TABLE_CACHE = 16
_BRICK_CONDITION_CACHE = 256

# Definition-resolution choices this implementation commits to; embedded in
# machine-readable reports so downstream consumers know what was checked.
SEMANTICS = {
    "strongly_proper": "image of every proper wall is not a wall (same or other)",
    "family_prefix_range": "j in [1, l-1]",
    "uniformity_exponent": "r = ceil(log2(delta)), required r < m",
    "degenerate_anti_invariance": "strong 0-anti-invariance is vacuously true",
    "normalization": "bricks are normalized to f(0)=0 for partition analysis",
}


@dataclass(frozen=True)
class Round:
    bricks: tuple[SBox, ...]
    layer: MixingLayer

    def __post_init__(self) -> None:
        layout = self.layer.layout
        if len(self.bricks) != layout.b:
            raise ValueError(
                f"round has {len(self.bricks)} bricks, layout needs {layout.b}")
        for i, box in enumerate(self.bricks):
            if box.m != layout.m:
                raise ValueError(
                    f"brick {i + 1} is {box.m}-bit, layout needs {layout.m}-bit")

    @property
    def layout(self) -> BrickLayout:
        return self.layer.layout


@dataclass(frozen=True)
class TbCipher:
    rounds: tuple[Round, ...]

    def __post_init__(self) -> None:
        if not self.rounds:
            raise ValueError("cipher has no rounds")
        layouts = {r.layout for r in self.rounds}
        if len(layouts) > 1:
            raise ValueError("rounds disagree on brick layout")

    @property
    def layout(self) -> BrickLayout:
        return self.rounds[0].layout

    @property
    def ell(self) -> int:
        return len(self.rounds)

    def layers(self) -> tuple[MixingLayer, ...]:
        return tuple(r.layer for r in self.rounds)


def _substitute(layout: BrickLayout, bricks: Sequence[SBox], x: int) -> int:
    m = layout.m
    mask = (1 << m) - 1
    y = 0
    for i, box in enumerate(bricks):
        y |= box.table[(x >> (i * m)) & mask] << (i * m)
    return y


def _check_key_tuple(cipher: TbCipher, keys: Sequence[int]) -> None:
    if len(keys) != cipher.ell:
        raise ValueError(f"expected {cipher.ell} round keys, got {len(keys)}")
    top = 1 << cipher.layout.d
    for k in keys:
        if not _is_int(k):
            raise ValueError(f"round key {k!r} is not an integer")
        if not 0 <= k < top:
            raise ValueError("round key out of range")


def encrypt(cipher: TbCipher, keys: Sequence[int], x: int) -> int:
    _check_key_tuple(cipher, keys)
    layout = cipher.layout
    if not (_is_int(x) and 0 <= x < 1 << layout.d):
        raise ValueError(f"plaintext {x!r} is not an integer in "
                         f"[0, 2^{layout.d})")
    for rnd, k in zip(cipher.rounds, keys):
        x = rnd.layer.matrix.apply(_substitute(layout, rnd.bricks, x)) ^ k
    return x


# ---------------------------------------------------------------------------
# Full-codebook tables (capped at MAX_TABLE_D bits).


def _require_table_width(d: int) -> None:
    if d > MAX_TABLE_D:
        raise CapExceeded(
            f"full-codebook table at d={d} refused",
            estimate=1 << d, limit=1 << MAX_TABLE_D)


def _codebook_table(layout: BrickLayout,
                    pieces: Iterable[np.ndarray]) -> np.ndarray:
    """Table of x -> T_1[x_1] ^ ... ^ T_b[x_b], where x_i is the i-th m-bit
    brick of x (brick 1 lowest) and T_i the i-th piece (2^m uint32 entries),
    built brick by brick in one pass: the table over the low i bricks grows
    to the low i + 1 by entry y * 2^(i*m) + z = T_{i+1}[y] ^ table[z].  The
    width is refused before any piece is made.  Read-only uint32, like every
    full-codebook table here."""
    _require_table_width(layout.d)
    tab = np.zeros(1, dtype=np.uint32)
    for piece in pieces:
        tab = (piece[:, None] ^ tab[None, :]).ravel()
    tab.setflags(write=False)
    return tab


def substitution_table(bricks: tuple[SBox, ...],
                       layout: BrickLayout) -> np.ndarray:
    """Lookup table of the normalized bricklayer alone (no mixing, no key),
    as uint32 (d <= MAX_TABLE_D): the piece of brick i is S_i(y) << i*m,
    with S_i normalized to S_i(0) = 0."""
    if len(bricks) != layout.b:
        raise ValueError(f"got {len(bricks)} bricks, layout needs {layout.b}")
    m = layout.m
    for i, box in enumerate(bricks):
        if box.m != m:
            raise ValueError(f"brick {i + 1} is {box.m}-bit, layout needs {m}-bit")
    return _codebook_table(layout, (
        np.array(box.normalized(), dtype=np.uint32) << (i * m)
        for i, box in enumerate(bricks)))


@lru_cache(maxsize=_ROUND_TABLE_CACHE)
def round_table(rnd: Round) -> np.ndarray:
    """Lookup table of the keyless round map f(x) = L(S(x)).  L is linear,
    so f(x) is the XOR over bricks i of L(S_i(x_i) << i*m), and the piece of
    brick i is the span table of L's rows i*m .. i*m + m - 1 gathered
    through S_i."""
    m, rows = rnd.layout.m, rnd.layer.matrix.rows
    return _codebook_table(rnd.layout, (
        _span_elements(rows[i * m:(i + 1) * m], np.uint32)[list(box.table)]
        for i, box in enumerate(rnd.bricks)))


def encryption_table(cipher: TbCipher, keys: Sequence[int]) -> np.ndarray:
    """Full codebook of the keyed cipher, uint32 like the round tables it
    is composed from."""
    _check_key_tuple(cipher, keys)
    state = round_table(cipher.rounds[0]) ^ keys[0]
    for rnd, k in zip(cipher.rounds[1:], keys[1:]):
        state = round_table(rnd)[state] ^ k
    return state


# ---------------------------------------------------------------------------
# Derivative spans, brick by brick (no table).


@lru_cache(maxsize=_ROUND_TABLE_CACHE)
def _span_kernel(rnd: Round, inverse: bool) -> Callable[[int], list[int]]:
    """u -> vectors spanning span(Im D_u f), where f is the keyless round
    f(x) = L(S(x)) (f^-1(y) = S^-1(L^-1(y)) with ``inverse``), from
    per-(brick, u_i) pieces built on first use; no table is built.

    Proof.  Let S have bricks S_i and u brick parts u_i.  D_u S(x) has brick
    parts D_{u_i}S_i(x_i), and the x_i vary independently, so
    Im D_u S = A_1 x ... x A_b with A_i = {S_i(x) + S_i(x + u_i)} ({0} when
    u_i = 0).  Fix a_i in A_i.  For a set A holding a, each x in A is
    (x + a) + a, so span(A) = span(A + a) + <a>.  Apply this to the product
    with a = (a_1, ..., a_b): each A_i + a_i holds 0, so their product spans
    the direct sum of their spans, and
    span(Im D_u S) = (+)_i span(A_i + a_i) + <(a_1, ..., a_b)>.  L is
    linear, so span(Im D_u f) is L of that.  Backward,
    D_w f^-1(z) = D_{L^-1 w} S^-1(L^-1 z) and L^-1 is onto, so the same
    formula on the inverse bricks at u = L^-1 w gives span(Im D_w f^-1),
    with no L after.  Constants added to a brick (normalization) cancel in
    every derivative.  The pieces depend only on (brick, u_i).
    """
    m = rnd.layout.m
    mask = (1 << m) - 1
    if inverse:
        pre, post = rnd.layer.matrix.inverse(), None
        tables = tuple(box.inverse_table() for box in rnd.bricks)
    else:
        pre, post = None, rnd.layer.matrix
        tables = tuple(box.table for box in rnd.bricks)
    pieces: dict[tuple[int, int], tuple[list[int], int]] = {}

    def piece(i: int, part: int) -> tuple[list[int], int]:
        t = tables[i]
        a = t[0] ^ t[part]
        rows = [r << (i * m) for r in
                _reduced_rows(t[x] ^ t[x ^ part] ^ a for x in range(1 << m))]
        a <<= i * m
        if post is not None:
            rows, a = [post.apply(r) for r in rows], post.apply(a)
        return rows, a

    def spanning(u: int) -> list[int]:
        if pre is not None:
            u = pre.apply(u)
        out: list[int] = []
        corner = 0
        i = 0
        while u:
            part = u & mask
            if part:
                got = pieces.get((i, part))
                if got is None:
                    got = pieces[(i, part)] = piece(i, part)
                out += got[0]
                corner ^= got[1]
            u >>= m
            i += 1
        out.append(corner)
        return out

    return spanning


# ---------------------------------------------------------------------------
# Linear partitions and their images.


def partition_image(table, u: Subspace) -> Subspace | None:
    """Image of the linear partition into cosets of u under an arbitrary
    permutation table.

    Returns W when the image partition is again linear, the cosets of W,
    else None.  The block U holds 0, so f(U) must be the coset f(0) + W and
    W the span of f(U) + f(0).  The scan checks that this span has
    dimension dim U (a table that is not a bijection may shrink it) and then
    that every block lands inside a single W-coset.
    """
    arr = np.asarray(table)
    n = len(arr)
    d = n.bit_length() - 1
    if n != 1 << d:
        raise ValueError("table length is not a power of two")
    _require_table_width(d)
    if u.ambient != d:
        raise ValueError("partition ambient does not match table width")
    k = u.dim
    if k == 0 or k == d:
        return u
    zero_block = arr[_span_elements(u.basis)] ^ arr[0]
    w_rows = _reduced_rows(zero_block.tolist(), limit=k)
    if (w_rows is None or len(w_rows) != k
            or not _maps_cosets(arr, u.basis, w_rows)):
        return None
    return Subspace(w_rows, d)


def check_lemma_containment(table, u: Subspace, w: Subspace) -> bool:
    """Whether every derivative image Im(x -> f(x+u') + f(x)), u' in U, is
    contained in W.  Requires f(0) = 0 (normalized map)."""
    arr = np.asarray(table)
    n = len(arr)
    d = n.bit_length() - 1
    if n != 1 << d or u.ambient != d or w.ambient != d:
        raise ValueError("dimension mismatch")
    if arr[0] != 0:
        raise ValueError("map is not normalized (f(0) != 0)")
    return _maps_cosets(arr, u.basis, w.basis)


# ---------------------------------------------------------------------------
# Trapdoor chains.


@dataclass(frozen=True)
class PartitionChain:
    """Subspaces U_1, ..., U_{l+1} with each keyless round mapping L(U_i) to
    L(U_{i+1}); all nontrivial, so the chain is usable as a trapdoor."""

    spaces: tuple[Subspace, ...]

    def __post_init__(self) -> None:
        if len(self.spaces) < 2:
            raise ValueError("chain needs at least two subspaces")
        ambients = {s.ambient for s in self.spaces}
        if len(ambients) > 1:
            raise ValueError("chain subspaces live in different dimensions")
        for s in self.spaces:
            if s.is_trivial():
                raise ValueError("chain contains a trivial subspace")


def _wall_walk(cipher: TbCipher, family: FamilyReport) -> np.ndarray:
    """The brick masks of the walls that survive the layer family (its report
    over the prefix range j in [1, l-1]), in lexicographic order, and of
    their images under each layer in turn: an (n, l+1) uint16 array, one row
    per wall, built through every layer's wall table at once.

    Every row is a chain.  A wall table maps the mask of W_I to that of the
    least wall holding lambda(W_I), so a link from W_I holds iff that wall
    touches |I| bricks (``verify_chain``), and a surviving wall keeps its
    brick count through every prefix j <= l - 1.  The last link maps onto
    lambda(U_l) itself when the last mask is no wall."""
    walk = [family.surviving_masks()]
    for rnd in cipher.rounds:
        walk.append(_wall_table(rnd.layer.brick_supports())[walk[-1]])
    return np.stack(walk, axis=1)


def _walk_chains(cipher: TbCipher, walk: np.ndarray) -> list[PartitionChain]:
    """One chain per row of a wall walk.  Each mask before the last is a
    wall; so is the last when it touches as many bricks as the first (see
    ``mixing``), and otherwise the last space is the image of the wall
    before it, computed from its basis."""
    layout = cipher.layout
    last = cipher.rounds[-1].layer.matrix
    # A wall recurs as the image of other walls: build each subspace once.
    wall_space = lru_cache(maxsize=1 << layout.b)(
        partial(wall_subspace, layout))
    ends_in_wall = _popcount(walk[:, -1]) == _popcount(walk[:, 0])
    chains = []
    for masks, is_wall in zip(walk.tolist(), ends_in_wall.tolist()):
        spaces = [wall_space(mask) for mask in masks[:-1]]
        spaces.append(wall_space(masks[-1]) if is_wall
                      else subspace_image(spaces[-1], last))
        chains.append(PartitionChain(tuple(spaces)))
    return chains


def _block_spans(spanning: Callable[[int], list[int]],
                 heads: np.ndarray) -> np.ndarray:
    """``spanning`` on every row of a block of heads at once: heads (n, k)
    -> (n, k * w), each head's rows' lists side by side, each list
    zero-padded to w, the longest.  ``spanning`` is called once per
    distinct vector of the block; a zero pad spans nothing."""
    n, k = heads.shape
    values, inverse = np.unique(heads, return_inverse=True)
    lists = [spanning(v) for v in values.tolist()]
    width = max(map(len, lists), default=0)
    padded = np.zeros((len(lists), width), dtype=np.int64)
    for row, vectors in zip(padded, lists):
        row[:len(vectors)] = vectors
    # inverse is flat on older numpy and shaped like heads on newer
    return padded[inverse].reshape(n, k * width)


def _push_block(kernels: Sequence[Callable[[int], list[int]]],
                heads: np.ndarray) -> np.ndarray:
    """The chains with U_1 = span(head) for a block of heads, the (n, k)
    int64 RREF bases of k-dimensional subspaces, in the heads' order: an
    array holding each chain as (l + 1, k) reduced rows.

    Each round pushes the block's last positions by their derivative spans
    (the round's forward ``_span_kernel``, gathered by ``_block_spans``) and
    drops a head once a span W outranks its U.  f is a bijection, so
    |W| >= |f(x + U)| = |U|, with equality exactly when (U, W) is a link
    (``_span_kernel``); a chain's U_1 therefore fixes the rest of it, and a
    head keeps its chain iff every span has rank k.
    """
    k = heads.shape[1]
    spaces = [heads]
    for spanning in kernels:
        rows, rank = _reduced_blocks(_block_spans(spanning, spaces[-1]), k)
        link = rank == k
        spaces = [s[link] for s in spaces] + [rows[link]]
    return np.stack(spaces, axis=1)


def _push_heads(cipher: TbCipher,
                blocks: Iterable[np.ndarray]) -> list[PartitionChain]:
    """Every chain whose U_1 is a head of ``blocks``, in (dim U_1, basis)
    order.  The blocks come grouped by dimension, ascending.  A group's
    blocks are joined until they hold ``_BLOCK_CHUNK`` heads and pushed
    together by the rounds' forward ``_span_kernel``s, and its chains are
    built as soon as it ends, each distinct subspace once."""
    kernels = [_span_kernel(rnd, False) for rnd in cipher.rounds]
    # A subspace recurs at other positions of other chains: build it once.
    space = lru_cache(maxsize=None)(partial(Subspace, ambient=cipher.layout.d))
    chains = []
    for _, group in groupby(blocks, key=lambda heads: heads.shape[1]):
        pushed = []
        batch: list[np.ndarray] = []
        for heads in group:
            batch.append(heads)
            if sum(map(len, batch)) >= _BLOCK_CHUNK:
                pushed.append(_push_block(kernels, np.concatenate(batch)))
                batch = []
        if batch:
            pushed.append(_push_block(kernels, np.concatenate(batch)))
        found = np.concatenate(pushed)
        # lexsort's last key is its first: sort by U_1's rows in order
        for spaces in found[np.lexsort(found[:, 0, ::-1].T)].tolist():
            chains.append(
                PartitionChain(tuple(map(space, map(tuple, spaces)))))
    return chains


def _proper_heads(d: int) -> Iterator[np.ndarray]:
    """The dense route: the RREF bases of every proper subspace as (n, k)
    int64 blocks, by dimension and then in the walk's order
    (``_iter_rref_blocks``)."""
    for k in range(1, d):
        yield from _iter_rref_blocks(d, k)


def _join_heads(atoms: Sequence[tuple[int, ...]],
                d: int) -> Iterator[np.ndarray]:
    """The join route: every proper sum of the atoms (``gf2._joins``) as one
    (n, k) int64 block per dimension k, ascending, in the join's order."""
    by_dim: dict[int, list[tuple[int, ...]]] = {}
    for rows in _joins(atoms, d):
        by_dim.setdefault(len(rows), []).append(rows)
    for k in sorted(by_dim):
        yield np.array(by_dim[k], dtype=np.int64)


def _seed_atoms(cipher: TbCipher) -> list[tuple[int, ...]]:
    """The distinct U_1 bases of the proper seed closures, in the order of
    their least seeds.

    The closure of a seed v is ``gf2._seed_closure`` on the path of
    positions V_1, ..., V_{l+1}, with edges h -> h+1 by round h's forward
    ``_span_kernel`` and h+1 -> h by its backward one.  At the fixpoint
    f_h(x + V_h) lies in f_h(x) + V_{h+1} and f_h^-1(y + V_{h+1}) in
    f_h^-1(y) + V_h, so |V_h| = |V_{h+1}|: it is the least chain through v,
    or full.  A flag per point records the seeds whose closure was full.
    """
    d = cipher.layout.d
    edges = [[(h + 1, _span_kernel(rnd, False))]
             for h, rnd in enumerate(cipher.rounds)] + [[]]
    for h, rnd in enumerate(cipher.rounds):
        edges[h + 1].append((h, _span_kernel(rnd, True)))
    full = bytearray(1 << d)
    atoms: dict[tuple[int, ...], None] = {}
    for seed in range(1, 1 << d):
        rows = _seed_closure((seed,), edges, full, d)
        if rows is None:
            full[seed] = 1
        else:
            atoms[rows] = None
    return list(atoms)


def find_trapdoor_chains(cipher: TbCipher, mode: str = "walls", *,
                         cap: int = DEFAULT_CHAIN_CAP) -> list[PartitionChain]:
    """Chains of nontrivial subspaces transported by the keyless rounds.

    walls mode: starts from every proper wall and requires each intermediate
    image (before the last round) to stay a wall; complete for the chains
    that exist whenever the layer family is not strongly proper.  One chain
    per surviving wall, in lexicographic order of the starting wall.

    exhaustive mode: complete, but refused above ``cap`` ambient bits, and
    above ``_MAX_EXHAUSTIVE_D`` bits whatever the cap.  It closes every
    nonzero seed (``_seed_atoms``: ``gf2._seed_closure`` on the path of
    rounds) and joins the U_1 of the A distinct proper closures
    (``gf2._joins``), which needs no closing step: componentwise
    sums of chains are chains (the pair conditions are closed under sums),
    U_1 fixes the rest of a chain, and a chain is the sum of the closures
    of its U_1's vectors, so the chains' U_1 are exactly the proper sums of
    the atoms.  The join costs about min(2^A - 1, N) * A span reductions
    against the N proper subspaces a scan visits, so when that estimate
    exceeds N (dense chain lattices, such as affine bricks) every proper
    subspace (``_proper_heads``) is tried instead.  Either route hands its
    U_1 bases, in int64 blocks of one dimension, to ``_push_heads``.  Round
    by round it gathers each block's derivative spans from ``_span_kernel``,
    one call per distinct vector, reduces them in one numpy echelon pass
    (``gf2._reduced_blocks``), and builds each distinct subspace once,
    without a table; the chains come in (dim U_1, basis) order.
    """
    if not _is_int(cap):
        raise ValueError(f"cap {cap!r} is not an integer")
    if mode == "walls":
        family = family_strongly_proper(LayerFamily(cipher.layers()))
        return _walk_chains(cipher, _wall_walk(cipher, family))
    if mode != "exhaustive":
        raise ValueError(f"unknown mode {mode!r}")
    d = cipher.layout.d
    n = count_proper_subspaces(d)
    if d > _MAX_EXHAUSTIVE_D:
        raise CapExceeded(
            f"exhaustive chain search at d={d} refused: its int64 vectors"
            f" hold at most {_MAX_EXHAUSTIVE_D} bits", estimate=n,
            limit=_MAX_EXHAUSTIVE_D)
    if d > cap:
        raise CapExceeded(
            f"exhaustive chain search at d={d} refused: above the {cap}-bit"
            f" cap; a cap of {d} admits it", estimate=n, limit=cap)
    atoms = _seed_atoms(cipher)
    if not atoms:  # every chain's U_1 is a sum of atoms
        return []
    dense = min((1 << len(atoms)) - 1, n) * len(atoms) > n
    return _push_heads(cipher, _proper_heads(d) if dense
                       else _join_heads(atoms, d))


def verify_chain(cipher: TbCipher, chain: PartitionChain) -> bool:
    """Re-derive every link of a chain against the cipher.

    Every link needs dim U = dim V.  Links from a wall are verified
    structurally: a bricklayer of bijective bricks maps every coset of a
    wall U onto a coset of U, so the round maps the cosets of U onto those
    of lambda(U), lambda its mixing layer.  The link holds iff lambda(U) =
    V; lambda is invertible, so that is lambda(U) in V, checked on the
    basis rows of U.
    A non-wall link is one coset test on the full-codebook round table, so
    it requires d <= MAX_TABLE_D: the round is a bijection, so mapping each
    coset of U into a coset of V of the same size maps it onto one.
    """
    layout = cipher.layout
    if len(chain.spaces) != cipher.ell + 1:
        return False
    if any(s.ambient != layout.d for s in chain.spaces):
        return False
    for h, rnd in enumerate(cipher.rounds):
        cur, nxt = chain.spaces[h], chain.spaces[h + 1]
        if cur.dim != nxt.dim:
            return False
        if wall_brick_mask(cur, layout) is not None:
            apply = rnd.layer.matrix.apply
            if not all(apply(r) in nxt for r in cur.basis):
                return False
        elif not _maps_cosets(round_table(rnd), cur.basis, nxt.basis):
            return False
    return True


def chain_holds_under_key(cipher: TbCipher, chain: PartitionChain,
                          keys: Sequence[int]) -> bool:
    """Whether the keyed cipher maps L(U_1) to L(U_{l+1})."""
    d = cipher.layout.d
    if len(chain.spaces) != cipher.ell + 1 or chain.spaces[0].ambient != d:
        raise ValueError(
            f"chain of {len(chain.spaces)} spaces in (F_2)^"
            f"{chain.spaces[0].ambient} does not fit a {cipher.ell}-round "
            f"cipher on {d} bits")
    table = encryption_table(cipher, keys)
    return _maps_cosets(table, chain.spaces[0].basis, chain.spaces[-1].basis)


# ---------------------------------------------------------------------------
# The audit.


@dataclass(frozen=True)
class BrickConditionReport:
    brick_index: int
    delta: int
    min_image_size: int
    route: str
    r: int | None
    anti_ok: bool | None
    ok: bool
    detail: str


@dataclass(frozen=True)
class RoundConditionReport:
    round_index: int
    bricks: tuple[BrickConditionReport, ...]

    @property
    def ok(self) -> bool:
        return all(b.ok for b in self.bricks)


@dataclass(frozen=True)
class AuditVerdict:
    status: str  # "secure" | "vulnerable" | "inconclusive"
    clause1_round: int | None
    clause2_ok: bool
    strongly_proper_layers: tuple[bool, ...]
    family: FamilyReport
    rounds: tuple[RoundConditionReport, ...]
    chain: PartitionChain | None
    chain_count: int
    exhaustive_ran: bool
    exhaustive_empty: bool | None
    condition_1prime: bool
    notes: tuple[str, ...]

    @property
    def clause1_ok(self) -> bool:
        return self.clause1_round is not None


@lru_cache(maxsize=_BRICK_CONDITION_CACHE)
def _brick_conditions(box: SBox, use_1prime: bool,
                      budget: int) -> BrickConditionReport:
    table = ddt(box)
    return brick_condition(box, differential_uniformity(box, table),
                           min_derivative_image(box, table), use_1prime,
                           budget)


def brick_condition(box: SBox, delta: int, mini: DerivativeImage,
                    use_1prime: bool, budget: int, order: int | None = None,
                    requested_r: int | None = None) -> BrickConditionReport:
    """The brick condition of ``audit`` from the box's measured delta and
    minimum derivative image, and its exact anti-invariance order when
    known.  r is the least exponent with delta <= 2^r, or with
    ``use_1prime`` a minimum image above 2^(m-r); a ``requested_r`` is
    checked against that bound instead.  Strong (r-1)-anti-invariance is
    checked only when the bound holds."""
    m = box.m
    route = "min-image" if use_1prime else "uniformity"
    r: int | None
    if requested_r is not None:
        if not 1 <= requested_r < m:
            raise SpecError(f"r must be in [1, {m - 1}], got {requested_r}")
        holds = (mini.size > (1 << (m - requested_r)) if use_1prime
                 else delta <= (1 << requested_r))
        r = requested_r if holds else None
        r_text = (f"requested r={requested_r}: bound "
                  f"{'holds' if holds else 'fails'}")
    elif use_1prime:
        r = next((c for c in range(1, m) if mini.size > (1 << (m - c))), None)
        r_text = (f"min image {mini.size} > 2^({m}-{r})" if r is not None
                  else f"min image {mini.size} supports no exponent r < {m}")
    else:
        r = (delta - 1).bit_length()
        if r >= m:
            r_text = f"delta={delta} needs exponent r={r}, not below m={m}"
            r = None
        else:
            r_text = f"delta={delta} <= 2^{r}"
    anti_ok: bool | None = None
    if r == 1:
        anti_ok = True
    elif r is not None:
        # The order decides it (the property holds exactly for r - 1 up to
        # the order) without a scan, unless the scan would be refused.
        if order is not None and anti_invariance_scan_cost(m, r - 1) <= budget:
            anti_ok = r - 1 <= order
        else:
            anti_ok = is_strongly_anti_invariant(box, r - 1, budget=budget)[0]
    if requested_r is None:
        if r is None:
            anti_text = "anti-invariance not evaluated"
        elif r == 1:
            anti_text = "strong 0-anti-invariance holds vacuously"
        else:
            anti_text = (f"strongly {r - 1}-anti-invariant: "
                         f"{'yes' if anti_ok else 'no'}")
        r_text = f"{r_text}; {anti_text}"
    return BrickConditionReport(
        brick_index=0, delta=delta, min_image_size=mini.size, route=route,
        r=r, anti_ok=anti_ok, ok=bool(anti_ok), detail=r_text)


def audit(cipher: TbCipher, *, use_condition1prime: bool = False,
          anti_budget: int = ANTI_INVARIANCE_BUDGET,
          exhaustive_fallback_cap: int = 0) -> AuditVerdict:
    """Certificate-based audit for the partition trapdoor.

    Secure requires one of two sufficient clauses: (1) some round h < l has
    a strongly proper layer and both round h and round h+1 have bricks that
    are 2^r-uniform (r < m) and strongly (r-1)-anti-invariant, or (2) the
    whole layer family is strongly proper and every round's bricks satisfy
    those conditions.  Vulnerable requires a verified chain (the walls-mode
    search finds one whenever the family is not strongly proper).  Anything
    else is Inconclusive; an empty search is never promoted to Secure.

    With ``use_condition1prime`` the per-brick uniformity bound is replaced
    by the measured minimum derivative-image size, which can certify boxes
    whose delta is too coarse.  ``exhaustive_fallback_cap`` >= d opts in to
    running the exhaustive search when the clauses fail and the walls search
    is empty; a chain found that way still yields Vulnerable.
    """
    layout = cipher.layout
    ell = cipher.ell
    notes: list[str] = []
    strong = {layer: is_strongly_proper(layer)[0]
              for layer in set(cipher.layers())}
    sp = tuple(strong[layer] for layer in cipher.layers())
    rounds = []
    for h, rnd in enumerate(cipher.rounds):
        bricks = tuple(
            dataclasses.replace(
                _brick_conditions(box, use_condition1prime, anti_budget),
                brick_index=i + 1)
            for i, box in enumerate(rnd.bricks))
        rounds.append(RoundConditionReport(round_index=h + 1, bricks=bricks))
    rounds_t = tuple(rounds)
    clause1_round = None
    for h in range(ell - 1):
        if sp[h] and rounds_t[h].ok and rounds_t[h + 1].ok:
            clause1_round = h + 1
            break
    family = family_strongly_proper(LayerFamily(cipher.layers()))
    clause2 = family.strongly_proper and all(rep.ok for rep in rounds_t)
    verdict = partial(
        AuditVerdict, clause1_round=None, clause2_ok=False,
        strongly_proper_layers=sp, family=family, rounds=rounds_t, chain=None,
        chain_count=0, exhaustive_ran=False, exhaustive_empty=None,
        condition_1prime=use_condition1prime)
    if clause1_round is not None:
        notes.append(
            f"round {clause1_round} is strongly proper and rounds "
            f"{clause1_round},{clause1_round + 1} satisfy the brick conditions")
    if clause2:
        notes.append("layer family is strongly proper and every round "
                     "satisfies the brick conditions")
    if clause1_round is not None or clause2:
        return verdict(status="secure", clause1_round=clause1_round,
                       clause2_ok=clause2, notes=tuple(notes))
    walk = _wall_walk(cipher, family)
    chains = _walk_chains(cipher, walk[:1])
    if not family.strongly_proper:
        notes.append(
            f"{len(family.surviving_masks())} proper wall(s) survive every "
            f"prefix of the layer family")
    for rep in rounds_t:
        for brick in rep.bricks:
            if not brick.ok:
                notes.append(
                    f"round {rep.round_index} brick {brick.brick_index}: "
                    f"{brick.detail}")
    if chains and verify_chain(cipher, chains[0]):
        return verdict(status="vulnerable", chain=chains[0],
                       chain_count=len(walk), notes=tuple(notes))
    if exhaustive_fallback_cap < layout.d:
        return verdict(status="inconclusive", notes=tuple(notes))
    deep = find_trapdoor_chains(cipher, "exhaustive",
                                cap=exhaustive_fallback_cap)
    if deep:
        notes.append("chain found by the exhaustive search")
        return verdict(status="vulnerable", chain=deep[0],
                       chain_count=len(deep), exhaustive_ran=True,
                       exhaustive_empty=False, notes=tuple(notes))
    notes.append("exhaustive chain search found nothing; absence of a "
                 "chain is not a security certificate")
    return verdict(status="inconclusive", exhaustive_ran=True,
                   exhaustive_empty=True, notes=tuple(notes))


# ---------------------------------------------------------------------------
# Reference ciphers.


def build_rotation_cipher(m: int, b: int, ell: int) -> TbCipher:
    """Field-inversion bricks with the brick-rotation layer: proper mixing
    in every round, yet every wall image is again a wall, so the partition
    trapdoor applies for any number of rounds."""
    if not _is_int(ell):
        raise ValueError(f"round count ell={ell!r} is not an integer")
    if ell < 1:
        raise ValueError("need at least one round")
    layout = BrickLayout(m, b)
    box = presets.inversion_sbox(m)
    rnd = Round((box,) * b, presets.rotation_layer(layout))
    return TbCipher((rnd,) * ell)


@lru_cache(maxsize=None)
def _toy_layer(m: int, b: int) -> MixingLayer:
    return presets.find_strongly_proper_layer(BrickLayout(m, b), seed=0)


def build_present_toy_cipher(ell: int = 3) -> TbCipher:
    """PRESENT bricks under a strongly proper layer; audits Secure."""
    box = presets.present_sbox()
    rnd = Round((box, box), _toy_layer(4, 2))
    return TbCipher((rnd,) * ell)


def build_secure_toy_cipher(ell: int = 2) -> TbCipher:
    """3-bit inversion bricks under a strongly proper layer; audits Secure."""
    box = presets.inversion_sbox(3)
    rnd = Round((box, box), _toy_layer(3, 2))
    return TbCipher((rnd,) * ell)

