"""Translation-based cipher model and the partition-trapdoor audit.

A cipher here is a sequence of rounds, each one bricklayer substitution
(parallel S-boxes), one invertible mixing layer, one round-key XOR, with
independent round keys.  The trapdoor being audited is a chain of linear
partitions L(U_1) -> ... -> L(U_{l+1}) transported by the keyless round
maps; key addition never disturbs a linear partition, so such a chain works
for every key tuple at once.

Two search modes are provided.  The walls mode takes the walls that survive
the layer family (``mixing.family_strongly_proper``) and follows each through
the mixing layers with ``mixing``'s single wall walker (complete for the
family-not-strongly-proper case, where chains through walls always exist).
The exhaustive mode is complete and capped at ``cap`` bits.  It closes every
nonzero seed under the rounds' forward and backward derivative spans and
joins the distinct proper closures; where the chain lattice is so dense that
the join would cost more than visiting every subspace, it scans every
nontrivial subspace of (F_2)^d instead and pushes each through the rounds
by the same spans.  Neither route builds a full-codebook table.

Derivative spans come from ``derivative_span``, brick by brick and without a
table; its per-(brick, u_i) pieces and each round's inverse (``decrypt``
uses it too) sit in caches bounded at ``_ROUND_TABLE_CACHE`` rounds.
Full-codebook tables are built per keyless round by ``round_table``, the one
table cache, which holds at most ``_ROUND_TABLE_CACHE`` tables; the
substitution and mixing tables it is made from are not kept.

The audit itself is certificate-based: it reports Secure only when the
layer/brick hypotheses that provably exclude all chains hold, Vulnerable
only with a chain that re-verifies, and Inconclusive otherwise.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import CapExceeded
from .gf2 import (BitMatrix, BrickLayout, Subspace, _iter_rref_blocks,
                  _maps_cosets, _reduced_rows, _span_elements, as_wall,
                  count_proper_subspaces, subspace_image)
from .mixing import (FamilyReport, LayerFamily, MixingLayer, _mask_wall,
                     _wall_images, family_strongly_proper, is_strongly_proper)
from .sbox import (ANTI_INVARIANCE_BUDGET, DerivativeImage, SBox, ddt,
                   differential_uniformity, is_strongly_anti_invariant,
                   min_derivative_image)
from . import presets

__all__ = [
    "MAX_TABLE_D",
    "DEFAULT_CHAIN_CAP",
    "SEMANTICS",
    "Round",
    "TbCipher",
    "LinearPartition",
    "PartitionChain",
    "BrickConditionReport",
    "RoundConditionReport",
    "AuditVerdict",
    "encrypt",
    "decrypt",
    "substitution_table",
    "round_table",
    "encryption_table",
    "derivative_span",
    "partition_image",
    "check_lemma_containment",
    "find_trapdoor_chains",
    "verify_chain",
    "chain_holds_under_key",
    "audit",
    "build_rotation_cipher",
    "build_present_toy_cipher",
    "build_secure_toy_cipher",
    "build_linear_toy_cipher",
]

MAX_TABLE_D = 20
DEFAULT_CHAIN_CAP = 9

# Memo cache bounds: 16 round tables, one per round (8 MiB each at
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
        if not 0 <= k < top:
            raise ValueError("round key out of range")


def encrypt(cipher: TbCipher, keys: Sequence[int], x: int) -> int:
    _check_key_tuple(cipher, keys)
    layout = cipher.layout
    for rnd, k in zip(cipher.rounds, keys):
        x = rnd.layer.matrix.apply(_substitute(layout, rnd.bricks, x)) ^ k
    return x


def decrypt(cipher: TbCipher, keys: Sequence[int], y: int) -> int:
    _check_key_tuple(cipher, keys)
    layout = cipher.layout
    m = layout.m
    mask = (1 << m) - 1
    for rnd, k in zip(reversed(cipher.rounds), reversed(list(keys))):
        lin_inv, inv_tables = _round_inverse(rnd)
        y = lin_inv.apply(y ^ k)
        x = 0
        for i, inv in enumerate(inv_tables):
            x |= inv[(y >> (i * m)) & mask] << (i * m)
        y = x
    return y


@lru_cache(maxsize=_ROUND_TABLE_CACHE)
def _round_inverse(rnd: Round
                   ) -> tuple[BitMatrix, tuple[tuple[int, ...], ...]]:
    """L^-1 and the inverse brick tables of a round."""
    return (rnd.layer.matrix.inverse(),
            tuple(box.inverse_table() for box in rnd.bricks))


# ---------------------------------------------------------------------------
# Full-codebook tables (capped at MAX_TABLE_D bits).


def _require_table_width(d: int) -> None:
    if d > MAX_TABLE_D:
        raise CapExceeded(
            f"full-codebook table at d={d} refused",
            estimate=1 << d, limit=1 << MAX_TABLE_D)


def substitution_table(bricks: tuple[SBox, ...], layout: BrickLayout,
                       normalized: bool = True) -> np.ndarray:
    """Lookup table of the bricklayer alone (no mixing, no key)."""
    d = layout.d
    _require_table_width(d)
    if len(bricks) != layout.b:
        raise ValueError(f"got {len(bricks)} bricks, layout needs {layout.b}")
    n = 1 << d
    m = layout.m
    idx = np.arange(n, dtype=np.int64)
    sub = np.zeros(n, dtype=np.int64)
    for i, box in enumerate(bricks):
        if box.m != m:
            raise ValueError(f"brick {i + 1} is {box.m}-bit, layout needs {m}-bit")
        t = box.normalized() if normalized else box.table
        bt = np.array(t, dtype=np.int64)
        sub |= bt[(idx >> (i * m)) & ((1 << m) - 1)] << (i * m)
    sub.setflags(write=False)
    return sub


@lru_cache(maxsize=_ROUND_TABLE_CACHE)
def round_table(rnd: Round) -> np.ndarray:
    """Lookup table of the keyless round map f(x) = L(S(x))."""
    sub = substitution_table(rnd.bricks, rnd.layout, normalized=False)
    out = _span_elements(rnd.layer.matrix.rows)[sub]
    out.setflags(write=False)
    return out


def encryption_table(cipher: TbCipher, keys: Sequence[int]) -> np.ndarray:
    """Full codebook of the keyed cipher."""
    _check_key_tuple(cipher, keys)
    _require_table_width(cipher.layout.d)
    state = np.arange(1 << cipher.layout.d, dtype=np.int64)
    for rnd, k in zip(cipher.rounds, keys):
        state = round_table(rnd)[state] ^ k
    return state


# ---------------------------------------------------------------------------
# Derivative spans, brick by brick (no table).


@lru_cache(maxsize=_ROUND_TABLE_CACHE)
def _span_kernel(rnd: Round, inverse: bool) -> Callable[[int], list[int]]:
    """u -> vectors spanning span(Im D_u f) (f^-1 with ``inverse``), from
    per-(brick, u_i) pieces built on first use; see ``derivative_span``."""
    m = rnd.layout.m
    mask = (1 << m) - 1
    if inverse:
        pre, tables = _round_inverse(rnd)
        post = None
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


def derivative_span(rnd: Round, rows: Iterable[int],
                    inverse: bool = False) -> tuple[int, ...]:
    """Reduced basis of the span of Im D_u f over the rows u, where f is the
    keyless round f(x) = L(S(x)) (f^-1(y) = S^-1(L^-1(y)) with ``inverse``);
    no table is built.

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
    spanning = _span_kernel(rnd, inverse)
    return _reduced_rows(v for u in rows for v in spanning(u))


# ---------------------------------------------------------------------------
# Linear partitions and their images.


@dataclass(frozen=True)
class LinearPartition:
    """The partition of (F_2)^d into cosets of a subspace."""

    subspace: Subspace

    @property
    def nontrivial(self) -> bool:
        return not self.subspace.is_trivial()


def partition_image(table, part: LinearPartition) -> LinearPartition | None:
    """Image of a linear partition under an arbitrary permutation table.

    Returns L(W) when the image partition is again linear, else None.  The
    zero block of the image must be the image of the block containing the
    preimage of 0; the scan checks that it is a subspace W (span size equals
    block size) and then that every block lands inside a single W-coset.
    """
    arr = np.asarray(table, dtype=np.int64)
    n = len(arr)
    d = n.bit_length() - 1
    if n != 1 << d:
        raise ValueError("table length is not a power of two")
    _require_table_width(d)
    u = part.subspace
    if u.ambient != d:
        raise ValueError("partition ambient does not match table width")
    k = u.dim
    if k == 0 or k == d:
        return part
    x0 = int(np.nonzero(arr == 0)[0][0])
    zero_block = arr[_span_elements(u.basis) ^ x0]
    w_rows = _reduced_rows(zero_block.tolist(), limit=k)
    if (w_rows is None or len(w_rows) != k
            or not _maps_cosets(arr, u.basis, w_rows)):
        return None
    return LinearPartition(Subspace(w_rows, d))


def check_lemma_containment(table, u: Subspace, w: Subspace) -> bool:
    """Whether every derivative image Im(x -> f(x+u') + f(x)), u' in U, is
    contained in W.  Requires f(0) = 0 (normalized map)."""
    arr = np.asarray(table, dtype=np.int64)
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


def _walls_mode_chains(cipher: TbCipher, family: FamilyReport | None = None
                       ) -> list[PartitionChain]:
    """One chain per wall that survives the layer family, in lexicographic
    order of the starting wall.  ``family`` is the family's report over the
    default prefix range j in [1, l-1]; it is computed when not given."""
    if family is None:
        family = family_strongly_proper(LayerFamily(cipher.layers()))
    layout = cipher.layout
    supports = [rnd.layer.brick_supports() for rnd in cipher.rounds[:-1]]
    last = cipher.rounds[-1].layer.matrix
    # A wall recurs as the image of other walls: build each subspace once.
    wall_space = lru_cache(maxsize=1 << layout.b)(
        lambda mask: _mask_wall(layout, mask).subspace())
    chains = []
    for bricks in family.surviving_walls():
        mask = sum(1 << (i - 1) for i in bricks)
        spaces = [wall_space(img) for img in _wall_images(supports, mask)]
        spaces.append(subspace_image(spaces[-1], last))
        chains.append(PartitionChain(tuple(spaces)))
    return chains


def _scan_chains(cipher: TbCipher) -> list[PartitionChain]:
    """The dense fallback: push every proper subspace U through the rounds
    by derivative spans, dropping U once a span W outranks it.  f is a
    bijection, so |W| >= |f(x + U)| = |U|, with equality exactly when
    (U, W) is a link (``derivative_span``)."""
    d = cipher.layout.d
    kernels = [_span_kernel(rnd, False) for rnd in cipher.rounds]
    chains = []
    for k in range(1, d):
        for bases in _iter_rref_blocks(d, k):
            for rows in bases.tolist():
                spaces = [tuple(rows)]
                for spanning in kernels:
                    w_rows = _reduced_rows(
                        (v for u in spaces[-1] for v in spanning(u)), limit=k)
                    if w_rows is None:
                        break
                    spaces.append(w_rows)
                else:
                    chains.append(PartitionChain(
                        tuple(Subspace(s, d) for s in spaces)))
    return chains


def _seed_atoms(cipher: TbCipher
                ) -> dict[tuple[int, ...], list[dict[int, int]]]:
    """The distinct proper seed closures, keyed by their U_1 basis.

    The closure of a seed v is the least family of spaces V_1, ..., V_{l+1}
    with v in V_1, span(D_u f_h) in V_{h+1} for u in V_h and span(D_w f_h^-1)
    in V_h for w in V_{h+1}.  At the fixpoint each pair (V_h, V_{h+1}) has
    f_h(x + V_h) in f_h(x) + V_{h+1} and f_h^-1(y + V_{h+1}) in
    f_h^-1(y) + V_h, so |V_h| = |V_{h+1}|: it is the least chain through v,
    or the whole space once any position reaches rank d.  Each new echelon
    row is pushed both ways once; D_{u+u'}f(x) = D_u f(x+u') + D_u' f(x), so
    the rows' derivative spans carry the whole space's.
    """
    d = cipher.layout.d
    ell = cipher.ell
    fwd = [_span_kernel(rnd, False) for rnd in cipher.rounds]
    bwd = [_span_kernel(rnd, True) for rnd in cipher.rounds]
    atoms: dict[tuple[int, ...], list[dict[int, int]]] = {}
    for seed in range(1, 1 << d):
        spaces: list[dict[int, int]] = [{} for _ in range(ell + 1)]
        todo = [(0, seed)]
        while todo:
            h, v = todo.pop()
            rows = spaces[h]
            while v:
                p = v & -v
                q = rows.get(p)
                if q is None:
                    break
                v ^= q
            if not v:
                continue
            rows[p] = v
            if len(rows) == d:
                break
            if h < ell:
                todo += [(h + 1, w) for w in fwd[h](v)]
            if h:
                todo += [(h - 1, w) for w in bwd[h - 1](v)]
        else:
            atoms.setdefault(_reduced_rows(spaces[0].values()), spaces)
    return atoms


def _join_atoms(atoms: dict[tuple[int, ...], list[dict[int, int]]], d: int
                ) -> list[PartitionChain]:
    """Every proper sum of the atoms, as chains.

    Componentwise sums of chains are chains (the pair conditions are closed
    under sums), U_1 fixes the rest of a chain, and a chain is the sum of the
    closures of its U_1's vectors, each an atom.  So the chains are exactly
    the proper sums of the atoms, and positions of a chain all have the same
    dimension.  The join therefore runs on U_1 alone; each sum found records
    one parent and one atom, from which its other positions are summed at
    the end.
    """
    keys = list(atoms)
    found: dict[tuple[int, ...], tuple[tuple[int, ...], int] | None] = {
        key: None for key in keys}
    frontier = keys
    while frontier:
        grown = []
        for key in frontier:
            for j, atom in enumerate(keys):
                joined = _reduced_rows(key + atom)
                if len(joined) < d and joined not in found:
                    found[joined] = (key, j)
                    grown.append(joined)
        frontier = grown
    positions: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for key, parent in found.items():
        if parent is None:
            positions[key] = [_reduced_rows(rows.values())
                              for rows in atoms[key]]
        else:
            positions[key] = [
                _reduced_rows(a + b) for a, b in
                zip(positions[parent[0]], positions[keys[parent[1]]])]
    return [PartitionChain(tuple(Subspace(rows, d) for rows in spaces))
            for spaces in positions.values()]


def find_trapdoor_chains(cipher: TbCipher, mode: str = "walls", *,
                         cap: int = DEFAULT_CHAIN_CAP) -> list[PartitionChain]:
    """Chains of nontrivial subspaces transported by the keyless rounds.

    walls mode: starts from every proper wall and requires each intermediate
    image (before the last round) to stay a wall; complete for the chains
    that exist whenever the layer family is not strongly proper.

    exhaustive mode: complete, but refused above ``cap`` ambient bits.  It
    closes every nonzero seed (``_seed_atoms``) and joins the A distinct
    proper closures (``_join_atoms``).  The join costs about
    min(2^A - 1, N) * A span reductions against the N proper subspaces a
    scan visits, so when that estimate exceeds N (dense chain lattices, such
    as affine bricks) the scan of every subspace (``_scan_chains``) runs
    instead.  Neither route builds a table; both give the same chains,
    sorted by (dim U_1, basis).
    """
    if mode == "walls":
        return _walls_mode_chains(cipher)
    if mode != "exhaustive":
        raise ValueError(f"unknown mode {mode!r}")
    d = cipher.layout.d
    n = count_proper_subspaces(d)
    if d > cap:
        raise CapExceeded(
            f"exhaustive chain search at d={d} refused",
            estimate=n, limit=cap)
    atoms = _seed_atoms(cipher)
    if min((1 << len(atoms)) - 1, n) * len(atoms) > n:
        chains = _scan_chains(cipher)
    else:
        chains = _join_atoms(atoms, d)
    chains.sort(key=lambda ch: (ch.spaces[0].dim, ch.spaces[0].basis))
    return chains


def verify_chain(cipher: TbCipher, chain: PartitionChain, *,
                 elementwise: bool | None = None) -> bool:
    """Re-derive every link of a chain against the cipher.

    Wall links are verified structurally (a bricklayer of bijective bricks
    maps every wall coset to a wall coset, and the layer transports the
    partition along its matrix); non-wall links need the full-codebook
    partition image, so they require d <= MAX_TABLE_D.  ``elementwise``
    forces the table route even for wall links.
    """
    layout = cipher.layout
    if len(chain.spaces) != cipher.ell + 1:
        return False
    if any(s.ambient != layout.d for s in chain.spaces):
        return False
    for h, rnd in enumerate(cipher.rounds):
        cur, nxt = chain.spaces[h], chain.spaces[h + 1]
        wall = as_wall(cur, layout)
        if wall is not None and not elementwise:
            if subspace_image(cur, rnd.layer.matrix) != nxt:
                return False
        else:
            img = partition_image(round_table(rnd), LinearPartition(cur))
            if img is None or img.subspace != nxt:
                return False
    return True


def chain_holds_under_key(cipher: TbCipher, chain: PartitionChain,
                          keys: Sequence[int]) -> bool:
    """Whether the keyed cipher maps L(U_1) to L(U_{l+1})."""
    table = encryption_table(cipher, keys)
    return _maps_cosets(table, chain.spaces[0].basis, chain.spaces[-1].basis)


# ---------------------------------------------------------------------------
# The audit.


@dataclass(frozen=True)
class BrickConditionReport:
    brick_index: int
    delta: int
    min_image_size: int
    min_image_u: int
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
    return _brick_condition(box, differential_uniformity(box, table),
                            min_derivative_image(box, table), use_1prime,
                            budget)


def _brick_condition(box: SBox, delta: int, mini: DerivativeImage,
                     use_1prime: bool, budget: int) -> BrickConditionReport:
    """The brick condition of ``audit`` from the box's measured delta and
    minimum derivative image."""
    m = box.m
    r: int | None
    if use_1prime:
        route = "min-image"
        r = next((c for c in range(1, m) if mini.size > (1 << (m - c))), None)
        r_text = (f"min image {mini.size} > 2^({m}-{r})" if r is not None
                  else f"min image {mini.size} supports no exponent r < {m}")
    else:
        route = "uniformity"
        r = (delta - 1).bit_length()
        if r >= m:
            r_text = f"delta={delta} needs exponent r={r}, not below m={m}"
            r = None
        else:
            r_text = f"delta={delta} <= 2^{r}"
    anti_ok: bool | None = None
    if r is not None:
        if r == 1:
            anti_ok = True
            anti_text = "strong 0-anti-invariance holds vacuously"
        else:
            anti_ok, _ = is_strongly_anti_invariant(box, r - 1, budget=budget)
            anti_text = (f"strongly {r - 1}-anti-invariant: "
                         f"{'yes' if anti_ok else 'no'}")
    else:
        anti_text = "anti-invariance not evaluated"
    ok = r is not None and bool(anti_ok)
    return BrickConditionReport(
        brick_index=0, delta=delta, min_image_size=mini.size,
        min_image_u=mini.u, route=route, r=r, anti_ok=anti_ok, ok=ok,
        detail=f"{r_text}; {anti_text}")


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
    chains = [ch for ch in _walls_mode_chains(cipher, family)
              if verify_chain(cipher, ch)]
    if not family.strongly_proper:
        notes.append(
            f"{len(family.surviving_walls())} proper wall(s) survive every "
            f"prefix of the layer family")
    for rep in rounds_t:
        for brick in rep.bricks:
            if not brick.ok:
                notes.append(
                    f"round {rep.round_index} brick {brick.brick_index}: "
                    f"{brick.detail}")
    if chains:
        return verdict(status="vulnerable", chain=chains[0],
                       chain_count=len(chains), notes=tuple(notes))
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


def build_linear_toy_cipher(ell: int = 2) -> TbCipher:
    """Identity bricks under a strongly proper layer: the walls search has
    nothing to find, but the bricks are linear, so the audit must stay
    Inconclusive rather than Secure."""
    box = presets.identity_sbox(3)
    rnd = Round((box, box), _toy_layer(3, 2))
    return TbCipher((rnd,) * ell)
