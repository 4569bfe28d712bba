"""The wall behaviour of mixing layers.

A wall is a direct sum of bricks, and every signature here takes and
returns it as its b-bit brick mask (bit i - 1 for brick i).  A mixing layer
is *proper* when no proper wall is invariant under it, and *strongly
proper* when the image of every proper wall fails to be a wall at all (same
or different).  A family of layers (lambda_1, ..., lambda_l) is strongly
proper when every proper wall W has some prefix product
W * lambda_1 ... lambda_j, 1 <= j <= l-1, that is not a wall.

Because a mixing layer is invertible, the image of a wall with brick set I
has dimension m*|I| and sits inside the direct sum of the bricks J it
touches; it therefore *is* a wall iff |J| = |I|.  That reduces every check
here to OR-ing precomputed per-brick support masks.  ``_wall_table`` does
that for all 2^b brick masks of one layer at once, as one numpy array (b <=
16, so uint16 masks), and ``_lex_proper_masks`` holds the proper masks in
the order witnesses are reported; each check is then a few gathers and
popcount comparisons (by a 2^16-entry table) over every wall together, which
keeps the b=16 case (65534 proper walls) cheap.  ``_escape_steps`` follows all
the walls through a sequence of layers for the strong-properness checks, and
the cipher's walls-mode chain search follows the surviving walls through the
same tables.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapExceeded, SingularMatrixError
from .gf2 import (BitMatrix, BrickLayout, Subspace, _brick_support,
                  subspace_image, wall_brick_mask, wall_subspace)

__all__ = [
    "WALL_CAP",
    "MixingLayer",
    "LayerFamily",
    "FamilyReport",
    "is_proper",
    "is_strongly_proper",
    "family_strongly_proper",
    "wall_trace",
]

# The most proper walls a check walks: every one of the AES layout (b = 16).
# It keeps brick masks within uint16.
WALL_CAP = (1 << 16) - 2

# Lexicographic mask arrays (one per b) and wall tables (one per layer) kept.
_WALL_CACHE = 16


@dataclass(frozen=True)
class MixingLayer:
    """An invertible d x d matrix over GF(2) together with the brick layout."""

    matrix: BitMatrix
    layout: BrickLayout

    def __post_init__(self) -> None:
        d = self.layout.d
        if self.matrix.nrows != d or self.matrix.ncols != d:
            raise ValueError(
                f"matrix is {self.matrix.nrows}x{self.matrix.ncols}, layout needs {d}x{d}")
        if not self.matrix.is_invertible():
            raise SingularMatrixError("mixing layer matrix is singular")

    def brick_supports(self) -> tuple[int, ...]:
        """For each source brick i (0-based), the set of bricks its image
        touches, as a bitmask over b bits."""
        m, rows = self.layout.m, self.matrix.rows
        out = []
        for i in range(self.layout.b):
            acc = 0
            for row in rows[i * m:(i + 1) * m]:
                acc |= row
            out.append(_brick_support(acc, m))
        return tuple(out)


@dataclass(frozen=True)
class LayerFamily:
    layers: tuple[MixingLayer, ...]

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError("family is empty")
        layouts = {layer.layout for layer in self.layers}
        if len(layouts) > 1:
            raise ValueError("family layers disagree on brick layout")

    @property
    def layout(self) -> BrickLayout:
        return self.layers[0].layout

    @property
    def ell(self) -> int:
        return len(self.layers)


@lru_cache(maxsize=_WALL_CACHE)
def _lex_proper_masks(b: int) -> np.ndarray:
    """Proper nonempty brick subsets as b-bit masks, in lexicographic order
    of their sorted 1-based brick tuples.  Refuses with CapExceeded when the
    2^b - 2 of them exceed ``WALL_CAP``.

    The nonempty subsets of bricks k..b in that order are {k}, then {k}
    joined with each nonempty subset of bricks k+1..b, then those subsets
    themselves; the array is built by that rule from brick b down.
    """
    walls = (1 << b) - 2
    if walls > WALL_CAP:
        raise CapExceeded(f"walk of the proper walls at b={b} refused",
                          estimate=walls, limit=WALL_CAP)
    masks = np.zeros(0, dtype=np.uint16)
    for k in range(b - 1, -1, -1):
        bit = np.uint16(1 << k)
        masks = np.concatenate(([bit], masks | bit, masks))
    masks = masks[masks != (1 << b) - 1]
    masks.setflags(write=False)
    return masks


@lru_cache(maxsize=_WALL_CACHE)
def _wall_table(supports: tuple[int, ...]) -> np.ndarray:
    """Brick mask of the image of every brick mask (index) under the layer
    whose brick supports are given: the OR of the supports of its bricks,
    built in b doubling steps."""
    img = np.zeros(1 << len(supports), dtype=np.uint16)
    for j, sup in enumerate(supports):
        img[1 << j:2 << j] = img[:1 << j] | sup
    img.setflags(write=False)
    return img


def _popcount_table() -> np.ndarray:
    """Number of set bits of every uint16 value, built in 16 doubling
    steps (a table, not ``np.bitwise_count``, which needs numpy 2)."""
    pop = np.zeros(1 << 16, dtype=np.uint8)
    for j in range(16):
        pop[1 << j:2 << j] = pop[:1 << j] + 1
    pop.setflags(write=False)
    return pop


_POPCOUNT = _popcount_table()


def _popcount(masks: np.ndarray) -> np.ndarray:
    """Number of bricks in each uint16 brick mask."""
    return _POPCOUNT[masks]


def _escape_steps(supports: Sequence[tuple[int, ...]], b: int
                  ) -> tuple[np.ndarray, np.ndarray]:
    """The proper wall masks in lexicographic order and, for each, the least
    j such that its image under the first j layers (given by their brick
    supports) is not a wall, or 0 when every image is a wall.

    When every layer has the same supports T, the walls that survive j + 1
    steps are the walls W with T(W) a wall that survives j steps; so once a
    step lets no wall escape, no later step does, and the walk stops there.
    """
    masks = _lex_proper_masks(b)
    size = _popcount(masks)
    steps = np.zeros(len(masks), dtype=np.int64)
    constant = len(set(supports)) == 1
    cur = masks
    for j, sup in enumerate(supports, 1):
        cur = _wall_table(sup)[cur]
        escaped = (steps == 0) & (_popcount(cur) != size)
        steps[escaped] = j
        if steps.all() or (constant and not escaped.any()):
            break
    return masks, steps


def is_proper(layer: MixingLayer) -> tuple[bool, int | None]:
    """No proper wall is mapped to itself.  Returns the brick mask of the
    first invariant wall as witness otherwise."""
    masks = _lex_proper_masks(layer.layout.b)
    hits = np.flatnonzero(_wall_table(layer.brick_supports())[masks] == masks)
    if not len(hits):
        return (True, None)
    return (False, int(masks[hits[0]]))


def is_strongly_proper(layer: MixingLayer
                       ) -> tuple[bool, tuple[int, int] | None]:
    """The image of every proper wall is not a wall.  Returns the brick
    masks of the first (wall, image wall) pair as witness otherwise."""
    supports = layer.brick_supports()
    masks, steps = _escape_steps((supports,), layer.layout.b)
    hits = np.flatnonzero(steps == 0)
    if not len(hits):
        return (True, None)
    mask = int(masks[hits[0]])
    return (False, (mask, int(_wall_table(supports)[mask])))


@dataclass(frozen=True, eq=False)
class FamilyReport:
    """Per-wall escape steps for a layer family.

    ``walls`` holds the brick masks of the proper walls in enumeration
    order, and ``escape`` the smallest j for each such that its image under
    the first j layers stops being a wall, or 0 if the wall survives every
    checked prefix.  The family is strongly proper iff no wall survives.
    """

    ell: int
    max_prefix: int
    walls: np.ndarray
    escape: np.ndarray
    note: str = ""

    @property
    def strongly_proper(self) -> bool:
        return bool(self.escape.all())

    def surviving_masks(self) -> np.ndarray:
        """Brick masks of the surviving walls, in enumeration order."""
        return self.walls[self.escape == 0]


def family_strongly_proper(family: LayerFamily) -> FamilyReport:
    """Check the per-wall prefix condition over j in [1, l-1].

    For l = 1 there are no proper prefixes, so no wall can escape and the
    family is reported not strongly proper.
    """
    max_prefix = family.ell - 1
    prefix = family.layers[:max_prefix]
    known = {layer: layer.brick_supports() for layer in set(prefix)}
    supports = [known[layer] for layer in prefix]
    note = ""
    if max_prefix == 0:
        note = ("single-layer family: no prefix j < 1 exists, so every wall "
                "survives vacuously")
    masks, steps = _escape_steps(supports, family.layout.b)
    return FamilyReport(ell=family.ell, max_prefix=max_prefix, walls=masks,
                        escape=steps, note=note)


def wall_trace(wall: int, family: LayerFamily
               ) -> list[tuple[Subspace, int | None]]:
    """Images of a wall, given by its brick mask, under every prefix
    product of the family, j = 1..l.

    Each entry is the actual image subspace plus its brick mask when it is
    a wall (None once the image stops being brick-aligned).
    """
    out = []
    cur = wall_subspace(family.layout, wall)
    for layer in family.layers:
        cur = subspace_image(cur, layer.matrix)
        out.append((cur, wall_brick_mask(cur, family.layout)))
    return out
