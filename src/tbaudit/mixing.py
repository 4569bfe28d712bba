"""Wall behaviour of mixing layers.

A wall is a direct sum of bricks.  A mixing layer is *proper* when no proper
wall is invariant under it, and *strongly proper* when the image of every
proper wall fails to be a wall at all (same or different).  A family of
layers (lambda_1, ..., lambda_l) is strongly proper when every proper wall W
has some prefix product W * lambda_1 ... lambda_j, 1 <= j <= l-1, that is
not a wall.

Because a mixing layer is invertible, the image of a wall with brick set I
has dimension m*|I| and sits inside the direct sum of the bricks J it
touches; it therefore *is* a wall iff |J| = |I|.  That reduces every check
here to OR-ing precomputed per-brick support masks, which is what makes the
b=16 case (65534 proper walls) cheap.  One walker, ``_wall_images``, follows
a wall's mask through the layers while it stays a wall: the layer and family
checks here and the cipher's walls-mode chain search are built on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import CapExceeded, SingularMatrixError
from .gf2 import BitMatrix, BrickLayout, Subspace, Wall, as_wall, subspace_image

__all__ = [
    "WALL_CAP",
    "MixingLayer",
    "LayerFamily",
    "FamilyReport",
    "enumerate_proper_walls",
    "is_proper",
    "is_strongly_proper",
    "family_strongly_proper",
    "wall_trace",
]

# The most proper walls a check walks: every one of the AES layout (b = 16).
WALL_CAP = (1 << 16) - 2


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
        m, b = self.layout.m, self.layout.b
        rows = self.matrix.rows
        sub_mask = (1 << m) - 1
        out = []
        for i in range(b):
            acc = 0
            for row in rows[i * m:(i + 1) * m]:
                acc |= row
            support = 0
            for j in range(b):
                if (acc >> (j * m)) & sub_mask:
                    support |= 1 << j
            out.append(support)
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


def _lex_proper_masks(b: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Proper nonempty brick subsets as (sorted tuple, bitmask), in
    lexicographic order of the sorted tuples.  Refuses with CapExceeded, on
    the call, when the 2^b - 2 of them exceed ``WALL_CAP``."""
    walls = (1 << b) - 2
    if walls > WALL_CAP:
        raise CapExceeded(f"walk of the proper walls at b={b} refused",
                          estimate=walls, limit=WALL_CAP)
    full = (1 << b) - 1

    def rec(prefix: tuple[int, ...], mask: int, nxt: int):
        for i in range(nxt, b + 1):
            cur = prefix + (i,)
            cm = mask | (1 << (i - 1))
            if cm != full:
                yield cur, cm
            yield from rec(cur, cm, i + 1)

    return rec((), 0, 1)


def enumerate_proper_walls(layout: BrickLayout) -> Iterator[Wall]:
    """All 2^b - 2 proper walls, in lexicographic order of their brick sets.

    Witnesses reported by the checks below are always the first failing wall
    in this order.
    """
    for bricks, _ in _lex_proper_masks(layout.b):
        yield Wall(layout, frozenset(bricks))


def _wall_images(supports: Sequence[tuple[int, ...]], mask: int) -> list[int]:
    """Brick masks of a wall and of its images under the successive layers
    whose brick supports are given, up to the last image that is a wall."""
    masks = [mask]
    for sup in supports:
        img = 0
        rest = masks[-1]
        while rest:
            img |= sup[(rest & -rest).bit_length() - 1]
            rest &= rest - 1
        if img.bit_count() != mask.bit_count():
            break
        masks.append(img)
    return masks


def _mask_wall(layout: BrickLayout, mask: int) -> Wall:
    """The wall whose bricks are the set bits of a b-bit brick mask."""
    return Wall(layout, frozenset(j + 1 for j in range(layout.b)
                                  if (mask >> j) & 1))


def is_proper(layer: MixingLayer) -> tuple[bool, Wall | None]:
    """No proper wall is mapped to itself.  Returns the first invariant wall
    as witness otherwise."""
    supports = (layer.brick_supports(),)
    for bricks, mask in _lex_proper_masks(layer.layout.b):
        if _wall_images(supports, mask)[1:] == [mask]:
            return (False, Wall(layer.layout, frozenset(bricks)))
    return (True, None)


def is_strongly_proper(layer: MixingLayer) -> tuple[bool, tuple[Wall, Wall] | None]:
    """The image of every proper wall is not a wall.  Returns the first
    (wall, image wall) pair as witness otherwise."""
    supports = (layer.brick_supports(),)
    for bricks, mask in _lex_proper_masks(layer.layout.b):
        images = _wall_images(supports, mask)
        if len(images) == 2:
            return (False, (Wall(layer.layout, frozenset(bricks)),
                            _mask_wall(layer.layout, images[1])))
    return (True, None)


@dataclass(frozen=True)
class FamilyReport:
    """Per-wall escape steps for a layer family.

    ``escape`` pairs each proper wall (as its sorted brick tuple, in
    enumeration order) with the smallest j such that the image under the
    first j layers stops being a wall, or None if the wall survives every
    checked prefix.  The family is strongly proper iff no wall survives.
    """

    ell: int
    max_prefix: int
    escape: tuple[tuple[tuple[int, ...], int | None], ...]
    note: str = ""

    @property
    def strongly_proper(self) -> bool:
        return all(step is not None for _, step in self.escape)

    def surviving_walls(self) -> list[tuple[int, ...]]:
        return [bricks for bricks, step in self.escape if step is None]


def family_strongly_proper(family: LayerFamily, *,
                           include_full_product: bool = False) -> FamilyReport:
    """Check the per-wall prefix condition over j in [1, l-1].

    For l = 1 there are no proper prefixes, so no wall can escape and the
    family is reported not strongly proper.  ``include_full_product``
    extends the prefix range to j = l for sensitivity analysis; it is off by
    default because the final product is not covered by the definition.
    """
    max_prefix = family.ell if include_full_product else family.ell - 1
    supports = [layer.brick_supports() for layer in family.layers[:max_prefix]]
    note = ""
    if max_prefix == 0:
        note = ("single-layer family: no prefix j < 1 exists, so every wall "
                "survives vacuously")
    escape = []
    for bricks, mask in _lex_proper_masks(family.layout.b):
        # The walk stops at the first step j whose image is not a wall, so
        # it holds j masks then, and max_prefix + 1 when the wall survives.
        steps = len(_wall_images(supports, mask))
        escape.append((bricks, steps if steps <= max_prefix else None))
    return FamilyReport(ell=family.ell, max_prefix=max_prefix,
                        escape=tuple(escape), note=note)


def wall_trace(wall: Wall, family: LayerFamily) -> list[tuple[Subspace, Wall | None]]:
    """Images of a wall under every prefix product of the family, j = 1..l.

    Each entry is the actual image subspace plus its wall recognition (None
    once the image stops being brick-aligned).
    """
    if wall.layout != family.layout:
        raise ValueError("wall layout does not match family layout")
    out = []
    cur = wall.subspace()
    for layer in family.layers:
        cur = subspace_image(cur, layer.matrix)
        out.append((cur, as_wall(cur, family.layout)))
    return out
