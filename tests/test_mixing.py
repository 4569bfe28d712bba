"""The wall behaviour of mixing layers, cross-checked against actual
subspace images instead of the support-mask arithmetic the module uses
internally."""

import random

import numpy as np
import pytest

import tbaudit.mixing as mixing_mod
from tbaudit.errors import SingularMatrixError
from tbaudit.gf2 import (BitMatrix, BrickLayout, _mask_bricks, identity_matrix,
                         random_invertible, subspace_image, wall_brick_mask,
                         wall_subspace)
from tbaudit.mixing import (FamilyReport, LayerFamily, MixingLayer,
                            _lex_proper_masks, family_strongly_proper,
                            is_proper, is_strongly_proper, wall_trace)
from tbaudit.presets import (aes_layout, aes_mix_columns_layer,
                             aes_shift_rows_layer, aes_sr_mc_layer,
                             find_strongly_proper_layer, identity_layer,
                             rotation_layer)

from oracles import (retired_family_escape, retired_is_proper,
                     retired_is_strongly_proper, retired_lex_proper_masks)


def random_layer(seed, m=2, b=3):
    layout = BrickLayout(m, b)
    return MixingLayer(random_invertible(random.Random(seed), layout.d),
                       layout)


def enumerate_proper_walls(layout):
    """The brick masks of the proper walls in the order witnesses are
    reported."""
    return _lex_proper_masks(layout.b).tolist()


def brute_proper(layer):
    """Proper check via honest subspace images."""
    for wall in enumerate_proper_walls(layer.layout):
        sub = wall_subspace(layer.layout, wall)
        if subspace_image(sub, layer.matrix) == sub:
            return False, wall
    return True, None


def brute_strongly_proper(layer):
    for wall in enumerate_proper_walls(layer.layout):
        img = subspace_image(wall_subspace(layer.layout, wall), layer.matrix)
        hit = wall_brick_mask(img, layer.layout)
        if hit is not None:
            return False, (wall, hit)
    return True, None


# ---------------------------------------------------------------------------
# Construction.


def test_layer_validation():
    layout = BrickLayout(2, 2)
    with pytest.raises(ValueError, match="4x4"):
        MixingLayer(identity_matrix(3), layout)
    with pytest.raises(SingularMatrixError):
        MixingLayer(BitMatrix((1, 1, 4, 8), 4), layout)


def test_family_validation():
    with pytest.raises(ValueError, match="empty"):
        LayerFamily(())
    a = identity_layer(BrickLayout(2, 2))
    b = identity_layer(BrickLayout(2, 3))
    with pytest.raises(ValueError, match="layout"):
        LayerFamily((a, b))
    fam = LayerFamily((a, a))
    assert fam.ell == 2
    assert fam.layout == a.layout


def test_brick_supports_via_basis_images():
    layer = random_layer(3)
    layout = layer.layout
    supports = layer.brick_supports()
    for i in range(layout.b):
        expected = 0
        for j in range(layout.m):
            img = layer.matrix.apply(1 << (i * layout.m + j))
            for touched in range(layout.b):
                if (img >> (touched * layout.m)) & ((1 << layout.m) - 1):
                    expected |= 1 << touched
        assert supports[i] == expected


# ---------------------------------------------------------------------------
# Enumerating the walls.


@pytest.mark.parametrize("b", [2, 3, 4, 5])
def test_proper_wall_enumeration(b):
    layout = BrickLayout(2, b)
    walls = list(enumerate_proper_walls(layout))
    assert len(walls) == (1 << b) - 2
    assert len(set(walls)) == len(walls)
    assert all(0 < len(_mask_bricks(w)) < b for w in walls)
    bricksets = [_mask_bricks(w) for w in walls]
    assert bricksets == sorted(bricksets)


# ---------------------------------------------------------------------------
# The support-mask reduction versus honest subspace images.  The fast path
# relies on the image of a wall being a wall iff it touches exactly as many
# bricks as the original, so any disagreement here means that reduction is
# wrong.


@pytest.mark.parametrize("seed", range(8))
def test_mask_reduction_agrees_with_subspace_images(seed):
    layer = random_layer(seed)
    assert is_proper(layer) == brute_proper(layer)
    assert is_strongly_proper(layer) == brute_strongly_proper(layer)


@pytest.mark.parametrize("make,m,b", [
    (rotation_layer, 2, 3), (rotation_layer, 4, 4),
    (identity_layer, 3, 2),
    (lambda lay: find_strongly_proper_layer(lay, seed=0), 3, 2),
    (lambda lay: find_strongly_proper_layer(lay, seed=5), 2, 3),
])
def test_mask_reduction_agrees_on_structured_layers(make, m, b):
    layer = make(BrickLayout(m, b))
    assert is_proper(layer) == brute_proper(layer)
    assert is_strongly_proper(layer) == brute_strongly_proper(layer)


def test_rotation_layer_wall_behaviour():
    layer = rotation_layer(BrickLayout(4, 4))
    ok, witness = is_proper(layer)
    assert ok and witness is None
    ok, pair = is_strongly_proper(layer)
    assert not ok
    src, dst = pair
    assert _mask_bricks(src) == (1,)
    assert _mask_bricks(dst) == (2,)


def test_identity_layer_fixes_every_wall():
    layer = identity_layer(BrickLayout(2, 3))
    ok, witness = is_proper(layer)
    assert not ok
    assert _mask_bricks(witness) == (1,)


def test_strongly_proper_search_result_is_strongly_proper():
    layer = find_strongly_proper_layer(BrickLayout(3, 2), seed=0)
    assert is_strongly_proper(layer)[0]
    assert is_proper(layer)[0]  # strongly proper implies proper
    # deterministic for a given seed
    again = find_strongly_proper_layer(BrickLayout(3, 2), seed=0)
    assert layer.matrix.rows == again.matrix.rows


# ---------------------------------------------------------------------------
# The numpy wall tables versus the retired per-mask walker.


def brick_permuting_layer(rng, layout, leaks):
    """Brick i goes to brick perm[i] through an invertible m x m block, so
    every wall image is a wall; each leak also sends one bit of a brick into
    the image of another, so some walls stop being walls."""
    m, b = layout.m, layout.b
    perm = rng.sample(range(b), b)
    rows = []
    for i in range(b):
        rows += [r << (perm[i] * m) for r in random_invertible(rng, m).rows]
    for _ in range(leaks):
        # i < j keeps the matrix block-triangular up to the permutation, so
        # it stays invertible
        i, j = sorted(rng.sample(range(b), 2))
        rows[i * m] ^= 1 << (perm[j] * m + rng.randrange(m))
    return MixingLayer(BitMatrix(tuple(rows), layout.d), layout)


def assert_kernel_matches_walker(layers):
    layout = layers[0].layout
    b = layout.b
    for layer in layers:
        supports = layer.brick_supports()
        ok, wall = is_proper(layer)
        assert (ok, None if wall is None else _mask_bricks(wall)) == \
            retired_is_proper(supports, b)
        ok, pair = is_strongly_proper(layer)
        assert (ok, None if pair is None else tuple(
            _mask_bricks(w) for w in pair)) == \
            retired_is_strongly_proper(supports, b)
    assert_family_matches_walker(LayerFamily(tuple(layers)))


def assert_family_matches_walker(fam):
    rep = family_strongly_proper(fam)
    assert rep.max_prefix == fam.ell - 1
    expected = retired_family_escape(
        [layer.brick_supports() for layer in fam.layers[:-1]], fam.layout.b)
    assert len(rep.escape) == len(expected)
    assert [(_mask_bricks(wall), step or None) for wall, step in
            zip(rep.walls.tolist(), rep.escape.tolist())] == expected
    assert [_mask_bricks(mask) for mask in rep.surviving_masks().tolist()] \
        == [w for w, step in expected if step is None]
    assert rep.strongly_proper == all(step for _, step in expected)
    return expected


@pytest.mark.parametrize("b", range(2, 13))
def test_wall_kernel_matches_the_retired_walker(b):
    layout = BrickLayout(2, b)
    assert [_mask_bricks(w) for w in enumerate_proper_walls(layout)] == \
        [bricks for bricks, _ in retired_lex_proper_masks(b)]
    rng = random.Random(1705 + b)
    for ell in (1, 2, 3):
        layers = []
        for _ in range(ell):
            kind = rng.randrange(4)
            layers.append(
                MixingLayer(random_invertible(rng, layout.d), layout)
                if kind == 0 else rotation_layer(layout) if kind == 1
                else brick_permuting_layer(rng, layout, rng.randrange(4)))
        assert_kernel_matches_walker(layers)


def test_wall_kernel_matches_the_retired_walker_on_the_aes_layout():
    sr, mc, sr_mc = (aes_shift_rows_layer(), aes_mix_columns_layer(),
                     aes_sr_mc_layer())
    assert [_mask_bricks(w) for w in enumerate_proper_walls(aes_layout())] \
        == [bricks for bricks, _ in retired_lex_proper_masks(16)]
    assert_kernel_matches_walker([sr, mc, sr_mc])


# ---------------------------------------------------------------------------
# Families.


def test_rotation_family_never_escapes():
    layout = BrickLayout(2, 3)
    fam = LayerFamily((rotation_layer(layout),) * 4)
    rep = family_strongly_proper(fam)
    assert not rep.strongly_proper
    assert rep.max_prefix == 3
    assert not rep.escape.any()
    assert len(rep.surviving_masks()) == 6


def test_single_layer_family_is_vacuously_stuck():
    layer = find_strongly_proper_layer(BrickLayout(3, 2), seed=0)
    rep = family_strongly_proper(LayerFamily((layer,)))
    assert rep.max_prefix == 0
    assert not rep.strongly_proper
    assert "single-layer" in rep.note
    assert not rep.escape.any()


def test_family_escape_steps_match_prefix_traces():
    layout = BrickLayout(2, 3)
    rng = random.Random(71)
    layers = tuple(
        MixingLayer(random_invertible(rng, layout.d), layout)
        for _ in range(3))
    fam = LayerFamily(layers)
    rep = family_strongly_proper(fam)
    for mask, step, wall in zip(rep.walls.tolist(), rep.escape.tolist(),
                                enumerate_proper_walls(layout)):
        assert wall == mask
        trace = wall_trace(wall, fam)
        wallness = [w is not None for _, w in trace[:rep.max_prefix]]
        if step == 0:
            assert all(wallness)
        else:
            assert wallness[step - 1] is False
            assert all(wallness[:step - 1])


def test_wall_trace_layout_mismatch():
    # brick 4 of a four-brick layout is no brick of the family's three
    wall = 1 << 3
    fam = LayerFamily((identity_layer(BrickLayout(2, 3)),))
    with pytest.raises(ValueError):
        wall_trace(wall, fam)


def test_wall_trace_identity():
    layout = BrickLayout(2, 3)
    wall = 0b010
    trace = wall_trace(wall, LayerFamily((identity_layer(layout),) * 2))
    assert [w for _, w in trace] == [wall, wall]


# ---------------------------------------------------------------------------
# The AES-shaped layout.  ShiftRows sends the main diagonal onto a column;
# MixColumns keeps column walls column walls, so the combined layer is not
# strongly proper, but composing several copies clears every wall.


def test_aes_diagonal_wall_trace():
    sr = aes_shift_rows_layer()
    mc = aes_mix_columns_layer()
    diagonal = sum(1 << (i - 1) for i in (1, 6, 11, 16))
    trace = wall_trace(diagonal, LayerFamily((sr, mc)))
    after_sr, after_mc = trace
    assert after_sr[1] is not None
    assert _mask_bricks(after_sr[1]) == (1, 5, 9, 13)
    assert after_mc[1] is not None
    assert _mask_bricks(after_mc[1]) == (1, 5, 9, 13)


def test_aes_combined_layer_matches_sr_then_mc():
    sr = aes_shift_rows_layer()
    mc = aes_mix_columns_layer()
    combined = aes_sr_mc_layer()
    assert combined.matrix.rows == sr.matrix.mul(mc.matrix).rows
    ok, pair = is_strongly_proper(combined)
    assert not ok
    src, dst = pair
    img = subspace_image(wall_subspace(aes_layout(), src), combined.matrix)
    assert wall_brick_mask(img, aes_layout()) == dst


def test_aes_family_of_ten_is_strongly_proper():
    fam = LayerFamily((aes_sr_mc_layer(),) * 10)
    rep = family_strongly_proper(fam)
    assert rep.strongly_proper
    assert len(rep.escape) == 65534
    steps = {}
    for step in rep.escape.tolist():
        steps[step] = steps.get(step, 0) + 1
    assert steps == {1: 65520, 2: 14}


def test_family_report_shape():
    rep = FamilyReport(ell=2, max_prefix=1,
                       walls=np.array([1, 2], dtype=np.uint16),
                       escape=np.array([1, 0]))
    assert not rep.strongly_proper
    assert len(rep.escape) == 2  # one step per wall: len counts the walls
    assert rep.surviving_masks().tolist() == [2]


def test_constant_family_walk_matches_the_retired_walker():
    # One layer repeated: the walk stops at the first step that lets no wall
    # escape, which must leave every escape step as the full walk finds it.
    # Leaky brick permutations hold some walls for several steps, so the
    # stop has walls to get wrong.
    latest = 0
    for seed in range(300):
        rng = random.Random(9000 + seed)
        layout = BrickLayout(rng.randint(2, 3), rng.randint(2, 7))
        kind = seed % 3
        layer = (rotation_layer(layout) if kind == 0
                 else brick_permuting_layer(rng, layout, rng.randint(1, 3))
                 if kind == 1
                 else MixingLayer(random_invertible(rng, layout.d), layout))
        expected = assert_family_matches_walker(
            LayerFamily((layer,) * rng.randint(1, 40)))
        latest = max([latest] + [step or 0 for _, step in expected])
    assert latest >= 3


def test_constant_family_reads_one_wall_table(monkeypatch):
    lookups = []
    wall_table = mixing_mod._wall_table

    def counted(supports):
        lookups.append(supports)
        return wall_table(supports)

    monkeypatch.setattr(mixing_mod, "_wall_table", counted)
    fam = LayerFamily((rotation_layer(BrickLayout(2, 8)),) * 1000)
    rep = family_strongly_proper(fam)
    assert not rep.strongly_proper and len(rep.surviving_masks()) == 254
    assert len(lookups) <= 2
