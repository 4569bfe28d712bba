"""Permutation-group checks: blocks, primitivity, and invariant partitions."""

import random

import numpy as np
import pytest

from tbaudit import groups
from tbaudit.cipher import TbCipher, Round, build_rotation_cipher
from tbaudit.errors import CapExceeded, IntransitiveError
from tbaudit.gf2 import (BitMatrix, BrickLayout, Wall, enumerate_subspaces,
                         random_invertible, rref)
from tbaudit.groups import (BlockSystem, GeneratorSet, Perm, is_primitive,
                            invariant_linear_partition_search, minimal_block,
                            minimal_invariant_partitions,
                            partition_block_system, sample_ind_generators,
                            sample_round_generators)
from tbaudit.mixing import MixingLayer
from tbaudit.presets import identity_sbox, rotation_layer

from oracles import (all_points_is_primitive, brute_block_systems_transitive,
                     cosets_of, finest_containing_pair, partition_invariant,
                     phi_closure_partition_search)
from test_cipher import _oracle_test_brick


def cycle(n):
    return Perm(np.roll(np.arange(n), -1))


def c8_gens():
    return GeneratorSet((cycle(8),), ("rot",))


def s8_gens():
    swap = list(range(8))
    swap[0], swap[1] = 1, 0
    return GeneratorSet((Perm(np.array(swap)), cycle(8)), ("swap", "rot"))


def translation_group_gens(d):
    perms = tuple(Perm.translation(d, 1 << j) for j in range(d))
    return GeneratorSet(perms, tuple(f"t{j}" for j in range(d)))


def wreath_gens():
    # S2 wr S4 on 8 points with blocks {i, i + 4}: a swap inside the block
    # of 0, a swap of two blocks, and a cycle of all four blocks
    inside = [4, 1, 2, 3, 0, 5, 6, 7]
    across = [1, 0, 2, 3, 5, 4, 6, 7]
    return GeneratorSet((Perm(np.array(inside)), Perm(np.array(across)),
                         cycle(8)), ("inside", "across", "rot"))


def as_partition(system):
    return frozenset(frozenset(b) for b in system.blocks())


def wall_subspaces(m, b):
    layout = BrickLayout(m, b)
    return [Wall(layout, frozenset([i])).subspace() for i in range(1, b + 1)]


# ---------------------------------------------------------------------------
# Permutations.


def test_perm_validation():
    with pytest.raises(ValueError, match="bijection"):
        Perm(np.array([0, 0, 1]))
    with pytest.raises(ValueError, match="out of range"):
        Perm(np.array([0, 3]))
    with pytest.raises(ValueError, match="degree"):
        Perm(np.array([], dtype=np.int64))
    with pytest.raises(ValueError, match="degree"):
        Perm(np.arange((1 << 16) + 1))
    with pytest.raises(ValueError, match="one-dimensional"):
        Perm(np.zeros((2, 2), dtype=np.int64))


def test_compose_applies_left_then_right():
    a = Perm(np.array([1, 2, 0, 3]))
    b = Perm(np.array([0, 1, 3, 2]))
    ab = a.compose(b)
    for x in range(4):
        assert ab(x) == b(a(x))


def test_inverse_and_identity():
    g = cycle(6)
    assert g.compose(g.inverse()).is_identity()
    assert Perm.identity(6).is_identity()
    assert not g.is_identity()


def test_translation_acts_by_xor():
    t = Perm.translation(3, 5)
    for x in range(8):
        assert t(x) == x ^ 5
    with pytest.raises(ValueError, match="out of range"):
        Perm.translation(3, 8)


def test_perm_equality_and_hash():
    assert cycle(5) == cycle(5)
    assert hash(cycle(5)) == hash(cycle(5))
    assert cycle(5) != cycle(5).inverse()
    assert cycle(5) != "rot"


def test_generator_set_validation():
    with pytest.raises(ValueError, match="no generators"):
        GeneratorSet((), ())
    with pytest.raises(ValueError, match="labels"):
        GeneratorSet((cycle(4),), ("a", "b"))
    with pytest.raises(ValueError, match="mixed degrees"):
        GeneratorSet((cycle(4), cycle(5)), ("a", "b"))
    gens = c8_gens()
    assert gens.degree == 8 and len(gens) == 1


# ---------------------------------------------------------------------------
# Block systems.


def test_block_system_canonical_relabelling():
    s = BlockSystem(np.array([5, 5, 2, 2]))
    assert s.block_of.tolist() == [0, 0, 1, 1]
    assert s.n_blocks == 2
    assert s.block_size() == 2
    assert s.blocks() == [[0, 1], [2, 3]]
    assert s == BlockSystem(np.array([9, 9, 0, 0]))
    assert hash(s) == hash(BlockSystem(np.array([9, 9, 0, 0])))


def test_block_system_triviality_flags():
    assert not BlockSystem(np.zeros(4, dtype=np.int64)).nontrivial
    assert not BlockSystem(np.arange(4)).nontrivial
    assert BlockSystem(np.array([0, 0, 1, 1])).nontrivial


def test_preserved_by():
    evens_odds = BlockSystem(np.array([0, 1] * 4))
    assert evens_odds.preserved_by(c8_gens())
    quarters = BlockSystem(np.array([0, 1, 2, 3] * 2))
    assert quarters.preserved_by(c8_gens())
    assert not evens_odds.preserved_by(s8_gens())


def test_partition_block_system_from_subspace():
    s = partition_block_system(rref([3], 2))
    assert s.degree == 4 and s.n_blocks == 2
    assert as_partition(s) == cosets_of({0, 3}, 2)
    assert s.preserved_by(translation_group_gens(2))


# ---------------------------------------------------------------------------
# minimal_block against brute enumeration.


def test_minimal_block_on_c8():
    gens = c8_gens()
    s = minimal_block(gens, [(0, 2)])
    assert s.nontrivial and s.block_size() == 4  # evens and odds
    s = minimal_block(gens, [(0, 4)])
    assert s.nontrivial and s.block_size() == 2
    glued = minimal_block(gens, [(0, 1)])  # forced to the full set
    assert not glued.nontrivial and glued.n_blocks == 1


def test_minimal_block_is_finest_brute_block_system():
    for gens in (c8_gens(), translation_group_gens(3)):
        images = [g.images.tolist() for g in gens.perms]
        brute = brute_block_systems_transitive(images)
        assert len(brute) > 2, "toy groups here are imprimitive"
        for beta in range(1, gens.degree):
            got = as_partition(minimal_block(gens, [(0, beta)]))
            want = finest_containing_pair(brute, (0, beta))
            assert want is not None  # the one-block partition always counts
            assert got == want
            assert got in brute


def test_translation_group_brute_partitions_are_the_subspaces():
    gens = translation_group_gens(3)
    images = [g.images.tolist() for g in gens.perms]
    brute = set(brute_block_systems_transitive(images))
    linear = set()
    for k in range(4):
        for s in enumerate_subspaces(3, k):
            linear.add(cosets_of(set(s.elements()), 3))
    assert brute == linear
    assert len(brute) == 16


def test_minimal_block_requires_transitivity():
    a = Perm(np.array([1, 0, 2, 3]))
    with pytest.raises(IntransitiveError):
        minimal_block(GeneratorSet((a,), ("a",)), [(0, 1)])


def test_is_primitive_verdicts():
    ok, wit = is_primitive(c8_gens())
    assert not ok and wit is not None and wit.preserved_by(c8_gens())
    ok, wit = is_primitive(s8_gens())
    assert ok and wit is None
    c5 = GeneratorSet((cycle(5),), ("rot",))
    assert is_primitive(c5) == (True, None)
    ok, wit = is_primitive(translation_group_gens(3))
    assert not ok
    assert wit.block_size() == 2  # blocks are cosets of a 1-dim subspace
    ok, wit = is_primitive(wreath_gens())
    assert not ok and wit.blocks() == [[0, 4], [1, 5], [2, 6], [3, 7]]


@pytest.mark.parametrize("gens", [
    c8_gens(), s8_gens(), GeneratorSet((cycle(5),), ("rot",)),
    # every Schreier generator is trivial: each beta is tested
    translation_group_gens(3),
    # 0's stabilizer joins 1, 2, 3, 5, 6, 7 in one orbit, so beta = 4,
    # the first nontrivial one, is reached without testing 2 or 3
    wreath_gens(),
], ids=["c8", "s8", "c5", "translations", "s2-wr-s4"])
def test_is_primitive_matches_the_all_points_loop(gens):
    assert is_primitive(gens) == all_points_is_primitive(gens)


def test_is_primitive_matches_the_all_points_loop_on_ciphers():
    # round and encryption groups of seeded ciphers at d <= 8 on random,
    # affine and identity bricks with rotation or random layers
    rng = random.Random(0x9E)
    verdicts = {True: 0, False: 0}
    for n in range(48):
        m, b = (4, 2) if n % 8 == 7 else ((2, 2), (3, 2), (2, 3))[n % 3]
        layout = BrickLayout(m, b)
        kinds = rng.choice((("random",), ("affine",), ("identity",),
                            ("random", "affine", "identity")))
        rounds = []
        for _ in range(rng.randint(1, 3)):
            layer = (rotation_layer(layout) if rng.random() < 0.5 else
                     MixingLayer(random_invertible(rng, layout.d), layout))
            rounds.append(Round(tuple(
                _oracle_test_brick(rng.choice(kinds), rng, m)
                for _ in range(b)), layer))
        cipher = TbCipher(tuple(rounds))
        for gens in (sample_round_generators(cipher),
                     sample_ind_generators(cipher)):
            got = is_primitive(gens)
            assert got == all_points_is_primitive(gens)
            verdicts[got[0]] += 1
    assert min(verdicts.values()) >= 10, verdicts


def test_is_primitive_tests_one_point_per_stabilizer_orbit(monkeypatch):
    # the all-points loop glued 0 to each of the 511 other points
    calls = []
    minimal = groups._minimal_block
    monkeypatch.setattr(groups, "_minimal_block",
                        lambda gens, pairs: calls.append(pairs)
                        or minimal(gens, pairs))
    gens = sample_round_generators(build_rotation_cipher(3, 3, 3))
    assert is_primitive(gens) == (True, None)
    assert 1 <= len(calls) <= 8


def test_is_primitive_builds_one_schreier_tree(monkeypatch):
    # the block tests skip minimal_block's transitivity check, which would
    # build the tree again for every tested point
    calls = []
    tree = groups._schreier_tree
    monkeypatch.setattr(groups, "_schreier_tree",
                        lambda gens: calls.append(gens) or tree(gens))
    gens = sample_round_generators(build_rotation_cipher(3, 3, 3))
    assert is_primitive(gens) == (True, None)
    assert len(calls) == 1
    minimal_block(gens, [(0, 1)])
    assert len(calls) == 2  # the public call still checks transitivity


# ---------------------------------------------------------------------------
# Sampled generator sets from a cipher.


def test_sample_ind_generators_shape():
    cipher = build_rotation_cipher(2, 2, 2)
    gens = sample_ind_generators(cipher)
    assert len(gens.perms) == 1 + cipher.ell * cipher.layout.d
    assert gens.labels[0] == "enc[zero keys]"
    assert gens.labels[1] == "enc[k1+=bit0]"
    assert gens.degree == 16


def test_ind_generators_expose_translations():
    # perturbing only the last round key by one bit composes with the
    # base encryption to a pure XOR, which the search relies on.
    cipher = build_rotation_cipher(2, 2, 2)
    gens = sample_ind_generators(cipher)
    g0 = gens.perms[0]
    d, ell = cipher.layout.d, cipher.ell
    for j in range(d):
        g = gens.perms[1 + (ell - 1) * d + j]
        assert g0.inverse().compose(g) == Perm.translation(d, 1 << j)


def test_sample_round_generators_shape():
    cipher = build_rotation_cipher(2, 2, 3)
    gens = sample_round_generators(cipher)
    assert len(gens.perms) == 3 + 4
    assert gens.labels[0] == "round1[keyless]"
    assert gens.labels[-1] == "xor[bit3]"


# ---------------------------------------------------------------------------
# Invariant linear partition search.


def test_invariant_search_full_cross_check_d6():
    # rotation cipher at m=3, b=2, two rounds: the layer swaps the bricks
    # each round, so the full two-round map fixes both brick walls.  Check
    # the search against a sweep over every proper subspace of F_2^6.
    cipher = build_rotation_cipher(3, 2, 2)
    gens = sample_ind_generators(cipher)
    found = invariant_linear_partition_search(gens)
    images = [g.images.tolist() for g in gens.perms]
    expected = []
    for k in range(1, 6):
        for s in enumerate_subspaces(6, k):
            blocks = cosets_of(set(s.elements()), 6)
            if all(partition_invariant(blocks, [img]) for img in images):
                expected.append(s)
    assert found == sorted(expected, key=lambda s: (s.dim, s.basis))
    assert set(found) == set(wall_subspaces(3, 2))


def test_invariant_search_empty_on_odd_rotation_depth():
    # three rounds of the same cipher leave the walls rotated out of place,
    # and nothing else is linear-invariant either.
    cipher = build_rotation_cipher(3, 2, 3)
    gens = sample_ind_generators(cipher)
    assert invariant_linear_partition_search(gens) == []


def test_invariant_search_degenerate_identity_cipher():
    # with identity bricks the zero-key map is linear, so every proper
    # subspace is invariant; the cap must trip when the result set is
    # capped below that.
    layout = BrickLayout(2, 2)
    rnd = Round((identity_sbox(2),) * 2, rotation_layer(layout))
    cipher = TbCipher((rnd, rnd))
    gens = sample_ind_generators(cipher)
    found = invariant_linear_partition_search(gens)
    assert len(found) == 65
    with pytest.raises(CapExceeded):
        invariant_linear_partition_search(gens, max_results=10)


def test_found_partitions_are_genuinely_invariant():
    cipher = build_rotation_cipher(3, 2, 2)
    gens = sample_ind_generators(cipher)
    images = [g.images.tolist() for g in gens.perms]
    found = invariant_linear_partition_search(gens)
    assert found
    for s in found:
        blocks = cosets_of(set(s.elements()), 6)
        assert partition_invariant(blocks, images)


def test_minimal_invariant_partitions():
    cipher = build_rotation_cipher(3, 3, 3)
    gens = sample_ind_generators(cipher)
    found = invariant_linear_partition_search(gens)
    # three brick walls plus their pairwise sums survive the full cycle
    assert len(found) == 6
    minimal = minimal_invariant_partitions(found)
    assert set(minimal) == set(wall_subspaces(3, 3))
    assert all(s.dim == 3 for s in minimal)


def test_minimal_of_empty_is_empty():
    assert minimal_invariant_partitions([]) == []


def test_search_rejects_non_power_of_two_degree():
    with pytest.raises(ValueError, match="power of two"):
        invariant_linear_partition_search(
            GeneratorSet((cycle(6),), ("rot",)))


# ---------------------------------------------------------------------------
# The batched seed pass against the retired scalar-closure search.


def _same_as_scalar_search(gens, max_results=512):
    """Assert the search returns the retired search's list, or raises the
    same refusal; return the list, or None on a refusal."""
    try:
        want = phi_closure_partition_search(gens, max_results)
    except CapExceeded as exc:
        with pytest.raises(CapExceeded) as got:
            invariant_linear_partition_search(gens, max_results=max_results)
        assert str(got.value) == str(exc)
        assert (got.value.estimate, got.value.limit) == (exc.estimate,
                                                          exc.limit)
        return None
    assert invariant_linear_partition_search(
        gens, max_results=max_results) == want
    return want


def _affine_images(rng, d):
    if rng.random() < 0.5:
        lin = random_invertible(rng, d)
    else:  # a bit permutation: many invariant subspaces
        order = rng.sample(range(d), d)
        lin = BitMatrix(tuple(1 << j for j in order), d)
    shift = rng.getrandbits(d)
    return [lin.apply(x) ^ shift for x in range(1 << d)]


def _seeded_generator_set(rng, d):
    perms = []
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice(("affine", "random", "near-affine"))
        if kind == "random":
            images = rng.sample(range(1 << d), 1 << d)
        else:
            images = _affine_images(rng, d)
            if kind == "near-affine":
                for _ in range(rng.randint(1, 2)):
                    i, j = rng.randrange(1 << d), rng.randrange(1 << d)
                    images[i], images[j] = images[j], images[i]
        perms.append(Perm(np.array(images)))
    return GeneratorSet(tuple(perms),
                        tuple(f"g{i}" for i in range(len(perms))))


def test_invariant_search_matches_the_scalar_search_on_generator_sets():
    # affine, random and near-affine permutations of degree 2^1 to 2^7,
    # one to four of them, under caps of 5, 20 and 512
    rng = random.Random(0x5EED)
    tally = {"refused": 0, "empty": 0, "found": 0}
    for n in range(320):
        gens = _seeded_generator_set(rng, 1 + n % 7)
        found = _same_as_scalar_search(gens, (5, 20, 512)[n % 3])
        tally["refused" if found is None else
              "found" if found else "empty"] += 1
    assert min(tally.values()) >= 3, tally


def _workload_shaped_cipher(rng, m, b, rotation, ell=None):
    layout = BrickLayout(m, b)
    rounds = []
    for _ in range(ell or (b if rotation else 2)):
        layer = (rotation_layer(layout) if rotation else
                 MixingLayer(random_invertible(rng, layout.d), layout))
        rounds.append(Round(tuple(_oracle_test_brick("random", rng, m)
                                  for _ in range(b)), layer))
    return TbCipher(tuple(rounds))


@pytest.mark.parametrize("m,b", [(3, 2), (2, 3), (4, 2), (3, 3)],
                         ids=["d6-m3b2", "d6-m2b3", "d8-m4b2", "d9-m3b3"])
def test_invariant_search_matches_the_scalar_search_on_ciphers(m, b):
    # rotation ciphers of b rounds and two-round random-layer ciphers, on
    # random bricks, as in the groups benchmark workload
    rng = random.Random(f"groups-{m}-{b}")
    for rotation in (True, False):
        for _ in range(2):
            cipher = _workload_shaped_cipher(rng, m, b, rotation)
            for gens in (sample_ind_generators(cipher),
                         sample_round_generators(cipher)):
                found = _same_as_scalar_search(gens)
                if rotation and gens.labels[0].startswith("enc"):
                    assert found


def test_invariant_search_matches_the_scalar_search_on_identity_bricks():
    layout = BrickLayout(2, 2)
    rnd = Round((identity_sbox(2),) * 2, rotation_layer(layout))
    gens = sample_ind_generators(TbCipher((rnd, rnd)))
    assert len(_same_as_scalar_search(gens)) == 65
    assert _same_as_scalar_search(gens, 10) is None


def test_invariant_search_over_several_chunks_at_d10(monkeypatch):
    # five random-layer rounds at d = 10 take more seeds by vectors than one
    # chunk holds (41 distinct maps phi_g, so 1,023 x 42 elements); a
    # two-round rotation cipher leaves spans of rank up to 9 to enumerate
    chunks = []
    enumerate_spans = groups._span_elements_chunks

    def counted(spans, ids):
        for chunk, els in enumerate_spans(spans, ids):
            chunks.append(len(chunk))
            yield chunk, els

    monkeypatch.setattr(groups, "_span_elements_chunks", counted)
    rng = random.Random(10)
    gens = sample_ind_generators(
        _workload_shaped_cipher(rng, 5, 2, rotation=False, ell=5))
    stack = np.stack([p.images for p in gens.perms])
    phi_rows = len(np.unique(stack ^ stack[:, :1], axis=0))
    assert 1023 * (phi_rows + 1) > groups._SEED_CHUNK
    _same_as_scalar_search(gens)
    gens = sample_ind_generators(
        _workload_shaped_cipher(rng, 5, 2, rotation=True))
    assert len(_same_as_scalar_search(gens)) == 2
    assert len(chunks) > 1


def test_invariant_search_with_tiny_chunks(monkeypatch):
    # chunks of 128 elements split both batched steps many times over
    monkeypatch.setattr(groups, "_SEED_CHUNK", 128)
    rng = random.Random(128)
    for m, b in ((3, 2), (2, 3), (4, 2)):
        for rotation in (True, False):
            cipher = _workload_shaped_cipher(rng, m, b, rotation)
            _same_as_scalar_search(sample_ind_generators(cipher))


@pytest.mark.parametrize("d", [0, 1])
def test_invariant_search_on_degenerate_degrees(d):
    # degree 1 has no seed; at degree 2 the one seed has full rank, so no
    # seed is left for a scalar closure
    rng = random.Random(d)
    for _ in range(8):
        gens = _seeded_generator_set(rng, d) if d else GeneratorSet(
            (Perm.identity(1),), ("id",))
        assert _same_as_scalar_search(gens) == []
        assert _same_as_scalar_search(gens, 0) == []


def test_invariant_search_runs_few_scalar_closures(monkeypatch):
    # a seeded m3b3 two-round random-layer cipher: the retired search ran
    # the scalar closure on all 511 seeds, the batched seed pass runs one
    calls = []
    closure = groups._phi_closure
    monkeypatch.setattr(groups, "_phi_closure",
                        lambda *args: calls.append(args) or closure(*args))
    cipher = _workload_shaped_cipher(random.Random(9), 3, 3, rotation=False)
    gens = sample_ind_generators(cipher)
    assert invariant_linear_partition_search(gens) == \
        phi_closure_partition_search(gens)
    assert len(calls) <= 4


def test_invariant_search_skips_joins_of_nested_closures(monkeypatch):
    # the rotation cipher at d = 9 has six invariant partitions; a pair of
    # closures where one holds the other joins to it, so the join loop
    # skips it: 118 scalar closures before the skip, 100 with it
    calls = []
    closure = groups._phi_closure
    monkeypatch.setattr(groups, "_phi_closure",
                        lambda *args: calls.append(args) or closure(*args))
    gens = sample_ind_generators(build_rotation_cipher(3, 3, 3))
    found = invariant_linear_partition_search(gens)
    assert found == phi_closure_partition_search(gens)
    assert len(found) == 6
    assert len(calls) <= 100
