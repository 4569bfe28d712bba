"""Permutation-group checks: blocks, primitivity, and invariant partitions."""

import random
import re
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tbaudit import groups
from tbaudit.cipher import (TbCipher, Round, build_rotation_cipher,
                            find_trapdoor_chains)
from tbaudit.errors import CapExceeded, IntransitiveError
from tbaudit.gf2 import (BitMatrix, BrickLayout, Subspace, _joins,
                         _maps_cosets, _reduced_rows, _seed_closure,
                         count_proper_subspaces, random_invertible, rref,
                         wall_subspace)
from tbaudit.groups import (MAX_PARTITIONS, BlockSystem, GeneratorSet,
                            is_primitive, invariant_linear_partition_search,
                            minimal_block, minimal_invariant_partitions,
                            partition_block_system, sample_ind_generators,
                            sample_round_generators)
from tbaudit.mixing import MixingLayer
from tbaudit.presets import identity_sbox, rotation_layer

from oracles import (_transversal, all_points_is_primitive,
                     brute_block_systems_transitive, canonical_rref_bases,
                     cosets_of, finest_containing_pair, partition_invariant,
                     phi_closure_partition_search, retired_is_primitive,
                     retired_minimal_block)
from test_cipher import _closure_test_ciphers, _oracle_test_brick


def cycle(n):
    return np.roll(np.arange(n), -1)


def c8_gens():
    return GeneratorSet([cycle(8)], ["rot"])


def s8_gens():
    swap = list(range(8))
    swap[0], swap[1] = 1, 0
    return GeneratorSet([swap, cycle(8)], ["swap", "rot"])


def translation_group_gens(d):
    # row j is x -> x XOR 2^j
    return GeneratorSet(np.arange(1 << d) ^ (1 << np.arange(d))[:, None],
                        [f"t{j}" for j in range(d)])


def wreath_gens():
    # S2 wr S4 on 8 points with blocks {i, i + 4}: a swap inside the block
    # of 0, a swap of two blocks, and a cycle of all four blocks
    inside = [4, 1, 2, 3, 0, 5, 6, 7]
    across = [1, 0, 2, 3, 5, 4, 6, 7]
    return GeneratorSet([inside, across, cycle(8)],
                        ["inside", "across", "rot"])


def as_partition(system):
    return frozenset(frozenset(b) for b in system.blocks())


def wall_subspaces(m, b):
    layout = BrickLayout(m, b)
    return [wall_subspace(layout, 1 << i) for i in range(b)]


# ---------------------------------------------------------------------------
# Generator sets.


def test_perm_validation():
    # each row must be a permutation of range(degree), 1 <= degree <= 2^16
    with pytest.raises(ValueError,
                       match=r"generator 1 \('b'\) do not form a bijection"):
        GeneratorSet([[1, 2, 0], [0, 0, 1]], ["a", "b"])
    with pytest.raises(ValueError, match="out of range"):
        GeneratorSet([[0, 3]], ["a"])
    with pytest.raises(ValueError, match="out of range"):
        GeneratorSet([[-1, 0]], ["a"])
    with pytest.raises(ValueError, match="degree"):
        GeneratorSet(np.zeros((1, 0), dtype=np.int64), ["a"])
    with pytest.raises(ValueError, match="degree"):
        GeneratorSet([np.arange((1 << 16) + 1)], ["a"])
    with pytest.raises(ValueError, match="one row per generator"):
        GeneratorSet(np.arange(4), ["a"])
    with pytest.raises(ValueError, match="one row per generator"):
        GeneratorSet(np.zeros((1, 2, 2), dtype=np.int64), ["a"])


def test_generator_set_validation():
    with pytest.raises(ValueError, match="no generators"):
        GeneratorSet(np.zeros((0, 4), dtype=np.int64), [])
    with pytest.raises(ValueError, match="labels"):
        GeneratorSet([cycle(4)], ["a", "b"])
    with pytest.raises(ValueError, match="inhomogeneous"):
        GeneratorSet([cycle(4), cycle(5)], ["a", "b"])
    # refused, not truncated: [1.7, 0.2] would read as the swap [1, 0]
    with pytest.raises(ValueError, match="integers, not float64"):
        GeneratorSet([[1.7, 0.2]], ["a"])
    gens = c8_gens()
    assert gens.degree == 8 and len(gens) == 1 and gens.labels == ("rot",)
    # the set keeps its own read-only int64 copy of the rows
    rows = np.array([[1, 2, 0], [0, 2, 1]], dtype=np.uint32)
    gens = GeneratorSet(rows, ("a", "b"))
    rows[0, 0] = 0
    assert gens.images.dtype == np.int64
    assert gens.images.tolist() == [[1, 2, 0], [0, 2, 1]]
    with pytest.raises(ValueError):
        gens.images[0, 0] = 0


def test_compose_applies_left_then_right():
    # a followed by b is b's row indexed by a's: the retired route's tree
    # element u_y is its path's generators composed that way, so it sends 0
    # to y
    gens = wreath_gens()
    pred, via, _ = groups._schreier_tree(gens)
    for y in range(gens.degree):
        assert _transversal(gens.images, pred, via, y)[0] == y


def test_inverse_and_identity():
    # the inverse of a row sorts its images back into place; every Schreier
    # generator u_{g(y)}^-1 g u_y of the retired route fixes 0, and on a
    # tree edge it is the identity
    gens = wreath_gens()
    pred, via, _ = groups._schreier_tree(gens)
    identity = np.arange(gens.degree)
    edges = 0
    for y in range(gens.degree):
        u_y = _transversal(gens.images, pred, via, y)
        for k, g in enumerate(gens.images):
            z = g[y]
            inv_u_z = np.argsort(_transversal(gens.images, pred, via, z))
            s = inv_u_z[g[u_y]]
            assert s[0] == 0
            if pred[z] == y and via[z] == k:
                assert (s == identity).all()
                edges += 1
    assert edges == gens.degree - 1


def test_translation_acts_by_xor():
    # the round sampler's last d rows are the basis translations
    cipher = build_rotation_cipher(2, 2, 3)
    gens = sample_round_generators(cipher)
    points = np.arange(16)
    for j in range(4):
        assert (gens.images[cipher.ell + j] == points ^ (1 << j)).all()


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
    # refused, not truncated: [0.2, 0.7, 1.5, 1.9] would read as [0 0 1 1]
    with pytest.raises(ValueError, match="integers, not float64"):
        BlockSystem([0.2, 0.7, 1.5, 1.9])
    with pytest.raises(ValueError, match="integers, not bool"):
        BlockSystem([True, False])
    # refused, not raveled: [[0, 1], [1, 0]] would read as 4 points
    with pytest.raises(ValueError, match="1-D array, one id per point, not 2-D"):
        BlockSystem([[0, 1], [1, 0]])
    with pytest.raises(ValueError, match="1-D array, one id per point, not 0-D"):
        BlockSystem(3)
    # refused as empty, not as floats nor as a degree-0 system whose block
    # size divides by zero
    for empty in ([], np.array([], dtype=np.int64)):
        with pytest.raises(ValueError, match="block ids are empty"):
            BlockSystem(empty)
    # blocks of sizes 2 and 1 have no block size, where 3 // 2 read as 1
    uneven = BlockSystem([0, 0, 1])
    assert uneven.n_blocks == 2 and uneven.blocks() == [[0, 1], [2]]
    with pytest.raises(ValueError, match="blocks have sizes 1 to 2"):
        uneven.block_size()
    assert BlockSystem([7]).block_size() == 1
    assert BlockSystem([0, 1, 2]).block_size() == 1


def test_block_systems_of_different_degrees_differ():
    # one block of three points is not one block of one point, and systems
    # of degrees 4 and 8 compare without a broadcast error
    assert BlockSystem([0, 0, 0]) != BlockSystem([0])
    assert BlockSystem([0, 0, 1, 1]) != BlockSystem([0, 0, 1, 1] * 2)
    assert BlockSystem([0, 0, 1, 1] * 2) != BlockSystem([0, 0, 1, 1])


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
    # the row that breaks the blocks need not be the first
    rot_swap = GeneratorSet(s8_gens().images[::-1], ["rot", "swap"])
    assert not evens_odds.preserved_by(rot_swap)
    # a set of another degree is refused, not judged on the shorter domain
    c4 = GeneratorSet([cycle(4)], ["rot"])
    with pytest.raises(ValueError, match="degree 4 .* degree 8"):
        evens_odds.preserved_by(c4)


def test_partition_block_system_from_subspace():
    s = partition_block_system(rref([3], 2))
    assert s.degree == 4 and s.n_blocks == 2
    assert as_partition(s) == cosets_of({0, 3}, 2)
    assert s.preserved_by(translation_group_gens(2))
    # seeded subspaces of every dimension at d <= 6
    rng = random.Random(0xC05E7)
    for n in range(60):
        d = 1 + n % 6
        u = rref([rng.getrandbits(d) for _ in range(rng.randint(0, d))], d)
        s = partition_block_system(u)
        assert s.n_blocks == 1 << (d - u.dim)
        assert as_partition(s) == cosets_of(set(u.elements()), d)
        assert s.preserved_by(translation_group_gens(d))
    # 2^17 points is past MAX_DEGREE: refused before the points are built
    with pytest.raises(ValueError, match=r"2\^17 points exceed MAX_DEGREE"):
        partition_block_system(rref([1], 17))


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
        images = gens.images.tolist()
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
    images = gens.images.tolist()
    brute = set(brute_block_systems_transitive(images))
    linear = set()
    for k in range(4):
        for basis in canonical_rref_bases(3, k):
            linear.add(cosets_of(set(Subspace(basis, 3).elements()), 3))
    assert brute == linear
    assert len(brute) == 16


def test_minimal_block_requires_transitivity():
    with pytest.raises(IntransitiveError):
        minimal_block(GeneratorSet([[1, 0, 2, 3]], ["a"]), [(0, 1)])


def test_minimal_block_refuses_points_outside_the_domain(monkeypatch):
    # -1 would wrap round to point 7 and glue c8 into one block, and 8
    # would index past the rows; both are refused before the tree is built
    calls = []
    monkeypatch.setattr(groups, "_schreier_tree", calls.append)
    for pair in ((0, -1), (0, 8)):
        with pytest.raises(ValueError, match=re.escape(
                f"pair {pair} has a point outside [0, 8)")):
            minimal_block(c8_gens(), [(0, 2), pair])
    # refused, not truncated or re-paired: 2.5 would read as 2, True as 1,
    # and the rows of [(0, 2, 4)] raveled would pair 4 with what follows
    for pair in ((0, 2.5), (0, True), (0, np.float64(2)), (0, 2, 4), (0,), 3):
        shown = pair if isinstance(pair, tuple) else (pair,)
        with pytest.raises(ValueError, match=re.escape(
                f"pair {shown} is not two integer points")):
            minimal_block(c8_gens(), [(0, 2), pair])
    assert calls == []
    # an integer (P, 2) array is taken as it is
    pairs = np.array([[0, 4], [1, 5]], dtype=np.uint8)
    monkeypatch.undo()
    assert minimal_block(c8_gens(), pairs) == minimal_block(c8_gens(), [(0, 4)])


def random_generator_set(rng):
    """1-4 permutations of degree 1-24: any permutation, one moving a random
    subset of the points only (often intransitive), or one keeping a random
    partition into blocks of equal size (often imprimitive)."""
    n = rng.randint(1, 24)
    kind = rng.choice(("any", "support", "blocks"))
    k = rng.choice([k for k in range(1, n + 1) if n % k == 0])
    rows = []
    for _ in range(rng.randint(1, 4)):
        if kind == "blocks":
            outer = rng.sample(range(n // k), n // k)
            row = [outer[x // k] * k + y for x in range(0, n, k)
                   for y in rng.sample(range(k), k)]
        else:
            row = list(range(n))
            moved = (rng.sample(range(n), rng.randint(0, n))
                     if kind == "support" else row[:])
            for x, y in zip(moved, rng.sample(moved, len(moved))):
                row[x] = y
        rows.append(row)
    return GeneratorSet(rows, [f"g{i}" for i in range(len(rows))])


def test_minimal_block_matches_the_retired_union_find():
    # random sets, transitive or not, with 0-3 pairs, then the round and
    # encryption sets of seeded ciphers at d <= 8 gluing 0 to spread points
    rng = random.Random(0xB10C)
    systems = set()
    for _ in range(2000):
        gens = random_generator_set(rng)
        pairs = [(rng.randrange(gens.degree), rng.randrange(gens.degree))
                 for _ in range(rng.randint(0, 3))]
        got = groups._minimal_block(
            gens, np.array(pairs, dtype=np.int64).reshape(-1, 2))
        assert got == retired_minimal_block(gens, pairs), (gens.images,
                                                           pairs)
        systems.add((gens.degree, got.n_blocks))
    assert len(systems) > 100
    for n in range(12):
        m, b = (4, 2) if n % 4 == 3 else ((2, 2), (3, 2), (2, 3))[n % 3]
        layout = BrickLayout(m, b)
        kind = ("random", "affine", "identity")[n % 3]
        rounds = tuple(
            Round(tuple(_oracle_test_brick(kind, rng, m) for _ in range(b)),
                  rotation_layer(layout) if n % 2 else
                  MixingLayer(random_invertible(rng, layout.d), layout))
            for _ in range(rng.randint(1, 3)))
        cipher = TbCipher(rounds)
        for gens in (sample_round_generators(cipher),
                     sample_ind_generators(cipher)):
            for beta in range(1, gens.degree, 1 + gens.degree // 8):
                got = groups._minimal_block(gens, np.array([[0, beta]]))
                assert got == retired_minimal_block(gens, [(0, beta)])


def test_minimal_block_chases_each_point_once(monkeypatch):
    # after the pair join every step joins g(r) with g(label[r]) for the
    # least points r the step before relabelled, and a point stops being
    # least once, so the joins number at most G * (n - n_blocks); and
    # raveled index arrays, as np.minimum.at is markedly slower on 2-D ones
    join = groups._join_classes
    calls = []

    def counted(label, a, b):
        assert a.ndim == b.ndim == 1
        calls.append(len(a))
        assert sum(calls[1:]) <= bound, "a point was chased twice"
        return join(label, a, b)

    monkeypatch.setattr(groups, "_join_classes", counted)
    cipher = build_rotation_cipher(3, 3, 3)
    ind = sample_ind_generators(cipher)
    cases = [(c8_gens(), [(0, 4)]), (wreath_gens(), [(0, 4), (1, 5)]),
             (translation_group_gens(4), [(0, 3)]),
             (ind, [(0, 7)]), (ind, [(0, 9)]),
             (sample_round_generators(cipher), [(0, 1)])]
    for gens, pairs in cases:
        want = retired_minimal_block(gens, pairs)
        bound = len(gens) * (gens.degree - want.n_blocks)
        calls.clear()
        assert groups._minimal_block(gens, np.array(pairs)) == want
        assert len(calls) >= 2  # the pair join and at least one chase


def test_is_primitive_verdicts():
    ok, wit = is_primitive(c8_gens())
    assert not ok and wit is not None and wit.preserved_by(c8_gens())
    ok, wit = is_primitive(s8_gens())
    assert ok and wit is None
    c5 = GeneratorSet([cycle(5)], ["rot"])
    assert is_primitive(c5) == (True, None)
    ok, wit = is_primitive(translation_group_gens(3))
    assert not ok
    assert wit.block_size() == 2  # blocks are cosets of a 1-dim subspace
    ok, wit = is_primitive(wreath_gens())
    assert not ok and wit.blocks() == [[0, 4], [1, 5], [2, 6], [3, 7]]


@pytest.mark.parametrize("gens", [
    c8_gens(), s8_gens(), GeneratorSet([cycle(5)], ["rot"]),
    # the basis translations as rows: the seed pass answers, and the first
    # proper closure is C(1) = {0, 1}
    translation_group_gens(3),
    # no row is a translation: the generic route glues 0 to 1, 2 and 3,
    # whose systems are trivial, before beta = 4, the first nontrivial one
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


def test_is_primitive_takes_the_seed_pass_on_translation_sets(monkeypatch):
    # a set whose translations, among its rows or among its rows composed
    # after row 0's inverse, span F_2^d is answered by the seed pass, with
    # no tree and no block test; any other set builds the tree once and
    # glues 0 to each beta in turn
    calls = []
    tree, minimal, seed_pass = (groups._schreier_tree, groups._minimal_block,
                                groups._seed_pass)
    monkeypatch.setattr(groups, "_schreier_tree",
                        lambda gens: calls.append("tree") or tree(gens))
    monkeypatch.setattr(groups, "_minimal_block",
                        lambda gens, pairs: calls.append("block")
                        or minimal(gens, pairs))
    monkeypatch.setattr(groups, "_seed_pass",
                        lambda gens, d: calls.append("seed")
                        or seed_pass(gens, d))
    # rows T_3 and T_1 at d = 2 span F_2^2 without being the basis rows
    t3_t1 = GeneratorSet(np.arange(4) ^ np.array([3, 1])[:, None],
                         ["t3", "t1"])
    # the encryption maps hold no translation row, but each E_{l,j} o E_0^-1
    # is the translation by e_j
    cipher = build_rotation_cipher(3, 3, 3)
    for gens in (sample_round_generators(cipher), sample_ind_generators(cipher),
                 translation_group_gens(3), t3_t1):
        want = retired_is_primitive(gens)
        calls.clear()
        assert is_primitive(gens) == want
        assert calls[0] == "seed" and calls.count("seed") == 1
        assert "tree" not in calls and "block" not in calls
    for gens in (c8_gens(), wreath_gens()):
        want = all_points_is_primitive(gens)
        calls.clear()
        assert is_primitive(gens) == want
        assert calls[0] == "tree" and calls.count("tree") == 1
        assert "seed" not in calls and "block" in calls
    # one translation row spans only a line: the generic route answers
    d4 = GeneratorSet([cycle(4), np.arange(4) ^ 1], ["rot", "t1"])
    want = all_points_is_primitive(d4)
    calls.clear()
    assert is_primitive(d4) == want and not want[0]
    assert "seed" not in calls
    # the public minimal_block still checks transitivity
    calls.clear()
    minimal_block(t3_t1, [(0, 1)])
    assert calls == ["tree", "block"]


def test_is_primitive_tests_one_point_per_stabilizer_orbit(monkeypatch):
    # the all-points loop glued 0 to each of the 511 other points; the
    # retired Schreier-subgroup cut, the oracle of the seed pass, glues 0 to
    # one point per orbit of its stabilizer subgroup, and is_primitive
    # answers the round set by the seed pass with no block test at all
    calls = []
    minimal = groups._minimal_block
    monkeypatch.setattr(groups, "_minimal_block",
                        lambda gens, pairs: calls.append(pairs)
                        or minimal(gens, pairs))
    gens = sample_round_generators(build_rotation_cipher(3, 3, 3))
    assert retired_is_primitive(gens) == (True, None)
    assert 1 <= len(calls) <= 8
    calls.clear()
    assert is_primitive(gens) == (True, None)
    assert calls == []


def test_is_primitive_builds_one_schreier_tree(monkeypatch):
    # the generic route's block tests skip minimal_block's transitivity
    # check, which would build the tree again for every tested point; the
    # seed pass on a round set builds none
    calls = []
    tree = groups._schreier_tree
    monkeypatch.setattr(groups, "_schreier_tree",
                        lambda gens: calls.append(gens) or tree(gens))
    gens = sample_round_generators(build_rotation_cipher(3, 3, 3))
    assert is_primitive(gens) == (True, None)
    assert calls == []
    # S_8 is primitive, so 0 is glued to all seven other points
    s8 = s8_gens()
    assert is_primitive(s8) == (True, None)
    assert len(calls) == 1
    minimal_block(s8, [(0, 1)])
    assert len(calls) == 2  # the public call still checks transitivity


def _primitivity_oracle_cases():
    """Round sets of the 216 closure-test ciphers, then seeded d = 8-9
    ciphers of the shapes of the group workload: rotation m4b2 and m3b3
    with b rounds, and random-layer m4b2 and m3b3 with two rounds."""
    for cipher in _closure_test_ciphers():
        yield sample_round_generators(cipher)
    rng = random.Random(0x5EED)
    for n in range(24):
        m, b = ((4, 2), (3, 3))[n % 2]
        layout = BrickLayout(m, b)
        rotate = n % 4 < 2
        rounds = tuple(
            Round(tuple(_oracle_test_brick("random", rng, m)
                        for _ in range(b)),
                  rotation_layer(layout) if rotate else
                  MixingLayer(random_invertible(rng, layout.d), layout))
            for _ in range(b if rotate else 2))
        yield sample_round_generators(TbCipher(rounds))


def test_is_primitive_matches_the_retired_schreier_cut():
    # verdict and witness equal the retired route's on every round set,
    # many of them imprimitive
    imprimitive = 0
    for gens in _primitivity_oracle_cases():
        got = is_primitive(gens)
        assert got == retired_is_primitive(gens), gens.labels
        imprimitive += not got[0]
    assert imprimitive >= 50, imprimitive


# ---------------------------------------------------------------------------
# Sampled generator sets from a cipher.


def test_sample_ind_generators_shape():
    cipher = build_rotation_cipher(2, 2, 2)
    gens = sample_ind_generators(cipher)
    assert len(gens) == 1 + cipher.ell * cipher.layout.d
    assert gens.labels[0] == "enc[zero keys]"
    assert gens.labels[1] == "enc[k1+=bit0]"
    assert gens.degree == 16


def test_ind_generators_expose_translations():
    # perturbing only the last round key by one bit composes with the
    # base encryption to a pure XOR, which the search relies on.
    cipher = build_rotation_cipher(2, 2, 2)
    gens = sample_ind_generators(cipher)
    g0_inverse = np.argsort(gens.images[0])
    d, ell = cipher.layout.d, cipher.ell
    for j in range(d):
        g = gens.images[1 + (ell - 1) * d + j]
        assert (g[g0_inverse] == np.arange(1 << d) ^ (1 << j)).all()


def test_sample_round_generators_shape():
    cipher = build_rotation_cipher(2, 2, 3)
    gens = sample_round_generators(cipher)
    assert len(gens) == 3 + 4
    assert gens.labels[0] == "round1[keyless]"
    assert gens.labels[-1] == "xor[bit3]"


# ---------------------------------------------------------------------------
# Invariant linear partition search.


def _brute_invariant_subspaces(gens):
    """Every proper nonzero subspace whose coset partition every generator
    maps onto itself, by a sweep over all of them, in (dim, basis) order."""
    d = gens.degree.bit_length() - 1
    images = gens.images.tolist()
    found = []
    for k in range(1, d):
        for s in (Subspace(basis, d) for basis in canonical_rref_bases(d, k)):
            if partition_invariant(cosets_of(set(s.elements()), d), images):
                found.append(s)
    return sorted(found, key=lambda s: (s.dim, s.basis))


def test_invariant_search_full_cross_check_d6():
    # rotation cipher at m=3, b=2, two rounds: the layer swaps the bricks
    # each round, so the full two-round map fixes both brick walls.  Check
    # the search against a sweep over every proper subspace of F_2^6.
    cipher = build_rotation_cipher(3, 2, 2)
    gens = sample_ind_generators(cipher)
    found = invariant_linear_partition_search(gens)
    assert found == _brute_invariant_subspaces(gens)
    assert set(found) == set(wall_subspaces(3, 2))


def test_invariant_search_finds_the_cyclic_chains():
    # the sampled encryption maps generate every keyed encryption (see the
    # module docstring), so the partitions they leave invariant are exactly
    # the U_1 of the exhaustive search's chains with U_{l+1} = U_1
    ciphers = list(_closure_test_ciphers())
    ciphers += [build_rotation_cipher(3, 3, 3), build_rotation_cipher(4, 2, 4)]
    answered = nonempty = 0
    for cipher in ciphers:
        try:
            found = invariant_linear_partition_search(
                sample_ind_generators(cipher))
        except CapExceeded:
            continue
        cyclic = {ch.spaces[0]
                  for ch in find_trapdoor_chains(cipher, "exhaustive")
                  if ch.spaces[-1] == ch.spaces[0]}
        assert found == sorted(cyclic, key=lambda s: (s.dim, s.basis))
        answered += 1
        nonempty += bool(found)
    assert answered >= 200 and nonempty >= 100, (answered, nonempty)


def test_invariant_search_empty_on_odd_rotation_depth():
    # three rounds of the same cipher leave the walls rotated out of place,
    # and nothing else is linear-invariant either.
    cipher = build_rotation_cipher(3, 2, 3)
    gens = sample_ind_generators(cipher)
    assert invariant_linear_partition_search(gens) == []


def test_invariant_search_degenerate_identity_cipher(monkeypatch):
    # with identity bricks the zero-key map is linear, so every proper
    # subspace is invariant; the cap must trip when the result set is
    # capped below that.
    layout = BrickLayout(2, 2)
    rnd = Round((identity_sbox(2),) * 2, rotation_layer(layout))
    cipher = TbCipher((rnd, rnd))
    gens = sample_ind_generators(cipher)
    found = invariant_linear_partition_search(gens)
    assert len(found) == 65
    monkeypatch.setattr(groups, "MAX_PARTITIONS", 10)
    with pytest.raises(CapExceeded):
        invariant_linear_partition_search(gens)


def test_invariant_search_refuses_on_the_set_past_the_cap():
    # the translations of degree 64 leave all 2,823 proper subspaces
    # invariant; the search refuses on the 513th closed set it builds
    gens = translation_group_gens(6)
    assert count_proper_subspaces(6) == 2823
    with pytest.raises(CapExceeded) as got:
        invariant_linear_partition_search(gens)
    assert (got.value.estimate, got.value.limit) == (MAX_PARTITIONS + 1,
                                                      MAX_PARTITIONS)


def test_found_partitions_are_genuinely_invariant():
    cipher = build_rotation_cipher(3, 2, 2)
    gens = sample_ind_generators(cipher)
    images = gens.images.tolist()
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


@st.composite
def _phi_atoms(draw):
    """A phi table of one or two permutations of degree 2^d, d <= 6, as the
    search builds it (translations, bit permutations plus a constant, one
    of those with two points swapped, or random), and the distinct proper
    closures of one to eight seeds by ``gf2._seed_closure`` on one position
    whose self-loop gives the derivative spans of every column."""
    d = draw(st.integers(2, 6))
    n = 1 << d
    perms = []
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(("xor", "bits", "bits", "swapped",
                                     "random")))
        if kind == "random":
            perms.append(draw(st.permutations(range(n))))
            continue
        order = (draw(st.permutations(range(d))) if kind != "xor"
                 else range(d))
        shift = draw(st.integers(0, n - 1))
        images = [sum(((x >> i) & 1) << j for i, j in enumerate(order))
                  ^ shift for x in range(n)]
        if kind == "swapped":
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            images[i], images[j] = images[j], images[i]
        perms.append(images)
    stack = np.array(perms, dtype=np.uint16)
    phi = (stack ^ stack[:, :1]).T.copy()
    points = np.arange(n, dtype=np.uint16)
    edges = [[(0, lambda u: list(_reduced_rows(
        np.unique(phi[points ^ u] ^ phi).tolist())))]]
    full = np.zeros(n, dtype=bool)
    seeds = draw(st.lists(st.integers(1, n - 1), min_size=1, max_size=8))
    atoms = dict.fromkeys(rows for v in seeds if (
        rows := _seed_closure((v,), edges, full, d)) is not None)
    return d, phi, list(atoms)


@settings(max_examples=100, deadline=None)
@given(_phi_atoms())
def test_joins_close_every_join_of_the_atoms_once(case):
    # every join of closed sets is closed: each passes the full derivative
    # test, and the joins are the proper sums of every subset of the atoms
    d, phi, atoms = case
    got = list(_joins(atoms, d))
    assert len(got) == len(set(got))
    assert all(_maps_cosets(phi, rows, rows) for rows in got)
    want = {rows for k in range(1, len(atoms) + 1)
            for subset in combinations(atoms, k)
            if (rows := _reduced_rows(sum(subset, ()), limit=d - 1))
            is not None}
    assert set(got) == want
    assert got[:len(atoms)] == atoms


def _same_as_scalar_search(gens, limit=MAX_PARTITIONS):
    """Assert the search, with ``MAX_PARTITIONS`` set to ``limit``, returns
    the retired search's list, or refuses exactly when that list is longer
    than ``limit``; return the list, or None on a refusal.  The retired
    search caps the phi-closed sets it builds, and those include every
    invariant subspace, so where it refuses it is run again uncapped."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(groups, "MAX_PARTITIONS", limit)
        try:
            want = phi_closure_partition_search(gens, limit)
        except CapExceeded:
            want = phi_closure_partition_search(gens, float("inf"))
        if len(want) > limit:
            with pytest.raises(CapExceeded) as got:
                invariant_linear_partition_search(gens)
            assert str(got.value) == (
                f"too many closed subspaces (estimated work: {limit + 1}, "
                f"limit: {limit})")
            return None
        assert invariant_linear_partition_search(gens) == want
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
        perms.append(images)
    return GeneratorSet(perms, [f"g{i}" for i in range(len(perms))])


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


def test_invariant_search_equals_brute_force_at_the_cap_boundary(
        monkeypatch):
    # seeded generator sets of degree 4 to 64, and single affine maps,
    # against a sweep over every proper subspace: the search lists exactly
    # the invariant ones, and it refuses exactly when their count exceeds
    # the cap
    rng = random.Random(0xB0B)
    counts = []
    for n in range(30):
        d = 2 + n % 5
        gens = (_seeded_generator_set(rng, d) if n % 2 else GeneratorSet(
            [_affine_images(rng, d)], ["affine"]))
        want = _brute_invariant_subspaces(gens)
        for cap in {len(want), max(len(want) - 1, 0), 3}:
            monkeypatch.setattr(groups, "MAX_PARTITIONS", cap)
            if len(want) > cap:
                with pytest.raises(CapExceeded):
                    invariant_linear_partition_search(gens)
            else:
                assert invariant_linear_partition_search(gens) == want
        counts.append(len(want))
    assert counts.count(0) >= 3 and sum(c > 3 for c in counts) >= 5, counts


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
    phi_rows = len(np.unique(gens.images ^ gens.images[:, :1], axis=0))
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
            [[0]], ["id"])
        assert _same_as_scalar_search(gens) == []
        assert _same_as_scalar_search(gens, 0) == []


def test_invariant_search_runs_few_scalar_closures(monkeypatch):
    # a seeded m3b3 two-round random-layer cipher: the retired search ran
    # the scalar closure on all 511 seeds, the batched seed pass runs the
    # closure engine once
    calls = []
    monkeypatch.setattr(groups, "_seed_closure",
                        lambda *args: calls.append(args)
                        or _seed_closure(*args))
    cipher = _workload_shaped_cipher(random.Random(9), 3, 3, rotation=False)
    gens = sample_ind_generators(cipher)
    assert invariant_linear_partition_search(gens) == \
        phi_closure_partition_search(gens)
    assert len(calls) <= 4


def test_invariant_search_skips_joins_of_nested_closures(monkeypatch):
    # the rotation cipher at d = 9 has six invariant partitions; the seed
    # pass closes 82 distinct U1 and the join closes nothing (the phi
    # closure it replaced took 88 closures, joins included)
    calls = []
    monkeypatch.setattr(groups, "_seed_closure",
                        lambda *args: calls.append(args)
                        or _seed_closure(*args))
    gens = sample_ind_generators(build_rotation_cipher(3, 3, 3))
    found = invariant_linear_partition_search(gens)
    assert found == phi_closure_partition_search(gens)
    assert len(found) == 6
    assert len(calls) <= 82
