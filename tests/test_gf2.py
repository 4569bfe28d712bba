"""Bit-packed linear algebra against brute-force set arithmetic."""

import random
import re
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tbaudit.gf2 import (_BLOCK_CHUNK, BitMatrix, BrickLayout, Subspace,
                         _brick_support, _iter_rref_blocks, _joins,
                         _maps_cosets, _reduced_blocks, _reduced_rows,
                         count_proper_subspaces, gaussian_binomial,
                         identity_matrix, random_invertible, rref,
                         subspace_image, wall_brick_mask, wall_subspace)

from oracles import (all_subspaces, brute_derivative_containment,
                     canonical_rref_bases, gaussian_recurrence,
                     matrix_apply_by_columns, span_rank, wall_elements,
                     xor_span)

vectors_strategy = st.integers(2, 8).flatmap(
    lambda d: st.tuples(
        st.just(d),
        st.lists(st.integers(0, (1 << d) - 1), min_size=0, max_size=10)))


atoms_strategy = st.integers(1, 6).flatmap(
    lambda d: st.tuples(
        st.just(d),
        st.lists(st.lists(st.integers(1, (1 << d) - 1), min_size=1,
                          max_size=3), max_size=8)))


@given(atoms_strategy)
def test_joins_yield_every_proper_sum_of_the_atoms_once(case):
    # brute force over every subset of the atoms, spans as element sets
    d, spanning = case
    atoms = list(dict.fromkeys(
        rows for vecs in spanning
        if len(rows := _reduced_rows(vecs)) < d))
    got = [frozenset(xor_span(rows))
           for rows in _joins(atoms, d)]
    assert len(got) == len(set(got))
    want = {span for k in range(1, len(atoms) + 1)
            for subset in combinations(atoms, k)
            if len(span := frozenset(xor_span(sum(subset, ())))) < 1 << d}
    assert set(got) == want
    assert got[:len(atoms)] == [frozenset(xor_span(a)) for a in atoms]


@given(vectors_strategy)
def test_rref_spans_the_same_set(dv):
    d, vecs = dv
    s = rref(vecs, d)
    assert set(s.elements()) == xor_span(vecs)
    assert s.dim == span_rank(vecs)


@given(vectors_strategy, st.randoms(use_true_random=False))
def test_rref_is_canonical_under_respanning(dv, rng):
    d, vecs = dv
    s = rref(vecs, d)
    # Shuffle, duplicate, and inject random combinations of the same vectors;
    # the canonical basis must not move.
    respan = list(vecs) * 2
    for _ in range(4):
        if vecs:
            a, b = rng.choice(vecs), rng.choice(vecs)
            respan.append(a ^ b)
    rng.shuffle(respan)
    assert rref(respan, d) == s
    assert rref(s.basis, d) == s


@given(vectors_strategy)
def test_rref_pivot_structure(dv):
    d, vecs = dv
    basis = rref(vecs, d).basis
    pivots = [row & -row for row in basis]
    assert pivots == sorted(pivots)
    for i, row in enumerate(basis):
        for j, p in enumerate(pivots):
            if i != j:
                assert row & p == 0, "pivot column appears in another row"


def test_subspace_rejects_non_canonical_basis():
    with pytest.raises(ValueError):
        Subspace((3, 1), 2)
    with pytest.raises(ValueError):
        Subspace((2, 1), 2)  # pivots out of order
    with pytest.raises(ValueError):
        Subspace((3, 2), 2)  # pivot 2 also in the first row
    with pytest.raises(ValueError):
        Subspace((0,), 2)
    with pytest.raises(ValueError):
        Subspace((4,), 2)  # bit beyond ambient
    with pytest.raises(ValueError):
        Subspace((1,), 200)


@given(vectors_strategy, st.booleans())
def test_subspace_accepts_exactly_the_canonical_bases(dv, reduce_first):
    d, vecs = dv
    rows = tuple(vecs[:d])
    if reduce_first:
        rows = _reduced_rows(rows)
    if rows == _reduced_rows(rows):
        assert Subspace(rows, d).basis == rows
    else:
        with pytest.raises(ValueError, match="canonical"):
            Subspace(rows, d)


@given(vectors_strategy, st.integers(0, 255))
def test_membership_and_coset_reps(dv, raw):
    d, vecs = dv
    s = rref(vecs, d)
    v = raw & ((1 << d) - 1)
    span = xor_span(vecs)
    assert (v in s) == (v in span)
    rep = s.coset_rep(v)
    assert rep ^ v in s
    for u in s.elements():
        assert s.coset_rep(v ^ u) == rep


@given(vectors_strategy)
def test_subspace_sum_is_the_span_of_the_union(dv):
    # the sum of two subspaces as the joins form it: the echelon basis of
    # their bases together
    d, vecs = dv
    cut = len(vecs) // 2
    a, b = rref(vecs[:cut], d), rref(vecs[cut:], d)
    assert set(rref(a.basis + b.basis, d).elements()) == xor_span(vecs)


def test_trivial_flags():
    assert rref([], 3).is_trivial()
    assert rref([1, 2, 4], 3).is_trivial()
    assert not rref([1, 2], 3).is_trivial()


# ---------------------------------------------------------------------------
# Counting.


def test_gaussian_binomial_matches_recurrence():
    for d in range(13):
        for k in range(d + 2):
            assert gaussian_binomial(d, k) == gaussian_recurrence(d, k)
    assert gaussian_binomial(4, -1) == 0
    # a bool is not a dimension: gaussian_binomial(4, True) gave 15 and
    # count_proper_subspaces(True) gave 0
    for call, args, named in ((gaussian_binomial, (4, True), "k=True"),
                              (gaussian_binomial, (2.0, 1), "d=2.0"),
                              (count_proper_subspaces, (True,), "d=True"),
                              (count_proper_subspaces, (4.0,), "d=4.0")):
        with pytest.raises(ValueError, match=re.escape(named)):
            call(*args)


def test_known_subspace_counts():
    assert gaussian_binomial(2, 1) == 3
    assert gaussian_binomial(4, 2) == 35
    assert gaussian_binomial(4, 3) == 15
    assert gaussian_binomial(10, 3) == 6347715
    assert count_proper_subspaces(4) == 65
    assert count_proper_subspaces(6) == 2823
    assert count_proper_subspaces(8) == 417199 - 2  # minus the two trivial dims
    assert count_proper_subspaces(d=16) == sum(
        gaussian_recurrence(16, k) for k in range(1, 16))


# ---------------------------------------------------------------------------
# Enumeration.


def rref_walk(d, k):
    """The subspaces of the canonical walk, one Subspace per basis."""
    return [Subspace(tuple(rows), d)
            for block in _iter_rref_blocks(d, k) for rows in block.tolist()]


@pytest.mark.parametrize("d", [2, 3, 4])
def test_enumeration_is_exactly_the_subspace_lattice(d):
    reference = all_subspaces(d)
    for k in range(d + 1):
        got = rref_walk(d, k)
        assert len(got) == gaussian_binomial(d, k)
        assert len(set(got)) == len(got), "duplicate subspace emitted"
        got_sets = {frozenset(s.elements()) for s in got}
        want = {s for s in reference if len(s) == 1 << k}
        assert got_sets == want


def test_enumeration_order_is_deterministic():
    a = [s.basis for s in rref_walk(5, 2)]
    b = [s.basis for s in rref_walk(5, 2)]
    assert a == b


def test_rref_blocks_flatten_to_the_canonical_order():
    # d=8, k=4 has a block of 2^16 bases, so the chunking is crossed too.
    for d, k in [(d, k) for d in range(8) for k in range(d + 1)] + [(8, 4)]:
        blocks = list(_iter_rref_blocks(d, k))
        assert all(b.dtype == np.int64 and b.shape[1] == k
                   and 0 < len(b) <= _BLOCK_CHUNK for b in blocks)
        flat = [tuple(row) for b in blocks for row in b.tolist()]
        assert flat == list(canonical_rref_bases(d, k))


@st.composite
def vector_blocks(draw):
    """(d, k, dtype, vectors): an (n, N) array of vectors in (F_2)^d, d <=
    12, each row of a chosen rank around k (0, k, k + 1 or any), made of
    independent rows, sums of them, zeros and repeats."""
    d = draw(st.integers(2, 12))
    k = draw(st.sampled_from((1, d - 1)) | st.integers(1, d - 1))
    width = draw(st.integers(1, 3 * d))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        rank = min(draw(st.sampled_from((0, k, k + 1)) | st.integers(0, d)),
                   width)
        pivots = draw(st.permutations(range(d)))[:rank]
        basis = [(1 << p) | (draw(st.integers(0, (1 << d) - 1)) & -(2 << p))
                 for p in pivots]
        vecs = basis[:]
        while len(vecs) < width:
            kind = draw(st.sampled_from(("zero", "repeat", "sum")))
            if kind == "zero" or not basis:
                vecs.append(0)
            elif kind == "repeat":
                vecs.append(draw(st.sampled_from(vecs)))
            else:
                picks = draw(st.lists(st.sampled_from(basis), min_size=1))
                vecs.append(int(np.bitwise_xor.reduce(picks)))
        rows.append(draw(st.permutations(vecs)))
    dtype = draw(st.sampled_from((np.int64, np.uint16)))
    return d, k, dtype, np.array(rows, dtype=dtype)


@given(vector_blocks())
def test_reduced_blocks_match_the_reduced_rows_row_by_row(case):
    # rank above k is None from _reduced_rows: the rank says so, and the
    # rows are then left unchecked
    d, k, dtype, vectors = case
    rows, rank = _reduced_blocks(vectors, k)
    assert rows.dtype == dtype and rows.shape == (len(vectors), k)
    for got, r, vecs in zip(rows.tolist(), rank.tolist(), vectors.tolist()):
        assert r == len(_reduced_rows(vecs))
        bounded = _reduced_rows(vecs, limit=k)
        assert (bounded is None) == (r > k)
        if bounded is not None:
            assert tuple(got) == bounded + (0,) * (k - r)


# ---------------------------------------------------------------------------
# Matrices.


@given(st.integers(2, 7), st.randoms(use_true_random=False))
def test_matrix_apply_matches_column_parity_oracle(d, rng):
    rows = tuple(rng.getrandbits(d) for _ in range(d))
    m = BitMatrix(rows, d)
    for _ in range(8):
        v = rng.getrandbits(d)
        assert m.apply(v) == matrix_apply_by_columns(rows, d, v)


@given(st.integers(2, 6), st.randoms(use_true_random=False))
def test_matrix_apply_is_linear(d, rng):
    m = BitMatrix(tuple(rng.getrandbits(d) for _ in range(d)), d)
    for _ in range(8):
        x, y = rng.getrandbits(d), rng.getrandbits(d)
        assert m.apply(x ^ y) == m.apply(x) ^ m.apply(y)


@given(st.integers(2, 6), st.randoms(use_true_random=False))
def test_matrix_mul_is_composition(d, rng):
    a = BitMatrix(tuple(rng.getrandbits(d) for _ in range(d)), d)
    b = BitMatrix(tuple(rng.getrandbits(d) for _ in range(d)), d)
    ab = a.mul(b)
    for v in range(1 << d):
        assert ab.apply(v) == b.apply(a.apply(v))


def test_matrix_mul_dimension_check():
    a = BitMatrix((1, 2), 2)
    b = BitMatrix((1, 2, 4), 3)
    with pytest.raises(ValueError):
        a.mul(b)


@given(st.integers(2, 7), st.integers(0, 2**32))
def test_inverse_round_trips(d, seed):
    rng = random.Random(seed)
    m = random_invertible(rng, d)
    inv = m.inverse()
    ident = identity_matrix(d)
    assert m.mul(inv).rows == ident.rows
    assert inv.mul(m).rows == ident.rows


def test_singular_matrix_raises():
    with pytest.raises(ValueError, match="singular"):
        BitMatrix((1, 1), 2).inverse()
    with pytest.raises(ValueError, match="square"):
        BitMatrix((1, 2, 3), 2).inverse()
    assert not BitMatrix((1, 1), 2).is_invertible()
    assert BitMatrix((0, 0), 2).rank() == 0
    # random rank-deficient matrices: every row is a combination of r < d rows
    rng = random.Random(7)
    for _ in range(300):
        d = rng.randint(1, 8)
        basis = random_invertible(rng, d).rows[:rng.randrange(d)]
        rows = []
        for _ in range(d):
            v = 0
            for b in basis:
                if rng.getrandbits(1):
                    v ^= b
            rows.append(v)
        m = BitMatrix(tuple(rows), d)
        assert m.rank() < d
        with pytest.raises(ValueError, match="singular"):
            m.inverse()


@given(vectors_strategy)
def test_rank_matches_oracle(dv):
    d, vecs = dv
    assert BitMatrix(tuple(vecs), d).rank() == span_rank(vecs)


def test_matrix_validation():
    with pytest.raises(ValueError):
        BitMatrix((4,), 2)  # row beyond ncols
    with pytest.raises(ValueError):
        BitMatrix((1,), 200)
    # a bool row was taken as 1; a float row or ncols raised a bare TypeError
    for rows, ncols, named in (((True, 2), 2, "row True"),
                               ((1.5, 2), 2, "row 1.5"),
                               ((1, 2), 2.0, "ncols=2.0"),
                               ((1, 2), True, "ncols=True")):
        with pytest.raises(ValueError, match=re.escape(named)):
            BitMatrix(rows, ncols)
    assert BitMatrix((np.int64(1), 2), 2).apply(3) == 3


@given(st.integers(2, 6), st.integers(0, 2**32))
def test_subspace_image_is_elementwise_image(d, seed):
    rng = random.Random(seed)
    m = random_invertible(rng, d)
    vecs = [rng.getrandbits(d) for _ in range(rng.randrange(4))]
    s = rref(vecs, d)
    img = subspace_image(s, m)
    assert set(img.elements()) == {m.apply(v) for v in s.elements()}


def test_subspace_image_dimension_mismatch():
    with pytest.raises(ValueError):
        subspace_image(rref([1], 3), identity_matrix(2))


# ---------------------------------------------------------------------------
# _maps_cosets: the basis-only coset test.


def random_subspace(rng, d, k):
    return rref(random_invertible(rng, d).rows[:k], d)


def coset_mapping_table(rng, u, w):
    """A random permutation sending each coset of U onto a coset of W
    (dim U == dim W); f(0) is random, so the table is not normalized."""
    d = u.ambient
    u_reps = sorted({u.coset_rep(x) for x in range(1 << d)})
    w_reps = sorted({w.coset_rep(x) for x in range(1 << d)})
    rng.shuffle(w_reps)
    table = [0] * (1 << d)
    for ur, wr in zip(u_reps, w_reps):
        targets = [wr ^ e for e in w.elements()]
        rng.shuffle(targets)
        for e, t in zip(u.elements(), targets):
            table[ur ^ e] = t
    return table


@given(st.integers(1, 6), st.integers(0, 2**32))
def test_maps_cosets_matches_brute_containment(d, seed):
    rng = random.Random(seed)
    n = 1 << d
    # every dimension of U including 0, with W = U (invariance) and W != U
    for k in range(d + 1):
        u = random_subspace(rng, d, k)
        for w in (u, random_subspace(rng, d, k)):
            table = coset_mapping_table(rng, u, w)
            if rng.getrandbits(1):
                i, j = rng.randrange(n), rng.randrange(n)
                table[i], table[j] = table[j], table[i]
            arr = np.array(table, dtype=np.int64)
            for v in (w, random_subspace(rng, d, rng.randint(0, d))):
                assert _maps_cosets(arr, u.basis, v.basis) == \
                    brute_derivative_containment(table, u.elements(),
                                                 set(v.elements()))


# ---------------------------------------------------------------------------
# Brick layouts and walls.


def test_layout_validation():
    with pytest.raises(ValueError):
        BrickLayout(1, 4)
    with pytest.raises(ValueError):
        BrickLayout(4, 1)
    with pytest.raises(ValueError):
        BrickLayout(16, 16)  # 256 bits > ambient cap
    for m, b in ((2.5, 2), (2, 3.0), (True, 2), (2, "3")):
        with pytest.raises(ValueError, match=re.escape(
                f"m={m!r} and b={b!r} must be integers")):
            BrickLayout(m, b)
    assert BrickLayout(np.int64(3), 2).m == 3


def test_layout_masks_and_support():
    lay = BrickLayout(3, 3)
    assert lay.d == 9
    assert _brick_support(0, lay.m) == 0
    assert _brick_support(0b100000001, lay.m) == 0b101
    assert _brick_support(0b000111000, lay.m) == 0b010


@given(st.integers(2, 3), st.integers(2, 3), st.data())
def test_wall_subspace_elements(m, b, data):
    lay = BrickLayout(m, b)
    bricks = data.draw(st.sets(st.integers(1, b), min_size=0, max_size=b))
    w = wall_subspace(lay, sum(1 << (i - 1) for i in bricks))
    assert set(w.elements()) == wall_elements(m, b, bricks)


def test_wall_index_validation():
    with pytest.raises(ValueError):
        wall_subspace(BrickLayout(2, 2), 1 << 2)  # brick 3
    with pytest.raises(ValueError):
        wall_subspace(BrickLayout(2, 2), -1)
    # a bool or a float mask is refused, not read as brick 1
    for mask in (True, 1.0):
        with pytest.raises(ValueError, match=re.escape(
                f"brick mask {mask!r} is not an integer")):
            wall_subspace(BrickLayout(2, 2), mask)


def test_wall_brick_mask_recognition():
    lay = BrickLayout(2, 2)
    w = wall_subspace(lay, 0b10)
    assert wall_brick_mask(w, lay) == 0b10
    # a diagonally embedded line touches both bricks but has dimension 1
    diag = rref([0b0101], 4)
    assert wall_brick_mask(diag, lay) is None
    with pytest.raises(ValueError):
        wall_brick_mask(rref([1], 3), lay)


@given(st.data())
def test_wall_brick_mask_vs_elementwise_definition(data):
    m, b = data.draw(st.integers(2, 3)), data.draw(st.integers(2, 3))
    lay = BrickLayout(m, b)
    # unit vectors make walls likely, other vectors near-misses
    vecs = data.draw(st.lists(
        st.one_of(st.sampled_from([1 << i for i in range(lay.d)]),
                  st.integers(0, (1 << lay.d) - 1)), max_size=lay.d))
    s = rref(vecs, lay.d)
    walls = {frozenset(wall_elements(m, b, [i + 1 for i in range(b)
                                            if mask >> i & 1])): mask
             for mask in range(1 << b)}
    mask = walls.get(frozenset(s.elements()))
    assert wall_brick_mask(s, lay) == mask
    assert mask is None or wall_subspace(lay, mask) == s
