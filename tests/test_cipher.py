"""Cipher model, partition transport, chain search, and the audit verdict."""

import random
import re
import time
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tbaudit.mixing as mixing_mod
from tbaudit.cipher import (_ROUND_TABLE_CACHE, DEFAULT_CHAIN_CAP, MAX_TABLE_D,
                            SEMANTICS, PartitionChain,
                            Round, TbCipher, _block_spans,
                            _brick_conditions, _join_heads, _proper_heads,
                            _push_block, _push_heads, _seed_atoms,
                            _span_kernel, _wall_walk, audit,
                            build_present_toy_cipher, build_rotation_cipher,
                            build_secure_toy_cipher, chain_holds_under_key,
                            check_lemma_containment, encrypt,
                            encryption_table, find_trapdoor_chains,
                            partition_image, round_table, substitution_table,
                            verify_chain)
from tbaudit.errors import CapExceeded
from tbaudit.gf2 import (BitMatrix, BrickLayout, Subspace, _joins,
                         _reduced_rows, count_proper_subspaces,
                         random_invertible, rref, wall_brick_mask,
                         wall_subspace)
from tbaudit.mixing import LayerFamily, MixingLayer, family_strongly_proper
from tbaudit.presets import (identity_sbox, inversion_sbox, identity_layer,
                             present_sbox, rotation_layer)
from tbaudit.sbox import SBox
from tbaudit.specfile import load_cipher

from oracles import (brute_derivative_containment, brute_partition_image,
                     build_linear_toy_cipher, matrix_apply_by_columns,
                     retired_encryption_table, retired_push_head,
                     retired_round_table, retired_seed_atoms,
                     retired_substitution_table,
                     retired_walls_audit_chains, span_rank,
                     table_scan_chains, table_verify_chain,
                     wall_walk_links_hold, walls_mode_masks, xor_span)

SPEC_DIR = Path(__file__).parent.parent / "specs"

SPLIT_ROUTE_TABLE = (3, 14, 7, 9, 13, 11, 4, 5, 12, 8, 1, 0, 15, 6, 2, 10)


def random_cipher(seed, m, b, ell):
    rng = random.Random(seed)
    layout = BrickLayout(m, b)
    rounds = []
    for _ in range(ell):
        bricks = []
        for _ in range(b):
            t = list(range(1 << m))
            rng.shuffle(t)
            bricks.append(SBox(tuple(t)))
        layer = MixingLayer(random_invertible(rng, layout.d), layout)
        rounds.append(Round(tuple(bricks), layer))
    return TbCipher(tuple(rounds))


def oracle_encrypt(cipher, keys, x):
    layout = cipher.layout
    m = layout.m
    for rnd, k in zip(cipher.rounds, keys):
        y = 0
        for i, box in enumerate(rnd.bricks):
            y |= box.table[(x >> (i * m)) & ((1 << m) - 1)] << (i * m)
        x = matrix_apply_by_columns(rnd.layer.matrix.rows, layout.d, y) ^ k
    return x


# ---------------------------------------------------------------------------
# Construction and the round maps.


def test_round_validation():
    layout = BrickLayout(2, 2)
    layer = identity_layer(layout)
    with pytest.raises(ValueError, match="bricks"):
        Round((identity_sbox(2),), layer)
    with pytest.raises(ValueError, match="2-bit"):
        Round((identity_sbox(3), identity_sbox(3)), layer)


def test_cipher_validation():
    with pytest.raises(ValueError, match="no rounds"):
        TbCipher(())
    a = Round((identity_sbox(2),) * 2, identity_layer(BrickLayout(2, 2)))
    b = Round((identity_sbox(2),) * 3, identity_layer(BrickLayout(2, 3)))
    with pytest.raises(ValueError, match="layout"):
        TbCipher((a, b))
    c = TbCipher((a, a))
    assert c.ell == 2
    assert c.layout.d == 4
    assert c.layers() == (a.layer, a.layer)


@given(st.integers(0, 2**32), st.data())
def test_encrypt_matches_step_by_step_oracle(seed, data):
    cipher = random_cipher(seed, 2, 2, 2)
    d = cipher.layout.d
    keys = tuple(data.draw(st.integers(0, (1 << d) - 1)) for _ in range(2))
    x = data.draw(st.integers(0, (1 << d) - 1))
    assert encrypt(cipher, keys, x) == oracle_encrypt(cipher, keys, x)


def test_key_tuple_validation():
    cipher = build_rotation_cipher(2, 2, 2)
    with pytest.raises(ValueError, match="round keys"):
        encrypt(cipher, (0,), 0)
    with pytest.raises(ValueError, match="out of range"):
        encrypt(cipher, (0, 1 << 4), 0)
    # a bool or a float key is refused, not read as 0 or 1
    for k in (True, 1.0):
        with pytest.raises(ValueError, match=re.escape(
                f"round key {k!r} is not an integer")):
            encrypt(cipher, (0, k), 0)
    with pytest.raises(ValueError, match="round key True"):
        encryption_table(cipher, (True, 0))
    # a plaintext outside [0, 2^d) is refused, not wrapped or truncated
    for x in (-3, 1 << 4, 1 << 40, 2.0, True):
        with pytest.raises(ValueError, match=re.escape(
                f"plaintext {x!r} is not an integer in [0, 2^4)")):
            encrypt(cipher, (0, 0), x)
    assert encrypt(cipher, (0, 0), np.uint8(15)) == encrypt(cipher, (0, 0), 15)


def test_encryption_table_is_the_pointwise_map():
    cipher = random_cipher(77, 2, 2, 2)
    keys = (9, 4)
    table = encryption_table(cipher, keys)
    assert sorted(table.tolist()) == list(range(16))
    for x in range(16):
        assert table[x] == encrypt(cipher, keys, x)


def test_round_table_normalization():
    cipher = random_cipher(78, 2, 2, 1)
    rnd = cipher.rounds[0]
    layout = rnd.layout
    norm = substitution_table(rnd.bricks, layout)
    assert norm[0] == 0
    # the raw bricklayer is the same map up to the constant folded out of
    # the bricks, and the round table is the raw map L(S(x))
    shift = 0
    for i, box in enumerate(rnd.bricks):
        shift |= box.shift << (i * layout.m)
    assert shift
    lin = rnd.layer.matrix
    assert round_table(rnd).tolist() == [lin.apply(y ^ shift)
                                         for y in norm.tolist()]


def _same_table(got, want):
    assert got.dtype == want.dtype
    assert got.flags.writeable == want.flags.writeable
    assert np.array_equal(got, want)


@pytest.mark.parametrize("m, b", [(2, 2), (2, 5), (2, 9), (3, 3), (3, 4),
                                  (4, 2), (4, 5), (5, 3), (6, 2), (7, 2),
                                  (8, 2), (2, 10)])
def test_codebook_tables_match_the_retired_route(m, b):
    # the brick-by-brick build against the 2^d index-array route it
    # replaced; (4, 5) and (2, 10) are d = 20, the table cap
    rng = random.Random(1000 * m + b)
    layout = BrickLayout(m, b)
    cipher = TbCipher(tuple(
        Round(tuple(_oracle_test_brick(rng.choice(("random", "affine",
                                                   "identity")), rng, m)
                    for _ in range(b)),
              _walls_test_layer(rng.choice(("random", "rotation",
                                            "permuting")), rng, layout))
        for _ in range(2)))
    for rnd in cipher.rounds:
        _same_table(round_table(rnd), retired_round_table(rnd))
        _same_table(substitution_table(rnd.bricks, layout),
                    retired_substitution_table(rnd.bricks, layout))
    keys = tuple(rng.getrandbits(layout.d) for _ in range(cipher.ell))
    _same_table(encryption_table(cipher, keys),
                retired_encryption_table(cipher, keys))


def test_substitution_table_fixes_wall_partitions():
    layout = BrickLayout(2, 3)
    bricks = tuple(random_cipher(5, 2, 3, 1).rounds[0].bricks)
    sub = substitution_table(bricks, layout)
    for wall in (0b001, 0b010, 0b101):
        w = wall_subspace(layout, wall)
        img = partition_image(sub, w)
        assert img is not None
        assert img == w


def test_table_caches_are_bounded():
    rng = random.Random(16)
    layout = BrickLayout(2, 2)
    rounds = set()
    while len(rounds) < _ROUND_TABLE_CACHE + 8:
        bricks = tuple(SBox(tuple(rng.sample(range(4), 4))) for _ in range(2))
        rounds.add(Round(bricks, MixingLayer(random_invertible(rng, 4),
                                             layout)))
    round_table.cache_clear()
    for rnd in rounds:
        round_table(rnd)
    info = round_table.cache_info()
    assert info.maxsize == _ROUND_TABLE_CACHE
    assert info.currsize <= _ROUND_TABLE_CACHE
    for cached in (_brick_conditions, _span_kernel):
        assert cached.cache_info().maxsize is not None


def test_full_codebook_width_cap():
    layout = BrickLayout(3, 7)  # 21 bits, one beyond the table cap
    rnd = Round((identity_sbox(3),) * 7, identity_layer(layout))
    cipher = TbCipher((rnd,))
    with pytest.raises(CapExceeded) as exc:
        encryption_table(cipher, (0,))
    assert exc.value.limit == 1 << MAX_TABLE_D


# ---------------------------------------------------------------------------
# Partition images.


@pytest.mark.parametrize("seed", range(6))
def test_partition_image_matches_brute_force(seed):
    rng = random.Random(seed)
    d = 4
    table = list(range(1 << d))
    rng.shuffle(table)
    for _ in range(12):
        u = rref([rng.getrandbits(d) for _ in range(rng.randrange(1, 3))], d)
        got = partition_image(table, u)
        want = brute_partition_image(table, set(u.elements()))
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert set(got.elements()) == want


def test_partition_image_trivial_partitions_pass_through():
    table = list(range(8))
    for u in (rref([], 3), rref([1, 2, 4], 3)):
        assert partition_image(table, u) == u


def test_partition_image_is_key_blind():
    # XORing a constant into the output permutes cosets but keeps the
    # partition, so the image subspace cannot move.
    rng = random.Random(123)
    table = list(range(16))
    rng.shuffle(table)
    u = rref([3, 12], 4)
    base = partition_image(table, u)
    for c in (1, 7, 15):
        shifted = [y ^ c for y in table]
        got = partition_image(shifted, u)
        if base is None:
            assert got is None
        else:
            assert got == base


def test_partition_image_validation():
    with pytest.raises(ValueError, match="power of two"):
        partition_image([0, 1, 2], rref([1], 2))
    with pytest.raises(ValueError, match="ambient"):
        partition_image(list(range(8)), rref([1], 4))


def test_lemma_containment_requires_normalization():
    with pytest.raises(ValueError, match="normalized"):
        check_lemma_containment([1, 0, 2, 3], rref([1], 2), rref([1], 2))


@pytest.mark.parametrize("seed", range(4))
def test_lemma_containment_matches_brute_force(seed):
    rng = random.Random(seed)
    table = list(range(16))
    rng.shuffle(table)
    table = [y ^ table[0] for y in table]
    for _ in range(8):
        u = rref([rng.getrandbits(4)], 4)
        w = rref([rng.getrandbits(4) for _ in range(2)], 4)
        assert check_lemma_containment(table, u, w) == \
            brute_derivative_containment(table, u.elements(), set(w.elements()))


# ---------------------------------------------------------------------------
# Chains.


def test_chain_validation():
    v1 = rref([1, 2], 4)
    with pytest.raises(ValueError, match="two"):
        PartitionChain((v1,))
    with pytest.raises(ValueError, match="dimensions"):
        PartitionChain((v1, rref([1], 3)))
    with pytest.raises(ValueError, match="trivial"):
        PartitionChain((v1, rref([], 4)))


def test_walls_mode_on_the_rotation_cipher():
    cipher = build_rotation_cipher(3, 3, 3)
    chains = find_trapdoor_chains(cipher, "walls")
    assert len(chains) == 6
    first = chains[0]
    assert [s.basis for s in first.spaces] == [
        (1, 2, 4), (8, 16, 32), (64, 128, 256), (1, 2, 4)]
    for ch in chains:
        assert verify_chain(cipher, ch)
        assert table_verify_chain(cipher, ch)


def _walls_test_layer(kind, rng, layout):
    if kind == "rotation":
        return rotation_layer(layout)
    if kind == "random":
        return MixingLayer(random_invertible(rng, layout.d), layout)
    # brick-permuting: brick i goes to brick perm[i] through an invertible
    # m x m block; a "leaky" layer also sends one bit of brick i into the
    # image of brick j, so a wall holding brick i but not brick j escapes
    m, b = layout.m, layout.b
    perm = rng.sample(range(b), b)
    rows = []
    for i in range(b):
        rows += [r << (perm[i] * m) for r in random_invertible(rng, m).rows]
    if kind == "leaky":
        i, j = rng.sample(range(b), 2)
        rows[i * m] ^= 1 << (perm[j] * m + rng.randrange(m))
    return MixingLayer(BitMatrix(tuple(rows), layout.d), layout)


def _oracle_supports(layer):
    m, b, d = layer.layout.m, layer.layout.b, layer.layout.d
    out = []
    for i in range(b):
        acc = 0
        for t in range(m):
            acc |= matrix_apply_by_columns(layer.matrix.rows, d,
                                           1 << (i * m + t))
        out.append(sum(1 << j for j in range(b)
                       if (acc >> (j * m)) & ((1 << m) - 1)))
    return out


def _wall_rows(m, mask):
    return [1 << (i * m + t) for i in range(mask.bit_length())
            if (mask >> i) & 1 for t in range(m)]


def test_walls_mode_matches_the_mask_oracle():
    rng = random.Random(2017)
    m = 2
    tally = {"none": 0, "some": 0, "all": 0}
    for n in range(240):
        ell, b = 1 + n % 4, 2 + (n // 4) % 5
        layout = BrickLayout(m, b)
        box = identity_sbox(m)
        kinds = ("random", "rotation", "permuting", "leaky")
        cipher = TbCipher(tuple(
            Round((box,) * b,
                  _walls_test_layer(rng.choice(kinds), rng, layout))
            for _ in range(ell)))
        expected = walls_mode_masks(
            [_oracle_supports(rnd.layer) for rnd in cipher.rounds], b)
        chains = find_trapdoor_chains(cipher, "walls")
        assert len(chains) == len(expected)
        for chain, masks in zip(chains, expected):
            for space, mask in zip(chain.spaces, masks):
                assert sorted(space.basis) == _wall_rows(m, mask)
            last = cipher.rounds[-1].layer.matrix.rows
            images = [matrix_apply_by_columns(last, layout.d, v)
                      for v in _wall_rows(m, masks[-1])]
            final = list(chain.spaces[-1].basis)
            assert len(final) == len(images) == span_rank(final + images)
        if ell == 1:
            assert len(chains) == (1 << b) - 2
        key = ("none" if not chains else
               "all" if len(chains) == (1 << b) - 2 else "some")
        tally[key] += 1
    assert min(tally.values()) > 0, tally


def test_unknown_mode_rejected():
    with pytest.raises(ValueError, match="unknown mode"):
        find_trapdoor_chains(build_rotation_cipher(2, 2, 1), "deep")
    # a cap that is not an integer is refused in either mode: 9.5 ran the
    # search, and True was "above the True-bit cap"
    for mode in ("walls", "exhaustive"):
        for cap in (9.5, True, None):
            with pytest.raises(ValueError, match=re.escape(
                    f"cap {cap!r} is not an integer")):
                find_trapdoor_chains(build_rotation_cipher(2, 2, 1), mode,
                                     cap=cap)


def test_exhaustive_cap_refusal():
    cipher = build_rotation_cipher(4, 4, 2)
    with pytest.raises(CapExceeded) as exc:
        find_trapdoor_chains(cipher, "exhaustive")
    assert exc.value.estimate == count_proper_subspaces(16)
    assert exc.value.limit == DEFAULT_CHAIN_CAP


def test_exhaustive_on_an_affine_cipher_finds_every_subspace():
    # 2-bit field inversion is the Frobenius square map, hence linear, so
    # every proper subspace heads a chain.
    cipher = build_rotation_cipher(2, 2, 2)
    chains = find_trapdoor_chains(cipher, "exhaustive", cap=4)
    assert len(chains) == count_proper_subspaces(4) == 65
    starts = [ch.spaces[0] for ch in chains]
    assert len(set(starts)) == 65
    dims = [s.dim for s in starts]
    assert dims == sorted(dims)
    for ch in chains[:8]:
        assert verify_chain(cipher, ch)
    walls = find_trapdoor_chains(cipher, "walls")
    assert {ch.spaces for ch in walls} <= {ch.spaces for ch in chains}


def _oracle_test_brick(kind, rng, m):
    if kind == "identity":
        return identity_sbox(m)
    if kind == "affine":
        lin, shift = random_invertible(rng, m), rng.getrandbits(m)
        return SBox(tuple(lin.apply(x) ^ shift for x in range(1 << m)))
    return SBox(tuple(rng.sample(range(1 << m), 1 << m)))


def _chain_order(chains):
    return sorted(chains, key=lambda ch: (ch.spaces[0].dim,
                                          ch.spaces[0].basis))


def _closure_test_ciphers():
    """216 seeded ciphers: every brick kind at d = 4; random and mixed
    bricks at d = 6, whose affine rounds make every subspace a chain, as
    every 2-bit brick does; random bricks at d = 8."""
    rng = random.Random(1999)
    for n in range(216):
        m, b = (4, 2) if n % 54 == 53 else (2, 3) if n % 36 == 17 else (
            (2, 2), (3, 2))[n % 2]
        layout = BrickLayout(m, b)
        kind = rng.choice(("random", "random", "mixed") if layout.d == 6 else
                          ("random",) if layout.d == 8 else
                          ("random", "mixed", "affine", "identity"))
        rounds = []
        for _ in range(1 + n % 3):
            kinds = [rng.choice(("random", "affine", "identity"))
                     if kind == "mixed" else kind for _ in range(b)]
            layer = _walls_test_layer(
                rng.choice(("random", "rotation", "permuting")), rng, layout)
            rounds.append(Round(
                tuple(_oracle_test_brick(k, rng, m) for k in kinds), layer))
        yield TbCipher(tuple(rounds))


def _block_pusher(cipher):
    """The batched push of one block of heads, head by head: each head's
    chain spaces, or None where the head was dropped."""
    d = cipher.layout.d
    kernels = [_span_kernel(rnd, False) for rnd in cipher.rounds]

    def push(block):
        heads = list(map(tuple, block.tolist()))
        chains = {tuple(spaces[0]): spaces
                  for spaces in _push_block(kernels, block).tolist()}
        # the chains come in the order of their heads
        assert list(chains) == [head for head in heads if head in chains]
        return [tuple(Subspace(tuple(rows), d) for rows in chains[head])
                if head in chains else None for head in heads]

    return push


def test_closure_search_matches_the_subspace_scan():
    # both exhaustive routes against the retired table scan, on the closure
    # test ciphers; at d = 8 a dense lattice has 417,197 chains
    tally = {"none": 0, "some": 0, "dense": 0, "d8": 0}
    full_joins = 0
    for cipher in _closure_test_ciphers():
        d = cipher.layout.d
        atoms = _seed_atoms(cipher)
        oracle = table_scan_chains(cipher)
        # pushing every proper subspace visits them in the same order
        push = _block_pusher(cipher)
        scanned = [spaces for heads in _proper_heads(d)
                   for spaces in push(heads)]
        assert ([spaces for spaces in scanned if spaces is not None]
                == [ch.spaces for ch in oracle])
        expected = [ch.spaces for ch in _chain_order(oracle)]
        n_sub = count_proper_subspaces(d)
        dense = min((1 << len(atoms)) - 1, n_sub) * len(atoms) > n_sub
        # the join, forced where the search picks the scan; only once on
        # the slowest case, every d = 6 subspace a chain
        slowest = d > 4 and len(expected) == n_sub
        if not slowest or not full_joins:
            full_joins += slowest
            # every joined U_1 pushes to a chain: no head is dropped
            got = _push_heads(cipher, _join_heads(atoms, d))
            assert len(got) == len(list(_joins(atoms, d)))
            assert [ch.spaces for ch in got] == expected
        if not dense or d <= 4:
            found = find_trapdoor_chains(cipher, "exhaustive")
            assert [ch.spaces for ch in found] == expected
        tally["d8" if d == 8 else "dense" if dense else
              "some" if expected else "none"] += 1
    assert min(tally.values()) >= 4 and full_joins, tally


def test_batched_push_matches_the_retired_push():
    # the same chains and the same drops, head by head, for the scan's
    # blocks and, where the search takes the join, the join's; at d = 8 the
    # scan's blocks are cut to every 8th head, which bounds the scalar
    # push's time (the closure test above pushes every head there against
    # the table scan)
    dropped = kept = joined = 0
    for cipher in _closure_test_ciphers():
        d = cipher.layout.d
        kernels = [_span_kernel(rnd, False) for rnd in cipher.rounds]
        push = _block_pusher(cipher)
        stride = 8 if d == 8 else 1
        blocks = [heads[::stride] for heads in _proper_heads(d)]
        atoms = _seed_atoms(cipher)
        n_sub = count_proper_subspaces(d)
        if min((1 << len(atoms)) - 1, n_sub) * len(atoms) <= n_sub:
            blocks += _join_heads(atoms, d)
            joined += bool(atoms)
        for heads in blocks:
            expected = [retired_push_head(kernels, tuple(head), d)
                        for head in heads.tolist()]
            assert push(heads) == [None if ch is None else ch.spaces
                                   for ch in expected]
            dropped += expected.count(None)
            kept += len(expected) - expected.count(None)
    assert dropped and kept and joined, (dropped, kept, joined)


def test_block_spans_gathers_each_heads_kernel_lists():
    # one kernel call per distinct vector of a block, and each head's row
    # spans the union of its rows' lists; rows touching one brick give
    # shorter lists than rows touching all three, so the lists are ragged
    cipher = random_cipher(3, 4, 3, 1)
    d = cipher.layout.d
    kernel = _span_kernel(cipher.rounds[0], False)
    rng = random.Random(31)
    one_brick = [rng.randrange(1, 16) << 4 * i for i in range(3)
                 for _ in range(2)]
    every_brick = [v for v in rng.sample(range(1 << d), 40)
                   if all(v >> 4 * i & 15 for i in range(3))][:6]
    pool = one_brick + every_brick
    assert len({len(kernel(v)) for v in pool}) > 1
    calls = []

    def spanning(u):
        calls.append(u)
        return kernel(u)

    for k in (1, 2, d - 1):
        heads = np.array([[rng.choice(pool) for _ in range(k)]
                          for _ in range(24)], dtype=np.int64)
        calls.clear()
        got = _block_spans(spanning, heads)
        values = heads.ravel().tolist()
        # values repeat across heads, and each is asked for once
        assert len(set(values)) < len(values)
        assert sorted(calls) == sorted(set(values))
        assert len(got) == len(heads)
        for row, head in zip(got.tolist(), heads.tolist()):
            assert _reduced_rows(row) == _reduced_rows(
                w for u in head for w in kernel(u))
    calls.clear()
    empty = np.zeros((0, 3), dtype=np.int64)
    assert _block_spans(spanning, empty).shape == (0, 0) and not calls
    # a block that loses every head keeps its (n, l + 1, k) shape
    assert _push_block([kernel] * 2, empty).shape == (0, 3, 3)


def test_exhaustive_search_refuses_past_the_int64_width_at_once(
        monkeypatch):
    # d = 64 vectors do not fit int64: refused before any seed, whatever
    # the cap
    import tbaudit.cipher as cipher_mod

    def seed_pass(cipher):
        raise AssertionError("the seed pass started")

    monkeypatch.setattr(cipher_mod, "_seed_atoms", seed_pass)
    for cap in (64, 1000):
        with pytest.raises(CapExceeded, match="d=64 refused") as exc:
            find_trapdoor_chains(build_rotation_cipher(8, 8, 2),
                                 "exhaustive", cap=cap)
        assert exc.value.limit == 62


def _rotation_random_cipher(seed, m, b, ell):
    rng = random.Random(seed)
    layout = BrickLayout(m, b)
    return TbCipher(tuple(
        Round(tuple(_oracle_test_brick("random", rng, m) for _ in range(b)),
              rotation_layer(layout)) for _ in range(ell)))


def test_seed_pass_matches_the_retired_pass():
    # the same atoms in the same order: the full-point stop cuts short only
    # closures that were going to be full
    ciphers = list(_closure_test_ciphers())
    for seed in range(3):
        for m, b in ((3, 3), (4, 3)):
            ciphers += [random_cipher(seed, m, b, 3),
                        _rotation_random_cipher(seed, m, b, 3)]
    ciphers.append(build_rotation_cipher(4, 3, 3))
    some = 0
    for cipher in ciphers:
        atoms = _seed_atoms(cipher)
        assert atoms == retired_seed_atoms(cipher)
        some += len(atoms) > 1
    assert some >= 10, some


def test_seed_pass_stops_on_full_points(monkeypatch):
    # a chains-sparse-shaped random cipher: the retired pass makes about
    # 5,400 span-kernel calls, the full-point pass about 1,050
    import tbaudit.cipher as cipher_mod
    calls = []
    kernel = cipher_mod._span_kernel

    def counted(rnd, inverse):
        spanning = kernel(rnd, inverse)
        return lambda u: calls.append(u) or spanning(u)

    cipher = random_cipher(1, 4, 2, 2)
    kernel.cache_clear()
    monkeypatch.setattr(cipher_mod, "_span_kernel", counted)
    assert _seed_atoms(cipher) == []
    assert 0 < len(calls) <= 2000, len(calls)


def test_exhaustive_search_takes_the_scan_on_a_dense_lattice(monkeypatch):
    # identity bricks make every subspace head a chain (255 atoms); the join
    # would form all 417,197 sums, so the search must fall back to the scan
    import tbaudit.cipher as cipher_mod
    scans = []
    scan = cipher_mod._proper_heads

    def timed(d):
        # from the first head to the last, so the pushes are timed too
        start = time.perf_counter()
        yield from scan(d)
        scans.append(time.perf_counter() - start)

    monkeypatch.setattr(cipher_mod, "_proper_heads", timed)
    layout = BrickLayout(4, 2)
    rnd = Round((identity_sbox(4),) * 2,
                MixingLayer(random_invertible(random.Random(8), 8), layout))
    start = time.perf_counter()
    chains = find_trapdoor_chains(TbCipher((rnd,)), "exhaustive")
    elapsed = time.perf_counter() - start
    assert len(chains) == count_proper_subspaces(8)
    assert len(scans) == 1 and elapsed <= 3 * scans[0]


def test_exhaustive_search_builds_no_table(monkeypatch):
    # affine bricks make every d = 6 subspace head a chain, so the search
    # takes the scan; neither it nor the seed closures may build a table
    import tbaudit.cipher as cipher_mod
    scans = []
    scan = cipher_mod._proper_heads
    monkeypatch.setattr(cipher_mod, "_proper_heads",
                        lambda d: scans.append(d) or scan(d))
    rng = random.Random(6)
    layout = BrickLayout(3, 2)
    cipher = TbCipher(tuple(
        Round(tuple(_oracle_test_brick("affine", rng, 3) for _ in range(2)),
              _walls_test_layer("random", rng, layout)) for _ in range(2)))
    round_table.cache_clear()
    chains = find_trapdoor_chains(cipher, "exhaustive")
    assert round_table.cache_info().misses == 0
    assert scans == [6] and len(chains) == count_proper_subspaces(6)
    # the raw round tables re-verify them, though these bricks move 0
    assert any(box.shift for rnd in cipher.rounds for box in rnd.bricks)
    assert all(table_verify_chain(cipher, ch) for ch in chains[::97])


@pytest.mark.parametrize("m, b, count", [(4, 3, 6), (3, 4, 14)])
def test_exhaustive_search_above_nine_bits_finds_the_wall_chains(m, b, count):
    cipher = build_rotation_cipher(m, b, 3)
    chains = find_trapdoor_chains(cipher, "exhaustive", cap=12)
    assert len(chains) == count
    assert {ch.spaces for ch in chains} == {
        ch.spaces for ch in find_trapdoor_chains(cipher, "walls")}


def _table_span(table, rows):
    n = len(table)
    return _reduced_rows(table[x ^ u] ^ table[x] for u in rows
                         for x in range(n))


@given(st.integers(0, 2**32), st.sampled_from([(2, 2), (2, 3), (3, 2),
                                               (4, 2), (2, 4)]))
def test_derivative_span_matches_the_full_table(seed, shape):
    rng = random.Random(seed)
    m, b = shape
    layout = BrickLayout(m, b)
    bricks = tuple(_oracle_test_brick(rng.choice(("random", "affine",
                                                  "identity")), rng, m)
                   for _ in range(b))
    rnd = Round(bricks, _walls_test_layer(
        rng.choice(("random", "rotation", "permuting")), rng, layout))
    forward = round_table(rnd).tolist()
    backward = [0] * len(forward)
    for x, y in enumerate(forward):
        backward[y] = x
    d = layout.d
    for table, inverse in ((forward, False), (backward, True)):
        u = rref([rng.getrandbits(d) for _ in range(rng.randint(0, 3))], d)
        spanning = _span_kernel(rnd, inverse)
        w_rows = _reduced_rows(v for row in u.basis for v in spanning(row))
        assert w_rows == _table_span(table, u.basis)
        u_els = u.elements()
        assert brute_derivative_containment(table, u_els, xor_span(w_rows))
        if w_rows:  # nothing smaller holds every derivative
            assert not brute_derivative_containment(table, u_els,
                                                    xor_span(w_rows[1:]))


def test_verify_chain_rejects_tampering():
    cipher = build_rotation_cipher(3, 3, 3)
    good = find_trapdoor_chains(cipher, "walls")[0]
    assert verify_chain(cipher, good)
    toofew = PartitionChain(good.spaces[:-1])
    assert not verify_chain(cipher, toofew)
    swapped = PartitionChain(
        (good.spaces[1], good.spaces[0]) + good.spaces[2:])
    assert not verify_chain(cipher, swapped)
    other = PartitionChain(good.spaces[:-1] + (rref([1, 2], 9),))
    assert not verify_chain(cipher, other)
    wrong_ambient = PartitionChain(tuple(rref([1], 4) for _ in range(4)))
    assert not verify_chain(cipher, wrong_ambient)


def _other_wall(rng, layout, wall):
    """A proper wall with as many bricks as the brick mask ``wall`` but not
    equal to it."""
    others = [w for bricks in combinations(range(layout.b), wall.bit_count())
              if (w := sum(1 << i for i in bricks)) != wall]
    return wall_subspace(layout, rng.choice(others))


def _grown(space):
    """A nontrivial space holding ``space`` with one dimension more, or None
    when that would be the whole space."""
    d = space.ambient
    if space.dim + 1 >= d:
        return None
    v = next(1 << i for i in range(d) if (1 << i) not in space)
    return rref(space.basis + (v,), d)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32))
def test_verify_chain_wall_links_agree_with_the_tables(seed):
    # The containment check of wall links accepts the walls-mode chains and
    # rejects a wrong next wall and a next space one dimension too big, the
    # way the full-codebook partition images do.
    rng = random.Random(seed)
    m, b, ell = 2, rng.randint(2, 4), rng.randint(1, 3)
    layout = BrickLayout(m, b)
    kinds = ("random", "rotation", "permuting", "leaky")
    cipher = TbCipher(tuple(
        Round(tuple(SBox(tuple(rng.sample(range(1 << m), 1 << m)))
                    for _ in range(b)),
              _walls_test_layer(rng.choice(kinds), rng, layout))
        for _ in range(ell)))
    for chain in find_trapdoor_chains(cipher, "walls"):
        assert verify_chain(cipher, chain)
        assert table_verify_chain(cipher, chain)
        h = rng.randrange(ell)
        nxt = chain.spaces[h + 1]
        wall = wall_brick_mask(nxt, layout)
        mutants = [_grown(nxt)]
        if wall is not None:
            mutants.append(_other_wall(rng, layout, wall))
        for space in mutants:
            if space is None:
                continue
            bad = PartitionChain(chain.spaces[:h + 1] + (space,)
                                 + chain.spaces[h + 2:])
            assert not verify_chain(cipher, bad)
            assert not table_verify_chain(cipher, bad)


def test_chain_holds_under_sampled_keys():
    cipher = build_rotation_cipher(3, 3, 4)
    chain = find_trapdoor_chains(cipher, "walls")[0]
    rng = random.Random(2024)
    for _ in range(20):
        keys = tuple(rng.randrange(1 << 9) for _ in range(4))
        assert chain_holds_under_key(cipher, chain, keys)
    # a wrong final subspace must fail under some key
    bogus = PartitionChain(chain.spaces[:-1] + (rref([1, 2, 8], 9),))
    hits = sum(
        chain_holds_under_key(
            cipher, bogus,
            tuple(rng.randrange(1 << 9) for _ in range(4)))
        for _ in range(20))
    assert hits < 20


def test_chain_holds_under_key_refuses_a_chain_that_does_not_fit():
    cipher = build_rotation_cipher(3, 3, 2)  # d = 9, 2 rounds
    wide = find_trapdoor_chains(build_rotation_cipher(3, 4, 2), "walls")[0]
    narrow = find_trapdoor_chains(build_rotation_cipher(2, 2, 2), "walls")[0]
    short = find_trapdoor_chains(build_rotation_cipher(3, 3, 1), "walls")[0]
    for chain in (wide, narrow, short):
        with pytest.raises(ValueError, match="does not fit"):
            chain_holds_under_key(cipher, chain, (0, 0))


# ---------------------------------------------------------------------------
# Per-brick certificate conditions.


def test_brick_conditions_inversion_route():
    rep = _brick_conditions(inversion_sbox(3), False, 10**6)
    assert rep.route == "uniformity"
    assert rep.r == 1  # delta 2 needs only the vacuous order 0
    assert rep.anti_ok is True
    assert rep.ok


def test_brick_conditions_identity_fails_both_routes():
    box = identity_sbox(3)
    plain = _brick_conditions(box, False, 10**6)
    assert plain.r is None
    assert not plain.ok
    assert "not below m" in plain.detail
    prime = _brick_conditions(box, True, 10**6)
    assert prime.route == "min-image"
    assert prime.r is None
    assert not prime.ok


def test_brick_conditions_split_route_box():
    box = SBox(SPLIT_ROUTE_TABLE)
    plain = _brick_conditions(box, False, 10**6)
    assert plain.r == 3  # delta 6 <= 2^3
    assert plain.anti_ok is False  # but order is only 1
    assert not plain.ok
    prime = _brick_conditions(box, True, 10**6)
    assert prime.r == 2  # min image 5 > 2^(4-2)
    assert prime.anti_ok is True
    assert prime.ok


def test_brick_conditions_present():
    rep = _brick_conditions(present_sbox(), False, 10**6)
    assert rep.r == 2
    assert rep.ok


# ---------------------------------------------------------------------------
# The audit.


def test_audit_present_toy_is_secure_by_both_clauses():
    verdict = audit(build_present_toy_cipher(3))
    assert verdict.status == "secure"
    assert verdict.clause1_ok and verdict.clause1_round == 1
    assert verdict.clause2_ok
    assert all(verdict.strongly_proper_layers)
    assert verdict.chain is None
    assert not verdict.exhaustive_ran


def test_audit_secure_toy():
    verdict = audit(build_secure_toy_cipher(2))
    assert verdict.status == "secure"
    assert all(rep.ok for rep in verdict.rounds)


def test_audit_rotation_cipher_is_vulnerable():
    verdict = audit(build_rotation_cipher(3, 3, 3))
    assert verdict.status == "vulnerable"
    assert verdict.chain_count == 6
    assert verify_chain(build_rotation_cipher(3, 3, 3), verdict.chain)
    assert not verdict.clause1_ok and not verdict.clause2_ok
    assert not any(verdict.strongly_proper_layers)
    assert any("survive" in note for note in verdict.notes)


def test_audit_linear_toy_is_inconclusive_without_fallback():
    verdict = audit(build_linear_toy_cipher(2))
    assert verdict.status == "inconclusive"
    assert not verdict.exhaustive_ran
    assert verdict.family.strongly_proper  # layers are fine; bricks are not
    assert any("brick" in note for note in verdict.notes)


def test_audit_exhaustive_fallback_upgrades_to_vulnerable():
    verdict = audit(build_linear_toy_cipher(2), exhaustive_fallback_cap=6)
    assert verdict.status == "vulnerable"
    assert verdict.exhaustive_ran
    assert verdict.exhaustive_empty is False
    assert verify_chain(build_linear_toy_cipher(2), verdict.chain)


def test_audit_empty_exhaustive_stays_inconclusive():
    # random bricks fail the certificate conditions, and this seed admits no
    # chain, so the only honest verdict is inconclusive even after a
    # complete search.
    cipher = random_cipher(1006, 3, 2, 2)
    verdict = audit(cipher, exhaustive_fallback_cap=6)
    assert verdict.status == "inconclusive"
    assert verdict.exhaustive_ran
    assert verdict.exhaustive_empty is True
    assert any("not a security certificate" in note for note in verdict.notes)


def test_audit_condition1prime_rescues_the_split_route_bricks():
    from tbaudit.cipher import _toy_layer

    box = SBox(SPLIT_ROUTE_TABLE)
    rnd = Round((box, box), _toy_layer(4, 2))
    cipher = TbCipher((rnd, rnd))
    plain = audit(cipher)
    assert plain.status == "inconclusive"
    prime = audit(cipher, use_condition1prime=True)
    assert prime.status == "secure"
    assert prime.condition_1prime
    assert prime.rounds[0].bricks[0].route == "min-image"


def test_audit_walks_the_walls_once_per_distinct_layer(monkeypatch):
    walks = []
    escape_steps = mixing_mod._escape_steps

    def counted(supports, b):
        walks.append(b)
        return escape_steps(supports, b)

    monkeypatch.setattr(mixing_mod, "_escape_steps", counted)
    layout = BrickLayout(3, 3)
    box = identity_sbox(3)
    rot = Round((box,) * 3, rotation_layer(layout))
    ident = Round((box,) * 3, identity_layer(layout))
    for rounds, distinct in (((rot,) * 4, 1), ((rot, ident, rot), 2)):
        walks.clear()
        verdict = audit(TbCipher(rounds))
        assert verdict.status == "vulnerable"
        assert len(walks) == distinct + 1


def _random_audit_cipher(rng, n):
    """The n-th of a run of ciphers of 1-4 rounds of random, rotation,
    brick-permuting or leaky layers over random, affine or identity bricks,
    at m = 2, b = 2-6 or m = 3, b = 2-4."""
    m, b = (2, 2 + n % 5) if n % 3 else (3, 2 + n % 3)
    layout = BrickLayout(m, b)
    kinds = ("random", "rotation", "permuting", "leaky")
    brick = rng.choice(("random", "affine", "identity"))
    return TbCipher(tuple(
        Round(tuple(_oracle_test_brick(brick, rng, m) for _ in range(b)),
              _walls_test_layer(rng.choice(kinds), rng, layout))
        for _ in range(1 + n % 4)))


def _audit_test_ciphers():
    """Rotation ciphers at b = 2-12, 180 random ciphers and the bundled
    specs."""
    rng = random.Random(18)
    ciphers = [build_rotation_cipher(m, b, ell)
               for m, top in ((2, 12), (3, 6)) for b in range(2, top + 1)
               for ell in (1, 2, 3)]
    ciphers += [_random_audit_cipher(rng, n) for n in range(180)]
    ciphers += [load_cipher(path) for path in sorted(SPEC_DIR.glob("*.json"))]
    return ciphers


def test_audit_counts_the_chains_the_retired_route_verifies():
    # the mask-level link check against every walls chain sent through
    # verify_chain, on every cipher whose audit reaches the walls search
    tally = {"secure": 0, "none": 0, "some": 0}
    for cipher in _audit_test_ciphers():
        verdict = audit(cipher)
        if verdict.status == "secure":
            tally["secure"] += 1
            assert verdict.chain is None and verdict.chain_count == 0
            continue
        oracle = retired_walls_audit_chains(cipher)
        assert verdict.chain_count == len(oracle)
        assert verdict.chain == (oracle[0] if oracle else None)
        tally["some" if oracle else "none"] += 1
    assert tally["none"] + tally["some"] >= 200
    assert min(tally.values()) > 0, tally


def test_audit_verifies_only_the_chain_it_embeds(monkeypatch):
    import tbaudit.cipher as cipher_mod
    calls = []
    verify = cipher_mod.verify_chain
    monkeypatch.setattr(
        cipher_mod, "verify_chain",
        lambda cipher, chain: calls.append(chain) or verify(cipher, chain))
    verdict = audit(build_rotation_cipher(2, 12, 3))
    assert verdict.status == "vulnerable" and verdict.chain_count == 4094
    assert calls == [verdict.chain]


def test_wall_link_check_rejects_a_tampered_walk():
    # the oracle recomputes each link's image mask, so a row fails once one
    # of its walls is swapped for another wall of the same size, or an
    # intermediate wall for a larger one
    cipher = build_rotation_cipher(2, 4, 3)
    walk = _wall_walk(cipher, audit(cipher).family)
    assert all(wall_walk_links_hold(cipher, walk))
    rng = random.Random(4)
    for _ in range(40):
        row, col = rng.randrange(len(walk)), rng.randrange(1, 4)
        mask = int(walk[row, col])
        bad = walk.copy()
        bad[row, col] = rng.choice([
            w for w in range(1, 15) if w != mask
            and (w.bit_count() == mask.bit_count()
                 or col < 3 and (w & mask) == mask)])
        held = wall_walk_links_hold(cipher, bad)
        assert not held[row] and sum(held) == len(walk) - 1


def test_every_wall_walk_row_is_a_chain():
    # the audit counts the walk's rows as chains: on 240 random ciphers the
    # mask-level link check passes every row, and the count is the walls
    # search's on every cipher that search makes vulnerable
    rng = random.Random(20)
    tally = {"rows": 0, "vulnerable": 0}
    for n in range(240):
        cipher = _random_audit_cipher(rng, n)
        family = family_strongly_proper(LayerFamily(cipher.layers()))
        walk = _wall_walk(cipher, family)
        assert all(wall_walk_links_hold(cipher, walk))
        tally["rows"] += len(walk)
        verdict = audit(cipher)
        if verdict.status == "vulnerable":
            tally["vulnerable"] += 1
            assert verdict.chain_count == len(
                find_trapdoor_chains(cipher, "walls"))
    assert tally["vulnerable"] >= 100 and tally["rows"] > 1000, tally


def test_semantics_resolutions_are_recorded():
    assert set(SEMANTICS) == {
        "strongly_proper", "family_prefix_range", "uniformity_exponent",
        "degenerate_anti_invariance", "normalization"}


def test_builders_validate():
    with pytest.raises(ValueError):
        build_rotation_cipher(3, 3, 0)
    # True built a 1-round cipher and 2.0 raised a bare TypeError
    for ell in (True, 2.0):
        with pytest.raises(ValueError,
                           match=re.escape(f"round count ell={ell!r}")):
            build_rotation_cipher(3, 3, ell)
    assert build_present_toy_cipher(3).ell == 3
    assert build_secure_toy_cipher(2).layout == BrickLayout(3, 2)
    assert build_linear_toy_cipher(2).layout.d == 6
