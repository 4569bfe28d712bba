"""Cipher model, partition transport, chain search, and the audit verdict."""

import random
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

import tbaudit.mixing as mixing_mod
from tbaudit.cipher import (_ROUND_TABLE_CACHE, DEFAULT_CHAIN_CAP, MAX_TABLE_D,
                            SEMANTICS, LinearPartition, PartitionChain,
                            Round, TbCipher, _brick_conditions, _join_atoms,
                            _round_inverse, _scan_chains, _seed_atoms,
                            _span_kernel, audit,
                            build_linear_toy_cipher, build_present_toy_cipher,
                            build_rotation_cipher, build_secure_toy_cipher,
                            chain_holds_under_key, check_lemma_containment,
                            decrypt, derivative_span, encrypt,
                            encryption_table,
                            find_trapdoor_chains, partition_image,
                            round_table, substitution_table, verify_chain)
from tbaudit.errors import CapExceeded
from tbaudit.gf2 import (BitMatrix, BrickLayout, Wall, _reduced_rows,
                         count_proper_subspaces, random_invertible, rref)
from tbaudit.mixing import MixingLayer
from tbaudit.presets import (identity_sbox, inversion_sbox, identity_layer,
                             present_sbox, rotation_layer)
from tbaudit.sbox import SBox

from oracles import (brute_derivative_containment, brute_partition_image,
                     matrix_apply_by_columns, span_rank, table_scan_chains,
                     walls_mode_masks, xor_span)

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


@given(st.integers(0, 2**32), st.data())
def test_decrypt_inverts_encrypt(seed, data):
    cipher = random_cipher(seed, 3, 2, 3)
    d = cipher.layout.d
    keys = tuple(data.draw(st.integers(0, (1 << d) - 1)) for _ in range(3))
    x = data.draw(st.integers(0, (1 << d) - 1))
    assert decrypt(cipher, keys, encrypt(cipher, keys, x)) == x


def test_decrypt_inverts_each_distinct_round_once(monkeypatch):
    inverse = BitMatrix.inverse
    calls = []

    def counted(matrix):
        calls.append(matrix)
        return inverse(matrix)

    monkeypatch.setattr(BitMatrix, "inverse", counted)
    for cipher, distinct in ((random_cipher(64, 3, 2, 3), 3),
                             (build_rotation_cipher(3, 2, 4), 1)):
        _round_inverse.cache_clear()
        calls.clear()
        keys = tuple(range(1, cipher.ell + 1))
        for x in range(64):
            assert decrypt(cipher, keys, encrypt(cipher, keys, x)) == x
        assert len(calls) == distinct


def test_key_tuple_validation():
    cipher = build_rotation_cipher(2, 2, 2)
    with pytest.raises(ValueError, match="round keys"):
        encrypt(cipher, (0,), 0)
    with pytest.raises(ValueError, match="out of range"):
        encrypt(cipher, (0, 1 << 4), 0)


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
    norm = substitution_table(rnd.bricks, layout, normalized=True)
    raw = substitution_table(rnd.bricks, layout, normalized=False)
    assert norm[0] == 0
    # both are the same map up to the constant folded out of the bricks
    shift = 0
    for i, box in enumerate(rnd.bricks):
        shift |= box.shift << (i * layout.m)
    assert shift and (raw == (norm ^ shift)).all()
    # the round table is the raw map L(S(x))
    lin = rnd.layer.matrix
    assert round_table(rnd).tolist() == [lin.apply(y) for y in raw.tolist()]


def test_substitution_table_fixes_wall_partitions():
    layout = BrickLayout(2, 3)
    bricks = tuple(random_cipher(5, 2, 3, 1).rounds[0].bricks)
    sub = substitution_table(bricks, layout)
    for wall_bricks in ([1], [2], [1, 3]):
        w = Wall(layout, frozenset(wall_bricks)).subspace()
        img = partition_image(sub, LinearPartition(w))
        assert img is not None
        assert img.subspace == w


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
    for cached in (_brick_conditions, _round_inverse, _span_kernel):
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
        got = partition_image(table, LinearPartition(u))
        want = brute_partition_image(table, set(u.elements()))
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert set(got.subspace.elements()) == want


def test_partition_image_trivial_partitions_pass_through():
    table = list(range(8))
    for u in (rref([], 3), rref([1, 2, 4], 3)):
        part = LinearPartition(u)
        assert partition_image(table, part) == part
        assert not part.nontrivial
    assert LinearPartition(rref([1], 3)).nontrivial


def test_partition_image_is_key_blind():
    # XORing a constant into the output permutes cosets but keeps the
    # partition, so the image subspace cannot move.
    rng = random.Random(123)
    table = list(range(16))
    rng.shuffle(table)
    u = rref([3, 12], 4)
    base = partition_image(table, LinearPartition(u))
    for c in (1, 7, 15):
        shifted = [y ^ c for y in table]
        got = partition_image(shifted, LinearPartition(u))
        if base is None:
            assert got is None
        else:
            assert got.subspace == base.subspace


def test_partition_image_validation():
    with pytest.raises(ValueError, match="power of two"):
        partition_image([0, 1, 2], LinearPartition(rref([1], 2)))
    with pytest.raises(ValueError, match="ambient"):
        partition_image(list(range(8)), LinearPartition(rref([1], 4)))


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
        assert verify_chain(cipher, ch, elementwise=True)


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


def test_closure_search_matches_the_subspace_scan():
    # both exhaustive routes against the retired table scan, on every brick
    # kind at d = 4; random and mixed bricks at d = 6, whose
    # affine rounds make every subspace a chain, as every 2-bit brick does;
    # random bricks at d = 8, where a dense lattice has 417,197 chains
    rng = random.Random(1999)
    tally = {"none": 0, "some": 0, "dense": 0, "d8": 0}
    full_joins = 0
    for n in range(216):
        m, b = (4, 2) if n % 54 == 53 else (2, 3) if n % 36 == 17 else (
            (2, 2), (3, 2))[n % 2]
        layout = BrickLayout(m, b)
        d = layout.d
        kind = rng.choice(("random", "random", "mixed") if d == 6 else
                          ("random",) if d == 8 else
                          ("random", "mixed", "affine", "identity"))
        rounds = []
        for _ in range(1 + n % 3):
            kinds = [rng.choice(("random", "affine", "identity"))
                     if kind == "mixed" else kind for _ in range(b)]
            layer = _walls_test_layer(
                rng.choice(("random", "rotation", "permuting")), rng, layout)
            rounds.append(Round(
                tuple(_oracle_test_brick(k, rng, m) for k in kinds), layer))
        cipher = TbCipher(tuple(rounds))
        atoms = _seed_atoms(cipher)
        oracle = table_scan_chains(cipher)
        # the derivative-span scan visits the subspaces in the same order
        assert ([ch.spaces for ch in _scan_chains(cipher)]
                == [ch.spaces for ch in oracle])
        expected = [ch.spaces for ch in _chain_order(oracle)]
        n_sub = count_proper_subspaces(d)
        dense = min((1 << len(atoms)) - 1, n_sub) * len(atoms) > n_sub
        # the join, forced where the search picks the scan; only once on
        # the slowest case, every d = 6 subspace a chain
        slowest = d > 4 and len(expected) == n_sub
        if not slowest or not full_joins:
            full_joins += slowest
            got = _chain_order(_join_atoms(atoms, d))
            assert [ch.spaces for ch in got] == expected
        if not dense or d <= 4:
            found = find_trapdoor_chains(cipher, "exhaustive")
            assert [ch.spaces for ch in found] == expected
        tally["d8" if d == 8 else "dense" if dense else
              "some" if expected else "none"] += 1
    assert min(tally.values()) >= 4 and full_joins, tally


def test_exhaustive_search_takes_the_scan_on_a_dense_lattice(monkeypatch):
    # identity bricks make every subspace head a chain (255 atoms); the join
    # would form all 417,197 sums, so the search must fall back to the scan
    import tbaudit.cipher as cipher_mod
    scans = []
    scan = cipher_mod._scan_chains

    def timed(cipher):
        start = time.perf_counter()
        out = scan(cipher)
        scans.append(time.perf_counter() - start)
        return out

    monkeypatch.setattr(cipher_mod, "_scan_chains", timed)
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
    scan = cipher_mod._scan_chains
    monkeypatch.setattr(cipher_mod, "_scan_chains",
                        lambda cipher: scans.append(cipher) or scan(cipher))
    rng = random.Random(6)
    layout = BrickLayout(3, 2)
    cipher = TbCipher(tuple(
        Round(tuple(_oracle_test_brick("affine", rng, 3) for _ in range(2)),
              _walls_test_layer("random", rng, layout)) for _ in range(2)))
    round_table.cache_clear()
    chains = find_trapdoor_chains(cipher, "exhaustive")
    assert round_table.cache_info().misses == 0
    assert scans == [cipher] and len(chains) == count_proper_subspaces(6)
    # the raw round tables re-verify them, though these bricks move 0
    assert any(box.shift for rnd in cipher.rounds for box in rnd.bricks)
    assert all(verify_chain(cipher, ch, elementwise=True)
               for ch in chains[::97])


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
        w_rows = derivative_span(rnd, u.basis, inverse)
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
    lex_proper_masks = mixing_mod._lex_proper_masks

    def counted(b):
        walks.append(b)
        return lex_proper_masks(b)

    monkeypatch.setattr(mixing_mod, "_lex_proper_masks", counted)
    layout = BrickLayout(3, 3)
    box = identity_sbox(3)
    rot = Round((box,) * 3, rotation_layer(layout))
    ident = Round((box,) * 3, identity_layer(layout))
    for rounds, distinct in (((rot,) * 4, 1), ((rot, ident, rot), 2)):
        walks.clear()
        verdict = audit(TbCipher(rounds))
        assert verdict.status == "vulnerable"
        assert len(walks) == distinct + 1


def test_semantics_resolutions_are_recorded():
    assert set(SEMANTICS) == {
        "strongly_proper", "family_prefix_range", "uniformity_exponent",
        "degenerate_anti_invariance", "normalization"}


def test_builders_validate():
    with pytest.raises(ValueError):
        build_rotation_cipher(3, 3, 0)
    assert build_present_toy_cipher(3).ell == 3
    assert build_secure_toy_cipher(2).layout == BrickLayout(3, 2)
    assert build_linear_toy_cipher(2).layout.d == 6
