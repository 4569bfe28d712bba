"""Acceptance gate for the auditor.

Each test covers one numbered criterion, prints a single [PASS]/[FAIL] line
with its timing, and re-derives the claimed numbers through the independent
oracles in oracles.py wherever the value is not pinned by construction.
"""

import random
import time

import pytest

from tbaudit.cipher import (Round, TbCipher, audit,
                            build_present_toy_cipher, build_rotation_cipher,
                            build_secure_toy_cipher, chain_holds_under_key,
                            check_lemma_containment, encryption_table,
                            find_trapdoor_chains, partition_image,
                            substitution_table, verify_chain)
from tbaudit.errors import CapExceeded
from tbaudit.gf2 import (BrickLayout, Subspace, count_proper_subspaces,
                         random_invertible, rref, wall_subspace)
from tbaudit.groups import (invariant_linear_partition_search, is_primitive,
                            minimal_block, minimal_invariant_partitions,
                            sample_ind_generators, sample_round_generators)
from tbaudit.mixing import (LayerFamily, MixingLayer, family_strongly_proper,
                            is_proper, is_strongly_proper, wall_trace)
from tbaudit.presets import (aes_sr_mc_layer, identity_sbox, inversion_sbox,
                             present_sbox, rotation_layer)
from tbaudit.sbox import (SBox, anti_invariance_order, anti_invariance_scan_cost,
                          ddt, differential_uniformity, has_linear_component,
                          is_strongly_anti_invariant, min_derivative_image)

from oracles import (brute_anti_invariance_order,
                     brute_anti_invariance_violations,
                     brute_block_systems_transitive,
                     brute_derivative_containment, brute_ddt,
                     brute_linear_components, brute_uniformity,
                     carryless_mul_mod, finest_containing_pair,
                     gaussian_recurrence, span_rank)


def report(capsys, number, ok, detail, elapsed, bound=None):
    status = "PASS" if ok else "FAIL"
    timing = f"{elapsed:.1f}s" + (f" of {bound:.0f}s" if bound else "")
    with capsys.disabled():
        print(f"\n[{status}] criterion {number}: {detail} [{timing}]")
    assert ok, detail
    if bound is not None:
        assert elapsed < bound, f"criterion {number} took {elapsed:.1f}s"


def random_bijection(rng, m):
    t = list(range(1 << m))
    rng.shuffle(t)
    return SBox(tuple(t))


def random_cipher(rng, m, b, ell, layer_kind):
    layout = BrickLayout(m, b)
    rounds = []
    for _ in range(ell):
        bricks = tuple(random_bijection(rng, m) for _ in range(b))
        if layer_kind == "rotation":
            layer = rotation_layer(layout)
        else:
            layer = MixingLayer(random_invertible(rng, layout.d), layout)
        rounds.append(Round(bricks, layer))
    return TbCipher(tuple(rounds))


# ---------------------------------------------------------------------------


def test_criterion_1_inversion_sbox_profile(capsys):
    start = time.monotonic()
    box = inversion_sbox(4)
    # the table really is field inversion mod x^4 + x + 1
    assert box.table[0] == 0
    for x in range(1, 16):
        assert carryless_mul_mod(x, box.table[x], 0b10011, 4) == 1

    assert differential_uniformity(box) == 4 == brute_uniformity(box.table)
    assert has_linear_component(box) == (False, None)
    assert brute_linear_components(box.table) == []

    assert anti_invariance_order(box) == 1
    assert brute_anti_invariance_order(box.table) == 1
    ok2, witness = is_strongly_anti_invariant(box, 2)
    assert not ok2
    subfield = Subspace((1, 6), 4)  # {0, 1, x^2+x, x^2+x+1}, a copy of F_4
    u, w = witness
    assert u == subfield and w == subfield
    brute_pairs = brute_anti_invariance_violations(box.table, 2)
    assert (frozenset(subfield.elements()), frozenset(subfield.elements())) \
        in brute_pairs

    box5 = inversion_sbox(5)
    assert differential_uniformity(box5) == 2 == brute_uniformity(box5.table)

    report(capsys, 1,
           True,
           "4-bit inversion has delta=4, no linear structure, "
           "anti-invariance order 1 with the F_4 subfield as witness; "
           "5-bit inversion has delta=2",
           time.monotonic() - start, 5)


def test_criterion_2_derivative_image_bound(capsys):
    start = time.monotonic()
    rng = random.Random(0xC2)
    checked = 0
    for m, count in ((4, 34), (5, 33), (6, 33)):
        n = 1 << m
        for _ in range(count):
            box = random_bijection(rng, m)
            table = ddt(box)
            delta = differential_uniformity(box)
            oracle = brute_ddt(box.table)
            for u in range(1, n):
                size = table.row_image_size(u)
                assert size == sum(1 for (a, _), c in oracle.items()
                                   if a == u and c)
                assert size * delta >= n, (m, box.table, u)
            assert min_derivative_image(box).size * delta >= n
            checked += 1
    assert checked == 100
    report(capsys, 2,
           True,
           "100 random bijections at m=4,5,6: every nonzero derivative "
           "image has at least 2^m/delta values",
           time.monotonic() - start, 30)


def test_criterion_3_order_one_is_no_linear_component(capsys):
    start = time.monotonic()
    rng = random.Random(0xC3)
    boxes = [random_bijection(rng, 4) for _ in range(50)]
    boxes += [inversion_sbox(4), inversion_sbox(5), present_sbox(),
              identity_sbox(4), identity_sbox(3)]
    for box in boxes:
        anti1, _ = is_strongly_anti_invariant(box, 1)
        has_lin, _ = has_linear_component(box)
        assert anti1 == (not has_lin), box.table
        assert has_lin == bool(brute_linear_components(box.table))
    report(capsys, 3,
           True,
           "strong 1-anti-invariance coincides with the absence of linear "
           "components on 50 random 4-bit boxes and the named builtins",
           time.monotonic() - start, 30)


def test_criterion_4_layer_zoo(capsys):
    start = time.monotonic()
    rot = rotation_layer(BrickLayout(4, 4))
    ok, fixed = is_proper(rot)
    assert ok and fixed is None
    # oracle view: rotating a proper subset of bricks never fixes it
    for mask in range(1, 15):
        rotated = ((mask << 1) | (mask >> 3)) & 0xF
        assert rotated != mask
    strong, witness = is_strongly_proper(rot)
    assert not strong and witness is not None

    combined = aes_sr_mc_layer()
    layout = combined.layout
    diagonal = sum(1 << (i - 1) for i in (1, 6, 11, 16))
    column_bricks = (1, 5, 9, 13)
    column = sum(1 << (i - 1) for i in column_bricks)
    trace = wall_trace(diagonal, LayerFamily((combined,)))
    assert trace[0][1] == column
    # independent check: each mapped basis vector stays inside the column
    # mask and the images stay full rank
    images = [combined.matrix.apply(r)
              for r in wall_subspace(layout, diagonal).basis]
    column_bits = sum(((1 << layout.m) - 1) << (layout.m * (i - 1))
                      for i in column_bricks)
    assert all(v & ~column_bits == 0 for v in images)
    assert span_rank(images) == 32
    strong, _ = is_strongly_proper(combined)
    assert not strong

    fam = family_strongly_proper(LayerFamily((combined,) * 10))
    assert len(fam.escape) == 65534
    assert fam.strongly_proper
    steps = sorted(set(fam.escape.tolist()))
    assert steps == [1, 2]

    report(capsys, 4,
           True,
           "rotation layer is proper but not strongly proper; the combined "
           "AES layer sends the diagonal wall onto a column wall; ten "
           "copies are strongly proper across all 65534 walls",
           time.monotonic() - start, 60)


def test_criterion_5_weak_cipher_lab(capsys):
    start = time.monotonic()
    layout = BrickLayout(3, 3)
    walls = [wall_subspace(layout, 1 << (i - 1)) for i in (1, 2, 3)]
    rng = random.Random(0xC5)

    cipher3 = build_rotation_cipher(3, 3, 3)
    for _ in range(100):
        keys = tuple(rng.randrange(1 << 9) for _ in range(3))
        table = encryption_table(cipher3, keys)
        for v in walls:
            img = partition_image(table, v)
            assert img is not None and img == v

    ind = sample_ind_generators(cipher3)
    system = minimal_block(ind, [(0, 1)])
    assert system.nontrivial
    assert system.n_blocks == 64 and system.block_size() == 8
    zero_block = set(system.blocks()[system.block_of[0]])
    assert zero_block == set(walls[0].elements())
    found = invariant_linear_partition_search(ind)
    assert set(minimal_invariant_partitions(found)) == set(walls)

    primitive, _ = is_primitive(sample_round_generators(cipher3))
    assert primitive

    cipher4 = build_rotation_cipher(3, 3, 4)
    for _ in range(100):
        keys = tuple(rng.randrange(1 << 9) for _ in range(4))
        table = encryption_table(cipher4, keys)
        for i, v in enumerate(walls):
            img = partition_image(table, v)
            assert img is not None and img == walls[(i + 1) % 3]
    verdict = audit(cipher4)
    assert verdict.status == "vulnerable"
    assert verify_chain(cipher4, verdict.chain)

    report(capsys, 5,
           True,
           "three-round rotation cipher keeps each brick partition under "
           "100 keys, its encryption group is imprimitive with exactly the "
           "three brick walls as minimal invariant partitions while the "
           "round group stays primitive; four rounds shift the partitions "
           "and audit vulnerable with a verified chain",
           time.monotonic() - start, 60)


def test_criterion_6_hardened_toy_cipher(capsys):
    start = time.monotonic()
    cipher = build_present_toy_cipher(3)
    verdict = audit(cipher)
    assert verdict.status == "secure"
    assert verdict.clause2_ok
    assert count_proper_subspaces(8) == 417197
    chains = find_trapdoor_chains(cipher, "exhaustive")
    assert chains == []
    report(capsys, 6,
           True,
           "the hardened 8-bit toy audits secure via the family clause and "
           "an exhaustive sweep of all 417197 proper subspaces finds no "
           "chain",
           time.monotonic() - start, 120)


def test_criterion_7_verdicts_against_exhaustive_search(capsys):
    start = time.monotonic()
    rng = random.Random(2024)
    suite = []
    for m, b, ell, n in ((2, 2, 2, 4), (3, 2, 2, 4), (2, 3, 2, 3),
                         (4, 2, 3, 2), (3, 3, 3, 1)):
        for _ in range(n):
            suite.append(random_cipher(rng, m, b, ell, "random"))
    for m, b, ell in ((2, 2, 2), (3, 2, 2), (2, 3, 2), (3, 3, 2)):
        suite.append(random_cipher(rng, m, b, ell, "rotation"))
    suite.append(build_secure_toy_cipher(2))
    suite.append(build_secure_toy_cipher(3))
    assert len(suite) == 20 and all(c.layout.d <= 9 for c in suite)

    statuses = {"secure": 0, "vulnerable": 0, "inconclusive": 0}
    for cipher in suite:
        d = cipher.layout.d
        verdict = audit(cipher)
        statuses[verdict.status] += 1
        full = find_trapdoor_chains(cipher, "exhaustive")
        full_keys = {ch.spaces for ch in full}
        walls = find_trapdoor_chains(cipher, "walls")
        assert {ch.spaces for ch in walls} <= full_keys
        if verdict.status == "secure":
            assert full == [], "a secure verdict must leave no chain behind"
        if verdict.status == "vulnerable":
            assert verify_chain(cipher, verdict.chain)
            for _ in range(100):
                keys = tuple(rng.randrange(1 << d)
                             for _ in range(cipher.ell))
                assert chain_holds_under_key(cipher, verdict.chain, keys)
    assert statuses["secure"] >= 1 and statuses["vulnerable"] >= 1

    report(capsys, 7,
           True,
           f"20 small ciphers ({statuses['secure']} secure, "
           f"{statuses['vulnerable']} vulnerable, "
           f"{statuses['inconclusive']} inconclusive): secure verdicts "
           "have empty exhaustive searches, vulnerable certificates hold "
           "under 100 key tuples each, and wall chains always appear in "
           "the full search",
           time.monotonic() - start, 600)


def test_criterion_8_image_partitions_satisfy_containment(capsys):
    start = time.monotonic()
    rng = random.Random(0xC8)
    subjects = [
        (present_sbox(), present_sbox()),
        (inversion_sbox(3), inversion_sbox(3)),
        (inversion_sbox(4), present_sbox()),
        tuple(random_bijection(rng, 2) for _ in range(3)),
    ]
    wall_hits = 0
    random_hits = 0
    for bricks in subjects:
        layout = BrickLayout(bricks[0].m, len(bricks))
        sub = substitution_table(bricks, layout)
        table = sub.tolist()
        for mask in range(1, (1 << layout.b) - 1):
            u = wall_subspace(layout, mask)
            img = partition_image(sub, u)
            assert img is not None and img == u
            assert check_lemma_containment(sub, u, img)
            assert brute_derivative_containment(
                table, u.elements(), set(img.elements()))
            wall_hits += 1
        for _ in range(50):
            k = rng.randrange(1, layout.d)
            u = rref([rng.getrandbits(layout.d) for _ in range(k)], layout.d)
            if u.dim in (0, layout.d):
                continue
            img = partition_image(sub, u)
            if img is not None:
                assert check_lemma_containment(sub, u, img)
                assert brute_derivative_containment(
                    table, u.elements(), set(img.elements()))
                random_hits += 1
    assert wall_hits == 2 + 2 + 2 + 6
    report(capsys, 8,
           True,
           "whenever a bricklayer turns one linear partition into another, "
           "every derivative image lands inside the target subspace "
           f"({wall_hits} wall inputs, {random_hits} of 200 random "
           "subspaces non-degenerate)",
           time.monotonic() - start)


def test_criterion_9_minimal_blocks_match_brute_enumeration(capsys):
    start = time.monotonic()
    import numpy as np
    from tbaudit.groups import GeneratorSet

    c8 = GeneratorSet([np.roll(np.arange(8), -1)], ["rot"])
    trans3 = GeneratorSet(
        np.arange(8) ^ (1 << np.arange(3))[:, None],
        ("t0", "t1", "t2"))
    degree16 = sample_round_generators(build_rotation_cipher(2, 2, 2))
    for gens in (c8, trans3, degree16):
        images = gens.images.tolist()
        brute = brute_block_systems_transitive(images)
        for beta in range(1, gens.degree):
            got = minimal_block(gens, [(0, beta)])
            got_partition = frozenset(frozenset(b) for b in got.blocks())
            assert got_partition == finest_containing_pair(brute, (0, beta))
            assert got_partition in brute

    primitive, witness = is_primitive(trans3)
    assert not primitive and witness.block_size() == 2

    report(capsys, 9,
           True,
           "minimal block systems agree with brute enumeration on degree-8 "
           "and degree-16 toy groups; the translation group of F_2^3 is "
           "imprimitive with blocks of size 2",
           time.monotonic() - start, 10)


def test_wide_sbox_claims_are_refused_not_faked(capsys):
    # The anti-invariance subspace scan at m=10 costs more than the default
    # budget allows in test time, so the only honest behaviours are the
    # m<=6 replications (criteria 1-3) and an up-front refusal here.
    start = time.monotonic()
    cost = anti_invariance_scan_cost(10, 3)
    assert cost == 6522989
    assert cost == sum(gaussian_recurrence(10, k) for k in (7, 8, 9))
    with pytest.raises(CapExceeded) as exc:
        is_strongly_anti_invariant(identity_sbox(10), 3, budget=1_000_000)
    assert exc.value.estimate == cost
    assert exc.value.limit == 1_000_000
    report(capsys, "addendum",
           True,
           "the m=10 anti-invariance claim is out of in-test reach and is "
           "surfaced as a budget refusal carrying the exact scan cost",
           time.monotonic() - start, 5)
