#!/usr/bin/env python3
"""Cross-check audit verdicts against exhaustive chain search.

Samples random small ciphers (random bijective bricks, random invertible or
rotation layers), audits each, and validates the verdict the hard way:

  * secure      -> the exhaustive subspace search must come back empty
  * vulnerable  -> the certificate chain must hold under sampled key tuples,
                   and the audit's chain count must be the walls search's
  * always      -> walls-mode chains must be a subset of the exhaustive set,
                   and (d <= 16) the invariant partitions of the group the
                   sampled encryption maps generate must be the U_1 of the
                   exhaustive chains with U_{l+1} = U_1, wherever the
                   partition search does not refuse; and the minimal block
                   system through {0, u} must be the coset partition of the
                   least of those subspaces holding u (one block if none
                   does), for u the first row of each minimal partition,
                   1 and 2^d - 1; and the group the keyed rounds generate
                   must be primitive exactly when no chain is constant,
                   (U, ..., U), with the witness's block through 0 the
                   space of a constant chain holding the least nonzero
                   point of any constant chain's space

Inconclusive verdicts are counted but carry no claim to check.  This is the
long-running relative of the sanity sweep in the test suite; crank --count
and --max-d for a broader net.
"""

import argparse
import random
import time

from tbaudit.cipher import (Round, TbCipher, audit, chain_holds_under_key,
                            find_trapdoor_chains, verify_chain)
from tbaudit.errors import CapExceeded
from tbaudit.gf2 import BrickLayout, random_invertible
from tbaudit.groups import (BlockSystem, invariant_linear_partition_search,
                            is_primitive, minimal_block,
                            minimal_invariant_partitions,
                            partition_block_system, sample_ind_generators,
                            sample_round_generators)
from tbaudit.mixing import MixingLayer
from tbaudit.presets import rotation_layer
from tbaudit.sbox import SBox


def random_cipher(rng, shapes, rotation_share):
    m, b, ell = shapes[rng.randrange(len(shapes))]
    layout = BrickLayout(m, b)
    rounds = []
    rotate = rng.random() < rotation_share
    for _ in range(ell):
        bricks = []
        for _ in range(b):
            t = list(range(1 << m))
            rng.shuffle(t)
            bricks.append(SBox(tuple(t)))
        if rotate:
            layer = rotation_layer(layout)
        else:
            layer = MixingLayer(random_invertible(rng, layout.d), layout)
        rounds.append(Round(tuple(bricks), layer))
    return TbCipher(tuple(rounds))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=12)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--max-d", type=int, default=8,
                        help="largest cipher width to sample (default 8)")
    parser.add_argument("--keys", type=int, default=100,
                        help="key tuples per vulnerable certificate")
    parser.add_argument("--rotation-share", type=float, default=0.25,
                        help="fraction of ciphers given rotation layers")
    args = parser.parse_args()

    shapes = [(m, b, ell)
              for m in (2, 3, 4) for b in (2, 3) for ell in (2, 3)
              if m * b <= args.max_d]
    rng = random.Random(args.seed)
    tally = {"secure": 0, "vulnerable": 0, "inconclusive": 0}
    groups = {"agree": 0, "nonempty": 0, "blocks": 0, "primitivity": 0,
              "imprimitive": 0, "refused": 0}
    t0 = time.monotonic()
    for i in range(args.count):
        cipher = random_cipher(rng, shapes, args.rotation_share)
        layout = cipher.layout
        verdict = audit(cipher)
        tally[verdict.status] += 1
        full = find_trapdoor_chains(cipher, "exhaustive",
                                    cap=max(args.max_d, 9))
        walls = find_trapdoor_chains(cipher, "walls")
        assert {c.spaces for c in walls} <= {c.spaces for c in full}, \
            f"cipher {i}: walls-mode found a chain the full search missed"
        if layout.d <= 16:
            ind = sample_ind_generators(cipher)
            try:
                invariant = invariant_linear_partition_search(ind)
            except CapExceeded:
                groups["refused"] += 1
            else:
                cyclic = {c.spaces[0] for c in full
                          if c.spaces[-1] == c.spaces[0]}
                assert invariant == sorted(
                    cyclic, key=lambda s: (s.dim, s.basis)), \
                    f"cipher {i}: the group's invariant partitions are " \
                    f"not the cyclic chains' U_1"
                groups["agree"] += 1
                groups["nonempty"] += bool(invariant)
                # the group holds every translation, so its block systems
                # are the invariant linear partitions and the trivial ones,
                # and the invariant subspaces are closed under intersection:
                # the first one (by dim) holding u is the least
                tops = [sub.basis[0] for sub in
                        minimal_invariant_partitions(invariant)]
                for u in dict.fromkeys(tops + [1, (1 << layout.d) - 1]):
                    least = next((sub for sub in invariant if u in sub), None)
                    want = (BlockSystem([0] * (1 << layout.d)) if least is None
                            else partition_block_system(least))
                    assert minimal_block(ind, [(0, u)]) == want, \
                        f"cipher {i}: the minimal block system through " \
                        f"{{0, {u}}} is not the least invariant partition " \
                        f"holding {u}"
                    groups["blocks"] += 1
            # L(U) is invariant under every keyed round exactly when
            # (U, ..., U) is a chain, and the round group's blocks are
            # cosets, so its witness's block through 0 is the least such U
            # holding the least point of any
            constant = {c.spaces[0] for c in full
                        if len(set(c.spaces)) == 1}
            primitive, witness = is_primitive(sample_round_generators(cipher))
            assert primitive == (not constant), \
                f"cipher {i}: the round group is " \
                f"{'' if primitive else 'im'}primitive, but " \
                f"{len(constant)} chain(s) are constant"
            if not primitive:
                zero = witness.block_of == witness.block_of[0]
                block = set(zero.nonzero()[0].tolist())
                assert any(set(u.elements()) == block for u in constant), \
                    f"cipher {i}: the witness's block through 0 is not " \
                    f"the space of a constant chain"
                assert min(block - {0}) == min(
                    min(x for x in u.elements() if x) for u in constant), \
                    f"cipher {i}: the witness's block through 0 misses " \
                    f"the least point of the constant chains' spaces"
                groups["imprimitive"] += 1
            groups["primitivity"] += 1
        if verdict.status == "secure":
            assert not full, f"cipher {i}: secure verdict but chains exist"
        if verdict.status == "vulnerable":
            assert verify_chain(cipher, verdict.chain)
            assert verdict.exhaustive_ran or \
                verdict.chain_count == len(walls), \
                f"cipher {i}: audit counts {verdict.chain_count} chain(s), " \
                f"the walls search finds {len(walls)}"
            for _ in range(args.keys):
                keys = tuple(rng.randrange(1 << layout.d)
                             for _ in range(cipher.ell))
                assert chain_holds_under_key(cipher, verdict.chain, keys), \
                    f"cipher {i}: certificate broke under keys {keys}"
        print(f"[{i + 1:>3}/{args.count}] m={layout.m} b={layout.b} "
              f"ell={cipher.ell}: {verdict.status:<12} "
              f"(exhaustive: {len(full)} chain(s))")
    dt = time.monotonic() - t0
    print()
    print(f"{args.count} ciphers in {dt:.1f}s: "
          + ", ".join(f"{k}={v}" for k, v in tally.items()))
    print("group cross-check: "
          + ", ".join(f"{k}={v}" for k, v in groups.items()))
    print("no verdict contradicted the exhaustive search")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
