#!/usr/bin/env python3
"""Sweep rotation ciphers over (m, b, ell) and tabulate audit outcomes.

Rotation mixing layers preserve the wall lattice wholesale, so every one of
these ciphers carries partition chains no matter how strong the bricks are.
The sweep shows the two flavours: when ell is a multiple of b each brick
partition is invariant (a fixed chain), otherwise the partitions shift in a
cycle (a moving chain), and the audit flags both as vulnerable.
"""

import argparse
import time

from tbaudit.cipher import audit, build_rotation_cipher, find_trapdoor_chains
from tbaudit.gf2 import wall_brick_mask


def chain_kind(chain, layout):
    masks = [wall_brick_mask(s, layout) for s in chain.spaces]
    if None in masks:
        return "non-wall"
    label = "invariant" if masks[0] == masks[-1] else "moving"
    return label + " " + "->".join(
        "{%s}" % ",".join(str(i + 1) for i in range(layout.b) if mask >> i & 1)
        for mask in masks)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--m", type=int, default=3, help="brick width")
    parser.add_argument("--max-b", type=int, default=4)
    parser.add_argument("--max-ell", type=int, default=6)
    args = parser.parse_args()

    print(f"{'b':>2} {'ell':>3} {'verdict':<12} {'chains':>6}  first chain")
    for b in range(2, args.max_b + 1):
        for ell in range(2, args.max_ell + 1):
            cipher = build_rotation_cipher(args.m, b, ell)
            t0 = time.monotonic()
            verdict = audit(cipher)
            chains = find_trapdoor_chains(cipher, "walls")
            dt = time.monotonic() - t0
            kind = chain_kind(chains[0], cipher.layout) if chains else "-"
            print(f"{b:>2} {ell:>3} {verdict.status:<12} {len(chains):>6}  "
                  f"{kind}  ({dt:.2f}s)")
    print()
    print("every row is vulnerable: a layer that permutes bricks maps each "
          "wall onto a wall, so no rotation cipher can satisfy either "
          "security clause")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
