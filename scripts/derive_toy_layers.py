#!/usr/bin/env python3
"""Show how the frozen mixing layers in specs/ were derived.

The bundled toy ciphers use seeded random strongly proper layers.  This
script re-runs the search for a range of layouts and seeds, prints each
matrix in the hex row format the spec files use, and reports how many
random invertible matrices the search had to discard first.  Freezing the
rows in the JSON files (rather than the seed) keeps the files self-contained
and independent of the search implementation.

It also checks that the rows frozen in the spec files are the seed-0 result
for their layout, and exits 1 when any row list differs from the library
search's or from a frozen spec's.
"""

import argparse
import random
from pathlib import Path

from tbaudit.gf2 import BrickLayout, random_invertible
from tbaudit.mixing import MixingLayer, is_strongly_proper
from tbaudit.presets import find_strongly_proper_layer
from tbaudit.specfile import load_cipher

SPECS = Path(__file__).resolve().parent.parent / "specs"
FROZEN = ("toy_present_m4b2_l3.json", "linear_bricks_m3b2_l2.json")


def search_with_count(layout: BrickLayout, seed: int):
    rng = random.Random(seed)
    tries = 0
    while True:
        tries += 1
        matrix = random_invertible(rng, layout.d)
        layer = MixingLayer(matrix, layout)
        ok, witness = is_strongly_proper(layer)
        if ok:
            return layer, tries, None
        if tries > 10000:
            return None, tries, witness


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--layouts", default="3x2,4x2,3x3",
                        help="comma-separated m x b pairs (default 3x2,4x2,3x3)")
    parser.add_argument("--seeds", type=int, default=3,
                        help="seeds 0..N-1 per layout (default 3)")
    args = parser.parse_args()

    mismatches = 0
    for token in args.layouts.split(","):
        m, b = (int(v) for v in token.lower().split("x"))
        layout = BrickLayout(m, b)
        print(f"layout m={m} b={b} (d={layout.d}):")
        for seed in range(args.seeds):
            layer, tries, _ = search_with_count(layout, seed)
            if layer is None:
                print(f"  seed {seed}: gave up after {tries} samples")
                continue
            rows = " ".join(format(r, "x") for r in layer.matrix.rows)
            check = find_strongly_proper_layer(layout, seed=seed)
            tag = ""
            if check.matrix.rows != layer.matrix.rows:
                tag = "  (MISMATCH with library search)"
                mismatches += 1
            print(f"  seed {seed}: {tries} candidate(s) -> [{rows}]{tag}")
        print()
    print("spec files embed the row list of the seed-0 result:")
    for name in FROZEN:
        cipher = load_cipher(SPECS / name)
        layer, _, _ = search_with_count(cipher.layout, 0)
        same = layer is not None and all(
            rnd.layer.matrix.rows == layer.matrix.rows
            for rnd in cipher.rounds)
        mismatches += not same
        print(f"  specs/{name}: "
              + ("seed 0" if same else "MISMATCH with the seed-0 search"))
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
