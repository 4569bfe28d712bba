#!/usr/bin/env python3
"""Regenerate the frozen reports under specs/golden/.

Each golden file is the --json output of one CLI analysis over a bundled
object.  They serve two purposes: the test suite re-verifies every witness
in them on each run, and a diff after regeneration makes behaviour changes
visible in review.  Timestamps change on every run; everything else must be
byte-stable.
"""

import argparse
from pathlib import Path

from tbaudit.cipher import audit, build_rotation_cipher, find_trapdoor_chains
from tbaudit.gf2 import BrickLayout
from tbaudit.presets import inversion_sbox, rotation_layer
from tbaudit.report import (audit_report, chains_report, dumps_report,
                            mixing_report, sbox_report)
from tbaudit.sbox import SBox
from tbaudit.specfile import load_cipher

# delta 6 and minimal derivative image 5: the two exclusion routes disagree
# on this table, which makes it a good regression subject
SPLIT_ROUTE_TABLE = (3, 14, 7, 9, 13, 11, 4, 5, 12, 8, 1, 0, 15, 6, 2, 10)


def build_reports(spec_dir: Path) -> dict:
    weak = load_cipher(spec_dir / "weak_rotation_m3b3_l3.json")
    present_toy = load_cipher(spec_dir / "toy_present_m4b2_l3.json")
    affine = build_rotation_cipher(2, 2, 2)
    return {
        "sbox_inverse_gf2m_m4.json": sbox_report(inversion_sbox(4)),
        "sbox_split_route_m4.json": sbox_report(
            SBox(SPLIT_ROUTE_TABLE), use_condition1prime=True),
        "mixing_rotation_m3b4_fam3.json": mixing_report(
            rotation_layer(BrickLayout(3, 4)), family_ell=3),
        "audit_weak_rotation_m3b3_l3.json": audit_report(weak, audit(weak)),
        "audit_toy_present_m4b2_l3.json": audit_report(
            present_toy, audit(present_toy)),
        "chains_affine_m2b2_l2_exhaustive.json": chains_report(
            affine, "exhaustive",
            find_trapdoor_chains(affine, "exhaustive", cap=4), cap=4),
    }


def stale_reports(reports: dict, out_dir: Path) -> list[str]:
    """Names of the reports whose file in ``out_dir`` is missing or differs
    byte for byte from a fresh dump, ``generated_at`` lines ignored."""
    def strip(text: str) -> list[str]:
        return [ln for ln in text.splitlines() if '"generated_at"' not in ln]

    stale = []
    for name, rep in reports.items():
        path = out_dir / name
        if not path.exists():
            stale.append(f"{name}: missing")
        elif strip(path.read_text()) != strip(dumps_report(rep)):
            stale.append(f"{name}: differs")
    return stale


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=None,
                        help="target directory (default: specs/golden)")
    parser.add_argument("--check", action="store_true",
                        help="compare against the existing files instead of "
                             "writing (timestamps ignored)")
    args = parser.parse_args()

    spec_dir = Path(__file__).resolve().parent.parent / "specs"
    out_dir = Path(args.out) if args.out else spec_dir / "golden"
    reports = build_reports(spec_dir)

    if args.check:
        stale = stale_reports(reports, out_dir)
        for line in stale:
            print(line)
        print(f"{len(reports) - len(stale)}/{len(reports)} golden reports "
              "up to date")
        return 1 if stale else 0

    out_dir.mkdir(parents=True, exist_ok=True)
    for name, rep in reports.items():
        (out_dir / name).write_text(dumps_report(rep))
        print(f"wrote {out_dir / name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
