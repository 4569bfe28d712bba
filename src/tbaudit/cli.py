"""Command-line front end.

Subcommands: analyze-sbox, analyze-mixing, audit, find-trapdoor, demo,
verify-report.  Exit codes are part of the scripting interface:

    0   success / Secure / no chains found
    2   Vulnerable, or chains found
    3   Inconclusive
    64  malformed input (spec file, table, matrix, flags)
    65  singular matrix where an invertible one is required
    66  a cap or budget refused the requested computation
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

from . import presets
from .cipher import (DEFAULT_CHAIN_CAP, audit, build_rotation_cipher,
                     encryption_table, find_trapdoor_chains, partition_image)
from .errors import CapExceeded, SingularMatrixError, SpecError
from .gf2 import (BitMatrix, BrickLayout, Subspace, _mask_bricks,
                  wall_brick_mask, wall_subspace)
from .groups import (invariant_linear_partition_search, is_primitive,
                     minimal_block, minimal_invariant_partitions,
                     sample_ind_generators, sample_round_generators)
from .mixing import (LayerFamily, MixingLayer, family_strongly_proper,
                     wall_trace)
from .report import (audit_report, chains_report, completeness, dumps_report,
                     mixing_report, sbox_report, verify_report)
from .sbox import ANTI_INVARIANCE_BUDGET, SBox
from .specfile import load_cipher, parse_cipher, read_json

EXIT_OK = 0
EXIT_VULNERABLE = 2
EXIT_INCONCLUSIVE = 3
EXIT_SPEC = 64
EXIT_SINGULAR = 65
EXIT_CAP = 66


def _err(message: str) -> None:
    print(f"tbaudit: {message}", file=sys.stderr)


def _hexes(values) -> str:
    return " ".join(format(v, "x") for v in values)


def _fmt_wall(mask: int) -> str:
    return "wall{" + ",".join(map(str, _mask_bricks(mask))) + "}"


def _fmt_subspace(s: Subspace, layout: BrickLayout) -> str:
    mask = wall_brick_mask(s, layout)
    if mask is not None:
        return _fmt_wall(mask)
    return f"span[{_hexes(s.basis)}] (dim {s.dim})"


def _read_values_file(path: str) -> list[int]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SpecError(f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise SpecError(f"{path} is not UTF-8: byte "
                        f"{exc.object[exc.start]:#04x} at offset {exc.start}")
    parts = text.replace(",", " ").split()
    if not parts:
        raise SpecError(f"{path} is empty")
    try:
        return [int(p, 16) for p in parts]
    except ValueError:
        raise SpecError(f"{path} contains a non-hex token")


# ---------------------------------------------------------------------------
# analyze-sbox


def _brick_from_args(args) -> SBox:
    if args.builtin is not None and args.table is not None:
        raise SpecError("give either a table file or --builtin, not both")
    if args.builtin is not None:
        return presets.BUILTIN_BRICKS[args.builtin](args.m)
    if args.table is None:
        raise SpecError("need a table file or --builtin NAME")
    values = _read_values_file(args.table)
    try:
        return SBox(tuple(values))
    except ValueError as exc:
        raise SpecError(str(exc))


def _cmd_analyze_sbox(args) -> int:
    box = _brick_from_args(args)
    rep = sbox_report(box, requested_r=args.r,
                      use_condition1prime=args.condition1prime,
                      budget=args.budget)
    if args.json:
        print(dumps_report(rep), end="")
        return EXIT_OK
    print(f"S-box on m={rep['m']} bits: {rep['table']}")
    print(f"  differential uniformity delta = {rep['delta']}")
    mdi = rep["min_derivative_image"]
    print(f"  min derivative image size = {mdi['size']} (u = {mdi['u']:x})")
    lin = rep["linear_component"]
    print(f"  nonlinearity = {rep['nonlinearity']}; linear components: "
          + (f"yes (mask {lin:x})" if lin is not None else "none"))
    anti = rep["anti_invariance"]
    order = anti["order"]
    exact = "exact" if anti["exact"] else "lower bound (budget hit)"
    print(f"  anti-invariance order: {order} ({exact})")
    if anti["violation"] is not None:
        u = anti["violation"]["subspace"]
        w = anti["violation"]["image"]
        print(f"    witness: span[{' '.join(u['basis'])}] maps onto "
              f"span[{' '.join(w['basis'])}]")
    cond = rep["condition"]
    print(f"  trapdoor-exclusion condition ({cond['route']} route): "
          + ("ok" if cond["ok"] else "FAILS") + f" ({cond['detail']})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# analyze-mixing


def _layer_from_args(args) -> MixingLayer:
    if args.builtin is not None and args.matrix is not None:
        raise SpecError("give either a matrix file or --builtin, not both")
    if args.builtin is not None:
        return presets.BUILTIN_LAYERS[args.builtin](args.m, args.b)
    if args.matrix is None:
        raise SpecError("need a matrix file or --builtin NAME")
    rows = _read_values_file(args.matrix)
    layout = BrickLayout(args.m, args.b)
    if len(rows) != layout.d:
        raise SpecError(f"matrix has {len(rows)} rows, layout m={args.m} "
                        f"b={args.b} needs {layout.d}")
    return MixingLayer(BitMatrix(tuple(rows), layout.d), layout)


def _cmd_analyze_mixing(args) -> int:
    layer = _layer_from_args(args)
    rep = mixing_report(layer, family_ell=args.family)
    if args.json:
        print(dumps_report(rep), end="")
        return EXIT_OK
    lay = rep["layout"]
    print(f"mixing layer on d={lay['m'] * lay['b']} bits "
          f"(m={lay['m']}, b={lay['b']})")
    prop = rep["proper"]
    if prop["ok"]:
        print("  proper: yes")
    else:
        inner = ",".join(str(i) for i in prop["witness"])
        print(f"  proper: no (fixes wall{{{inner}}})")
    strong = rep["strongly_proper"]
    if strong["ok"]:
        print("  strongly proper: yes")
    else:
        w = strong["witness"]
        src = ",".join(str(i) for i in w["bricks"])
        dst = ",".join(str(i) for i in w["image_bricks"])
        print(f"  strongly proper: no (wall{{{src}}} maps onto wall{{{dst}}})")
    fam = rep["family"]
    if fam is not None:
        print(f"  family of {fam['ell']} copies: strongly proper: "
              + ("yes" if fam["strongly_proper"] else "no"))
        hist = ", ".join(f"j={k}: {v}" for k, v in
                         sorted(fam["escape_histogram"].items(),
                                key=lambda kv: (kv[0] == "none", kv[0])))
        print(f"    escape steps over {fam['wall_count']} proper walls: {hist}")
        if fam["surviving_walls"]:
            shown = ["{" + ",".join(map(str, wb)) + "}"
                     for wb in fam["surviving_walls"][:8]]
            print(f"    surviving walls: {', '.join(shown)}"
                  + (" ..." if len(fam["surviving_walls"]) > 8 else ""))
        if fam["note"]:
            print(f"    note: {fam['note']}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# audit


def _cmd_audit(args) -> int:
    cipher = load_cipher(args.spec)
    verdict = audit(cipher, use_condition1prime=args.condition1prime,
                    anti_budget=args.budget,
                    exhaustive_fallback_cap=args.exhaustive_cap)
    rep = audit_report(cipher, verdict, exhaustive_cap=args.exhaustive_cap,
                       anti_budget=args.budget)
    if args.json:
        print(dumps_report(rep), end="")
    else:
        print(f"audit verdict: {verdict.status.upper()}")
        for note in verdict.notes:
            print(f"  - {note}")
        if verdict.chain is not None:
            layout = cipher.layout
            steps = " -> ".join(_fmt_subspace(s, layout)
                                for s in verdict.chain.spaces)
            print(f"  chain ({verdict.chain_count} found): {steps}")
    if verdict.status == "secure":
        return EXIT_OK
    if verdict.status == "vulnerable":
        return EXIT_VULNERABLE
    return EXIT_INCONCLUSIVE


# ---------------------------------------------------------------------------
# find-trapdoor


def _cmd_find_trapdoor(args) -> int:
    cipher = load_cipher(args.spec)
    chains = find_trapdoor_chains(cipher, args.mode, cap=args.exhaustive_cap)
    if args.json:
        rep = chains_report(cipher, args.mode, chains, cap=args.exhaustive_cap)
        print(dumps_report(rep), end="")
        return EXIT_VULNERABLE if chains else EXIT_OK
    layout = cipher.layout
    for ch in chains:
        print(" -> ".join(_fmt_subspace(s, layout) for s in ch.spaces))
    print(f"# {len(chains)} chain(s); completeness: "
          f"{completeness(args.mode)}", file=sys.stderr)
    return EXIT_VULNERABLE if chains else EXIT_OK


# ---------------------------------------------------------------------------
# demos


def _demo_weak_cipher(rounds: int, seed: int, samples: int) -> int:
    cipher = build_rotation_cipher(3, 3, rounds)
    layout = cipher.layout
    d = layout.d
    print(f"rotation cipher: m=3, b=3, {rounds} round(s), inversion bricks")
    print("each round sends brick i to brick i+1 (mod 3), so walls rotate")
    rng = random.Random(seed)
    shift = rounds % 3
    ok_all = True
    for i in range(1, 4):
        src = wall_subspace(layout, 1 << (i - 1))
        tgt_brick = (i - 1 + shift) % 3 + 1
        tgt = wall_subspace(layout, 1 << (tgt_brick - 1))
        ok = True
        for _ in range(samples):
            keys = tuple(rng.randrange(1 << d) for _ in range(rounds))
            table = encryption_table(cipher, keys)
            if partition_image(table, src) != tgt:
                ok = False
                break
        ok_all = ok_all and ok
        verdict = "confirmed" if ok else "FAILED"
        print(f"  L(V_{i}) -> L(V_{tgt_brick}) over {samples} random key "
              f"tuples: {verdict}")
    if shift == 0:
        print("round count is a multiple of 3: every single-brick partition "
              "is invariant")
    else:
        print("round count is not a multiple of 3: the cipher carries a "
              "partition pair trapdoor, no single-brick partition is "
              "invariant")
    print()
    _demo_group_check(rounds)
    return EXIT_OK if ok_all else 1


def _demo_group_check(rounds: int = 3) -> int:
    cipher = build_rotation_cipher(3, 3, rounds)
    layout = cipher.layout
    ind = sample_ind_generators(cipher)
    print(f"group check at degree {1 << layout.d}:")
    print(f"  sampled encryption-map generators ({len(ind)} perms):")
    found = invariant_linear_partition_search(ind)
    minimal = minimal_invariant_partitions(found)
    names = ", ".join(_fmt_subspace(s, layout) for s in minimal)
    if found:
        print(f"    invariant partitions found: {names}"
              + (f" (plus {len(found) - len(minimal)} sums)"
                 if len(found) > len(minimal) else ""))
        system = minimal_block(ind, [(0, found[0].basis[0])])
        print(f"    minimal block system through V_1: {system.n_blocks} "
              f"blocks of size {system.block_size()} (imprimitive)")
    else:
        print("    invariant partitions found: none")
    rnd_gens = sample_round_generators(cipher)
    primitive, witness = is_primitive(rnd_gens)
    print(f"  sampled round-map generators ({len(rnd_gens)} perms): "
          + ("primitive" if primitive else
             f"imprimitive ({witness.n_blocks} blocks)"))
    if found and primitive:
        print("  the round maps generate a primitive group, yet the "
              "encryption maps share an invariant partition: the trapdoor "
              "is invisible to the round-group test")
    return EXIT_OK


def _demo_aes_wall() -> int:
    layout = presets.aes_layout()
    sr = presets.aes_shift_rows_layer()
    mc = presets.aes_mix_columns_layer()
    diagonal = sum(1 << (i - 1) for i in (1, 6, 11, 16))
    print("AES-shaped layout: 16 bytes, brick i = byte i (row-major)")
    print("tracing the diagonal wall through one ShiftRows + MixColumns:")
    trace = wall_trace(diagonal, LayerFamily((sr, mc)))
    print(f"  start:       {_fmt_wall(diagonal)} (a diagonal)")
    labels = ["after SR:   ", "after SR+MC:"]
    for (sub, mask), label in zip(trace, labels):
        if mask is not None:
            print(f"  {label} {_fmt_wall(mask)}")
        else:
            print(f"  {label} not a wall (dim {sub.dim})")
    print("ShiftRows sends the diagonal onto column {1,5,9,13}; MixColumns "
          "fixes every union of columns, so the wall survives the full "
          "round: this layer pair is not strongly proper")
    fam = LayerFamily((presets.aes_sr_mc_layer(),) * 10)
    famrep = family_strongly_proper(fam)
    print(f"ten copies of the combined layer, all 65534 proper walls: "
          f"family strongly proper: "
          + ("yes" if famrep.strongly_proper else "no"))
    return EXIT_OK


def _cmd_demo(args) -> int:
    if args.name == "weak-cipher":
        if args.samples < 1:
            raise SpecError(f"--samples must be at least 1, not "
                            f"{args.samples}")
        return _demo_weak_cipher(args.rounds, args.seed, args.samples)
    if args.name == "aes-wall":
        return _demo_aes_wall()
    if args.name == "group-check":
        return _demo_group_check(args.rounds)
    raise SpecError(f"unknown demo {args.name!r}")


# ---------------------------------------------------------------------------
# verify-report


def _cmd_verify_report(args) -> int:
    report = read_json(args.report)
    if args.spec is not None:
        cipher = load_cipher(args.spec)
        # A report that is not an object is left to verify_report, which
        # calls it malformed.
        if isinstance(report, dict):
            embedded = report.get("cipher")
            if embedded is None:
                raise SpecError("report embeds no cipher to compare with --spec")
            if parse_cipher(embedded) != cipher:
                _err("report cipher differs from the given spec file")
                return 1
    ok, problems = verify_report(report)
    if ok:
        print(f"{args.report}: all witnesses re-verify")
        return EXIT_OK
    for p in problems:
        _err(p)
    return 1


# ---------------------------------------------------------------------------
# parser plumbing


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors, which collides with the Vulnerable
    exit code; remap to the malformed-input code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_SPEC, f"tbaudit: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="tbaudit",
        description="Partition-trapdoor auditor for translation-based "
                    "block ciphers")
    sub = top.add_subparsers(dest="command", required=True,
                             parser_class=_Parser)

    p = sub.add_parser("analyze-sbox", help="measure one S-box")
    p.add_argument("table", nargs="?", help="file of hex table entries")
    p.add_argument("--builtin", choices=presets.BUILTIN_BRICKS)
    p.add_argument("--m", type=int, default=4,
                   help="bit width for builtins (default 4)")
    p.add_argument("--r", type=int, default=None,
                   help="check the exclusion condition at this exponent")
    p.add_argument("--condition1prime", "--use-condition1prime",
                   dest="condition1prime", action="store_true",
                   help="use the min-image bound instead of delta")
    p.add_argument("--budget", type=int, default=ANTI_INVARIANCE_BUDGET)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_analyze_sbox)

    p = sub.add_parser("analyze-mixing", help="measure one mixing layer")
    p.add_argument("matrix", nargs="?", help="file of hex matrix rows")
    p.add_argument("--builtin", choices=presets.BUILTIN_LAYERS)
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--b", type=int, default=4)
    p.add_argument("--family", type=int, default=None, metavar="ELL",
                   help="also check the family of ELL copies")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_analyze_mixing)

    p = sub.add_parser("audit", help="run the trapdoor audit on a cipher")
    p.add_argument("spec", help="cipher description file (JSON)")
    p.add_argument("--condition1prime", "--use-condition1prime",
                   dest="condition1prime", action="store_true")
    p.add_argument("--exhaustive-cap", type=int, default=0, metavar="D",
                   help="run the exhaustive search as a fallback when the "
                        "cipher has at most D bits (default: off)")
    p.add_argument("--budget", type=int, default=ANTI_INVARIANCE_BUDGET)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("find-trapdoor", help="search for partition chains")
    p.add_argument("spec", help="cipher description file (JSON)")
    p.add_argument("--mode", choices=["walls", "exhaustive"],
                   default="walls")
    p.add_argument("--exhaustive-cap", type=int, default=DEFAULT_CHAIN_CAP,
                   metavar="D", help="refuse exhaustive search above D bits")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_find_trapdoor)

    p = sub.add_parser("demo", help="run a narrated demonstration")
    p.add_argument("name", choices=["weak-cipher", "aes-wall", "group-check"])
    p.add_argument("--rounds", type=int, default=3)
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--samples", type=int, default=8)
    p.set_defaults(func=_cmd_demo)

    p = sub.add_parser("verify-report",
                       help="re-check every witness in a report")
    p.add_argument("report", help="report JSON produced by --json")
    p.add_argument("--spec", default=None,
                   help="also require the report to describe this cipher")
    p.set_defaults(func=_cmd_verify_report)

    return top


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SingularMatrixError as exc:
        _err(str(exc))
        return EXIT_SINGULAR
    except SpecError as exc:
        _err(str(exc))
        return EXIT_SPEC
    except ValueError as exc:
        _err(str(exc))
        return EXIT_SPEC
    except CapExceeded as exc:
        _err(str(exc))
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
