"""Machine-readable reports and their re-verification.

Every report embeds the object it describes (S-box table, matrix rows, or
the full cipher description), so each witness can be re-checked from the
report alone: ``verify_report`` rebuilds the subject, regenerates the
analysis with the recorded flags, compares everything except the timestamp,
and re-derives the embedded witnesses directly.  Identical inputs and flags
produce byte-identical JSON apart from the ``generated_at`` field.

A report whose recorded caps would let the verifier run an exhaustive chain
search above DEFAULT_CHAIN_CAP bits, or an anti-invariance scan above
ANTI_INVARIANCE_BUDGET subspaces, is refused with ``CapExceeded``; like the
scans themselves, the check is made up front on the whole cost.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from datetime import datetime, timezone
from typing import Any

from . import cipher as cipher_mod
from . import sbox as sbox_mod
from .cipher import (DEFAULT_CHAIN_CAP, SEMANTICS, AuditVerdict,
                     PartitionChain, TbCipher, audit, chain_holds_under_key,
                     find_trapdoor_chains, verify_chain)
from .errors import CapExceeded, SpecError
from .gf2 import BitMatrix, BrickLayout, Subspace, Wall, rref
from .mixing import (FamilyReport, LayerFamily, MixingLayer,
                     family_strongly_proper, is_proper, is_strongly_proper)
from .sbox import (ANTI_INVARIANCE_BUDGET, SBox, SBoxReport, analyze_sbox,
                   anti_invariance_scan_cost)
from .specfile import cipher_to_spec, parse_cipher

__all__ = [
    "SCHEMA_VERSION",
    "subspace_json",
    "subspace_from_json",
    "sbox_report",
    "mixing_report",
    "audit_report",
    "chains_report",
    "dumps_report",
    "verify_report",
]

SCHEMA_VERSION = 1
_EMBED_CHAIN_CAP = 512
_EMBED_WALL_CAP = 32


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def dumps_report(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def subspace_json(s: Subspace) -> dict:
    return {"ambient": s.ambient, "dim": s.dim,
            "basis": [format(row, "x") for row in s.basis]}


def subspace_from_json(obj: dict) -> Subspace:
    return Subspace(tuple(int(r, 16) for r in obj["basis"]), obj["ambient"])


def _wall_json(w: Wall) -> list[int]:
    return list(w.sorted_bricks())


# ---------------------------------------------------------------------------
# Builders.


def sbox_report(box: SBox, *, requested_r: int | None = None,
                use_condition1prime: bool = False,
                budget: int = ANTI_INVARIANCE_BUDGET) -> dict:
    rep = analyze_sbox(box, budget=budget)
    condition = _brick_condition_json(box, rep, requested_r,
                                      use_condition1prime, budget)
    violation = None
    if rep.violation is not None:
        u, w = rep.violation
        violation = {"subspace": subspace_json(u), "image": subspace_json(w)}
    return {
        "kind": "sbox-analysis",
        "schema": SCHEMA_VERSION,
        "generated_at": _now(),
        "table": " ".join(format(v, "x") for v in box.table),
        "m": box.m,
        "delta": rep.delta,
        "min_derivative_image": {"size": rep.min_image.size,
                                 "u": rep.min_image.u},
        "nonlinearity": rep.nonlinearity,
        "linear_component": rep.linear_component,
        "anti_invariance": {
            "order": rep.anti_invariance_order,
            "exact": rep.order_is_exact,
            "violation": violation,
            "budget": budget,
        },
        "condition": condition,
        "flags": {"r": requested_r, "condition1prime": use_condition1prime},
        "semantics": SEMANTICS,
    }


def _brick_condition_json(box: SBox, measured: SBoxReport,
                          requested_r: int | None, use_1prime: bool,
                          budget: int) -> dict:
    delta, mini = measured.delta, measured.min_image
    if requested_r is not None:
        m = box.m
        if not 1 <= requested_r < m:
            raise SpecError(f"r must be in [1, {m - 1}], got {requested_r}")
        bound_ok = (mini.size > (1 << (m - requested_r)) if use_1prime
                    else delta <= (1 << requested_r))
        if requested_r == 1:
            anti_ok = True
        else:
            anti_ok, _ = sbox_mod.is_strongly_anti_invariant(
                box, requested_r - 1, budget=budget)
        rep = cipher_mod.BrickConditionReport(
            brick_index=0, delta=delta,
            min_image_size=mini.size, min_image_u=mini.u,
            route="min-image" if use_1prime else "uniformity",
            r=requested_r if bound_ok else None,
            anti_ok=anti_ok if bound_ok else None,
            ok=bound_ok and anti_ok,
            detail=f"requested r={requested_r}: bound "
                   f"{'holds' if bound_ok else 'fails'}")
    else:
        rep = cipher_mod._brick_condition(box, delta, mini, use_1prime,
                                          budget)
    return {
        "route": rep.route, "r": rep.r, "anti_invariant_ok": rep.anti_ok,
        "ok": rep.ok, "detail": rep.detail,
    }


def _family_json(fam: FamilyReport) -> dict:
    histogram = Counter("none" if step is None else str(step)
                        for _, step in fam.escape)
    return {
        "ell": fam.ell,
        "max_prefix": fam.max_prefix,
        "strongly_proper": fam.strongly_proper,
        "wall_count": len(fam.escape),
        "escape_histogram": dict(histogram),
        "surviving_walls": [list(bricks) for bricks
                            in fam.surviving_walls()[:_EMBED_WALL_CAP]],
        "note": fam.note,
    }


def mixing_report(layer: MixingLayer, *, family_ell: int | None = None) -> dict:
    proper_ok, proper_witness = is_proper(layer)
    strong_ok, strong_witness = is_strongly_proper(layer)
    family = None
    if family_ell is not None:
        if family_ell < 1:
            raise SpecError(f"family length must be positive, got {family_ell}")
        fam = family_strongly_proper(LayerFamily((layer,) * family_ell))
        family = _family_json(fam)
    return {
        "kind": "mixing-analysis",
        "schema": SCHEMA_VERSION,
        "generated_at": _now(),
        "layout": {"m": layer.layout.m, "b": layer.layout.b},
        "rows": [format(row, "x") for row in layer.matrix.rows],
        "proper": {
            "ok": proper_ok,
            "witness": None if proper_witness is None
            else _wall_json(proper_witness),
        },
        "strongly_proper": {
            "ok": strong_ok,
            "witness": None if strong_witness is None else {
                "bricks": _wall_json(strong_witness[0]),
                "image_bricks": _wall_json(strong_witness[1]),
            },
        },
        "family": family,
        "flags": {"family": family_ell},
        "semantics": SEMANTICS,
    }


def _chain_json(chain: PartitionChain) -> dict:
    return {"spaces": [subspace_json(s) for s in chain.spaces]}


def _chain_from_json(obj: dict) -> PartitionChain:
    return PartitionChain(tuple(subspace_from_json(s) for s in obj["spaces"]))


def audit_report(cphr: TbCipher, verdict: AuditVerdict, *,
                 exhaustive_cap: int = 0,
                 anti_budget: int = ANTI_INVARIANCE_BUDGET) -> dict:
    rounds = []
    for rep in verdict.rounds:
        rounds.append({
            "round": rep.round_index,
            "ok": rep.ok,
            "bricks": [{
                "brick": b.brick_index, "delta": b.delta,
                "min_image": b.min_image_size, "route": b.route, "r": b.r,
                "anti_invariant_ok": b.anti_ok, "ok": b.ok,
                "detail": b.detail,
            } for b in rep.bricks],
        })
    return {
        "kind": "audit",
        "schema": SCHEMA_VERSION,
        "generated_at": _now(),
        "cipher": cipher_to_spec(cphr),
        "flags": {
            "condition1prime": verdict.condition_1prime,
            "exhaustive_cap": exhaustive_cap,
            "anti_budget": anti_budget,
        },
        "verdict": verdict.status,
        "clause1": {"ok": verdict.clause1_ok, "round": verdict.clause1_round},
        "clause2": {"ok": verdict.clause2_ok},
        "strongly_proper_layers": list(verdict.strongly_proper_layers),
        "family": _family_json(verdict.family),
        "rounds": rounds,
        "chain": None if verdict.chain is None else _chain_json(verdict.chain),
        "chain_count": verdict.chain_count,
        "exhaustive": {"ran": verdict.exhaustive_ran,
                       "empty": verdict.exhaustive_empty},
        "notes": list(verdict.notes),
        "semantics": SEMANTICS,
    }


def chains_report(cphr: TbCipher, mode: str, chains: list[PartitionChain], *,
                  cap: int | None = None) -> dict:
    return {
        "kind": "trapdoor-chains",
        "schema": SCHEMA_VERSION,
        "generated_at": _now(),
        "cipher": cipher_to_spec(cphr),
        "mode": mode,
        "flags": {"cap": cap},
        "completeness": ("search-complete" if mode == "exhaustive"
                         else "walls-only"),
        "chain_count": len(chains),
        "truncated": len(chains) > _EMBED_CHAIN_CAP,
        "chains": [_chain_json(ch) for ch in chains[:_EMBED_CHAIN_CAP]],
        "semantics": SEMANTICS,
    }


# ---------------------------------------------------------------------------
# Verification.


def _strip_timestamp(report: dict) -> dict:
    out = dict(report)
    out.pop("generated_at", None)
    return out


def _diff_paths(a: Any, b: Any, path: str, out: list[str]) -> None:
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a:
                out.append(f"{path}.{key}: missing from report")
            elif key not in b:
                out.append(f"{path}.{key}: unexpected in report")
            else:
                _diff_paths(a[key], b[key], f"{path}.{key}", out)
        return
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            out.append(f"{path}: length {len(b)} in report, expected {len(a)}")
            return
        for i, (x, y) in enumerate(zip(a, b)):
            _diff_paths(x, y, f"{path}[{i}]", out)
        return
    if a != b:
        out.append(f"{path}: report has {b!r}, regeneration gives {a!r}")


def _wide_search_refusal(field: str, cap, d: int) -> CapExceeded:
    return CapExceeded(
        f"report records {field}={cap!r}: an exhaustive chain search at "
        f"d={d} is above the verifier's ceiling of {DEFAULT_CHAIN_CAP} bits")


def _check_budget(field: str, budget, m: int) -> None:
    """Refuse a recorded budget under which an anti-invariance scan of an
    m-bit box could cost more than the verifier's ceiling."""
    cost = anti_invariance_scan_cost(m, m - 1)
    if budget > ANTI_INVARIANCE_BUDGET and cost > ANTI_INVARIANCE_BUDGET:
        raise CapExceeded(
            f"report records {field}={budget!r}: an anti-invariance scan at "
            f"m={m} is above the verifier's ceiling of "
            f"{ANTI_INVARIANCE_BUDGET} subspaces", estimate=cost,
            limit=ANTI_INVARIANCE_BUDGET)


def _verify_sbox(report: dict, problems: list[str]) -> None:
    table = tuple(int(v, 16) for v in report["table"].split())
    box = SBox(table)
    flags = report.get("flags", {})
    budget = report["anti_invariance"]["budget"]
    _check_budget("budget", budget, box.m)
    fresh = sbox_report(box, requested_r=flags.get("r"),
                        use_condition1prime=bool(flags.get("condition1prime")),
                        budget=budget)
    _diff_paths(_strip_timestamp(fresh), _strip_timestamp(report), "$", problems)
    violation = report["anti_invariance"]["violation"]
    if violation is not None:
        u = subspace_from_json(violation["subspace"])
        w = subspace_from_json(violation["image"])
        norm = box.normalized()
        image = {norm[x] for x in u.elements()}
        if image != set(w.elements()):
            problems.append("anti-invariance witness does not map onto the "
                            "claimed image subspace")
    comp = report["linear_component"]
    if comp is not None:
        norm = box.normalized()
        n = 1 << box.m
        vals = [bin(comp & norm[x]).count("1") & 1 for x in range(n)]
        basis_ok = all(
            vals[x ^ (1 << j)] == vals[x] ^ vals[1 << j]
            for j in range(box.m) for x in range(n))
        if not basis_ok:
            problems.append("claimed linear component is not linear")


def _verify_mixing(report: dict, problems: list[str]) -> None:
    layout = BrickLayout(report["layout"]["m"], report["layout"]["b"])
    rows = tuple(int(r, 16) for r in report["rows"])
    layer = MixingLayer(BitMatrix(rows, layout.d), layout)
    fresh = mixing_report(layer, family_ell=report.get("flags", {}).get("family"))
    _diff_paths(_strip_timestamp(fresh), _strip_timestamp(report), "$", problems)
    witness = report["proper"]["witness"]
    if witness is not None:
        sub = Wall(layout, frozenset(witness)).subspace()
        image_rows = [layer.matrix.apply(r) for r in sub.basis]
        if rref(image_rows, layout.d) != sub:
            problems.append("proper-violation witness wall is not fixed by "
                            "the layer")
    strong = report["strongly_proper"]["witness"]
    if strong is not None:
        wall = Wall(layout, frozenset(strong["bricks"]))
        target = Wall(layout, frozenset(strong["image_bricks"]))
        image_rows = [layer.matrix.apply(r) for r in wall.subspace().basis]
        if rref(image_rows, layout.d) != target.subspace():
            problems.append("strongly-proper witness image is not the "
                            "claimed wall")


def _verify_audit(report: dict, problems: list[str]) -> None:
    cphr = parse_cipher(report["cipher"])
    flags = report.get("flags", {})
    exhaustive_cap = flags.get("exhaustive_cap", 0)
    anti_budget = flags.get("anti_budget", ANTI_INVARIANCE_BUDGET)
    d = cphr.layout.d
    _check_budget("anti_budget", anti_budget, cphr.layout.m)
    # The fallback runs only on an inconclusive verdict, so auditing without
    # it gives the same verdict or shows that the search would run.
    too_wide = exhaustive_cap >= d > DEFAULT_CHAIN_CAP
    verdict = audit(cphr,
                    use_condition1prime=bool(flags.get("condition1prime")),
                    anti_budget=anti_budget,
                    exhaustive_fallback_cap=0 if too_wide else exhaustive_cap)
    if too_wide and verdict.status == "inconclusive":
        raise _wide_search_refusal("exhaustive_cap", exhaustive_cap, d)
    fresh = audit_report(cphr, verdict, exhaustive_cap=exhaustive_cap,
                         anti_budget=anti_budget)
    _diff_paths(_strip_timestamp(fresh), _strip_timestamp(report), "$", problems)
    if report["chain"] is not None:
        chain = _chain_from_json(report["chain"])
        if not verify_chain(cphr, chain):
            problems.append("embedded chain does not re-verify against the "
                            "cipher")
        elif cphr.layout.d <= cipher_mod.MAX_TABLE_D:
            rng = random.Random(0xA5)
            top = 1 << cphr.layout.d
            for _ in range(8):
                keys = tuple(rng.randrange(top) for _ in range(cphr.ell))
                if not chain_holds_under_key(cphr, chain, keys):
                    problems.append(
                        f"embedded chain fails under key tuple {keys}")
                    break


def _verify_chains(report: dict, problems: list[str]) -> None:
    cphr = parse_cipher(report["cipher"])
    cap = report.get("flags", {}).get("cap")
    kwargs = {} if cap is None else {"cap": cap}
    d = cphr.layout.d
    if (report["mode"] == "exhaustive" and cap is not None
            and cap >= d > DEFAULT_CHAIN_CAP):
        raise _wide_search_refusal("cap", cap, d)
    chains = find_trapdoor_chains(cphr, report["mode"], **kwargs)
    fresh = chains_report(cphr, report["mode"], chains, cap=cap)
    _diff_paths(_strip_timestamp(fresh), _strip_timestamp(report), "$", problems)
    for i, cobj in enumerate(report["chains"][:64]):
        chain = _chain_from_json(cobj)
        if not verify_chain(cphr, chain):
            problems.append(f"chain {i} does not re-verify")


def verify_report(report: Any) -> tuple[bool, list[str]]:
    """Re-check a report from its embedded subject.

    Regenerates the analysis with the recorded flags and compares (modulo
    the timestamp), then re-derives each embedded witness independently.
    Returns (ok, list of problems).
    """
    if not isinstance(report, dict):
        return False, [f"malformed report: expected an object, got "
                       f"{type(report).__name__}"]
    problems: list[str] = []
    kind = report.get("kind")
    if report.get("schema") != SCHEMA_VERSION:
        problems.append(f"unsupported schema {report.get('schema')!r}")
        return False, problems
    try:
        if kind == "sbox-analysis":
            _verify_sbox(report, problems)
        elif kind == "mixing-analysis":
            _verify_mixing(report, problems)
        elif kind == "audit":
            _verify_audit(report, problems)
        elif kind == "trapdoor-chains":
            _verify_chains(report, problems)
        else:
            problems.append(f"unknown report kind {kind!r}")
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        problems.append(f"malformed report: {exc!r}")
    return not problems, problems
