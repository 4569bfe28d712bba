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
scans themselves, the check is made up front on the whole cost.  So is a
recorded family longer than WALL_CAP layers.
"""

from __future__ import annotations

import json
import random
import reprlib
from datetime import datetime, timezone
from typing import Any

import numpy as np

from .cipher import (DEFAULT_CHAIN_CAP, MAX_TABLE_D, SEMANTICS,
                     AuditVerdict, BrickConditionReport, PartitionChain,
                     TbCipher, audit, brick_condition, chain_holds_under_key,
                     find_trapdoor_chains, verify_chain)
from .errors import CapExceeded, SpecError
from .gf2 import (BrickLayout, Subspace, _mask_bricks,
                  subspace_image, wall_subspace)
from .mixing import (WALL_CAP, FamilyReport, LayerFamily, MixingLayer,
                     family_strongly_proper, is_proper, is_strongly_proper)
from .sbox import (ANTI_INVARIANCE_BUDGET, SBox, analyze_sbox,
                   anti_invariance_scan_cost)
from .specfile import (_as_int, _parse_layer, _parse_layout, _parse_values,
                       cipher_to_spec, parse_cipher)

__all__ = [
    "SCHEMA_VERSION",
    "subspace_json",
    "subspace_from_json",
    "sbox_report",
    "mixing_report",
    "audit_report",
    "chains_report",
    "completeness",
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
    return Subspace(tuple(_parse_values(obj["basis"], "basis")),
                    _as_int(obj["ambient"], "ambient"))


def _wall_json(mask: int) -> list[int]:
    return list(_mask_bricks(mask))


def _wall_from_json(layout: BrickLayout, bricks: list) -> Subspace:
    """The wall whose 1-based bricks a report lists; an entry that is not a
    brick of the layout is malformed."""
    mask = 0
    for i in bricks:
        if type(i) is not int or not 1 <= i <= layout.b:
            raise ValueError(
                f"brick {reprlib.repr(i)} is not in 1..{layout.b}")
        mask |= 1 << (i - 1)
    return wall_subspace(layout, mask)


# ---------------------------------------------------------------------------
# Builders.


def sbox_report(box: SBox, *, requested_r: int | None = None,
                use_condition1prime: bool = False,
                budget: int = ANTI_INVARIANCE_BUDGET) -> dict:
    rep = analyze_sbox(box, budget=budget)
    # An exact order decides the anti-invariance check without a second scan.
    condition = brick_condition(
        box, rep.delta, rep.min_image, use_condition1prime, budget,
        rep.anti_invariance_order if rep.order_is_exact else None,
        requested_r)
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
        "condition": _brick_condition_json(condition),
        "flags": {"r": requested_r, "condition1prime": use_condition1prime},
        "semantics": SEMANTICS,
    }


def _brick_condition_json(rep: BrickConditionReport) -> dict:
    return {
        "route": rep.route, "r": rep.r, "anti_invariant_ok": rep.anti_ok,
        "ok": rep.ok, "detail": rep.detail,
    }


def _family_json(fam: FamilyReport) -> dict:
    steps, counts = np.unique(fam.escape, return_counts=True)
    histogram = {str(step) if step else "none": count
                 for step, count in zip(steps.tolist(), counts.tolist())}
    return {
        "ell": fam.ell,
        "max_prefix": fam.max_prefix,
        "strongly_proper": fam.strongly_proper,
        "wall_count": len(fam.escape),
        "escape_histogram": histogram,
        "surviving_walls": [
            _wall_json(mask)
            for mask in fam.surviving_masks()[:_EMBED_WALL_CAP].tolist()],
        "note": fam.note,
    }


def mixing_report(layer: MixingLayer, *, family_ell: int | None = None) -> dict:
    proper_ok, proper_witness = is_proper(layer)
    strong_ok, strong_witness = is_strongly_proper(layer)
    family = None
    if family_ell is not None:
        if family_ell < 1:
            raise SpecError(f"family length must be positive, got {family_ell}")
        if family_ell > WALL_CAP:
            raise CapExceeded(f"family of {family_ell} layers refused",
                              estimate=family_ell, limit=WALL_CAP)
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
                "min_image": b.min_image_size, **_brick_condition_json(b),
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


def completeness(mode: str) -> str:
    """How much of the chain lattice a search of this mode covers: the
    exhaustive search finds every chain, the walls search only the chains
    through walls."""
    return "search-complete" if mode == "exhaustive" else "walls-only"


def chains_report(cphr: TbCipher, mode: str, chains: list[PartitionChain], *,
                  cap: int | None = None) -> dict:
    return {
        "kind": "trapdoor-chains",
        "schema": SCHEMA_VERSION,
        "generated_at": _now(),
        "cipher": cipher_to_spec(cphr),
        "mode": mode,
        "flags": {"cap": cap},
        "completeness": completeness(mode),
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
            if key not in b:
                out.append(f"{path}.{key}: missing from report")
            elif key not in a:
                out.append(
                    f"{path}.{reprlib.repr(key)}: unexpected in report")
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
        out.append(f"{path}: report has {reprlib.repr(b)}, "
                   f"regeneration gives {reprlib.repr(a)}")


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
    box = SBox(tuple(_parse_values(report["table"], "$.table")))
    flags = report.get("flags", {})
    budget = _as_int(report["anti_invariance"]["budget"],
                     "$.anti_invariance.budget")
    _check_budget("budget", budget, box.m)
    r = flags.get("r")
    fresh = sbox_report(
        box, requested_r=None if r is None else _as_int(r, "$.flags.r"),
        use_condition1prime=bool(flags.get("condition1prime")), budget=budget)
    _diff_paths(_strip_timestamp(fresh), _strip_timestamp(report), "$", problems)
    violation = report["anti_invariance"]["violation"]
    if violation is not None:
        u = subspace_from_json(violation["subspace"])
        w = subspace_from_json(violation["image"])
        norm = box.normalized()
        if not u.ambient == w.ambient == box.m:
            problems.append(f"anti-invariance witness lives in dimensions "
                            f"{u.ambient} and {w.ambient}, not in the "
                            f"box's {box.m}")
        elif {norm[x] for x in u.elements()} != set(w.elements()):
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
    layout = _parse_layout(report["layout"], "$.layout")
    layer = _parse_layer(report["rows"], layout, "$.rows")
    ell = report.get("flags", {}).get("family")
    fresh = mixing_report(layer, family_ell=None if ell is None
                          else _as_int(ell, "$.flags.family"))
    _diff_paths(_strip_timestamp(fresh), _strip_timestamp(report), "$", problems)
    witness = report["proper"]["witness"]
    if witness is not None:
        sub = _wall_from_json(layout, witness)
        if subspace_image(sub, layer.matrix) != sub:
            problems.append("proper-violation witness wall is not fixed by "
                            "the layer")
    strong = report["strongly_proper"]["witness"]
    if strong is not None:
        wall = _wall_from_json(layout, strong["bricks"])
        target = _wall_from_json(layout, strong["image_bricks"])
        if subspace_image(wall, layer.matrix) != target:
            problems.append("strongly-proper witness image is not the "
                            "claimed wall")


def _verify_audit(report: dict, problems: list[str]) -> None:
    cphr = parse_cipher(report["cipher"])
    flags = report.get("flags", {})
    exhaustive_cap = _as_int(flags.get("exhaustive_cap", 0),
                             "$.flags.exhaustive_cap")
    anti_budget = _as_int(flags.get("anti_budget", ANTI_INVARIANCE_BUDGET),
                          "$.flags.anti_budget")
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
        elif cphr.layout.d <= MAX_TABLE_D:
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
    kwargs = {} if cap is None else {"cap": _as_int(cap, "$.flags.cap")}
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
    except RecursionError:
        problems.append("malformed report: nested too deeply")
    return not problems, problems
