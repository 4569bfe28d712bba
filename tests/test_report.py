"""Report generation and self-verification."""

import copy
import importlib.util
import json
import re
from pathlib import Path

import pytest

import tbaudit.report as report_mod
from tbaudit.cipher import (audit, build_linear_toy_cipher,
                            build_present_toy_cipher, build_rotation_cipher,
                            find_trapdoor_chains)
from tbaudit.errors import CapExceeded, SpecError
from tbaudit.gf2 import BrickLayout, rref
from tbaudit.presets import (identity_layer, identity_sbox, inversion_sbox,
                             present_sbox, rotation_layer,
                             find_strongly_proper_layer)
from tbaudit.report import (SCHEMA_VERSION, audit_report, chains_report,
                            dumps_report, mixing_report, sbox_report,
                            subspace_from_json, subspace_json, verify_report)
from tbaudit.sbox import SBox

SPLIT_ROUTE_TABLE = (3, 14, 7, 9, 13, 11, 4, 5, 12, 8, 1, 0, 15, 6, 2, 10)


def assert_verifies(report):
    ok, problems = verify_report(report)
    assert ok, problems


# ---------------------------------------------------------------------------
# Subspace serialization.


def test_subspace_roundtrip():
    s = rref([3, 12, 5], 6)
    assert subspace_from_json(subspace_json(s)) == s
    obj = subspace_json(s)
    assert obj["dim"] == s.dim and obj["ambient"] == 6
    assert all(re.fullmatch(r"[0-9a-f]+", row) for row in obj["basis"])


# ---------------------------------------------------------------------------
# The four report kinds verify cleanly straight out of the builder.


@pytest.mark.parametrize("box", [
    inversion_sbox(4), present_sbox(), identity_sbox(3),
    SBox(SPLIT_ROUTE_TABLE)],
    ids=["inv4", "present", "identity3", "split-route"])
def test_sbox_reports_verify(box):
    assert_verifies(sbox_report(box))


def test_sbox_report_condition1prime_flag():
    rep = sbox_report(SBox(SPLIT_ROUTE_TABLE), use_condition1prime=True)
    assert rep["condition"]["route"] == "min-image"
    assert rep["condition"]["ok"]
    assert_verifies(rep)


def test_sbox_report_requested_r():
    rep = sbox_report(inversion_sbox(4), requested_r=2)
    assert rep["condition"]["r"] == 2
    assert "requested r=2: bound holds" in rep["condition"]["detail"]
    assert_verifies(rep)
    rep = sbox_report(identity_sbox(4), requested_r=2)
    assert rep["condition"]["ok"] is False
    assert "bound fails" in rep["condition"]["detail"]
    assert_verifies(rep)


@pytest.mark.parametrize("use_1prime", [False, True])
def test_requested_r_condition_builds_the_ddt_once(monkeypatch, use_1prime):
    # With r requested or not, the condition reads delta and the minimum
    # image from analyze_sbox's DDT and builds none of its own.
    sbox_mod, cipher_mod = report_mod.sbox_mod, report_mod.cipher_mod
    built = []
    ddt = sbox_mod.ddt

    def counted(box):
        built.append(box)
        return ddt(box)

    monkeypatch.setattr(sbox_mod, "ddt", counted)
    monkeypatch.setattr(cipher_mod, "ddt", counted)
    box = inversion_sbox(5)
    rep = sbox_report(box, requested_r=2, use_condition1prime=use_1prime)
    assert built == [box] and rep["condition"]["r"] == 2
    built.clear()
    cipher_mod._brick_conditions.cache_clear()
    rep = sbox_report(box, use_condition1prime=use_1prime)
    assert built == [box] and rep["condition"]["ok"]


def test_sbox_report_rejects_out_of_range_r():
    with pytest.raises(SpecError, match=r"r must be in \[1, 3\]"):
        sbox_report(inversion_sbox(4), requested_r=4)
    with pytest.raises(SpecError):
        sbox_report(inversion_sbox(4), requested_r=0)


def test_mixing_reports_verify():
    layout = BrickLayout(3, 4)
    assert_verifies(mixing_report(rotation_layer(layout)))
    assert_verifies(mixing_report(rotation_layer(layout), family_ell=3))
    assert_verifies(mixing_report(find_strongly_proper_layer(layout, seed=0)))


def test_mixing_report_shape():
    rep = mixing_report(rotation_layer(BrickLayout(3, 4)), family_ell=3)
    assert rep["proper"]["ok"] is True and rep["proper"]["witness"] is None
    assert rep["strongly_proper"]["ok"] is False
    assert rep["strongly_proper"]["witness"] == {
        "bricks": [1], "image_bricks": [2]}
    assert rep["family"]["strongly_proper"] is False
    assert rep["family"]["wall_count"] == 14
    with pytest.raises(SpecError, match="family length"):
        mixing_report(rotation_layer(BrickLayout(3, 4)), family_ell=0)


def test_mixing_report_improper_layer_witness():
    ident = mixing_report(identity_layer(BrickLayout(2, 2)))
    assert ident["proper"]["ok"] is False
    assert ident["proper"]["witness"] == [1]
    assert_verifies(ident)


def test_audit_reports_verify():
    for cipher in (build_present_toy_cipher(3), build_rotation_cipher(3, 3, 3)):
        assert_verifies(audit_report(cipher, audit(cipher)))


def test_audit_report_with_fallback_flags():
    cipher = build_linear_toy_cipher(2)
    verdict = audit(cipher, exhaustive_fallback_cap=6)
    rep = audit_report(cipher, verdict, exhaustive_cap=6)
    assert rep["verdict"] == "vulnerable"
    assert rep["exhaustive"] == {"ran": True, "empty": False}
    assert rep["chain"] is not None
    assert_verifies(rep)


def test_chains_reports_verify():
    weak = build_rotation_cipher(3, 3, 3)
    assert_verifies(chains_report(
        weak, "walls", find_trapdoor_chains(weak, "walls")))
    affine = build_rotation_cipher(2, 2, 2)
    chains = find_trapdoor_chains(affine, "exhaustive", cap=4)
    rep = chains_report(affine, "exhaustive", chains, cap=4)
    assert rep["chain_count"] == 65
    assert rep["completeness"] == "search-complete"
    assert rep["truncated"] is False
    assert_verifies(rep)


# ---------------------------------------------------------------------------
# Recorded caps do not set the verifier's work.


def test_large_recorded_caps_that_ask_for_no_more_work_verify():
    affine = build_rotation_cipher(2, 3, 2)
    chains = find_trapdoor_chains(affine, "exhaustive", cap=12)
    assert_verifies(chains_report(affine, "exhaustive", chains, cap=12))
    wide = build_rotation_cipher(5, 2, 2)  # d=10, vulnerable by walls
    verdict = audit(wide, exhaustive_fallback_cap=12)
    assert verdict.status == "vulnerable" and not verdict.exhaustive_ran
    assert_verifies(audit_report(wide, verdict, exhaustive_cap=12))
    toy = build_present_toy_cipher(3)
    assert_verifies(audit_report(toy, audit(toy, anti_budget=10**12),
                                 anti_budget=10**12))
    assert_verifies(sbox_report(present_sbox(), budget=10**12))


def test_recorded_budgets_that_allow_scans_above_the_ceiling_refuse(
        monkeypatch):
    # A full scan of a 4-bit box visits 15 subspaces: above a ceiling of 10.
    monkeypatch.setattr(report_mod, "ANTI_INVARIANCE_BUDGET", 10)
    with pytest.raises(CapExceeded, match="budget=1000000.*10 subspaces"):
        verify_report(sbox_report(present_sbox(), budget=10**6))
    toy = build_present_toy_cipher(3)
    rep = audit_report(toy, audit(toy, anti_budget=10**6), anti_budget=10**6)
    with pytest.raises(CapExceeded, match="anti_budget=1000000.*10 subspaces"):
        verify_report(rep)


# ---------------------------------------------------------------------------
# Tampering is caught.


def tampered(report, mutate):
    bad = copy.deepcopy(report)
    mutate(bad)
    ok, problems = verify_report(bad)
    assert not ok
    return problems


def test_sbox_tampering_detected():
    rep = sbox_report(inversion_sbox(4))
    problems = tampered(rep, lambda r: r.update(delta=2))
    assert any("$.delta" in p for p in problems)
    problems = tampered(rep, lambda r: r.update(nonlinearity=6))
    assert any("$.nonlinearity" in p for p in problems)
    # swap the recorded anti-invariance witness for a non-subfield subspace
    def fake_witness(r):
        r["anti_invariance"]["violation"]["subspace"]["basis"] = ["1", "2"]
    problems = tampered(rep, fake_witness)
    assert problems


def test_mixing_tampering_detected():
    rep = mixing_report(rotation_layer(BrickLayout(3, 4)))
    problems = tampered(
        rep, lambda r: r["strongly_proper"].update(ok=True, witness=None))
    assert any("strongly_proper" in p for p in problems)

    def fake_image(r):
        r["strongly_proper"]["witness"]["image_bricks"] = [3]
    problems = tampered(rep, fake_image)
    assert any("witness" in p for p in problems)


def test_audit_tampering_detected():
    cipher = build_rotation_cipher(3, 3, 3)
    rep = audit_report(cipher, audit(cipher))
    problems = tampered(rep, lambda r: r.update(verdict="secure"))
    assert any("$.verdict" in p for p in problems)

    def fake_chain(r):
        r["chain"]["spaces"][1]["basis"] = ["1", "2", "4"]
    problems = tampered(rep, fake_chain)
    assert problems


def test_chains_tampering_detected():
    cipher = build_rotation_cipher(3, 3, 3)
    rep = chains_report(cipher, "walls", find_trapdoor_chains(cipher, "walls"))
    problems = tampered(rep, lambda r: r["chains"].pop())
    assert any("length" in p for p in problems)

    def fake_link(r):
        r["chains"][0]["spaces"][-1]["basis"] = ["8", "10", "20"]
    problems = tampered(rep, fake_link)
    assert problems


def test_unsupported_schema_and_kind():
    rep = sbox_report(inversion_sbox(4))
    bad = dict(rep, schema=99)
    ok, problems = verify_report(bad)
    assert not ok and "unsupported schema" in problems[0]
    bad = dict(rep, kind="mystery")
    ok, problems = verify_report(bad)
    assert not ok and "unknown report kind" in problems[0]


def test_malformed_report_is_reported_not_raised():
    wrong_flags = [
        dict(rep, flags=[]) for rep in (
            sbox_report(identity_sbox(3)),
            mixing_report(rotation_layer(BrickLayout(2, 2)), family_ell=2))]
    for bad in [{"kind": "sbox-analysis", "schema": SCHEMA_VERSION},
                *wrong_flags, [], ["audit"]]:
        ok, problems = verify_report(bad)
        assert not ok
        assert any("malformed report" in p for p in problems), problems


# ---------------------------------------------------------------------------
# Determinism.


def test_reports_are_deterministic_modulo_timestamp():
    a = sbox_report(present_sbox())
    b = sbox_report(present_sbox())
    a.pop("generated_at"), b.pop("generated_at")
    assert dumps_report(a) == dumps_report(b)


def test_dumps_report_is_sorted_json():
    text = dumps_report(sbox_report(identity_sbox(3)))
    obj = json.loads(text)
    assert obj["kind"] == "sbox-analysis"
    assert text.endswith("\n")
    keys = list(json.loads(text).keys())
    assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# Frozen reports shipped with the repository.

GOLDEN_DIR = Path(__file__).parent.parent / "specs" / "golden"


@pytest.mark.parametrize("name", sorted(
    p.name for p in GOLDEN_DIR.glob("*.json")))
def test_golden_reports_verify(name):
    report = json.loads((GOLDEN_DIR / name).read_text())
    ok, problems = verify_report(report)
    assert ok, problems


def test_golden_directory_is_populated():
    assert len(list(GOLDEN_DIR.glob("*.json"))) == 6


def test_golden_reports_are_byte_stable():
    # the regeneration script's --check, in process: a fresh dump of every
    # golden report must match the frozen file byte for byte (timestamps
    # aside), which a parsed comparison would miss for e.g. 1 vs 1.0
    script = GOLDEN_DIR.parent.parent / "scripts" / "regen_golden_reports.py"
    spec = importlib.util.spec_from_file_location("regen_golden_reports",
                                                  script)
    regen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regen)
    reports = regen.build_reports(GOLDEN_DIR.parent)
    assert len(reports) == 6
    assert regen.stale_reports(reports, GOLDEN_DIR) == []
