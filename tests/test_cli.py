"""End-to-end checks of the command-line interface and its exit codes."""

import argparse
import json
import random
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import tbaudit
from tbaudit import presets, specfile
from tbaudit.cipher import audit
from tbaudit.cli import _build_parser, main
from tbaudit.errors import SpecError
from tbaudit.gf2 import BrickLayout
from tbaudit.report import (audit_report, chains_report, dumps_report,
                            mixing_report, sbox_report, verify_report)
from tbaudit.specfile import parse_cipher

SPEC_DIR = Path(__file__).parent.parent / "specs"
WEAK_L3 = str(SPEC_DIR / "weak_rotation_m3b3_l3.json")
WEAK_L4 = str(SPEC_DIR / "weak_rotation_m3b3_l4.json")
PRESENT_TOY = str(SPEC_DIR / "toy_present_m4b2_l3.json")
LINEAR_TOY = str(SPEC_DIR / "linear_bricks_m3b2_l2.json")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def json_out(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


def run_cli_bounded(*argv):
    """Exit code, stderr and the seconds main() took, run in a child process
    held to 1.5 GB of address space and 10 s of CPU: a refusal that
    regresses into unbounded work fails the test, not the machine."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000,) * 2)
        resource.setrlimit(resource.RLIMIT_CPU, (10, 10))
    script = ("import sys, time\n"
              "from tbaudit.cli import main\n"
              "t = time.perf_counter()\n"
              "code = main(sys.argv[1:])\n"
              "print(time.perf_counter() - t)\n"
              "sys.exit(code)\n")
    src = str(Path(tbaudit.__file__).parent.parent)
    proc = subprocess.run([sys.executable, "-B", "-c", script, *argv],
                          capture_output=True, text=True, timeout=60,
                          preexec_fn=limit, env={"PYTHONPATH": src})
    seconds = float(proc.stdout.split()[-1]) if proc.stdout else None
    return proc.returncode, proc.stderr, seconds


def write_spec(path, m, b, bricks, layer, rounds):
    path.write_text(json.dumps({
        "layout": {"m": m, "b": b},
        "rounds": [{"bricks": bricks, "layer": layer}] * rounds}))
    return str(path)


# ---------------------------------------------------------------------------
# audit


def test_audit_vulnerable_exit_and_text(capsys):
    code, out, err = run_cli(capsys, "audit", WEAK_L3)
    assert code == 2
    assert "audit verdict: VULNERABLE" in out
    assert "wall{1} -> wall{2} -> wall{3} -> wall{1}" in out
    assert "(6 found)" in out


def test_audit_secure_exit(capsys):
    code, out, _ = run_cli(capsys, "audit", PRESENT_TOY)
    assert code == 0
    assert "audit verdict: SECURE" in out


def test_audit_inconclusive_exit(capsys):
    code, out, _ = run_cli(capsys, "audit", LINEAR_TOY)
    assert code == 3
    assert "audit verdict: INCONCLUSIVE" in out


def test_audit_exhaustive_fallback_flag(capsys):
    code, out, _ = run_cli(capsys, "audit", LINEAR_TOY, "--exhaustive-cap", "6")
    assert code == 2
    assert "audit verdict: VULNERABLE" in out


def test_audit_json_verifies(capsys):
    code, rep, _ = json_out(capsys, "audit", WEAK_L3, "--json")
    assert code == 2
    assert rep["kind"] == "audit" and rep["verdict"] == "vulnerable"
    ok, problems = verify_report(rep)
    assert ok, problems


def test_audit_json_is_deterministic(capsys):
    def stripped():
        code, out, _ = run_cli(capsys, "audit", PRESENT_TOY, "--json")
        assert code == 0
        return "\n".join(line for line in out.splitlines()
                         if '"generated_at"' not in line)
    assert stripped() == stripped()


def test_audit_missing_spec_file(capsys):
    code, _, err = run_cli(capsys, "audit", "no_such_file.json")
    assert code == 64
    assert "cannot read" in err


def test_non_utf8_input_is_a_spec_error_naming_its_file(capsys, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_bytes(b"\xff{}")
    table = tmp_path / "table.hex"
    table.write_bytes(b"\xff 1 2 3")
    for argv in (["audit", str(spec)], ["verify-report", str(spec)],
                 ["analyze-sbox", str(table)],
                 ["analyze-mixing", str(table), "--m", "2", "--b", "2"]):
        code, _, err = run_cli(capsys, *argv)
        assert code == 64, argv
        assert argv[1] in err and "not UTF-8" in err, err


# ---------------------------------------------------------------------------
# find-trapdoor


def test_find_trapdoor_walls_mode(capsys):
    code, out, err = run_cli(capsys, "find-trapdoor", WEAK_L3)
    assert code == 2
    lines = out.strip().splitlines()
    assert len(lines) == 6
    assert lines[0] == "wall{1} -> wall{2} -> wall{3} -> wall{1}"
    assert "# 6 chain(s); completeness: walls-only" in err


def test_find_trapdoor_exhaustive_clean_cipher(capsys):
    code, out, err = run_cli(capsys, "find-trapdoor", PRESENT_TOY,
                             "--mode", "exhaustive")
    assert code == 0
    assert out.strip() == ""
    assert "# 0 chain(s); completeness: search-complete" in err


def test_find_trapdoor_exhaustive_cap_refusal(capsys, tmp_path):
    spec = tmp_path / "wide.json"
    spec.write_text(json.dumps({
        "layout": {"m": 4, "b": 4},
        "rounds": [{"bricks": "inverse_gf2m", "layer": "rotation"}],
    }))
    code, _, err = run_cli(capsys, "find-trapdoor", str(spec),
                           "--mode", "exhaustive")
    assert code == 66
    assert "134732283882873635909" in err  # proper subspaces of F_2^16


def test_find_trapdoor_exhaustive_refusal_names_the_cap_that_admits_it(
        capsys, tmp_path):
    spec = tmp_path / "d12.json"
    spec.write_text(json.dumps({
        "layout": {"m": 4, "b": 3},
        "rounds": [{"bricks": "inverse_gf2m", "layer": "rotation"}] * 3,
    }))
    code, out, err = run_cli(capsys, "find-trapdoor", str(spec),
                             "--mode", "exhaustive")
    assert code == 66 and out == ""
    assert ("exhaustive chain search at d=12 refused: above the 9-bit cap;"
            " a cap of 12 admits it") in err
    assert "limit: 9)" in err


def test_find_trapdoor_exhaustive_refuses_past_the_int64_width(
        capsys, tmp_path):
    # no cap admits d = 64: the search's vectors are int64
    spec = tmp_path / "d64.json"
    spec.write_text(json.dumps({
        "layout": {"m": 8, "b": 8},
        "rounds": [{"bricks": "inverse_gf2m", "layer": "rotation"}] * 2,
    }))
    code, out, err = run_cli(capsys, "find-trapdoor", str(spec),
                             "--mode", "exhaustive", "--exhaustive-cap", "64")
    assert code == 66 and out == ""
    assert ("exhaustive chain search at d=64 refused: its int64 vectors hold"
            " at most 62 bits") in err


def test_find_trapdoor_json(capsys):
    code, rep, _ = json_out(capsys, "find-trapdoor", WEAK_L4, "--json")
    assert code == 2
    assert rep["kind"] == "trapdoor-chains"
    assert rep["completeness"] == "walls-only"
    ok, problems = verify_report(rep)
    assert ok, problems


# ---------------------------------------------------------------------------
# analyze-sbox


def test_analyze_sbox_builtin_text(capsys):
    code, out, _ = run_cli(capsys, "analyze-sbox", "--builtin", "inverse_gf2m",
                           "--m", "4")
    assert code == 0
    assert "differential uniformity delta = 4" in out
    assert "min derivative image size = 7" in out
    assert "anti-invariance order: 1 (exact)" in out
    assert "witness: span[1 6] maps onto span[1 6]" in out
    assert "(uniformity route): ok" in out


def test_analyze_sbox_identity_fails_condition(capsys):
    code, out, _ = run_cli(capsys, "analyze-sbox", "--builtin", "identity")
    assert code == 0
    assert "FAILS" in out
    assert "linear components: yes (mask 1)" in out


def test_analyze_sbox_table_file(capsys, tmp_path):
    table = tmp_path / "box.hex"
    table.write_text("0 1 2 3 4 5 7 6\n")
    code, out, _ = run_cli(capsys, "analyze-sbox", str(table))
    assert code == 0
    assert "S-box on m=3 bits" in out


def test_analyze_sbox_json_verifies(capsys):
    code, rep, _ = json_out(capsys, "analyze-sbox", "--builtin", "present",
                            "--json", "--condition1prime")
    assert code == 0
    assert rep["kind"] == "sbox-analysis"
    assert rep["condition"]["route"] == "min-image"
    ok, problems = verify_report(rep)
    assert ok, problems


def test_analyze_sbox_input_errors(capsys, tmp_path):
    table = tmp_path / "box.hex"
    table.write_text("0 1 2 3 4 5 7 6\n")
    code, _, err = run_cli(capsys, "analyze-sbox", str(table),
                           "--builtin", "identity")
    assert code == 64 and "not both" in err
    code, _, err = run_cli(capsys, "analyze-sbox")
    assert code == 64 and "need a table file or --builtin" in err
    code, _, err = run_cli(capsys, "analyze-sbox", "--builtin",
                           "inverse_gf2m", "--m", "7")
    assert code == 64
    bad = tmp_path / "bad.hex"
    bad.write_text("0 1 zz 3\n")
    code, _, err = run_cli(capsys, "analyze-sbox", str(bad))
    assert code == 64 and "non-hex" in err


def test_identity_brick_above_max_m_is_refused_before_its_table(tmp_path):
    # 2^40 table entries would be built before the SBox width check
    spec = write_spec(tmp_path / "wide.json", 40, 2, "identity", "identity", 1)
    for argv in (("audit", spec),
                 ("analyze-sbox", "--builtin", "identity", "--m", "40")):
        code, err, _ = run_cli_bounded(*argv)
        assert code == 64, err
        assert "m=40 exceeds the supported maximum 12" in err


def test_analyze_sbox_out_of_range_r(capsys):
    code, _, err = run_cli(capsys, "analyze-sbox", "--builtin",
                           "inverse_gf2m", "--m", "4", "--r", "4")
    assert code == 64
    assert "r must be in [1, 3]" in err


def test_analyze_sbox_requested_r_whose_bound_fails_needs_no_scan(capsys):
    # delta = 2^12 fails the bound at r = 11, so the strong 10-anti-invariance
    # scan, far above the budget, is never asked for.
    code, out, err = run_cli(capsys, "analyze-sbox", "--builtin", "identity",
                             "--m", "12", "--r", "11")
    assert code == 0, err
    assert "FAILS (requested r=11: bound fails)" in out


def test_fixed_shape_builtins_ignore_the_width_flags(capsys):
    code, out, _ = run_cli(capsys, "analyze-sbox", "--builtin", "present",
                           "--m", "7")
    assert code == 0
    assert "S-box on m=4 bits: c 5 6 b 9 0 a d" in out
    code, out, _ = run_cli(capsys, "analyze-mixing", "--builtin", "aes_sr_mc",
                           "--m", "1")
    assert code == 0
    assert "mixing layer on d=128 bits (m=8, b=16)" in out
    assert "strongly proper: no (wall{" in out


def _builtin_choices(command):
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return next(a.choices for a in sub.choices[command]._actions
                if a.dest == "builtin")


def test_builtin_names_come_from_the_presets_tables(capsys):
    for command, table, kind in (
            ("analyze-sbox", presets.BUILTIN_BRICKS, "bricks"),
            ("analyze-mixing", presets.BUILTIN_LAYERS, "layer")):
        assert list(_builtin_choices(command)) == list(table)
        obj = {"layout": {"m": 3, "b": 2},
               "rounds": [{"bricks": "inverse_gf2m", "layer": "rotation"}]}
        obj["rounds"][0][kind] = "no_such_builtin"
        with pytest.raises(SpecError,
                           match=f"builtins: {', '.join(table)}$"):
            specfile.parse_cipher(obj)
        with pytest.raises(SystemExit):
            main([command, "--builtin", "no_such_builtin"])
        err = capsys.readouterr().err
        assert ", ".join(map(repr, table)) in err


# ---------------------------------------------------------------------------
# analyze-mixing


def test_analyze_mixing_rotation_text(capsys):
    code, out, _ = run_cli(capsys, "analyze-mixing", "--builtin", "rotation",
                           "--m", "3", "--b", "4", "--family", "3")
    assert code == 0
    assert "proper: yes" in out
    assert "strongly proper: no (wall{1} maps onto wall{2})" in out
    assert "family of 3 copies: strongly proper: no" in out
    assert "surviving walls:" in out


def test_analyze_mixing_aes_family(capsys):
    code, out, _ = run_cli(capsys, "analyze-mixing", "--builtin", "aes_sr_mc",
                           "--family", "10")
    assert code == 0
    assert "strongly proper: no (wall{" in out and "maps onto wall{" in out
    assert "family of 10 copies: strongly proper: yes" in out
    assert "escape steps over 65534 proper walls" in out


def test_wall_walks_above_the_cap_are_refused(tmp_path):
    # b = 40 has 2^40 - 2 proper walls, so the walk would never end
    spec = write_spec(tmp_path / "wide.json", 2, 40, "inverse_gf2m",
                      "rotation", 2)
    for argv in (("audit", spec),
                 ("analyze-mixing", "--builtin", "rotation", "--m", "2",
                  "--b", "40")):
        code, err, seconds = run_cli_bounded(*argv)
        assert code == 66, err
        assert f"estimated work: {2**40 - 2}, limit: 65534" in err
        assert seconds < 1


@pytest.mark.parametrize("ell", [10**9, 2**70])
def test_hostile_family_lengths_are_refused(tmp_path, ell):
    # A family of ell copies would be built as an ell-tuple first.
    golden = SPEC_DIR / "golden" / "mixing_rotation_m3b4_fam3.json"
    report = json.loads(golden.read_text())
    report["flags"]["family"] = ell
    rep_path = tmp_path / "family.json"
    rep_path.write_text(json.dumps(report))
    for argv in (("verify-report", str(rep_path)),
                 ("analyze-mixing", "--builtin", "rotation", "--m", "3",
                  "--b", "4", "--family", str(ell))):
        code, err, seconds = run_cli_bounded(*argv)
        assert code == 66, err
        assert f"estimated work: {ell}, limit: 65534" in err
        assert seconds < 2


def test_analyze_mixing_matrix_file(capsys, tmp_path):
    mat = tmp_path / "layer.hex"
    mat.write_text("8 4 2 1 20 10\n")
    code, out, _ = run_cli(capsys, "analyze-mixing", str(mat),
                           "--m", "3", "--b", "2")
    assert code == 0
    assert "mixing layer on d=6 bits" in out


def test_analyze_mixing_singular_matrix(capsys, tmp_path):
    mat = tmp_path / "singular.hex"
    mat.write_text("1 1 2 4 8 10\n")
    code, _, err = run_cli(capsys, "analyze-mixing", str(mat),
                           "--m", "3", "--b", "2")
    assert code == 65
    assert "singular" in err


def test_analyze_mixing_wrong_row_count(capsys, tmp_path):
    mat = tmp_path / "short.hex"
    mat.write_text("1 2 4\n")
    code, _, err = run_cli(capsys, "analyze-mixing", str(mat),
                           "--m", "3", "--b", "2")
    assert code == 64
    assert "needs 6" in err


# ---------------------------------------------------------------------------
# demos


def test_demo_weak_cipher(capsys):
    code, out, _ = run_cli(capsys, "demo", "weak-cipher", "--samples", "4")
    assert code == 0
    assert "walls rotate" in out
    assert "L(V_1) -> L(V_1) over 4 random key tuples: confirmed" in out
    assert "every single-brick partition is invariant" in out
    assert "primitive group" in out


def test_demo_weak_cipher_four_rounds(capsys):
    code, out, _ = run_cli(capsys, "demo", "weak-cipher", "--rounds", "4",
                           "--samples", "4")
    assert code == 0
    assert "L(V_1) -> L(V_2) over 4 random key tuples: confirmed" in out
    assert "partition pair trapdoor" in out


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_demo_weak_cipher_refuses_fewer_than_one_sample(capsys, samples):
    # with no key tuple sampled, every wall would read "confirmed"
    code, out, err = run_cli(capsys, "demo", "weak-cipher", "--samples",
                             samples)
    assert code == 64
    assert f"--samples must be at least 1, not {samples}" in err
    assert "confirmed" not in out


def test_demo_aes_wall(capsys):
    code, out, _ = run_cli(capsys, "demo", "aes-wall")
    assert code == 0
    assert "start:       wall{1,6,11,16} (a diagonal)" in out
    assert "after SR:    wall{1,5,9,13}" in out
    assert "after SR+MC: wall{1,5,9,13}" in out
    assert "family strongly proper: yes" in out


def test_demo_group_check(capsys):
    code, out, _ = run_cli(capsys, "demo", "group-check")
    assert code == 0
    assert "invariant partitions found: wall{1}, wall{2}, wall{3}" in out
    assert "64 blocks of size 8 (imprimitive)" in out
    # the paper's second claim: a primitive round group hides the trapdoor
    assert "sampled round-map generators (12 perms): primitive\n" in out
    assert "the trapdoor is invisible to the round-group test" in out


# ---------------------------------------------------------------------------
# verify-report


def test_verify_report_roundtrip(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "audit", WEAK_L3, "--json")
    assert code == 2
    rep_path = tmp_path / "audit.json"
    rep_path.write_text(out)
    code, out, _ = run_cli(capsys, "verify-report", str(rep_path))
    assert code == 0
    assert "all witnesses re-verify" in out
    # pinning the report to the matching spec file passes
    code, _, _ = run_cli(capsys, "verify-report", str(rep_path),
                         "--spec", WEAK_L3)
    assert code == 0
    # and to a different cipher fails
    code, _, err = run_cli(capsys, "verify-report", str(rep_path),
                           "--spec", PRESENT_TOY)
    assert code == 1
    assert "differs" in err


def test_verify_report_catches_tampering(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "audit", PRESENT_TOY, "--json")
    assert code == 0
    rep = json.loads(out)
    rep["verdict"] = "vulnerable"
    rep_path = tmp_path / "tampered.json"
    rep_path.write_text(json.dumps(rep))
    code, _, err = run_cli(capsys, "verify-report", str(rep_path))
    assert code == 1
    assert "$.verdict" in err


def test_verify_report_bounds_the_tampered_values_it_echoes(tmp_path):
    # a 200-deep list (under the JSON reader's nesting bound; its repr is
    # 400 characters) and a 10^5-character string in place of an audit
    # golden's verdict, and an extra key of 10^5 characters: each gives one
    # short problem line; a key the report lacks is named as missing
    golden = SPEC_DIR / "golden" / "audit_toy_present_m4b2_l3.json"
    for key, value, problem in (
            ("verdict", "[" * 200 + "]" * 200, "$.verdict: report has"),
            ("verdict", json.dumps("x" * 10 ** 5), "$.verdict: report has"),
            ("k" * 10 ** 5, "1", "unexpected in report"),
            ("verdict", None, "$.verdict: missing from report")):
        rep = json.loads(golden.read_text())
        if value is None:
            del rep[key]
        else:
            rep[key] = "@"
        rep_path = tmp_path / "tampered.json"
        rep_path.write_text(json.dumps(rep).replace('"@"', str(value)))
        code, err, _ = run_cli_bounded("verify-report", str(rep_path))
        assert code == 1
        lines = err.splitlines()
        assert len(lines) == 1 and len(lines[0]) < 200, lines
        assert problem in lines[0]


def test_verify_report_bad_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "verify-report", str(tmp_path / "no.json"))
    assert code == 64
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code, _, err = run_cli(capsys, "verify-report", str(bad))
    assert code == 64
    assert "invalid JSON" in err
    # valid JSON that is not a report object is a malformed report
    bad.write_text("[]")
    for extra in ([], ["--spec", WEAK_L3]):
        code, _, err = run_cli(capsys, "verify-report", str(bad), *extra)
        assert code == 1
        assert "malformed report" in err


def test_verify_report_refuses_recorded_caps_above_its_ceiling(capsys,
                                                               tmp_path):
    # d=10, identity bricks, strongly proper layers: the audit is
    # inconclusive, so an exhaustive cap of 10 would start a scan of all
    # 229,755,603 proper subspaces of F_2^10.
    cipher = parse_cipher({
        "layout": {"m": 5, "b": 2},
        "rounds": [{"bricks": "identity", "layer": {
            "name": "random_strongly_proper", "seed": 0}}] * 2})
    chains = chains_report(cipher, "exhaustive", [], cap=10)
    verdict = audit(cipher)
    assert verdict.status == "inconclusive"
    audited = audit_report(cipher, verdict)
    audited["flags"]["exhaustive_cap"] = 10
    for rep, recorded in ((chains, "cap=10"), (audited, "exhaustive_cap=10")):
        rep_path = tmp_path / "wide.json"
        rep_path.write_text(dumps_report(rep))
        start = time.monotonic()
        code, _, err = run_cli(capsys, "verify-report", str(rep_path))
        assert time.monotonic() - start < 1.0
        assert code == 66
        assert recorded in err and "ceiling of 9 bits" in err


def test_verify_report_refuses_recorded_bounds_that_are_not_ints(capsys,
                                                                 tmp_path):
    # NaN fails every comparison with a ceiling, so each of these would
    # otherwise start the full search or scan: the d=10 inconclusive audit
    # above, and an anti-invariance scan of a random 12-bit box.
    cipher = parse_cipher({
        "layout": {"m": 5, "b": 2},
        "rounds": [{"bricks": "identity", "layer": {
            "name": "random_strongly_proper", "seed": 0}}] * 2})
    chains = chains_report(cipher, "exhaustive", [], cap=9)
    audited = audit_report(cipher, audit(cipher))
    sbox = sbox_report(presets.present_sbox())
    sbox["table"] = " ".join(
        format(v, "x") for v in random.Random(12).sample(range(4096), 4096))
    # a family length or exponent of true would reach the analysis as 1
    mixing = mixing_report(presets.aes_sr_mc_layer(), family_ell=10)
    fields = ((chains, ("flags", "cap")),
              (audited, ("flags", "exhaustive_cap")),
              (audited, ("flags", "anti_budget")),
              (sbox, ("anti_invariance", "budget")),
              (sbox, ("flags", "r")),
              (mixing, ("flags", "family")))
    rep_path = tmp_path / "bounds.json"
    for rep, (outer, field) in fields:
        for value in ("NaN", "Infinity", "9.5", "true"):
            text = json.dumps({**rep, outer: {**rep[outer], field: 0}})
            rep_path.write_text(
                text.replace(f'"{field}": 0', f'"{field}": {value}'))
            start = time.monotonic()
            code, _, err = run_cli(capsys, "verify-report", str(rep_path))
            assert time.monotonic() - start < 2.0, (field, value)
            assert code == 1 and "malformed report" in err, (field, value)
            assert f"{field}=" in err and "not an integer" in err


@pytest.mark.parametrize("bricks", ["[0]", "[4]", '["1"]', "[1.5]", "[[1]]"])
def test_verify_report_refuses_witness_bricks_outside_the_layout(
        capsys, tmp_path, bricks):
    # the identity layer on three bricks fixes every wall, so its report
    # names a witness wall in each of these three places
    layer = presets.identity_layer(BrickLayout(2, 3))
    rep_path = tmp_path / "witness.json"
    for outer, inner in (("proper", None), ("strongly_proper", "bricks"),
                         ("strongly_proper", "image_bricks")):
        rep = mixing_report(layer)
        if inner is None:
            rep[outer]["witness"] = "@"
        else:
            rep[outer]["witness"][inner] = "@"
        rep_path.write_text(json.dumps(rep).replace('"@"', bricks))
        code, _, err = run_cli(capsys, "verify-report", str(rep_path))
        assert code == 1 and "malformed report" in err, (outer, inner)


def _tampered_verdict(tmp_path, depth):
    """An audit golden whose verdict is a list nested ``depth`` deep, so the
    whole report nests depth + 1 deep."""
    golden = SPEC_DIR / "golden" / "audit_toy_present_m4b2_l3.json"
    rep = json.loads(golden.read_text())
    rep["verdict"] = "@"
    path = tmp_path / f"deep{depth}.json"
    path.write_text(json.dumps(rep).replace(
        '"@"', "[" * depth + "]" * depth))
    return str(path)


def _frames_down(n, call):
    return call() if n == 0 else _frames_down(n - 1, call)


def test_nesting_bound_does_not_depend_on_the_caller(capsys, tmp_path):
    # the report at the bound is read and its verdict found tampered (exit
    # 1); one level more, or the 990 levels that once passed only at the
    # top of a process, is refused before parsing (exit 64), whether main()
    # runs at the top of a fresh process or 60 frames down
    for depth, want in ((specfile.MAX_JSON_DEPTH - 1, 1),
                        (specfile.MAX_JSON_DEPTH, 64), (990, 64)):
        path = _tampered_verdict(tmp_path, depth)
        code, err, _ = run_cli_bounded("verify-report", path)
        assert code == want, (depth, err)
        deep = _frames_down(60, lambda: main(["verify-report", path]))
        assert deep == want, depth
        err_deep = capsys.readouterr().err
        problem = ("nested too deeply" if want == 64
                   else "$.verdict: report has")
        assert problem in err and problem in err_deep


def test_oversized_json_is_refused(capsys, tmp_path):
    # whitespace is valid JSON padding: the file at the size bound parses
    # (and is no report), one byte more is refused unread
    path = tmp_path / "big.json"
    for size, want in ((specfile.MAX_JSON_BYTES, 1),
                       (specfile.MAX_JSON_BYTES + 1, 64)):
        path.write_bytes(b" " * (size - 2) + b"{}")
        code, _, err = run_cli(capsys, "verify-report", str(path))
        assert code == want, size
        assert ("larger than" in err) == (want == 64)
    code, _, err = run_cli(capsys, "audit", str(path))
    assert code == 64 and "larger than" in err


def test_deeply_nested_json_is_a_spec_error(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    golden = str(SPEC_DIR / "golden" / "audit_weak_rotation_m3b3_l3.json")
    for argv in (("audit", str(deep)), ("find-trapdoor", str(deep)),
                 ("verify-report", str(deep)),
                 ("verify-report", golden, "--spec", str(deep))):
        code, _, err = run_cli(capsys, *argv)
        assert code == 64, argv
        assert "nested too deeply" in err


def test_unclosed_json_string_is_refused_in_linear_time(tmp_path):
    # one quote and then only escaped quotes: the string never closes, and
    # a depth scan that retried it from every quote would take time
    # quadratic in the file
    path = tmp_path / "unclosed.json"
    path.write_text('"' + '\\"' * 10**5)
    code, err, seconds = run_cli_bounded("verify-report", str(path))
    assert code == 64, err
    assert seconds < 1


# ---------------------------------------------------------------------------
# parser behaviour


def test_usage_errors_exit_64():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main(["audit"])  # missing the spec argument
    assert exc.value.code == 64


def test_installed_entry_point():
    exe = shutil.which("tbaudit")
    assert exe is not None, "console script missing; reinstall with pip -e"
    proc = subprocess.run([exe, "audit", WEAK_L3], capture_output=True,
                          text=True)
    assert proc.returncode == 2
    assert "VULNERABLE" in proc.stdout
