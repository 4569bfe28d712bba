"""End-to-end checks of the command-line interface and its exit codes."""

import json
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import tbaudit
from tbaudit.cipher import audit
from tbaudit.cli import main
from tbaudit.report import (audit_report, chains_report, dumps_report,
                            verify_report)
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
    proc = subprocess.run([sys.executable, "-c", script, *argv],
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


def test_demo_aes_wall(capsys):
    code, out, _ = run_cli(capsys, "demo", "aes-wall")
    assert code == 0
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
