"""End-to-end CLI behaviour: payloads, files, exit codes, error lines."""

import json
import subprocess
import sys

import pytest

from symgrowth.cli import main

INTERVAL_SPEC = {
    "group": {"type": "cyclic", "n": 20},
    "set": {"type": "interval", "start": 0, "length": 5},
}
SUBGROUP_SPEC = {
    "group": {"type": "cyclic", "n": 20},
    "set": {"type": "subgroup", "generators": [[4]]},
}


@pytest.fixture
def interval_file(tmp_path):
    path = tmp_path / "interval.json"
    path.write_text(json.dumps(INTERVAL_SPEC))
    return str(path)


@pytest.fixture
def subgroup_file(tmp_path):
    path = tmp_path / "subgroup.json"
    path.write_text(json.dumps(SUBGROUP_SPEC))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_stats_payload(capsys, interval_file):
    code, out, _ = run_cli(capsys, "stats", "--instance", interval_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["stats"] == {
        "size": 5,
        "product_size": 9,
        "inverse_product_size": 9,
        "quad_size": 17,
        "doubling": "9/5",
    }
    assert payload["instance"] == INTERVAL_SPEC


def test_sym_payload(capsys, interval_file):
    code, out, _ = run_cli(capsys, "sym", "--instance", interval_file, "--eta", "4/5")
    assert code == 0
    payload = json.loads(out)
    assert payload["eta"] == "4/5"
    assert payload["members"] == [[0], [1], [19]]
    assert payload["size"] == 3
    assert payload["base_size"] == 5


def test_sym_rejects_decimal_eta(capsys, interval_file):
    code, out, err = run_cli(capsys, "sym", "--instance", interval_file, "--eta", "0.8")
    assert code == 2
    assert out == ""
    line = json.loads(err.strip())
    assert line["error"] == "ParameterError"


def test_lemma_shrink_payload(capsys, interval_file):
    code, out, _ = run_cli(capsys, "lemma", "--instance", interval_file,
                           "--epsilon", "1/10")
    assert code == 0
    payload = json.loads(out)
    assert payload["case"] == "shrink"
    assert payload["t"] == [1]
    assert payload["tau"] == "25/18"
    assert payload["level_set_size"] == 7
    assert payload["shrunk_size"] == 4
    assert payload["shrunk_product_size"] == 8
    names = [e["name"] for e in payload["entries"]]
    assert names == ["step0.level_set_lower", "step0.shrink_size_lower",
                     "step0.shrink_product_upper"]
    assert all(e["holds"] for e in payload["entries"])


def test_lemma_terminate_payload(capsys, interval_file):
    code, out, _ = run_cli(capsys, "lemma", "--instance", interval_file,
                           "--epsilon", "1/2")
    assert code == 0
    payload = json.loads(out)
    assert payload["case"] == "terminate"
    assert payload["threshold"] == "1/2"
    assert payload["sym_size"] == 9
    assert [m[0] for m in payload["sym_members"]] == [0, 1, 2, 3, 4, 16, 17, 18, 19]


def test_run_writes_verified_certificate(capsys, tmp_path, interval_file):
    cert_path = tmp_path / "cert.json"
    code, out, _ = run_cli(capsys, "run", "--instance", interval_file,
                           "--k", "2", "--out", str(cert_path))
    assert code == 0
    assert out == ""
    cert = json.loads(cert_path.read_text())
    assert cert["format"] == "symgrowth.certificate/1"
    assert cert["verified"] is True
    assert cert["s"] == [[0], [1], [2], [18], [19]]
    assert cert["epsilon"] == "1/3"
    assert cert["instance"] == INTERVAL_SPEC


def test_run_reruns_byte_identically(capsys, tmp_path, interval_file):
    first = tmp_path / "one.json"
    second = tmp_path / "two.json"
    run_cli(capsys, "run", "--instance", interval_file, "--k", "3", "--out", str(first))
    run_cli(capsys, "run", "--instance", interval_file, "--k", "3", "--out", str(second))
    assert first.read_bytes() == second.read_bytes()


def test_run_trace_logs_steps_to_stderr(capsys, interval_file):
    code, out, err = run_cli(capsys, "run", "--instance", interval_file,
                             "--k", "2", "--trace")
    assert code == 0
    records = [json.loads(line) for line in err.strip().splitlines()]
    assert [r["index"] for r in records] == [0, 1]
    assert records[0]["action"] == "shrink"
    assert records[-1]["action"] == "terminate"
    # stdout still carries only the certificate
    assert json.loads(out)["verified"] is True


def test_verify_round_trip(capsys, tmp_path, interval_file):
    cert_path = tmp_path / "cert.json"
    run_cli(capsys, "run", "--instance", interval_file, "--k", "2",
            "--out", str(cert_path))
    code, out, _ = run_cli(capsys, "verify", "--instance", interval_file,
                           "--certificate", str(cert_path))
    assert code == 0
    report = json.loads(out)
    assert report["overall"] is True
    assert all(c["pass"] for c in report["checks"])


def test_verify_flags_tampering_with_exit_1(capsys, tmp_path, interval_file):
    cert_path = tmp_path / "cert.json"
    run_cli(capsys, "run", "--instance", interval_file, "--k", "2",
            "--out", str(cert_path))
    cert = json.loads(cert_path.read_text())
    cert["s"][0] = [9]
    cert_path.write_text(json.dumps(cert))
    code, out, _ = run_cli(capsys, "verify", "--instance", interval_file,
                           "--certificate", str(cert_path))
    assert code == 1
    report = json.loads(out)
    assert report["overall"] is False
    failed = {c["name"] for c in report["checks"] if not c["pass"]}
    assert "s_matches_symmetry_set" in failed


def test_invariant_payload(capsys, interval_file):
    code, out, _ = run_cli(capsys, "invariant", "--instance", interval_file, "--k", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["chain_sizes"] == [5, 7, 9, 11]
    assert payload["l"] == 2
    assert payload["ratio"] == "11/9"
    assert payload["certificate_verified"] is True


def test_invariant_on_subgroup(capsys, subgroup_file):
    code, out, _ = run_cli(capsys, "invariant", "--instance", subgroup_file, "--k", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["ratio"] == "1"
    assert payload["l"] == 0


def test_sweep_csv(capsys, tmp_path):
    sweep_spec = {
        "base": {"group": {"type": "cyclic", "n": 40},
                 "set": {"type": "interval", "start": 0, "length": 2}},
        "grid": {"set.length": [2, 3, 4]},
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(sweep_spec))
    code, out, _ = run_cli(capsys, "sweep", "--instance", str(path))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "set.length,size,product_size,inverse_product_size,quad_size,doubling"
    assert lines[1] == "2,2,3,3,5,3/2"
    assert lines[2] == "3,3,5,5,9,5/3"
    assert lines[3] == "4,4,7,7,13,7/4"


def test_missing_instance_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "stats", "--instance", str(tmp_path / "nope.json"))
    assert code == 2
    assert json.loads(err.strip())["error"] == "ParameterError"


def test_bad_instance_spec(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"group": {"type": "cyclic", "n": 20},
                                "set": {"type": "interval", "start": 0, "length": 0}}))
    code, _, err = run_cli(capsys, "stats", "--instance", str(path))
    assert code == 2
    assert json.loads(err.strip())["error"] == "ParameterError"


def test_budget_exhaustion_exit_code(capsys, interval_file):
    code, _, err = run_cli(capsys, "stats", "--instance", interval_file,
                           "--budget-pairs", "10")
    assert code == 3
    line = json.loads(err.strip())
    assert line["error"] == "PairBudgetError"
    assert "needs 25 pairs" in line["message"]


def test_budget_does_not_leak_between_invocations(capsys, interval_file):
    code, _, _ = run_cli(capsys, "stats", "--instance", interval_file,
                         "--budget-pairs", "10")
    assert code == 3
    code, _, _ = run_cli(capsys, "stats", "--instance", interval_file)
    assert code == 0


def test_usage_errors_exit_2(capsys, interval_file):
    assert run_cli(capsys, "nonsense")[0] == 2
    assert run_cli(capsys)[0] == 2
    assert run_cli(capsys, "sym", "--instance", interval_file)[0] == 2  # --eta missing
    assert run_cli(capsys, "run", "--instance", interval_file, "--k", "zero")[0] == 2


def test_run_rejects_k_zero(capsys, interval_file):
    code, _, err = run_cli(capsys, "run", "--instance", interval_file, "--k", "0")
    assert code == 2
    assert json.loads(err.strip())["error"] == "ParameterError"


def test_console_script_entry_point(tmp_path):
    # one subprocess smoke test of the installed script
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(SUBGROUP_SPEC))
    proc = subprocess.run(
        [sys.executable, "-m", "symgrowth.cli", "stats", "--instance", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["stats"]["doubling"] == "1"


def test_verify_rejects_s_entry_of_wrong_width_with_exit_2(capsys, tmp_path, interval_file):
    cert_path = tmp_path / "cert.json"
    assert run_cli(capsys, "run", "--instance", interval_file, "--k", "2", "--out", str(cert_path))[0] == 0
    cert = json.loads(cert_path.read_text())
    cert["s"][-1].append(0)
    cert_path.write_text(json.dumps(cert))
    code, out, err = run_cli(capsys, "verify", "--instance", interval_file, "--certificate", str(cert_path))
    assert code == 2
    assert out == ""
    assert json.loads(err.strip())["error"] == "CertificateFormatError"
