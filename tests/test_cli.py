"""End-to-end CLI behaviour: payloads, files, exit codes, error lines."""

import csv
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import symgrowth
from symgrowth.cli import main
from symgrowth.groups import SymmetricGroup, group_from_spec

INTERVAL_SPEC = {
    "group": {"type": "cyclic", "n": 20},
    "set": {"type": "interval", "start": 0, "length": 5},
}
S6_RANDOM_SPEC = {
    "group": {"type": "symmetric", "n": 6},
    "set": {"type": "random", "size": 10, "seed": 0},
}
SUBCOMMANDS = ["stats", "sym", "lemma", "run", "invariant", "sweep", "verify"]
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


def _child_pythonpath():
    """PYTHONPATH for a child that imports symgrowth from where this process found it."""
    source_root = str(Path(symgrowth.__file__).resolve().parents[1])
    return os.pathsep.join(filter(None, [source_root, os.environ.get("PYTHONPATH")]))


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
    # stdout still carries only the certificate, whose trace rows are the logged ones
    cert = json.loads(out)
    assert cert["verified"] is True
    assert records == cert["trace"]["steps"]


def test_trace_prints_nothing_outside_run(capsys, interval_file):
    # every subcommand accepts --trace, and its help says that only run prints with it
    code, out, err = run_cli(capsys, "stats", "--instance", interval_file, "--trace")
    assert (code, err) == (0, "")
    code, out, err = run_cli(capsys, "stats", "--help")
    assert "only run prints with it" in " ".join(out.split())


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


def test_sweep_key_columns_hold_the_grid_values(capsys, tmp_path):
    # "set.length" applied after "set" must not rewrite the "set" column
    interval = {"type": "interval", "start": 0, "length": 2}
    sweep_spec = {
        "base": {"group": {"type": "cyclic", "n": 40}, "set": interval},
        "grid": {"set": [interval], "set.length": [3, 4]},
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(sweep_spec))
    code, out, _ = run_cli(capsys, "sweep", "--instance", str(path))
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][:3] == ["set", "set.length", "size"]
    assert [row[:3] for row in rows[1:]] == [[json.dumps(interval), "3", "3"],
                                             [json.dumps(interval), "4", "4"]]


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


def test_a_float_on_its_way_out_exits_2(capsys, tmp_path):
    # an instance spec is echoed into the output, and a float has no canonical
    # form; the unknown field that carries it here is refused before that
    path = tmp_path / "float.json"
    path.write_text(json.dumps({**INTERVAL_SPEC, "note": 0.5}))
    code, out, err = run_cli(capsys, "stats", "--instance", str(path))
    assert (code, out) == (2, "")
    assert json.loads(err.strip())["error"] == "ParameterError"


UNKNOWN_FIELDS = {
    "top": ({**INTERVAL_SPEC, "note": 1}, "ParameterError"),
    "group": ({**INTERVAL_SPEC, "group": {**INTERVAL_SPEC["group"], "zz": 1}}, "InvalidGroupError"),
    "set": ({**INTERVAL_SPEC, "set": {**INTERVAL_SPEC["set"], "zz": 1}}, "ParameterError"),
    "sweep": ({"base": INTERVAL_SPEC, "grid": {"set.length": [5]}, "note": 1}, "ParameterError"),
}


@pytest.mark.parametrize("spec, error", [
    ({**INTERVAL_SPEC, "group": {"type": ["cyclic"], "n": 20}}, "InvalidGroupError"),
    ({**INTERVAL_SPEC, "set": {"type": {"zz": 1}, "length": 5}}, "ParameterError"),
], ids=["group", "set"])
def test_a_type_that_is_not_a_string_exits_2(capsys, tmp_path, spec, error):
    path = tmp_path / "type.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "stats", "--instance", str(path))
    assert (code, out) == (2, "")
    assert json.loads(err.strip())["error"] == error


@pytest.mark.parametrize("where, command", [
    *((where, command) for where in ("top", "group", "set") for command in ("stats", "run", "verify")),
    ("sweep", "sweep"),
])
def test_unknown_spec_fields_exit_2_with_one_json_line(capsys, tmp_path, interval_file, command, where):
    spec, error = UNKNOWN_FIELDS[where]
    path = tmp_path / "unknown.json"
    path.write_text(json.dumps(spec))
    argv = [command, "--instance", str(path)]
    if command == "run":
        argv += ["--k", "2"]
    if command == "verify":
        cert_path = tmp_path / "cert.json"
        assert run_cli(capsys, "run", "--instance", interval_file, "--k", "2", "--out", str(cert_path))[0] == 0
        argv += ["--certificate", str(cert_path)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    [line] = err.splitlines()
    assert json.loads(line)["error"] == error
    assert "zz" in line or "note" in line


def test_a_certificate_group_with_an_unknown_field_is_a_format_error(capsys, tmp_path, interval_file):
    cert_path = tmp_path / "cert.json"
    assert run_cli(capsys, "run", "--instance", interval_file, "--k", "2", "--out", str(cert_path))[0] == 0
    cert = json.loads(cert_path.read_text())
    cert["instance"]["group"]["zz"] = 1
    cert_path.write_text(json.dumps(cert))
    code, out, err = run_cli(capsys, "verify", "--instance", interval_file, "--certificate", str(cert_path))
    assert (code, out) == (2, "")
    assert json.loads(err.strip())["error"] == "CertificateFormatError"


@pytest.mark.parametrize("table", [[["0"]], ["0"], [[0.0]], [0]],
                         ids=["string-entry", "string-row", "float-entry", "int-row"])
def test_table_spec_rows_must_be_lists_of_ints(capsys, tmp_path, table):
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"group": {"type": "table", "table": table},
                                "set": {"type": "explicit", "elements": [[0]]}}))
    code, out, err = run_cli(capsys, "stats", "--instance", str(path))
    assert code == 2
    assert out == ""
    assert json.loads(err.strip())["error"] == "InvalidGroupError"


def test_a_table_that_needs_more_generators_than_a_group_exits_2(capsys, tmp_path):
    # a two-sided identity, and each element its own two-sided inverse, yet the
    # greedy generating set outgrows the 5.bit_length() = 3 generators any group
    # of order 5 needs, so the table is refused before its associativity check
    table = [[0, 1, 2, 3, 4], [1, 0, 2, 3, 4], [2, 1, 0, 3, 4], [3, 1, 2, 0, 4], [4, 1, 2, 3, 0]]
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"group": {"type": "table", "table": table},
                                "set": {"type": "explicit", "elements": [[0]]}}))
    code, out, err = run_cli(capsys, "stats", "--instance", str(path))
    assert (code, out) == (2, "")
    [line] = err.splitlines()
    assert json.loads(line) == {"error": "InvalidGroupError",
                                "message": "table needs more than 3 generators, so it is not a group"}


SPEC_ERRORS = {
    "symmetric-limit-not-an-integer": ("stats", {**INTERVAL_SPEC, "group": {"type": "symmetric", "n": 3, "limit": "11"}},
                                       [], "ParameterError"),
    "cyclic-n-0": ("stats", {**INTERVAL_SPEC, "group": {"type": "cyclic", "n": 0}}, [], "InvalidGroupError"),
    "dihedral-n-0": ("stats", {**INTERVAL_SPEC, "group": {"type": "dihedral", "n": 0}}, [], "InvalidGroupError"),
    "symmetric-n-0": ("stats", {**INTERVAL_SPEC, "group": {"type": "symmetric", "n": 0}}, [], "InvalidGroupError"),
    "heisenberg-p-1": ("stats", {**INTERVAL_SPEC, "group": {"type": "heisenberg_mod", "p": 1}}, [], "InvalidGroupError"),
    "n-not-an-integer": ("stats", {**INTERVAL_SPEC, "group": {"type": "cyclic", "n": "20"}}, [], "ParameterError"),
    "no-factors": ("stats", {**INTERVAL_SPEC, "group": {"type": "direct_product", "factors": []}}, [], "InvalidGroupError"),
    "table-without-rows": ("stats", {**INTERVAL_SPEC, "group": {"type": "table"}}, [], "InvalidGroupError"),
    "interval-start-not-an-integer": ("stats", {**INTERVAL_SPEC, "set": {**INTERVAL_SPEC["set"], "start": "0"}},
                                      [], "ParameterError"),
    "sweep-base-not-an-object": ("sweep", {"base": [INTERVAL_SPEC], "grid": {"set.length": [5]}}, [], "ParameterError"),
    "budget-pairs-0": ("stats", INTERVAL_SPEC, ["--budget-pairs", "0"], "ParameterError"),
}


@pytest.mark.parametrize("where", list(SPEC_ERRORS))
def test_documented_spec_errors_exit_2_with_one_json_line(capsys, tmp_path, where):
    command, spec, extra, error = SPEC_ERRORS[where]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, command, "--instance", str(path), *extra)
    assert (code, out) == (2, "")
    [line] = err.splitlines()
    assert json.loads(line)["error"] == error


def test_a_symmetric_group_past_the_default_guard_runs_under_its_own_limit(capsys, tmp_path):
    group = {"type": "symmetric", "n": 11, "limit": 11}
    inst = tmp_path / "s11.json"
    inst.write_text(json.dumps({"group": group, "set": {"type": "random", "size": 6, "seed": 0}}))
    cert_path = tmp_path / "cert.json"
    assert run_cli(capsys, "run", "--instance", str(inst), "--k", "2", "--out", str(cert_path)) == (0, "", "")
    cert_group = json.loads(cert_path.read_text())["instance"]["group"]
    assert cert_group == group
    assert group_from_spec(cert_group).describe() == group
    code, out, err = run_cli(capsys, "verify", "--instance", str(inst), "--certificate", str(cert_path))
    assert (code, err) == (0, "")
    assert json.loads(out)["overall"] is True


@pytest.mark.parametrize("target", ["missing/x.json", "a-directory"])
def test_an_out_path_that_cannot_be_written_exits_2(capsys, tmp_path, interval_file, target):
    (tmp_path / "a-directory").mkdir()
    code, out, err = run_cli(capsys, "stats", "--instance", interval_file, "--out", str(tmp_path / target))
    assert (code, out) == (2, "")
    [line] = err.splitlines()
    error = json.loads(line)
    assert error["error"] == "ParameterError"
    assert target in error["message"]
    assert list(tmp_path.rglob(".tmp-*.part")) == []


def nested_product_text(depth):
    """An instance file: C2 inside ``depth`` nested one-factor direct products (no JSON writer limits the depth)."""
    group = '{"type": "direct_product", "factors": [' * depth + '{"type": "cyclic", "n": 2}' + "]}" * depth
    return '{"group": ' + group + ', "set": {"type": "explicit", "elements": [[1]]}}'


def run_nested(capsys, tmp_path, depth):
    """``run --out`` on C2 inside ``depth`` nested products: (instance path, certificate path, result)."""
    nested = tmp_path / f"nested-{depth}.json"
    nested.write_text(nested_product_text(depth))
    cert = tmp_path / f"cert-{depth}.json"
    return nested, cert, run_cli(capsys, "run", "--k", "1", "--instance", str(nested), "--out", str(cert))


def test_400_nested_products_run_and_verify(capsys, tmp_path):
    # the certificate writer takes one frame per level of nesting, as json's readers do
    nested, cert, (code, _, _) = run_nested(capsys, tmp_path, 400)
    assert code == 0
    code, out, err = run_cli(capsys, "verify", "--instance", str(nested), "--certificate", str(cert))
    assert (code, err) == (0, "")
    assert json.loads(out)["overall"] is True


def test_deepest_nested_product_run_accepts_also_verifies(capsys, tmp_path):
    # bisect for the deepest nesting run accepts: there the writer must not be
    # what gives out first, so verify passes; one level deeper is a clean exit 2
    def accepted(depth):
        code = run_nested(capsys, tmp_path, depth)[2][0]
        assert code in (0, 2)
        return code == 0

    low, high = 300, 1000
    assert accepted(low) and not accepted(high)
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (mid, high) if accepted(mid) else (low, mid)
    nested, cert, (code, _, err) = run_nested(capsys, tmp_path, low)
    assert (code, err) == (0, "")
    code, out, err = run_cli(capsys, "verify", "--instance", str(nested), "--certificate", str(cert))
    assert (code, err) == (0, "")
    assert json.loads(out)["overall"] is True
    _, deeper, (code, out, err) = run_nested(capsys, tmp_path, low + 1)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err
    assert json.loads(err)["error"] == "RecursionError"
    assert not deeper.exists()


@pytest.mark.parametrize("command", ["stats", "verify", "run"])
def test_deep_nesting_exits_2_with_one_json_line(capsys, tmp_path, interval_file, command):
    # 100,000 nested arrays overflow the JSON reader; 1,000 nested one-factor
    # products are too deep to read or to build as a group
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    nested = tmp_path / "nested.json"
    nested.write_text(nested_product_text(1000))
    argv = {
        "stats": ["stats", "--instance", str(deep)],
        "verify": ["verify", "--instance", interval_file, "--certificate", str(deep)],
        "run": ["run", "--k", "1", "--instance", str(nested)],
    }[command]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "RecursionError"


DIGITS = "1" * 5000  # past the interpreter's default integer digit limit of 4300


@pytest.mark.parametrize("where", ["instance", "eta", "certificate", "k-plus-one", "epsilon", "not-utf8"])
def test_undecodable_input_exits_2_with_one_json_line(capsys, tmp_path, interval_file, where):
    # integers past the digit limit, a k whose k + 1 is, and a file that is not UTF-8 text
    cert_path = tmp_path / "cert.json"
    assert run_cli(capsys, "run", "--instance", interval_file, "--k", "2", "--out", str(cert_path))[0] == 0
    cert = json.loads(cert_path.read_text())
    bad = tmp_path / "bad.json"
    if where == "instance":
        bad.write_text(json.dumps(INTERVAL_SPEC).replace('"n": 20', f'"n": {DIGITS}'))
        argv = ["stats", "--instance", str(bad)]
    elif where == "eta":
        argv = ["sym", "--instance", interval_file, "--eta", f"1/{DIGITS}"]
    elif where == "certificate":
        bad.write_text(json.dumps(cert).replace('"k": 2', f'"k": {DIGITS}'))
        argv = ["verify", "--instance", interval_file, "--certificate", str(bad)]
    elif where == "k-plus-one":
        bad.write_text(json.dumps(cert).replace('"k": 2', f'"k": {"9" * 4300}'))
        argv = ["verify", "--instance", interval_file, "--certificate", str(bad)]
    elif where == "not-utf8":
        bad.write_bytes(b'{"group": "\xff"}')
        argv = ["stats", "--instance", str(bad)]
    else:
        cert["epsilon"] = f"1/{DIGITS}"
        bad.write_text(json.dumps(cert))
        argv = ["verify", "--instance", interval_file, "--certificate", str(bad)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    # a certificate the verifier cannot read is malformed; other input is a bad parameter
    malformed = where in ("certificate", "k-plus-one", "epsilon")
    assert json.loads(err)["error"] == ("CertificateFormatError" if malformed else "ParameterError")


def test_run_and_verify_finish_at_k_10_to_the_30(tmp_path, interval_file):
    # the termination cap is about k·log K0; its bracket must stay decisive near the crossing
    cert_path = tmp_path / "cert.json"
    for argv in (["run", "--instance", interval_file, "--k", str(10**30), "--out", str(cert_path)],
                 ["verify", "--instance", interval_file, "--certificate", str(cert_path)]):
        proc = subprocess.run(
            [sys.executable, "-m", "symgrowth.cli", *argv],
            capture_output=True,
            text=True,
            timeout=30,
            env={**os.environ, "PYTHONPATH": _child_pythonpath()},
        )
        assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["overall"] is True
    assert json.loads(cert_path.read_text())["trace"]["termination_cap"] == 587786664902119008189731140620


def test_verify_refuses_a_1000_digit_forged_epsilon_in_bounded_time(capsys, tmp_path, interval_file):
    # the termination cap for this epsilon is about 10^1000·log K0
    cert_path = tmp_path / "cert.json"
    assert run_cli(capsys, "run", "--instance", interval_file, "--k", "2", "--out", str(cert_path))[0] == 0
    cert = json.loads(cert_path.read_text())
    cert["epsilon"] = f"1/{10**1000 + 1}"
    cert_path.write_text(json.dumps(cert))
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "verify", "--instance", interval_file, "--certificate", str(cert_path))
    assert time.perf_counter() - start < 2
    assert code == 1
    failed = {c["name"] for c in json.loads(out)["checks"] if not c["pass"]}
    assert {"epsilon_matches_k", "termination_cap"} <= failed


def test_a_random_30_in_cyclic_10_to_the_12_runs_on_the_loop(capsys, tmp_path):
    # the cost rule sends these sets to the loop, so no 10^12-bit mask may be built on the way
    spec = tmp_path / "big.json"
    spec.write_text(json.dumps({"group": {"type": "cyclic", "n": 10**12},
                                "set": {"type": "random", "size": 30, "seed": 1}}))
    cert = tmp_path / "cert.json"
    for argv in (["stats", "--instance", str(spec)],
                 ["run", "--instance", str(spec), "--k", "2", "--out", str(cert)],
                 ["verify", "--instance", str(spec), "--certificate", str(cert)]):
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, err


@pytest.mark.parametrize("group", [
    {"type": "cyclic", "n": 10**320},
    {"type": "dihedral", "n": 10**320},
    {"type": "heisenberg_mod", "p": 10**111 + 7},
    {"type": "heisenberg_mod", "p": 10**30 + 57},
], ids=["c10^320", "d10^320", "h10^111+7", "h10^30+57"])
def test_a_random_3_in_a_group_past_the_float_range_runs_on_the_loop(capsys, tmp_path, group):
    # the first three orders are past the largest float, so the cost rule prices the
    # masks at infinity without making the order a float; the Heisenberg masks read
    # p from the group's radices, however many digits it has
    spec = tmp_path / "huge.json"
    spec.write_text(json.dumps({"group": group, "set": {"type": "random", "size": 3, "seed": 0}}))
    cert = tmp_path / "cert.json"
    for argv in (["stats", "--instance", str(spec)],
                 ["run", "--instance", str(spec), "--k", "2", "--out", str(cert)],
                 ["verify", "--instance", str(spec), "--certificate", str(cert)]):
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, err


def test_a_perturbed_subgroup_of_s10_is_charged_its_walk_not_the_group(capsys, tmp_path):
    # 30 swaps on the closure of one transposition walk its 2 members each, 60 pairs;
    # a charge of |S10| per swap, 108,864,000 pairs, would pass the default budget
    spec = tmp_path / "s10.json"
    spec.write_text(json.dumps({"group": {"type": "symmetric", "n": 10},
                                "set": {"type": "perturbed_subgroup", "generators": [[1] + [0] * 9],
                                        "swaps": 30, "seed": 1}}))
    code, out, err = run_cli(capsys, "stats", "--instance", str(spec))
    assert (code, err) == (0, "")
    assert json.loads(out)["stats"]["size"] == 2


def test_budget_exhaustion_exit_code(capsys, interval_file):
    code, _, err = run_cli(capsys, "stats", "--instance", interval_file,
                           "--budget-pairs", "10")
    assert code == 3
    line = json.loads(err.strip())
    assert line["error"] == "PairBudgetError"
    assert "needs 25 pairs" in line["message"]


def test_a_mask_kernel_past_the_budget_is_never_built(capsys, tmp_path):
    # the masks of C10^12 hold ints of 10^12 bits; they cost fewer steps than
    # the loop's pairs, but more than the cap, so the loop takes the call and
    # is refused at its first charge of 2000^2 pairs
    spec = tmp_path / "c-1e12.json"
    spec.write_text(json.dumps({"group": {"type": "cyclic", "n": 10**12},
                                "set": {"type": "random", "size": 2000, "seed": 3}}))
    code, out, err = run_cli(capsys, "stats", "--instance", str(spec), "--budget-pairs", "1000000")
    assert (code, out) == (3, "")
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "PairBudgetError"


def test_budget_does_not_leak_between_invocations(capsys, interval_file):
    code, _, _ = run_cli(capsys, "stats", "--instance", interval_file,
                         "--budget-pairs", "10")
    assert code == 3
    code, _, _ = run_cli(capsys, "stats", "--instance", interval_file)
    assert code == 0


@pytest.mark.parametrize("spec, k, budget", [(S6_RANDOM_SPEC, "2", "400"), (INTERVAL_SPEC, "5", "25")],
                         ids=["s6-random", "c20-interval"])
def test_verify_fits_in_the_budget_run_used(capsys, tmp_path, spec, k, budget):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(spec))
    cert_path = tmp_path / "cert.json"
    assert run_cli(capsys, "run", "--instance", str(inst), "--k", k,
                   "--out", str(cert_path), "--budget-pairs", budget)[0] == 0
    code, out, err = run_cli(capsys, "verify", "--instance", str(inst),
                             "--certificate", str(cert_path), "--budget-pairs", budget)
    assert (code, err) == (0, "")
    assert json.loads(out)["overall"] is True


@pytest.mark.parametrize("entry", [[True], ["3"], [2.7]], ids=["bool", "string", "float"])
@pytest.mark.parametrize("set_spec", [
    lambda e: {"type": "explicit", "elements": [e, [0]]},
    lambda e: {"type": "subgroup", "generators": [e]},
    lambda e: {"type": "coset_union", "generators": [[4]], "reps": [[0], e]},
], ids=["elements", "generators", "reps"])
def test_instance_element_entries_must_be_ints(capsys, tmp_path, entry, set_spec):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"group": {"type": "cyclic", "n": 20}, "set": set_spec(entry)}))
    code, out, err = run_cli(capsys, "run", "--instance", str(path), "--k", "2")
    assert (code, out) == (2, "")
    assert json.loads(err.strip())["error"] == "InvalidElementError"


def test_usage_errors_exit_2(capsys, interval_file):
    assert run_cli(capsys, "nonsense")[0] == 2
    assert run_cli(capsys)[0] == 2
    assert run_cli(capsys, "sym", "--instance", interval_file)[0] == 2  # --eta missing
    assert run_cli(capsys, "run", "--instance", interval_file, "--k", "zero")[0] == 2


def test_reused_parser_does_not_carry_trace_over(capsys, interval_file):
    assert run_cli(capsys, "run", "--instance", interval_file, "--k", "2", "--trace")[2]
    code, out, err = run_cli(capsys, "run", "--instance", interval_file, "--k", "2")
    assert (code, err) == (0, "")
    assert json.loads(out)["verified"] is True


def test_reused_parser_does_not_carry_eta_over(capsys, interval_file):
    assert run_cli(capsys, "sym", "--instance", interval_file, "--eta", "1/2")[0] == 0
    code, out, err = run_cli(capsys, "sym", "--instance", interval_file)
    assert (code, out) == (2, "")
    assert json.loads(err.strip())["error"] == "usage"


@pytest.mark.parametrize("argv", [[], *([c] for c in SUBCOMMANDS)], ids=["top", *SUBCOMMANDS])
def test_help_exits_0(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--help")
    assert (code, err) == (0, "")
    assert out.startswith(" ".join(["usage: symgrowth", *argv]))


def test_parser_is_built_on_first_main_call_and_reused(tmp_path):
    script = (
        "import symgrowth.cli as cli\n"
        "assert cli._parser.cache_info().currsize == 0\n"
        "assert cli.main(['stats', '--help']) == 0\n"
        "assert cli.main(['run', '--help']) == 0\n"
        "assert cli._parser.cache_info().misses == 1\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": _child_pythonpath()})
    assert proc.returncode == 0, proc.stderr


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
        env={**os.environ, "PYTHONPATH": _child_pythonpath()},
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


def test_verify_refuses_a_bad_ledger_name_even_where_the_replay_stops_early(capsys, tmp_path, interval_file):
    # the forged shrink step has no witness, so the replay stops at it and the
    # report fails (exit 1); a ledger name the claimed trace cannot have is a
    # structural defect, refused before the replay (exit 2)
    cert_path = tmp_path / "cert.json"
    assert run_cli(capsys, "run", "--instance", interval_file, "--k", "1", "--out", str(cert_path))[0] == 0
    cert = json.loads(cert_path.read_text())
    end = cert["trace"]["steps"][0]
    assert end["action"] == "terminate"
    cert["trace"]["steps"] = [dict(end, action="shrink", t=[0]), dict(end, index=1)]
    for entry in cert["ledger"]:
        entry["name"] = entry["name"].replace("step0.sym", "step1.sym").replace("step0.level_set_in", "step1.level_set_in")
    cert_path.write_text(json.dumps(cert))
    code, out, _ = run_cli(capsys, "verify", "--instance", interval_file, "--certificate", str(cert_path))
    assert code == 1
    assert json.loads(out)["overall"] is False
    next(e for e in cert["ledger"] if e["name"] == "step0.level_set_lower")["name"] = "stepX.level_set_lower"
    cert_path.write_text(json.dumps(cert))
    code, out, err = run_cli(capsys, "verify", "--instance", interval_file, "--certificate", str(cert_path))
    assert code == 2
    assert out == ""
    assert json.loads(err.strip()) == {"error": "CertificateFormatError",
                                       "message": "unknown ledger entry 'stepX.level_set_lower'"}


def s3_table_spec():
    g = SymmetricGroup(3)
    elems = [g.element_at(i) for i in range(g.order)]
    return {"type": "table", "table": [[elems.index(g.multiply(x, y)) for y in elems] for x in elems], "identity": 0}


def _set_cell(i, j, value):
    def mutate(spec):
        spec["table"][i][j] = value(spec["table"][i][j])
    return mutate


def _swap_cells(spec):
    row = spec["table"][1]
    row[2], row[3] = row[3], row[2]


@pytest.mark.parametrize("mutate", [
    _set_cell(1, 0, bool),
    _set_cell(2, 3, float),
    _set_cell(1, 1, lambda v: 6),
    lambda spec: spec["table"][3].pop(),
    _set_cell(1, 2, lambda v: v + 1 if v < 5 else 0),
    _swap_cells,
    lambda spec: spec.update(identity=1),
    lambda spec: spec.update(identity=True),
], ids=["bool", "float", "out-of-range", "short-row", "duplicate", "swap", "wrong-identity", "bool-identity"])
def test_verify_refuses_a_certificate_whose_table_is_not_a_group(capsys, tmp_path, mutate):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"group": s3_table_spec(), "set": {"type": "explicit", "elements": [[0], [1], [2]]}}))
    cert_path = tmp_path / "cert.json"
    assert run_cli(capsys, "run", "--instance", str(inst), "--k", "2", "--out", str(cert_path))[0] == 0
    cert = json.loads(cert_path.read_text())
    mutate(cert["instance"]["group"])
    cert_path.write_text(json.dumps(cert))
    code, out, err = run_cli(capsys, "verify", "--instance", str(inst), "--certificate", str(cert_path))
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "CertificateFormatError"
