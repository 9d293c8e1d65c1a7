"""The README's `stats`, `run`/`verify` and `sweep` examples, run through the command line."""

import json
import re
import shlex
from pathlib import Path

from symgrowth.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"

# (info string, body) of every fenced block, in order
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README.read_text(), re.M | re.S)


def run_cli(capsys, tmp_path, command, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code = main([command, "--instance", str(path)])
    assert code == 0
    return capsys.readouterr().out


def test_readme_stats_example(capsys, tmp_path):
    at = next(i for i, (_, body) in enumerate(BLOCKS) if body.startswith("symgrowth stats "))
    instance = json.loads(BLOCKS[at - 1][1])
    documented = json.loads(BLOCKS[at + 1][1].replace("{ ... }", json.dumps(instance)))
    assert json.loads(run_cli(capsys, tmp_path, "stats", instance)) == documented


def test_readme_run_verify_example(capsys, tmp_path, monkeypatch):
    at = next(i for i, (_, body) in enumerate(BLOCKS) if body.startswith("symgrowth run "))
    stats_at = next(i for i, (_, body) in enumerate(BLOCKS) if body.startswith("symgrowth stats "))
    (tmp_path / "interval.json").write_text(BLOCKS[stats_at - 1][1])
    monkeypatch.chdir(tmp_path)
    for line in BLOCKS[at][1].splitlines():
        program, *argv = shlex.split(line)
        assert program == "symgrowth"
        assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["overall"] is True


def test_readme_sweep_example(capsys, tmp_path):
    at = next(i for i, (lang, body) in enumerate(BLOCKS) if lang == "json" and '"grid"' in body)
    spec = json.loads(BLOCKS[at][1])
    assert run_cli(capsys, tmp_path, "sweep", spec).splitlines() == BLOCKS[at + 1][1].splitlines()
