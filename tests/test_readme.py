"""The README's `stats` and `sweep` examples, run through the command line."""

import json
import re
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


def test_readme_sweep_example(capsys, tmp_path):
    at = next(i for i, (lang, body) in enumerate(BLOCKS) if lang == "json" and '"grid"' in body)
    spec = json.loads(BLOCKS[at][1])
    assert run_cli(capsys, tmp_path, "sweep", spec).splitlines() == BLOCKS[at + 1][1].splitlines()
