"""The README's `stats`, `run`/`verify` and `sweep` examples, run through the command line,
and its Library section's module list and call contracts, checked against the package."""

import importlib
import inspect
import json
import re
import shlex
from pathlib import Path

import symgrowth
from symgrowth.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text()

# (info string, body) of every fenced block, in order
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", TEXT, re.M | re.S)

LIBRARY = TEXT[TEXT.index("\n## Library\n") : TEXT.index("\n## Acceptance suite\n")]
# (module, the text of its row) of each module-list row: "* `symgrowth.<module>`, role: `Name`, ...",
# wrapped on indented lines
ROW_TEXTS = re.findall(r"^\* `symgrowth\.(\w+)`(.*(?:\n  .*)*)", LIBRARY, re.M)
# module -> the names its row lists
ROWS = {module: re.findall(r"`(\w+)`", text) for module, text in ROW_TEXTS}
# (module, name) of each call in the contract block: a line "<module>.<name>(<args>) -> <result>"
CALLS = re.findall(r"^(\w+)\.(\w+)\(.*\) -> ", LIBRARY, re.M)


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


def test_readme_module_list_names_every_module_once():
    package = {path.stem for path in Path(symgrowth.__file__).parent.glob("*.py")} - {"__init__"}
    assert len(ROW_TEXTS) == len(ROWS), "a module has two rows"
    assert not set(ROWS) - package, f"rows name modules the package lacks: {sorted(set(ROWS) - package)}"
    assert not package - set(ROWS), f"modules without a row: {sorted(package - set(ROWS))}"


def test_readme_module_list_names_only_public_attributes():
    for module, names in ROWS.items():
        mod = importlib.import_module(f"symgrowth.{module}")
        missing = [n for n in names if n.startswith("_") or not hasattr(mod, n)]
        assert not missing, f"symgrowth.{module} has no public {missing}"


def test_readme_contract_has_one_line_per_listed_function():
    listed = {
        (module, name)
        for module, names in ROWS.items()
        for name in names
        if inspect.isfunction(getattr(importlib.import_module(f"symgrowth.{module}"), name, None))
    }
    assert len(CALLS) == len(set(CALLS)), "a call has two contract lines"
    assert set(CALLS) == listed
