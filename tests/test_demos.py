"""Smoke tests: every script in demos/ and the README's examples run on this checkout, and
every test and BENCH case the README cites exists."""

import ast
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"
# `tests/<file>.py::<function>`, a [param] suffix stripped; `BENCH_<n>.json#<case>`
TEST_REF = re.compile(r"`(tests/\w+\.py)::(\w+)(?:\[[^\]`]*\])?`")
BENCH_REF = re.compile(r"`(BENCH_\d+\.json)#([\w.-]+)`")
ROUTE_HEADER = "| route | computes | cost | error claim | test |"


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_zero(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr


def test_readme_library_tour_runs_as_written():
    # the README's one python block, the library tour, exactly as a reader copies it
    readme = README.read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_readme_command_examples_run_as_written(tmp_path, monkeypatch):
    # each `polymerqm ...` line of the README's sh blocks, in a directory holding the
    # state file that the evolve example reads
    from polymerqm import Lattice, PhysicalParams, gaussian_packet, save_wavefunction
    from polymerqm.cli import main

    readme = README.read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```$", readme, flags=re.MULTILINE | re.DOTALL)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("polymerqm ")]
    assert sorted(shlex.split(line)[1] for line in lines) == ["evolve", "kernel", "sweep",
                                                               "verify"]
    monkeypatch.chdir(tmp_path)
    save_wavefunction(gaussian_packet(Lattice(PhysicalParams(), -20, 20), 0.0, 3.0), "state.csv")
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line


def _test_functions(path: pathlib.Path) -> set[str]:
    """The names of the module-level functions of a test file."""
    return {node.name for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.FunctionDef)}


def test_readme_names_only_tests_and_bench_cases_that_exist():
    # every row of the route table names the test behind its claims; every test the README
    # names is a function of its file, and every BENCH citation a case or start-up record
    readme = README.read_text()
    table = readme[readme.index(ROUTE_HEADER):].splitlines()[2:]
    rows = table[:next(i for i, line in enumerate(table) if not line.startswith("|"))]
    assert rows
    for row in rows:
        cells = row.strip("|").split("|")
        assert len(cells) == 5 and TEST_REF.search(cells[4]), row

    tests = TEST_REF.findall(readme)
    for path, name in tests:
        assert (ROOT / path).is_file(), path
        assert name in _test_functions(ROOT / path), f"{path}::{name}"
    for path in set(re.findall(r"BENCH_\d+\.json", readme)):
        assert (ROOT / path).is_file(), path
    for path, case in BENCH_REF.findall(readme):
        bench = json.loads((ROOT / path).read_text())
        known = bench["cases"].keys() | {f"startup.{c}" for c in bench["startup"]["commands"]}
        assert case in known, f"{path}#{case}"
    assert tests and len(tests) == readme.count("`tests/")
