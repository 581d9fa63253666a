"""The runtime needs numpy alone: scipy is a test-only dependency.

Each command runs in a fresh interpreter once with scipy importable and once
with ``sys.modules["scipy"] = None`` set before qregress is imported, so that
any scipy import raises ImportError.  Both runs must exit 0 with the same
bytes on stdout.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"
FILES = ["--model", str(DATA / "atom_model.json"), "--rho", str(DATA / "excited_rho.json")]
QUERY = ["--query", str(DATA / "dipole_query.json")]
NUMBER = [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]

# runs each (name, argv) through cli.main in one interpreter; prints one JSON
# object with every exit code and stdout, and the scipy modules loaded
RUNNER = r"""
import contextlib, io, json, sys
if sys.argv[1] == "blocked":
    sys.modules["scipy"] = None
from qregress import cli

def scipy_modules():
    return sorted(k for k, m in sys.modules.items() if k.startswith("scipy") and m is not None)

report = {"after_import": scipy_modules(), "results": {}}
for name, argv in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    report["results"][name] = [code, out.getvalue()]
report["after_commands"] = scipy_modules()
print(json.dumps(report))
"""


def commands(classical_query: str) -> list:
    return [
        ("verify", ["verify", "--seed", "0"]),
        ("evolve", ["evolve", *FILES, "--t-end", "3", "--steps", "2000"]),
        ("correlate-qrt-schrodinger", ["correlate", *FILES, *QUERY, "--mode", "qrt-schrodinger"]),
        ("correlate-qrt-heisenberg", ["correlate", *FILES, *QUERY, "--mode", "qrt-heisenberg"]),
        ("correlate-oracle-seq",
         ["correlate", *FILES, *QUERY, "--mode", "oracle-seq", "--dt", "0.00390625"]),
        ("correlate-oracle-joint",
         ["correlate", *FILES, *QUERY, "--mode", "oracle-joint", "--dt", "0.0625"]),
        ("oracle-seq", ["oracle", *FILES, *QUERY, "--dt", "0.0078125"]),
        ("oracle-joint", ["oracle", *FILES, *QUERY, "--mode", "oracle-joint", "--dt", "0.125"]),
        ("ito", ["ito", "--dt", "0.01", "--trunc", "2"]),
        ("classical", ["classical", *FILES, "--query", classical_query]),
    ]


def run_fresh(mode: str, cmds: list) -> dict:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-c", RUNNER, mode, json.dumps(cmds)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    query = tmp_path_factory.mktemp("classical") / "number_query.json"
    query.write_text(json.dumps({"times": [0.5, 1.0], "b_ops": [NUMBER, NUMBER]}))
    cmds = commands(str(query))
    return {mode: run_fresh(mode, cmds) for mode in ("blocked", "unblocked")}


def test_importing_the_cli_loads_no_scipy(reports):
    assert reports["unblocked"]["after_import"] == []
    assert reports["unblocked"]["after_commands"] == []


@pytest.mark.parametrize("name", [name for name, _ in commands("")])
def test_command_runs_without_scipy(reports, name):
    code, out = reports["blocked"]["results"][name]
    assert code == 0
    assert out
    assert out == reports["unblocked"]["results"][name][1]


def test_no_runtime_module_imports_scipy():
    src = ROOT / "src" / "qregress"
    assert [p.name for p in sorted(src.glob("*.py")) if "scipy" in p.read_text()] == []
