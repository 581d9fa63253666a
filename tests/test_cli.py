import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qregress.cli import main

DATA = Path(__file__).resolve().parent.parent / "data"
MODEL = str(DATA / "atom_model.json")
RHO = str(DATA / "excited_rho.json")
QUERY = str(DATA / "dipole_query.json")


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEvolve:
    def test_population_column(self, capsys, tmp_path):
        out = tmp_path / "evolve.csv"
        code, _, _ = run(
            ["evolve", "--model", MODEL, "--rho", RHO, "--t-end", "1.0",
             "--steps", "2", "--out", str(out)],
            capsys,
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        header = lines[0].split(",")
        assert header[0] == "t" and header[-1] == "trace"
        col = header.index("rho_1_1_re")
        values = [float(line.split(",")[col]) for line in lines[1:]]
        np.testing.assert_allclose(values, [1.0, np.exp(-0.5), np.exp(-1.0)], atol=1e-10)
        traces = [float(line.split(",")[-1]) for line in lines[1:]]
        np.testing.assert_allclose(traces, 1.0, atol=1e-10)

    def test_trivial_model_constant_rows(self, capsys, tmp_path):
        model = tmp_path / "trivial.json"
        model.write_text(json.dumps({
            "dim": 2,
            "H": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
            "L": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
        }))
        out = tmp_path / "evolve.csv"
        code, _, _ = run(
            ["evolve", "--model", str(model), "--rho", RHO, "--t-end", "2.0",
             "--steps", "4", "--out", str(out)],
            capsys,
        )
        assert code == 0
        rows = [line.split(",")[1:] for line in out.read_text().strip().split("\n")[1:]]
        assert all(row == rows[0] for row in rows)

    def test_zero_steps_usage_error(self, capsys):
        code, _, err = run(
            ["evolve", "--model", MODEL, "--rho", RHO, "--t-end", "1.0", "--steps", "0"],
            capsys,
        )
        assert code == 1
        assert "steps" in err


class TestCorrelate:
    def test_qrt_schrodinger(self, capsys):
        code, out, _ = run(
            ["correlate", "--model", MODEL, "--rho", RHO, "--query", QUERY],
            capsys,
        )
        assert code == 0
        result = json.loads(out)
        assert result["mode"] == "qrt-schrodinger"
        re, im = result["value"]
        assert abs(re - np.exp(-0.75)) <= 1e-10
        assert abs(im) <= 1e-12
        assert result["query"]["times"] == [0.5, 1.0]

    def test_qrt_heisenberg_matches(self, capsys):
        _, out_s, _ = run(
            ["correlate", "--model", MODEL, "--rho", RHO, "--query", QUERY], capsys
        )
        code, out_h, _ = run(
            ["correlate", "--model", MODEL, "--rho", RHO, "--query", QUERY,
             "--mode", "qrt-heisenberg"],
            capsys,
        )
        assert code == 0
        vs = json.loads(out_s)["value"]
        vh = json.loads(out_h)["value"]
        assert abs(complex(*vs) - complex(*vh)) <= 1e-10

    def test_oracle_seq(self, capsys):
        code, out, _ = run(
            ["correlate", "--model", MODEL, "--rho", RHO, "--query", QUERY,
             "--mode", "oracle-seq", "--dt", str(1 / 256)],
            capsys,
        )
        assert code == 0
        result = json.loads(out)
        assert abs(result["value"][0] - np.exp(-0.75)) <= 5e-3
        assert result["dt"] == 1 / 256

    def test_oracle_joint(self, capsys):
        code, out, _ = run(
            ["correlate", "--model", MODEL, "--rho", RHO, "--query", QUERY,
             "--mode", "oracle-joint", "--dt", str(1 / 16)],
            capsys,
        )
        assert code == 0
        assert abs(json.loads(out)["value"][0] - np.exp(-0.75)) <= 2e-2

    def test_determinism(self, capsys, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out1, out2):
            code, _, _ = run(
                ["correlate", "--model", MODEL, "--rho", RHO, "--query", QUERY,
                 "--out", str(out)],
                capsys,
            )
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_off_grid_oracle_time_rejected(self, capsys):
        code, _, err = run(
            ["correlate", "--model", MODEL, "--rho", RHO, "--query", QUERY,
             "--mode", "oracle-seq", "--dt", "0.3"],
            capsys,
        )
        assert code == 1
        assert "grid" in err or "multiple" in err

    def test_budget_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("QREGRESS_BUDGET", "10")
        code, _, err = run(
            ["correlate", "--model", MODEL, "--rho", RHO, "--query", QUERY,
             "--mode", "oracle-joint", "--dt", str(1 / 16)],
            capsys,
        )
        assert code == 1
        assert "budget" in err
        # explicit flag wins over the environment
        code, out, _ = run(
            ["correlate", "--model", MODEL, "--rho", RHO, "--query", QUERY,
             "--mode", "oracle-joint", "--dt", str(1 / 16), "--budget", "200000"],
            capsys,
        )
        assert code == 0


class TestOracleCommand:
    def test_halving_report(self, capsys):
        code, out, _ = run(
            ["oracle", "--model", MODEL, "--rho", RHO, "--query", QUERY,
             "--dt", str(1 / 128)],
            capsys,
        )
        assert code == 0
        result = json.loads(out)
        assert 1.7 <= result["halving_ratio"] <= 2.3
        assert result["runs"][0]["abs_error"] > result["runs"][1]["abs_error"]


class TestIto:
    def test_moments(self, capsys):
        code, out, _ = run(["ito", "--dt", "0.01", "--trunc", "2"], capsys)
        assert code == 0
        result = json.loads(out)
        assert abs(result["moments"]["bb_dag"][0] - 0.01) <= 1e-15
        assert result["max_moment_error"] <= 1e-15


class TestClassicalCommand:
    def test_number_query(self, capsys, tmp_path):
        query = tmp_path / "diag_query.json"
        num = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        query.write_text(json.dumps({"times": [0.5, 1.0], "b_ops": [num, num]}))
        code, out, _ = run(
            ["classical", "--model", MODEL, "--rho", RHO, "--query", str(query)],
            capsys,
        )
        assert code == 0
        result = json.loads(out)
        assert abs(result["quantum"][0] - np.exp(-1.0)) <= 1e-10
        assert result["diff"] <= 1e-10


class TestVerifyCommand:
    def test_default_suite_passes(self, capsys):
        code, out, _ = run(["verify", "--seed", "0"], capsys)
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    def test_seed_variation(self, capsys):
        code, _, _ = run(["verify", "--seed", "12345"], capsys)
        assert code == 0

    def test_corrupted_model(self, capsys, tmp_path):
        bad = tmp_path / "bad_model.json"
        bad.write_text(json.dumps({
            "dim": 2,
            "H": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]],
            "L": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
        }))
        code, _, err = run(["verify", "--model", str(bad)], capsys)
        assert code == 1
        assert "Hermitian" in err

    def test_failed_check_exits_2(self, capsys, monkeypatch):
        import qregress.cli as cli_mod
        from qregress.verify import CheckResult

        monkeypatch.setattr(
            cli_mod,
            "run_all",
            lambda seed, extra_models: [CheckResult("fake.check", 1.0, "<= 0.5", False)],
        )
        code, out, err = run(["verify"], capsys)
        assert code == 2
        assert "FAIL fake.check" in out
        assert "fake.check" in err


class TestErrorPaths:
    def test_missing_file_is_io_error(self, capsys):
        code, _, err = run(
            ["correlate", "--model", "/nonexistent.json", "--rho", RHO, "--query", QUERY],
            capsys,
        )
        assert code == 3

    def test_malformed_json_is_validation_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(
            ["correlate", "--model", str(bad), "--rho", RHO, "--query", QUERY],
            capsys,
        )
        assert code == 1
        assert "JSON" in err

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, _ = run(["correlate", "--bogus"], capsys)
        assert code == 1

    @pytest.mark.parametrize(
        "kind,edit",
        [
            ("model", {"dim": "two"}),
            ("model", {"H": [[["x", 0], [0, 0]], [[0, 0], [0, 0]]]}),
            ("query", {"times": ["a", 1.0]}),
            ("query", {"times": 5}),
            ("query", {"times": "01"}),
            ("env", {"QREGRESS_BUDGET": "abc"}),
        ],
        ids=["dim-word", "matrix-entry-word", "times-word", "times-scalar", "times-string",
             "budget-env-word"],
    )
    def test_malformed_value_is_one_validation_line(
        self, capsys, tmp_path, monkeypatch, kind, edit
    ):
        paths = {"model": MODEL, "query": QUERY}
        if kind == "env":
            for name, value in edit.items():
                monkeypatch.setenv(name, value)
        else:
            data = json.loads(Path(paths[kind]).read_text())
            data.update(edit)
            paths[kind] = str(tmp_path / f"bad_{kind}.json")
            Path(paths[kind]).write_text(json.dumps(data))
        code, _, err = run(
            ["correlate", "--model", paths["model"], "--rho", RHO, "--query", paths["query"],
             "--mode", "oracle-joint", "--dt", str(1 / 16)],
            capsys,
        )
        assert code == 1
        assert err.startswith("validation error:") and err.count("\n") == 1


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "qregress.cli", "ito", "--dt", "0.5", "--trunc", "3"],
        capture_output=True,
        text=True,
        env={**os.environ},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["moments"]["bb_dag"][0] == pytest.approx(0.5, abs=1e-15)
