import contextlib
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qregress.cli import main

DATA = Path(__file__).resolve().parent.parent / "data"
MODEL = str(DATA / "atom_model.json")
RHO = str(DATA / "excited_rho.json")
QUERY = str(DATA / "dipole_query.json")

ZERO = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
EYE = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
NUMBER = [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]
TRIVIAL_MODEL = {"dim": 2, "H": ZERO, "L": ZERO}
NUMBER_QUERY = {"times": [0.5, 1.0], "b_ops": [NUMBER, NUMBER]}
# finite entries whose products overflow
HUGE = [[[1e300, 0], [0, 0]], [[0, 0], [1e300, 0]]]
HUGE_MODEL = {
    "dim": 2,
    "H": [[[1e200, 0], [0, 0]], [[0, 0], [0, 0]]],
    "L": [[[0, 0], [1e200, 0]], [[0, 0], [0, 0]]],
}
DIPOLE_DATA = json.loads(Path(QUERY).read_text())
HUGE_DIPOLE = {
    **DIPOLE_DATA,
    "a_ops": [HUGE, DIPOLE_DATA["a_ops"][1]],
    "b_ops": [HUGE, DIPOLE_DATA["b_ops"][1]],
}


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, data) -> str:
    path.write_text(json.dumps(data))
    return str(path)


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
        model = write_json(tmp_path / "trivial.json", TRIVIAL_MODEL)
        out = tmp_path / "evolve.csv"
        code, _, _ = run(
            ["evolve", "--model", model, "--rho", RHO, "--t-end", "2.0",
             "--steps", "4", "--out", str(out)],
            capsys,
        )
        assert code == 0
        rows = [line.split(",")[1:] for line in out.read_text().strip().split("\n")[1:]]
        assert all(row == rows[0] for row in rows)

    @pytest.mark.filterwarnings("error")
    def test_infinite_t_end_is_one_usage_line(self, capsys):
        code, _, err = run(
            ["evolve", "--model", MODEL, "--rho", RHO, "--t-end", "inf", "--steps", "4"],
            capsys,
        )
        assert code == 1
        assert err.startswith("usage error:") and err.count("\n") == 1

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

    def test_budget_flag(self, capsys):
        argv = ["correlate", "--model", MODEL, "--rho", RHO, "--query", QUERY,
                "--mode", "oracle-joint", "--dt", str(1 / 16)]
        code, _, err = run(argv + ["--budget", "10"], capsys)
        assert code == 1
        assert "budget" in err
        code, _, _ = run(argv + ["--budget", "200000"], capsys)
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

    def test_exact_fine_run_gives_null_ratio(self, capsys, tmp_path):
        model = write_json(tmp_path / "trivial.json", TRIVIAL_MODEL)
        query = write_json(
            tmp_path / "identity.json", {"times": [0.5], "a_ops": [EYE], "b_ops": [EYE]}
        )
        code, out, _ = run(
            ["oracle", "--model", model, "--rho", RHO, "--query", query], capsys
        )
        assert code == 0
        result = json.loads(out)
        assert result["runs"][1]["abs_error"] == 0.0
        assert result["halving_ratio"] is None


class TestIto:
    def test_moments(self, capsys):
        code, out, _ = run(["ito", "--dt", "0.01", "--trunc", "2"], capsys)
        assert code == 0
        result = json.loads(out)
        assert abs(result["moments"]["bb_dag"][0] - 0.01) <= 1e-15
        assert result["max_moment_error"] <= 1e-15


class TestClassicalCommand:
    def test_number_query(self, capsys, tmp_path):
        query = write_json(tmp_path / "diag_query.json", NUMBER_QUERY)
        code, out, _ = run(
            ["classical", "--model", MODEL, "--rho", RHO, "--query", query],
            capsys,
        )
        assert code == 0
        result = json.loads(out)
        assert abs(result["quantum"][0] - np.exp(-1.0)) <= 1e-10
        assert result["diff"] <= 1e-10

    def test_long_duration(self, capsys, tmp_path):
        # both the quantum and the classical exponent exceed mat_exp's norm limit
        query = tmp_path / "long_query.json"
        ground = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
        query.write_text(json.dumps({"times": [0.5, 40.0], "b_ops": [ground, ground]}))
        code, out, _ = run(
            ["classical", "--model", MODEL, "--rho", RHO, "--query", str(query)],
            capsys,
        )
        assert code == 0
        result = json.loads(out)
        assert abs(result["quantum"][0] - (1 - np.exp(-0.5))) <= 1e-10
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
            ("query", {"b_ops": 5}),
            ("query", {"a_ops": 5}),
        ],
        ids=["dim-word", "matrix-entry-word", "times-word", "times-scalar", "times-string",
             "b-ops-scalar", "a-ops-scalar"],
    )
    def test_malformed_value_is_one_validation_line(self, capsys, tmp_path, kind, edit):
        paths = {"model": MODEL, "query": QUERY}
        data = json.loads(Path(paths[kind]).read_text())
        data.update(edit)
        paths[kind] = write_json(tmp_path / f"bad_{kind}.json", data)
        code, _, err = run(
            ["correlate", "--model", paths["model"], "--rho", RHO, "--query", paths["query"],
             "--mode", "oracle-joint", "--dt", str(1 / 16)],
            capsys,
        )
        assert code == 1
        assert err.startswith("validation error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv,model,query",
        [
            (["correlate", "--mode", "qrt-schrodinger"], None, HUGE_DIPOLE),
            (["correlate", "--mode", "qrt-heisenberg"], None, HUGE_DIPOLE),
            (["correlate", "--mode", "oracle-seq", "--dt", "0.0625"], None, HUGE_DIPOLE),
            (["classical"], None, {"times": [0.5, 1.0], "b_ops": [HUGE, HUGE]}),
            (["correlate"], HUGE_MODEL, None),
            (["classical"], HUGE_MODEL, NUMBER_QUERY),
            (["evolve", "--t-end", "1.0", "--steps", "2"], HUGE_MODEL, None),
        ],
        ids=["qrt-schrodinger-huge-ops", "qrt-heisenberg-huge-ops", "oracle-seq-huge-ops",
             "classical-huge-ops", "correlate-huge-model", "classical-huge-model",
             "evolve-huge-model"],
    )
    def test_overflow_is_one_numerical_line(self, capsys, tmp_path, argv, model, query):
        files = ["--model", write_json(tmp_path / "model.json", model) if model else MODEL,
                 "--rho", RHO]
        if argv[0] != "evolve":
            files += ["--query", write_json(tmp_path / "query.json", query) if query else QUERY]
        code, out, err = run(argv[:1] + files + argv[1:], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("numerical property violation:") and err.count("\n") == 1


def run_strict(argv):
    """Run main with warnings as errors; a warning would print a second stderr line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _reject_constant(name):
    raise ValueError(f"output holds the non-JSON constant {name}")


def assert_exit_contract(code, out, err):
    assert code in (0, 1, 2, 3)
    assert err.count("\n") <= 1
    if code == 0:
        json.loads(out, parse_constant=_reject_constant)


def fuzzed_file(tmp_path_factory, base, edit) -> str:
    data = json.loads(Path(base).read_text())
    data.update(edit)
    return write_json(tmp_path_factory.getbasetemp() / f"fuzzed_{Path(base).name}", data)


def command_argv(tmp_path_factory, command):
    """correlate on the dipole query; classical on a diagonal query it accepts."""
    if command == "correlate":
        return ["correlate", "--query", QUERY]
    query = write_json(tmp_path_factory.getbasetemp() / "number_query.json", NUMBER_QUERY)
    return ["classical", "--query", query]


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
MATRICES = st.lists(
    st.lists(st.lists(FINITE, min_size=2, max_size=2), min_size=2, max_size=2),
    min_size=2, max_size=2,
)
COMMANDS = st.sampled_from(["correlate", "classical"])


@given(edit=st.fixed_dictionaries(
    {}, optional={key: JSON_VALUES for key in ("times", "a_ops", "b_ops")}
))
@settings(max_examples=60, deadline=1000)
def test_fuzzed_query_file_keeps_exit_contract(tmp_path_factory, edit):
    query = fuzzed_file(tmp_path_factory, QUERY, edit)
    assert_exit_contract(
        *run_strict(["correlate", "--model", MODEL, "--rho", RHO, "--query", query])
    )


@given(
    command=COMMANDS,
    edit=st.fixed_dictionaries(
        {}, optional={"dim": JSON_VALUES, "H": JSON_VALUES | MATRICES, "L": JSON_VALUES | MATRICES}
    ),
)
@settings(max_examples=40, deadline=1000)
def test_fuzzed_model_file_keeps_exit_contract(tmp_path_factory, command, edit):
    model = fuzzed_file(tmp_path_factory, MODEL, edit)
    argv = command_argv(tmp_path_factory, command) + ["--model", model, "--rho", RHO]
    assert_exit_contract(*run_strict(argv))


@given(
    command=COMMANDS,
    edit=st.fixed_dictionaries({}, optional={"dim": JSON_VALUES, "rho": JSON_VALUES | MATRICES}),
)
@settings(max_examples=40, deadline=1000)
def test_fuzzed_state_file_keeps_exit_contract(tmp_path_factory, command, edit):
    rho = fuzzed_file(tmp_path_factory, RHO, edit)
    argv = command_argv(tmp_path_factory, command) + ["--model", MODEL, "--rho", rho]
    assert_exit_contract(*run_strict(argv))


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "qregress.cli", "ito", "--dt", "0.5", "--trunc", "3"],
        capture_output=True,
        text=True,
        env={**os.environ},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["moments"]["bb_dag"][0] == pytest.approx(0.5, abs=1e-15)
