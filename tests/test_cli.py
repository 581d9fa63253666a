import contextlib
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qregress import cli
from qregress.cli import NumericalViolation, build_parser, main
from qregress.io import csv_rows, format_float, load_density, load_model, load_query, matrix_to_pairs
from qregress.linalg import unvec, vec
from qregress.regression import kernel_schrodinger
from qregress.semigroup import generator_matrix, propagators
from qregress.verify import random_density, random_model

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
DIPOLE_EXACT = kernel_schrodinger(load_model(MODEL), load_density(RHO), load_query(QUERY))
HUGE_DIPOLE = {
    **DIPOLE_DATA,
    "a_ops": [HUGE, DIPOLE_DATA["a_ops"][1]],
    "b_ops": [HUGE, DIPOLE_DATA["b_ops"][1]],
}

# the (name, bound) pairs of `verify --seed 0`, in print order
VERIFY_CHECKS = [
    ("linalg.exp_commuting_product", "<= 1e-10"),
    ("linalg.exp_adjoint", "<= 1e-12"),
    ("linalg.partial_trace_preserves_trace", "<= 1e-12"),
    ("linalg.kron_associative", "<= 0"),
    ("model.generator_duality", "<= 1e-11"),
    ("model.trace_annihilation", "<= 1e-11"),
    ("model.hermiticity_preservation", "<= 1e-11"),
    ("model.unital_generator", "<= 1e-12"),
    ("semigroup.choi_min_eig", ">= -1e-09"),
    ("semigroup.trace_preservation", "<= 1e-10"),
    ("semigroup.law", "<= 1e-09"),
    ("semigroup.identity_preservation", "<= 1e-10"),
    ("semigroup.duality", "<= 1e-10"),
    ("semigroup.spectral_vs_squaring", "<= 1e-12"),
    ("semigroup.forward_difference_ratio", "in [1.7, 2.3]"),
    ("regression.form_equivalence", "<= 1e-10"),
    ("regression.hermitian_symmetry", "<= 1e-10"),
    ("regression.gram_min_eig", ">= -1e-09"),
    ("regression.coincident_times_collapse", "<= 1e-10"),
    ("regression.atom_population", "<= 1e-10"),
    ("regression.atom_dipole", "<= 1e-10"),
    ("regression.order_dependence", "> 0.1"),
    ("collision.step_unitarity", "<= 1e-10"),
    ("collision.channel_second_order_atom", "in [3.2, 4.8]"),
    ("collision.channel_second_order_random", "in [3.2, 4.8]"),
    ("collision.sequential_halving_ratio_n1", "in [1.7, 2.3]"),
    ("collision.sequential_halving_ratio_n2", "in [1.7, 2.3]"),
    ("collision.sequential_halving_ratio_n3", "in [1.7, 2.3]"),
    ("collision.joint_halving_ratio_n1", "in [1.7, 2.3]"),
    ("collision.joint_halving_ratio_n2", "in [1.7, 2.3]"),
    ("collision.joint_halving_ratio_n3", "in [1.7, 2.3]"),
    ("collision.joint_matches_sequential", "<= 1e-10"),
    ("collision.truncation_slot_gap_ratio", "in [3.2, 4.8]"),
    ("collision.truncation_kernel_gap", "<= 0.005"),
    ("collision.ito_moments", "<= 1e-15"),
    ("collision.ito_commutator", "<= 1e-15"),
    ("collision.conditional_module_property", "<= 1e-12"),
    ("collision.conditional_tower", "<= 1e-12"),
    ("collision.markov_collapse", "<= 1e-12"),
    ("classical.atom_generator", "<= 1e-12"),
    ("classical.chapman_kolmogorov", "<= 1e-10"),
    ("classical.stochasticity", "<= 1e-10"),
    ("classical.absorbing_two_point", "<= 1e-10"),
    ("classical.embedding_diff", "<= 1e-10"),
]


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


def loop_evolve_csv(step, rho, t_end, steps):
    """Reference: one unvec, trace and format call per row, row by row.

    Raises NumericalViolation with the message of the first drifting row.
    """
    d = rho.dim
    header = ["t"]
    for i in range(d):
        for j in range(d):
            header += [f"rho_{i}_{j}_re", f"rho_{i}_{j}_im"]
    header.append("trace")
    lines = [",".join(header)]
    v = vec(rho.rho)
    for k in range(steps + 1):
        t = k * t_end / steps
        sigma = unvec(v, d)
        trace = np.trace(sigma)
        if abs(trace - 1.0) > 1e-10:
            raise NumericalViolation(f"trace drifted to {trace:.12g} at t = {t:.6g}")
        cells = (t, *sigma.reshape(-1).view(np.float64), trace.real)
        lines.append(",".join(format(float(x), ".16e") for x in cells))
        v = step @ v
    return "\n".join(lines) + "\n"


def evolve_files(tmp_path, seed, d):
    rng = np.random.default_rng(seed)
    model, rho = random_model(rng, d), random_density(rng, d)
    model_path = write_json(tmp_path / "model.json",
                            {"dim": d, "H": matrix_to_pairs(model.H), "L": matrix_to_pairs(model.L)})
    rho_path = write_json(tmp_path / "rho.json", {"dim": d, "rho": matrix_to_pairs(rho.rho)})
    return model_path, rho_path


def evolve_step(model_path, t_end, steps):
    h = t_end / steps
    return propagators(generator_matrix(load_model(model_path), "schrodinger").mat, (h,))[h]


class TestEvolveMatchesRowLoop:
    @pytest.mark.parametrize("steps", [1, 37, 500])
    @pytest.mark.parametrize("d", [2, 3, 5, 8, 9, 16])
    def test_csv_is_byte_identical(self, capsys, tmp_path, d, steps):
        model, rho = evolve_files(tmp_path, 100 * d + steps, d)
        out = tmp_path / "evolve.csv"
        code, _, _ = run(["evolve", "--model", model, "--rho", rho, "--t-end", "1.5",
                          "--steps", str(steps), "--out", str(out)], capsys)
        assert code == 0
        expected = loop_evolve_csv(evolve_step(model, 1.5, steps), load_density(rho), 1.5, steps)
        assert out.read_text() == expected

    def test_drift_names_the_first_drifting_row(self, capsys, tmp_path, monkeypatch):
        model, rho = evolve_files(tmp_path, 7, 3)

        def drifting(generator, durations):
            return {h: (1 + 5e-11) * P for h, P in propagators(generator, durations).items()}

        with pytest.raises(NumericalViolation) as expected:
            loop_evolve_csv((1 + 5e-11) * evolve_step(model, 2.0, 37), load_density(rho), 2.0, 37)
        monkeypatch.setattr(cli, "propagators", drifting)
        out = tmp_path / "evolve.csv"
        code, _, err = run(["evolve", "--model", model, "--rho", rho, "--t-end", "2.0",
                            "--steps", "37", "--out", str(out)], capsys)
        assert code == 2
        assert err == f"numerical property violation: {expected.value}\n"
        assert not out.exists()


def test_csv_rows_writes_each_cell_as_format_float_does():
    special = [0.0, -0.0, 2.0**-1074, -2.0**-1022, np.finfo(float).max, -np.finfo(float).max,
               np.inf, -np.inf, np.nan, 0.1, -1 / 3, 1e-300, 123456789.125]
    rng = np.random.default_rng(0)
    cells = np.array(special + list(rng.standard_normal(11) * 10.0 ** rng.integers(-300, 300, 11)))
    cells = cells.reshape(4, 6)
    expected = "".join(",".join(map(format_float, row)) + "\n" for row in cells)
    assert csv_rows(cells) == expected


class TestParser:
    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_usage_error_leaves_the_parser_usable(self, capsys):
        code, _, err = run(["ito", "--bogus"], capsys)
        assert code == 1 and err.startswith("usage error:")
        code, out, _ = run(["ito", "--dt", "0.5", "--trunc", "3"], capsys)
        assert code == 0
        assert json.loads(out)["dt"] == 0.5

    def test_defaults_survive_an_earlier_flag(self, capsys):
        argv = ["correlate", *FILES, "--query", QUERY, "--mode", "oracle-seq"]
        code, out, _ = run(argv + ["--dt", "0.0625"], capsys)
        assert code == 0 and json.loads(out)["dt"] == 0.0625
        code, out, _ = run(argv, capsys)
        assert code == 0 and json.loads(out)["dt"] == 0.01

    def test_dispatch_reads_the_module_attribute(self, capsys, monkeypatch):
        assert run(["ito", "--dt", "0.5"], capsys)[0] == 0
        calls = []
        monkeypatch.setattr(cli, "cmd_ito", lambda args: calls.append(args.dt) or 0)
        assert run(["ito", "--dt", "0.25"], capsys) == (0, "", "")
        assert calls == [0.25]


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

    @pytest.mark.parametrize("command", ["correlate", "oracle"])
    @pytest.mark.parametrize("dt", [repr(2.0**-60), "1e-300"], ids=["2**-60", "1e-300"])
    def test_oracle_seq_below_rounding_floor_is_one_line(self, capsys, command, dt):
        code, out, err = run(
            [command, "--model", MODEL, "--rho", RHO, "--query", QUERY,
             "--mode", "oracle-seq", "--dt", dt],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert err.startswith("validation error: dt = ") and err.count("\n") == 1
        assert "rounding floor" in err

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

    def test_expected_block_is_the_report_table(self, capsys):
        from qregress import CollisionConfig, ito_table_check
        from qregress.collision import MOMENT_NAMES

        code, out, _ = run(["ito", "--dt", "0.25", "--trunc", "3"], capsys)
        assert code == 0
        expected = ito_table_check(CollisionConfig(dt=0.25, trunc=3)).expected
        assert json.loads(out)["expected"] == {
            name: [complex(e).real, complex(e).imag] for name, e in zip(MOMENT_NAMES, expected)
        }

    def test_failure_names_the_quantity_over_the_bound(self, capsys):
        # the moments are exact here; the 300-level commutator rounds to 1.12e-15
        code, out, err = run(["ito", "--dt", "0.01", "--trunc", "300"], capsys)
        assert code == 2
        result = json.loads(out)
        assert result["max_moment_error"] <= 1e-15 < result["commutator_defect"]
        assert err == (
            "numerical property violation: commutator_defect = "
            f"{result['commutator_defect']:.3g} above the bound 1e-15\n"
        )
        assert "max_moment_error" not in err

    @pytest.mark.parametrize("dt", ["10", "1000"])
    def test_large_dt_rounding_is_within_the_bound(self, capsys, dt):
        # sqrt(10)**2 is one ulp above 10: rounding at the scale of dt
        code, out, err = run(["ito", "--dt", dt], capsys)
        assert (code, err) == (0, "")
        result = json.loads(out)
        assert max(result["max_moment_error"], result["commutator_defect"]) <= 1e-15 * float(dt)

    def test_large_dt_still_rejects_a_wrong_increment(self, capsys, monkeypatch):
        from qregress import collision

        exact = collision.slot_annihilator
        monkeypatch.setattr(collision, "slot_annihilator", lambda m: exact(m) * (1 + 1e-14))
        code, out, err = run(["ito", "--dt", "10"], capsys)
        assert code == 2
        result = json.loads(out)
        assert err == (
            f"numerical property violation: max_moment_error = {result['max_moment_error']:.3g}, "
            f"commutator_defect = {result['commutator_defect']:.3g} above the bound 1e-14\n"
        )


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
        line = re.compile(r"PASS (\S+) +measured=-?\d\.\d{6}e[+-]\d{2,3}  bound=(.+)")
        assert [line.fullmatch(row).groups() for row in out.splitlines()] == VERIFY_CHECKS

    def test_seed_variation(self, capsys):
        code, _, _ = run(["verify", "--seed", "12345"], capsys)
        assert code == 0

    def test_negative_seed_is_one_usage_line(self, capsys):
        code, out, err = run(["verify", "--seed", "-1"], capsys)
        assert code == 1
        assert out == ""
        assert err == "usage error: --seed must be >= 0, got -1\n"

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
        # not JSON, not UTF-8, and nested past the decoder's recursion limit
        for payload in (b"{not json", b"\xff\xfe\x00bad", b"[" * 100_000 + b"]" * 100_000):
            bad.write_bytes(payload)
            code, out, err = run(
                ["correlate", "--model", str(bad), "--rho", RHO, "--query", QUERY],
                capsys,
            )
            assert code == 1
            assert out == ""
            assert err.startswith(f"validation error: {bad}: invalid JSON (")
            assert err.count("\n") == 1

    def test_integral_float_dim_is_accepted(self, capsys, tmp_path):
        data = json.loads(Path(MODEL).read_text())
        outputs = []
        for dim in (2, 2.0):
            model = write_json(tmp_path / "model.json", {**data, "dim": dim})
            outputs.append(run(["correlate", "--model", model, "--rho", RHO, "--query", QUERY],
                               capsys))
        assert outputs[0][0] == 0 and outputs[1] == outputs[0]

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, _ = run(["correlate", "--bogus"], capsys)
        assert code == 1

    @pytest.mark.parametrize(
        "kind,edit",
        [
            ("model", {"dim": "two"}),
            ("model", {"dim": 2.9}),
            ("model", {"H": [[["x", 0], [0, 0]], [[0, 0], [0, 0]]]}),
            ("query", {"times": ["a", 1.0]}),
            ("query", {"times": 5}),
            ("query", {"times": "01"}),
            ("query", {"b_ops": 5}),
            ("query", {"a_ops": 5}),
        ],
        ids=["dim-word", "dim-fraction", "matrix-entry-word", "times-word", "times-scalar", "times-string",
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


def strict_json(out):
    json.loads(out, parse_constant=_reject_constant)


def finite_csv(out):
    header, *rows = out.splitlines()
    for row in rows:
        cells = [float(cell) for cell in row.split(",")]
        assert len(cells) == len(header.split(",")) and all(map(math.isfinite, cells))


def assert_exit_contract(code, out, err, parse_output=strict_json):
    assert code in (0, 1, 2, 3)
    assert err.count("\n") <= 1
    if code == 0:
        parse_output(out)


def fuzzed_file(tmp_path_factory, base, edit) -> str:
    data = json.loads(Path(base).read_text())
    data.update(edit)
    return write_json(tmp_path_factory.getbasetemp() / f"fuzzed_{Path(base).name}", data)


def command_argv(tmp_path_factory, command, n_times):
    """correlate on the dipole query; classical on n_times number insertions.

    Up to 22 times the atom's 2**n paths fit the path budget; longer queries
    must be rejected with one line.
    """
    if command == "correlate":
        return ["correlate", "--query", QUERY]
    query = {"times": [(k + 1) / n_times for k in range(n_times)], "b_ops": [NUMBER] * n_times}
    path = write_json(tmp_path_factory.getbasetemp() / "number_query.json", query)
    return ["classical", "--query", path]


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
N_TIMES = st.integers(1, 2) | st.integers(18, 40)


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
    n_times=N_TIMES,
    edit=st.fixed_dictionaries(
        {}, optional={"dim": JSON_VALUES, "H": JSON_VALUES | MATRICES, "L": JSON_VALUES | MATRICES}
    ),
)
@settings(max_examples=40, deadline=1000)
def test_fuzzed_model_file_keeps_exit_contract(tmp_path_factory, command, n_times, edit):
    model = fuzzed_file(tmp_path_factory, MODEL, edit)
    argv = command_argv(tmp_path_factory, command, n_times) + ["--model", model, "--rho", RHO]
    assert_exit_contract(*run_strict(argv))


@given(
    command=COMMANDS,
    n_times=N_TIMES,
    edit=st.fixed_dictionaries({}, optional={"dim": JSON_VALUES, "rho": JSON_VALUES | MATRICES}),
)
@settings(max_examples=40, deadline=1000)
def test_fuzzed_state_file_keeps_exit_contract(tmp_path_factory, command, n_times, edit):
    rho = fuzzed_file(tmp_path_factory, RHO, edit)
    argv = command_argv(tmp_path_factory, command, n_times) + ["--model", MODEL, "--rho", rho]
    assert_exit_contract(*run_strict(argv))


LOG_DT = st.floats(-300.0, math.log10(4.0)).map(lambda e: 10.0**e)
GRID_DT = st.sampled_from([2.0**-k for k in range(9)])
NOT_NUMBERS = st.sampled_from(["", "x", "1/16", "0x10", "--"])
FLAG_DT = (LOG_DT | GRID_DT).map(repr) | st.sampled_from(["0", "-0.0625", "-1e-300", "1e-310"]) | NOT_NUMBERS
FLAG_TRUNC = st.integers(-1, 6).map(str) | NOT_NUMBERS
FLAG_BUDGET = st.integers(-1, 10**6).map(str) | st.sampled_from(["1e6"]) | NOT_NUMBERS
FLAG_T_END = (st.floats(-300.0, 300.0).map(lambda e: repr(10.0**e))
              | st.sampled_from(["0", "-1", "inf", "nan"]) | NOT_NUMBERS)
FLAG_STEPS = st.integers(-1, 2000).map(str) | st.sampled_from(["1.5"]) | NOT_NUMBERS
FILES = ["--model", MODEL, "--rho", RHO]
ORACLE_ARGV = st.tuples(
    st.sampled_from([["correlate", "--query", QUERY, "--mode", "oracle-seq"],
                     ["correlate", "--query", QUERY, "--mode", "oracle-joint"],
                     ["oracle", "--query", QUERY, "--mode", "oracle-seq"],
                     ["oracle", "--query", QUERY, "--mode", "oracle-joint"]]),
    FLAG_DT, FLAG_TRUNC, FLAG_BUDGET,
).map(lambda a: a[0] + FILES + ["--dt", a[1], "--trunc", a[2], "--budget", a[3]])
EVOLVE_ARGV = st.tuples(FLAG_T_END, FLAG_STEPS).map(
    lambda a: ["evolve", *FILES, "--t-end", a[0], "--steps", a[1]])
ITO_ARGV = st.tuples(FLAG_DT, FLAG_TRUNC).map(lambda a: ["ito", "--dt", a[0], "--trunc", a[1]])


def assert_oracle_seq_accuracy(argv, out):
    """An accepted oracle-seq dipole value at dt <= 2**-8 is first-order close.

    The error is about 0.059 dt above the rounding floor, plus N * u of
    accumulated rounding (N steps to t = 1, u = 2**-53).
    """
    result = json.loads(out)
    runs = result["runs"] if argv[0] == "oracle" else [result]
    for record in runs:
        dt = record["dt"]
        if dt <= 2.0**-8:
            error = abs(complex(*record["value"]) - DIPOLE_EXACT)
            assert error <= 0.07 * dt + round(1.0 / dt) * 2.0**-53


# the budget keeps every joint state at most 10**6 entries; --steps stays at
# most 2000 rows of a 2x2 state
@given(argv=ORACLE_ARGV | EVOLVE_ARGV | ITO_ARGV)
@settings(max_examples=60, deadline=None)
def test_fuzzed_flags_keep_exit_contract(argv):
    code, out, err = run_strict(argv)
    assert_exit_contract(code, out, err, finite_csv if argv[0] == "evolve" else strict_json)
    if code == 0 and "oracle-seq" in argv:
        assert_oracle_seq_accuracy(argv, out)


def _cap_address_space():
    # a child that tried to form a huge integer would fail here instead of
    # taking the host's memory
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize("command", ["correlate", "oracle"])
def test_tiny_dt_joint_oracle_is_one_budget_line(command):
    proc = subprocess.run(
        [sys.executable, "-m", "qregress.cli", command, *FILES, "--query", QUERY,
         "--mode", "oracle-joint", "--dt", "1e-300"],
        capture_output=True,
        text=True,
        timeout=20,
        preexec_fn=_cap_address_space,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("validation error: joint state needs")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["ito", "--trunc", "100000"],  # a 149 GiB slot matrix
    ["correlate", *FILES, "--query", QUERY, "--mode", "oracle-seq", "--trunc", "30000"],
], ids=["ito", "correlate"])
def test_allocation_failure_is_one_line(argv, tmp_path):
    out = tmp_path / "out.json"
    proc = subprocess.run(
        [sys.executable, "-m", "qregress.cli", *argv, "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=20,
        preexec_fn=_cap_address_space,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert proc.returncode == 1
    assert proc.stdout == "" and not out.exists()
    assert proc.stderr.startswith("validation error: Unable to allocate")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("steps,message", [
    # (steps + 1) x 4 complex entries; a row loop at about 30 us a row would
    # run for about a year
    ("1000000000000", "validation error: Unable to allocate"),
    ("1" + "0" * 30, "validation error: --steps 1" + "0" * 30),
], ids=["unallocatable", "unindexable"])
def test_huge_evolve_steps_is_one_line(tmp_path, steps, message):
    out = tmp_path / "evolve.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "qregress.cli", "evolve", *FILES, "--t-end", "3",
         "--steps", steps, "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=10,
        preexec_fn=_cap_address_space,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert proc.returncode == 1
    assert proc.stdout == "" and not out.exists()
    assert proc.stderr.startswith(message)
    assert proc.stderr.count("\n") == 1


def test_long_classical_query_is_one_budget_line(tmp_path):
    # a 4-state cyclic jump keeps diagonals diagonal; 20 times make 4**20 paths
    r = 4
    jump = np.roll(np.eye(r), 1, axis=0)
    model = {"dim": r, "H": [[[0, 0]] * r] * r, "L": [[[x, 0] for x in row] for row in jump]}
    rho = {"dim": r, "rho": [[[1 / r if i == j else 0, 0] for j in range(r)] for i in range(r)]}
    query = {"times": [0.1 * (k + 1) for k in range(20)],
             "b_ops": [[[[1 if i == j else 0, 0] for j in range(r)] for i in range(r)]] * 20}
    proc = subprocess.run(
        [sys.executable, "-m", "qregress.cli", "classical",
         "--model", write_json(tmp_path / "model.json", model),
         "--rho", write_json(tmp_path / "rho.json", rho),
         "--query", write_json(tmp_path / "query.json", query)],
        capture_output=True,
        text=True,
        # about 0.6 s, mostly interpreter start-up; a per-path loop at 5.7 us
        # a path would run for about 70 days
        timeout=5,
        preexec_fn=_cap_address_space,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == (
        "validation error: path sum needs 1099511627776 paths for 20 times, "
        "budget is 4194304\n"
    )


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "qregress.cli", "ito", "--dt", "0.5", "--trunc", "3"],
        capture_output=True,
        text=True,
        env={**os.environ},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["moments"]["bb_dag"][0] == pytest.approx(0.5, abs=1e-15)
