"""Command-line front end.

Subcommands: evolve, correlate, oracle, ito, verify, classical.  Exit codes:
0 success, 1 validation/usage error, 2 numerical property violation,
3 I/O error.  Outputs are deterministic for fixed inputs and seed.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from . import io
from .classical import compare_quantum_classical
from .collision import (
    ITO_TOL,
    CollisionConfig,
    DEFAULT_BUDGET,
    ito_table_check,
    oracle_kernel_joint_mixed,
    oracle_kernel_sequential,
)
from .errors import QRegressError
from .linalg import unvec, vec
from .model import atom_model
from .regression import kernel_heisenberg, kernel_schrodinger
from .semigroup import generator_matrix, propagator
from .verify import run_all

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3

MODES = ("qrt-schrodinger", "qrt-heisenberg", "oracle-seq", "oracle-joint")


class UsageError(Exception):
    pass


class NumericalViolation(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _collision_config(args) -> CollisionConfig:
    return CollisionConfig(dt=args.dt, trunc=args.trunc, budget=args.budget)


def cmd_evolve(args) -> int:
    model = io.load_model(args.model)
    rho = io.load_density(args.rho)
    if args.steps < 1:
        raise UsageError(f"--steps must be >= 1, got {args.steps}")
    if not 0 < args.t_end < np.inf:
        raise UsageError(f"--t-end must be positive and finite, got {args.t_end}")
    d = model.dim
    step = propagator(generator_matrix(model, "schrodinger"), args.t_end / args.steps).mat
    header = ["t"]
    for i in range(d):
        for j in range(d):
            header += [f"rho_{i}_{j}_re", f"rho_{i}_{j}_im"]
    header.append("trace")
    lines = [",".join(header)]
    v = vec(rho.rho)
    for k in range(args.steps + 1):
        t = k * args.t_end / args.steps
        sigma = unvec(v, d)
        trace = np.trace(sigma)
        if abs(trace - 1.0) > 1e-10:
            raise NumericalViolation(
                f"trace drifted to {trace:.12g} at t = {t:.6g}"
            )
        # row-major re/im pairs, the header's column order
        cells = (t, *sigma.reshape(-1).view(np.float64), trace.real)
        lines.append(",".join(map(io.format_float, cells)))
        v = step @ v
    io.write_output("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _correlate_value(mode, model, rho, query, cfg) -> complex:
    # the kernels are looked up at call time, so replacing a module
    # attribute (as a tracer does) reaches this dispatch
    if mode == "qrt-schrodinger":
        return kernel_schrodinger(model, rho, query)
    if mode == "qrt-heisenberg":
        return kernel_heisenberg(model, rho, query)
    if mode == "oracle-seq":
        return oracle_kernel_sequential(model, rho, query, cfg)
    return oracle_kernel_joint_mixed(model, rho, query, cfg)


def cmd_correlate(args) -> int:
    model = io.load_model(args.model)
    rho = io.load_density(args.rho)
    query = io.load_query(args.query)
    cfg = _collision_config(args) if args.mode.startswith("oracle") else None
    value = _correlate_value(args.mode, model, rho, query, cfg)
    result = {
        "value": io.complex_pair(value),
        "mode": args.mode,
        "query": io.query_echo(query),
    }
    if args.mode.startswith("oracle"):
        result["dt"] = args.dt
        result["trunc"] = args.trunc
    io.write_output(io.json_text(result), args.out)
    return EXIT_OK


def cmd_oracle(args) -> int:
    """Convergence report: oracle kernel at dt and dt/2 against the exact one."""
    model = io.load_model(args.model)
    rho = io.load_density(args.rho)
    query = io.load_query(args.query)
    exact = kernel_schrodinger(model, rho, query)
    base = _collision_config(args)
    runs = []
    for cfg in (base, replace(base, dt=base.dt / 2)):
        value = _correlate_value(args.mode, model, rho, query, cfg)
        runs.append({"dt": cfg.dt, "value": io.complex_pair(value), "abs_error": abs(value - exact)})
    # null when the finer run is exact: JSON has no infinity
    ratio = runs[0]["abs_error"] / runs[1]["abs_error"] if runs[1]["abs_error"] else None
    result = {
        "mode": args.mode,
        "exact": io.complex_pair(exact),
        "runs": runs,
        "halving_ratio": ratio,
    }
    io.write_output(io.json_text(result), args.out)
    return EXIT_OK


def cmd_ito(args) -> int:
    report = ito_table_check(CollisionConfig(dt=args.dt, trunc=args.trunc))
    result = {
        "dt": args.dt,
        "trunc": args.trunc,
        "moments": {
            "bb_dag": io.complex_pair(report.bb_dag),
            "bdag_b": io.complex_pair(report.bdag_b),
            "bb": io.complex_pair(report.bb),
            "bdag_bdag": io.complex_pair(report.bdag_bdag),
        },
        "expected": {
            "bb_dag": [args.dt, 0.0],
            "bdag_b": [0.0, 0.0],
            "bb": [0.0, 0.0],
            "bdag_bdag": [0.0, 0.0],
        },
        "max_moment_error": report.moment_error,
        "commutator_defect": report.commutator_defect,
    }
    io.write_output(io.json_text(result), args.out)
    if report.moment_error > ITO_TOL or report.commutator_defect > ITO_TOL:
        raise NumericalViolation(
            f"vacuum moments deviate by {report.moment_error:.3g}"
        )
    return EXIT_OK


def cmd_classical(args) -> int:
    model = io.load_model(args.model)
    rho = io.load_density(args.rho)
    query = io.load_query(args.query)
    comparison = compare_quantum_classical(model, rho, query)
    result = {
        "quantum": io.complex_pair(comparison.quantum),
        "classical": comparison.classical,
        "diff": comparison.diff,
        "generator_columns": [[float(x) for x in row] for row in comparison.generator],
    }
    io.write_output(io.json_text(result), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    extra = []
    if args.model is not None:
        extra.append(io.load_model(args.model))
    else:
        extra.append(atom_model(1.0))
    results = run_all(seed=args.seed, extra_models=extra)
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status} {r.name:<{width}}  measured={r.measured:.6e}  bound={r.bound}")
    report = "\n".join(lines) + "\n"
    print(report, end="")
    if args.out is not None:
        payload = {
            "seed": args.seed,
            "checks": [
                {"name": r.name, "measured": r.measured, "bound": r.bound, "passed": r.passed}
                for r in results
            ],
        }
        io.write_output(io.json_text(payload), args.out)
    if not all(r.passed for r in results):
        failed = ", ".join(r.name for r in results if not r.passed)
        raise NumericalViolation(f"failed checks: {failed}")
    return EXIT_OK


def _add_io_flags(p, query=False):
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--rho", required=True, help="density operator JSON file")
    if query:
        p.add_argument("--query", required=True, help="correlation query JSON file")
    p.add_argument("--out", default=None, help="output path (default stdout)")


def _add_collision_flags(p):
    p.add_argument("--dt", type=float, default=0.01, help="collision step")
    p.add_argument("--trunc", type=int, default=2, help="ancilla truncation")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="joint-mode state-vector entry budget (default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qregress", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evolve", help="reduced time evolution as CSV")
    _add_io_flags(p)
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("correlate", help="multi-time correlation kernel")
    _add_io_flags(p, query=True)
    p.add_argument("--mode", choices=MODES, default="qrt-schrodinger")
    _add_collision_flags(p)
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("oracle", help="oracle convergence report at dt and dt/2")
    _add_io_flags(p, query=True)
    p.add_argument("--mode", choices=("oracle-seq", "oracle-joint"), default="oracle-seq")
    _add_collision_flags(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("ito", help="vacuum increment moments")
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--trunc", type=int, default=2)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_ito)

    p = sub.add_parser("verify", help="run every property suite")
    p.add_argument("--model", default=None, help="extra model to include in the suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="also write a JSON report here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("classical", help="quantum vs classical chain comparison")
    _add_io_flags(p, query=True)
    p.set_defaults(func=cmd_classical)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # overflow, 0/0 and x/0 raise here instead of writing nan or inf
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except QRegressError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NumericalViolation, FloatingPointError) as exc:
        print(f"numerical property violation: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
