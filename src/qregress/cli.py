"""Command-line front end.

Subcommands: evolve, correlate, oracle, ito, verify, classical.  Exit codes:
0 success, 1 validation/usage error, 2 numerical property violation,
3 I/O error.  Outputs are deterministic for fixed inputs and seed.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace

import numpy as np

from . import io
from .classical import compare_quantum_classical
from .collision import (
    MOMENT_NAMES,
    CollisionConfig,
    DEFAULT_BUDGET,
    ito_table_check,
    oracle_kernel_joint_mixed,
    oracle_kernel_sequential,
)
from .errors import QRegressError, ValidationError
from .linalg import vec
from .model import DensityOperator, atom_model
from .regression import kernel_heisenberg, kernel_schrodinger
from .semigroup import generator_matrix, propagators
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
    h = args.t_end / args.steps
    step = propagators(generator_matrix(model, "schrodinger").mat, (h,))[h]
    io.write_output(_evolution_csv(step, rho, args.t_end, args.steps), args.out)
    return EXIT_OK


# cells formatted per % operation, so the per-block argument tuple stays small
_CSV_BLOCK_CELLS = 1 << 16


def _evolution_csv(step: np.ndarray, rho: DensityOperator, t_end: float, steps: int) -> str:
    """CSV of t, the row-major re/im pairs of each state, and its trace.

    The states are held as one (steps + 1, d^2) array, so a --steps whose
    array cannot be allocated fails before the first step.
    """
    d = rho.dim
    try:
        vs = np.empty((steps + 1, d * d), dtype=np.complex128)
    except ValueError as exc:  # more entries than an array can index
        raise ValidationError(f"--steps {steps}: {exc}") from exc
    vs[0] = vec(rho.rho)
    for k in range(steps):
        vs[k + 1] = step @ vs[k]
    ts = np.arange(steps + 1) * t_end / steps
    # the diagonal of the column-stacked state sits at every (d+1)th entry
    traces = vs[:, :: d + 1].sum(axis=1)
    drifted = np.flatnonzero(np.abs(traces - 1.0) > 1e-10)
    if drifted.size:
        k = drifted[0]
        raise NumericalViolation(
            f"trace drifted to {complex(traces[k]):.12g} at t = {float(ts[k]):.6g}"
        )
    header = ["t"]
    for i in range(d):
        for j in range(d):
            header += [f"rho_{i}_{j}_re", f"rho_{i}_{j}_im"]
    header.append("trace")
    parts = [",".join(header) + "\n"]
    block = max(1, _CSV_BLOCK_CELLS // (2 * d * d + 2))
    for lo in range(0, steps + 1, block):
        rows = slice(lo, lo + block)
        # unvec each row, then row-major re/im pairs: the header's column order
        sigmas = vs[rows].reshape(-1, d, d).swapaxes(1, 2).reshape(-1, d * d)
        parts.append(io.csv_rows(np.column_stack(
            (ts[rows], sigmas.view(np.float64), traces[rows].real)
        )))
    return "".join(parts)


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
        "moments": dict(zip(MOMENT_NAMES, map(io.complex_pair, report.moments))),
        "expected": dict(zip(MOMENT_NAMES, map(io.complex_pair, report.expected))),
        "max_moment_error": report.moment_error,
        "commutator_defect": report.commutator_defect,
    }
    io.write_output(io.json_text(result), args.out)
    over = [f"{key} = {result[key]:.3g}"
            for key in ("max_moment_error", "commutator_defect") if result[key] > report.bound]
    if over:
        raise NumericalViolation(f"{', '.join(over)} above the bound {report.bound:g}")
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
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    It names each subcommand but holds no reference to its ``cmd_*``
    function: ``main`` looks that up when it dispatches.
    """
    parser = _Parser(prog="qregress", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evolve", help="reduced time evolution as CSV")
    _add_io_flags(p)
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)

    p = sub.add_parser("correlate", help="multi-time correlation kernel")
    _add_io_flags(p, query=True)
    p.add_argument("--mode", choices=MODES, default="qrt-schrodinger")
    _add_collision_flags(p)

    p = sub.add_parser("oracle", help="oracle convergence report at dt and dt/2")
    _add_io_flags(p, query=True)
    p.add_argument("--mode", choices=("oracle-seq", "oracle-joint"), default="oracle-seq")
    _add_collision_flags(p)

    p = sub.add_parser("ito", help="vacuum increment moments")
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--trunc", type=int, default=2)
    p.add_argument("--out", default=None)

    p = sub.add_parser("verify", help="run every property suite")
    p.add_argument("--model", default=None, help="extra model to include in the suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="also write a JSON report here")

    p = sub.add_parser("classical", help="quantum vs classical chain comparison")
    _add_io_flags(p, query=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # overflow, 0/0 and x/0 raise here instead of writing nan or inf
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            # looked up at call time, so replacing a cmd_* module attribute
            # (as a tracer does) reaches the cached parser's dispatch
            return globals()[f"cmd_{args.command}"](args)
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
    except MemoryError as exc:
        # numpy's message names the array that did not fit
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
