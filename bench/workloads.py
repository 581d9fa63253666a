"""Seeded inputs, timed operations and correctness gates of each workload.

A workload is one *round*: a fixed, shuffled list of operations.  Runs
repeat whole rounds, so every run sees the same mix of operation kinds and
the latency quantiles fall inside a kind, not on a boundary between kinds.

Each operation has a timed ``run`` and an untimed ``check`` that returns a
verdict.  Library entry points are looked up on their module at call time,
so a tracer that replaces them is seen.
"""

from __future__ import annotations

import contextlib
import io as _stdio
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import qregress
from qregress import classical, cli, collision, linalg, regression, semigroup, verify
from qregress.errors import QRegressError, ValidationError
from spans import DEFAULT_NORM_LIMIT

OK = "ok"
REJECTED = "rejected_exp_norm"
FAILED_GATE = "failed_gate"
FAILED_EXCEPTION = "failed_exception"
FAILED_EXIT = "failed_exit"
VERDICTS = (OK, REJECTED, FAILED_GATE, FAILED_EXCEPTION, FAILED_EXIT)

KERNEL_TOL = 1e-10        # verify's regression.form_equivalence bound
RATIO_RANGE = (1.7, 2.3)  # verify's collision.sequential_halving_ratio bounds
ROUNDOFF = 1e-10          # coarse oracle errors below this carry no halving ratio


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str]


# -- random inputs -----------------------------------------------------------


def _gauss(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def _model(rng, d):
    """H and L of unit Frobenius norm."""
    A = _gauss(rng, d)
    H = 0.5 * (A + A.conj().T)
    B = _gauss(rng, d)
    return qregress.SystemModel(dim=d, H=H / np.linalg.norm(H), L=B / np.linalg.norm(B))


def _density(rng, d):
    M = _gauss(rng, d)
    rho = M @ M.conj().T
    return qregress.DensityOperator(dim=d, rho=rho / np.trace(rho))


def _query(rng, d, times):
    ops = [_gauss(rng, d) for _ in range(2 * len(times))]
    ops = [op / np.linalg.norm(op) for op in ops]
    return qregress.CorrelationQuery(
        times=tuple(float(t) for t in times),
        a_ops=tuple(ops[: len(times)]),
        b_ops=tuple(ops[len(times):]),
    )


def _grid_times(rng, n, last, dt):
    """n nondecreasing multiples of dt in [dt, last * dt]."""
    return np.sort(rng.integers(1, last + 1, size=n)) * dt


def _attempt(fn, *args):
    try:
        return fn(*args)
    except QRegressError as exc:
        return exc


def _close(a, b, tol=KERNEL_TOL):
    return abs(complex(a) - complex(b)) <= tol


# -- tau-grid ------------------------------------------------------------------

# (d, models, multi-time queries per model).  Every model also gets the
# two-time grid t1 x TAUS.  Side-16, -64 and -256 propagators each take a
# comparable share of mat_exp busy time; p50 falls mid-way through the d=4
# multi-time block and p90 inside the d=8 two-time block.
TAU_GRID = (
    (4, 6, (16,) * 6),
    (8, 4, (2, 1, 1, 1)),
    (16, 1, (0,)),
)
# A regular grid shared by every model, as real tau-grids are; with each
# model's generator scaled to a fixed norm it keeps the cost of a round
# nearly independent of the seed.
T1S, TAUS = (0.5,), (1.0, 2.0)
MULTI_N = 20
# Long-tau queries, about one in twenty, at every d: (d, model index, shape).
LONG_TAU = ((4, 0, "two"), (4, 1, "two"), (4, 2, "multi"),
            (8, 0, "two"), (8, 1, "multi"), (8, 2, "two"), (16, 0, "two"))
RELAXATION_MULTIPLES = (4.0, 8.0)


def _scaled_model(rng, d):
    """Random model whose Schrodinger generator has Frobenius norm 1.5 sqrt(d).

    The generator is linear in H and quadratic in L, so H -> aH, L -> sqrt(a)L
    scales it by a.
    """
    model = _model(rng, d)
    a = 1.5 * np.sqrt(d) / np.linalg.norm(semigroup.generator_matrix(model, "schrodinger").mat)
    return qregress.SystemModel(dim=d, H=a * model.H, L=np.sqrt(a) * model.L)


def _norm_limit():
    return getattr(linalg, "EXP_NORM_LIMIT", DEFAULT_NORM_LIMIT)


def _kernel_op(kind, model, rho, query, gen_norm):
    t = query.times
    longest = max((t[0], *(b - a for a, b in zip(t, t[1:]))))
    over_limit = gen_norm * longest > _norm_limit()

    def run():
        return (
            _attempt(regression.kernel_schrodinger, model, rho, query),
            _attempt(regression.kernel_heisenberg, model, rho, query),
        )

    def check(out):
        s, h = out
        if isinstance(s, Exception) or isinstance(h, Exception):
            documented = (over_limit and isinstance(s, ValidationError)
                          and isinstance(h, ValidationError))
            return REJECTED if documented else FAILED_EXCEPTION
        return OK if _close(s, h) else FAILED_GATE

    return Op(kind, run, check)


def tau_grid(rng):
    ops = []
    for d, n_models, multis in TAU_GRID:
        for i in range(n_models):
            model, rho = _scaled_model(rng, d), _density(rng, d)
            gen = semigroup.generator_matrix(model, "schrodinger").mat
            gen_norm = float(np.linalg.norm(gen))
            relaxation = -1.0 / np.sort(np.linalg.eigvals(gen).real)[-2]
            for t1 in T1S:
                for tau in TAUS:
                    ops.append(_kernel_op(f"d{d}.two-time", model, rho,
                                          _query(rng, d, (t1, t1 + tau)), gen_norm))
            for _ in range(multis[i]):
                times = np.sort(rng.uniform(0.0, 3.0, MULTI_N))
                ops.append(_kernel_op(f"d{d}.multi-time", model, rho,
                                      _query(rng, d, times), gen_norm))
            for shape in (s for dd, ii, s in LONG_TAU if (dd, ii) == (d, i)):
                tau = rng.uniform(*RELAXATION_MULTIPLES) * relaxation
                if shape == "two":
                    times = np.array([T1S[0], T1S[0] + tau])
                else:
                    times = np.sort(rng.uniform(0.0, 3.0, MULTI_N))
                    times[rng.integers(1, MULTI_N):] += tau
                ops.append(_kernel_op(f"d{d}.long-tau", model, rho,
                                      _query(rng, d, times), gen_norm))
    return ops


# -- oracle-sweep ----------------------------------------------------------------

SEQ_DIMS, SEQ_TRUNCS, SEQ_NS = (2, 3, 4), (2, 3), (2, 5, 10)
SEQ_EXPONENTS = range(6, 12)  # pairs (2^-e, 2^-(e+1)) cover dt = 2^-6 ... 2^-12
SEQ_GRID, SEQ_STEPS = 2.0**-6, 128
JOINT_DT = 2.0**-6
# (mode, d, trunc, slots, copies): a few runs up to ~2M state entries, a
# block of equal mid-size runs where p90 falls, and a few small runs.
JOINT = (
    ("pure", 2, 2, 20, 1), ("pure", 4, 2, 18, 1), ("pure", 2, 3, 12, 1),
    ("pure", 2, 2, 18, 1), ("pure", 3, 2, 17, 1),
    ("pure", 2, 2, 15, 9), ("mixed", 2, 2, 14, 8),
    ("pure", 2, 2, 8, 1), ("pure", 2, 2, 10, 1), ("pure", 3, 2, 9, 1),
    ("mixed", 2, 2, 8, 1), ("mixed", 2, 3, 6, 1),
)
JOINT_N = 5


def _seq_pair_op(rng, d, trunc, n, e):
    model, rho = _model(rng, d), _density(rng, d)
    query = _query(rng, d, _grid_times(rng, n, SEQ_STEPS, SEQ_GRID))
    exact = regression.kernel_schrodinger(model, rho, query)
    cfgs = (collision.CollisionConfig(dt=2.0**-e, trunc=trunc),
            collision.CollisionConfig(dt=2.0 ** -(e + 1), trunc=trunc))

    def run():
        return tuple(collision.oracle_kernel_sequential(model, rho, query, c) for c in cfgs)

    def check(out):
        coarse, fine = (abs(v - exact) for v in out)
        if coarse <= ROUNDOFF:
            return OK
        lo, hi = RATIO_RANGE
        return OK if fine > 0 and lo <= coarse / fine <= hi else FAILED_GATE

    return Op(f"seq.d{d}.m{trunc}.n{n}", run, check)


def _joint_op(rng, mode, d, trunc, slots):
    model = _model(rng, d)
    # Evenly spaced query slots: the sizes of the joint states, and so the
    # allocator's history and peak RSS, do not depend on the seed.
    slot_times = np.round(np.linspace(slots / JOINT_N, slots, JOINT_N)) * JOINT_DT
    query = _query(rng, d, slot_times)
    cfg = collision.CollisionConfig(dt=JOINT_DT, trunc=trunc, budget=d * trunc**slots)
    if mode == "pure":
        psi = _gauss(rng, d)[0]
        psi /= np.linalg.norm(psi)
        state, rho = psi, qregress.pure_density(psi)
        fn = "oracle_kernel_joint"
    else:
        state = rho = _density(rng, d)
        fn = "oracle_kernel_joint_mixed"
    reference = collision.oracle_kernel_sequential(model, rho, query, cfg)

    def run():
        return getattr(collision, fn)(model, state, query, cfg)

    return Op(f"joint-{mode}.slots{slots}", run,
              lambda out: OK if _close(out, reference) else FAILED_GATE)


def oracle_sweep(rng):
    ops = [_seq_pair_op(rng, d, m, n, e)
           for d in SEQ_DIMS for m in SEQ_TRUNCS for n in SEQ_NS for e in SEQ_EXPONENTS]
    for mode, d, trunc, slots, copies in JOINT:
        ops += [_joint_op(rng, mode, d, trunc, slots) for _ in range(copies)]
    return ops


# -- cli-session --------------------------------------------------------------

EVOLVE = (3, 2000, 4)         # d, steps, runs per round
CLASSICAL = ((4, 7), (3, 10))  # (r, n): r**n = 16384 and 59049 paths
CORRELATE = 8                 # query files, each run in all four modes
CORRELATE_DT = 2.0**-5
ORACLE = 6
ORACLE_DT = 2.0**-7
ITO_TRUNCS = (2, 3, 4, 2, 3)


def _pairs(mat):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(mat)]


class _Files:
    """Input files the session's commands read, written as the README specifies."""

    def __init__(self, workdir: Path):
        self.dir = workdir
        self.count = 0

    def _write(self, stem, payload):
        self.count += 1
        path = self.dir / f"{stem}{self.count}.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def model(self, model):
        return self._write("model", {"dim": model.dim, "H": _pairs(model.H), "L": _pairs(model.L)})

    def rho(self, rho):
        return self._write("rho", {"dim": rho.dim, "rho": _pairs(rho.rho)})

    def query(self, q):
        return self._write("query", {"times": list(q.times),
                                     "a_ops": [_pairs(a) for a in q.a_ops],
                                     "b_ops": [_pairs(b) for b in q.b_ops]})

    def out(self, stem):
        self.count += 1
        return str(self.dir / f"{stem}{self.count}.out")


def _call_cli(argv):
    out, err = _stdio.StringIO(), _stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _cli_op(kind, argv, check_output):
    """check_output(stdout) returns True when the command's output is right."""

    def check(result):
        code, stdout = result
        if code != 0:
            return FAILED_EXIT
        return OK if check_output(stdout) else FAILED_GATE

    return Op(kind, lambda: _call_cli(argv), check)


def _read_json(path):
    return json.loads(Path(path).read_text())


def _verify_op(files, seed):
    reference = verify.run_all(seed=seed, extra_models=[qregress.atom_model(1.0)])
    out = files.out("verify")
    first_stdout = []

    def check(stdout):
        if not first_stdout:
            first_stdout.append(stdout)
        checks = _read_json(out)["checks"]
        return stdout == first_stdout[0] and len(checks) == len(reference) and all(
            c["name"] == r.name and c["passed"] and r.passed and c["bound"] == r.bound
            and abs(c["measured"] - r.measured) <= 1e-15 + 1e-9 * abs(r.measured)
            for c, r in zip(checks, reference)
        )

    return _cli_op("verify", ["verify", "--seed", str(seed), "--out", out], check)


def _evolve_op(rng, files):
    d, steps, _ = EVOLVE
    model, rho = _model(rng, d), _density(rng, d)
    t_end = float(rng.uniform(1.0, 3.0))
    gen = semigroup.generator_matrix(model, "schrodinger")
    rows = (0, steps // 4, steps // 2, steps)
    expected = {k: semigroup.propagator(gen, k * t_end / steps).apply(rho.rho) for k in rows}
    out = files.out("evolve")
    argv = ["evolve", "--model", files.model(model), "--rho", files.rho(rho),
            "--t-end", repr(t_end), "--steps", str(steps), "--out", out]

    def check(_):
        lines = Path(out).read_text().splitlines()
        if len(lines) != steps + 2 or len(lines[0].split(",")) != 2 * d * d + 2:
            return False
        for k in rows:
            vals = [float(x) for x in lines[k + 1].split(",")]
            sigma = (np.array(vals[1:-1:2]) + 1j * np.array(vals[2:-1:2])).reshape(d, d)
            if np.abs(sigma - expected[k]).max() > KERNEL_TOL or abs(vals[-1] - 1.0) > KERNEL_TOL:
                return False
        return True

    return _cli_op("evolve", argv, check)


def _diagonal_model(rng, r):
    """Diagonal H and a weighted cyclic jump L: the generator keeps diagonals diagonal."""
    H = np.diag(rng.uniform(-1.0, 1.0, r)).astype(np.complex128)
    L = np.roll(np.diag(rng.uniform(0.3, 1.2, r)), 1, axis=0).astype(np.complex128)
    return qregress.SystemModel(dim=r, H=H, L=L)


def _classical_op(rng, files, r, n):
    model = _diagonal_model(rng, r)
    p = rng.uniform(0.1, 1.0, r)
    rho = qregress.DensityOperator(dim=r, rho=np.diag(p / p.sum()).astype(np.complex128))
    eye = np.eye(r, dtype=np.complex128)
    query = qregress.CorrelationQuery(
        times=tuple(np.sort(rng.uniform(0.0, 2.0, n))),
        a_ops=(eye,) * n,
        b_ops=tuple(np.diag(rng.uniform(-1.0, 1.0, r)).astype(np.complex128) for _ in range(n)),
    )
    ref = classical.compare_quantum_classical(model, rho, query)
    out = files.out("classical")
    argv = ["classical", "--model", files.model(model), "--rho", files.rho(rho),
            "--query", files.query(query), "--out", out]

    def check(_):
        got = _read_json(out)
        return (_close(complex(*got["quantum"]), ref.quantum)
                and abs(got["classical"] - ref.classical) <= KERNEL_TOL
                and got["diff"] <= KERNEL_TOL)

    return _cli_op(f"classical.paths{r**n}", argv, check)


def _correlate_ops(rng, files, d):
    model, rho = _model(rng, d), _density(rng, d)
    query = _query(rng, d, _grid_times(rng, int(rng.integers(2, 5)), 12, CORRELATE_DT))
    cfg = collision.CollisionConfig(dt=CORRELATE_DT, trunc=2)
    refs = {
        "qrt-schrodinger": regression.kernel_schrodinger(model, rho, query),
        "qrt-heisenberg": regression.kernel_heisenberg(model, rho, query),
        "oracle-seq": collision.oracle_kernel_sequential(model, rho, query, cfg),
        "oracle-joint": collision.oracle_kernel_joint_mixed(model, rho, query, cfg),
    }
    paths = ["--model", files.model(model), "--rho", files.rho(rho), "--query", files.query(query)]
    ops = []
    for mode, ref in refs.items():
        out = files.out("correlate")
        argv = ["correlate", *paths, "--mode", mode, "--dt", repr(CORRELATE_DT),
                "--trunc", "2", "--out", out]
        ops.append(_cli_op(f"correlate.{mode}", argv,
                           lambda _, out=out, ref=ref: _close(complex(*_read_json(out)["value"]), ref)))
    return ops


def _oracle_op(rng, files, d):
    model, rho = _model(rng, d), _density(rng, d)
    query = _query(rng, d, _grid_times(rng, int(rng.integers(2, 4)), 128, 2 * ORACLE_DT))
    exact = regression.kernel_schrodinger(model, rho, query)
    runs = [collision.oracle_kernel_sequential(model, rho, query, collision.CollisionConfig(dt=dt))
            for dt in (ORACLE_DT, ORACLE_DT / 2)]
    out = files.out("oracle")
    argv = ["oracle", "--model", files.model(model), "--rho", files.rho(rho),
            "--query", files.query(query), "--dt", repr(ORACLE_DT), "--out", out]

    def check(_):
        got = _read_json(out)
        return _close(complex(*got["exact"]), exact) and all(
            _close(complex(*g["value"]), v) for g, v in zip(got["runs"], runs))

    return _cli_op("oracle", argv, check)


def _ito_op(rng, files, trunc):
    dt = float(rng.uniform(1e-3, 0.5))
    ref = collision.ito_table_check(collision.CollisionConfig(dt=dt, trunc=trunc))
    out = files.out("ito")
    argv = ["ito", "--dt", repr(dt), "--trunc", str(trunc), "--out", out]
    names = ("bb_dag", "bdag_b", "bb", "bdag_bdag")

    def check(_):
        got = _read_json(out)["moments"]
        return all(_close(complex(*got[k]), m, 1e-15) for k, m in zip(names, ref.moments))

    return _cli_op("ito", argv, check)


def cli_session(rng, workdir: Path, seed: int):
    files = _Files(workdir)
    ops = [_verify_op(files, seed)]
    ops += [_evolve_op(rng, files) for _ in range(EVOLVE[2])]
    ops += [_classical_op(rng, files, r, n) for r, n in CLASSICAL]
    for i in range(CORRELATE):
        ops += _correlate_ops(rng, files, 2 + i % 2)
    ops += [_oracle_op(rng, files, 2 + i % 2) for i in range(ORACLE)]
    ops += [_ito_op(rng, files, m) for m in ITO_TRUNCS]
    return ops


WORKLOADS = ("tau-grid", "oracle-sweep", "cli-session")


def build(name: str, seed: int, workdir: Path) -> list[Op]:
    """One round of the named workload; also computes its reference values."""
    index = WORKLOADS.index(name)
    rng = np.random.default_rng([seed, index])
    if name == "tau-grid":
        ops = tau_grid(rng)
    elif name == "oracle-sweep":
        ops = oracle_sweep(rng)
    else:
        ops = cli_session(rng, workdir, seed)
    # Interleave the kinds in an order that does not depend on the seed: the
    # allocator's history, and so peak RSS, then repeats from seed to seed.
    return [ops[i] for i in np.random.default_rng(index).permutation(len(ops))]
