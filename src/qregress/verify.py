"""Seeded property suites over every module, reported as named checks.

Each check returns the measured worst-case quantity together with the bound
it must satisfy, so the CLI can print one line per property and exit nonzero
on any violation.

The decaying atom's worked examples are defined here once: `DIPOLE`, the
kernel <sigma_+(0.5) sigma_-(1)>, and `ATOM_QUERIES`, the population at 1,
`DIPOLE` and a three-time string. The scripts and tests import them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .classical import (
    ClassicalChain,
    compare_quantum_classical,
    diagonal_invariance_check,
)
from .collision import (
    CollisionConfig,
    collision_channel,
    ito_table_check,
    oracle_kernel_joint,
    oracle_kernel_sequential,
    step_unitary,
    vacuum_conditional_expectation,
)
from .linalg import (
    EXP_NORM_LIMIT,
    choi_matrix,
    dag,
    kron,
    mat_exp,
    min_hermitian_eig,
    partial_trace,
    unvec,
    vec,
)
from .model import (
    DensityOperator,
    SystemModel,
    atom_model,
    lindblad_heisenberg,
    lindblad_schrodinger,
)
from .regression import (
    CorrelationQuery,
    kernel_heisenberg,
    kernel_schrodinger,
)
from .semigroup import compiled_propagator, generator_matrix, propagators

EYE2 = np.eye(2, dtype=np.complex128)
SIGMA_MINUS = np.array([[0, 1], [0, 0]], dtype=np.complex128)
SIGMA_PLUS = np.array([[0, 0], [1, 0]], dtype=np.complex128)
NUMBER = np.array([[0, 0], [0, 1]], dtype=np.complex128)
EXCITED = DensityOperator(dim=2, rho=np.diag([0.0, 1.0]).astype(np.complex128))
EXCITED_KET = np.array([0.0, 1.0], dtype=np.complex128)

DIPOLE = CorrelationQuery(
    times=(0.5, 1.0), a_ops=(SIGMA_MINUS, EYE2), b_ops=(EYE2, SIGMA_MINUS)
)
ATOM_QUERIES = (
    CorrelationQuery(times=(1.0,), a_ops=(EYE2,), b_ops=(NUMBER,)),
    DIPOLE,
    CorrelationQuery(
        times=(0.25, 0.5, 1.0),
        a_ops=(EYE2, EYE2, EYE2),
        b_ops=(SIGMA_MINUS, SIGMA_PLUS, NUMBER),
    ),
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    measured: float
    bound: str
    passed: bool


def _le(name: str, measured: float, bound: float) -> CheckResult:
    return CheckResult(name, float(measured), f"<= {bound:g}", float(measured) <= bound)


def _ge(name: str, measured: float, bound: float) -> CheckResult:
    return CheckResult(name, float(measured), f">= {bound:g}", float(measured) >= bound)


def _in(name: str, measured: float, lo: float, hi: float) -> CheckResult:
    return CheckResult(
        name, float(measured), f"in [{lo:g}, {hi:g}]", lo <= float(measured) <= hi
    )


def random_model(rng: np.random.Generator, dim: int) -> SystemModel:
    """Random model with H, L normalized to unit Frobenius norm."""
    A = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    H = 0.5 * (A + dag(A))
    H /= np.linalg.norm(H)
    B = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return SystemModel(dim=dim, H=H, L=B / np.linalg.norm(B))


def random_density(rng: np.random.Generator, dim: int) -> DensityOperator:
    M = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = M @ dag(M)
    return DensityOperator(dim=dim, rho=rho / np.trace(rho))


def random_operator(
    rng: np.random.Generator, dim: int, hermitian: bool = False
) -> np.ndarray:
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    if hermitian:
        G = 0.5 * (G + dag(G))
    return G / np.linalg.norm(G)


def random_query(rng: np.random.Generator, dim: int, n: int) -> CorrelationQuery:
    times = tuple(np.sort(rng.uniform(0.0, 2.0, size=n)))
    a_ops = tuple(random_operator(rng, dim) for _ in range(n))
    b_ops = tuple(random_operator(rng, dim) for _ in range(n))
    return CorrelationQuery(times=times, a_ops=a_ops, b_ops=b_ops)


# ---------------------------------------------------------------------------
# linalg checks


def check_linalg(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    worst_prod = 0.0
    worst_adj = 0.0
    worst_ptrace = 0.0
    for _ in range(10):
        R = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        R /= np.linalg.norm(R)
        c = rng.standard_normal(6)
        eye = np.eye(3)
        M = c[0] * eye + c[1] * R + c[2] * R @ R
        N = c[3] * eye + c[4] * R + c[5] * R @ R
        worst_prod = max(
            worst_prod, np.linalg.norm(mat_exp(M + N) - mat_exp(M) @ mat_exp(N))
        )
        worst_adj = max(worst_adj, np.linalg.norm(dag(mat_exp(M)) - mat_exp(dag(M))))
        big = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        traced = partial_trace(big, (2, 3), keep=0)
        worst_ptrace = max(worst_ptrace, abs(np.trace(traced) - np.trace(big)))
    ints = [rng.integers(-3, 4, size=(2, 2)).astype(np.complex128) for _ in range(3)]
    assoc = np.abs(kron(kron(ints[0], ints[1]), ints[2]) - kron(ints[0], kron(ints[1], ints[2]))).max()
    return [
        _le("linalg.exp_commuting_product", worst_prod, 1e-10),
        _le("linalg.exp_adjoint", worst_adj, 1e-12),
        _le("linalg.partial_trace_preserves_trace", worst_ptrace, 1e-12),
        _le("linalg.kron_associative", assoc, 0.0),
    ]


# ---------------------------------------------------------------------------
# generator checks


def check_generators(seed: int, extra_models: list[SystemModel] = ()) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    models = [random_model(rng, d) for d in (2, 3, 4) for _ in range(3)]
    models += list(extra_models)
    worst_dual = 0.0
    worst_trace = 0.0
    worst_herm = 0.0
    worst_unital = 0.0
    for model in models:
        d = model.dim
        X = random_operator(rng, d)
        Y = random_operator(rng, d)
        lhs = np.trace(Y @ lindblad_heisenberg(model, X))
        rhs = np.trace(lindblad_schrodinger(model, Y) @ X)
        worst_dual = max(worst_dual, abs(lhs - rhs))
        worst_trace = max(worst_trace, abs(np.trace(lindblad_schrodinger(model, X))))
        Xh = random_operator(rng, d, hermitian=True)
        out_h = lindblad_heisenberg(model, Xh)
        out_s = lindblad_schrodinger(model, Xh)
        worst_herm = max(
            worst_herm,
            np.linalg.norm(out_h - dag(out_h)),
            np.linalg.norm(out_s - dag(out_s)),
        )
        worst_unital = max(
            worst_unital,
            np.abs(lindblad_heisenberg(model, np.eye(d, dtype=np.complex128))).max(),
        )
    return [
        _le("model.generator_duality", worst_dual, 1e-11),
        _le("model.trace_annihilation", worst_trace, 1e-11),
        _le("model.hermiticity_preservation", worst_herm, 1e-11),
        _le("model.unital_generator", worst_unital, 1e-12),
    ]


# ---------------------------------------------------------------------------
# semigroup checks


def check_semigroup(seed: int, extra_models: list[SystemModel] = ()) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    models = [random_model(rng, int(rng.integers(2, 5))) for _ in range(25)]
    models += list(extra_models)
    worst_choi = np.inf
    worst_tp = 0.0
    worst_law = 0.0
    worst_unital = 0.0
    worst_dual = 0.0
    worst_routes = 0.0
    for model in models:
        d = model.dim
        compiled = {p: compiled_propagator(model, p) for p in ("schrodinger", "heisenberg")}
        gen_s = compiled["schrodinger"].generator
        gen_h = compiled["heisenberg"].generator
        P_cptp = propagators(gen_s, (0.1, 0.5, 1.0, 5.0))
        for P in P_cptp.values():
            worst_choi = min(worst_choi, min_hermitian_eig(choi_matrix(P)))
            sigma = random_density(rng, d).rho
            evolved = unvec(P @ vec(sigma), d)
            worst_tp = max(worst_tp, abs(np.trace(evolved) - np.trace(sigma)))
        a, b = rng.uniform(0.0, 2.0, size=2)
        t = rng.uniform(0.1, 2.0)
        P_s = propagators(gen_s, (a + b, a, b, t))
        P_h = propagators(gen_h, (t,))
        worst_law = max(worst_law, np.linalg.norm(P_s[a + b] - P_s[a] @ P_s[b]))
        eye = np.eye(d, dtype=np.complex128)
        worst_unital = max(worst_unital, np.abs(unvec(P_h[t] @ vec(eye), d) - eye).max())
        X = random_operator(rng, d)
        Y = random_operator(rng, d)
        lhs = np.trace(Y @ unvec(P_h[t] @ vec(X), d))
        rhs = np.trace(unvec(P_s[t] @ vec(Y), d) @ X)
        worst_dual = max(worst_dual, abs(lhs - rhs))
        for picture, squared in (("schrodinger", {**P_cptp, **P_s}), ("heisenberg", P_h)):
            routes = compiled[picture]
            # plus one duration that scaling and squaring halves 3 times
            long = 4 * EXP_NORM_LIMIT / np.linalg.norm(routes.generator)
            squared = {**squared, **propagators(routes.generator, (long,))}
            steps = routes.steps(squared)
            for tau, P in squared.items():
                # the identity's columns are the vectorized matrix units vec(E_ij)
                worst_routes = max(worst_routes, np.abs(steps[tau](np.eye(d * d)) - P).max())
    return [
        _ge("semigroup.choi_min_eig", worst_choi, -1e-9),
        _le("semigroup.trace_preservation", worst_tp, 1e-10),
        _le("semigroup.law", worst_law, 1e-9),
        _le("semigroup.identity_preservation", worst_unital, 1e-10),
        _le("semigroup.duality", worst_dual, 1e-10),
        _le("semigroup.spectral_vs_squaring", worst_routes, 1e-12),
    ]


def check_finite_difference(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    model = random_model(rng, 3)
    sigma = random_density(rng, 3).rho
    exact = lindblad_schrodinger(model, sigma)
    P = propagators(generator_matrix(model, "schrodinger").mat, (1e-3, 5e-4))
    err = [np.linalg.norm((unvec(P[h] @ vec(sigma), 3) - sigma) / h - exact) for h in P]
    ratio = err[0] / err[1]
    return [_in("semigroup.forward_difference_ratio", ratio, 1.7, 2.3)]


# ---------------------------------------------------------------------------
# regression checks


def check_form_equivalence(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 5))
        model = random_model(rng, d)
        rho = random_density(rng, d)
        query = random_query(rng, d, int(rng.integers(1, 5)))
        ws = kernel_schrodinger(model, rho, query)
        wh = kernel_heisenberg(model, rho, query)
        worst = max(worst, abs(ws - wh))
    return [_le("regression.form_equivalence", worst, 1e-10)]


def check_kernel_structure(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    worst_sym = 0.0
    worst_gram = np.inf
    worst_collapse = 0.0
    for _ in range(6):
        d = int(rng.integers(2, 4))
        model = random_model(rng, d)
        rho = random_density(rng, d)
        query = random_query(rng, d, 2)
        swapped = CorrelationQuery(
            times=query.times, a_ops=query.b_ops, b_ops=query.a_ops
        )
        worst_sym = max(
            worst_sym,
            abs(
                kernel_schrodinger(model, rho, query)
                - np.conj(kernel_schrodinger(model, rho, swapped))
            ),
        )
        times = tuple(np.sort(rng.uniform(0.0, 1.5, size=2)))
        tuples = [
            tuple(random_operator(rng, d) for _ in range(2)) for _ in range(4)
        ]
        gram = np.array(
            [
                [
                    kernel_schrodinger(
                        model,
                        rho,
                        CorrelationQuery(times=times, a_ops=ti, b_ops=tj),
                    )
                    for tj in tuples
                ]
                for ti in tuples
            ]
        )
        worst_gram = min(worst_gram, min_hermitian_eig(gram))
        t1, t2 = np.sort(rng.uniform(0.0, 1.5, size=2))
        ops_a = [random_operator(rng, d) for _ in range(3)]
        ops_b = [random_operator(rng, d) for _ in range(3)]
        full = CorrelationQuery(
            times=(t1, t2, t2), a_ops=tuple(ops_a), b_ops=tuple(ops_b)
        )
        merged = CorrelationQuery(
            times=(t1, t2),
            a_ops=(ops_a[0], ops_a[2] @ ops_a[1]),
            b_ops=(ops_b[0], ops_b[2] @ ops_b[1]),
        )
        worst_collapse = max(
            worst_collapse,
            abs(
                kernel_schrodinger(model, rho, full)
                - kernel_schrodinger(model, rho, merged)
            ),
        )
    return [
        _le("regression.hermitian_symmetry", worst_sym, 1e-10),
        _ge("regression.gram_min_eig", worst_gram, -1e-9),
        _le("regression.coincident_times_collapse", worst_collapse, 1e-10),
    ]


def check_atom_closed_forms() -> list[CheckResult]:
    model = atom_model(1.0)
    population, dipole = (kernel_schrodinger(model, EXCITED, q) for q in ATOM_QUERIES[:2])
    return [
        _le("regression.atom_population", abs(population - np.exp(-1.0)), 1e-10),
        _le("regression.atom_dipole", abs(dipole - np.exp(-0.75)), 1e-10),
    ]


def check_order_dependence() -> list[CheckResult]:
    model = atom_model(1.0)
    base = dict(times=(0.5, 1.0), a_ops=(EYE2, EYE2))
    w1 = kernel_schrodinger(
        model, EXCITED, CorrelationQuery(b_ops=(SIGMA_MINUS, SIGMA_PLUS), **base)
    )
    w2 = kernel_schrodinger(
        model, EXCITED, CorrelationQuery(b_ops=(SIGMA_PLUS, SIGMA_MINUS), **base)
    )
    return [CheckResult("regression.order_dependence", abs(w1 - w2), "> 0.1", abs(w1 - w2) > 0.1)]


# ---------------------------------------------------------------------------
# collision checks


def check_step_unitarity(seed: int, extra_models: list[SystemModel] = ()) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    models = [atom_model(1.0), random_model(rng, 3)] + list(extra_models)
    worst = 0.0
    for model in models:
        for m in (2, 3):
            U = step_unitary(model, CollisionConfig(dt=0.01, trunc=m))
            worst = max(worst, np.linalg.norm(dag(U) @ U - np.eye(U.shape[0])))
    return [_le("collision.step_unitarity", worst, 1e-10)]


def check_channel_order(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    results = []
    for label, model in (("atom", atom_model(1.0)), ("random", random_model(rng, 2))):
        gen = generator_matrix(model, "schrodinger").mat

        def defect(dt: float) -> float:
            E = collision_channel(model, CollisionConfig(dt=dt, trunc=2))
            return np.linalg.norm(E - propagators(gen, (dt,))[dt])

        ratio = defect(0.02) / defect(0.01)
        results.append(_in(f"collision.channel_second_order_{label}", ratio, 3.2, 4.8))
    return results


def check_oracle_convergence() -> list[CheckResult]:
    # the joint state grows as m**N: run it at a quarter of the times (an exact division)
    model = atom_model(1.0)
    results = []
    for label, oracle, state, scale, dts in (
        ("sequential", oracle_kernel_sequential, EXCITED, 1, (1 / 256, 1 / 512)),
        ("joint", oracle_kernel_joint, EXCITED_KET, 4, (1 / 32, 1 / 64)),
    ):
        for n, query in enumerate(ATOM_QUERIES, start=1):
            query = replace(query, times=tuple(t / scale for t in query.times))
            exact = kernel_schrodinger(model, EXCITED, query)
            coarse, fine = (
                abs(oracle(model, state, query, CollisionConfig(dt=dt)) - exact) for dt in dts
            )
            results.append(_in(f"collision.{label}_halving_ratio_n{n}", coarse / fine, 1.7, 2.3))
    return results


def check_joint_matches_sequential() -> list[CheckResult]:
    model = atom_model(1.0)
    cfg = CollisionConfig(dt=1 / 16)
    seq = oracle_kernel_sequential(model, EXCITED, DIPOLE, cfg)
    joint = oracle_kernel_joint(model, EXCITED_KET, DIPOLE, cfg)
    return [_le("collision.joint_matches_sequential", abs(seq - joint), 1e-10)]


def check_truncation(seed: int) -> list[CheckResult]:
    # needs L with L @ L != 0, otherwise a slot never sees a second photon
    # and the truncations agree identically
    rng = np.random.default_rng(seed)
    model = random_model(rng, 2)
    rho = random_density(rng, 2)

    def channel_gap(dt: float) -> float:
        e2 = collision_channel(model, CollisionConfig(dt=dt, trunc=2))
        e3 = collision_channel(model, CollisionConfig(dt=dt, trunc=3))
        return np.linalg.norm(e2 - e3)

    ratio = channel_gap(1 / 32) / channel_gap(1 / 64)
    kernel_gap = abs(
        oracle_kernel_sequential(model, rho, DIPOLE, CollisionConfig(dt=1 / 32, trunc=2))
        - oracle_kernel_sequential(model, rho, DIPOLE, CollisionConfig(dt=1 / 32, trunc=3))
    )
    return [
        _in("collision.truncation_slot_gap_ratio", ratio, 3.2, 4.8),
        _le("collision.truncation_kernel_gap", kernel_gap, 5e-3),
    ]


def check_ito() -> list[CheckResult]:
    reports = [
        ito_table_check(CollisionConfig(dt=dt, trunc=m), f_vals=(1.0, 0.5), g_vals=(1.0, -2.0))
        for dt in (0.5, 0.01)
        for m in (2, 3)
    ]
    # the worst value over the reports against the tightest of their bounds
    return [
        _le("collision.ito_moments", max(r.moment_error for r in reports),
            min(r.moment_bound for r in reports)),
        _le("collision.ito_commutator", max(r.commutator_defect for r in reports),
            min(r.commutator_bound for r in reports)),
    ]


def check_conditional_expectation(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    d, m, slots = 2, 2, 3
    dim = d * m**slots
    worst_module = 0.0
    worst_tower = 0.0
    worst_markov = 0.0
    for _ in range(6):
        A = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        Bp = rng.standard_normal((d * m, d * m)) + 1j * rng.standard_normal((d * m, d * m))
        B = kron(Bp, np.eye(m ** (slots - 1), dtype=np.complex128))
        lhs = vacuum_conditional_expectation(A @ B, d, m, slots, cut=1)
        rhs = vacuum_conditional_expectation(A, d, m, slots, cut=1) @ Bp
        worst_module = max(worst_module, np.abs(lhs - rhs).max())
        inner = vacuum_conditional_expectation(A, d, m, slots, cut=2)
        two_step = vacuum_conditional_expectation(inner, d, m, 2, cut=1)
        one_step = vacuum_conditional_expectation(A, d, m, slots, cut=1)
        worst_tower = max(worst_tower, np.abs(two_step - one_step).max())
        # operator on system and slots 2..3 only; identity on slot 1
        part = rng.standard_normal((d * m * m,) * 2) + 1j * rng.standard_normal((d * m * m,) * 2)
        p6 = part.reshape(d, m, m, d, m, m)
        full = np.einsum("iacjbd,ef->ieacjfbd", p6, np.eye(m)).reshape(dim, dim)
        collapsed = vacuum_conditional_expectation(full, d, m, slots, cut=1)
        system_block = p6[:, 0, 0, :, 0, 0]
        worst_markov = max(
            worst_markov,
            np.abs(collapsed - kron(system_block, np.eye(m))).max(),
        )
    return [
        _le("collision.conditional_module_property", worst_module, 1e-12),
        _le("collision.conditional_tower", worst_tower, 1e-12),
        _le("collision.markov_collapse", worst_markov, 1e-12),
    ]


# ---------------------------------------------------------------------------
# classical checks


def check_classical(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    model = atom_model(1.0)
    Q_col = diagonal_invariance_check(model)
    atom_rates = np.array([[0.0, 1.0], [0.0, -1.0]])
    gen_err = np.inf if Q_col is None else np.abs(Q_col - atom_rates).max()
    chain = ClassicalChain(states=2, Q=Q_col.T, p0=np.array([0.0, 1.0]))
    worst_ck = 0.0
    worst_stoch = 0.0
    rates = rng.uniform(0.2, 2.0, size=(3, 3))
    Q3 = rates - np.diag(np.diag(rates))
    Q3 -= np.diag(Q3.sum(axis=1))
    chain3 = ClassicalChain(states=3, Q=Q3, p0=np.array([0.5, 0.3, 0.2]))
    for c in (chain, chain3):
        s, t = rng.uniform(0.1, 2.0, size=2)
        worst_ck = max(
            worst_ck,
            np.abs(c.transition_matrix(s + t) - c.transition_matrix(s) @ c.transition_matrix(t)).max(),
        )
        P = c.transition_matrix(t)
        worst_stoch = max(worst_stoch, max(0.0, -P.min()), np.abs(P.sum(axis=1) - 1).max())
    absorbing = compare_quantum_classical(
        model,
        EXCITED,
        CorrelationQuery(times=(0.5, 1.0), a_ops=(EYE2, EYE2), b_ops=(NUMBER, NUMBER)),
    )
    worst_diff = absorbing.diff
    exact_err = abs(absorbing.quantum - np.exp(-1.0))
    for n in (1, 2, 3, 4):
        probs = rng.uniform(0.1, 1.0, size=2)
        rho = DensityOperator(dim=2, rho=np.diag(probs / probs.sum()).astype(np.complex128))
        times = tuple(np.sort(rng.uniform(0.0, 2.0, size=n)))
        b_ops = tuple(np.diag(rng.uniform(-1.0, 1.0, size=2)).astype(np.complex128) for _ in range(n))
        a_ops = tuple(EYE2 for _ in range(n))
        result = compare_quantum_classical(
            model, rho, CorrelationQuery(times=times, a_ops=a_ops, b_ops=b_ops)
        )
        worst_diff = max(worst_diff, result.diff)
    return [
        _le("classical.atom_generator", gen_err, 1e-12),
        _le("classical.chapman_kolmogorov", worst_ck, 1e-10),
        _le("classical.stochasticity", worst_stoch, 1e-10),
        _le("classical.absorbing_two_point", exact_err, 1e-10),
        _le("classical.embedding_diff", worst_diff, 1e-10),
    ]


# ---------------------------------------------------------------------------


def run_all(seed: int = 0, extra_models: list[SystemModel] = ()) -> list[CheckResult]:
    """Every property suite; extra models join the randomized model pools."""
    extra = list(extra_models)
    results: list[CheckResult] = []
    results += check_linalg(seed)
    results += check_generators(seed + 1, extra)
    results += check_semigroup(seed + 2, extra_models=extra)
    results += check_finite_difference(seed + 3)
    results += check_form_equivalence(seed + 4)
    results += check_kernel_structure(seed + 5)
    results += check_atom_closed_forms()
    results += check_order_dependence()
    results += check_step_unitarity(seed + 6, extra)
    results += check_channel_order(seed + 7)
    results += check_oracle_convergence()
    results += check_joint_matches_sequential()
    results += check_truncation(seed + 8)
    results += check_ito()
    results += check_conditional_expectation(seed + 9)
    results += check_classical(seed + 10)
    return results
