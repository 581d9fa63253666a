"""Collision-model discretization of the vacuum field.

The field over [0, N*dt] is replaced by N ancilla slots, each a truncated
bosonic mode that meets the system exactly once.  The slot increment is
B = sqrt(dt) * a with a the truncated annihilator, which reproduces the
vacuum Ito moments (dt, 0, 0, 0) exactly and the canonical commutator below
the truncation level.  One collision applies

    U = exp(-i H (x) I dt + sqrt(dt) (L (x) a^dag - L^dag (x) a))

to system (x) slot; the exponential is exactly unitary and generates the
-(1/2) L^dag L dt drift automatically at second order in sqrt(dt).

Joint-space index order is system (x) slot_1 (x) ... (x) slot_N, with later
slots minor.  Kernels are evaluated here by two strategies that never touch
the semigroup machinery:

* ``oracle_kernel_sequential`` composes the one-collision reduced channel on
  density matrices, inserting b_k . a_k^dag at the query times;
* ``oracle_kernel_joint`` applies the two operator strings to a pair of pure
  joint states and takes their inner product, growing the state vector one
  vacuum slot at a time.  Its memory is d * m^N entries, gated by a budget.

Both converge to the exact kernels at first order in dt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    BudgetExceededError,
    DimensionError,
    GridAlignmentError,
    ValidationError,
)
from .linalg import as_complex_matrix, dag, mat_exp, unvec, vec
from .model import DensityOperator, SystemModel
from .regression import CorrelationQuery, _check_dims
from .semigroup import SuperOperator

GRID_ATOL = 1e-12
DEFAULT_BUDGET = 200_000
# the vacuum moments and the commutator below truncation are exact up to rounding
ITO_TOL = 1e-15


@dataclass(frozen=True)
class CollisionConfig:
    """Field discretization: step dt, ancilla truncation, entry budget.

    Each oracle run covers exactly the slots needed to reach the last query
    time.  ``budget`` caps the number of state-vector entries d * trunc**N a
    joint-mode run may allocate.
    """

    dt: float
    trunc: int = 2
    budget: int = DEFAULT_BUDGET

    def __post_init__(self):
        if not 0 < self.dt < math.inf:
            raise ValidationError(f"dt must be positive and finite, got {self.dt}")
        if self.trunc < 2:
            raise ValidationError(f"truncation must be >= 2, got {self.trunc}")
        if self.budget < 1:
            raise ValidationError(f"budget must be positive, got {self.budget}")


def grid_index(t: float, dt: float) -> int:
    """Slot index of a query time; rejects times off the dt grid."""
    k = int(round(t / dt))
    if abs(k * dt - t) > GRID_ATOL:
        raise GridAlignmentError(f"time {t} is not a multiple of dt = {dt}")
    return k


def slot_annihilator(trunc: int) -> np.ndarray:
    """Truncated harmonic annihilator, a[k-1, k] = sqrt(k)."""
    if trunc < 2:
        raise ValidationError(f"truncation must be >= 2, got {trunc}")
    a = np.zeros((trunc, trunc), dtype=np.complex128)
    for k in range(1, trunc):
        a[k - 1, k] = np.sqrt(k)
    return a


def step_unitary(model: SystemModel, cfg: CollisionConfig) -> np.ndarray:
    """One-collision unitary on system (x) slot."""
    a = slot_annihilator(cfg.trunc)
    eye_slot = np.eye(cfg.trunc, dtype=np.complex128)
    gen = -1j * cfg.dt * np.kron(model.H, eye_slot) + np.sqrt(cfg.dt) * (
        np.kron(model.L, dag(a)) - np.kron(dag(model.L), a)
    )
    return mat_exp(gen)


def collision_channel(model: SystemModel, cfg: CollisionConfig) -> SuperOperator:
    """Reduced one-step channel E(s) = Tr_slot(U (s (x) |0><0|) U^dag).

    Returned in the column-stacking convention; its Kraus operators are the
    slot-output blocks K_k = <k| U |0> acting on the system.
    """
    U = step_unitary(model, cfg)
    d, m = model.dim, cfg.trunc
    U4 = U.reshape(d, m, d, m)
    mat = np.zeros((d * d, d * d), dtype=np.complex128)
    for k in range(m):
        kraus = U4[:, k, :, 0]
        mat += np.kron(kraus.conj(), kraus)
    return SuperOperator(dim=d, mat=mat)


def oracle_kernel_sequential(
    model: SystemModel,
    rho: DensityOperator,
    query: CorrelationQuery,
    cfg: CollisionConfig,
) -> complex:
    """Kernel from repeated collision channels on a generalized state."""
    _check_dims(model, rho, query)
    indices = [grid_index(t, cfg.dt) for t in query.times]
    channel = collision_channel(model, cfg).mat
    d = model.dim
    v = vec(rho.rho)
    done = 0
    for k, idx in enumerate(indices):
        if idx > done:
            v = np.linalg.matrix_power(channel, idx - done) @ v
            done = idx
        if k < query.n - 1:
            sigma = query.b_ops[k] @ unvec(v, d) @ dag(query.a_ops[k])
            v = vec(sigma)
    sigma = unvec(v, d)
    return complex(np.trace(query.b_ops[-1] @ sigma @ dag(query.a_ops[-1])))


def _collide(state: np.ndarray, U4: np.ndarray, d: int, m: int) -> np.ndarray:
    """Append a vacuum slot as the minor index and apply the step unitary."""
    grown = state.reshape(d, -1, 1) * np.eye(m, dtype=np.complex128)[0]
    return np.einsum("iajb,jkb->ika", U4, grown).reshape(-1)


def _apply_system(op: np.ndarray, state: np.ndarray, d: int) -> np.ndarray:
    return (op @ state.reshape(d, -1)).reshape(-1)


def oracle_kernel_joint(
    model: SystemModel,
    psi0,
    query: CorrelationQuery,
    cfg: CollisionConfig,
) -> complex:
    """Kernel as the inner product of two operator-string joint states.

    Both strings share every collision unitary, so the propagation past the
    last query time cancels and the sweep stops there.  The initial system
    state must be pure; mixed states go through
    :func:`oracle_kernel_joint_mixed`.
    """
    psi = np.asarray(psi0, dtype=np.complex128).reshape(-1)
    if psi.size != model.dim or query.dim != model.dim:
        raise DimensionError(
            f"dimension mismatch: model {model.dim}, psi {psi.size}, query {query.dim}"
        )
    if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
        raise ValidationError(f"initial state norm {np.linalg.norm(psi):.12g} is not 1")
    indices = [grid_index(t, cfg.dt) for t in query.times]
    d, m = model.dim, cfg.trunc
    entries = d * m ** indices[-1]
    if entries > cfg.budget:
        raise BudgetExceededError(
            f"joint state needs {entries} entries for {indices[-1]} slots, "
            f"budget is {cfg.budget}"
        )
    U4 = step_unitary(model, cfg).reshape(d, m, d, m)
    phi_a = psi.copy()
    phi_b = psi.copy()
    done = 0
    for k, idx in enumerate(indices):
        while done < idx:
            phi_a = _collide(phi_a, U4, d, m)
            phi_b = _collide(phi_b, U4, d, m)
            done += 1
        phi_a = _apply_system(query.a_ops[k], phi_a, d)
        phi_b = _apply_system(query.b_ops[k], phi_b, d)
    return complex(np.vdot(phi_a, phi_b))


def oracle_kernel_joint_mixed(
    model: SystemModel,
    rho: DensityOperator,
    query: CorrelationQuery,
    cfg: CollisionConfig,
) -> complex:
    """Joint-mode kernel for a mixed state via its eigenvector ensemble."""
    weights, vectors = np.linalg.eigh(rho.rho)
    total = 0.0 + 0.0j
    for w, v in zip(weights, vectors.T):
        if w > 1e-12:
            total += w * oracle_kernel_joint(model, v / np.linalg.norm(v), query, cfg)
    return complex(total)


def vacuum_conditional_expectation(
    X,
    sys_dim: int,
    trunc: int,
    n_slots: int,
    cut: int,
) -> np.ndarray:
    """Contract the slots after ``cut`` against the vacuum on both sides.

    Maps an operator on system (x) slots 1..N to one on system (x) slots
    1..cut.  Operators of the form Y (x) I on the future factor are left
    fixed, which is the discrete adaptedness statement.
    """
    X = as_complex_matrix(X, "X")
    total = sys_dim * trunc**n_slots
    if X.shape != (total, total):
        raise DimensionError(
            f"operator is {X.shape}, expected {(total, total)} for "
            f"d={sys_dim}, m={trunc}, N={n_slots}"
        )
    if not 0 <= cut <= n_slots:
        raise DimensionError(f"cut {cut} outside 0..{n_slots}")
    keep = sys_dim * trunc**cut
    rest = trunc ** (n_slots - cut)
    return np.array(X.reshape(keep, rest, keep, rest)[:, 0, :, 0])


@dataclass(frozen=True)
class ItoReport:
    """Vacuum moments of the slot increment and the commutator defect."""

    dt: float
    trunc: int
    bb_dag: complex
    bdag_b: complex
    bb: complex
    bdag_bdag: complex
    commutator_defect: float

    @property
    def moments(self) -> tuple[complex, complex, complex, complex]:
        return (self.bb_dag, self.bdag_b, self.bb, self.bdag_bdag)

    @property
    def moment_error(self) -> float:
        expected = (self.dt, 0.0, 0.0, 0.0)
        return max(abs(m - e) for m, e in zip(self.moments, expected))


def _field_quadrature(f_vals: Sequence[complex], cfg: CollisionConfig) -> np.ndarray:
    """B(f) = sum_j conj(f_j) sqrt(dt) a_j on the bare multi-slot space."""
    m = cfg.trunc
    n = len(f_vals)
    a = slot_annihilator(m)
    eye = np.eye(m, dtype=np.complex128)
    out = np.zeros((m**n, m**n), dtype=np.complex128)
    for j, fj in enumerate(f_vals):
        factors = [eye] * n
        factors[j] = a
        term = factors[0]
        for fac in factors[1:]:
            term = np.kron(term, fac)
        out += np.conj(fj) * np.sqrt(cfg.dt) * term
    return out


def ito_table_check(
    cfg: CollisionConfig,
    f_vals: Sequence[complex] = (1.0,),
    g_vals: Sequence[complex] | None = None,
) -> ItoReport:
    """Vacuum moments of B = sqrt(dt) a plus a commutator cross-check.

    The four moments <0|BB^dag|0>, <0|B^dag B|0>, <0|BB|0>, <0|B^dag B^dag|0>
    come out (dt, 0, 0, 0).  The commutator [B(f), B^dag(g)] is compared to
    sum_j conj(f_j) g_j dt on the multi-slot subspace below the truncation
    level, where the canonical commutation relation is exact.
    """
    if g_vals is None:
        g_vals = f_vals
    if len(f_vals) != len(g_vals):
        raise DimensionError(
            f"step functions differ in slot count: {len(f_vals)} vs {len(g_vals)}"
        )
    m = cfg.trunc
    B = np.sqrt(cfg.dt) * slot_annihilator(m)
    moments = (
        complex((B @ dag(B))[0, 0]),
        complex((dag(B) @ B)[0, 0]),
        complex((B @ B)[0, 0]),
        complex((dag(B) @ dag(B))[0, 0]),
    )
    Bf = _field_quadrature(f_vals, cfg)
    Bg = _field_quadrature(g_vals, cfg)
    comm = Bf @ dag(Bg) - dag(Bg) @ Bf
    expected = sum(np.conj(f) * g for f, g in zip(f_vals, g_vals)) * cfg.dt
    defect_mat = comm - expected * np.eye(comm.shape[0], dtype=np.complex128)
    below = [
        idx
        for idx in range(m ** len(f_vals))
        if all((idx // m**p) % m < m - 1 for p in range(len(f_vals)))
    ]
    defect = float(np.abs(defect_mat[np.ix_(below, below)]).max())
    return ItoReport(
        dt=cfg.dt,
        trunc=m,
        bb_dag=moments[0],
        bdag_b=moments[1],
        bb=moments[2],
        bdag_bdag=moments[3],
        commutator_defect=defect,
    )
