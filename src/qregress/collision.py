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
slots minor; ``vacuum_conditional_expectation`` works in that order.  Kernels
are evaluated here by two strategies that never touch the semigroup
machinery; the channel and U are plain arrays:

* ``oracle_kernel_sequential`` composes the one-collision reduced channel on
  density matrices, inserting b_k . a_k^dag at the query times;
* ``oracle_kernel_joint`` applies the two operator strings to a pair of pure
  joint states and takes their inner product, growing the state vector one
  vacuum slot at a time.  A mixed state rho = Psi Psi^dag enters as the
  columns of Psi, swept one at a time with one U: the memory stays d * m^N
  entries, gated by a budget.
  It keeps the newest slot next to the system (system (x) slot_N (x) ... (x)
  slot_1), so a collision is one matrix product with no transpose; the
  inner product does not depend on the order of the slots.

Both converge to the exact kernels at first order in dt.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    BudgetExceededError,
    DimensionError,
    GridAlignmentError,
    ValidationError,
)
from .linalg import as_complex_matrix, dag, kron, mat_exp, unvec, vec
from .model import STATE_NORM_TOL, DensityOperator, SystemModel
from .regression import CorrelationQuery, _check_dims

GRID_ATOL = 1e-12
DEFAULT_BUDGET = 200_000
# the vacuum moments and the commutator below truncation are exact up to
# rounding, which scales with the compared entries (ItoReport's bounds)
ITO_TOL = 1e-15
UNIT_ROUNDOFF = 2.0**-53
MOMENT_NAMES = ("bb_dag", "bdag_b", "bb", "bdag_bdag")


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
        # an integer, so the joint oracle's entry count is compared exactly
        if not isinstance(self.budget, numbers.Integral) or self.budget < 1:
            raise ValidationError(f"budget must be a positive integer, got {self.budget}")


def grid_index(t: float, dt: float) -> int:
    """Slot index of a query time; rejects times off the dt grid."""
    slots = t / dt
    if not math.isfinite(slots):  # a subnormal dt
        raise ValidationError(f"time {t} spans too many steps of dt = {dt} to count")
    k = int(round(slots))
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
    gen = -1j * cfg.dt * kron(model.H, eye_slot) + np.sqrt(cfg.dt) * (
        kron(model.L, dag(a)) - kron(dag(model.L), a)
    )
    return mat_exp(gen)


def collision_channel(model: SystemModel, cfg: CollisionConfig) -> np.ndarray:
    """Reduced one-step channel E(s) = Tr_slot(U (s (x) |0><0|) U^dag).

    A d^2 x d^2 array in the column-stacking convention; its Kraus operators
    are the slot-output blocks K_k = <k| U |0> acting on the system.
    """
    U = step_unitary(model, cfg)
    d, m = model.dim, cfg.trunc
    U4 = U.reshape(d, m, d, m)
    mat = np.zeros((d * d, d * d), dtype=np.complex128)
    for k in range(m):
        kraus = U4[:, k, :, 0]
        mat += kron(kraus.conj(), kraus)
    return mat


def oracle_kernel_sequential(
    model: SystemModel,
    rho: DensityOperator,
    query: CorrelationQuery,
    cfg: CollisionConfig,
) -> complex:
    """Kernel from repeated collision channels on a generalized state."""
    _check_dims(model, rho, query)
    indices = [grid_index(t, cfg.dt) for t in query.times]
    # N channel powers carry about N * u rounding error (u = 2**-53), which
    # passes the O(dt) discretization error once N * u > dt
    if indices[-1] * UNIT_ROUNDOFF > cfg.dt:
        raise ValidationError(
            f"dt = {cfg.dt} is below the rounding floor of {indices[-1]} channel "
            f"steps: N * 2**-53 = {indices[-1] * UNIT_ROUNDOFF:.3g} exceeds dt"
        )
    channel = collision_channel(model, cfg)
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


def oracle_kernel_joint(
    model: SystemModel,
    psi0,
    query: CorrelationQuery,
    cfg: CollisionConfig,
) -> complex:
    """Kernel as the inner product of two operator-string joint states.

    ``psi0`` is a ket or a d x r factor Psi of rho = Psi Psi^dag, with
    ||Psi||_F = 1; the columns share U and are swept one at a time.  Both
    strings share every collision unitary, so the propagation past the last
    query time cancels and the sweep stops there.
    """
    factor = np.asarray(psi0, dtype=np.complex128)
    factor = factor if factor.ndim == 2 else factor.reshape(-1, 1)
    if factor.shape[0] != model.dim or query.dim != model.dim:
        raise DimensionError(
            f"dimension mismatch: model {model.dim}, psi {factor.shape[0]}, query {query.dim}"
        )
    if abs(np.linalg.norm(factor) - 1.0) > STATE_NORM_TOL:
        raise ValidationError(f"initial state norm {np.linalg.norm(factor):.12g} is not 1")
    indices = [grid_index(t, cfg.dt) for t in query.times]
    d, m, slots = model.dim, cfg.trunc, indices[-1]
    # m >= 2, so m**slots alone exceeds the budget from its bit length on; the
    # power is not formed there, as for a tiny dt it would never finish
    too_many = slots >= int(cfg.budget).bit_length()
    entries = f"{d} * {m}**{slots}" if too_many else d * m**slots
    if too_many or entries > cfg.budget:
        raise BudgetExceededError(
            f"joint state needs {entries} entries for {slots} slots, "
            f"budget is {cfg.budget}"
        )
    # every slot enters in the vacuum, so only U's input column |0> acts
    U0 = step_unitary(model, cfg).reshape(d, m, d, m)[:, :, :, 0].reshape(d * m, d)
    total = 0j
    for column in factor.T:
        phis = np.stack([column, column]).reshape(2, d, 1)  # the a- and b-strings
        done = 0
        for k, idx in enumerate(indices):
            for _ in range(idx - done):
                phis = (U0 @ phis).reshape(2, d, -1)
            done = idx
            phis = np.stack([query.a_ops[k], query.b_ops[k]]) @ phis
        total += np.vdot(phis[0], phis[1])
    return complex(total)


def oracle_kernel_joint_mixed(
    model: SystemModel,
    rho: DensityOperator,
    query: CorrelationQuery,
    cfg: CollisionConfig,
) -> complex:
    """Joint-mode kernel for a mixed state via its eigenvector factor."""
    _check_dims(model, rho, query)
    weights, vectors = np.linalg.eigh(rho.rho)
    keep = weights > 1e-12
    # a valid rho's trace and negative eigenvalues may each be 1e-10 off, so
    # the factor is normalized and the kept weight restored on the kernel
    kept = weights[keep].sum()
    factor = vectors[:, keep] * np.sqrt(weights[keep] / kept)
    return complex(kept * oracle_kernel_joint(model, factor, query, cfg))


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
    """Vacuum moments of the slot increment (``MOMENT_NAMES``) and the commutator defect."""

    dt: float
    trunc: int
    moments: tuple[complex, complex, complex, complex]
    commutator_defect: float

    @property
    def expected(self) -> tuple[float, float, float, float]:
        """The vacuum Ito table (dt, 0, 0, 0)."""
        return (self.dt, 0.0, 0.0, 0.0)

    @property
    def moment_error(self) -> float:
        return max(abs(m - e) for m, e in zip(self.moments, self.expected))

    @property
    def moment_bound(self) -> float:
        """``ITO_TOL`` times max(1, dt): the moments are O(dt), so is their rounding."""
        return ITO_TOL * max(1.0, self.dt)

    @property
    def commutator_bound(self) -> float:
        """``ITO_TOL`` times max(1, dt (trunc - 1)), the largest entry of B B^dag compared."""
        return ITO_TOL * max(1.0, self.dt * (self.trunc - 1))


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
            term = kron(term, fac)
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
    return ItoReport(dt=cfg.dt, trunc=m, moments=moments, commutator_defect=defect)
