"""Commutative cross-check against a classical continuous-time Markov chain.

When the Schrodinger-picture generator maps diagonal matrices to diagonal
matrices, its restriction to the diagonal defines a classical rate generator,
and multi-time kernels of diagonal observables must equal ordinary chain
correlations computed by a brute-force path sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import BudgetExceededError, DimensionError, TimeOrderError, ValidationError
from .linalg import matrix_unit
from .model import DensityOperator, SystemModel, lindblad_schrodinger
from .regression import CorrelationQuery, kernel_schrodinger
from .semigroup import propagators

CHAIN_TOL = 1e-12
DIAGONAL_TOL = 1e-12
# the path sum holds every path weight at once: 2**22 float64 weights are 32 MB
PATH_BUDGET = 2**22


@dataclass(frozen=True)
class ClassicalChain:
    """CTMC with row-convention generator: off-diagonal rates, rows sum to 0."""

    states: int
    Q: np.ndarray
    p0: np.ndarray

    def __post_init__(self):
        Q = np.asarray(self.Q, dtype=np.float64)
        p0 = np.asarray(self.p0, dtype=np.float64).reshape(-1)
        r = self.states
        if Q.shape != (r, r):
            raise DimensionError(f"Q has shape {Q.shape}, expected {(r, r)}")
        if p0.size != r:
            raise DimensionError(f"p0 has {p0.size} entries, expected {r}")
        off = Q - np.diag(np.diag(Q))
        if off.min() < -CHAIN_TOL:
            raise ValidationError(f"negative off-diagonal rate {off.min():.3g}")
        if np.abs(Q.sum(axis=1)).max() > CHAIN_TOL:
            raise ValidationError("generator rows do not sum to zero")
        if p0.min() < -CHAIN_TOL:
            raise ValidationError(f"negative initial probability {p0.min():.3g}")
        if abs(p0.sum() - 1.0) > CHAIN_TOL:
            raise ValidationError(f"initial distribution sums to {p0.sum():.12g}")
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "p0", p0)

    def transition_matrix(self, t: float) -> np.ndarray:
        """P(t) = exp(Q t), stochastic for t >= 0."""
        return propagators(self.Q, (t,))[t].real


def classical_correlation(
    chain: ClassicalChain,
    times: Sequence[float],
    f_list: Sequence[Sequence[float]],
) -> float:
    """E[f_n(X_{t_n}) ... f_1(X_{t_1})] by explicit path enumeration."""
    times = [float(t) for t in times]
    if len(times) != len(f_list):
        raise DimensionError(f"{len(times)} times but {len(f_list)} functions")
    if len(times) < 1:
        raise ValidationError("need at least one time")
    if times[0] < 0 or any(t2 < t1 for t1, t2 in zip(times, times[1:])):
        raise TimeOrderError(f"times must be nondecreasing and >= 0, got {times}")
    r, n = chain.states, len(times)
    # r >= 2 makes r**n exceed the budget from its bit length on; the power
    # is not formed there, as for a long query it would be huge
    too_many = r > 1 and n >= PATH_BUDGET.bit_length()
    paths = f"{r}**{n}" if too_many else r**n
    if too_many or paths > PATH_BUDGET:
        raise BudgetExceededError(
            f"path sum needs {paths} paths for {n} times, budget is {PATH_BUDGET}"
        )
    fs = [np.asarray(f, dtype=np.float64).reshape(-1) for f in f_list]
    for f in fs:
        if f.size != r:
            raise DimensionError(f"observable has {f.size} entries, expected {r}")
    # W[(i_1 ... i_k), i_k] is the weight of one path up to t_k; each time
    # extends every path by every next state, so all r**n weights are formed
    W = (chain.p0 @ chain.transition_matrix(times[0]) * fs[0])[None, :]
    for t1, t2, f in zip(times, times[1:], fs[1:]):
        W = (W[:, :, None] * (chain.transition_matrix(t2 - t1) * f)).reshape(-1, r)
    return float(W.sum())


def diagonal_invariance_check(model: SystemModel) -> np.ndarray | None:
    """Does the Schrodinger generator preserve the diagonal subalgebra?

    If yes, returns the induced rate generator with Q[j, i] the rate from
    basis state i to j; its columns sum to zero (transpose it for
    :class:`ClassicalChain`, which uses the row convention).  If not,
    returns None.
    """
    d = model.dim
    Q = np.zeros((d, d))
    for i in range(d):
        image = lindblad_schrodinger(model, matrix_unit(d, i, i))
        off = image - np.diag(np.diag(image))
        if np.abs(off).max() > DIAGONAL_TOL:
            return None
        column = np.diag(image)
        if np.abs(column.imag).max() > DIAGONAL_TOL:
            return None
        Q[:, i] = column.real
    return Q


class ComparisonResult(NamedTuple):
    """Both kernel values, their gap, and the rate generator (column convention)."""

    quantum: complex
    classical: float
    diff: float
    generator: np.ndarray


def compare_quantum_classical(
    model: SystemModel,
    rho: DensityOperator,
    query: CorrelationQuery,
) -> ComparisonResult:
    """Quantum kernel vs classical path sum on diagonal observables.

    Requires a diagonal-invariant model, diagonal rho, diagonal Hermitian
    b operators, and identity a operators; violations raise instead of being
    silently ignored.
    """
    Q_col = diagonal_invariance_check(model)
    if Q_col is None:
        raise ValidationError("model does not preserve the diagonal subalgebra")
    d = model.dim
    off = rho.rho - np.diag(np.diag(rho.rho))
    if np.abs(off).max() > DIAGONAL_TOL:
        raise ValidationError("rho is not diagonal")
    eye = np.eye(d, dtype=np.complex128)
    f_list = []
    for k, (a, b) in enumerate(zip(query.a_ops, query.b_ops)):
        if np.abs(a - eye).max() > DIAGONAL_TOL:
            raise ValidationError(f"a_ops[{k}] is not the identity")
        if np.abs(b - np.diag(np.diag(b))).max() > DIAGONAL_TOL:
            raise ValidationError(f"b_ops[{k}] is not diagonal")
        if np.abs(np.diag(b).imag).max() > DIAGONAL_TOL:
            raise ValidationError(f"b_ops[{k}] is not Hermitian")
        f_list.append(np.diag(b).real)
    chain = ClassicalChain(states=d, Q=Q_col.T, p0=np.diag(rho.rho).real)
    # the path sum first: its size gate rejects before any kernel work
    classical = classical_correlation(chain, query.times, f_list)
    quantum = kernel_schrodinger(model, rho, query)
    return ComparisonResult(quantum, classical, abs(quantum - classical), Q_col)
