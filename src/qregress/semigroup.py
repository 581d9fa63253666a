"""Superoperator matrices for the Markov generators and their propagators.

Everything here follows the column-stacking convention fixed in
:mod:`qregress.linalg`: the map X -> A X B is the matrix kron(B.T, A).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .errors import DimensionError, TimeOrderError, ValidationError
from .linalg import EXP_NORM_LIMIT, as_complex_matrix, dag, kron, mat_exp, unvec, vec
from .model import SystemModel

PICTURES = ("heisenberg", "schrodinger")

# Each squaring doubles the rounding error of the modes that do not decay, so
# k halvings cost about 2**k ulps: at k = 16 the stationary state of random
# d = 2..8 models stayed within 6e-11 (bound 1e-10); longer ones are rejected.
MAX_HALVINGS = 16
# Just under mat_exp's limit: ||G|| * tau and ||G * tau|| differ in the last bits.
_SPLIT_NORM = EXP_NORM_LIMIT * (1 - 1e-9)
# The eigenvector route's error grows like kappa_1 * eps: its largest entrywise
# difference from scaling and squaring was 2.3e-13 at kappa_1 = 5.2e3 and
# 5.6e-13 at 1.65e4, while random models of d = 2..16 stay below 1.1e3.
# Generators at or near an exceptional point (kappa_1 = 2.3e8 for the driven
# qubit at Omega = 1/4) are left to scaling and squaring.
SPECTRAL_COND_LIMIT = 1e4


@dataclass(frozen=True)
class SuperOperator:
    """Matrix representation of a linear map on d x d system operators."""

    dim: int
    mat: np.ndarray

    def __post_init__(self):
        mat = as_complex_matrix(self.mat, "superoperator matrix")
        if mat.shape != (self.dim**2, self.dim**2):
            raise DimensionError(
                f"superoperator matrix is {mat.shape}, expected "
                f"{(self.dim**2, self.dim**2)}"
            )
        object.__setattr__(self, "mat", mat)

    def apply(self, X) -> np.ndarray:
        X = as_complex_matrix(X, "X")
        if X.shape != (self.dim, self.dim):
            raise DimensionError(f"operand has shape {X.shape}, expected dim {self.dim}")
        return unvec(self.mat @ vec(X), self.dim)


def generator_matrix(model: SystemModel, picture: str) -> SuperOperator:
    """Matrix of the Markov generator in the requested picture."""
    H, L, d = model.H, model.L, model.dim
    eye = np.eye(d, dtype=np.complex128)
    LdL = dag(L) @ L
    decay = -0.5 * (kron(eye, LdL) + kron(LdL.T, eye))
    hamil = kron(H.T, eye) - kron(eye, H)
    if picture == "schrodinger":
        mat = kron(L.conj(), L) + decay + 1j * hamil
    elif picture == "heisenberg":
        mat = kron(L.T, dag(L)) + decay - 1j * hamil
    else:
        raise ValueError(f"picture must be one of {PICTURES}, got {picture!r}")
    return SuperOperator(dim=d, mat=mat)


def _halvings(tau, gen_norm: float) -> int:
    """Fewest halvings k with ||G|| tau / 2**k under the limit; rejects bad durations."""
    if not math.isfinite(tau):
        raise ValidationError(f"duration must be finite, got {tau}")
    if tau < 0:
        raise TimeOrderError(f"negative duration {tau}")
    excess = gen_norm * tau / _SPLIT_NORM
    if excess > 2.0**MAX_HALVINGS:
        raise ValidationError(
            f"duration {tau} needs more than {MAX_HALVINGS} halvings to bring "
            f"||G|| tau = {gen_norm * tau:.3g} under {EXP_NORM_LIMIT}")
    return math.ceil(math.log2(excess)) if excess > 1.0 else 0


def propagators(generator: np.ndarray, durations) -> dict[float, np.ndarray]:
    """exp(generator * tau) for each distinct duration tau >= 0.

    A duration whose exponent exceeds ``EXP_NORM_LIMIT`` is split exactly,
    exp(G tau) = exp(G tau / 2**k)**(2**k), with the fewest halvings k that
    suffice; k = 0 exponentiates ``generator * tau`` itself.
    """
    # a Python float: an overflowing ||G|| tau is then inf, and rejected
    gen_norm = float(np.linalg.norm(generator))
    out: dict[float, np.ndarray] = {}
    for tau in durations:
        if tau in out:
            continue
        k = _halvings(tau, gen_norm)
        P = mat_exp(generator * math.ldexp(tau, -k))
        for _ in range(k):
            P = P @ P
        out[tau] = P
    return out


def propagator(generator: SuperOperator, duration: float) -> SuperOperator:
    """exp(generator * duration) as a superoperator; duration must be >= 0."""
    return SuperOperator(dim=generator.dim, mat=propagators(generator.mat, (duration,))[duration])


class CompiledPropagator:
    """exp(G tau) of one generator G as maps on vec(X), for any durations.

    Built once per (model, picture) by :func:`compiled_propagator`.  When G =
    V diag(lam) V^-1 has a well-conditioned eigenvector matrix, every step is
    matrix-free, v -> V (exp(lam tau) * (V^-1 v)), at O(d^4) per step instead
    of an O(d^6) exponential (the eigenvector method, Moler & Van Loan 2003).
    A defective or ill-conditioned G takes :func:`propagators` (scaling and
    squaring) for every duration.  Both routes accept and reject the same
    durations.
    """

    def __init__(self, generator: np.ndarray):
        self.generator = generator
        self._norm = float(np.linalg.norm(generator))
        # kappa_1 = ||V||_1 ||V^-1||_1; inf when no usable decomposition exists
        self.cond = math.inf
        self._eig = None
        try:
            lam, V = np.linalg.eig(generator)
            V_inv = np.linalg.inv(V)
        except np.linalg.LinAlgError:
            return
        if np.isfinite(V_inv).all():
            self.cond = float(np.linalg.norm(V, 1)) * float(np.linalg.norm(V_inv, 1))
        if self.cond <= SPECTRAL_COND_LIMIT:
            self._eig = (lam, V, V_inv)

    @property
    def spectral(self) -> bool:
        return self._eig is not None

    def steps(self, durations) -> dict[float, Callable[[np.ndarray], np.ndarray]]:
        """v -> exp(G tau) v for each distinct duration tau >= 0.

        v may also be a matrix, whose columns are then mapped one by one.
        """
        if self._eig is None:
            return {tau: P.__matmul__ for tau, P in propagators(self.generator, durations).items()}
        lam, V, V_inv = self._eig
        out = {}
        for tau in durations:
            if tau not in out:
                _halvings(tau, self._norm)
                out[tau] = partial(_spectral_step, V, np.exp(lam * tau), V_inv)
        return out


def _spectral_step(V, decay, V_inv, v):
    # v is one vector or a matrix of column vectors; decay scales the rows
    return V @ (decay * (V_inv @ v).T).T


def compiled_propagator(model: SystemModel, picture: str) -> CompiledPropagator:
    """The model's compiled propagator in one picture, built on first use.

    It is kept on the model, whose H and L are read-only, so it never goes
    stale; the two pictures never share a decomposition.
    """
    cache = model._propagators
    if picture not in cache:
        cache[picture] = CompiledPropagator(generator_matrix(model, picture).mat)
    return cache[picture]
