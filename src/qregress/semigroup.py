"""Superoperator matrices for the Markov generators and their propagators.

Everything here follows the column-stacking convention fixed in
:mod:`qregress.linalg`: the map X -> A X B is the matrix kron(B.T, A).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def propagators(generator: np.ndarray, durations) -> dict[float, np.ndarray]:
    """exp(generator * tau) for each distinct duration tau >= 0.

    A duration whose exponent exceeds ``EXP_NORM_LIMIT`` is split exactly,
    exp(G tau) = exp(G tau / 2**k)**(2**k), with the fewest halvings k that
    suffice; k = 0 exponentiates ``generator * tau`` itself.
    """
    gen_norm = np.linalg.norm(generator)
    out: dict[float, np.ndarray] = {}
    for tau in durations:
        if tau in out:
            continue
        if not math.isfinite(tau):
            raise ValidationError(f"duration must be finite, got {tau}")
        if tau < 0:
            raise TimeOrderError(f"negative duration {tau}")
        excess = gen_norm * tau / _SPLIT_NORM
        if excess > 2.0**MAX_HALVINGS:
            raise ValidationError(
                f"duration {tau} needs more than {MAX_HALVINGS} halvings to bring "
                f"||G|| tau = {gen_norm * tau:.3g} under {EXP_NORM_LIMIT}")
        k = math.ceil(math.log2(excess)) if excess > 1.0 else 0
        P = mat_exp(generator * math.ldexp(tau, -k))
        for _ in range(k):
            P = P @ P
        out[tau] = P
    return out


def propagator(generator: SuperOperator, duration: float) -> SuperOperator:
    """exp(generator * duration) as a superoperator; duration must be >= 0."""
    return SuperOperator(dim=generator.dim, mat=propagators(generator.mat, (duration,))[duration])
