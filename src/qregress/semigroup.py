"""Superoperator matrices for the Markov generators and their propagators.

Everything here follows the column-stacking convention fixed in
:mod:`qregress.linalg`: the map X -> A X B is the matrix kron(B.T, A).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, TimeOrderError
from .linalg import as_complex_matrix, dag, kron, mat_exp, unvec, vec
from .model import SystemModel

PICTURES = ("heisenberg", "schrodinger")


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


def propagator(generator: SuperOperator, duration: float) -> SuperOperator:
    """exp(generator * duration) as a superoperator; duration must be >= 0."""
    if duration < 0:
        raise TimeOrderError(f"negative duration {duration}")
    return SuperOperator(dim=generator.dim, mat=mat_exp(generator.mat * duration))


def propagate(model: SystemModel, sigma, s: float, t: float) -> np.ndarray:
    """Schrodinger-picture evolution of sigma from time s to t >= s."""
    if t < s:
        raise TimeOrderError(f"t = {t} precedes s = {s}")
    gen = generator_matrix(model, "schrodinger")
    return propagator(gen, t - s).apply(sigma)


def heisenberg_evolve(model: SystemModel, X, s: float, t: float) -> np.ndarray:
    """Heisenberg-picture evolution of the observable X from time s to t >= s."""
    if t < s:
        raise TimeOrderError(f"t = {t} precedes s = {s}")
    gen = generator_matrix(model, "heisenberg")
    return propagator(gen, t - s).apply(X)
