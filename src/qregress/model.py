"""Quantum Markov model data (H, L, rho) and the Markov generators.

Basis convention for the two-level examples: index 0 is the ground state,
index 1 the excited state, so the lowering operator has its single nonzero
entry at (0, 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, ValidationError
from .linalg import as_complex_matrix, dag

HERMITICITY_RTOL = 1e-10
DENSITY_EIG_TOL = 1e-10
DENSITY_TRACE_TOL = 1e-10


@dataclass(frozen=True)
class SystemModel:
    """Finite-dimensional system coupled to a single vacuum field channel.

    ``H`` is the Hamiltonian (Hermitian), ``L`` the coupling operator through
    which the system radiates into the field; ``L`` is unconstrained beyond
    finiteness.  Both are stored as read-only copies, so the propagators
    that :func:`qregress.semigroup.compiled_propagator` keeps per picture in
    ``_propagators`` stay valid for the model's lifetime.
    """

    dim: int
    H: np.ndarray
    L: np.ndarray
    _propagators: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dim < 2:
            raise ValidationError(f"system dimension must be >= 2, got {self.dim}")
        H = as_complex_matrix(self.H, "H")
        L = as_complex_matrix(self.L, "L")
        if H.shape != (self.dim, self.dim):
            raise DimensionError(f"H has shape {H.shape}, expected {(self.dim, self.dim)}")
        if L.shape != (self.dim, self.dim):
            raise DimensionError(f"L has shape {L.shape}, expected {(self.dim, self.dim)}")
        defect = np.linalg.norm(H - dag(H))
        if defect > HERMITICITY_RTOL * max(1.0, np.linalg.norm(H)):
            raise ValidationError(
                f"H is not Hermitian: ||H - H^dag|| = {defect:.3g} exceeds tolerance"
            )
        for name, mat in (("H", H), ("L", L)):
            mat = mat.copy()
            mat.flags.writeable = False
            object.__setattr__(self, name, mat)


@dataclass(frozen=True)
class DensityOperator:
    """Validated density matrix: Hermitian, positive, unit trace."""

    dim: int
    rho: np.ndarray

    def __post_init__(self):
        rho = as_complex_matrix(self.rho, "rho")
        if rho.shape != (self.dim, self.dim):
            raise DimensionError(f"rho has shape {rho.shape}, expected {(self.dim, self.dim)}")
        defect = np.linalg.norm(rho - dag(rho))
        if defect > HERMITICITY_RTOL * max(1.0, np.linalg.norm(rho)):
            raise ValidationError(f"rho is not Hermitian: defect {defect:.3g}")
        eigs = np.linalg.eigvalsh(0.5 * (rho + dag(rho)))
        if eigs.min() < -DENSITY_EIG_TOL:
            raise ValidationError(f"rho has negative eigenvalue {eigs.min():.3g}")
        if abs(np.trace(rho) - 1.0) > DENSITY_TRACE_TOL:
            raise ValidationError(f"Tr rho = {np.trace(rho):.12g}, expected 1")
        object.__setattr__(self, "rho", rho)


def validate_model(H, L, dim: int | None = None) -> SystemModel:
    """Build a checked :class:`SystemModel` from raw array data."""
    H = as_complex_matrix(H, "H")
    if H.shape[0] != H.shape[1]:
        raise DimensionError(f"H must be square, got {H.shape}")
    if dim is None:
        dim = H.shape[0]
    return SystemModel(dim=int(dim), H=H, L=as_complex_matrix(L, "L"))


def density_from_matrix(rho) -> DensityOperator:
    """Build a checked :class:`DensityOperator` from raw array data."""
    rho = as_complex_matrix(rho, "rho")
    if rho.shape[0] != rho.shape[1]:
        raise DimensionError(f"rho must be square, got {rho.shape}")
    return DensityOperator(dim=rho.shape[0], rho=rho)


def pure_density(state) -> DensityOperator:
    """Density operator |psi><psi| of a normalized state vector."""
    psi = np.asarray(state, dtype=np.complex128).reshape(-1)
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > 1e-10:
        raise ValidationError(f"state vector norm {norm:.12g} is not 1")
    return density_from_matrix(np.outer(psi, psi.conj()))


def atom_model(gamma: float = 1.0) -> SystemModel:
    """Two-level atom decaying at rate gamma: H = 0, L = sqrt(gamma)|g><e|."""
    L = np.zeros((2, 2), dtype=np.complex128)
    L[0, 1] = np.sqrt(gamma)
    return SystemModel(dim=2, H=np.zeros((2, 2), dtype=np.complex128), L=L)


def lindblad_heisenberg(model: SystemModel, X) -> np.ndarray:
    """Heisenberg-picture generator L^dag X L - (1/2){L^dag L, X} - i[X, H]."""
    X = as_complex_matrix(X, "X")
    if X.shape != (model.dim, model.dim):
        raise DimensionError(f"X has shape {X.shape}, expected {(model.dim, model.dim)}")
    H, L = model.H, model.L
    Ld = dag(L)
    LdL = Ld @ L
    return Ld @ X @ L - 0.5 * (LdL @ X + X @ LdL) - 1j * (X @ H - H @ X)


def lindblad_schrodinger(model: SystemModel, sigma) -> np.ndarray:
    """Schrodinger-picture generator L s L^dag - (1/2){L^dag L, s} + i[s, H].

    The input need not be a density matrix; the map is applied to general
    (non-positive) intermediates during kernel evaluation.
    """
    sigma = as_complex_matrix(sigma, "sigma")
    if sigma.shape != (model.dim, model.dim):
        raise DimensionError(
            f"sigma has shape {sigma.shape}, expected {(model.dim, model.dim)}"
        )
    H, L = model.H, model.L
    LdL = dag(L) @ L
    return L @ sigma @ dag(L) - 0.5 * (LdL @ sigma + sigma @ LdL) + 1j * (sigma @ H - H @ sigma)
