"""Dense complex linear algebra on small matrices.

Conventions used by the whole package:

* matrices are dense ``numpy`` arrays of ``complex128``;
* vectorization is by column stacking, so the map ``X -> A @ X @ B`` has the
  matrix ``kron(B.T, A)`` acting on ``vec(X)``.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import DimensionError, ValidationError

# mat_exp only honours its accuracy contract (relative error <= 1e-12) up to
# this Frobenius norm; larger inputs are rejected instead of silently degraded.
EXP_NORM_LIMIT = 50.0


def as_complex_matrix(mat, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-d complex128 array."""
    arr = np.asarray(mat, dtype=np.complex128)
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be 2-d, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} has non-finite entries")
    return arr


def dag(mat: np.ndarray) -> np.ndarray:
    """Hermitian conjugate."""
    return np.asarray(mat).conj().T


def vec(mat: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    return np.asarray(mat).reshape(-1, order="F")


def unvec(v: np.ndarray, dim: int | None = None) -> np.ndarray:
    """Inverse of :func:`vec`; square by default."""
    v = np.asarray(v).reshape(-1)
    if dim is None:
        dim = int(round(np.sqrt(v.size)))
    if dim * dim != v.size:
        raise DimensionError(f"cannot unvec length {v.size} into {dim}x{dim}")
    return v.reshape((dim, dim), order="F")


def mat_exp(mat) -> np.ndarray:
    """Matrix exponential of a square complex matrix.

    Backed by scipy's scaling-and-squaring Pade implementation, which meets
    the 1e-12 relative accuracy contract below ``EXP_NORM_LIMIT``.
    """
    arr = as_complex_matrix(mat, "mat_exp input")
    if arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"mat_exp needs a square matrix, got {arr.shape}")
    norm = np.linalg.norm(arr)
    if norm > EXP_NORM_LIMIT:
        raise ValidationError(
            f"mat_exp input norm {norm:.3g} exceeds the supported limit "
            f"{EXP_NORM_LIMIT}; rescale the generator or shorten the duration"
        )
    out = scipy.linalg.expm(arr)
    if not np.all(np.isfinite(out)):
        raise ValidationError("mat_exp produced non-finite entries")
    return out


def kron(a, b) -> np.ndarray:
    """Kronecker product, (A kron B)[i*rB+k, j*cB+l] = A[i,j] B[k,l]."""
    return np.kron(as_complex_matrix(a, "kron A"), as_complex_matrix(b, "kron B"))


def partial_trace(mat, dims: tuple[int, int], keep: int) -> np.ndarray:
    """Trace out one factor of an operator on a two-factor space.

    ``dims`` is ``(dA, dB)`` and ``keep`` selects the surviving factor:
    0 keeps A (traces B), 1 keeps B (traces A).
    """
    arr = as_complex_matrix(mat, "partial_trace input")
    da, db = int(dims[0]), int(dims[1])
    n = da * db
    if arr.shape != (n, n):
        raise DimensionError(
            f"partial_trace input is {arr.shape}, expected {(n, n)} for dims {dims}"
        )
    t = arr.reshape(da, db, da, db)
    if keep == 0:
        return np.einsum("ikjk->ij", t)
    if keep == 1:
        return np.einsum("kikj->ij", t)
    raise ValueError("keep must be 0 or 1")


def matrix_unit(dim: int, i: int, j: int) -> np.ndarray:
    """E_ij, 1 at (i, j) and zero elsewhere."""
    unit = np.zeros((dim, dim), dtype=np.complex128)
    unit[i, j] = 1.0
    return unit


def choi_matrix(superop_mat) -> np.ndarray:
    """Choi matrix sum_ij E_ij kron S(E_ij) of a column-stacking superoperator.

    The map is completely positive iff the result is positive semidefinite.
    """
    s = as_complex_matrix(superop_mat, "superoperator matrix")
    if s.shape[0] != s.shape[1]:
        raise DimensionError(f"superoperator matrix must be square, got {s.shape}")
    d = int(round(np.sqrt(s.shape[0])))
    if d * d != s.shape[0]:
        raise DimensionError(f"superoperator side {s.shape[0]} is not a square")
    # S(E_ij)[k, l] = s[k + l d, i + j d] lands at row i d + k, column j d + l
    return s.reshape(d, d, d, d).transpose(3, 1, 2, 0).reshape(d * d, d * d)


def min_hermitian_eig(mat) -> float:
    """Smallest eigenvalue of the Hermitian part, used for positivity checks."""
    arr = as_complex_matrix(mat, "matrix")
    return float(np.linalg.eigvalsh(0.5 * (arr + dag(arr))).min())
