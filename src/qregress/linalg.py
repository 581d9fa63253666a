"""Dense complex linear algebra on small matrices, in numpy alone.

Conventions used by the whole package:

* matrices are dense ``numpy`` arrays of ``complex128``;
* vectorization is by column stacking, so the map ``X -> A @ X @ B`` has the
  matrix ``kron(B.T, A)`` acting on ``vec(X)``.

:func:`mat_exp` is Higham's scaling and squaring with a diagonal Pade
approximant of degree 3, 5, 7, 9 or 13 chosen by the 1-norm (Higham, SIAM J.
Matrix Anal. Appl. 26:1179, 2005).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError, ValidationError

# mat_exp only honours its accuracy contract (relative error <= 1e-12) up to
# this Frobenius norm; larger inputs are rejected instead of silently degraded.
EXP_NORM_LIMIT = 50.0


def _pade_table(theta: float, b: tuple[float, ...]):
    """One row of the approximant table, built once at import.

    r_m(A) = (V - U)^-1 (V + U) with U = A sum_k b[2k+1] A^2k and
    V = sum_k b[2k] A^2k.  The table holds theta_m, the number of even powers
    A^2, A^4, ... to form, their coefficients as the rows of one matrix, and
    the identity's coefficients apart.  Degree 13 splits U and V into a high
    part, later multiplied by A^6, and a low part (as Higham 2005 does), so
    it needs A^2, A^4 and A^6 only.
    """
    odd, even = b[1::2], b[0::2]
    if len(b) == 14:
        rows = (odd[4:], even[4:], odd[1:4], even[1:4])
        ident = (0.0, 0.0, odd[0], even[0])
    else:
        rows, ident = (odd[1:], even[1:]), (odd[0], even[0])
    coef = np.array(rows, dtype=np.complex128)
    return theta, coef.shape[1], coef, np.array(ident, dtype=np.complex128)[:, None]


# Higham 2005, Table 2.3: theta_m is the largest ||A||_1 at which the degree-m
# approximant's backward error stays below the unit roundoff 2**-53.
_PADE = (
    _pade_table(1.495585217958292e-2, (120.0, 60.0, 12.0, 1.0)),
    _pade_table(2.539398330063230e-1, (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0)),
    _pade_table(9.504178996162932e-1, (
        17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0)),
    _pade_table(2.097847961257068e0, (
        17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0)),
    _pade_table(5.371920351148152e0, (
        64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
        1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
        33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)),
)


def as_complex_matrix(mat, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-d complex128 array."""
    arr = np.asarray(mat, dtype=np.complex128)
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be 2-d, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} has non-finite entries")
    return arr


def dag(mat: np.ndarray) -> np.ndarray:
    """Hermitian conjugate."""
    return np.asarray(mat).conj().T


def vec(mat: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    return np.asarray(mat).reshape(-1, order="F")


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`vec` into a dim x dim matrix."""
    v = np.asarray(v).reshape(-1)
    if dim * dim != v.size:
        raise DimensionError(f"cannot unvec length {v.size} into {dim}x{dim}")
    return v.reshape((dim, dim), order="F")


def mat_exp(mat) -> np.ndarray:
    """Matrix exponential of a square complex matrix.

    Higham's (2005) scaling and squaring: the smallest degree m in 3, 5, 7, 9
    whose theta_m bounds ||A||_1, else A / 2**s with s the fewest halvings
    that bring ||A||_1 under theta_13, the degree-13 approximant, and s
    squarings.  Its relative Frobenius error stays within 1e-12 below
    ``EXP_NORM_LIMIT``; larger inputs are rejected.
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
    out = _pade_exp(arr)
    if not np.isfinite(out).all():
        raise ValidationError("mat_exp produced non-finite entries")
    return out


def _pade_exp(a: np.ndarray) -> np.ndarray:
    """Scaling and squaring on a finite square array, with no checks."""
    n = a.shape[0]
    norm1 = np.abs(a).sum(0).max(initial=0.0)
    squarings = 0
    for theta, k, coef, ident in _PADE:
        if norm1 <= theta:
            break
    else:
        # ceil(log2(norm1 / theta_13)) halvings, each exact in binary
        frac, exp2 = math.frexp(norm1 / theta)
        squarings = exp2 - (frac == 0.5)
        a = a * math.ldexp(1.0, -squarings)
    powers = np.empty((k, n, n), dtype=np.complex128)
    powers[0] = a @ a
    for j in range(1, k):
        powers[j] = powers[j - 1] @ powers[0]
    # every even polynomial in one product; the identity terms go on the diagonals
    uv = coef @ powers.reshape(k, n * n)
    uv[:, :: n + 1] += ident
    uv = uv.reshape(len(uv), n, n)
    if len(uv) == 4:  # degree 13: A^6 times the high parts, plus the low parts
        uv = powers[2] @ uv[:2] + uv[2:]
    u, v = a @ uv[0], uv[1]
    out = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        out = out @ out
    return out


def kron(a, b) -> np.ndarray:
    """Kronecker product, (A kron B)[i*rB+k, j*cB+l] = A[i,j] B[k,l].

    One broadcast product, the same entrywise products as ``np.kron``
    without its general n-d setup.
    """
    a = as_complex_matrix(a, "kron A")
    b = as_complex_matrix(b, "kron B")
    (ra, ca), (rb, cb) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(ra * rb, ca * cb)


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
