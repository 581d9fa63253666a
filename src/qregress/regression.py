"""Time-ordered multi-time correlation kernels.

A query fixes nondecreasing times t_1 <= ... <= t_n and two operator tuples
a_1..a_n, b_1..b_n.  The kernel is the expectation of the pyramidal product

    j_{t_1}(a_1)^dag ... j_{t_n}(a_n)^dag  j_{t_n}(b_n) ... j_{t_1}(b_1)

in the initial state, with j_t the Heisenberg embedding of system operators.
For a Markov model it reduces to nested applications of the one-interval
propagators, evaluated here in two equivalent forms:

* ``kernel_schrodinger`` pushes a generalized state outward:
  s <- e^{L* t_1}(rho), then s <- e^{L*(t_{k+1}-t_k)}(b_k s a_k^dag),
  finishing with Tr(b_n s a_n^dag);
* ``kernel_heisenberg`` pulls the observable inward:
  G <- a_n^dag b_n, then G <- a_k^dag e^{L(t_{k+1}-t_k)}(G) b_k,
  finishing with Tr(rho e^{L t_1}(G)), the dual of Tr(e^{L* t_1}(rho) G),
  so it never uses the Schrodinger generator.

Both reject unsorted times rather than silently reordering, since the value
genuinely depends on the ordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, TimeOrderError, ValidationError
from .linalg import as_complex_matrix, dag, unvec, vec
from .model import DensityOperator, SystemModel
from .semigroup import compiled_propagator


@dataclass(frozen=True)
class CorrelationQuery:
    """Ordered times plus the two operator tuples entering the kernel."""

    times: tuple[float, ...]
    a_ops: tuple[np.ndarray, ...]
    b_ops: tuple[np.ndarray, ...]

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        if len(times) < 1:
            raise ValidationError("a query needs at least one time")
        if len(self.a_ops) != len(times) or len(self.b_ops) != len(times):
            raise DimensionError(
                f"got {len(times)} times but {len(self.a_ops)} a_ops "
                f"and {len(self.b_ops)} b_ops"
            )
        if not all(map(math.isfinite, times)):
            raise ValidationError(f"times must be finite, got {times}")
        if times[0] < 0:
            raise TimeOrderError(f"times must be >= 0, got {times[0]}")
        if any(t2 < t1 for t1, t2 in zip(times, times[1:])):
            raise TimeOrderError(f"times must be nondecreasing, got {times}")
        a_ops = tuple(as_complex_matrix(a, "a_op") for a in self.a_ops)
        b_ops = tuple(as_complex_matrix(b, "b_op") for b in self.b_ops)
        d = b_ops[0].shape[0]
        for op in (*a_ops, *b_ops):
            if op.shape != (d, d):
                raise DimensionError(
                    f"all query operators must be {d}x{d}, got {op.shape}"
                )
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "a_ops", a_ops)
        object.__setattr__(self, "b_ops", b_ops)

    @property
    def n(self) -> int:
        return len(self.times)

    @property
    def dim(self) -> int:
        return self.b_ops[0].shape[0]


def _check_dims(model: SystemModel, rho: DensityOperator, query: CorrelationQuery):
    if query.dim != model.dim or rho.dim != model.dim:
        raise DimensionError(
            f"dimension mismatch: model {model.dim}, rho {rho.dim}, query {query.dim}"
        )


def kernel_schrodinger(
    model: SystemModel, rho: DensityOperator, query: CorrelationQuery
) -> complex:
    """Evaluate the kernel by the nested Schrodinger-picture recursion."""
    _check_dims(model, rho, query)
    d = model.dim
    t = query.times
    steps = [t2 - t1 for t1, t2 in zip(t, t[1:])]
    prop = compiled_propagator(model, "schrodinger").steps([t[0], *steps])
    sigma = unvec(prop[t[0]](vec(rho.rho)), d)
    for k, tau in enumerate(steps):
        sandwiched = query.b_ops[k] @ sigma @ dag(query.a_ops[k])
        sigma = unvec(prop[tau](vec(sandwiched)), d)
    return complex(np.trace(query.b_ops[-1] @ sigma @ dag(query.a_ops[-1])))


def kernel_heisenberg(
    model: SystemModel, rho: DensityOperator, query: CorrelationQuery
) -> complex:
    """Evaluate the kernel by the nested Heisenberg-picture expression."""
    _check_dims(model, rho, query)
    d = model.dim
    t = query.times
    steps = [t2 - t1 for t1, t2 in zip(t, t[1:])]
    prop = compiled_propagator(model, "heisenberg").steps([t[0], *steps])
    G = dag(query.a_ops[-1]) @ query.b_ops[-1]
    for k in range(query.n - 2, -1, -1):
        evolved = unvec(prop[steps[k]](vec(G)), d)
        G = dag(query.a_ops[k]) @ evolved @ query.b_ops[k]
    return complex(np.trace(rho.rho @ unvec(prop[t[0]](vec(G)), d)))


def two_time(
    model: SystemModel,
    rho: DensityOperator,
    A,
    B,
    t1: float,
    t2: float,
) -> complex:
    """Two-time correlation mu(j_{t1}(A) j_{t2}(B)) for 0 <= t1 <= t2."""
    A = as_complex_matrix(A, "A")
    B = as_complex_matrix(B, "B")
    eye = np.eye(model.dim, dtype=np.complex128)
    query = CorrelationQuery(times=(t1, t2), a_ops=(dag(A), eye), b_ops=(eye, B))
    return kernel_schrodinger(model, rho, query)
