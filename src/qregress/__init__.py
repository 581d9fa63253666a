"""Quantum Markov models driven by a vacuum bosonic field.

The package evaluates time-ordered multi-time correlation kernels of a
finite-dimensional system through nested reduced propagation (in both the
Heisenberg and the Schrodinger picture) and cross-checks them against an
independent collision-model discretization of the driving field.
"""

from .classical import (
    ClassicalChain,
    ComparisonResult,
    classical_correlation,
    compare_quantum_classical,
    diagonal_invariance_check,
)
from .collision import (
    CollisionConfig,
    ItoReport,
    collision_channel,
    ito_table_check,
    oracle_kernel_joint,
    oracle_kernel_joint_mixed,
    oracle_kernel_sequential,
    slot_annihilator,
    step_unitary,
    vacuum_conditional_expectation,
)
from .errors import (
    BudgetExceededError,
    DimensionError,
    GridAlignmentError,
    QRegressError,
    TimeOrderError,
    ValidationError,
)
from .linalg import (
    choi_matrix,
    dag,
    kron,
    mat_exp,
    partial_trace,
    unvec,
    vec,
)
from .model import (
    DensityOperator,
    SystemModel,
    atom_model,
    lindblad_heisenberg,
    lindblad_schrodinger,
    pure_density,
)
from .regression import (
    CorrelationQuery,
    kernel_heisenberg,
    kernel_schrodinger,
    two_time,
)
from .semigroup import (
    SuperOperator,
    generator_matrix,
    propagator,
    propagators,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "ClassicalChain",
    "CollisionConfig",
    "ComparisonResult",
    "CorrelationQuery",
    "DensityOperator",
    "DimensionError",
    "GridAlignmentError",
    "ItoReport",
    "QRegressError",
    "SuperOperator",
    "SystemModel",
    "TimeOrderError",
    "ValidationError",
    "atom_model",
    "choi_matrix",
    "classical_correlation",
    "collision_channel",
    "compare_quantum_classical",
    "dag",
    "diagonal_invariance_check",
    "generator_matrix",
    "ito_table_check",
    "kernel_heisenberg",
    "kernel_schrodinger",
    "kron",
    "lindblad_heisenberg",
    "lindblad_schrodinger",
    "mat_exp",
    "oracle_kernel_joint",
    "oracle_kernel_joint_mixed",
    "oracle_kernel_sequential",
    "partial_trace",
    "propagator",
    "propagators",
    "pure_density",
    "slot_annihilator",
    "step_unitary",
    "two_time",
    "unvec",
    "vacuum_conditional_expectation",
    "vec",
]
