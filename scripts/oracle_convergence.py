#!/usr/bin/env python3
"""Discretization error of the collision oracles against the exact kernels.

Runs the atom dipole correlation through the sequential oracle over a range
of step sizes (and the joint-state oracle where the state vector fits the
entry budget), printing the error table with halving ratios.
"""

import argparse

from qregress import (
    CollisionConfig,
    CorrelationQuery,
    atom_model,
    kernel_schrodinger,
    oracle_kernel_joint,
    oracle_kernel_sequential,
)
from qregress.verify import EXCITED, EXCITED_KET, EYE2, SIGMA_MINUS


def table(label, errors):
    print(f"\n{label}")
    print(f"{'dt':>12} {'abs error':>12} {'ratio':>8}")
    prev = None
    for dt, err in errors:
        ratio = f"{prev / err:8.3f}" if prev else "       -"
        print(f"{dt:12.6f} {err:12.3e} {ratio}")
        prev = err


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--gamma", type=float, default=1.0)
    args = parser.parse_args()

    model = atom_model(args.gamma)

    seq_query = CorrelationQuery(
        times=(0.5, 1.0), a_ops=(SIGMA_MINUS, EYE2), b_ops=(EYE2, SIGMA_MINUS)
    )
    exact = kernel_schrodinger(model, EXCITED, seq_query)
    seq_errors = []
    for k in (5, 6, 7, 8, 9):
        dt = 2.0**-k
        w = oracle_kernel_sequential(model, EXCITED, seq_query, CollisionConfig(dt=dt))
        seq_errors.append((dt, abs(w - exact)))
    table(f"sequential oracle, dipole kernel (exact {exact.real:.10f})", seq_errors)

    joint_query = CorrelationQuery(
        times=(0.125, 0.25), a_ops=(SIGMA_MINUS, EYE2), b_ops=(EYE2, SIGMA_MINUS)
    )
    exact_joint = kernel_schrodinger(model, EXCITED, joint_query)
    joint_errors = []
    for k in (4, 5, 6):
        dt = 2.0**-k
        w = oracle_kernel_joint(model, EXCITED_KET, joint_query, CollisionConfig(dt=dt))
        joint_errors.append((dt, abs(w - exact_joint)))
    table(f"joint-state oracle, short dipole kernel (exact {exact_joint.real:.10f})", joint_errors)


if __name__ == "__main__":
    main()
