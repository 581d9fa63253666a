#!/usr/bin/env python3
"""Two-time dipole correlation of the decaying atom against its closed form.

Sweeps the second time of mu(j_{t1}(sp) j_{t2}(sm)) on a grid and compares
with exp(-gamma t1) exp(-gamma (t2 - t1) / 2).  Writes a CSV and prints the
worst deviation.
"""

import argparse

import numpy as np

from qregress import atom_model, two_time
from qregress.verify import EXCITED, SIGMA_MINUS, SIGMA_PLUS


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--gamma", type=float, default=1.0)
    parser.add_argument("--t1", type=float, default=0.5)
    parser.add_argument("--t2-max", type=float, default=3.0)
    parser.add_argument("--points", type=int, default=50)
    parser.add_argument("--out", default="dipole_decay.csv")
    args = parser.parse_args()

    model = atom_model(args.gamma)
    grid = np.linspace(args.t1, args.t2_max, args.points)

    rows = ["t2,computed,closed_form,abs_error"]
    worst = 0.0
    for t2 in grid:
        w = two_time(model, EXCITED, SIGMA_PLUS, SIGMA_MINUS, args.t1, t2).real
        closed = np.exp(-args.gamma * args.t1) * np.exp(-args.gamma * (t2 - args.t1) / 2)
        worst = max(worst, abs(w - closed))
        rows.append(f"{t2:.12g},{w:.16e},{closed:.16e},{abs(w - closed):.3e}")

    with open(args.out, "w") as fh:
        fh.write("\n".join(rows) + "\n")
    print(f"wrote {args.out} ({args.points} points), max |computed - closed form| = {worst:.3e}")


if __name__ == "__main__":
    main()
