#!/usr/bin/env python3
"""Eigenvalue convergence study on the unit square.

Solves the uniform-density problem at a sequence of halved spacings with
``verify.ladder`` and prints the error against 2 pi^2 with the ladder's
observed convergence order, from successive differences of mu.
"""

import argparse
import math

import membrane_opt as mo


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--levels", type=int, default=4,
                        help="number of refinements starting at h = 1/8")
    args = parser.parse_args()

    grid = mo.build_grid(mo.square_spec(1.0 / 8))
    uniform = mo.ProblemSpec(grid, 1.0, 1.0, mo.domain_volume(grid))
    steps = mo.ladder(uniform, [1.0 / (8 * 2**level) for level in range(args.levels)])

    target = 2.0 * math.pi**2
    print(f"target 2 pi^2 = {target:.10f}")
    print(f"{'h':>8} {'mu':>14} {'error':>12} {'order':>7}")
    # the order of three successive levels, on the row of the finest
    orders = ["-", "-"] + [f"{q:.3f}" for q in steps.orders]
    for h, mu, order in zip(steps.levels, steps.mus, orders):
        print(f"   1/{round(1 / h):<4} {mu:14.8f} {abs(mu - target):12.3e} {order:>7}")


if __name__ == "__main__":
    main()
