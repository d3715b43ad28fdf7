#!/usr/bin/env python3
"""Clamped-plate (order 4) experiments.

Three parts: eigenvalue self-convergence of the uniform plate on the unit
square, a composite plate run with its free-boundary partition, and an
optional coarse four-dimensional run.
"""

import argparse
import time

import numpy as np

import membrane_opt as mo


def self_convergence() -> None:
    print("uniform clamped plate, unit square (continuum value ~1294.934)")
    grid = mo.build_grid(mo.square_spec(1.0 / 8))
    uniform = mo.ProblemSpec(grid, 1.0, 1.0, mo.domain_volume(grid), order=4)
    steps = mo.ladder(uniform, [1.0 / 8, 1.0 / 16, 1.0 / 32])
    for h, mu in zip(steps.levels, steps.mus):
        print(f"  h = 1/{round(1 / h):<3} mu = {mu:.6f}")
    print(f"  observed order {', '.join(f'{q:.3f}' for q in steps.orders)}")


def composite_plate() -> None:
    grid = mo.build_grid(mo.square_spec(1.0 / 16))
    spec = mo.ProblemSpec(grid=grid, rho_min=0.25, rho_max=4.0,
                          mass=mo.domain_volume(grid), order=4)
    density, pair, partition, trace = mo.minimize(spec)
    signs = int(np.count_nonzero(pair.vector < 0.0))
    print(f"composite plate 1/16: status {trace.status}, mu = "
          f"{pair.eigenvalue:.6f}, monotone = {trace.is_monotone()}, "
          f"low region = {partition.low_count} nodes, "
          f"eigenfunction sign changes at {signs} nodes")


def four_dimensional() -> None:
    start = time.time()
    grid = mo.build_grid(mo.square_spec(1.0 / 10, dimension=4))
    spec = mo.ProblemSpec(grid=grid, rho_min=0.5, rho_max=2.0,
                          mass=mo.domain_volume(grid), order=4)
    density, pair, partition, trace = mo.minimize(
        spec, opts=mo.SolverOptions(eig_rel_tol=1e-8))  # eig_tol of configs/plate_4d.cfg
    print(f"4d plate ({grid.node_count} nodes): status {trace.status}, "
          f"mu = {pair.eigenvalue:.4f}, {time.time() - start:.1f}s")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--with-4d", action="store_true",
                        help="also run the coarse four-dimensional case")
    args = parser.parse_args()
    self_convergence()
    composite_plate()
    if args.with_4d:
        four_dimensional()


if __name__ == "__main__":
    main()
