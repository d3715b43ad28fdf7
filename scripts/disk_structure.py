#!/usr/bin/env python3
"""Two-phase structure on the unit disk.

Runs seeded multi-start minimization with bounds (1/4, 4) and mass pi,
then reports solution classes, the radial symmetry of the low region,
its distance from the center, and the level-curve count.
"""

import argparse
import math
import time

import numpy as np

import membrane_opt as mo


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--h", type=float, default=1.0 / 64)
    parser.add_argument("--seeds", type=int, default=8)
    args = parser.parse_args()

    grid = mo.build_grid(mo.disk_spec(args.h))
    spec = mo.ProblemSpec(grid=grid, rho_min=0.25, rho_max=4.0, mass=math.pi)
    print(f"disk grid: {grid.node_count} nodes at h = {args.h}")

    start = time.time()
    solutions = mo.multi_start(spec, range(args.seeds), mu_rtol=1e-6)
    print(f"{args.seeds} seeds -> {len(solutions)} solution class(es) "
          f"in {time.time() - start:.1f}s")

    for sol in solutions:
        low = sol.partition.low_nodes
        deviation = mo.radial_deviation(low, grid)
        min_radius = float(np.min(np.linalg.norm(grid.coordinates()[low], axis=1)))
        contours = mo.extract_contour(sol.eigenpair.vector,
                                      sol.partition.threshold, grid)
        print(f"  class of seed {sol.seed}: mu = {sol.eigenpair.eigenvalue:.8f}, "
              f"members = {sol.member_seeds}")
        print(f"    radial deviation = {deviation:.4f}, min |x| in low region = "
              f"{min_radius:.3f}, closed level curves = {contours.closed_count}, "
              f"components(high) = "
              f"{mo.count_components(sol.partition.high_nodes, grid)}")


if __name__ == "__main__":
    main()
