"""Conformal class problems against eigenvalues of the round metric.

The unit ball under the background w = log(2 / (1 + r^2)) is the round
hemisphere, by stereographic projection.  On a curved grid the problem of
order p = d is the flat one with weight rho e^(dw), so uniform density there
discretizes the round hemisphere's own eigenproblem, whose first eigenvalue
is known independently of this code.  The masked ball approaches its
clamped or Dirichlet wall from inside, so the discrete value rises towards
the continuum one from below.
"""

import numpy as np
import pytest

import membrane_opt as mo

# first Dirichlet eigenvalue of the Laplacian on the round 2-hemisphere:
# P_1(cos t) = cos t vanishes on the equator, so mu_1 = 1 * (1 + 1)
HEMISPHERE_LAPLACIAN = 2.0
# first clamped eigenvalue of the Paneitz operator P = L (L + 2), L the
# Laplacian, on the round 4-hemisphere: the eigenfunction is f_s1 + c f_s2 with
# s (s + 2) = mu and f_s the regular zonal solution of
# f'' + 3 cot(t) f' + s f = 0; the 2x2 clamped determinant at t = pi/2
# vanishes here (zonal shooting)
HEMISPHERE_PANEITZ = 60.88641294678638


def _stereographic(points: np.ndarray) -> np.ndarray:
    return np.log(2.0 / (1.0 + np.sum(points**2, axis=1)))


def _uniform_mus(dimension: int, spacings) -> tuple[float, ...]:
    """First eigenvalue of the order-d problem at rho = 1 on the
    stereographic unit ball, one per spacing."""
    grid = mo.build_grid(mo.disk_spec(spacings[0], dimension=dimension,
                                      background=_stereographic))
    problem = mo.ProblemSpec(grid, 1.0, 1.0, mo.domain_volume(grid), order=dimension,
                             exponent=dimension)
    return mo.ladder(problem, spacings).mus


@pytest.mark.parametrize("dimension, spacings, reference", [
    # measured: 1.907903, 1.946917, 1.970344
    (2, (1 / 8, 1 / 16, 1 / 32), HEMISPHERE_LAPLACIAN),
    # measured: 44.279, 50.442, 51.029; the masked clamped wall, not the
    # weight, dominates the error (the flat 4-ball is further off)
    (4, (1 / 4, 1 / 5, 1 / 6), HEMISPHERE_PANEITZ),
], ids=["laplacian-2d", "paneitz-4d"])
def test_uniform_density_on_the_stereographic_ball_rises_to_the_round_value(
        dimension, spacings, reference):
    mus = _uniform_mus(dimension, spacings)
    assert mus[0] < mus[1] < mus[2] < reference


def test_membrane_error_on_the_stereographic_disk_is_first_order():
    # errors 9.2e-2, 5.3e-2, 3.0e-2: the ratio tends to 2 as h halves
    errors = [HEMISPHERE_LAPLACIAN - mu for mu in _uniform_mus(2, (1 / 8, 1 / 16, 1 / 32))]
    ratios = [coarse / fine for coarse, fine in zip(errors, errors[1:])]
    assert all(1.5 < ratio < 2.5 for ratio in ratios), ratios
