"""Conformal class problems against eigenvalues of the round metric.

The unit ball under the background w = log(2 / (1 + r^2)) is the round
hemisphere, by stereographic projection.  On a curved grid the problem of
order p = d is the flat one with weight rho e^(dw), so a density there
discretizes the round hemisphere's own eigenproblem, whose first eigenvalue
is known independently of this code.  The masked ball approaches its
clamped or Dirichlet wall from inside, so the discrete value rises towards
the continuum one from below.  The 2D ladders are those of
``verify.round_hemisphere``, which the ``check`` report reads.
"""

import math

import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

import membrane_opt as mo
from membrane_opt import verify

# first clamped eigenvalue of the Paneitz operator P = L (L + 2), L the
# Laplacian, on the round 4-hemisphere: the eigenfunction is f_s1 + c f_s2 with
# s (s + 2) = mu and f_s the regular zonal solution of
# f'' + 3 cot(t) f' + s f = 0; the 2x2 clamped determinant at t = pi/2
# vanishes here (zonal shooting)
HEMISPHERE_PANEITZ = 60.88641294678638


@pytest.fixture(scope="module")
def hemisphere():
    return mo.round_hemisphere()


def _laplacian_2d(hemisphere):
    # measured: 1.907903, 1.946917, 1.970344
    uniform = hemisphere["uniform"]
    return uniform.ladder.mus, uniform.reference


def _paneitz_4d(hemisphere):
    # measured: 44.279, 50.442, 51.029; the masked clamped wall, not the
    # weight, dominates the error (the flat 4-ball is further off)
    spacings = (1 / 4, 1 / 5, 1 / 6)
    grid = mo.build_grid(mo.disk_spec(spacings[0], dimension=4,
                                      background=mo.stereographic))
    problem = mo.ProblemSpec(grid, 1.0, 1.0, mo.domain_volume(grid), order=4)
    return mo.ladder(problem, spacings).mus, HEMISPHERE_PANEITZ


@pytest.mark.parametrize("case", [_laplacian_2d, _paneitz_4d],
                         ids=["laplacian-2d", "paneitz-4d"])
def test_uniform_density_on_the_stereographic_ball_rises_to_the_round_value(
        hemisphere, case):
    mus, reference = case(hemisphere)
    assert mus[0] < mus[1] < mus[2] < reference


def test_membrane_error_on_the_stereographic_disk_is_first_order(hemisphere):
    # errors 9.2e-2, 5.3e-2, 3.0e-2: the ratio tends to 2 as h halves
    uniform = hemisphere["uniform"]
    assert uniform.ladder.levels == (1 / 8, 1 / 16, 1 / 32)
    assert uniform.first_order(), uniform.ratios


def test_composite_membrane_on_the_stereographic_disk_is_first_order(hemisphere):
    # errors 2.2e-2, 1.0e-2, 6.3e-3 (ratios 2.13, 1.65)
    composite = hemisphere["composite"]
    assert composite.first_order(), composite.ratios
    # mean density 1 at every level
    for density, _, _, _ in composite.ladder.solutions:
        volumes = density.grid.cell_volumes
        assert density.values @ volumes == pytest.approx(volumes.sum(), rel=1e-12)


def _shoot(mu: float, cap: float) -> float:
    """u(pi/2) of the regular zonal solution of u'' + cot(t) u' + mu rho u = 0,
    u(0) = 1, with rho = 4 on the polar cap t < cap and 1/4 off it."""
    start = 1e-6
    # the regular series u = 1 - mu rho t^2 / 4 + O(t^4) steps off the pole
    u = [1.0 - mu * start**2, -2.0 * mu * start]
    for lo, hi, rho in ((start, cap, 4.0), (cap, math.pi / 2, 0.25)):
        def zonal(t, y, rho=rho):
            return [y[1], -y[1] / math.tan(t) - mu * rho * y[0]]
        u = solve_ivp(zonal, (lo, hi), u, method="DOP853",
                      rtol=1e-13, atol=1e-14).y[:, -1]
    return float(u[0])


def test_composite_reference_matches_shooting_in_the_round_metric():
    # mean density 1 on the hemisphere of area 2 pi puts the high value 4 on a
    # polar cap of area 2 pi / 5, cos t > 4/5, stereographic radius 1/3
    cap = math.acos(4 / 5)
    assert cap == pytest.approx(2 * math.atan(1 / 3), rel=1e-15)
    mu = brentq(_shoot, 0.5, 1.5, args=(cap,), xtol=1e-15)
    assert abs(mu - verify.HEMISPHERE_COMPOSITE) < 1e-9
