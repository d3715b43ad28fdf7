import functools
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import membrane_opt as mo
from membrane_opt import optimizer
from membrane_opt.cli import parse_config
from membrane_opt.optimizer import CONVERGED, CYCLING, MAX_ITER

_CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _grid_9():
    # 3x3 interior nodes with unit cells
    return mo.build_grid(mo.square_spec(1.0, side=4.0))


def _grid_4():
    return mo.build_grid(mo.square_spec(1.0, side=3.0))


# ---------------------------------------------------------------------------
# bounds and budgets

def test_conformal_bounds_examples():
    assert mo.conformal_bounds(0.0) == (1.0, 1.0)
    lo, hi = mo.conformal_bounds(math.log(2.0))
    assert lo == pytest.approx(0.25, rel=1e-14)
    assert hi == pytest.approx(4.0, rel=1e-14)
    lo4, hi4 = mo.conformal_bounds(0.5, exponent=4)
    assert lo4 == pytest.approx(math.exp(-2.0), rel=1e-14)
    assert hi4 == pytest.approx(math.exp(2.0), rel=1e-14)


def test_conformal_bounds_product_is_one():
    for a in (0.1, math.log(2.0), 1.7):
        lo, hi = mo.conformal_bounds(a)
        assert abs(lo * hi - 1.0) <= 1e-14


def test_conformal_bounds_rejects_negative():
    with pytest.raises(ValueError):
        mo.conformal_bounds(-0.1)


def test_target_high_mass_examples():
    g = _grid_4()
    vol = mo.domain_volume(g)
    spec = mo.ProblemSpec(grid=g, rho_min=0.5, rho_max=2.0, mass=0.5 * vol)
    assert mo.target_high_mass(spec) == 0.0
    spec = mo.ProblemSpec(grid=g, rho_min=0.5, rho_max=2.0, mass=2.0 * vol)
    assert mo.target_high_mass(spec) == pytest.approx(vol, rel=1e-14)
    # lam 1/4, Lam 4, vol 1, M 1 -> 0.2 (scaled onto the 4-node grid)
    spec = mo.ProblemSpec(grid=g, rho_min=0.25, rho_max=4.0, mass=vol)
    assert mo.target_high_mass(spec) == pytest.approx(0.2 * vol, rel=1e-14)


def test_target_high_mass_narrow_box_accepts_feasible_mass():
    # a box two ulps wide magnifies the mass rounding ProblemSpec allows
    g = mo.build_grid(mo.square_spec(0.1, dimension=4))
    vol = mo.domain_volume(g)
    lo = 1.5
    hi = lo * float(np.nextafter(1.0, 2.0))
    spec = mo.ProblemSpec(grid=g, rho_min=lo, rho_max=hi, mass=hi * vol)
    assert 0.0 <= mo.target_high_mass(spec) <= vol
    density, _ = mo.bathtub_rearrange(np.ones(g.node_count), spec)
    density.validate(spec, two_valued=True)

def test_infeasible_mass_raises():
    g = _grid_4()
    vol = mo.domain_volume(g)
    with pytest.raises(ValueError, match="mass outside conformal box"):
        mo.ProblemSpec(grid=g, rho_min=0.5, rho_max=2.0, mass=3.0 * vol)
    with pytest.raises(ValueError, match="mass outside conformal box"):
        mo.ProblemSpec(grid=g, rho_min=0.5, rho_max=2.0, mass=0.1 * vol)


def test_on_grid_carries_box_order_exponent_and_mass_fraction():
    coarse = mo.build_grid(mo.disk_spec(1.0 / 8))
    fine = mo.build_grid(mo.disk_spec(1.0 / 16))
    spec = mo.ProblemSpec(grid=coarse, rho_min=0.25, rho_max=4.0, mass=2.0, order=4)
    moved = spec.on_grid(fine)
    assert moved.grid is fine
    # the order is also the exponent of rho = e^(p u)
    assert (moved.rho_min, moved.rho_max, moved.order) == (0.25, 4.0, 4)
    assert moved.mass == 2.0 / mo.domain_volume(coarse) * mo.domain_volume(fine)
    # M = |Omega_h| on a point box stays the discrete volume, to the bit
    point = mo.ProblemSpec(grid=coarse, rho_min=1.0, rho_max=1.0,
                           mass=mo.domain_volume(coarse))
    assert point.on_grid(fine).mass == mo.domain_volume(fine)
    # the rule keeps every ProblemSpec check: order 4 needs p = d on a curved grid
    curved = mo.build_grid(mo.disk_spec(1.0 / 8, background=lambda p: 0.1 * p[:, 0]))
    with pytest.raises(ValueError, match="p = d"):
        spec.on_grid(curved)


def test_with_box_shares_the_stiffness_and_keeps_every_check():
    g = mo.build_grid(mo.disk_spec(1.0 / 8))
    vol = mo.domain_volume(g)
    spec = mo.ProblemSpec(grid=g, rho_min=1.0, rho_max=1.0, mass=vol)
    boxed = spec.with_box(0.25, 4.0)
    assert (boxed.grid, boxed.rho_min, boxed.rho_max, boxed.mass, boxed.order) == \
        (g, 0.25, 4.0, vol, 2)
    assert boxed.stiffness is spec.stiffness
    assert boxed.stiffness.factor is spec.stiffness.factor is not None
    # the new box must still admit the mass
    with pytest.raises(ValueError, match="mass outside conformal box"):
        spec.with_box(2.0, 4.0)


# ---------------------------------------------------------------------------
# bathtub rearrangement

def test_bathtub_two_node_example():
    g = mo.build_grid(mo.box_spec(1.0, [(0.0, 3.0)]))
    assert g.node_count == 2
    spec = mo.ProblemSpec(grid=g, rho_min=1.0, rho_max=3.0, mass=4.0)
    phi = np.array([1.0, 2.0])
    density, part = mo.bathtub_rearrange(phi, spec)
    assert np.array_equal(density.values, [1.0, 3.0])
    assert part.fractional_node is None
    assert part.threshold == 2.0
    assert np.array_equal(part.high_nodes, [1])
    assert np.array_equal(part.low_nodes, [0])


def test_bathtub_three_node_example_and_enumeration():
    g = mo.build_grid(mo.box_spec(1.0, [(0.0, 4.0)]))
    assert g.node_count == 3
    spec = mo.ProblemSpec(grid=g, rho_min=1.0, rho_max=2.0, mass=4.5)
    phi = np.array([3.0, 2.0, 1.0])  # phi^2 = 9, 4, 1
    density, part = mo.bathtub_rearrange(phi, spec)
    assert density.values == pytest.approx([2.0, 1.5, 1.0], rel=1e-14)
    assert part.fractional_node == 1
    assert part.threshold == 2.0

    # independent optimality check over a fine slice of the feasible simplex
    best = -np.inf
    obj = phi**2
    for r0 in np.linspace(1.0, 2.0, 201):
        for r1 in np.linspace(1.0, 2.0, 201):
            r2 = 4.5 - r0 - r1
            if 1.0 - 1e-12 <= r2 <= 2.0 + 1e-12:
                best = max(best, obj @ np.array([r0, r1, r2]))
    assert float(obj @ density.values) >= best - 1e-9


def test_bathtub_constant_phi_breaks_ties_by_index():
    g = _grid_4()
    spec = mo.ProblemSpec(grid=g, rho_min=1.0, rho_max=2.0, mass=5.0)
    density, part = mo.bathtub_rearrange(np.ones(4), spec)
    assert np.array_equal(part.high_nodes, [0])
    assert np.array_equal(part.low_nodes, [1, 2, 3])
    assert np.array_equal(density.values, [2.0, 1.0, 1.0, 1.0])


def test_bathtub_rejects_zero_phi():
    g = _grid_4()
    spec = mo.ProblemSpec(grid=g, rho_min=1.0, rho_max=2.0, mass=5.0)
    with pytest.raises(ValueError):
        mo.bathtub_rearrange(np.zeros(4), spec)


@given(
    st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=9, max_size=9),
    st.floats(min_value=0.01, max_value=0.99),
)
@settings(max_examples=60, deadline=None)
def test_bathtub_feasibility_properties(phi_values, mass_fraction):
    g = _grid_9()
    phi = np.asarray(phi_values)
    if not np.any(phi):
        phi = phi + 0.5
    lo, hi = 0.5, 2.0
    vol = mo.domain_volume(g)
    mass = (lo + mass_fraction * (hi - lo)) * vol
    spec = mo.ProblemSpec(grid=g, rho_min=lo, rho_max=hi, mass=mass)
    density, part = mo.bathtub_rearrange(phi, spec)

    assert abs(density.mass - mass) <= 1e-12 * mass
    assert np.all(density.values >= lo - 1e-12) and np.all(density.values <= hi + 1e-12)
    assert density.fractional_nodes(spec).size <= 1
    # partition covers the grid exactly once
    pieces = [part.low_nodes, part.high_nodes]
    if part.fractional_node is not None:
        pieces.append([part.fractional_node])
    combined = np.sort(np.concatenate(pieces))
    assert np.array_equal(combined, np.arange(9))
    # the low region is a sub-level set of phi^2
    ok, margin = mo.sublevel_check(phi, part)
    assert ok, margin


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_bathtub_exchange_optimality(seed):
    g = _grid_9()
    rng = np.random.default_rng(seed)
    phi = rng.standard_normal(9)
    spec = mo.ProblemSpec(grid=g, rho_min=0.25, rho_max=4.0,
                          mass=1.3 * mo.domain_volume(g))
    density, part = mo.bathtub_rearrange(phi, spec)
    objective = float((phi**2 * g.e2w) @ density.values)
    for i in part.low_nodes:
        for j in part.high_nodes:
            swapped = density.values.copy()
            swapped[i], swapped[j] = swapped[j], swapped[i]
            assert float((phi**2 * g.e2w) @ swapped) <= objective + 1e-12 * abs(objective)


def _reference_bathtub(phi, grid, spec):
    """Sequential fill: ranked nodes take the upper bound one at a time
    while the remaining high-set budget covers their cell."""
    n = grid.node_count
    cells = grid.cell_volumes
    lo, hi = spec.rho_min, spec.rho_max
    order = np.lexsort((np.arange(n), -(phi * phi)))
    rho = np.full(n, lo)
    high = []
    fractional = None
    remaining = mo.target_high_mass(spec)
    for idx in order:
        idx = int(idx)
        cell = float(cells[idx])
        if remaining >= cell * (1.0 - 1e-12):
            rho[idx] = hi
            high.append(idx)
            remaining -= cell
        elif remaining * (hi - lo) > 1e-14 * spec.mass:
            fractional = idx
            rho[idx] = lo + (hi - lo) * (remaining / cell)
            break
        else:
            break
    if fractional is not None:
        others = float(rho @ cells) - rho[fractional] * float(cells[fractional])
        value = (spec.mass - others) / float(cells[fractional])
        rho[fractional] = min(max(value, lo), hi)
        threshold = float(phi[fractional])
    elif high:
        threshold = float(phi[high[-1]])
    else:
        threshold = float(phi[int(order[0])])
    taken = set(high) | ({fractional} if fractional is not None else set())
    low = np.array([i for i in range(n) if i not in taken], dtype=np.int64)
    return rho, low, np.array(sorted(high), dtype=np.int64), threshold, fractional


@functools.cache
def _bathtub_grid(name):
    if name == "oracle 3x3":
        return _grid_9()
    if name == "curved 2D":
        def bump(p):
            return 0.3 * np.exp(-3.0 * ((p[:, 0] - 0.4) ** 2 + (p[:, 1] - 0.6) ** 2))
        return mo.build_grid(mo.square_spec(1.0 / 16, background=bump))
    return mo.build_grid(mo.square_spec(0.1, dimension=4))


@given(
    st.sampled_from(["oracle 3x3", "curved 2D", "4D plate h=1/10"]),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([None, None, 0, 1, 2]),
    st.floats(min_value=0.05, max_value=3.0),
    st.floats(min_value=1.0, max_value=100.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=7),
)
# on these two, budget - cumsum(cells) misses the loop's rounding
@example("curved 2D", 1, None, 0.25, 16.0, 0.31, 3)
@example("4D plate h=1/10", 1, None, 0.25, 16.0, 0.31, 3)
# whole numbers: phi holds -0.0 and 0.0 (about 1250 of each) and ties of
# +-1 and +-2; the budget runs out among the zeros, at a -0.0 node, so the
# ranking must order equal squares, signed zeros among them, by node index
@example("4D plate h=1/10", 2, 0, 0.25, 4.0, 0.9, 3)
@settings(max_examples=150, deadline=None)
def test_bathtub_matches_sequential_fill_bitwise(name, seed, decimals, lo, ratio, t,
                                                 edge):
    g = _bathtub_grid(name)
    rng = np.random.default_rng(seed)
    phi = rng.standard_normal(g.node_count)
    if decimals is not None:
        # rounding makes ties in phi^2, across signs too
        phi = np.round(phi, decimals)
    if not np.any(phi):
        phi[0] = 1.0
    # edge 0 pins the box to a point, edges 1 and 2 put the mass at its ends
    hi = lo if edge == 0 else lo * ratio
    vol = mo.domain_volume(g)
    level = {1: lo, 2: hi}.get(edge, lo + t * (hi - lo))
    spec = mo.ProblemSpec(grid=g, rho_min=lo, rho_max=hi, mass=level * vol)

    density, part = mo.bathtub_rearrange(phi, spec)
    rho, low, high, threshold, fractional = _reference_bathtub(phi, g, spec)
    assert density.values.tobytes() == rho.tobytes()
    assert part.low_nodes.dtype == low.dtype and np.array_equal(part.low_nodes, low)
    assert part.high_nodes.dtype == high.dtype and np.array_equal(part.high_nodes, high)
    assert np.float64(part.threshold).tobytes() == np.float64(threshold).tobytes()
    assert part.fractional_node == fractional


def test_seeded_density_is_feasible_and_two_valued():
    g = _grid_9()
    spec = mo.ProblemSpec(grid=g, rho_min=0.5, rho_max=2.0, mass=1.2 * mo.domain_volume(g))
    for seed in range(6):
        density = mo.seeded_density(spec, seed)
        density.validate(spec, two_valued=True)
    a = mo.seeded_density(spec, 3)
    b = mo.seeded_density(spec, 3)
    assert np.array_equal(a.values, b.values)


# ---------------------------------------------------------------------------
# the alternating loop

def test_minimize_with_pinned_box_stops_after_one_solve():
    g = mo.build_grid(mo.square_spec(1.0 / 16))
    lo, hi = mo.conformal_bounds(0.0)
    spec = mo.ProblemSpec(grid=g, rho_min=lo, rho_max=hi, mass=mo.domain_volume(g))
    density, pair, part, trace = mo.minimize(spec)
    assert len(trace) == 1
    assert trace.status == CONVERGED
    assert np.ptp(density.values) == 0.0
    unweighted = mo.first_eigenpair(mo.assemble_stiffness(g), np.ones(g.node_count))
    assert pair.eigenvalue == pytest.approx(unweighted.eigenvalue, rel=1e-12)


def test_minimize_2x2_matches_enumeration_oracle():
    g = _grid_4()
    opts = mo.SolverOptions(eig_rel_tol=1e-12)
    for mass in (5.0, 5.5):
        spec = mo.ProblemSpec(grid=g, rho_min=1.0, rho_max=2.0, mass=mass)
        oracle = mo.enumerate_optimal(spec)
        sols = mo.multi_start(spec, range(8), opts=opts)
        best = min(s.eigenpair.eigenvalue for s in sols)
        assert abs(best - oracle.eigenvalue) <= 1e-10 * abs(oracle.eigenvalue)


def test_minimize_monotone_trace_and_terminal_invariants():
    g = mo.build_grid(mo.square_spec(1.0 / 16))
    spec = mo.ProblemSpec(grid=g, rho_min=0.25, rho_max=4.0, mass=mo.domain_volume(g))
    density, pair, part, trace = mo.minimize(spec)
    assert trace.status == CONVERGED
    assert trace.is_monotone(1e-9)
    density.validate(spec, two_valued=True)
    assert abs(density.mass - spec.mass) <= 1e-12 * spec.mass
    ok, margin = mo.sublevel_check(pair.vector, part)
    assert ok, margin


def test_minimize_status_max_iter():
    g = mo.build_grid(mo.square_spec(1.0 / 8))
    spec = mo.ProblemSpec(grid=g, rho_min=0.25, rho_max=4.0, mass=mo.domain_volume(g))
    *_, trace = mo.minimize(spec, max_alternations=1)
    assert trace.status == MAX_ITER
    assert len(trace) == 1


def test_minimize_status_cycling(monkeypatch):
    # a stand-in eigensolver alternates two vectors whose bathtub splits
    # differ, so the third split repeats the first
    g = _grid_9()
    spec = mo.ProblemSpec(grid=g, rho_min=1.0, rho_max=2.0, mass=1.5 * mo.domain_volume(g))
    x = g.coordinates()[:, 0]
    vectors = [1.0 + x, 5.0 - x]
    calls = []

    def alternating(stiffness, weights, opts, start=None, stop=None):
        vector = vectors[len(calls) % 2]
        calls.append(vector)
        return mo.EigenPair(eigenvalue=1.0, vector=vector, residual=0.0, iterations=1)

    monkeypatch.setattr(optimizer, "first_eigenpair", alternating)
    splits = [mo.bathtub_rearrange(v, spec)[1] for v in vectors]
    assert not optimizer._same_split(*splits)
    density, _, part, trace = mo.minimize(spec)
    assert trace.status == CYCLING
    assert len(trace) == len(calls) == 3
    again, again_part = mo.bathtub_rearrange(calls[2], spec)
    assert np.array_equal(part.high_nodes, again_part.high_nodes)
    assert part.fractional_node == again_part.fractional_node
    assert density.values.tobytes() == again.values.tobytes()


def _square_cfg_problem():
    text = (_CONFIGS / "square.cfg").read_text()
    config = parse_config(text, subcommand="solve")
    assert config.problem.stiffness.factored
    return config.problem, config.solver, None


def _cube_cg_problem():
    g = mo.build_grid(mo.square_spec(1.0 / 8, dimension=3))
    spec = mo.ProblemSpec(grid=g, rho_min=0.5, rho_max=2.0, mass=mo.domain_volume(g))
    assert not spec.stiffness.factored
    return spec, mo.SolverOptions(), 1


@pytest.mark.parametrize("problem", [_square_cfg_problem, _cube_cg_problem],
                         ids=["square-cfg", "cube-cg"])
def test_minimize_returns_a_fixed_point_found_once(problem, monkeypatch):
    spec, opts, init = problem()
    solves = []

    def counted(*args, **kwargs):
        solves.append(mo.first_eigenpair(*args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(optimizer, "first_eigenpair", counted)
    density, pair, part, trace = mo.minimize(spec, init=init, opts=opts)
    assert trace.status == CONVERGED
    assert len(solves) == len(trace) >= 2
    # the first repeated split ends the run: no confirming alternation
    assert [r.set_change == 0 for r in trace.records] == [False] * (len(trace) - 1) + [True]
    # the returned pair is the last solve, and the split is its bathtub
    assert pair is solves[-1]
    again, again_part = mo.bathtub_rearrange(pair.vector, spec)
    assert np.array_equal(again_part.high_nodes, part.high_nodes)
    assert again_part.fractional_node == part.fractional_node
    assert again.values.tobytes() == density.values.tobytes()
    # and it is the eigenpair of the returned density
    w = mo.assemble_weight(spec.grid, density.values)
    wx = w * pair.vector
    residual = np.linalg.norm(spec.stiffness.matrix @ pair.vector
                              - pair.eigenvalue * wx) / np.linalg.norm(wx)
    assert residual <= 10.0 * opts.eig_rel_tol


def test_plate_on_the_cg_path_converges_at_default_solver_options():
    # the order-4 stiffness sets its own CG tolerance: at the order-2 one the
    # power iteration stalls at eigen residual 2.4e-8 against its 1e-8 target
    g = mo.build_grid(mo.square_spec(1.0 / 16, dimension=3))
    spec = mo.ProblemSpec(grid=g, rho_min=0.5, rho_max=2.0, mass=mo.domain_volume(g),
                          order=4)
    assert g.node_count == 3375 and spec.stiffness.factor is None
    _, pair, _, trace = mo.minimize(spec, opts=mo.SolverOptions())
    assert trace.status == CONVERGED
    assert pair.residual <= 10.0 * mo.SolverOptions().eig_rel_tol


def _cg_plate(dimension, k, rho_min=0.5, rho_max=2.0):
    # configs/plate_4d.cfg's box and mass fraction on the unit cube at h = 1/k,
    # with its eig_tol; every such grid solves on the conjugate-gradient path
    g = mo.build_grid(mo.square_spec(1.0 / k, dimension=dimension))
    spec = mo.ProblemSpec(grid=g, rho_min=rho_min, rho_max=rho_max,
                          mass=mo.domain_volume(g), order=4)
    assert not spec.stiffness.factored
    return spec, mo.SolverOptions(eig_rel_tol=1e-8)


def _full_solves(*args, stop=None, **kwargs):
    """first_eigenpair without the stop test that minimize hands it."""
    return mo.first_eigenpair(*args, **kwargs)


def _alternating_densities(monkeypatch, spec):
    # the real eigensolve, stop test included, but on the bathtubs of two
    # mirrored ramps in turn, whatever density minimize hands it, so the
    # third split repeats the first
    x = spec.grid.coordinates()[:, 0]
    turns = itertools.cycle(
        [mo.assemble_weight(spec.grid, mo.bathtub_rearrange(v, spec)[0].values)
         for v in (1.0 + x, 5.0 - x)])

    def alternating(stiffness, _, opts, start=None, stop=None):
        return mo.first_eigenpair(stiffness, next(turns), opts, start=start, stop=stop)

    monkeypatch.setattr(optimizer, "first_eigenpair", alternating)


@pytest.mark.parametrize("status, box, kwargs, stand_in", [
    (CONVERGED, (0.5, 2.0), {}, None),
    (CYCLING, (0.5, 2.0), {}, _alternating_densities),
    (MAX_ITER, (0.5, 2.0), {"max_alternations": 3}, None),
    (CONVERGED, (1.0, 1.0), {}, None),
], ids=["converged", "cycling", "max-iter", "degenerate-box"])
def test_minimize_returns_an_exact_pair_on_every_status(monkeypatch, status, box, kwargs,
                                                       stand_in):
    # intermediate solves may stop once their split is decided, but the
    # solve whose split ends the run always meets the full stopping test
    spec, opts = _cg_plate(4, 6, *box)
    if stand_in is not None:
        stand_in(monkeypatch, spec)
    _, pair, _, trace = mo.minimize(spec, opts=opts, **kwargs)
    assert trace.status == status
    target = 10.0 * opts.eig_rel_tol
    assert pair.residual <= target
    assert trace.records[-1].residual == pair.residual
    if len(trace) > 1:
        # some earlier solve did stop early
        assert max(r.residual for r in trace.records[:-1]) > target


@pytest.mark.parametrize("dimension, k", [(4, 6), (3, 12)], ids=["4d-h6", "3d-h12"])
def test_early_stop_saves_steps_and_keeps_the_fixed_point(monkeypatch, dimension, k):
    spec, opts = _cg_plate(dimension, k)
    _, pair, _, trace = mo.minimize(spec, opts=opts)
    monkeypatch.setattr(optimizer, "first_eigenpair", _full_solves)
    _, full_pair, _, full_trace = mo.minimize(spec, opts=opts)
    assert trace.status == full_trace.status == CONVERGED
    assert abs(pair.eigenvalue - full_pair.eigenvalue) <= 1e-12 * full_pair.eigenvalue
    assert trace.is_monotone(0.0) and full_trace.is_monotone(0.0)
    steps = sum(r.steps for r in trace.records)
    assert steps < sum(r.steps for r in full_trace.records)


def test_set_change_counts_a_fractional_node_trading_places_with_a_high_node():
    # from this start the fractional node and one high node swap on
    # alternate records, which leaves the low region as it was
    g = mo.build_grid(mo.square_spec(1.0 / 6, dimension=4))
    spec = mo.ProblemSpec(grid=g, rho_min=0.5, rho_max=2.0, mass=(5.0 / 6.0) ** 4,
                          order=4)
    *_, trace = mo.minimize(spec, init=1)
    assert trace.status == CONVERGED and len(trace) >= 4
    assert [r.set_change == 0 for r in trace.records] == [False] * (len(trace) - 1) + [True]


_SPLIT = st.tuples(st.lists(st.booleans(), min_size=8, max_size=8),
                   st.one_of(st.none(), st.integers(0, 7)))


def _split_classes(split, node_count=8):
    """Class per node (0 low, 1 fractional, 2 high) of a drawn split of the
    first 8 nodes; any further nodes are low."""
    high, fractional = split
    labels = np.zeros(node_count, dtype=np.int8)
    labels[:8] = np.where(high, 2, 0)
    if fractional is not None:
        labels[fractional] = 1
    return labels


def _split_partition(split, node_count=8):
    labels = _split_classes(split, node_count)
    return mo.LevelSetPartition(
        low_nodes=np.flatnonzero(labels == 0), high_nodes=np.flatnonzero(labels == 2),
        threshold=0.0, fractional_node=split[1])


@given(_SPLIT, _SPLIT)
@settings(max_examples=60, deadline=None)
# the fractional node and a high node trade places; the low region stays
@example(([True] * 4 + [False] * 4, 0), ([False] + [True] * 3 + [False] * 4, 4))
def test_split_change_is_zero_exactly_on_the_same_split(split_a, split_b):
    a, b = _split_partition(split_a), _split_partition(split_b)
    change = optimizer._split_change(a, b, 8)
    assert change == int(np.count_nonzero(_split_classes(split_a) != _split_classes(split_b)))
    assert (change == 0) == optimizer._same_split(a, b)


def test_split_is_the_bathtub_split_in_int32():
    # the stop test's split outlives the power steps that follow it, so it
    # keeps its high set in int32; the comparison with an int64 partition
    # still holds, since it reads values only
    g = mo.build_grid(mo.disk_spec(1.0 / 16))
    spec = mo.ProblemSpec(g, 0.5, 2.0, mo.domain_volume(g))
    phi = 1.0 - np.sum(g.coordinates() ** 2, axis=1) + 0.1 * g.coordinates()[:, 0]
    split = optimizer._split(phi, spec)
    _, partition = mo.bathtub_rearrange(phi, spec)
    assert split.high_nodes.dtype == np.int32
    assert split.high_nodes.tolist() == partition.high_nodes.tolist()
    assert split.fractional_node == partition.fractional_node
    assert optimizer._same_split(split, partition)


@given(_SPLIT, _SPLIT, st.sampled_from([8, 100, 200, 400]),
       st.sampled_from([0.0, 5e-9, 2e-8]))
@settings(max_examples=60, deadline=None)
# the fractional node and a high node trade places: the low regions agree,
# but the splits differ on 2 of 100 nodes, more than 1%
@example(([True] * 3 + [False] * 5, 3), ([False] + [True] * 3 + [False] * 4, 0), 100, 0.0)
def test_classify_solutions_groups_by_eigenvalue_and_split_change(split_a, split_b,
                                                                  node_count, shift):
    grid = mo.build_grid(mo.square_spec(1.0 / (node_count + 1), dimension=1))
    assert grid.node_count == node_count
    density = mo.DensityField(grid=grid, values=np.ones(node_count))

    def result(split, mu):
        pair = mo.EigenPair(eigenvalue=mu, vector=np.ones(node_count), residual=0.0,
                            iterations=1)
        return density, pair, _split_partition(split, node_count), mo.OptimizationTrace()

    mu_rtol = 1e-8
    mu_b = 1.0 + shift
    _, labels = optimizer.classify_solutions(
        [0, 1], [result(split_a, 1.0), result(split_b, mu_b)], mu_rtol=mu_rtol)
    change = int(np.count_nonzero(_split_classes(split_a, node_count)
                                  != _split_classes(split_b, node_count)))
    together = abs(mu_b - 1.0) <= mu_rtol * mu_b and change <= 0.01 * node_count
    assert labels == ([0, 0] if together else [0, 1])


def test_dumbbell_multi_start_takes_under_a_third_of_the_one_level_steps(monkeypatch):
    # the eight seeds of configs/dumbbell_sweep.cfg: 313 LOBPCG steps with one
    # Krylov level, 90 with four (levels W-orthonormalized down to rounding;
    # dropping level columns at the block rank tolerance takes 130)
    config = parse_config((_CONFIGS / "dumbbell_sweep.cfg").read_text(), subcommand="sweep")
    assert config.problem.stiffness.factor is not None
    steps = []

    def counted(*args, **kwargs):
        pair = mo.first_eigenpair(*args, **kwargs)
        steps.append(pair.iterations)
        return pair

    monkeypatch.setattr(optimizer, "first_eigenpair", counted)
    classes = optimizer.multi_start(config.problem, config.seeds, config.solver,
                                    max_alternations=config.max_alternations)
    assert len(classes) == 6
    assert sum(steps) <= 100


def test_minimize_mirror_equivariance():
    g = mo.build_grid(mo.dumbbell_spec(1.0 / 16))
    spec = mo.ProblemSpec(grid=g, rho_min=0.25, rho_max=4.0, mass=mo.domain_volume(g))
    opts = mo.SolverOptions(max_iterations=100_000)
    perm = mo.mirror_permutation(g, axis=0)

    init = mo.seeded_density(spec, 12)
    reflected_values = np.empty_like(init.values)
    reflected_values[perm] = init.values
    init_reflected = mo.DensityField(grid=g, values=reflected_values)

    d1, p1, part1, _ = mo.minimize(spec, init=init, opts=opts)
    d2, p2, part2, _ = mo.minimize(spec, init=init_reflected, opts=opts)

    assert abs(p1.eigenvalue - p2.eigenvalue) <= 1e-8 * abs(p1.eigenvalue)
    mirrored_low = np.sort(perm[part1.low_nodes])
    diff = np.setxor1d(mirrored_low, part2.low_nodes).size
    assert diff <= max(2, 0.01 * g.node_count)


def test_minimize_conformal_background_consistency():
    def bump(p):
        return 0.3 * np.exp(-3.0 * ((p[:, 0] - 0.5) ** 2 + (p[:, 1] - 0.5) ** 2))

    curved = mo.build_grid(mo.square_spec(1.0 / 12, background=bump))
    flat = mo.build_grid(mo.square_spec(1.0 / 12))
    spec = mo.ProblemSpec(grid=curved, rho_min=0.25, rho_max=4.0,
                          mass=mo.domain_volume(curved))
    density, pair, part, trace = mo.minimize(spec)
    # the flat reweighted eigenproblem reproduces the converged eigenvalue
    a_flat = mo.assemble_stiffness(flat)
    sigma = density.values * curved.e2w
    flat_pair = mo.first_eigenpair(a_flat, sigma)
    assert abs(flat_pair.eigenvalue - pair.eigenvalue) <= 1e-12 * abs(pair.eigenvalue)


def test_multi_start_single_seed_singleton():
    g = _grid_9()
    spec = mo.ProblemSpec(grid=g, rho_min=1.0, rho_max=2.0, mass=12.0)
    sols = mo.multi_start(spec, [5])
    assert len(sols) == 1
    assert sols[0].member_seeds == (5,)


def test_multi_start_deterministic():
    g = _grid_9()
    spec = mo.ProblemSpec(grid=g, rho_min=1.0, rho_max=2.0, mass=12.5)
    a = mo.multi_start(spec, range(4))
    b = mo.multi_start(spec, range(4))
    assert len(a) == len(b)
    for s, t in zip(a, b):
        assert s.eigenpair.eigenvalue == t.eigenpair.eigenvalue
        assert np.array_equal(s.partition.low_nodes, t.partition.low_nodes)


def test_multi_start_needs_a_seed():
    g = _grid_9()
    spec = mo.ProblemSpec(grid=g, rho_min=1.0, rho_max=2.0, mass=12.0)
    with pytest.raises(ValueError):
        mo.multi_start(spec, [])


def test_multi_start_assembles_and_factors_once(monkeypatch):
    calls = {"assemble_stiffness": 0, "splu": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(optimizer, "assemble_stiffness")
    # StiffnessMatrix.factor imports splu when it runs, so count it at its source
    counted(scipy.sparse.linalg, "splu")
    g = mo.build_grid(mo.dumbbell_spec(1.0 / 16))
    lo, hi = mo.conformal_bounds(math.log(2.0))
    spec = mo.ProblemSpec(grid=g, rho_min=lo, rho_max=hi, mass=1.921875)
    assert len(mo.multi_start(spec, range(3))) >= 1
    assert calls == {"assemble_stiffness": 1, "splu": 1}
    assert spec.stiffness is spec.stiffness


def test_uniform_density_feasible():
    g = _grid_9()
    spec = mo.ProblemSpec(grid=g, rho_min=0.5, rho_max=2.0, mass=1.1 * mo.domain_volume(g))
    mo.uniform_density(spec).validate(spec)


def test_density_validate_catches_bad_mass():
    g = _grid_9()
    spec = mo.ProblemSpec(grid=g, rho_min=0.5, rho_max=2.0, mass=mo.domain_volume(g))
    bad = mo.DensityField(grid=g, values=np.full(9, 1.01))
    with pytest.raises(ValueError, match="mass"):
        bad.validate(spec)


def test_conformal_factor_recovery():
    g = _grid_4()
    spec = mo.ProblemSpec(grid=g, rho_min=0.25, rho_max=4.0, mass=4.0)
    density = mo.uniform_density(spec)
    u = density.conformal_factor(spec.order)
    assert np.exp(2.0 * u) == pytest.approx(density.values, rel=1e-14)
