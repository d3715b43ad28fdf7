import io
import math
import re
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import membrane_opt as mo
from membrane_opt import optimizer
from membrane_opt.cli import contour_csv
from membrane_opt.verify import _chain_segments, pure_difference_sup
from shapes import Region


def _grid_n(n):
    return mo.build_grid(mo.square_spec(1.0, side=float(n + 1)))


# ---------------------------------------------------------------------------
# enumeration oracle

def test_candidate_count_without_fraction():
    g = _grid_n(2)
    spec = mo.ProblemSpec(grid=g, rho_min=1.0, rho_max=2.0, mass=5.0)  # k = 1
    oracle = mo.enumerate_optimal(spec)
    assert len(oracle.ranking) == 4
    assert all(c.fractional_node is None for c in oracle.ranking)


def test_candidate_count_with_fraction():
    g = _grid_n(2)
    spec = mo.ProblemSpec(grid=g, rho_min=1.0, rho_max=2.0, mass=5.5)  # k = 1 + 1/2
    oracle = mo.enumerate_optimal(spec)
    assert len(oracle.ranking) == 4 * 3
    assert all(c.fractional_node is not None for c in oracle.ranking)
    oracle.density.validate(spec, two_valued=True)


def test_optimal_placements_closed_under_square_symmetry():
    g = _grid_n(2)
    spec = mo.ProblemSpec(grid=g, rho_min=1.0, rho_max=2.0, mass=5.0)
    oracle = mo.enumerate_optimal(spec)
    mus = sorted(c.eigenvalue for c in oracle.ranking)
    # all four single-node placements are equivalent under the symmetry group
    assert mus[-1] - mus[0] <= 1e-12 * abs(mus[0])
    assert sorted(c.high_nodes for c in oracle.ranking) == [(0,), (1,), (2,), (3,)]


def test_oracle_matches_multi_start_on_3x3():
    g = _grid_n(3)
    spec = mo.ProblemSpec(grid=g, rho_min=1.0, rho_max=2.0, mass=12.0)  # k = 3
    oracle = mo.enumerate_optimal(spec)
    sols = mo.multi_start(spec, range(8),
                          opts=mo.SolverOptions(eig_rel_tol=1e-12))
    best = min(s.eigenpair.eigenvalue for s in sols)
    assert abs(best - oracle.eigenvalue) <= 1e-10 * abs(oracle.eigenvalue)
    # the oracle is a lower bound for every single run, not just the best
    for s in sols:
        assert oracle.eigenvalue <= s.eigenpair.eigenvalue + 1e-10 * abs(oracle.eigenvalue)


def test_oracle_scale_cap():
    g = _grid_n(5)
    spec = mo.ProblemSpec(grid=g, rho_min=1.0, rho_max=2.0, mass=30.0)
    with pytest.raises(ValueError, match="oracle scale exceeded"):
        mo.enumerate_optimal(spec)


def test_oracle_requires_uniform_cells():
    g = mo.build_grid(mo.square_spec(1.0 / 3, background=lambda p: 0.2 * p[:, 0]))
    spec = mo.ProblemSpec(grid=g, rho_min=0.5, rho_max=2.0, mass=mo.domain_volume(g))
    with pytest.raises(ValueError, match="uniform node volumes"):
        mo.enumerate_optimal(spec)


def test_oracle_partition_passes_sublevel_with_own_eigenfunction():
    g = _grid_n(3)
    spec = mo.ProblemSpec(grid=g, rho_min=1.0, rho_max=2.0, mass=12.5)
    oracle = mo.enumerate_optimal(spec)
    ok, margin = mo.sublevel_check(oracle.eigenvector, oracle.partition)
    assert ok, margin


# ---------------------------------------------------------------------------
# sub-level and connectivity checks

def test_sublevel_check_accepts_bathtub_output():
    g = _grid_n(3)
    spec = mo.ProblemSpec(grid=g, rho_min=1.0, rho_max=2.0, mass=12.0)
    rng = np.random.default_rng(0)
    phi = rng.standard_normal(9)
    _, part = mo.bathtub_rearrange(phi, spec)
    ok, margin = mo.sublevel_check(phi, part)
    assert ok and margin <= 1e-14


def test_sublevel_check_flags_swapped_pair():
    g = _grid_n(3)
    spec = mo.ProblemSpec(grid=g, rho_min=1.0, rho_max=2.0, mass=12.0)
    phi = np.arange(1.0, 10.0)
    _, part = mo.bathtub_rearrange(phi, spec)
    violating = mo.LevelSetPartition(
        low_nodes=np.sort(np.append(part.low_nodes[:-1], part.high_nodes[0])),
        high_nodes=np.sort(np.append(part.high_nodes[1:], part.low_nodes[-1])),
        threshold=part.threshold,
        fractional_node=part.fractional_node,
    )
    ok, margin = mo.sublevel_check(phi, violating)
    assert not ok
    assert margin > 0.0


def test_count_components_cases():
    g = _grid_n(3)
    assert mo.count_components([], g) == 0
    assert mo.count_components(np.arange(9), g) == 1
    # two opposite corners are not 4-connected
    assert mo.count_components([0, 8], g) == 2


def test_count_components_two_blobs_mask():
    def blobs(p):
        x, y = p[:, 0], p[:, 1]
        return (((0.05 < x) & (x < 0.4)) | ((0.6 < x) & (x < 0.95))) & (0.05 < y) & (y < 0.95)

    g = mo.build_grid(mo.GridSpec(2, 1.0 / 16, ((0.0, 1.0), (0.0, 1.0)), Region(blobs)))
    assert mo.count_components(np.arange(g.node_count), g) == 2


def test_count_components_order_invariant():
    g = mo.build_grid(mo.disk_spec(1.0 / 8))
    nodes = np.arange(g.node_count)
    rng = np.random.default_rng(3)
    assert mo.count_components(rng.permutation(nodes), g) == \
        mo.count_components(nodes, g)


@pytest.mark.parametrize("nodes, named", [
    ([-1], "-1"), ([0, -9], "-9"), ([0.7], "0.7"), ([9], "9"),
    (np.array([2.0]), "2.0"),
])
def test_count_components_rejects_bad_node_indices(nodes, named):
    # numpy would count node 8 for -1, wrap -9 to node 0, truncate 0.7 to
    # node 0 and fail on 9 without naming it
    g = _grid_n(3)
    with pytest.raises(ValueError, match=f"^node index {re.escape(named)} "):
        mo.count_components(nodes, g)


# ---------------------------------------------------------------------------
# contours

def test_contour_of_linear_field_is_one_straight_polyline():
    g = mo.build_grid(mo.square_spec(1.0 / 16))
    phi = g.coordinates()[:, 0]
    level = 0.4031  # between node values
    contours = mo.extract_contour(phi, level, g)
    assert len(contours.polylines) == 1
    poly = contours.polylines[0]
    assert not poly.closed
    assert np.max(np.abs(poly.points[:, 0] - level)) <= 1e-9


def test_contour_above_max_is_empty():
    g = mo.build_grid(mo.square_spec(1.0 / 8))
    phi = g.coordinates()[:, 0]
    contours = mo.extract_contour(phi, 2.0, g)
    assert contours.polylines == ()


def test_contour_of_radial_field_is_a_circle():
    g = mo.build_grid(mo.disk_spec(1.0 / 32))
    r2 = np.sum(g.coordinates() ** 2, axis=1)
    phi = 1.0 - r2
    level = 0.5
    contours = mo.extract_contour(phi, level, g)
    assert contours.closed_count == 1
    assert len(contours.polylines) == 1
    radii = np.linalg.norm(contours.polylines[0].points, axis=1)
    assert np.max(np.abs(radii - math.sqrt(0.5))) <= 2.0 * g.spacing
    assert contours.region_components == 1


def test_contour_crossing_shared_by_two_cells_joins_one_polyline():
    # cells (1, 1) and (2, 1) share the edge from node (2, 1) to (2, 2), and
    # must interpolate its crossing alike: from opposite ends it rounds to
    # y = 0.29289844675 in one cell and 0.292898447 in the other, two curves
    g = mo.build_grid(mo.square_spec(0.25))
    phi = np.array([0.2, 0.8, 0.9, 0.43012572651187186, 0.8373332047437292, 0.9,
                    0.2, 0.8, 0.9])
    contours = mo.extract_contour(phi, 0.5, g)
    assert len(contours.polylines) == 1
    assert contours.polylines[0].points.tolist() == [
        [0.25, 0.375], [0.5, 0.29289844675], [0.75, 0.375]]


def test_contour_requires_2d():
    g = mo.build_grid(mo.square_spec(0.25, dimension=3))
    with pytest.raises(ValueError, match="two-dimensional"):
        mo.extract_contour(np.ones(g.node_count), 0.5, g)


def _cell_loop_contour(phi, level, grid):
    """Marching squares one lattice cell at a time, keyed by rounding each
    crossing with ``round``, each crossing interpolated from the lower end
    of its edge; the reference for the array implementation."""
    n0, n1 = grid.lattice_cells
    field = np.full((n0 + 1, n1 + 1), np.nan)
    field[grid.nodes[:, 0], grid.nodes[:, 1]] = phi

    def interp(pa, fa, pb, fb):
        t = (level - fa) / (fb - fa)
        return (round(pa[0] + t * (pb[0] - pa[0]), 9), round(pa[1] + t * (pb[1] - pa[1]), 9))

    segments = []
    for i in range(n0):
        for j in range(n1):
            corners = ((i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1))
            values = [field[c] for c in corners]
            if any(np.isnan(v) for v in values):
                continue
            inside = [v <= level for v in values]
            if all(inside) or not any(inside):
                continue
            crossings = [interp(corners[a], values[a], corners[b], values[b])
                         for a, b in ((0, 1), (1, 2), (3, 2), (0, 3)) if inside[a] != inside[b]]
            if len(crossings) == 2:
                segments.append(tuple(crossings))
            elif (sum(values) / 4.0 <= level) == inside[0]:
                segments += [(crossings[0], crossings[3]), (crossings[1], crossings[2])]
            else:
                segments += [(crossings[0], crossings[1]), (crossings[2], crossings[3])]
    origin = np.asarray(grid.origin)
    return [(origin + np.asarray(path) * grid.spacing, closed)
            for path, closed in _chain_segments(segments)]


@st.composite
def _contour_cases(draw):
    """A masked lattice, a field of coarse values (saddles, corners at the
    level) or arbitrary ones, and a level that is often a node value."""
    n0, n1 = draw(st.integers(2, 8)), draw(st.integers(2, 8))
    inner = (n0 - 1) * (n1 - 1)
    keep = draw(st.lists(st.sampled_from([True, True, True, False]),
                         min_size=inner, max_size=inner).filter(any))
    n = sum(keep)
    value = st.one_of(st.integers(-2, 2).map(lambda k: k / 4.0),
                      st.floats(-1.0, 1.0, allow_nan=False))
    values = draw(st.lists(value, min_size=n, max_size=n))
    level = draw(st.one_of(st.sampled_from(values), st.floats(-1.0, 1.0)))
    return n0, n1, keep, values, level


# one full cell (1, 1) in checkerboard: a saddle joined both ways
@example((3, 3, [True] * 4, [0.0, 1.0, 1.0, 0.0], 0.5))
@example((3, 3, [True] * 4, [0.0, 1.0, 1.0, 0.0], 0.375))
@given(_contour_cases())
@settings(max_examples=300, deadline=None)
def test_array_contour_matches_cell_loop(case):
    n0, n1, keep, values, level = case
    h = 0.25
    members = [(i + 1, j + 1) for i, j in
               (divmod(k, n1 - 1) for k, kept in enumerate(keep) if kept)]
    bounds = ((-0.5, -0.5 + n0 * h), (0.25, 0.25 + n1 * h))
    g = mo.build_grid(mo.GridSpec(2, h, bounds, Region.cells(h, members, (-0.5, 0.25))))
    assert g.node_count == len(values)
    phi = np.array(values)
    got = mo.extract_contour(phi, level, g).polylines
    want = _cell_loop_contour(phi, level, g)
    assert len(got) == len(want)
    for poly, (points, closed) in zip(got, want):
        assert poly.closed == closed
        assert poly.points.shape == points.shape
        assert poly.points.tobytes() == points.tobytes()


def test_contour_csv_format():
    g = mo.build_grid(mo.disk_spec(1.0 / 16))
    phi = 1.0 - np.sum(g.coordinates() ** 2, axis=1)
    contours = mo.extract_contour(phi, 0.5, g)
    stream = io.StringIO()
    contour_csv(stream, contours, header_lines=["probe"])
    text = stream.getvalue()
    lines = text.strip().splitlines()
    assert lines[0] == "# probe"
    assert "curve,x,y" in lines
    assert any(line.startswith("0,") for line in lines)


# ---------------------------------------------------------------------------
# discrete regularity

def test_second_differences_of_smooth_field_converge():
    sups = []
    for k in (16, 32, 64):
        g = mo.build_grid(mo.square_spec(1.0 / k))
        xy = g.coordinates()
        phi = np.sin(math.pi * xy[:, 0]) * np.sin(math.pi * xy[:, 1])
        sups.append(pure_difference_sup(g, phi))
    for s in sups:
        assert s == pytest.approx(math.pi**2, rel=0.05)
    assert abs(sups[-1] / sups[-2] - 1.0) <= 0.05


def test_kink_profile_detected_by_second_differences():
    sups = []
    for k in (16, 32, 64):
        g = mo.build_grid(mo.square_spec(1.0 / k))
        xy = g.coordinates()
        tent = np.minimum(xy[:, 0], 1.0 - xy[:, 0]) * np.sin(math.pi * xy[:, 1])
        sups.append(pure_difference_sup(g, tent / np.max(np.abs(tent))))
    ratios = [sups[i + 1] / sups[i] for i in range(2)]
    assert all(r >= 1.8 for r in ratios)  # doubles per halving, far above 1.5


def test_regularity_trend_smooth_problem():
    g = mo.build_grid(mo.square_spec(1.0 / 8))
    lo, hi = mo.conformal_bounds(0.0)
    problem = mo.ProblemSpec(grid=g, rho_min=lo, rho_max=hi, mass=mo.domain_volume(g))
    report = mo.regularity_trend(mo.ladder(problem, [1.0 / 8, 1.0 / 16, 1.0 / 32]).solutions)
    assert report.bounded()
    assert all(abs(r - 1.0) <= 0.2 for r in report.ratios)


def test_regularity_trend_drops_each_level_with_its_stiffness(monkeypatch):
    # the ladder keeps the solutions, not the problems, so the stiffness (and
    # its factor) of each level goes once the level is solved
    refs = []
    assemble = optimizer.assemble_stiffness

    def recorded(*args, **kwargs):
        stiffness = assemble(*args, **kwargs)
        refs.append(weakref.ref(stiffness))
        return stiffness
    monkeypatch.setattr(optimizer, "assemble_stiffness", recorded)

    def coarsest():
        g = mo.build_grid(mo.square_spec(1.0 / 8))
        return mo.ProblemSpec(grid=g, rho_min=0.5, rho_max=2.0, mass=mo.domain_volume(g))

    steps = mo.ladder(coarsest(), [1.0 / 8, 1.0 / 16])
    report = mo.regularity_trend(steps.solutions)
    assert steps.levels == (1.0 / 8, 1.0 / 16) and len(report.sups) == 2
    assert len(refs) == 2
    assert [ref() for ref in refs] == [None, None]


def test_ladder_on_a_point_box_is_the_uniform_eigenvalue_per_level():
    # rho_min = rho_max: each level is one full eigensolve, bit for bit the
    # uniform-weight solve; mus 19.48684, 19.67587, 19.72336, whose
    # differences shrink by 3.98
    spacings = (1.0 / 8, 1.0 / 16, 1.0 / 32)
    g = mo.build_grid(mo.square_spec(spacings[0]))
    steps = mo.ladder(mo.ProblemSpec(g, 1.0, 1.0, mo.domain_volume(g)), spacings)
    expected = []
    for h in spacings:
        grid = mo.build_grid(mo.square_spec(h))
        stiffness = mo.assemble_stiffness(grid)
        expected.append(mo.first_eigenpair(stiffness, np.ones(grid.node_count)).eigenvalue)
    assert steps.levels == spacings
    assert steps.mus == tuple(expected)
    assert [len(solution[3]) for solution in steps.solutions] == [1, 1, 1]
    assert len(steps.orders) == 1
    assert all(abs(q - 2.0) <= 0.05 for q in steps.orders), steps.orders


def test_ladder_orders_are_exact_for_a_power_law_at_a_constant_ratio():
    def fake(levels, exponent):
        mus = [3.0 + 5.0 * h**exponent for h in levels]
        solutions = tuple((None, SimpleNamespace(eigenvalue=mu), None, None) for mu in mus)
        return mo.Ladder(levels=tuple(levels), solutions=solutions)

    assert fake([1.0 / 2**k for k in range(1, 5)], 2).orders == pytest.approx([2.0, 2.0])
    assert fake([1.0 / 3**k for k in range(4)], 1).orders == pytest.approx([1.0, 1.0])
    # at a varying ratio the same arithmetic is only an estimate
    assert fake([1.0 / 4, 1.0 / 5, 1.0 / 6], 2).orders[0] != pytest.approx(2.0)
    assert fake([1.0 / 8, 1.0 / 16], 2).orders == ()


# ---------------------------------------------------------------------------
# radial structure

def test_radial_deviation_of_annular_set_is_zero():
    g = mo.build_grid(mo.disk_spec(1.0 / 16))
    radii = np.linalg.norm(g.coordinates(), axis=1)
    bins = np.floor(radii / g.spacing).astype(int)
    annular = np.nonzero((bins >= 5) & (bins <= 10))[0]  # full rings only
    assert mo.radial_deviation(annular, g) == 0.0


def test_radial_deviation_of_half_disk_is_one_half():
    g = mo.build_grid(mo.disk_spec(1.0 / 16))
    half = np.nonzero(g.coordinates()[:, 0] > 0.0)[0]
    assert mo.radial_deviation(half, g) == pytest.approx(0.5, abs=0.1)


def _radial_deviation_loop(nodes, grid):
    """The per-bin loop that np.bincount replaced."""
    members = np.zeros(grid.node_count, dtype=bool)
    members[np.asarray(nodes, dtype=np.int64)] = True
    center = np.asarray(grid.spec.shape.center)
    bins = np.floor(np.linalg.norm(grid.coordinates() - center, axis=1)
                    / grid.spacing).astype(np.int64)
    disagreement = 0
    for b in np.unique(bins):
        in_bin = bins == b
        hits = int(np.count_nonzero(members[in_bin]))
        disagreement += min(hits, int(np.count_nonzero(in_bin)) - hits)
    return disagreement / grid.node_count


@given(st.integers(min_value=0, max_value=2**32 - 1), st.floats(0.0, 1.0))
@settings(max_examples=30, deadline=None)
def test_radial_deviation_matches_per_bin_loop(seed, share):
    g = mo.build_grid(mo.disk_spec(1.0 / 12, radius=0.8, center=(0.3, -0.1)))
    rng = np.random.default_rng(seed)
    nodes = np.flatnonzero(rng.random(g.node_count) < share)
    assert mo.radial_deviation(nodes, g) == _radial_deviation_loop(nodes, g)


def test_radial_deviation_requires_disk():
    g = mo.build_grid(mo.square_spec(0.25))
    with pytest.raises(ValueError, match="disk"):
        mo.radial_deviation([0], g)
