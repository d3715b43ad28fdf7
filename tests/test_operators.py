import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import membrane_opt as mo
from membrane_opt import operators
from shapes import Region, node_lookup


# ---------------------------------------------------------------------------
# an independent symbolic oracle for the clamped bilaplacian: apply the
# (2d+1)-point stencil twice with dictionary arithmetic, reflecting every
# non-interior neighbor of a Dirichlet-layer point through that point

def _symbolic_bilaplacian(grid):
    """Integer-unit clamped bilaplacian (h^4 times Lap^2), dense."""
    d = grid.dimension
    interior = {tuple(int(v) for v in t): k for k, t in enumerate(grid.nodes)}

    def shifted(point, axis, step):
        out = list(point)
        out[axis] += step
        return tuple(out)

    def inner_row(point):
        # h^2 * (-Lap phi) at an interior point; missing neighbors are zero
        row = {interior[point]: 2.0 * d}
        for ax in range(d):
            for step in (-1, 1):
                nb = shifted(point, ax, step)
                if nb in interior:
                    row[interior[nb]] = row.get(interior[nb], 0.0) - 1.0
        return row

    def layer_row(point):
        # h^2 * (-Lap phi) at a zero point next to the interior
        row = {}
        for ax in range(d):
            for step in (-1, 1):
                nb = shifted(point, ax, step)
                src = nb if nb in interior else shifted(point, ax, -step)
                if src in interior:
                    row[interior[src]] = row.get(interior[src], 0.0) - 1.0
        return row

    n = len(interior)
    dense = np.zeros((n, n))
    for point, i in interior.items():
        # outer stencil: 2d * value(point) - sum over the 2d lattice neighbors
        acc: dict[int, float] = {}
        for col, coef in inner_row(point).items():
            acc[col] = acc.get(col, 0.0) + 2.0 * d * coef
        for ax in range(d):
            for step in (-1, 1):
                nb = shifted(point, ax, step)
                row = inner_row(nb) if nb in interior else layer_row(nb)
                for col, coef in row.items():
                    acc[col] = acc.get(col, 0.0) - coef
        for col, coef in acc.items():
            dense[i, col] = coef
    return dense


@pytest.mark.parametrize("spec", [
    mo.square_spec(0.5),
    mo.square_spec(0.25),
    mo.box_spec(0.5, [(0.0, 3.0)]),
    mo.disk_spec(0.25),
    mo.dumbbell_spec(1.0 / 16),
    mo.annulus_spec(1.0 / 8, 0.4, 1.0),
    mo.square_spec(0.25, dimension=3),
    mo.square_spec(0.25, dimension=4),
])
def test_bilaplacian_matches_symbolic_double_application(spec):
    g = mo.build_grid(spec)
    assembled = mo.assemble_stiffness(g, order=4).matrix.toarray()
    assert np.array_equal(assembled, _symbolic_bilaplacian(g) / g.spacing**4)


def test_single_node_stencils():
    g = mo.build_grid(mo.square_spec(0.5))
    a2 = mo.assemble_stiffness(g).matrix.toarray()
    assert a2.item() == pytest.approx(4.0 / 0.25)
    a4 = mo.assemble_stiffness(g, order=4).matrix.toarray()
    # hand value: 20 from the interior 13-point stencil plus 4 reflections
    assert a4.item() == pytest.approx(24.0 / 0.5**4)


def test_1d_clamped_beam_rows():
    h = 1.0 / 6
    g = mo.build_grid(mo.box_spec(h, [(0.0, 1.0)]))
    assert g.node_count == 5
    b = mo.assemble_stiffness(g, order=4).matrix.toarray() * h**4
    expected = np.array([
        [7, -4, 1, 0, 0],
        [-4, 6, -4, 1, 0],
        [1, -4, 6, -4, 1],
        [0, 1, -4, 6, -4],
        [0, 0, 1, -4, 7],
    ], dtype=float)
    assert np.array_equal(b, expected)


def test_deep_interior_13_point_stencil():
    g = mo.build_grid(mo.square_spec(0.1))
    b = mo.assemble_stiffness(g, order=4)
    center = int(node_lookup(g, [(5, 5)])[0])
    row = b.matrix.toarray()[center] * g.spacing**4
    coefs = {}
    for j in np.nonzero(row)[0]:
        offset = tuple(g.nodes[j] - g.nodes[center])
        coefs[offset] = row[j]
    assert coefs[(0, 0)] == 20.0
    for off in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        assert coefs[off] == -8.0
    for off in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        assert coefs[off] == 2.0
    for off in ((2, 0), (-2, 0), (0, 2), (0, -2)):
        assert coefs[off] == 1.0


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("spec", [
    mo.square_spec(1.0 / 8),
    mo.disk_spec(1.0 / 8),
    mo.dumbbell_spec(1.0 / 16),
])
def test_stiffness_exactly_symmetric(order, spec):
    g = mo.build_grid(spec)
    a = mo.assemble_stiffness(g, order=order).matrix
    assert (a - a.T).nnz == 0


@pytest.mark.parametrize("order", [2, 4])
def test_stiffness_positive_definite(order):
    g = mo.build_grid(mo.disk_spec(1.0 / 8))
    dense = mo.assemble_stiffness(g, order=order).matrix.toarray()
    assert scipy.linalg.eigh(dense, eigvals_only=True)[0] > 0.0
    ones = np.ones(g.node_count)
    assert ones @ (dense @ ones) > 0.0


def test_square_laplacian_eigenvalue_closed_form():
    # discrete 5-point eigenvalue on the unit square is (8/h^2) sin^2(pi h / 2)
    h = 1.0 / 16
    g = mo.build_grid(mo.square_spec(h))
    dense = mo.assemble_stiffness(g).matrix.toarray()
    smallest = scipy.linalg.eigh(dense, eigvals_only=True, subset_by_index=[0, 0])[0]
    expected = 8.0 / h**2 * math.sin(math.pi * h / 2.0) ** 2
    assert smallest == pytest.approx(expected, rel=1e-12)


def test_stiffness_independent_of_background_bitwise():
    h = 1.0 / 16

    def bump(p):
        s2 = p[:, 0] ** 2 + p[:, 1] ** 2
        return 0.3 * np.exp(-4.0 * s2)

    flat = mo.build_grid(mo.disk_spec(h))
    curved = mo.build_grid(mo.disk_spec(h, background=bump))
    a = mo.assemble_stiffness(flat).matrix
    b = mo.assemble_stiffness(curved).matrix
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data, b.data)

    rho = np.linspace(0.5, 1.5, flat.node_count)
    w_curved = mo.assemble_weight(curved, rho)
    w_flat = mo.assemble_weight(flat, rho * curved.e2w)
    assert np.max(np.abs(w_curved - w_flat) / w_curved) <= 1e-15


def test_weight_examples():
    g = mo.build_grid(mo.square_spec(1.0 / 3))
    assert np.array_equal(mo.assemble_weight(g, np.ones(4)), np.ones(4))

    curved = mo.build_grid(mo.square_spec(
        1.0 / 3, background=lambda p: np.full(len(p), math.log(3.0) / 2.0)))
    assert mo.assemble_weight(curved, np.ones(4)) == pytest.approx(3.0 * np.ones(4), rel=1e-14)

    two_valued = np.array([0.25, 4.0, 0.25, 4.0])
    assert np.array_equal(mo.assemble_weight(g, two_valued), two_valued)


def test_weight_rejects_nonpositive():
    g = mo.build_grid(mo.square_spec(1.0 / 3))
    with pytest.raises(ValueError, match="positive"):
        mo.assemble_weight(g, np.array([1.0, 0.0, 1.0, 1.0]))


def test_order4_rejects_background():
    # the stiffness never reads the background; the order-4 problem in 2D is
    # what may not be curved
    g = mo.build_grid(mo.square_spec(1.0 / 8, background=lambda p: np.full(len(p), 0.1)))
    curved = mo.assemble_stiffness(g, order=4).matrix
    flat = mo.assemble_stiffness(mo.build_grid(mo.square_spec(1.0 / 8)), order=4).matrix
    for name in ("indptr", "indices", "data"):
        assert getattr(curved, name).tobytes() == getattr(flat, name).tobytes()
    with pytest.raises(ValueError, match="p = d, got p = 4 in d = 2"):
        mo.ProblemSpec(g, 1.0, 1.0, mo.domain_volume(g), order=4)


def test_assemble_stiffness_validates_order():
    g = mo.build_grid(mo.square_spec(1.0 / 3))
    with pytest.raises(ValueError, match="operator order must be 2 or 4, got 3"):
        mo.assemble_stiffness(g, order=3)


# ---------------------------------------------------------------------------
# the assembly against references built outside ``operators``: COO triplets
# from lookups of the shifted nodes for order 2, the symbolic oracle for
# order 4

def _coo_laplacian(grid):
    """Integer-unit Laplacian through COO triplets, duplicates summed."""
    n = grid.node_count
    unit = np.eye(grid.dimension, dtype=np.int64)
    neighbors = np.stack([node_lookup(grid, grid.nodes + s)
                          for s in np.concatenate([-unit, unit])], axis=1)
    src, slot = np.nonzero(neighbors >= 0)
    rows = np.concatenate([np.arange(n), src])
    cols = np.concatenate([np.arange(n), neighbors[src, slot]])
    data = np.concatenate([np.full(n, 2.0 * grid.dimension), np.full(src.shape[0], -1.0)])
    mat = sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
    mat.sum_duplicates()
    mat.sort_indices()
    return mat


def _reference(grid, order):
    """The stiffness as CSR with sorted indices and no stored zeros, scaled
    as ``assemble_stiffness`` scales it."""
    if order == 2:
        mat = _coo_laplacian(grid)
    else:
        mat = sp.csr_matrix(_symbolic_bilaplacian(grid))
    mat.data *= grid.spacing ** float(-order)
    return mat


def _same_csr(a, b):
    return all(getattr(a, k).dtype == getattr(b, k).dtype
               and getattr(a, k).tobytes() == getattr(b, k).tobytes()
               for k in ("indptr", "indices", "data"))


def _check_csr_identity(grid):
    for order in (2, 4):
        want = _reference(grid, order)
        assert _same_csr(operators._compressed(grid, order), want)
        assert _same_csr(mo.assemble_stiffness(grid, order=order).matrix, want)


@pytest.mark.parametrize("spec", [
    mo.box_spec(1.0 / 7, [(0.0, 1.0)]),
    mo.square_spec(1.0 / 9),
    mo.box_spec(0.25, [(0.0, 1.0), (0.0, 1.5), (0.0, 1.25)]),
    mo.square_spec(0.2, dimension=4),
    mo.disk_spec(1.0 / 16, center=(0.1, -0.2)),
    mo.disk_spec(1.0 / 16, background=lambda p: 0.2 * p[:, 0]),
    mo.dumbbell_spec(1.0 / 16),
    mo.annulus_spec(1.0 / 12, 0.3, 1.0),
    mo.annulus_spec(0.25, 0.5, 1.0, dimension=3),
    mo.square_spec(0.5, dimension=3),
    mo.box_spec(0.25, [(0.0, 1.0), (0.0, 0.5), (0.0, 1.25)]),
    mo.square_spec(1.0 / 3, dimension=3),
    mo.box_spec(0.25, [(0.0, 1.0), (0.0, 1.5), (0.0, 1.0)]),
    mo.disk_spec(0.25, dimension=4),
], ids=["1d", "square", "3d-box", "4d", "disk", "curved-disk", "dumbbell",
        "annulus", "3d-annulus", "point", "slab", "pairs", "triples", "4d-ball"])
def test_direct_csr_matches_coo_construction(spec):
    _check_csr_identity(mo.build_grid(spec))


@given(st.lists(st.booleans(), min_size=36, max_size=36))
@settings(max_examples=30, deadline=None)
def test_direct_csr_matches_coo_on_random_masks(inside):
    cells = frozenset(point for point, keep in
                      zip(itertools.product(range(1, 7), repeat=2), inside) if keep)
    assume(cells)
    h = 1.0 / 7
    _check_csr_identity(mo.build_grid(mo.GridSpec(2, h, ((0.0, 1.0), (0.0, 1.0)),
                                                  Region.cells(h, cells))))


_MASK_3D = (3, 4, 5)  # interior nodes per axis


@given(st.lists(st.booleans(), min_size=60, max_size=60))
@settings(max_examples=20, deadline=None)
def test_direct_csr_matches_references_on_random_3d_masks(inside):
    cells = frozenset(point for point, keep in
                      zip(itertools.product(*(range(1, n + 1) for n in _MASK_3D)), inside)
                      if keep)
    assume(cells)
    h = 1.0 / 6
    bounds = tuple((0.0, (n + 1) * h) for n in _MASK_3D)
    origin = (0.0, 0.0, 0.0)
    _check_csr_identity(mo.build_grid(mo.GridSpec(3, h, bounds,
                                                  Region.cells(h, cells, origin))))


def test_assembly_allocates_at_most_twice_the_matrix():
    grid = mo.build_grid(mo.disk_spec(1.0 / 128))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        mat = mo.assemble_stiffness(grid).matrix
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 2 * (mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes)


def test_masked_bilaplacian_assembly_allocates_at_most_twice_the_matrix():
    # the h=1/64 disk is factored, so its bilaplacian is stored as CSR
    grid = mo.build_grid(mo.disk_spec(1.0 / 64))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        mat = mo.assemble_stiffness(grid, order=4).matrix
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 2 * (mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes)


# ---------------------------------------------------------------------------
# diagonal storage of full-lattice matrices on the conjugate-gradient path

# boxes in dimensions 1 to 4 and two rectangles, none of them factored: the
# 2D ones exceed FACTOR_MAX_NODES.  Then degenerate boxes: a single node and
# a box one node thick, where diagonals vanish, and boxes of 2 and 3 nodes
# along the last axis, where two moves share an offset: a step along axis 1
# and two steps along axis 2 are both offset 2 on 2 nodes (the second fits
# nowhere), and a step along axis 1 less one along axis 2 and two steps
# along axis 2 are both offset 2 on 3 nodes
_FULL_LATTICE = {
    "line": mo.square_spec(1.0 / 9, dimension=1),
    "square": mo.square_spec(1.0 / 130),
    "cube": mo.square_spec(1.0 / 7, dimension=3),
    "tesseract": mo.square_spec(1.0 / 5, dimension=4),
    "rectangle": mo.box_spec(1.0 / 100, [(0.0, 2.0), (0.0, 1.0)]),
    "box": mo.box_spec(1.0 / 6, [(0.0, 1.0), (0.0, 0.5), (-1.0, 1.0)]),
    "point": mo.square_spec(0.5, dimension=3),
    "slab": mo.box_spec(0.25, [(0.0, 1.0), (0.0, 0.5), (0.0, 1.25)]),
    "pairs": mo.square_spec(1.0 / 3, dimension=3),
    "triples": mo.box_spec(0.25, [(0.0, 1.0), (0.0, 1.5), (0.0, 1.0)]),
}


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("name", sorted(_FULL_LATTICE))
def test_diagonal_products_match_csr_bitwise(name, order):
    grid = mo.build_grid(_FULL_LATTICE[name])
    a = mo.assemble_stiffness(grid, order=order)
    assert grid.fills_lattice and not a.factored
    want = operators._compressed(grid, order)
    # the stored diagonals are the CSR emitter's, offsets and data to the bit
    dia, want_dia = a.stored, want.todia()
    assert isinstance(dia, sp.dia_array)
    assert np.all(np.diff(dia.offsets) > 0)
    assert dia.data.shape == (dia.offsets.size, grid.node_count)
    assert np.array_equal(dia.offsets, want_dia.offsets)
    assert dia.data.dtype == want_dia.data.dtype
    assert dia.data.tobytes() == want_dia.data.tobytes()
    assert not dia.data.flags.writeable
    # and so is the CSR form derived from them
    assert "matrix" not in vars(a)
    assert _same_csr(a.matrix, want)
    assert a.matrix.has_sorted_indices and not a.matrix.data.flags.writeable
    rng = np.random.default_rng(order * 100 + grid.dimension)
    for _ in range(3):
        # entries spread over many binades, so that the order of the sums shows
        x = rng.standard_normal(grid.node_count) * np.exp(
            rng.uniform(-20.0, 20.0, grid.node_count))
        assert (dia @ x).tobytes() == (want @ x).tobytes()


def test_lattice_assembly_allocates_little_beside_its_diagonals():
    # the 4D clamped plate at h=1/10: the diagonals are the only large array
    # that assembly makes (the CSR route took 3.3 times their size)
    grid = mo.build_grid(mo.square_spec(0.1, dimension=4))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        a = mo.assemble_stiffness(grid, order=4)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert a.stored.data.shape == (41, grid.node_count)
    assert peak <= 1.2 * a.stored.data.nbytes


def test_minimize_on_the_diagonal_path_builds_no_csr():
    # the 4D clamped plate at h=1/5: every product of the run takes the
    # diagonals, and the CSR form is built only when asked for
    grid = mo.build_grid(mo.square_spec(0.2, dimension=4))
    spec = mo.ProblemSpec(grid=grid, rho_min=0.5, rho_max=2.0,
                          mass=mo.domain_volume(grid), order=4)
    _, pair, _, trace = mo.minimize(spec)
    assert trace.status == "converged" and pair.eigenvalue > 0.0
    a = spec.stiffness
    assert not a.factored and isinstance(a.stored, sp.dia_array)
    assert "matrix" not in vars(a)
    assert _same_csr(a.matrix, operators._compressed(grid, 4))


@pytest.mark.parametrize("spec", [
    mo.disk_spec(1.0 / 80),
    mo.disk_spec(1.0 / 5, dimension=3),
    mo.dumbbell_spec(1.0 / 96),
    mo.annulus_spec(1.0 / 6, 0.3, 1.0, dimension=3),
], ids=["disk", "ball", "dumbbell", "shell"])
def test_masked_grids_build_no_diagonal_copy(spec):
    grid = mo.build_grid(spec)
    assert not grid.fills_lattice
    for order in (2, 4):
        a = mo.assemble_stiffness(grid, order=order)
        assert not a.factored and a.stored is a.matrix
        assert isinstance(a.stored, sp.csr_matrix)


def test_factored_matrices_build_no_diagonal_copy():
    grid = mo.build_grid(mo.square_spec(1.0 / 16))
    assert grid.fills_lattice
    for order in (2, 4):
        a = mo.assemble_stiffness(grid, order=order)
        assert a.factored and a.stored is a.matrix
        assert isinstance(a.stored, sp.csr_matrix)
