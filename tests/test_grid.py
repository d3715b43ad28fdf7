import io
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import membrane_opt as mo
from membrane_opt.cli import grid_csv
from shapes import Region


def _neighbors(g):
    """(N, 2d) index of each node's axis neighbors, slots ordered (axis0-,
    axis0+, axis1-, ...), -1 where there is none: lookups of shifted nodes."""
    unit = np.eye(g.dimension, dtype=np.int64)
    return np.stack([g.lookup(g.nodes + sign * unit[axis])
                     for axis in range(g.dimension) for sign in (-1, 1)], axis=1)


def test_unit_square_h_half_single_node():
    g = mo.build_grid(mo.square_spec(0.5))
    assert g.node_count == 1
    assert np.allclose(g.coordinates(), [[0.5, 0.5]])


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_unit_square_interior_count(n):
    g = mo.build_grid(mo.square_spec(1.0 / (n + 1)))
    assert g.node_count == n * n


def test_disk_count_matches_independent_enumeration():
    h = 1.0 / 32
    g = mo.build_grid(mo.disk_spec(h))
    # brute-force lattice scan, written independently of build_grid
    count = 0
    for i in range(1, 64):
        for j in range(1, 64):
            x = -1.0 + i * h
            y = -1.0 + j * h
            if x * x + y * y < 1.0:
                count += 1
    assert g.node_count == count
    assert abs(count * h * h - math.pi) < 0.05


def test_domain_volume_flat_square():
    for n in (3, 7):
        h = 1.0 / (n + 1)
        g = mo.build_grid(mo.square_spec(h))
        assert mo.domain_volume(g) == pytest.approx(n * n * h * h, rel=1e-14)


def test_domain_volume_background_doubles():
    h = 1.0 / 8
    flat = mo.build_grid(mo.square_spec(h))
    curved = mo.build_grid(mo.square_spec(
        h, background=lambda p: np.full(len(p), math.log(2.0) / 2.0)))
    assert mo.domain_volume(curved) == pytest.approx(2.0 * mo.domain_volume(flat), rel=1e-14)


def test_disk_volume_close_to_pi():
    g = mo.build_grid(mo.disk_spec(1.0 / 64))
    assert mo.domain_volume(g) == pytest.approx(math.pi, rel=0.02)


def test_rebuild_is_bitwise_deterministic():
    spec = mo.disk_spec(1.0 / 16)
    a = mo.build_grid(spec)
    b = mo.build_grid(spec)
    assert np.array_equal(a.nodes, b.nodes)
    assert np.array_equal(_neighbors(a), _neighbors(b))
    assert np.array_equal(a.e2w, b.e2w)


def test_volume_refinement_is_first_order_cauchy():
    vols = {}
    for k in (8, 16, 32, 64):
        vols[k] = mo.domain_volume(mo.build_grid(mo.disk_spec(1.0 / k)))
    constants = [abs(vols[2 * k] - vols[k]) / (1.0 / k) for k in (8, 16, 32)]
    assert all(c <= 8.0 for c in constants)  # ~perimeter-scale constant
    assert max(constants) <= 4.0 * max(min(constants), 1e-12)


@pytest.mark.parametrize("spec", [mo.disk_spec(1.0 / 16), mo.dumbbell_spec(1.0 / 16)])
def test_mirror_symmetric_shapes_have_mirror_symmetric_nodes(spec):
    g = mo.build_grid(spec)
    for axis in range(2):
        perm = mo.mirror_permutation(g, axis)
        assert np.array_equal(np.sort(perm), np.arange(g.node_count))
        # an involution
        assert np.array_equal(perm[perm], np.arange(g.node_count))


def test_neighbor_relation_is_symmetric():
    g = mo.build_grid(mo.disk_spec(1.0 / 8))
    table = _neighbors(g)
    for i in range(g.node_count):
        for slot in range(4):
            j = table[i, slot]
            if j >= 0:
                back = 2 * (slot // 2) + (1 - slot % 2)
                assert table[j, back] == i


def test_empty_interior_raises_degenerate_domain():
    with pytest.raises(ValueError, match="degenerate domain"):
        mo.build_grid(mo.disk_spec(0.5, radius=0.01))


def test_dumbbell_thin_neck_rejected():
    with pytest.raises(ValueError, match="neck width"):
        mo.dumbbell_spec(1.0 / 8, neck_width=0.2)


@pytest.mark.parametrize("spacing, bounds", [
    (math.inf, ((0.0, 1.0), (0.0, 1.0))),
    (0.25, ((0.0, math.inf), (0.0, 1.0))),
    (0.25, ((0.0, 1.0), (-math.inf, 1.0))),
], ids=["spacing", "hi", "lo"])
def test_non_finite_spec_rejected(spacing, bounds):
    with pytest.raises(ValueError, match="finite"):
        mo.GridSpec(2, spacing, bounds, mo.Rectangle())


@pytest.mark.parametrize("background", [
    lambda p: 0.1, lambda p: np.zeros((len(p), 1)), lambda p: np.zeros(len(p) + 1),
], ids=["scalar", "column", "long"])
def test_background_of_wrong_shape_rejected(background):
    with pytest.raises(ValueError, match=r"one w per node, shape \(49,\)"):
        mo.build_grid(mo.square_spec(1.0 / 8, background=background))


def test_background_rejected_off_2d():
    # a 3D grid is measured by e^(3w), but no operator order equals 3, so no
    # problem on it may be curved
    spec = mo.square_spec(0.25, dimension=3, background=lambda p: np.full(len(p), 0.1))
    g = mo.build_grid(spec)
    assert g.e2w.tobytes() == np.exp(3 * np.full(27, 0.1)).tobytes()
    for order in (2, 4):
        with pytest.raises(ValueError, match=f"p = d, got p = {order} in d = 3"):
            mo.ProblemSpec(g, 1.0, 1.0, mo.domain_volume(g), order=order)


def test_four_dimensional_rectangle():
    g = mo.build_grid(mo.square_spec(1.0 / 4, dimension=4))
    assert g.node_count == 3**4
    assert _neighbors(g).shape == (81, 8)
    assert mo.domain_volume(g) == pytest.approx(81 / 256, rel=1e-14)


@given(st.integers(min_value=2, max_value=6), st.integers(min_value=2, max_value=6))
@settings(max_examples=20, deadline=None)
def test_rectangle_counts_product(nx, ny):
    spec = mo.box_spec(1.0, [(0.0, float(nx + 1)), (0.0, float(ny + 1))])
    g = mo.build_grid(spec)
    assert g.node_count == nx * ny


def test_grid_csv_layout():
    g = mo.build_grid(mo.square_spec(1.0 / 3))
    stream = io.StringIO()
    grid_csv(stream, g, header_lines=["probe"])
    text = stream.getvalue()
    lines = text.strip().splitlines()
    assert lines[0] == "# probe"
    assert lines[1] == "i0,i1,x0,x1,e2w"
    assert len(lines) == 2 + g.node_count


def test_grid_arrays_are_read_only():
    g = mo.build_grid(mo.square_spec(0.25))
    with pytest.raises(ValueError):
        g.nodes[0, 0] = 7


@pytest.mark.parametrize("dimension", [2, 4])
def test_lookup_refuses_points_beyond_the_padding(dimension):
    # h = 1/4: lattice_cells 4 per axis, lookup's range -1..5 per axis
    g = mo.build_grid(mo.square_spec(0.25, dimension=dimension))
    corner = (-1,) * dimension
    top = (5,) * dimension
    center = (2,) * dimension
    assert g.lookup([corner, top]).tolist() == [-1, -1]
    assert g.lookup([center]).tolist() == [(3**dimension - 1) // 2]
    below = (-4,) * dimension  # used to wrap round to the node at (3, ..., 3)
    above = (2,) * (dimension - 1) + (6,)
    for bad in (below, above):
        with pytest.raises(ValueError, match=re.escape(str(bad))):
            g.lookup([center, bad, corner])


@pytest.mark.parametrize("spec", [mo.disk_spec(1.0 / 16), mo.square_spec(0.25, dimension=3),
                                  mo.dumbbell_spec(1.0 / 16)], ids=["disk", "cube", "dumbbell"])
def test_positions_are_the_nodes_flat_places_in_the_lattice(spec):
    g = mo.build_grid(spec)
    at = g.positions()
    assert at.dtype == np.int32
    assert g.lattice.reshape(-1)[at].tolist() == list(range(g.node_count))
    # a step from every node is the positions plus the step's element offset
    strides = np.array(g.lattice.strides) // g.lattice.itemsize
    for step in np.eye(g.dimension, dtype=np.int64):
        assert g.lattice.reshape(-1)[at + int(step @ strides)].tolist() == \
            g.lookup(g.nodes + step).tolist()


# ---------------------------------------------------------------------------
# the lattice index against a dict-and-BFS reference written independently
# of build_grid

_REF_H = 1.0 / 6


def _reference_nodes(spec):
    """Interior nodes of a spec, one ``contains`` call per lattice point."""
    cells = [int(math.floor((hi - lo) / spec.spacing + 1e-9)) for lo, hi in spec.bounds]
    origin = np.array([lo for lo, _ in spec.bounds])
    nodes = []
    for idx in itertools.product(*(range(1, n) for n in cells)):
        point = origin + spec.spacing * np.asarray(idx, dtype=float)
        if spec.shape.contains(point[None])[0]:
            nodes.append(idx)
    return cells, nodes


def _shifted(point, axis, step):
    out = list(point)
    out[axis] += step
    return tuple(out)


def _reference_components(members):
    seen = set()
    count = 0
    for start in members:
        if start in seen:
            continue
        count += 1
        seen.add(start)
        queue = [start]
        while queue:
            point = queue.pop()
            for axis in range(len(point)):
                for step in (-1, 1):
                    nb = _shifted(point, axis, step)
                    if nb in members and nb not in seen:
                        seen.add(nb)
                        queue.append(nb)
    return count


def _check_against_reference(g, member_flags):
    d = g.dimension
    cells, nodes = _reference_nodes(g.spec)
    assert g.nodes.shape == (len(nodes), d)
    assert g.lattice.shape == tuple(n + 3 for n in cells)
    for arr in (g.nodes, g.lattice):
        assert arr.dtype == np.int64
        assert arr.flags.c_contiguous
        assert not arr.flags.writeable
    index = {point: i for i, point in enumerate(nodes)}
    assert g.lattice_cells == tuple(cells)
    assert [tuple(int(v) for v in row) for row in g.nodes] == nodes
    lattice = np.full(g.lattice.shape, -1)
    for i, point in enumerate(nodes):
        lattice[tuple(v + 1 for v in point)] = i
    assert np.array_equal(g.lattice, lattice)
    expected = [[index.get(_shifted(point, axis, step), -1)
                 for axis in range(d) for step in (-1, 1)] for point in nodes]
    assert _neighbors(g).tolist() == expected
    # every coordinate within one step of the lattice, lookup's documented range
    points = list(itertools.product(*(range(-1, n + 2) for n in cells)))
    assert g.lookup(points).tolist() == [index.get(point, -1) for point in points]
    for axis in range(d):
        image = {point: index.get(_shifted(point, axis, cells[axis] - 2 * point[axis]), -1)
                 for point in nodes}
        if min(image.values()) < 0:
            with pytest.raises(ValueError, match="not mirror-symmetric"):
                mo.mirror_permutation(g, axis)
        else:
            assert mo.mirror_permutation(g, axis).tolist() == list(image.values())
    _components_match_reference(g, member_flags[:g.node_count])


def _components_match_reference(g, member_flags):
    """count_components of the flagged nodes, asserted equal to the BFS count."""
    members = np.flatnonzero(member_flags)
    count = mo.count_components(members, g)
    assert count == _reference_components({tuple(p) for p in g.nodes[members].tolist()})
    return count


@given(st.lists(st.booleans(), min_size=25, max_size=25),
       st.lists(st.booleans(), min_size=25, max_size=25))
@settings(max_examples=40, deadline=None)
def test_lattice_matches_reference_on_random_masks(inside, member_flags):
    cells = frozenset(point for point, keep in
                      zip(itertools.product(range(1, 6), repeat=2), inside) if keep)
    assume(cells)
    g = mo.build_grid(mo.GridSpec(2, _REF_H, ((0.0, 1.0), (0.0, 1.0)),
                                  Region.cells(_REF_H, cells)))
    _check_against_reference(g, np.asarray(member_flags))


# interior 3 x 4 x 5: unequal extents, so a stride taken from the wrong axis shows
_MASK_3D = (3, 4, 5)


@given(st.lists(st.booleans(), min_size=60, max_size=60),
       st.lists(st.booleans(), min_size=60, max_size=60))
@settings(max_examples=25, deadline=None)
def test_lattice_matches_reference_on_random_3d_masks(inside, member_flags):
    cells = frozenset(point for point, keep in
                      zip(itertools.product(*(range(1, n + 1) for n in _MASK_3D)), inside)
                      if keep)
    assume(cells)
    g = mo.build_grid(mo.GridSpec(3, 1.0, tuple((0.0, n + 1.0) for n in _MASK_3D),
                                  Region.cells(1.0, cells, origin=(0.0, 0.0, 0.0))))
    _check_against_reference(g, np.asarray(member_flags))


@pytest.mark.parametrize("dimension", [1, 3, 4])
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_lattice_matches_reference_on_boxes(dimension, data):
    sides = data.draw(st.lists(st.integers(min_value=2, max_value=4),
                               min_size=dimension, max_size=dimension))
    g = mo.build_grid(mo.box_spec(1.0, [(0.0, float(n)) for n in sides]))
    flags = data.draw(st.lists(st.booleans(), min_size=g.node_count,
                               max_size=g.node_count))
    _check_against_reference(g, np.asarray(flags, dtype=bool))


# count_components against the BFS reference on paths thousands of nodes
# long, on many singletons and on random masks past two dimensions

_SIDE = 127  # interior nodes per axis of the unit square at h = 1/128


def _serpentine(i, j):
    # odd rows in full, joined at alternating ends by one node of each even row
    return (i % 2 == 1) | ((i % 4 == 2) & (j == _SIDE)) | ((i % 4 == 0) & (j == 1))


def _spiral(i, j):
    # the even Chebyshev rings from the border, each cut one node below its
    # top-left corner; the node right of that cut, on the odd ring inside,
    # bridges to the next even ring
    ring = np.minimum(np.minimum(i - 1, j - 1), np.minimum(_SIDE - i, _SIDE - j))
    return (ring % 2 == 0) != ((i == ring + 2) & (j == ring + 1))


@pytest.mark.parametrize("path", [_serpentine, _spiral])
def test_count_components_follows_a_path_thousands_of_nodes_long(path):
    g = mo.build_grid(mo.square_spec(1.0 / (_SIDE + 1)))
    flags = path(g.nodes[:, 0], g.nodes[:, 1])
    assert np.count_nonzero(flags) > 8000
    assert _components_match_reference(g, flags) == 1


def test_count_components_of_a_checkerboard_counts_singletons():
    g = mo.build_grid(mo.square_spec(1.0 / 65))
    flags = g.nodes.sum(axis=1) % 2 == 0
    assert _components_match_reference(g, flags) == g.node_count // 2 == 2048


@pytest.mark.parametrize("dimension, side", [(3, 12), (4, 7)])
@pytest.mark.parametrize("share", [0.3, 0.5, 0.7])
def test_count_components_on_random_box_masks(dimension, side, share):
    g = mo.build_grid(mo.square_spec(1.0, side=float(side + 1), dimension=dimension))
    flags = np.random.default_rng(side).random(g.node_count) < share
    assert _components_match_reference(g, flags) >= 1


def test_mirror_permutation_rejects_asymmetric_mask():
    g = mo.build_grid(mo.GridSpec(2, _REF_H, ((0.0, 1.0), (0.0, 1.0)),
                                  Region(lambda p: p[:, 0] < 0.4)))
    assert mo.mirror_permutation(g, axis=1).shape == (g.node_count,)
    with pytest.raises(ValueError, match=r"not mirror-symmetric about axis 0 \(node \(1, 1\)"):
        mo.mirror_permutation(g, axis=0)
