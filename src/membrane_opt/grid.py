"""Masked rectilinear grids with an optional conformal background weight.

A grid is the set of lattice points of spacing ``h`` that lie strictly
inside a shape and strictly inside the lattice bounding box.  Nodes are
ordered lexicographically by integer coordinate, so construction is
bitwise deterministic, and a dense lattice index array maps every lattice
point back to its node (-1 where there is none); neighbor tables, lookups
and reflections are array indexing into it.  Boundary values are never
stored: a missing axis neighbor means the homogeneous Dirichlet condition
applies across that edge.

Each node optionally carries a background weight ``e^(2w)`` evaluated
from a user-supplied exponent field ``w``; the measure of a node is then
``e^(2w) * h^d``.  Away from two dimensions the background must be flat
(``w = 0``): the second-order stiffness stencil is weight-free only in 2D.
The node table artifact is written by ``cli.grid_csv``.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

__all__ = [
    "Annulus",
    "Disk",
    "Dumbbell",
    "Grid",
    "GridSpec",
    "Mask",
    "Rectangle",
    "annulus_spec",
    "box_spec",
    "build_grid",
    "disk_spec",
    "domain_volume",
    "dumbbell_spec",
    "mirror_permutation",
    "square_spec",
]


# ---------------------------------------------------------------------------
# shapes

@dataclass(frozen=True)
class Rectangle:
    """The full bounding box; the lattice-boundary rule carves the walls."""

    assume_connected = True

    def contains(self, points: np.ndarray) -> np.ndarray:
        return np.ones(points.shape[0], dtype=bool)


def _squared_distance(points: np.ndarray, center: tuple[float, ...]) -> np.ndarray:
    r2 = np.zeros(points.shape[0])
    for k, c in enumerate(center):
        r2 += (points[:, k] - c) ** 2
    return r2


@dataclass(frozen=True)
class Disk:
    """Open ball of given center and radius (any dimension)."""

    center: tuple[float, ...]
    radius: float

    assume_connected = True

    def contains(self, points: np.ndarray) -> np.ndarray:
        return _squared_distance(points, self.center) < self.radius**2


@dataclass(frozen=True)
class Annulus:
    """Open spherical shell between two radii."""

    center: tuple[float, ...]
    inner_radius: float
    outer_radius: float

    assume_connected = True

    def contains(self, points: np.ndarray) -> np.ndarray:
        r2 = _squared_distance(points, self.center)
        return (self.inner_radius**2 < r2) & (r2 < self.outer_radius**2)


@dataclass(frozen=True)
class Dumbbell:
    """Two axis-aligned squares of side ``bell`` joined by a rectangular neck.

    Anchored at the origin: bells occupy [0, a] x [0, a] and
    [a + L, 2a + L] x [0, a]; the neck spans [a, a + L] in x and is
    centered vertically with width ``neck_width``.  Two dimensions only.
    """

    bell: float
    neck_length: float
    neck_width: float

    assume_connected = True

    def contains(self, points: np.ndarray) -> np.ndarray:
        x, y = points[:, 0], points[:, 1]
        a, length, width = self.bell, self.neck_length, self.neck_width
        bells = (0.0 < y) & (y < a) & (
            ((0.0 < x) & (x < a)) | ((a + length < x) & (x < 2.0 * a + length))
        )
        # closed in x across the seams, open in y: the neck's long sides are walls
        lo = 0.5 * (a - width)
        hi = 0.5 * (a + width)
        neck = (a <= x) & (x <= a + length) & (lo < y) & (y < hi)
        return bells | neck


@dataclass(frozen=True)
class Mask:
    """Explicit predicate shape; ``predicate(point) -> bool`` per node center."""

    predicate: Callable[[np.ndarray], bool]
    assume_connected: bool = False

    def contains(self, points: np.ndarray) -> np.ndarray:
        return np.fromiter((bool(self.predicate(p)) for p in points), dtype=bool,
                           count=points.shape[0])


Shape = Rectangle | Disk | Annulus | Dumbbell | Mask


# ---------------------------------------------------------------------------
# specs

@dataclass(frozen=True)
class GridSpec:
    """Everything needed to build a grid deterministically.

    ``bounds`` is one (lo, hi) pair per axis; ``background`` is an optional
    exponent field w evaluated at node centers (None means flat, w = 0).
    """

    dimension: int
    spacing: float
    bounds: tuple[tuple[float, float], ...]
    shape: Shape
    background: Callable[[np.ndarray], float] | None = None

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")
        if not (self.spacing > 0.0):
            raise ValueError(f"spacing must be positive, got {self.spacing}")
        if len(self.bounds) != self.dimension:
            raise ValueError(
                f"need {self.dimension} bound pairs, got {len(self.bounds)}"
            )
        for lo, hi in self.bounds:
            if not hi > lo:
                raise ValueError(f"degenerate bounding box axis [{lo}, {hi}]")
        if isinstance(self.shape, Dumbbell):
            if self.dimension != 2:
                raise ValueError("dumbbell shape is two-dimensional")
            if self.shape.neck_width < 2.0 * self.spacing:
                raise ValueError(
                    "dumbbell neck width must be >= 2h so the discrete "
                    f"domain is connected (width {self.shape.neck_width}, "
                    f"h {self.spacing})"
                )
            if min(self.shape.bell, self.shape.neck_length) <= 0.0:
                raise ValueError("dumbbell bell and neck length must be positive")
        if isinstance(self.shape, Annulus):
            if not 0.0 <= self.shape.inner_radius < self.shape.outer_radius:
                raise ValueError("annulus radii must satisfy 0 <= inner < outer")


def square_spec(h: float, side: float = 1.0, dimension: int = 2,
                background: Callable[[np.ndarray], float] | None = None) -> GridSpec:
    """Cube [0, side]^d at spacing h."""
    return GridSpec(dimension, h, ((0.0, side),) * dimension, Rectangle(), background)


def box_spec(h: float, bounds: Sequence[tuple[float, float]],
             background: Callable[[np.ndarray], float] | None = None) -> GridSpec:
    return GridSpec(len(bounds), h, tuple((float(a), float(b)) for a, b in bounds),
                    Rectangle(), background)


def disk_spec(h: float, radius: float = 1.0,
              center: Sequence[float] | None = None, dimension: int = 2,
              background: Callable[[np.ndarray], float] | None = None) -> GridSpec:
    c = tuple(center) if center is not None else (0.0,) * dimension
    bounds = tuple((ci - radius, ci + radius) for ci in c)
    return GridSpec(dimension, h, bounds, Disk(c, radius), background)


def annulus_spec(h: float, inner_radius: float, outer_radius: float,
                 center: Sequence[float] | None = None, dimension: int = 2) -> GridSpec:
    c = tuple(center) if center is not None else (0.0,) * dimension
    bounds = tuple((ci - outer_radius, ci + outer_radius) for ci in c)
    return GridSpec(dimension, h, bounds, Annulus(c, inner_radius, outer_radius))


def dumbbell_spec(h: float, bell: float = 1.0, neck_length: float = 0.5,
                  neck_width: float = 0.125) -> GridSpec:
    bounds = ((0.0, 2.0 * bell + neck_length), (0.0, bell))
    return GridSpec(2, h, bounds, Dumbbell(bell, neck_length, neck_width))


# ---------------------------------------------------------------------------
# grids

@dataclass(frozen=True, eq=False)
class Grid:
    """Immutable masked discretization; arrays are write-protected.

    ``nodes`` holds integer coordinates, one row per interior node, in
    lexicographic order.  ``neighbors`` has one row per node with 2d slots
    ordered (axis0-, axis0+, axis1-, axis1+, ...); -1 marks a missing
    neighbor, i.e. a homogeneous Dirichlet wall.  ``lattice`` is the
    inverse of ``nodes``: ``lattice[i + 1]`` is the index of the node at
    integer coordinates ``i`` (0 <= i_k <= lattice_cells[k]), -1 where
    there is none.  It carries one layer of -1 padding on every side, so
    that the neighbors of Dirichlet-layer points stay in bounds; use
    ``lookup`` or ``find`` rather than indexing it directly.
    """

    spec: GridSpec
    nodes: np.ndarray
    neighbors: np.ndarray
    lattice: np.ndarray
    e2w: np.ndarray
    lattice_cells: tuple[int, ...]
    warnings: tuple[str, ...] = ()

    @property
    def dimension(self) -> int:
        return self.spec.dimension

    @property
    def spacing(self) -> float:
        return self.spec.spacing

    @property
    def node_count(self) -> int:
        return int(self.nodes.shape[0])

    @property
    def node_volume(self) -> float:
        return self.spacing**self.dimension

    @property
    def cell_volumes(self) -> np.ndarray:
        """Per-node measure e^(2w) h^d."""
        return self.e2w * self.node_volume

    @property
    def origin(self) -> tuple[float, ...]:
        return tuple(lo for lo, _ in self.spec.bounds)

    @property
    def flat(self) -> bool:
        return bool(np.all(self.e2w == 1.0))

    def coordinates(self) -> np.ndarray:
        """Physical node centers, shape (N, d)."""
        coords = self.nodes * self.spacing
        coords += self.origin
        return coords

    def lookup(self, points: np.ndarray) -> np.ndarray:
        """Node indices for an (N, d) array of integer coordinates, -1 where
        there is no node.  Each coordinate must lie in -1..lattice_cells[k]+1,
        i.e. within one step of the lattice."""
        return self.lattice[tuple(np.asarray(points).T + 1)]

    def find(self, coords: Sequence[int]) -> int:
        """Node index for integer coordinates, or -1 if absent."""
        point = np.asarray(coords, dtype=np.int64)
        if np.any(point < 0) or np.any(point > self.lattice_cells):
            return -1
        return int(self.lookup(point[None])[0])


def neighbor_steps(dimension: int) -> np.ndarray:
    """Integer coordinate offset of each ``neighbors`` slot, shape (2d, d)."""
    unit = np.eye(dimension, dtype=np.int64)
    return np.stack([-unit, unit], axis=1).reshape(2 * dimension, dimension)


def component_count(neighbors: np.ndarray, members: np.ndarray) -> int:
    """Connected components of the member nodes (a boolean mask over all
    nodes) under the axis-neighbor graph."""
    # one edge per member pair along the + slot of each axis, as CSR rows in
    # node order; csgraph adds the reverse edges of an undirected graph
    ahead = neighbors[:, 1::2]
    edge = (ahead >= 0) & members[:, None]
    edge[edge] = members[ahead[edge]]
    n = members.shape[0]
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.count_nonzero(edge, axis=1), out=indptr[1:])
    indices = ahead[edge].astype(np.int32)
    graph = sp.csr_matrix((np.ones(indices.shape[0]), indices, indptr), shape=(n, n))
    labels = connected_components(graph, directed=False)[1]
    return int(np.unique(labels[members]).size)


def build_grid(spec: GridSpec) -> Grid:
    """Construct the masked grid for a spec.

    Interior nodes are exactly the lattice points whose center satisfies
    the shape predicate and which do not lie on the lattice boundary of
    the bounding box.  Raises on an empty interior and on a background
    weight e^(2w) that overflows or underflows; records a warning on the
    grid if a shape declared connected discretizes disconnected.
    """
    d, h = spec.dimension, spec.spacing
    cells = []
    for lo, hi in spec.bounds:
        cells.append(int(math.floor((hi - lo) / h + 1e-9)))
    origin = np.array([lo for lo, _ in spec.bounds])

    # lattice points off the bounding-box boundary, in C (lexicographic) order
    inner = tuple(max(c - 1, 0) for c in cells)
    candidates = np.indices(inner, dtype=np.int64).reshape(d, -1).T + 1
    node_arr = candidates[spec.shape.contains(origin + h * candidates.astype(float))]
    n = node_arr.shape[0]
    if n == 0:
        raise ValueError(
            "degenerate domain: no interior nodes "
            f"(shape {type(spec.shape).__name__}, h={h})"
        )

    lattice = np.full(tuple(c + 3 for c in cells), -1, dtype=np.int64)
    lattice[tuple(node_arr.T + 1)] = np.arange(n)

    neighbors = np.empty((n, 2 * d), dtype=np.int64)
    for slot, step in enumerate(neighbor_steps(d)):
        neighbors[:, slot] = lattice[tuple((node_arr + step).T + 1)]

    if spec.background is not None:
        if d != 2:
            raise ValueError(
                "flat background required for dimension != 2 (w must be omitted)"
            )
        coords = origin + node_arr * h
        w = np.array([float(spec.background(p)) for p in coords])
        if not np.all(np.isfinite(w)):
            raise ValueError("background exponent field evaluates non-finite")
        with np.errstate(over="ignore", under="ignore"):
            e2w = np.exp(2.0 * w)
        if np.any(np.isinf(e2w) | (e2w == 0.0)):
            raise ValueError(
                "background weight e^(2w) overflows or underflows for w in "
                f"[{float(np.min(w))!r}, {float(np.max(w))!r}]"
            )
    else:
        e2w = np.ones(n)

    warnings: tuple[str, ...] = ()
    if getattr(spec.shape, "assume_connected", False):
        parts = component_count(neighbors, np.ones(n, dtype=bool))
        if parts > 1:
            warnings = (
                f"disconnected interior: {parts} components for a shape "
                "declared connected",
            )

    for arr in (node_arr, neighbors, lattice, e2w):
        arr.setflags(write=False)
    return Grid(
        spec=spec,
        nodes=node_arr,
        neighbors=neighbors,
        lattice=lattice,
        e2w=e2w,
        lattice_cells=tuple(cells),
        warnings=warnings,
    )


def domain_volume(grid: Grid) -> float:
    """Background-measured volume sum(e^(2w) h^d); equals N h^d when flat."""
    return float(np.sum(grid.cell_volumes))


def mirror_permutation(grid: Grid, axis: int = 0) -> np.ndarray:
    """Node permutation for reflection across the bounding-box midplane.

    Raises if the node set is not symmetric under that reflection.
    """
    image = grid.nodes.copy()
    image[:, axis] = grid.lattice_cells[axis] - image[:, axis]
    perm = grid.lookup(image)
    missing = np.flatnonzero(perm < 0)
    if missing.size:
        node = tuple(int(v) for v in grid.nodes[missing[0]])
        raise ValueError(
            f"grid is not mirror-symmetric about axis {axis} "
            f"(node {node} has no image)"
        )
    return perm

