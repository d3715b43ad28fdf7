"""Masked rectilinear grids with an optional conformal background weight.

A grid is the set of lattice points of spacing ``h`` that lie strictly
inside a shape and strictly inside the lattice bounding box.  Nodes are
ordered lexicographically by integer coordinate, so construction is
bitwise deterministic.  A dense lattice index array, padded by one layer
on every side, maps every lattice point back to its node (-1 where there
is none).  It is built from a boolean image of the inner box, the lattice
points off the bounding-box boundary: the shape is evaluated once at
their centers, the lattice map is one masked assignment of node numbers
into the padded lattice's inner view, and the nodes are the integer
coordinates of the image's true entries, read through it one axis at a
time, with no integer table of the box.  A point's place in the
flat lattice is its coordinates plus one dotted with the array's element
strides; ``Grid.positions`` gives it for every node, a step from every
node at once, stencil neighbors included, is one gather at those
positions plus the step's offset, and a reflection flips the lattice.
Boundary values are never stored: a missing axis neighbor means the
homogeneous Dirichlet condition applies across that edge.

Both per-point inputs are array functions, each called once per grid.  A
shape is any object with a vectorized ``contains(points)`` that maps the
(N, d) array of lattice point centers to an (N,) bool array;
``Rectangle``, ``Disk``, ``Annulus`` and ``Dumbbell`` are built in.  A
grid may be disconnected (a thin annulus can split); the weighted
eigenproblem is well posed on it all the same, and
``verify.count_components`` counts the pieces of any node set.  Each node
optionally carries a background weight ``e^(dw)``, stored as ``Grid.e2w``:
the exponent field ``w`` maps the (N, d) array of node centers to an (N,)
float array, and the measure of a node is then ``e^(dw) * h^d``.  A
problem on a curved grid needs operator order p = d (see
``optimizer.ProblemSpec``).  The node table artifact is written by
``cli.grid_csv``.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Protocol

import numpy as np

__all__ = [
    "Annulus",
    "Disk",
    "Dumbbell",
    "Grid",
    "GridSpec",
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

    def contains(self, points: np.ndarray) -> np.ndarray:
        return _squared_distance(points, self.center) < self.radius**2


@dataclass(frozen=True)
class Annulus:
    """Open spherical shell between two radii."""

    center: tuple[float, ...]
    inner_radius: float
    outer_radius: float

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


class Shape(Protocol):
    """Vectorized membership of (N, d) point centers, an (N,) bool array."""

    def contains(self, points: np.ndarray) -> np.ndarray: ...


# exponent field w: (N, d) node centers -> (N,) float array
Background = Callable[[np.ndarray], np.ndarray]


# ---------------------------------------------------------------------------
# specs

@dataclass(frozen=True)
class GridSpec:
    """Everything needed to build a grid deterministically.

    ``bounds`` is one finite (lo, hi) pair per axis and ``spacing`` a
    finite positive h.  ``shape`` is any object with a vectorized
    ``contains(points)`` that maps the (N, d) array of lattice point
    centers to an (N,) bool array.  A dumbbell needs a neck at least 2h
    wide, which keeps its discrete domain connected.
    ``background`` is an optional exponent field w, called once with the
    (N, d) array of node centers and returning an (N,) float array (None
    means flat, w = 0).
    """

    dimension: int
    spacing: float
    bounds: tuple[tuple[float, float], ...]
    shape: Shape
    background: Background | None = None

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")
        if not 0.0 < self.spacing < math.inf:
            raise ValueError(f"spacing must be finite and positive, got {self.spacing}")
        if len(self.bounds) != self.dimension:
            raise ValueError(
                f"need {self.dimension} bound pairs, got {len(self.bounds)}"
            )
        for lo, hi in self.bounds:
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"bounding box axis [{lo}, {hi}] is not finite")
            if not hi > lo:
                raise ValueError(f"degenerate bounding box axis [{lo}, {hi}]")
        if isinstance(self.shape, Dumbbell):
            if self.dimension != 2:
                raise ValueError("dumbbell shape is two-dimensional")
            if not self.shape.neck_width >= 2.0 * self.spacing:
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
                background: Background | None = None) -> GridSpec:
    """Cube [0, side]^d at spacing h."""
    return GridSpec(dimension, h, ((0.0, side),) * dimension, Rectangle(), background)


def box_spec(h: float, bounds: Sequence[tuple[float, float]],
             background: Background | None = None) -> GridSpec:
    return GridSpec(len(bounds), h, tuple((float(a), float(b)) for a, b in bounds),
                    Rectangle(), background)


def disk_spec(h: float, radius: float = 1.0,
              center: Sequence[float] | None = None, dimension: int = 2,
              background: Background | None = None) -> GridSpec:
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
    lexicographic order.  ``lattice`` is the inverse of ``nodes``:
    ``lattice[i + 1]`` is the index of the node at integer coordinates
    ``i`` (0 <= i_k <= lattice_cells[k]), -1 where there is none.  It
    carries one layer of -1 padding on every side, so that the neighbors
    of Dirichlet-layer points stay in bounds.  The neighbor of every node
    along a step is one gather of the flat lattice at ``positions()`` plus
    the step's offset, with no coordinate table.  ``e2w`` is the per-node
    background weight e^(dw), float64; on a flat grid it is a read-only
    broadcast of one stored 1.0 rather than n stored ones, and it reads
    the same everywhere.
    """

    spec: GridSpec
    nodes: np.ndarray
    lattice: np.ndarray
    e2w: np.ndarray
    lattice_cells: tuple[int, ...]

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
    def cell_volumes(self) -> np.ndarray:
        """Per-node measure e^(dw) h^d."""
        return self.e2w * self.spacing**self.dimension

    @property
    def origin(self) -> tuple[float, ...]:
        return tuple(lo for lo, _ in self.spec.bounds)

    @property
    def flat(self) -> bool:
        return bool(np.all(self.e2w == 1.0))

    @property
    def fills_lattice(self) -> bool:
        """Whether every lattice point off the bounding-box boundary is a
        node, as on boxes; a step between lattice points is then one
        constant offset between node indices."""
        return self.node_count == math.prod(c - 1 for c in self.lattice_cells)

    def coordinates(self) -> np.ndarray:
        """Physical node centers, shape (N, d)."""
        coords = self.nodes * self.spacing
        coords += self.origin
        return coords

    def positions(self) -> np.ndarray:
        """Flat position of every node in ``lattice.reshape(-1)``, in node
        order (nodes follow the lattice's C order), int32 where the lattice
        fits.  A step s from the nodes lands at ``positions() + s @
        strides``, the strides counted in elements; within one step of the
        lattice that is still a position of the padded lattice."""
        index = np.int32 if self.lattice.size <= np.iinfo(np.int32).max else np.int64
        return np.flatnonzero(self.lattice.reshape(-1) >= 0).astype(index)


def _element_strides(lattice: np.ndarray) -> np.ndarray:
    """Element strides of the padded lattice, shape (d,): a step s between
    lattice points moves the flat index by s @ strides."""
    return np.array(lattice.strides, dtype=np.int64) // lattice.itemsize


def neighbor_steps(dimension: int) -> np.ndarray:
    """Integer coordinate step to each of the 2d axis neighbors, shape
    (2d, d), ordered (axis0-, axis0+, axis1-, axis1+, ...)."""
    unit = np.eye(dimension, dtype=np.int64)
    return np.stack([-unit, unit], axis=1).reshape(2 * dimension, dimension)


def build_grid(spec: GridSpec) -> Grid:
    """Construct the masked grid for a spec.

    Interior nodes are exactly the lattice points whose center satisfies
    the shape predicate and which do not lie on the lattice boundary of
    the bounding box.  The shape is called once, on the centers of the
    inner box's points; its answer, reshaped, is a boolean image of the
    inner box, and the image alone gives the lattice map and the nodes.
    Raises on an empty interior and on a background weight e^(dw) that
    overflows or underflows.
    """
    d, h = spec.dimension, spec.spacing
    cells = []
    for lo, hi in spec.bounds:
        cells.append(int(math.floor((hi - lo) / h + 1e-9)))
    origin = np.array([lo for lo, _ in spec.bounds])

    # the inner box: integer coordinates 1 .. cells - 1 on every axis, as
    # one (1, .., inner[k], .., 1) vector per axis that broadcasts over it
    inner = tuple(max(c - 1, 0) for c in cells)
    axes = [np.arange(1, m + 1).reshape([m if j == k else 1 for j in range(d)])
            for k, m in enumerate(inner)]
    # its centers origin + h * i in C (lexicographic) order, one column at a time
    points = np.empty((math.prod(inner), d))
    box = points.reshape(inner + (d,))
    for k, axis in enumerate(axes):
        box[..., k] = origin[k] + h * axis
    inside = np.asarray(spec.shape.contains(points), dtype=bool).reshape(inner)
    # the centers go before the lattice and the nodes are made
    del points, box
    n = int(np.count_nonzero(inside))
    if n == 0:
        raise ValueError(
            "degenerate domain: no interior nodes "
            f"(shape {type(spec.shape).__name__}, h={h})"
        )

    # the image, numbered in C order, is the padded lattice's inner view,
    # and a node's coordinates are its axis vectors read through the image
    lattice = np.full(tuple(c + 3 for c in cells), -1, dtype=np.int64)
    lattice[(slice(2, -2),) * d][inside] = np.arange(n)
    node_arr = np.empty((n, d), dtype=np.int64)
    for k, axis in enumerate(axes):
        node_arr[:, k] = np.broadcast_to(axis, inner)[inside]

    if spec.background is not None:
        w = np.asarray(spec.background(origin + node_arr * h), dtype=float)
        if w.shape != (n,):
            raise ValueError(
                f"background must return one w per node, shape ({n},), got {w.shape}"
            )
        if not np.all(np.isfinite(w)):
            raise ValueError("background exponent field evaluates non-finite")
        with np.errstate(over="ignore", under="ignore"):
            e2w = np.exp(d * w)
        if np.any(np.isinf(e2w) | (e2w == 0.0)):
            raise ValueError(
                f"background weight e^({d}w) overflows or underflows for w in "
                f"[{float(np.min(w))!r}, {float(np.max(w))!r}]"
            )
    else:
        # a flat grid's weight is one stored 1.0, broadcast to every node
        e2w = np.broadcast_to(1.0, (n,))

    for arr in (node_arr, lattice, e2w):
        arr.setflags(write=False)
    return Grid(
        spec=spec,
        nodes=node_arr,
        lattice=lattice,
        e2w=e2w,
        lattice_cells=tuple(cells),
    )


def domain_volume(grid: Grid) -> float:
    """Background-measured volume sum(e^(dw) h^d); equals N h^d when flat."""
    return float(np.sum(grid.cell_volumes))


def mirror_permutation(grid: Grid, axis: int = 0) -> np.ndarray:
    """Node permutation for reflection across the bounding-box midplane.

    Raises if the node set is not symmetric under that reflection.  The
    padded lattice is symmetric about the same midplane, so the reflection
    is a flip of the lattice along ``axis``, read at the nodes.
    """
    perm = np.flip(grid.lattice, axis)[grid.lattice >= 0]
    missing = np.flatnonzero(perm < 0)
    if missing.size:
        node = tuple(int(v) for v in grid.nodes[missing[0]])
        raise ValueError(
            f"grid is not mirror-symmetric about axis {axis} "
            f"(node {node} has no image)"
        )
    return perm

