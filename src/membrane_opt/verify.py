"""Independent verification: brute-force optima, level sets, connectivity,
refinement, the round hemisphere.

Everything here except the ladders deliberately avoids the production solve
path: the enumeration oracle uses a dense LAPACK generalized eigensolve,
the contour extractor runs marching squares from raw nodal values on the
cells that cross the level, found on boolean lattice images, and the
connectivity and regularity checks are plain numpy gathers at flat lattice
positions (``Grid.positions``) plus an axis's stride.  None of them builds
a table of node coordinates or of every cell's corners, so their memory
stays a few node-sized vectors.
``count_components`` is the package's one connectivity count of node sets.
``ladder`` is its one refinement study: the same problem, under the one
mass rule ``ProblemSpec.on_grid``, solved at each of a sequence of
spacings.  ``round_hemisphere`` is its one conformal check: two problems
on the ``stereographic`` disk, solved at each spacing on one grid, one
stiffness and one factor per level, against eigenvalues of the round
metric.
``scipy.linalg`` is imported only inside the oracle's dense
solve, so the contour export and the other checks load numpy alone.
Nothing here formats artifacts; the contour table (``contours.csv``) is
written by ``cli.contour_csv``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field, replace
from itertools import combinations

import numpy as np

from .eigen import SolverOptions
from .grid import Disk, Grid, _element_strides, build_grid, disk_spec, domain_volume
from .optimizer import (
    DensityField,
    LevelSetPartition,
    ProblemSpec,
    minimize,
    target_high_mass,
)

__all__ = [
    "ContourSet",
    "HemisphereLadder",
    "Ladder",
    "OracleCandidate",
    "OracleResult",
    "Polyline",
    "RegularityReport",
    "check_oracle_input",
    "count_components",
    "enumerate_optimal",
    "extract_contour",
    "ladder",
    "pure_difference_sup",
    "radial_deviation",
    "regularity_trend",
    "round_hemisphere",
    "stereographic",
    "sublevel_check",
]

ORACLE_NODE_CAP = 20
# largest sub-level margin (phi^2 units) that sublevel_check still accepts
_SUBLEVEL_TOL = 1e-14
# largest growth ratio of second differences that counts as bounded
_BOUNDED_RATIO = 1.5


# ---------------------------------------------------------------------------
# brute-force global optimum

@dataclass(frozen=True)
class OracleCandidate:
    eigenvalue: float
    high_nodes: tuple[int, ...]
    fractional_node: int | None


@dataclass(frozen=True, eq=False)
class OracleResult:
    density: DensityField
    eigenvalue: float
    eigenvector: np.ndarray
    partition: LevelSetPartition
    ranking: tuple[OracleCandidate, ...]


def _dense_smallest(a_dense: np.ndarray, weights: np.ndarray) -> tuple[float, np.ndarray]:
    import scipy.linalg

    mu, vecs = scipy.linalg.eigh(a_dense, np.diag(weights))
    phi = vecs[:, 0]
    peak = int(np.argmax(np.abs(phi)))
    if phi[peak] < 0.0:
        phi = -phi
    return float(mu[0]), phi


def check_oracle_input(grid: Grid) -> None:
    """Raise ValueError unless the grid has at most ORACLE_NODE_CAP nodes
    and its node volumes are uniform, so the per-node budget is one cell."""
    n = grid.node_count
    if n > ORACLE_NODE_CAP:
        raise ValueError(f"oracle scale exceeded: {n} nodes > cap {ORACLE_NODE_CAP}")
    cells = grid.cell_volumes
    if float(np.max(np.abs(cells - cells[0]))) > 1e-15 * float(cells[0]):
        raise ValueError("oracle requires uniform node volumes (flat background)")


def enumerate_optimal(spec: ProblemSpec) -> OracleResult:
    """Exhaustive minimum over two-valued-plus-one-fractional densities.

    Places the upper bound on every k-subset of nodes (k from the high-set
    volume budget) and, when the budget does not divide evenly, tries the
    fractional node at every remaining position.  Each candidate is solved
    densely.  The grid must pass ``check_oracle_input``.
    """
    grid = spec.grid
    check_oracle_input(grid)
    n = grid.node_count
    cells = grid.cell_volumes
    cell = float(cells[0])

    budget = target_high_mass(spec)
    ratio = budget / cell
    k = int(np.floor(ratio + 1e-12))
    theta = ratio - k
    if theta < 1e-12:
        theta = 0.0
    elif theta > 1.0 - 1e-12:
        k += 1
        theta = 0.0
    lo, hi = spec.rho_min, spec.rho_max
    frac_value = lo + (hi - lo) * theta

    a_dense = spec.stiffness.matrix.toarray()
    e2w = grid.e2w

    ranking: list[tuple[float, tuple[int, ...], int, np.ndarray]] = []
    for subset in combinations(range(n), k):
        rho = np.full(n, lo)
        rho[list(subset)] = hi
        if theta > 0.0:
            for extra in range(n):
                if extra in subset:
                    continue
                trial = rho.copy()
                trial[extra] = frac_value
                mu, phi = _dense_smallest(a_dense, trial * e2w)
                ranking.append((mu, subset, extra, phi))
        else:
            mu, phi = _dense_smallest(a_dense, rho * e2w)
            ranking.append((mu, subset, -1, phi))

    ranking.sort(key=lambda item: (item[0], item[1], item[2]))
    best_mu, best_subset, best_extra, best_phi = ranking[0]

    rho = np.full(n, lo)
    rho[list(best_subset)] = hi
    fractional = None if best_extra < 0 else int(best_extra)
    if fractional is not None:
        others = float(rho @ cells) - rho[fractional] * cell
        rho[fractional] = (spec.mass - others) / cell
    rho.setflags(write=False)

    taken = set(best_subset)
    if fractional is not None:
        taken.add(fractional)
    low = np.array([i for i in range(n) if i not in taken], dtype=np.int64)
    high = np.array(sorted(best_subset), dtype=np.int64)
    if fractional is not None:
        threshold = float(best_phi[fractional])
    elif high.size:
        by_phi2 = min(high, key=lambda i: (best_phi[i] ** 2, i))
        threshold = float(best_phi[int(by_phi2)])
    else:
        threshold = float(np.max(np.abs(best_phi)))

    return OracleResult(
        density=DensityField(grid=grid, values=rho),
        eigenvalue=best_mu,
        eigenvector=best_phi,
        partition=LevelSetPartition(
            low_nodes=low, high_nodes=high,
            threshold=threshold, fractional_node=fractional,
        ),
        ranking=tuple(
            OracleCandidate(mu, subset, None if extra < 0 else extra)
            for mu, subset, extra, _ in ranking
        ),
    )


# ---------------------------------------------------------------------------
# structure checks

def sublevel_check(phi: np.ndarray, partition: LevelSetPartition) -> tuple[bool, float]:
    """Is the low region a sub-level set of phi^2?  Returns (ok, margin).

    The margin is max over the low region of phi^2 minus min over the high
    region; a margin above 1e-14 is a violation.  The fractional node sits
    in neither region and is exempt.
    """
    phi2 = np.asarray(phi, dtype=float) ** 2
    if partition.low_nodes.size == 0 or partition.high_nodes.size == 0:
        return True, 0.0
    margin = float(np.max(phi2[partition.low_nodes]) - np.min(phi2[partition.high_nodes]))
    return margin <= _SUBLEVEL_TOL, margin


def _node_mask(nodes: Iterable[int] | np.ndarray, grid: Grid) -> np.ndarray:
    """Boolean membership mask over the grid nodes of a node index set.

    Raises ValueError, naming the index, on an index that is not an
    integer or lies outside [0, node_count): numpy would otherwise wrap a
    negative index, truncate a fractional one, or fail without saying
    which index is wrong.
    """
    entries = nodes if isinstance(nodes, np.ndarray) else list(nodes)
    index = np.asarray(entries)
    n = grid.node_count
    members = np.zeros(n, dtype=bool)
    if index.size == 0:
        return members
    if index.dtype.kind not in "iu":
        values = entries if isinstance(entries, list) else index.ravel().tolist()
        bad = next((v for v in values if not isinstance(v, (int, np.integer))), values[0])
        raise ValueError(f"node index {bad!r} is not an integer")
    outside = (index < 0) | (index >= n)
    if outside.any():
        raise ValueError(f"node index {index[outside][0]} outside [0, {n})")
    members[index] = True
    return members


def count_components(nodes: Iterable[int] | np.ndarray, grid: Grid) -> int:
    """Connected components of a node set under the 2d-neighbor stencil graph.

    A vectorized union-find over the member pairs along the + step of each
    axis.  The pairs come from flat lattice positions (``Grid.positions``):
    a member's + neighbor along axis k sits at its position plus that
    axis's element stride, and a boolean image of the members on the
    lattice says whether the neighbor is a member too, so no table of
    coordinates is built; positions, edges and labels are int32 where the
    lattice fits.  Every node starts as its own root; each round hooks the
    larger root of every edge whose ends lie in different trees to the
    smaller one (``np.minimum.at``), then jumps pointers (``label[label]``)
    until every node points at its root.  Labels only decrease, so the
    forest has no cycles, and each round that finds a split edge merges
    trees.  The count is the number of members that are their own root.
    """
    members = _node_mask(nodes, grid)
    lattice = grid.lattice.reshape(-1)
    at = grid.positions()
    inside = np.flatnonzero(members).astype(at.dtype)
    at = at[inside]
    image = np.zeros(lattice.size, dtype=bool)
    image[at] = True
    tails, heads = [], []
    for stride in _element_strides(grid.lattice).tolist():
        edge = image[at + stride]
        tails.append(inside[edge])
        ahead = at[edge]
        ahead += stride
        heads.append(np.take(lattice, ahead, out=ahead))
    # each temporary goes as soon as it is spent: the edges and the union-find
    # rounds set the peak, which the tests bound
    del at, image
    tail, head = np.concatenate(tails), np.concatenate(heads)
    del tails, heads
    label = np.arange(members.shape[0], dtype=inside.dtype)
    while True:
        a, b = label[tail], label[head]
        if np.array_equal(a, b):
            break
        low = np.minimum(a, b)
        np.maximum(a, b, out=a)
        del b
        np.minimum.at(label, a, low)
        del a, low
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped
    return int(np.count_nonzero(label[inside] == inside))


# ---------------------------------------------------------------------------
# contour extraction (two dimensions)

@dataclass(frozen=True, eq=False)
class Polyline:
    points: np.ndarray
    closed: bool


@dataclass(frozen=True, eq=False)
class ContourSet:
    """Level curves of phi at one threshold plus the component count of the
    strict super-level node set under 4-connectivity."""

    polylines: tuple[Polyline, ...]
    region_components: int

    @property
    def closed_count(self) -> int:
        return sum(1 for p in self.polylines if p.closed)


# Corner k of lattice cell (i, j) is (i, j) + _CORNERS[k]; edge k joins
# corner k and corner k + 1 (mod 4), and _EDGE_ENDS[k] are its lower and
# upper corner.  A crossing is interpolated from the lower end, so the two
# cells that share an edge compute its crossing bit for bit alike.
_CORNERS = np.array([(0, 0), (1, 0), (1, 1), (0, 1)])
_EDGE_ENDS = np.array([(0, 1), (1, 2), (3, 2), (0, 3)])
# the two edge pairs a saddle cell joins, by whether the cell average lies
# on corner 0's side of the level
_SADDLE_JOINS = np.array([[(0, 1), (2, 3)], [(0, 3), (1, 2)]])


def extract_contour(phi: np.ndarray, level: float, grid: Grid) -> ContourSet:
    """Marching squares on the interior lattice at the given level.

    Only cells whose four corners are all interior nodes contribute, with
    linear interpolation along edges; nodes with phi <= level count as the
    inside.  The crossing cells are found on boolean images of the lattice
    (corner present, corner inside), and corner values are gathered for
    those cells alone.  A saddle cell joins its crossings by the side of
    the cell average.  Segments are chained into polylines; a polyline is
    closed when it returns to its start.  Points are physical coordinates.
    """
    if grid.dimension != 2:
        raise ValueError("contour extraction requires a two-dimensional grid")
    phi = np.asarray(phi, dtype=float)
    n0, n1 = grid.lattice_cells
    field = np.full((n0 + 1, n1 + 1), np.nan)
    # nodes follow the lattice's C order, so one masked store places them
    field[grid.lattice[1:-1, 1:-1] >= 0] = phi

    # crossing cells, in (i, j) order: all four corners are nodes and lie on
    # both sides of the level; corner k of every cell is one lattice view
    whole = np.ones((n0, n1), dtype=bool)
    below = np.zeros((n0, n1), dtype=bool)
    above = np.zeros((n0, n1), dtype=bool)
    for a, b in _CORNERS:
        corner = field[a:a + n0, b:b + n1]
        whole &= ~np.isnan(corner)
        below |= corner <= level
        above |= corner > level
    cells = np.flatnonzero(whole & below & above)
    del whole, below, above
    ij = np.unravel_index(cells, (n0, n1))
    f = field[ij[0][:, None] + _CORNERS[:, 0], ij[1][:, None] + _CORNERS[:, 1]]
    inside = f <= level
    crosses = inside != np.roll(inside, -1, axis=1)

    # each cell crosses on two edges, joined in edge order, or on all four
    first = np.argmax(crosses, axis=1)
    last = 3 - np.argmax(crosses[:, ::-1], axis=1)
    saddle = crosses.all(axis=1)
    centre = (((f[:, 0] + f[:, 1]) + f[:, 2]) + f[:, 3]) / 4.0
    side = ((centre <= level) == inside[:, 0]).astype(np.intp)
    joins = np.where(saddle[:, None, None], _SADDLE_JOINS[side],
                     np.stack([first, last], axis=1)[:, None, :])
    keep = np.stack([np.ones_like(saddle), saddle], axis=1)
    owner = np.broadcast_to(np.arange(cells.size)[:, None], keep.shape)[keep]
    edge = joins[keep]

    low, high = _EDGE_ENDS[edge, 0], _EDGE_ENDS[edge, 1]
    fa = f[owner[:, None], low]
    fb = f[owner[:, None], high]
    t = (level - fa) / (fb - fa)
    cell_ij = np.stack(ij, axis=-1)[owner]
    points = ((cell_ij[:, None, :] + _CORNERS[low])
              + t[..., None] * (_CORNERS[high] - _CORNERS[low]))

    origin = np.asarray(grid.origin)
    out = []
    # np.round is round() on a numpy float; round() on a Python float
    # rounds differently in the last bit now and then
    for path, closed in _chain_segments(np.round(points, 9).tolist()):
        arr = origin + np.asarray(path) * grid.spacing
        arr.setflags(write=False)
        out.append(Polyline(points=arr, closed=closed))

    region = np.nonzero(phi > level)[0]
    return ContourSet(
        polylines=tuple(out),
        region_components=count_components(region, grid),
    )


def _chain_segments(segments) -> list[tuple[list[tuple[float, float]], bool]]:
    """Chain segments, pairs of points rounded to 9 decimals, into polylines
    that join where segments share an end point."""
    links: dict[tuple[float, float], list[tuple[float, float]]] = {}
    for a, b in segments:
        ka, kb = tuple(a), tuple(b)
        if ka == kb:
            continue
        links.setdefault(ka, []).append(kb)
        links.setdefault(kb, []).append(ka)

    used: set[frozenset] = set()
    polylines: list[tuple[list[tuple[float, float]], bool]] = []

    def walk(start):
        path = [start]
        current = start
        while True:
            step = None
            for nxt in links[current]:
                edge = frozenset((current, nxt))
                if edge not in used:
                    step = nxt
                    used.add(edge)
                    break
            if step is None:
                return path
            path.append(step)
            current = step

    endpoints = sorted(k for k, v in links.items() if len(v) == 1)
    for start in endpoints:
        if all(frozenset((start, nxt)) in used for nxt in links[start]):
            continue
        path = walk(start)
        if len(path) >= 2:
            polylines.append((path, False))
    for start in sorted(links):
        if all(frozenset((start, nxt)) in used for nxt in links[start]):
            continue
        path = walk(start)
        if len(path) >= 2:
            polylines.append((path, path[0] == path[-1]))
    return polylines


# ---------------------------------------------------------------------------
# discrete regularity

def pure_difference_sup(grid: Grid, values: np.ndarray) -> float:
    """Sup over nodes and axes of |centered second difference| / h^2.

    Missing neighbors contribute the Dirichlet value zero, matching the
    stencil operator.
    """
    v = np.asarray(values, dtype=float)
    h = grid.spacing
    at = grid.positions()
    # the values on the padded lattice, zero off the nodes; a neighbor
    # along an axis is one gather at the positions plus the axis's stride
    image = np.zeros(grid.lattice.size)
    image[at] = v

    worst = 0.0
    for stride in _element_strides(grid.lattice).tolist():
        second = image[at - stride] - 2.0 * v + image[at + stride]
        worst = max(worst, float(np.max(np.abs(second))) / h**2)
    return worst


# ---------------------------------------------------------------------------
# refinement

@dataclass(frozen=True, eq=False)
class Ladder:
    """One problem solved at each spacing in ``levels``: ``solutions`` holds
    the ``minimize`` result of each level, ``mus`` its eigenvalue."""

    levels: tuple[float, ...]
    solutions: tuple = field(repr=False)

    @property
    def mus(self) -> tuple[float, ...]:
        return tuple(solution[1].eigenvalue for solution in self.solutions)

    @property
    def orders(self) -> tuple[float, ...]:
        """Observed order of each three successive levels,
        log(d_k / d_(k+1)) / log(h_k / h_(k+1)) over the differences
        d_k = mu_(k+1) - mu_k; one fewer than the differences.  Exact for
        mu_h = mu + C h^q when the ratio h_k / h_(k+1) is constant, an
        estimate otherwise; nan where successive differences change sign."""
        h, mu = np.array(self.levels), np.array(self.mus)
        d = np.diff(mu)
        with np.errstate(divide="ignore", invalid="ignore"):
            orders = np.log(d[:-1] / d[1:]) / np.log(h[:-2] / h[1:-1])
        return tuple(orders.tolist())


def _level(problem: ProblemSpec, h: float) -> ProblemSpec:
    """``problem`` at spacing h: itself at its own spacing, its grid spec
    at h under the mass rule otherwise."""
    if h == problem.grid.spacing:
        return problem
    return problem.on_grid(build_grid(replace(problem.grid.spec, spacing=h)))


def ladder(problem: ProblemSpec, spacings: Sequence[float],
           opts: SolverOptions = SolverOptions(),
           max_alternations: int = 200) -> Ladder:
    """Solve ``problem`` at each spacing, in the order given, from the
    uniform density.

    A level at ``problem``'s own spacing is ``problem`` itself, so its
    stiffness and factor are reused; every other level is ``problem``'s
    grid spec at that spacing, carried over by ``ProblemSpec.on_grid``,
    built when it is solved.  Only the ``minimize`` results are kept, so
    the stiffness and factor of such a level go once it is solved.  On a
    point box (rho_min = rho_max) each level is one full eigensolve.
    """
    levels = tuple(spacings)
    solutions = tuple(minimize(_level(problem, h), opts=opts,
                               max_alternations=max_alternations) for h in levels)
    return Ladder(levels=levels, solutions=solutions)


# spacings of the round-hemisphere ladders; the finest disk has 3205 nodes
HEMISPHERE_SPACINGS = (1 / 8, 1 / 16, 1 / 32)
# first eigenvalue on the round 2-hemisphere of the composite membrane at box
# (1/4, 4) and mean density 1.  Its high set is the polar cap of area 2 pi / 5,
# cos t > 4/5 (stereographic radius 1/3), and mu is the first root of
# u(pi/2) = 0 for the regular solution of u'' + cot(t) u' + mu rho u = 0,
# u'(0) = 0, rho = 4 on the cap and 1/4 off it (shooting in the round metric)
HEMISPHERE_COMPOSITE = 0.8680037457129489


def stereographic(points: np.ndarray) -> np.ndarray:
    """Background w = log(2 / (1 + |x|^2)): the unit ball is a round hemisphere."""
    return np.log(2.0 / (1.0 + np.sum(points**2, axis=1)))


@dataclass(frozen=True, eq=False)
class HemisphereLadder:
    """A ``Ladder`` on the stereographic disk, its problem's first eigenvalue
    on the round hemisphere, the ``errors`` reference - mu and their ratios."""

    ladder: Ladder
    reference: float

    @property
    def errors(self) -> tuple[float, ...]:
        return tuple(self.reference - mu for mu in self.ladder.mus)

    @property
    def ratios(self) -> tuple[float, ...]:
        return tuple(coarse / fine for coarse, fine in zip(self.errors, self.errors[1:]))

    def first_order(self) -> bool:
        """Every error positive, every ratio in (1.5, 2.5): first order from below."""
        return min(self.errors) > 0.0 and all(1.5 < r < 2.5 for r in self.ratios)


def round_hemisphere(opts: SolverOptions = SolverOptions(),
                     max_alternations: int = 200) -> dict[str, HemisphereLadder]:
    """The ``"uniform"`` (box (1, 1)) and ``"composite"`` (box (1/4, 4))
    membranes on the stereographic unit disk, each solved at
    ``HEMISPHERE_SPACINGS`` against its value on the round hemisphere, at
    mean density 1 (M the ``domain_volume`` of each level's disk): a check
    of the weight rho e^(2w) and of the background measure of the mass.
    Each mu rises to the reference from below.

    Each level's disk is built once, and the composite problem on it
    shares the uniform one's stiffness and factor (``ProblemSpec.with_box``);
    the uniform levels are solved first, then the composite ones."""
    grids = [build_grid(disk_spec(h, background=stereographic)) for h in HEMISPHERE_SPACINGS]
    uniform = [ProblemSpec(grid, 1.0, 1.0, domain_volume(grid)) for grid in grids]
    # uniform: P_1(cos t) = cos t vanishes on the equator, so mu_1 = 1 (1 + 1)
    studies = {"uniform": (uniform, 2.0),
               "composite": ([spec.with_box(0.25, 4.0) for spec in uniform],
                             HEMISPHERE_COMPOSITE)}
    return {name: HemisphereLadder(Ladder(HEMISPHERE_SPACINGS, tuple(
                minimize(spec, opts=opts, max_alternations=max_alternations)
                for spec in problems)), mu)
            for name, (problems, mu) in studies.items()}


@dataclass(frozen=True)
class RegularityReport:
    """Sup of pure second differences per refinement level and their growth.
    ``bounded`` holds when every growth ratio is at most 1.5."""

    sups: tuple[float, ...]
    ratios: tuple[float, ...]

    def bounded(self) -> bool:
        return all(r <= _BOUNDED_RATIO for r in self.ratios)


def regularity_trend(solutions: Iterable[tuple]) -> RegularityReport:
    """Second differences of the ``minimize`` result of each refinement
    level, coarse to fine, such as ``ladder(...).solutions``.

    The converged eigenfunction is rescaled to unit sup norm before
    differencing on its density's grid, so levels are comparable.  Bounded
    growth ratios are the discrete signal of a Lipschitz gradient; a kink
    profile doubles its ratio at every halving and is caught by the same
    machinery.
    """
    sups = []
    for density, pair, _, _ in solutions:
        phi = pair.vector / np.max(np.abs(pair.vector))
        sups.append(pure_difference_sup(density.grid, phi))
    ratios = tuple(sups[k + 1] / sups[k] for k in range(len(sups) - 1))
    return RegularityReport(sups=tuple(sups), ratios=ratios)


def radial_deviation(nodes: Iterable[int] | np.ndarray, grid: Grid) -> float:
    """Fraction of nodes disagreeing with the majority vote of their radius bin.

    Bins have width h around the disk center; zero means the set is a union
    of full rings, one half means every ring is split evenly.
    """
    shape = grid.spec.shape
    if not isinstance(shape, Disk):
        raise ValueError("radial deviation requires a disk-shaped grid")
    members = _node_mask(nodes, grid)
    radii = np.linalg.norm(grid.coordinates() - np.asarray(shape.center), axis=1)
    bins = np.floor(radii / grid.spacing).astype(np.int64)
    totals = np.bincount(bins)
    hits = np.bincount(bins[members], minlength=totals.size)
    disagreement = int(np.sum(np.minimum(hits, totals - hits)))
    return disagreement / grid.node_count
