"""Alternating minimization of the first eigenvalue over constrained densities.

The density lives in the box [rho_min, rho_max] with a prescribed total
mass.  The outer loop alternates two exact half-steps: solve the weighted
eigenproblem for the current density, then redistribute the density by the
bathtub principle on the squared eigenfunction (upper bound where phi^2 is
largest, lower bound elsewhere, one fractional node to meet the mass
exactly).  Each half-step minimizes the Rayleigh quotient in one argument,
so the eigenvalue sequence is non-increasing.  Fixed points are two-valued
densities whose low region is a sub-level set of the eigenfunction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .eigen import EigenPair, SolverError, SolverOptions, first_eigenpair
from .grid import Grid, domain_volume
from .operators import StiffnessMatrix, assemble_stiffness, assemble_weight

__all__ = [
    "DensityField",
    "LevelSetPartition",
    "OptimizationTrace",
    "ProblemSpec",
    "Solution",
    "TraceRecord",
    "bathtub_rearrange",
    "classify_solutions",
    "conformal_bounds",
    "minimize",
    "multi_start",
    "seeded_density",
    "target_high_mass",
    "uniform_density",
]

CONVERGED = "converged"
CYCLING = "cycling"
MAX_ITER = "max-iter"

_MASS_RTOL = 1e-12
_FEAS_RTOL = 1e-12
# largest share of the nodes on which the low regions of one class may differ
_SET_TOL = 0.01


def conformal_bounds(bound_exponent: float, exponent: int = 2) -> tuple[float, float]:
    """Density box (e^(-nA), e^(nA)) from the sup-norm bound A on the factor."""
    if not math.isfinite(bound_exponent):
        raise ValueError("bound exponent must be finite")
    if bound_exponent < 0.0:
        raise ValueError(f"bound exponent must be >= 0, got {bound_exponent}")
    if exponent < 2:
        raise ValueError(f"exponent must be an integer >= 2, got {exponent}")
    try:
        scale = exponent * bound_exponent
        return math.exp(-scale), math.exp(scale)
    except OverflowError as exc:
        raise ValueError("density box (e^(-nA), e^(nA)) overflows a float: "
                         "n A is too large") from exc


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """Grid, density box, prescribed mass, and operator order.

    ``exponent`` is the n in rho = e^(n u); it only enters the recovery of
    the conformal factor u = log(rho) / n and the derived bounds.  The
    operator depends only on the grid and the order, never on the density,
    so the problem owns it: ``stiffness`` is assembled on first use, and
    every solve of the problem shares it and its cached factor.
    """

    grid: Grid
    rho_min: float
    rho_max: float
    mass: float
    order: int = 2
    exponent: int = 2

    def __post_init__(self) -> None:
        if not 0.0 < self.rho_min <= self.rho_max < math.inf:
            raise ValueError(
                f"need 0 < rho_min <= rho_max < inf, got ({self.rho_min}, {self.rho_max})"
            )
        if self.order not in (2, 4):
            raise ValueError(f"operator order must be 2 or 4, got {self.order}")
        vol = domain_volume(self.grid)
        slack = _FEAS_RTOL * max(abs(self.mass), 1.0)
        if not (self.rho_min * vol - slack <= self.mass <= self.rho_max * vol + slack):
            raise ValueError(
                "mass outside conformal box: need "
                f"{self.rho_min * vol:.6g} <= M <= {self.rho_max * vol:.6g}, "
                f"got M = {self.mass:.6g}"
            )

    @classmethod
    def from_exponent_bound(cls, grid: Grid, bound_exponent: float, mass: float,
                            exponent: int = 2, order: int = 2) -> "ProblemSpec":
        lo, hi = conformal_bounds(bound_exponent, exponent)
        return cls(grid=grid, rho_min=lo, rho_max=hi, mass=mass,
                   order=order, exponent=exponent)

    @property
    def volume(self) -> float:
        return domain_volume(self.grid)

    @cached_property
    def stiffness(self) -> StiffnessMatrix:
        """Order-``order`` stiffness of ``grid``, assembled once."""
        return assemble_stiffness(self.grid, self.order)


def target_high_mass(spec: ProblemSpec, vol: float | None = None) -> float:
    """Background volume the upper density value must occupy to meet the mass.

    Solves rho_min (vol - V) + rho_max V = M for V; zero when the box is
    a single point.
    """
    if vol is None:
        vol = spec.volume
    if spec.rho_max == spec.rho_min:
        return 0.0
    gap = spec.rho_max - spec.rho_min
    v_high = (spec.mass - spec.rho_min * vol) / gap
    # ProblemSpec grants the mass a rounding slack, which a narrow box
    # magnifies by 1/gap here
    slack = _FEAS_RTOL * max(vol, max(abs(spec.mass), 1.0) / gap)
    if v_high < -slack or v_high > vol + slack:
        raise ValueError(
            f"mass outside conformal box: high-set volume {v_high:.6g} "
            f"not in [0, {vol:.6g}]"
        )
    return float(min(max(v_high, 0.0), vol))


@dataclass(frozen=True, eq=False)
class DensityField:
    """Per-node density with its grid; mass is measured against e^(2w) h^d."""

    grid: Grid
    values: np.ndarray

    @property
    def mass(self) -> float:
        return float(self.values @ self.grid.cell_volumes)

    def conformal_factor(self, exponent: int = 2) -> np.ndarray:
        """Recover u from rho = e^(n u)."""
        return np.log(self.values) / exponent

    def fractional_nodes(self, spec: ProblemSpec) -> np.ndarray:
        """Indices strictly between the box bounds (up to 1e-12 relatively)."""
        lo, hi = spec.rho_min, spec.rho_max
        gap = hi - lo
        if gap == 0.0:
            return np.empty(0, dtype=np.int64)
        inner = (self.values > lo + 1e-12 * gap) & (self.values < hi - 1e-12 * gap)
        return np.nonzero(inner)[0]

    def validate(self, spec: ProblemSpec, two_valued: bool = False) -> None:
        lo, hi = spec.rho_min, spec.rho_max
        slack = 1e-12 * max(hi, 1.0)
        if np.any(self.values < lo - slack) or np.any(self.values > hi + slack):
            raise ValueError("density violates its box bounds")
        if abs(self.mass - spec.mass) > _MASS_RTOL * abs(spec.mass):
            raise ValueError(
                f"density mass {self.mass!r} misses target {spec.mass!r}"
            )
        if two_valued and self.fractional_nodes(spec).size > 1:
            raise ValueError("more than one fractional node")


def uniform_density(spec: ProblemSpec) -> DensityField:
    """The feasible constant density M / |Omega|."""
    level = spec.mass / spec.volume
    values = np.full(spec.grid.node_count, level)
    values.setflags(write=False)
    return DensityField(grid=spec.grid, values=values)


def seeded_density(spec: ProblemSpec, seed: int) -> DensityField:
    """Random feasible two-valued density: bathtub fill on random scores."""
    rng = np.random.default_rng(seed)
    scores = rng.random(spec.grid.node_count) + 0.5
    density, _ = bathtub_rearrange(scores, spec.grid, spec)
    return density


@dataclass(frozen=True, eq=False)
class LevelSetPartition:
    """Low/high split of the nodes with the threshold eigenfunction value."""

    low_nodes: np.ndarray
    high_nodes: np.ndarray
    threshold: float
    fractional_node: int | None = None

    @property
    def low_count(self) -> int:
        return int(self.low_nodes.size)

    @property
    def high_count(self) -> int:
        return int(self.high_nodes.size)


def bathtub_rearrange(phi: np.ndarray, grid: Grid,
                      spec: ProblemSpec) -> tuple[DensityField, LevelSetPartition]:
    """Mass-constrained box maximizer of sum(phi^2 rho e^(2w) h^d).

    Nodes ranked by (phi^2, node index) descending receive the upper bound
    until the high-set volume budget is spent; the node where the budget
    runs out mid-cell takes the unique intermediate value that meets the
    mass exactly and is reported as the fractional node.  The threshold is
    the phi value at the fractional node, or at the last upper-bound node
    when the budget divides evenly.
    """
    phi = np.asarray(phi, dtype=float)
    if not np.all(np.isfinite(phi)):
        raise ValueError("eigenfunction values must be finite")
    if not np.any(phi):
        raise ValueError("eigenfunction must not vanish identically")
    n = grid.node_count
    if phi.shape != (n,):
        raise ValueError(f"phi has shape {phi.shape}, grid has {n} nodes")

    cells = grid.cell_volumes
    vol = float(np.sum(cells))
    budget = target_high_mass(spec, vol)
    lo, hi = spec.rho_min, spec.rho_max

    key = phi * phi
    order = np.lexsort((np.arange(n), -key))
    ranked = cells[order]
    # budget left before each ranked node, subtracted left to right so the
    # rounding is that of a sequential fill (budget - cumsum is not)
    left = np.subtract.accumulate(np.concatenate(([budget], ranked)))
    # k = rank of the first node that no longer fits; every node before it
    # takes the upper bound, and no later node is considered
    k = int(np.argmin(np.append(left[:-1] >= ranked * (1.0 - 1e-12), False)))

    rho = np.full(n, lo)
    rho[order[:k]] = hi
    fractional: int | None = None
    # skipping this much budget would miss the mass target; the threshold
    # is mass-relative so huge boxes stay exact too
    if k < n and left[k] * (hi - lo) > 1e-14 * spec.mass:
        fractional = int(order[k])
        cell = float(cells[fractional])
        rho[fractional] = lo + (hi - lo) * (left[k] / cell)
        # pin the mass exactly by recomputing the fractional value
        others = float(rho @ cells) - rho[fractional] * cell
        value = (spec.mass - others) / cell
        rho[fractional] = min(max(value, lo), hi)

    if fractional is not None:
        threshold = float(phi[fractional])
    else:
        # the last upper-bound node, or the top-ranked one if none fits
        threshold = float(phi[order[max(k - 1, 0)]])

    high_arr = np.sort(order[:k])
    low_mask = np.ones(n, dtype=bool)
    low_mask[order[:k]] = False
    if fractional is not None:
        low_mask[fractional] = False
    low_arr = np.flatnonzero(low_mask)

    rho.setflags(write=False)
    high_arr.setflags(write=False)
    low_arr.setflags(write=False)
    density = DensityField(grid=grid, values=rho)
    partition = LevelSetPartition(
        low_nodes=low_arr,
        high_nodes=high_arr,
        threshold=threshold,
        fractional_node=fractional,
    )
    return density, partition


@dataclass(frozen=True)
class TraceRecord:
    """One outer iteration; set_change counts the nodes whose class (low,
    fractional or high) differs from the previous iteration's split (the
    low region's size on the first), so it is 0 exactly on a repeated
    split."""

    iteration: int
    eigenvalue: float
    threshold: float
    set_change: int
    residual: float


@dataclass(eq=False)
class OptimizationTrace:
    records: list[TraceRecord] = field(default_factory=list)
    status: str = MAX_ITER

    def eigenvalues(self) -> np.ndarray:
        return np.array([r.eigenvalue for r in self.records])

    def is_monotone(self, slack: float = 1e-9) -> bool:
        mus = self.eigenvalues()
        return bool(np.all(mus[1:] <= mus[:-1] + slack * np.abs(mus[:-1])))

    def __len__(self) -> int:
        return len(self.records)


def _resolve_init(spec: ProblemSpec, init) -> DensityField:
    if init is None:
        return uniform_density(spec)
    if isinstance(init, str):
        if init == "uniform":
            return uniform_density(spec)
        raise ValueError(f"unknown initial density keyword {init!r}")
    if isinstance(init, (int, np.integer)) and not isinstance(init, bool):
        return seeded_density(spec, int(init))
    if isinstance(init, DensityField):
        init.validate(spec)
        return init
    raise TypeError(f"unsupported initial density: {init!r}")


def _same_split(a: LevelSetPartition, b: LevelSetPartition | None) -> bool:
    """Same high set and fractional node (the low set then follows)."""
    return b is not None and a.fractional_node == b.fractional_node \
        and np.array_equal(a.high_nodes, b.high_nodes)


def _set_change(a: LevelSetPartition, b: LevelSetPartition, node_count: int) -> int:
    """Size of the symmetric difference of two low regions, counted through
    a membership mask rather than a sort or hash of the index sets."""
    member = np.zeros(node_count, dtype=bool)
    member[a.low_nodes] = True
    return a.low_count + b.low_count - 2 * int(np.count_nonzero(member[b.low_nodes]))


def _split_change(a: LevelSetPartition, b: LevelSetPartition, node_count: int) -> int:
    """Nodes whose class (low, fractional or high) differs between two
    splits; 0 exactly when ``_same_split`` holds."""
    classes = np.zeros((2, node_count), dtype=np.int8)
    for row, partition in zip(classes, (a, b)):
        row[partition.high_nodes] = 2
        if partition.fractional_node is not None:
            row[partition.fractional_node] = 1
    return int(np.count_nonzero(classes[0] != classes[1]))


def minimize(spec: ProblemSpec, init=None, opts: SolverOptions = SolverOptions(),
             max_alternations: int = 200,
             ) -> tuple[DensityField, EigenPair, LevelSetPartition, OptimizationTrace]:
    """Alternate eigen solve and bathtub rearrangement to a fixed point.

    ``init`` may be a DensityField, an integer seed for a random two-valued
    start, or None/"uniform" for the constant density.  Stops at the first
    repeated split (converged: the density just solved is a fixed point, the
    last pair its eigenpair), at the split of two iterations earlier
    (cycling), or at the iteration cap; returns the last bathtub output.
    Warm-starting each eigensolve from the previous eigenvector keeps the
    recorded eigenvalues non-increasing up to solver tolerance.
    """
    if max_alternations < 1:
        raise ValueError("iteration cap must be >= 1")
    grid = spec.grid
    stiffness = spec.stiffness
    rho = _resolve_init(spec, init)

    trace = OptimizationTrace()
    # the partitions of the last two iterations, newest first
    prev: LevelSetPartition | None = None
    prev2: LevelSetPartition | None = None
    warm: np.ndarray | None = None

    density = rho
    pair: EigenPair | None = None
    partition: LevelSetPartition | None = None
    for it in range(max_alternations):
        weights = assemble_weight(grid, rho.values)
        try:
            pair = first_eigenpair(stiffness, weights, opts, start=warm)
        except SolverError as exc:
            # hand the trace so far to the caller for partial reporting
            exc.partial_trace = trace  # type: ignore[attr-defined]
            raise
        warm = pair.vector
        density, partition = bathtub_rearrange(pair.vector, grid, spec)
        if prev is None:
            set_change = partition.low_count
        else:
            set_change = _split_change(partition, prev, grid.node_count)
        trace.records.append(TraceRecord(
            iteration=it,
            eigenvalue=pair.eigenvalue,
            threshold=partition.threshold,
            set_change=set_change,
            residual=pair.residual,
        ))
        if spec.rho_min == spec.rho_max:
            trace.status = CONVERGED
            break
        # rho is the bathtub of prev, so a repeat makes it a fixed point
        if _same_split(partition, prev):
            trace.status = CONVERGED
            break
        if _same_split(partition, prev2):
            trace.status = CYCLING
            break
        prev2, prev = prev, partition
        rho = density

    density.validate(spec, two_valued=True)
    return density, pair, partition, trace


@dataclass(frozen=True, eq=False)
class Solution:
    """One solution class from a multi-start run; ``seed`` is the first
    member, ``member_seeds`` every seed that converged into the class."""

    seed: int
    density: DensityField
    eigenpair: EigenPair
    partition: LevelSetPartition
    trace: OptimizationTrace
    member_seeds: tuple[int, ...]


def classify_solutions(seeds, results, node_count: int,
                       mu_rtol: float = 1e-8) -> tuple[list[Solution], list[int]]:
    """Group per-seed results into classes; returns (classes, label per seed).

    Two runs share a class when their eigenvalues agree relatively to
    mu_rtol and their low regions differ on at most 1% of the nodes.
    """
    firsts: list[tuple] = []  # (seed, result) of each class's first member
    members: list[list[int]] = []
    labels: list[int] = []
    max_diff = _SET_TOL * node_count
    for seed, result in zip(seeds, results):
        _, pair, partition, _ = result
        for k, (_, (_, rep_pair, rep_partition, _)) in enumerate(firsts):
            close_mu = abs(pair.eigenvalue - rep_pair.eigenvalue) <= \
                mu_rtol * max(abs(pair.eigenvalue), abs(rep_pair.eigenvalue))
            diff = _set_change(partition, rep_partition, node_count)
            if close_mu and diff <= max_diff:
                break
        else:
            k = len(firsts)
            firsts.append((seed, result))
            members.append([])
        members[k].append(seed)
        labels.append(k)
    classes = [Solution(seed, *result, member_seeds=tuple(ms))
               for (seed, result), ms in zip(firsts, members)]
    return classes, labels


def multi_start(spec: ProblemSpec, seeds, opts: SolverOptions = SolverOptions(),
                max_alternations: int = 200,
                mu_rtol: float = 1e-8) -> list[Solution]:
    """Independent seeded runs, deduplicated into solution classes.

    Deterministic for a given seed list: runs execute in seed order and
    classes are keyed by their first seed.
    """
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise ValueError("need at least one seed")
    results = [minimize(spec, init=seed, opts=opts,
                        max_alternations=max_alternations) for seed in seeds]
    classes, _ = classify_solutions(seeds, results, spec.grid.node_count,
                                    mu_rtol=mu_rtol)
    return classes
