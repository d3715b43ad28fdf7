"""Alternating minimization of the first eigenvalue over constrained densities.

The density lives in the box [rho_min, rho_max] with a prescribed total
mass.  The outer loop alternates two half-steps: solve the weighted
eigenproblem for the current density, then redistribute the density by the
bathtub principle on the squared eigenfunction (upper bound where phi^2 is
largest, lower bound elsewhere, one fractional node to meet the mass
exactly).  The bathtub is exact; the eigensolve is exact wherever its
result can end the run, and elsewhere stops once it has decided the next
split (see ``minimize``).  Each half-step lowers the Rayleigh quotient in
one argument, so the eigenvalue sequence is non-increasing.  Fixed points
are two-valued densities whose low region is a sub-level set of the
eigenfunction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

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
# largest share of the nodes on which the splits of one class may differ
_SET_TOL = 0.01
# relative change of mu between two steps below which an intermediate
# eigensolve of minimize may stop on a repeated split (see _split_decided)
_SPLIT_MU_RTOL = 1e-6


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

    A curved grid needs order p = dimension d: that operator is conformally
    covariant (2D Laplacian, 4D Paneitz) and the class weight is rho e^(dw).
    The density is rho = e^(p u), so the order is also the exponent of the
    conformal factor u = log(rho) / p and of the derived bounds.  The
    operator depends only on the grid and the order, never on the density:
    ``stiffness`` is assembled on first use, and every solve of the problem
    shares it and its cached factor, which go with the problem and with
    every problem made from it by ``with_box``.
    """

    grid: Grid
    rho_min: float
    rho_max: float
    mass: float
    order: int = 2

    def __post_init__(self) -> None:
        if not 0.0 < self.rho_min <= self.rho_max < math.inf:
            raise ValueError(
                f"need 0 < rho_min <= rho_max < inf, got ({self.rho_min}, {self.rho_max})"
            )
        if self.order not in (2, 4):
            raise ValueError(f"operator order must be 2 or 4, got {self.order}")
        if self.order != self.grid.dimension and not self.grid.flat:
            raise ValueError("a curved background needs operator order p = d, "
                             f"got p = {self.order} in d = {self.grid.dimension}")
        if not math.isfinite(self.mass):
            raise ValueError(f"mass must be finite, got M = {self.mass}")
        vol = domain_volume(self.grid)
        slack = _FEAS_RTOL * max(abs(self.mass), 1.0)
        if not (self.rho_min * vol - slack <= self.mass <= self.rho_max * vol + slack):
            raise ValueError(
                "mass outside conformal box: need "
                f"{self.rho_min * vol:.6g} <= M <= {self.rho_max * vol:.6g}, "
                f"got M = {self.mass:.6g}"
            )

    @cached_property
    def stiffness(self) -> StiffnessMatrix:
        """Order-``order`` stiffness of ``grid``, assembled once per problem."""
        return assemble_stiffness(self.grid, self.order)

    def with_box(self, rho_min: float, rho_max: float) -> ProblemSpec:
        """This problem's grid, mass and order in the box (rho_min,
        rho_max).  The operator does not depend on the box, so the new
        problem shares this one's ``stiffness``, assembled here if it is
        not yet, and its factor."""
        other = replace(self, rho_min=rho_min, rho_max=rho_max)
        # the cached_property slot, which a frozen dataclass leaves writable
        other.__dict__["stiffness"] = self.stiffness
        return other

    def on_grid(self, grid: Grid) -> ProblemSpec:
        """This problem's box and order on ``grid``, at its mass
        fraction M / ``domain_volume`` of its own grid: the one rule for
        "the same problem" on another grid, such as a finer spacing."""
        fraction = self.mass / domain_volume(self.grid)
        return ProblemSpec(grid=grid, rho_min=self.rho_min, rho_max=self.rho_max,
                           mass=fraction * domain_volume(grid), order=self.order)


def target_high_mass(spec: ProblemSpec) -> float:
    """Background volume the upper density value must occupy to meet the mass.

    Solves rho_min (vol - V) + rho_max V = M for V, with vol the
    ``domain_volume`` of the grid; zero when the box is a single point.
    """
    vol = domain_volume(spec.grid)
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
    """Per-node density with its grid; mass is measured against e^(dw) h^d."""

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
    level = spec.mass / domain_volume(spec.grid)
    values = np.full(spec.grid.node_count, level)
    values.setflags(write=False)
    return DensityField(grid=spec.grid, values=values)


def seeded_density(spec: ProblemSpec, seed: int) -> DensityField:
    """Random feasible two-valued density: bathtub fill on random scores."""
    rng = np.random.default_rng(seed)
    scores = rng.random(spec.grid.node_count) + 0.5
    density, _ = bathtub_rearrange(scores, spec)
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


def _bathtub_cut(phi: np.ndarray, spec: ProblemSpec):
    """The bathtub's ranking and cut for ``bathtub_rearrange``: the nodes
    ordered by (phi^2, node index) descending, the count k of upper-bound
    nodes at the head of that order, the budget left before the k-th
    ranked node, and the fractional node (None when the budget divides
    evenly)."""
    grid = spec.grid
    n = grid.node_count
    # taken first: it sums the cell volumes, one more n-vector
    high_volume = target_high_mass(spec)
    # one stable sort of -phi^2 breaks ties by node index, as a lexsort on
    # (index, -phi^2) does; -0.0 and 0.0 compare equal in both
    key = phi * phi
    np.negative(key, out=key)
    order = np.argsort(key, kind="stable")
    del key
    ranked = grid.cell_volumes[order]
    # budget left before each ranked node, subtracted left to right in one
    # buffer so the rounding is that of a sequential fill (budget - cumsum
    # is not)
    left = np.empty(n + 1)
    left[0] = high_volume
    left[1:] = ranked
    np.subtract.accumulate(left, out=left)
    # k = rank of the first node that no longer fits; every node before it
    # takes the upper bound, and no later node is considered
    ranked *= 1.0 - 1e-12
    fits = left[:-1] >= ranked
    k = int(np.argmin(fits))
    if fits[k]:
        k = n
    # skipping this much budget would miss the mass target; the threshold
    # is mass-relative so huge boxes stay exact too
    remaining = float(left[k])
    fractional = None
    if k < n and remaining * (spec.rho_max - spec.rho_min) > 1e-14 * spec.mass:
        fractional = int(order[k])
    return order, k, remaining, fractional


class _Split(NamedTuple):
    """High set (sorted) and fractional node of a bathtub, the part of a
    ``LevelSetPartition`` that ``_same_split`` compares."""

    high_nodes: np.ndarray
    fractional_node: int | None


def _split(phi: np.ndarray, spec: ProblemSpec) -> _Split:
    """The split that ``bathtub_rearrange(phi, spec)`` reports, without
    building its density.  Its high set is kept as int32 where the node
    count fits: a split stays alive through the power steps that follow,
    and ``_same_split`` compares values, not dtypes."""
    order, k, _, fractional = _bathtub_cut(phi, spec)
    index = np.int32 if order.size <= np.iinfo(np.int32).max else np.int64
    high = order[:k].astype(index)
    high.sort()
    return _Split(high, fractional)


def bathtub_rearrange(phi: np.ndarray,
                      spec: ProblemSpec) -> tuple[DensityField, LevelSetPartition]:
    """Mass-constrained box maximizer of sum(phi^2 rho e^(dw) h^d) on the
    grid of ``spec``.

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
    grid = spec.grid
    n = grid.node_count
    if phi.shape != (n,):
        raise ValueError(f"phi has shape {phi.shape}, grid has {n} nodes")

    lo, hi = spec.rho_min, spec.rho_max
    order, k, remaining, fractional = _bathtub_cut(phi, spec)
    if fractional is not None:
        threshold = float(phi[fractional])
    else:
        # the last upper-bound node, or the top-ranked one if none fits
        threshold = float(phi[order[max(k - 1, 0)]])
    high_arr = np.sort(order[:k])
    del order

    rho = np.full(n, lo)
    rho[high_arr] = hi
    if fractional is not None:
        cells = grid.cell_volumes
        cell = float(cells[fractional])
        rho[fractional] = lo + (hi - lo) * (remaining / cell)
        # pin the mass exactly by recomputing the fractional value
        others = float(rho @ cells) - rho[fractional] * cell
        value = (spec.mass - others) / cell
        rho[fractional] = min(max(value, lo), hi)

    low_mask = np.ones(n, dtype=bool)
    low_mask[high_arr] = False
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
    split.  ``residual`` and ``steps`` are the eigenpair's residual and
    outer-step count (``EigenPair.iterations``); a solve that ``minimize``
    stopped once its split was decided shows a residual far above the
    eigensolver's tolerance."""

    iteration: int
    eigenvalue: float
    threshold: float
    set_change: int
    residual: float
    steps: int


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
    if isinstance(init, (int, np.integer)) and not isinstance(init, bool):
        return seeded_density(spec, int(init))
    if isinstance(init, DensityField):
        init.validate(spec)
        return init
    raise TypeError(f"unsupported initial density: {init!r}")


def _same_split(a, b) -> bool:
    """Same high set and fractional node (the low set then follows); each
    of a and b is a ``LevelSetPartition`` or a ``_Split``, and b may be
    None."""
    return b is not None and a.fractional_node == b.fractional_node \
        and np.array_equal(a.high_nodes, b.high_nodes)


def _split_change(a: LevelSetPartition, b: LevelSetPartition, node_count: int) -> int:
    """Nodes whose class (low, fractional or high) differs between two
    splits; 0 exactly when ``_same_split`` holds."""
    classes = np.zeros((2, node_count), dtype=np.int8)
    for row, partition in zip(classes, (a, b)):
        row[partition.high_nodes] = 2
        if partition.fractional_node is not None:
            row[partition.fractional_node] = 1
    return int(np.count_nonzero(classes[0] != classes[1]))


def _split_decided(spec: ProblemSpec, ending: tuple[LevelSetPartition | None, ...]):
    """Stop test of one intermediate eigensolve of ``minimize``, called
    after each outer step with the W-normalized iterate x and its mu.

    True once mu has moved by at most ``_SPLIT_MU_RTOL`` relative since the
    previous step and the bathtub split of x equals that of the previous
    iterate, unless the split equals one in ``ending``: those would end
    the run, so that solve goes on to the full stopping test.  The split is
    worked out only on steps that pass the mu test.
    """
    mu_prev = split_prev = None

    def stop(x: np.ndarray, mu: float) -> bool:
        nonlocal mu_prev, split_prev
        split = None
        if mu_prev is not None and abs(mu - mu_prev) <= _SPLIT_MU_RTOL * abs(mu):
            split = _split(x, spec)
        decided = split is not None and _same_split(split, split_prev) \
            and not any(_same_split(split, p) for p in ending)
        mu_prev, split_prev = mu, split
        return decided

    return stop


def minimize(spec: ProblemSpec, init=None, opts: SolverOptions = SolverOptions(),
             max_alternations: int = 200,
             ) -> tuple[DensityField, EigenPair, LevelSetPartition, OptimizationTrace]:
    """Alternate eigen solve and bathtub rearrangement to a fixed point.

    ``init`` may be a DensityField, an integer seed for a random two-valued
    start, or None for the constant density.  Stops at the first
    repeated split (converged: the density just solved is a fixed point, the
    last pair its eigenpair), at the split of two iterations earlier
    (cycling), or at the iteration cap; returns the last bathtub output.

    Each eigensolve warm-starts from the previous eigenvector.  Only the
    next split depends on an intermediate solve, so a solve whose split
    cannot end the run (not the last allowed alternation, a box wider than
    a point, and a split unlike the previous two) ends as soon as two
    consecutive iterates agree in mu to ``_SPLIT_MU_RTOL`` and in their
    bathtub split (Cox & McLaughlin, Appl. Math. Optim. 22, 1990, and Kao &
    Su, J. Sci. Comput. 54, 2013, iterate rearrangements the same way).
    Its trace record holds that iterate's mu, and a residual far above the
    solver's tolerance.  Every solve whose split ends the run meets the
    full stopping test of ``first_eigenpair``, so the returned pair does on
    every status.  The recorded eigenvalues stay non-increasing up to
    solver tolerance all the same: the next density rho' is the bathtub of
    the recorded iterate x, so R(x; rho') <= R(x; rho) = mu, and the next
    solve starts at x, from where its Rayleigh quotient does not rise.
    """
    if max_alternations < 1:
        raise ValueError("iteration cap must be >= 1")
    grid = spec.grid
    stiffness = spec.stiffness
    density = _resolve_init(spec, init)

    trace = OptimizationTrace()
    # the partitions of the last two iterations, newest first
    prev: LevelSetPartition | None = None
    prev2: LevelSetPartition | None = None
    warm: np.ndarray | None = None

    pair: EigenPair | None = None
    partition: LevelSetPartition | None = None
    for it in range(max_alternations):
        weights = assemble_weight(grid, density.values)
        # the solve needs no more of the density than its weights
        del density
        # a solve whose split may end the run takes the full stopping test
        stop = None if it == max_alternations - 1 or spec.rho_min == spec.rho_max \
            else _split_decided(spec, (prev, prev2))
        try:
            pair = first_eigenpair(stiffness, weights, opts, start=warm, stop=stop)
        except SolverError as exc:
            # hand the trace so far to the caller for partial reporting
            exc.partial_trace = trace  # type: ignore[attr-defined]
            raise
        warm = pair.vector
        density, partition = bathtub_rearrange(pair.vector, spec)
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
            steps=pair.iterations,
        ))
        if spec.rho_min == spec.rho_max:
            trace.status = CONVERGED
            break
        # the density just solved is the bathtub of prev, so a repeat makes
        # it a fixed point
        if _same_split(partition, prev):
            trace.status = CONVERGED
            break
        if _same_split(partition, prev2):
            trace.status = CYCLING
            break
        prev2, prev = prev, partition

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


def classify_solutions(seeds, results,
                       mu_rtol: float = 1e-8) -> tuple[list[Solution], list[int]]:
    """Group per-seed results into classes; returns (classes, label per seed).

    A run joins the first class whose first member's eigenvalue agrees
    with its own relatively to mu_rtol and whose split differs from its own
    on at most 1% of the nodes (``_split_change``, the count behind the
    trace's set_change); otherwise it opens a new class.
    """
    firsts: list[tuple] = []  # (seed, result) of each class's first member
    members: list[list[int]] = []
    labels: list[int] = []
    for seed, result in zip(seeds, results):
        density, pair, partition, _ = result
        node_count = density.grid.node_count
        for k, (_, (_, rep_pair, rep_partition, _)) in enumerate(firsts):
            close_mu = abs(pair.eigenvalue - rep_pair.eigenvalue) <= \
                mu_rtol * max(abs(pair.eigenvalue), abs(rep_pair.eigenvalue))
            diff = _split_change(partition, rep_partition, node_count)
            if close_mu and diff <= _SET_TOL * node_count:
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
    classes, _ = classify_solutions(seeds, results, mu_rtol=mu_rtol)
    return classes
