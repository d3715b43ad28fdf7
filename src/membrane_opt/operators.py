"""Finite-difference stiffness and weight operators on masked grids.

Order 2 is the (2d+1)-point Dirichlet Laplacian with eliminated boundary
rows, assembled directly as CSR from the grid's neighbor table.  Order 4
is the square of that Laplacian with clamped-plate walls: the
intermediate Laplacian is also evaluated on the Dirichlet layer (value
zero there), where any non-interior neighbor is replaced by the mirror
image of the opposite node, which encodes a vanishing normal derivative.
Applying the reflection to every non-interior neighbor, not only to
points strictly outside the closure, keeps the assembled matrix exactly
symmetric on non-convex masked domains; on rectangles the two rules
coincide.

Assembly happens in integer stencil units and is scaled by h^(-p) in
place at the end.  All intermediate arithmetic is exact in double
precision, so the matrix is symmetric entry-for-entry and independent,
bit for bit, of the background weight field.  A grid that fills its
lattice and is not factored takes none of the CSR assembly: there every
stencil move is a constant diagonal, and ``_lattice_diagonals`` writes
the same integers straight into diagonal (DIA) storage, which is the
matrix's only stored copy (see ``StiffnessMatrix``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .grid import Grid, neighbor_steps

__all__ = [
    "FACTOR_MAX_NODES",
    "StiffnessMatrix",
    "assemble_stiffness",
    "assemble_weight",
]

# largest 2D grid whose stiffness is factored; see _factored
FACTOR_MAX_NODES = 16384


def _factored(dimension: int, node_count: int) -> bool:
    """Whether the stiffness of a grid is factored (sparse LU) rather than
    solved with conjugate gradients; decided before assembly, since it also
    picks the stored form (see ``StiffnessMatrix``).

    Two-dimensional grids up to FACTOR_MAX_NODES nodes are factored;
    everywhere else fill-in costs more than conjugate gradients save.
    Measured with the minimum-degree ordering used by
    ``StiffnessMatrix.factor``:

    - disk h=1/64 (12849 nodes): 0.52M fill entries (5.9 MB), under
      0.05 s to factor;
    - disk h=1/128 (51429 nodes): 2.7M fill entries, peak RSS grows by
      52 MB on a 92 MB process;
    - 4D clamped plate h=1/10 (6561 nodes): 6.3 s and 429 MB to factor.
    """
    return dimension == 2 and node_count <= FACTOR_MAX_NODES


@dataclass(frozen=True, eq=False)
class StiffnessMatrix:
    """Sparse symmetric positive definite stencil matrix, entries ~ h^(-p).

    ``order`` is the p that ``assemble_stiffness`` was given: 2 for the
    Dirichlet Laplacian, 4 for the clamped bilaplacian.  The eigensolve
    reads its conjugate-gradient tolerance from it (see ``eigen``).
    ``stored`` is the one stored form of the matrix, and every product of
    the eigensolve takes it.  On a grid that fills its lattice
    (``Grid.fills_lattice``: boxes in any dimension) and is not
    ``factored``, every stencil offset is a constant index offset, and the
    matrix is stored by diagonals (DIA), offsets ascending: 3 diagonals in
    1D up to 41 for the 4D bilaplacian, ``len(offsets) * n`` doubles, 2.05
    MiB for the 4D clamped plate at h=1/10 (6561 nodes).  Each DIA row sums
    its products in ascending column order, as a CSR row with sorted
    indices does, and its padding slots add only zeros, so every product
    is bit-identical to the CSR one.  On a 2-vCPU Intel Xeon a product
    costs 204 against 247 us for that plate, 268 against 363 us for the
    p=4 square at h=1/160 (13 diagonals) and 256 against 325 us for the
    p=2 square at h=1/256 (5 diagonals).  Everywhere else it is CSR with
    sorted indices: the factor needs it, and the h=1/128 disk would need
    195 diagonals, most of them padding.
    """

    stored: sp.csr_matrix | sp.dia_array
    dimension: int
    order: int

    @property
    def shape(self) -> tuple[int, int]:
        return self.stored.shape

    @property
    def factored(self) -> bool:
        """Whether linear solves use a sparse LU factor rather than CG (see
        ``_factored``)."""
        return _factored(self.dimension, self.shape[0])

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        """The matrix in CSR form with sorted indices, read-only: the stored
        form, or the diagonals converted on first use.  Nothing on the
        eigensolve's path asks for it where the matrix is stored by
        diagonals, so a run there never builds it."""
        if not isinstance(self.stored, sp.dia_array):
            return self.stored
        mat = sp.csr_matrix(self.stored.tocsr())
        mat.data.setflags(write=False)
        return mat

    @cached_property
    def factor(self):
        """SuperLU factor of the matrix, built on first use and then reused
        for every solve; None where the matrix is not ``factored``.

        ``scipy.sparse.linalg`` is imported here and nowhere else, so a
        process that never factors, such as every run on the conjugate-
        gradient path, does not load SuperLU (see README, Dependencies).
        """
        if not self.factored:
            return None
        from scipy.sparse.linalg import splu

        return splu(self.matrix.tocsc(), permc_spec="MMD_AT_PLUS_A",
                    diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))


def _lattice_diagonals(grid: Grid, order: int) -> sp.dia_array:
    """The stiffness of a grid that fills its lattice, written straight
    into diagonal storage with ascending offsets.

    A stencil move (a lattice step) is one constant index offset on a box,
    and it lands inside the box exactly where every coordinate it changes
    stays within 1..(nodes along that axis).  Order 2 writes the moves of
    the Laplacian stencil L (2d at the node, -1 at each neighbor).  Order 4
    writes L^2 as move pairs: the pair (s, t) adds the product of the
    coefficients of s and t at every node i where i + s and i + s + t are
    nodes, and the mirror rule of ``_bilaplacian`` adds 2 on the diagonal
    for each missing neighbor slot, since on a box the wall point behind
    such a slot touches only that node.  Every entry is an exact sum of
    integers, the same as the CSR assembly's, and the array is scaled by
    h^(-p) once.  As scipy's DIA layout has it, the entry (j - o, j) of the
    diagonal at offset o sits in column j of that diagonal's data row;
    padding slots hold zero.
    """
    n, d = grid.node_count, grid.dimension
    sizes = [c - 1 for c in grid.lattice_cells]
    strides = np.array([math.prod(sizes[a + 1:]) for a in range(d)])

    def inside(shift: np.ndarray) -> np.ndarray:
        """The nodes i at which i + shift is a node."""
        ok = np.ones(n, dtype=bool)
        for a in np.flatnonzero(shift):
            x = grid.nodes[:, a] + shift[a]
            ok &= (x >= 1) & (x <= sizes[a])
        return ok

    # the Laplacian stencil: the node itself, then the 2d neighbor slots
    moves = np.concatenate([np.zeros((1, d), dtype=np.int64), neighbor_steps(d)])
    coefficients = [2.0 * d] + [-1.0] * (2 * d)

    def terms():
        """(shift, value, nodes where it applies) of each stencil term, one
        node mask at a time."""
        if order == 2:
            for s, c in zip(moves, coefficients):
                yield s, c, inside(s)
            return
        for s, c in zip(moves, coefficients):
            for t, e in zip(moves, coefficients):
                yield s + t, c * e, inside(s) & inside(s + t)
        for s in moves[1:]:
            yield moves[0], 2.0, ~inside(s)

    reach = moves if order == 2 else (moves[:, None] + moves).reshape(-1, d)
    offsets = np.unique(reach @ strides)
    data = np.zeros((offsets.size, n))
    for shift, value, at in terms():
        # node i's entry at this offset sits in column i + offset
        offset = int(shift @ strides)
        if abs(offset) >= n:
            continue  # a move out of a thin box, at no node
        lo, hi = max(offset, 0), n + min(offset, 0)
        row = data[np.searchsorted(offsets, offset), lo:hi]
        np.add(row, value, out=row, where=at[lo - offset:hi - offset])
    # a move that fits nowhere in a thin box leaves its diagonal empty
    present = data.any(axis=1)
    if not present.all():
        data, offsets = data[present], offsets[present]
    data *= grid.spacing ** float(-order)
    data.setflags(write=False)
    return sp.dia_array((data, offsets), shape=(n, n))


def _laplacian_interior(grid: Grid) -> sp.csr_matrix:
    """Integer-unit Laplacian stencil on interior nodes (h^2 times -Lap),
    assembled directly as CSR from the neighbor table."""
    n = grid.node_count
    d = grid.dimension
    # one stencil row per node, columns ascending: nodes are in lexicographic
    # order (axis 0 slowest), so the minus neighbors of axes 0..d-1, the node
    # itself, then the plus neighbors of axes d-1..0; -1 marks a wall
    index = np.int32 if n * (2 * d + 1) <= np.iinfo(np.int32).max else np.int64
    stencil = np.empty((n, 2 * d + 1), dtype=index)
    stencil[:, :d] = grid.neighbors[:, 0::2]
    stencil[:, d] = np.arange(n)
    stencil[:, d + 1:] = grid.neighbors[:, ::-2]
    present = stencil >= 0
    indices = stencil[present]
    del stencil
    indptr = np.zeros(n + 1, dtype=index)
    np.cumsum(np.count_nonzero(present, axis=1), out=indptr[1:])
    data = np.full(indices.shape[0], -1.0)
    data[indptr[:-1] + np.count_nonzero(present[:, :d], axis=1)] = 2.0 * d
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))


def _bilaplacian(grid: Grid) -> sp.csr_matrix:
    """Integer-unit clamped bilaplacian (h^4 times Lap^2) via composition."""
    n = grid.node_count
    d = grid.dimension
    lap = _laplacian_interior(grid)

    # the Dirichlet layer: lattice points outside the interior that touch it,
    # one behind each missing neighbor slot, deduplicated in sorted order;
    # g_mat is the interior-to-layer adjacency for the outer application
    steps = neighbor_steps(d)
    src, slot = np.nonzero(grid.neighbors < 0)
    layer, g_cols = np.unique(grid.nodes[src] + steps[slot], axis=0,
                              return_inverse=True)
    m = layer.shape[0]
    g_mat = sp.coo_matrix(
        (np.ones(src.shape[0]), (src, g_cols.ravel())), shape=(n, m)
    ).tocsr()

    # rows of the intermediate Laplacian restricted to the Dirichlet layer:
    # neighbor value if interior, else the mirrored (opposite) interior value
    z_rows: list[np.ndarray] = []
    z_cols: list[np.ndarray] = []
    for ax in range(d):
        i_minus = grid.lookup(layer + steps[2 * ax])
        i_plus = grid.lookup(layer + steps[2 * ax + 1])
        for direct, mirror in ((i_minus, i_plus), (i_plus, i_minus)):
            col = np.where(direct >= 0, direct, mirror)
            z_rows.append(np.flatnonzero(col >= 0))
            z_cols.append(col[col >= 0])
    rows = np.concatenate(z_rows)
    z_mat = sp.coo_matrix(
        (np.ones(rows.shape[0]), (rows, np.concatenate(z_cols))), shape=(m, n)
    ).tocsr()

    # both applications carry -Lap: layer values of -h^2 Lap(phi) are -(z phi),
    # and the outer stencil hits them with coefficient -1, so the signs cancel
    out = (lap @ lap + g_mat @ z_mat).tocsr()
    out.sum_duplicates()
    out.sort_indices()
    out.eliminate_zeros()
    return out


def assemble_stiffness(grid: Grid, order: int = 2) -> StiffnessMatrix:
    """Assemble the stencil matrix of a grid: order 2 (Dirichlet Laplacian)
    or 4 (clamped bilaplacian), stored by diagonals on a grid that fills
    its lattice and is not factored, as CSR elsewhere.  The background
    weight is never read."""
    if order not in (2, 4):
        raise ValueError(f"operator order must be 2 or 4, got {order}")
    if grid.fills_lattice and not _factored(grid.dimension, grid.node_count):
        return StiffnessMatrix(_lattice_diagonals(grid, order), grid.dimension, order)
    mat = _laplacian_interior(grid) if order == 2 else _bilaplacian(grid)
    mat.data *= grid.spacing ** float(-order)
    mat.sort_indices()
    mat.data.setflags(write=False)
    return StiffnessMatrix(mat, grid.dimension, order)


def assemble_weight(grid: Grid, rho: np.ndarray) -> np.ndarray:
    """Diagonal weight sigma_i = rho_i e^(d w_i) of the generalized
    eigenproblem, from the per-node density array; rejects nonpositive
    density."""
    values = np.asarray(rho, dtype=float)
    if values.shape != (grid.node_count,):
        raise ValueError(
            f"density has shape {values.shape}, grid has {grid.node_count} nodes"
        )
    if not np.all(values > 0.0):
        raise ValueError("density must be strictly positive at every node")
    return values * grid.e2w

