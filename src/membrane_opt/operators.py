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
bit for bit, of the background weight field.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .grid import Grid, neighbor_steps

__all__ = [
    "FACTOR_MAX_NODES",
    "StiffnessMatrix",
    "WeightVector",
    "assemble_stiffness",
    "assemble_weight",
]

# diagonal weight of the generalized eigenproblem, sigma_i = rho_i e^(2w_i)
WeightVector = np.ndarray

# largest 2D grid whose stiffness is factored; see StiffnessMatrix.factored
FACTOR_MAX_NODES = 16384


@dataclass(frozen=True, eq=False)
class StiffnessMatrix:
    """Sparse symmetric positive definite stencil matrix, entries ~ h^(-p)."""

    matrix: sp.csr_matrix
    dimension: int

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    @property
    def factored(self) -> bool:
        """Whether linear solves use a sparse LU factor rather than CG.

        Two-dimensional grids up to FACTOR_MAX_NODES nodes are factored;
        everywhere else fill-in costs more than conjugate gradients save.
        Measured with the minimum-degree ordering used by ``factor``:

        - disk h=1/64 (12849 nodes): 0.52M fill entries (5.9 MB), under
          0.05 s to factor;
        - disk h=1/128 (51429 nodes): 2.7M fill entries, peak RSS grows by
          52 MB on a 92 MB process;
        - 4D clamped plate h=1/10 (6561 nodes): 6.3 s and 429 MB to factor.
        """
        return self.dimension == 2 and self.shape[0] <= FACTOR_MAX_NODES

    @cached_property
    def factor(self):
        """SuperLU factor of the matrix, built on first use and then reused
        for every solve; None where the matrix is not ``factored``."""
        if not self.factored:
            return None
        return splu(self.matrix.tocsc(), permc_spec="MMD_AT_PLUS_A",
                    diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()


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
    or 4 (clamped bilaplacian)."""
    if order not in (2, 4):
        raise ValueError(f"operator order must be 2 or 4, got {order}")
    if order == 4 and not grid.flat:
        raise ValueError("flat background required for GJMS case (order 4 needs w = 0)")
    mat = _laplacian_interior(grid) if order == 2 else _bilaplacian(grid)
    mat.data *= grid.spacing ** float(-order)
    mat.sort_indices()
    mat.data.setflags(write=False)
    return StiffnessMatrix(matrix=mat, dimension=grid.dimension)


def assemble_weight(grid: Grid, rho) -> WeightVector:
    """Diagonal weight sigma_i = rho_i e^(2w_i); rejects nonpositive density."""
    values = np.asarray(getattr(rho, "values", rho), dtype=float)
    if values.shape != (grid.node_count,):
        raise ValueError(
            f"density has shape {values.shape}, grid has {grid.node_count} nodes"
        )
    if not np.all(values > 0.0):
        raise ValueError("density must be strictly positive at every node")
    return values * grid.e2w

