"""Finite-difference stiffness and weight operators on masked grids.

Order 2 is the (2d+1)-point Dirichlet Laplacian with eliminated boundary
rows.  Order 4 is the square of that Laplacian with clamped-plate walls:
the intermediate Laplacian is also evaluated on the Dirichlet layer
(value zero there), where any non-interior neighbor is replaced by the
mirror image of the opposite node, which encodes a vanishing normal
derivative.  Applying the reflection to every non-interior neighbor, not
only to points strictly outside the closure, keeps the assembled matrix
exactly symmetric on non-convex masked domains; on rectangles the two
rules coincide.

Both orders come from one stencil rule, ``_stencil``: a list of reach
shifts (lattice steps from a node to the columns of its row) and integer
terms, each a value added at one shift on the nodes of a mask, every mask
one gather through the grid's lattice.  Two emitters store the sum.  On a
grid that fills its lattice and is not factored every shift is a constant
diagonal, and ``_diagonals`` adds the terms into diagonal (DIA) storage,
the matrix's only stored copy (see ``StiffnessMatrix``); everywhere else
``_compressed`` accumulates them in a small integer table and keeps its
non-zeros as CSR.  Entries are exact integers until one scaling by
h^(-p), so the two forms hold the same bits, the matrix is symmetric
entry-for-entry, and it is independent, bit for bit, of the background
weight field.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .grid import Grid, _element_strides, neighbor_steps

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
    is bit-identical to the CSR one; both forms hold the sums of the same
    stencil terms (see ``_stencil``).  On a 2-vCPU Intel Xeon a product
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


def _stencil(grid: Grid, order: int
             ) -> tuple[np.ndarray, Iterator[tuple[int, int, np.ndarray]]]:
    """The stencil of the integer-unit stiffness: its reach shifts, shape
    (K, d), and a generator of its terms.

    The reach shifts are the lattice steps between a node and the columns
    of its row: the moves of the Laplacian stencil L (the node itself and
    its 2d neighbor slots) for order 2, the move pairs s + t for order 4.
    They are sorted by their offset in the padded lattice, and nodes are in
    lexicographic order, so the columns of every row come out ascending.
    Each term is (index of a reach shift, integer value, mask of the nodes
    i at which it applies); an entry of the matrix is the sum of the terms
    at its row's node and its column's shift.  Order 2 is L: 2d at the
    node, -1 at each neighbor.  Order 4 is L^2 as move pairs, the pair
    (s, t) adding the product of the coefficients where i + s and
    i + s + t are nodes, plus the clamped wall: behind each missing slot s,
    the wall point q = i + s adds 1 at q + t for each neighbor slot t, or
    at the mirror q - t where q + t is not a node.  The node mask of every
    shift is one gather through ``grid.lattice`` at the nodes' flat
    positions (``Grid.positions``), taken here, before an emitter allocates
    its storage.
    """
    d = grid.dimension
    strides = _element_strides(grid.lattice)
    moves = np.concatenate([np.zeros((1, d), dtype=np.int64), neighbor_steps(d)])
    coefficients = [2 * d] + [-1] * (2 * d)
    pairs = moves if order == 2 else (moves[:, None] + moves).reshape(-1, d)
    offsets, first = np.unique(pairs @ strides, return_index=True)
    flat = grid.positions()
    lattice = grid.lattice.reshape(-1)
    # by a shift's offset: the nodes i at which i + shift is a node
    node = {offset: lattice[flat + offset] >= 0 for offset in offsets.tolist()}
    index = {offset: k for k, offset in enumerate(node)}
    steps = (moves @ strides).tolist()

    def terms():
        if order == 2:
            for s, c in zip(steps, coefficients):
                yield index[s], c, node[s]
            return
        for s, c in zip(steps, coefficients):
            for t, e in zip(steps, coefficients):
                yield index[s + t], c * e, node[s] & node[s + t]
        for s in steps[1:]:
            for t in steps[1:]:
                yield index[s + t], 1, ~node[s] & node[s + t]
                yield index[s - t], 1, ~node[s] & ~node[s + t] & node[s - t]

    return pairs[first], terms()


def _diagonals(grid: Grid, order: int) -> sp.dia_array:
    """The stiffness of a grid that fills its lattice, in diagonal storage
    with ascending offsets: there a reach shift is one constant offset
    between node indices, and each term adds its value into its diagonal's
    row.  As scipy's DIA layout has it, the entry (j - o, j) of the
    diagonal at offset o sits in column j of that diagonal's data row;
    padding slots hold zero.  On a thin box two shifts can share an
    offset, and a shift that fits nowhere leaves its diagonal empty."""
    n = grid.node_count
    shifts, terms = _stencil(grid, order)
    sizes = [c - 1 for c in grid.lattice_cells]
    offset = shifts @ [math.prod(sizes[a + 1:]) for a in range(grid.dimension)]
    offsets = np.unique(offset)
    data = np.zeros((offsets.size, n))
    for k, value, at in terms:
        # node i's entry at this offset sits in column i + offset
        o = int(offset[k])
        if abs(o) >= n:
            continue  # a move out of a thin box, at no node
        lo, hi = max(o, 0), n + min(o, 0)
        row = data[np.searchsorted(offsets, o), lo:hi]
        np.add(row, value, out=row, where=at[lo - o:hi - o])
    present = data.any(axis=1)
    if not present.all():
        data, offsets = data[present], offsets[present]
    data *= grid.spacing ** float(-order)
    data.setflags(write=False)
    return sp.dia_array((data, offsets), shape=(n, n))


def _compressed(grid: Grid, order: int) -> sp.csr_matrix:
    """The stiffness of any grid as CSR with sorted indices: the terms
    accumulate into a (K, n) int16 table, one row per reach shift, whose
    non-zeros, taken node by node, are the entries; their columns are
    gathered through the lattice at the nodes' flat positions plus each
    shift's offset."""
    n = grid.node_count
    shifts, terms = _stencil(grid, order)
    table = np.zeros((len(shifts), n), dtype=np.int16)
    for k, value, at in terms:
        np.add(table[k], value, out=table[k], where=at)
    keep = table.T != 0
    index = np.int32 if table.size <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(n + 1, dtype=index)
    np.cumsum(np.count_nonzero(keep, axis=1), out=indptr[1:])
    # each temporary goes as soon as it is spent: together they set the
    # assembly's peak, which the tests bound by twice the stored bytes
    flat = grid.positions()
    columns = np.empty((len(shifts), n), dtype=index)
    # Python-int offsets keep flat + offset in the positions' dtype
    for k, offset in enumerate((shifts @ _element_strides(grid.lattice)).tolist()):
        np.take(grid.lattice, flat + offset, out=columns[k])
    del flat
    indices = columns.T[keep]
    del columns
    data = np.multiply(table.T[keep], grid.spacing ** float(-order))
    mat = sp.csr_matrix((data, indices, indptr), shape=(n, n))
    mat.sort_indices()
    mat.data.setflags(write=False)
    return mat


def assemble_stiffness(grid: Grid, order: int = 2) -> StiffnessMatrix:
    """Assemble the stencil matrix of a grid: order 2 (Dirichlet Laplacian)
    or 4 (clamped bilaplacian), stored by diagonals on a grid that fills
    its lattice and is not factored, as CSR elsewhere.  The background
    weight is never read."""
    if order not in (2, 4):
        raise ValueError(f"operator order must be 2 or 4, got {order}")
    if grid.fills_lattice and not _factored(grid.dimension, grid.node_count):
        return StiffnessMatrix(_diagonals(grid, order), grid.dimension, order)
    return StiffnessMatrix(_compressed(grid, order), grid.dimension, order)


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

