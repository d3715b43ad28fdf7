"""First eigenpair of A phi = mu W phi by preconditioned inverse iteration.

The operator is always a ``StiffnessMatrix``.  Every inner solve goes
through ``solve_spd``, which has two backends: the cached sparse LU factor
of the stiffness (2D grids up to ``FACTOR_MAX_NODES`` nodes, see
``StiffnessMatrix.factored``), and plain conjugate gradients for every
other grid, to a relative tolerance that the eigensolve takes from the
operator's order (``_CG_REL_TOL``).  Every matrix-vector product
takes the matrix's one stored form, ``StiffnessMatrix.stored``: diagonal
(DIA) storage on the conjugate-gradient path where the grid fills its
lattice, CSR elsewhere; the two give the same bits, and the eigensolve
never asks for a CSR copy of a matrix stored by diagonals.  With a
factor, the outer loop
is LOBPCG (Knyazev, SIAM J. Sci. Comput. 23(2):517-541, 2001) on a block
of ``BLOCK_WIDTH`` vectors with the factor as an exact preconditioner,
deepened by ``KRYLOV_DEPTH`` Krylov levels: each step solves with the
factor on the block X and then on each new level, Y_1 = A^-1 W X and
Y_(j+1) = A^-1 W Y_j, and runs Rayleigh-Ritz on the block, its levels and
the previous update direction.  It keeps the mu1/mu3 rate of block inverse
iteration when mu1 ~ mu2, as on symmetric dumbbells, and a depth-four
step does the work of about 3.5 depth-one steps (see KRYLOV_DEPTH).  With
conjugate gradients it is single-vector inverse power iteration,
warm-started from the previous iterate, which converges at rate mu1/mu2.
Both are deterministic: fixed all-ones start, a fixed second block column,
no randomization, no threading (SuperLU is single-threaded).  The Rayleigh
quotient of the iterates is non-increasing, which the outer density
optimization relies on for monotone descent.  A caller may also end a
solve early through a stop test (``first_eigenpair``'s ``stop``): the
density optimizer stops each intermediate solve once the next bathtub
split is decided.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .operators import StiffnessMatrix

__all__ = [
    "BLOCK_WIDTH",
    "CGStagnationError",
    "EigenConvergenceError",
    "EigenPair",
    "KRYLOV_DEPTH",
    "SolverOptions",
    "first_eigenpair",
    "solve_spd",
]


BLOCK_WIDTH = 2
"""Vectors per LOBPCG block on the factored path.

Two is the smallest block whose rate rests on mu1/mu3 rather than on the
mu1/mu2 gap.  A width-one block at depth two needs 38 steps from a start
tilted toward one bell of the symmetric h=1/16 dumbbell (mu2 - mu1 ~
1.6e-7 mu1), against 6 for width two (3 at depth four).  Width one also
takes more solves on the eight-seed dumbbell multi-start (see
KRYLOV_DEPTH): 252 steps and 504 solves at depth two, 125 and 500 at
depth four.
"""

KRYLOV_DEPTH = 4
"""Factor solves per LOBPCG step on the factored path, one per Krylov level.

Each level adds ``BLOCK_WIDTH`` columns to the Rayleigh-Ritz basis, so a
step costs one (n, 2) SuperLU solve per level plus products that grow
with the basis.  On the dumbbell the solve is only about a third of a
depth-one step, so a deeper step that needs fewer steps gains.  Measured
on the eight-seed dumbbell multi-start at h=1/32 (1973 nodes,
``configs/dumbbell_sweep.cfg``, 40 eigensolves; every depth finds the
same six classes), steps and block solves per unit:

    depth   1    2    3    4    5    6
    steps   313  175  127  90   88   80
    solves  313  350  381  360  440  480

Four takes the fewest solves after depth two and the fewest steps before
the step count stalls: depths five and six add solves without cutting
steps.  On a 2-vCPU Intel Xeon with one BLAS thread the multi-start's
median wall time is 0.179 s at depth four against 0.220 s at depth one
(10 alternating pairs of benchmark runs).  Where one level already
converges fast the deeper step costs solves: the stopping test compares
two steps, so every eigensolve takes at least two, and the two
eigensolves of the well-gapped h=1/64 disk (``configs/disk.cfg``, 12849
nodes, where a solve is two thirds of a step) make 16 solves where depth
one makes 13.
"""

_CG_REL_TOL = {2: 1e-10, 4: 1e-12}
"""Relative residual of the conjugate-gradient solves of ``first_eigenpair``,
keyed by ``StiffnessMatrix.order``.

The power step inherits the inner solve's relative error, so the floor of
the eigen residual |A phi - mu W phi| / |W phi| scales with mu times this
tolerance, and mu grows with the order: about 20 for the Laplacian on the
unit square, about 1200 for the clamped bilaplacian on the unit cube.  At
1e-10, order 4 misses the 10 * eig_rel_tol = 1e-8 stopping target of the
default ``SolverOptions``: ``minimize`` from the uniform density (box
(1/2, 2), mass the domain volume) ends in EigenConvergenceError after 500
power steps at residual 2.4e-8 on the 3D clamped plate at h=1/16 (3375
nodes) and 1.17e-8 on the 4D one at h=1/10 (6561 nodes).  At 1e-12 the 3D
plate converges in 2 alternations and 16 power steps, residual 8.2e-9.
Factored solves are direct and ignore the tolerance.
"""

# Gram eigenvalues below this fraction of the largest mark a block column
# as linearly dependent on the others; it is dropped from the block
_RANK_TOL = 1e-10


class SolverError(RuntimeError):
    pass


class CGStagnationError(SolverError):
    """Conjugate gradients hit its cap or a non-positive curvature direction."""


class EigenConvergenceError(SolverError):
    """The outer iteration exhausted its cap; ``best`` carries the iterate
    of lowest residual, with the number of steps that reached it."""

    def __init__(self, message: str, best: "EigenPair"):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class SolverOptions:
    """Stopping rule of ``first_eigenpair``: the relative eigenvalue change
    ``eig_rel_tol`` and the cap of ``max_iterations`` outer steps.  The
    inner conjugate-gradient tolerance is not an option; it follows the
    operator's order (``_CG_REL_TOL``)."""

    eig_rel_tol: float = 1e-9
    max_iterations: int = 500

    def __post_init__(self) -> None:
        if not 0.0 < self.eig_rel_tol < 1.0:
            raise ValueError(f"eig_rel_tol must lie in (0, 1), got {self.eig_rel_tol}")
        if self.max_iterations < 1:
            raise ValueError("iteration cap must be >= 1")


@dataclass(frozen=True, eq=False)
class EigenPair:
    """Converged pair with its measured residual |A phi - mu W phi| / |W phi|.

    The vector is W-normalized (phi' W phi = 1) and signed so that the
    entry of largest magnitude is positive.  ``iterations`` counts outer
    steps: LOBPCG steps on the factored path, each KRYLOV_DEPTH
    ``solve_spd`` calls, and power steps on the CG path, each one call.
    """

    eigenvalue: float
    vector: np.ndarray
    residual: float
    iterations: int


def solve_spd(A: StiffnessMatrix, b: np.ndarray, tol: float,
              x0: np.ndarray | None = None) -> np.ndarray:
    """Solve A x = b for the SPD stiffness A.

    When A carries a sparse factor (see ``StiffnessMatrix.factored``),
    the solve is a direct triangular solve with that factor; ``tol`` and
    ``x0`` do not apply, and ``b`` may be an (n, k) block of right-hand
    sides.  Otherwise conjugate gradients run from ``x0`` (or zero) to
    relative residual <= tol, taking at least one step unless ``x0``
    solves the system exactly, capped at 10x the dimension; exceeding the
    cap (or meeting a direction of non-positive curvature, the signature
    of an ill-assembled matrix) raises CGStagnationError.  Conjugate
    gradients take a single right-hand side and reject a 2-D ``b`` with
    ValueError.  The loop updates its vectors in place, so a step allocates
    only the product A p (and A x at a refresh), and every update rounds
    exactly as the textbook loop (``x += alpha * p``, ``r -= alpha * ap``,
    ``p = r + beta * p``, ``r = b - A x`` every 50 steps) does: the
    iterates are the textbook loop's to the bit.
    """
    b = np.asarray(b, dtype=float)
    if not np.all(np.isfinite(b)):
        raise ValueError("right-hand side must be finite")
    direct = A.factor is not None
    if b.ndim != 1 and not direct:
        raise ValueError(
            f"conjugate gradients take one right-hand side, got shape {b.shape}"
        )
    if direct:
        # a zero block, as a vanished Krylov level, needs no factor call
        if not b.any():
            return np.zeros_like(b)
        return A.factor.solve(b)
    norm_b = float(np.linalg.norm(b))
    if norm_b == 0.0:
        return np.zeros_like(b)

    mat = A.stored

    if x0 is None:
        x = np.zeros_like(b)
        r = b.copy()
    else:
        x = np.array(x0, dtype=float)
        r = b - mat @ x
    p = r.copy()
    tmp = np.empty_like(b)
    rs = float(r @ r)
    target = tol * norm_b
    cap = 10 * b.shape[0]
    for it in range(cap):
        # a warm start that already meets the target still takes one step:
        # returned unchanged, it would stall the inverse iteration built on it
        if np.sqrt(rs) <= target and (it > 0 or rs == 0.0):
            return x
        ap = mat @ p
        p_ap = float(p @ ap)
        if p_ap <= 0.0:
            raise CGStagnationError(
                f"CG stagnation: non-positive curvature at iteration {it}"
            )
        alpha = rs / p_ap
        # each in-place update rounds as its textbook form does:
        # x += alpha p, r -= alpha A p, p = r + beta p
        np.multiply(p, alpha, out=tmp)
        x += tmp
        ap *= alpha
        r -= ap
        if (it + 1) % 50 == 0:
            # periodic true-residual refresh against floating-point drift
            np.subtract(b, mat @ x, out=r)
        rs_new = float(r @ r)
        p *= rs_new / rs
        p += r
        rs = rs_new
    if np.sqrt(rs) <= target:
        return x
    raise CGStagnationError(
        f"CG stagnation: cap of {cap} iterations exceeded "
        f"(relative residual {np.sqrt(rs) / norm_b:.3e}, target {tol:.3e})"
    )


def first_eigenpair(A: StiffnessMatrix, weights: np.ndarray,
                    opts: SolverOptions = SolverOptions(),
                    start: np.ndarray | None = None,
                    stop: Callable[[np.ndarray, float], bool] | None = None,
                    ) -> EigenPair:
    """Smallest eigenpair of A phi = mu W phi, W = diag(weights).

    Each outer step yields a W-normalized iterate x with mu <- x' A x.
    ``weights`` must be a finite, strictly positive vector of shape (n,), n
    the order of A, and ``start`` (default all ones) a finite vector of
    shape (n,) with a non-zero W-norm; anything else is a ValueError raised
    before any solve.

    When A carries a sparse factor the step is LOBPCG with the factor as
    an exact preconditioner, deepened by Krylov levels: X is a
    W-orthonormal block of BLOCK_WIDTH columns (at first the start times
    the powers 0, 1, ... of an index ramp from -1 to 1), Y_1 <- solve(A,
    W X) and Y_(j+1) <- solve(A, W Y_j) for KRYLOV_DEPTH ``solve_spd``
    calls, each level W-orthogonalized against X and the levels before it
    and W-orthonormalized before the next solve, P is the previous step's
    update direction (none on the first step), and Rayleigh-Ritz on
    span[X, Y_1, ..., Y_m, P] in the W inner product gives the next block;
    x is its smallest Ritz vector.  The span contains X, so the Ritz value
    cannot rise.  Linearly dependent columns, as for one-node grids or a
    start that is already an eigenvector (every level then vanishes), are
    dropped.  Otherwise the step is warm-started inverse power iteration,
    one ``solve_spd`` call y <- solve(A, W x), x <- y / sqrt(y' W y),
    whose conjugate gradients run to the tolerance of A's order
    (``_CG_REL_TOL``).
    Both stop once the relative eigenvalue change drops below eig_rel_tol
    and the measured residual below 10x that; past max_iterations steps,
    EigenConvergenceError names the method and carries the iterate of
    lowest residual.  Power iteration contracts at rate mu1/mu2, so a
    nearly degenerate leading eigenvalue shows only as slow steps and then
    that error (exit code 2 from the command line).

    ``stop``, when given, is called after each step that misses that test,
    with the step's W-normalized iterate x (which it must not modify) and
    its mu; a true result ends the solve there and returns that step's
    pair, whose residual may lie far above the target.  ``minimize`` passes a
    test that is true once the bathtub split of the iterates is decided
    (``optimizer._split_decided``).
    """
    mat = A.stored
    n = mat.shape[0]
    w = np.asarray(weights, dtype=float)
    if w.shape != (n,):
        raise ValueError(f"weight vector must have shape {(n,)}, got {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("weight vector must be finite")
    if not np.all(w > 0.0):
        raise ValueError("weight vector must be strictly positive")
    x = np.ones(n) if start is None else _start_vector(start, w)
    x = x / np.sqrt(float(x @ (w * x)))
    block = _Lobpcg(x, w) if A.factor is not None else None
    tol = _CG_REL_TOL[A.order]

    mu_prev = None
    best = None
    target = 10.0 * opts.eig_rel_tol
    for it in range(1, opts.max_iterations + 1):
        if block is not None:
            x, ax = block.step(A, mat, tol)
        else:
            rhs = w * x
            guess = x / mu_prev if mu_prev is not None else None
            y = solve_spd(A, rhs, tol, x0=guess)
            scale = float(y @ (w * y))
            if scale <= 0.0:
                raise SolverError("inverse iteration produced a degenerate iterate")
            x = y / np.sqrt(scale)
            ax = mat @ x
        wx = w * x
        mu = float(x @ ax)
        residual = float(np.linalg.norm(ax - mu * wx) / np.linalg.norm(wx))
        if best is None or residual < best[2]:
            best = (mu, x, residual, it)
        if mu_prev is not None and abs(mu - mu_prev) <= opts.eig_rel_tol * abs(mu) \
                and residual <= target:
            return _pair(mu, x, residual, it)
        if stop is not None and stop(x, mu):
            return _pair(mu, x, residual, it)
        mu_prev = mu

    method = "power iteration" if block is None else "LOBPCG"
    raise EigenConvergenceError(
        f"{method} did not converge in {opts.max_iterations} steps "
        f"(residual {residual:.3e})",
        best=_pair(*best),
    )


def _pair(mu: float, x: np.ndarray, residual: float, iterations: int) -> EigenPair:
    """The pair with x signed so that its entry of largest magnitude is
    positive, and made read-only."""
    peak = int(np.argmax(np.abs(x)))
    if x[peak] < 0.0:
        x = -x
    x.setflags(write=False)
    return EigenPair(eigenvalue=mu, vector=x, residual=residual, iterations=iterations)


def _start_vector(start, w: np.ndarray) -> np.ndarray:
    x = np.array(start, dtype=float)
    if x.shape != w.shape:
        raise ValueError(f"start vector must have shape {w.shape}, got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("start vector must be finite")
    if not float(x @ (w * x)) > 0.0:
        raise ValueError("start vector must have a non-zero W-norm")
    return x


def _w_basis(gram: np.ndarray, tol: float = _RANK_TOL) -> np.ndarray:
    """Coefficients B with B' gram B = I over the numerically independent
    columns; Gram eigenvalues below ``tol`` times the largest are dropped."""
    values, vectors = np.linalg.eigh(gram)
    if not values[-1] > 0.0:
        raise SolverError("inverse iteration produced a degenerate iterate")
    keep = values > tol * values[-1]
    return vectors[:, keep] / np.sqrt(values[keep])


class _Lobpcg:
    """Block state of the factored path.

    One column-major buffer holds S = [X, Y_1, ..., Y_m, P], m =
    KRYLOV_DEPTH blocks of ``width`` columns between the W-orthonormal
    block X and the previous update direction P, which is zero before the
    first step; a second buffer holds W S.  Products that write n-row
    blocks are taken transposed, (c' S')', so that they come out
    column-major too.
    """

    def __init__(self, x: np.ndarray, w: np.ndarray):
        self.w = w[:, None]
        ramp = np.linspace(-1.0, 1.0, x.shape[0])
        block = np.stack([x * ramp ** k for k in range(BLOCK_WIDTH)], axis=1)
        block = block @ _w_basis(block.T @ (self.w * block))
        n, self.width = block.shape
        self.s = np.zeros((n, (KRYLOV_DEPTH + 2) * self.width), order="F")
        self.ws = np.empty_like(self.s)
        self.s[:, :self.width] = block

    def step(self, A: StiffnessMatrix, mat, tol: float) -> tuple[np.ndarray, np.ndarray]:
        """One LOBPCG step; returns the smallest Ritz vector x, W-normalized,
        and A x."""
        k = self.width
        s, ws = self.s, self.ws
        np.multiply(self.w, s[:, :k], out=ws[:, :k])
        # level Y_j = A^-1 W Y_(j-1), Y_0 = X, lives in columns lo:lo+k; it is
        # W-orthogonalized against every block before it, so that the Gram
        # matrices keep the small components that carry the update, and
        # W-orthonormalized within itself before the next solve: a Krylov
        # power basis would lose its new directions to cancellation
        for lo in range(k, (KRYLOV_DEPTH + 1) * k, k):
            level, w_level = s[:, lo:lo + k], ws[:, lo:lo + k]
            level[...] = solve_spd(A, ws[:, lo - k:lo], tol)
            level -= ((ws[:, :lo].T @ level).T @ s[:, :lo].T).T
            np.multiply(self.w, level, out=w_level)
            # every column with a positive Gram eigenvalue is kept, since
            # small remainders carry the update; a level that vanishes (Y_1
            # lies in span X once X holds an eigenvector; exactly so on a
            # one-node grid) stays zero, and so does every level after it,
            # whose solve sees a zero block
            gram = level.T @ w_level
            c = np.zeros_like(gram)
            if gram.any():
                basis = _w_basis(gram, tol=0.0)
                c[:, :basis.shape[1]] = basis
            level[...] = level @ c
            w_level[...] = w_level @ c
        rest = s[:, k:]
        direction = s[:, -k:]
        direction -= ((ws[:, :-k].T @ direction).T @ s[:, :-k].T).T
        np.multiply(self.w, direction, out=ws[:, -k:])
        # A S by an explicit product: taking A Y = W X from the solve instead
        # trusts its backward error and stalls the residual near 1e-5
        a_s = mat @ s
        gram_w = s.T @ ws
        gram_a = s.T @ a_s
        # unit W-norm columns before the Gram eigh; exactly-zero columns, as
        # P before the first step or a vanished level, get scale 0 and are
        # dropped with the rank-deficient rest
        norms = np.sqrt(np.diag(gram_w))
        unit = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0.0)
        outer = unit[:, None] * unit
        basis = _w_basis(gram_w * outer)
        _, coeffs = np.linalg.eigh(basis.T @ (gram_a * outer) @ basis)
        c = (unit[:, None] * basis) @ coeffs[:, :k]
        new_x = (c.T @ s.T).T
        new_p = (c[k:].T @ rest.T).T
        ax = a_s @ c[:, 0]
        # c has k columns: by interlacing, W-orthonormal X gives k Gram eigenvalues >= 1
        s[:, :k] = new_x
        direction[...] = new_p
        x = new_x[:, 0]
        norm = np.sqrt(float(x @ (self.w[:, 0] * x)))
        return x / norm, ax / norm
