"""First eigenpair of A phi = mu W phi by preconditioned inverse iteration.

Every inner solve goes through ``solve_spd``, which has two backends: the
cached sparse LU factor of an assembled stiffness matrix (2D grids up to
``FACTOR_MAX_NODES`` nodes, see ``StiffnessMatrix.factored``), and plain
conjugate gradients for every other matrix.  With a factor, the outer loop
is LOBPCG (Knyazev, SIAM J. Sci. Comput. 23(2):517-541, 2001) on a block
of ``BLOCK_WIDTH`` vectors with the factor as an exact preconditioner:
each step solves once with the factor and runs Rayleigh-Ritz on the block,
its preconditioned images and the previous update direction, so it keeps
the mu1/mu3 rate of block inverse iteration when mu1 ~ mu2, as on
symmetric dumbbells, in about half the steps.  With conjugate gradients it
is single-vector inverse power iteration, warm-started from the previous
iterate, which converges at rate mu1/mu2.  Both are deterministic: fixed
all-ones start, a fixed second block column, no randomization, no
threading (SuperLU is single-threaded).  The Rayleigh quotient of the
iterates is non-increasing, which the outer density optimization relies on
for monotone descent.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .operators import StiffnessMatrix

__all__ = [
    "BLOCK_WIDTH",
    "CGStagnationError",
    "EigenConvergenceError",
    "EigenPair",
    "SolverOptions",
    "first_eigenpair",
    "solve_spd",
]


BLOCK_WIDTH = 2
"""Vectors per LOBPCG block on the factored path.

Two is the smallest block whose rate rests on mu1/mu3 rather than on the
mu1/mu2 gap.  Measured on the eight-seed dumbbell multi-start at h=1/32
(1973 nodes, ``configs/dumbbell_sweep.cfg``; 2-vCPU Intel Xeon, one BLAS
thread, medians of 7 interleaved runs): width one takes 433 steps in
0.089 s, width two 329 steps in 0.096 s and width three 324 steps in
0.127 s: a SuperLU solve costs about 76 us for two right-hand sides, and
each block column adds three columns to the Rayleigh-Ritz basis.  Width
one is cheaper there, but from a start tilted toward one bell of the
symmetric h=1/16 dumbbell (mu2 - mu1 ~ 1.6e-7 mu1) it needs 16 steps
against 10 for width two.
"""

# Gram eigenvalues below this fraction of the largest mark a block column
# as linearly dependent on the others; it is dropped from the block
_RANK_TOL = 1e-10


class SolverError(RuntimeError):
    pass


class CGStagnationError(SolverError):
    """Conjugate gradients hit its cap or a non-positive curvature direction."""


class EigenConvergenceError(SolverError):
    """The outer iteration exhausted its cap; carries the best iterate."""

    def __init__(self, message: str, best: "EigenPair"):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class SolverOptions:
    cg_rel_tol: float = 1e-10
    eig_rel_tol: float = 1e-9
    max_iterations: int = 500

    def __post_init__(self) -> None:
        for name in ("cg_rel_tol", "eig_rel_tol"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {value}")
        if self.max_iterations < 1:
            raise ValueError("iteration cap must be >= 1")


@dataclass(frozen=True, eq=False)
class EigenPair:
    """Converged pair with its measured residual |A phi - mu W phi| / |W phi|.

    The vector is W-normalized (phi' W phi = 1) and signed so that the
    entry of largest magnitude is positive.  ``iterations`` counts outer
    steps: LOBPCG steps on the factored path, power steps on the CG path;
    each is one ``solve_spd`` call.
    """

    eigenvalue: float
    vector: np.ndarray
    residual: float
    iterations: int


def _matrix(A) -> "np.ndarray | object":
    return getattr(A, "matrix", A)


def solve_spd(A, b: np.ndarray, tol: float, x0: np.ndarray | None = None) -> np.ndarray:
    """Solve A x = b for SPD A.

    When A is an assembled StiffnessMatrix that carries a sparse factor,
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
    direct = isinstance(A, StiffnessMatrix) and A.factor is not None
    if b.ndim != 1 and not direct:
        raise ValueError(
            f"conjugate gradients take one right-hand side, got shape {b.shape}"
        )
    norm_b = float(np.linalg.norm(b))
    if norm_b == 0.0:
        return np.zeros_like(b)
    if direct:
        return A.factor.solve(b)

    mat = _matrix(A)

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


def first_eigenpair(A, weights: np.ndarray, opts: SolverOptions = SolverOptions(),
                    start: np.ndarray | None = None) -> EigenPair:
    """Smallest eigenpair of A phi = mu W phi, W = diag(weights).

    Each outer step makes one ``solve_spd`` call and yields a W-normalized
    iterate x with mu <- x' A x.  ``weights`` must be a finite, strictly
    positive vector of shape (n,), n the order of A, and ``start`` (default
    all ones) a finite vector of shape (n,) with a non-zero W-norm; anything
    else is a ValueError raised before any solve.

    When A carries a sparse factor the step is LOBPCG with the factor as
    an exact preconditioner: X is a W-orthonormal block of BLOCK_WIDTH
    columns (at first the start times the powers 0, 1, ... of an index
    ramp from -1 to 1), Y <- solve(A, W X), P is the previous step's
    update direction (none on the first step), and Rayleigh-Ritz on
    span[X, Y, P] in the W inner product gives the next block; x is its
    smallest Ritz vector.  The span contains X, so the Ritz value cannot
    rise.  Linearly dependent columns, as for one-node grids or a start
    that is already an eigenvector, are dropped.  Otherwise the step is
    warm-started inverse power iteration, y <- solve(A, W x),
    x <- y / sqrt(y' W y), and a RuntimeWarning flags an observed
    convergence rate above 0.999, the signature of a nearly degenerate
    leading eigenvalue.  Both stop once the relative eigenvalue change
    drops below eig_rel_tol and the measured residual below 10x that;
    past max_iterations steps, EigenConvergenceError names the method and
    carries the last iterate.
    """
    mat = _matrix(A)
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
    block = None
    if isinstance(A, StiffnessMatrix) and A.factor is not None:
        block = _Lobpcg(x, w)

    mu = float("nan")
    mu_prev = None
    delta_prev = None
    residual = float("inf")
    slow_steps = 0
    warned = False
    converged = False
    iterations = 0
    for it in range(1, opts.max_iterations + 1):
        iterations = it
        if block is not None:
            x, ax = block.step(A, mat, opts)
        else:
            rhs = w * x
            guess = x / mu_prev if mu_prev is not None else None
            y = solve_spd(A, rhs, opts.cg_rel_tol, x0=guess)
            scale = float(y @ (w * y))
            if scale <= 0.0:
                raise SolverError("inverse iteration produced a degenerate iterate")
            x = y / np.sqrt(scale)
            ax = mat @ x
        wx = w * x
        mu = float(x @ ax)
        residual = float(np.linalg.norm(ax - mu * wx) / np.linalg.norm(wx))
        if mu_prev is not None:
            delta = abs(mu - mu_prev)
            # rate tracking only while meaningfully above the stop target,
            # otherwise noise-floor wobble masquerades as stagnation; the
            # block path does not crawl on a small gap and is not tracked
            if block is None and delta_prev is not None and \
                    delta_prev > 100.0 * opts.eig_rel_tol * abs(mu):
                if delta / delta_prev > 0.999:
                    slow_steps += 1
                else:
                    slow_steps = 0
                if slow_steps >= 5 and not warned:
                    warnings.warn(
                        "inverse iteration converging at rate > 0.999; the "
                        "leading eigenvalue may be nearly degenerate",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    warned = True
            if delta <= opts.eig_rel_tol * abs(mu) and residual <= 10.0 * opts.eig_rel_tol:
                converged = True
                break
            delta_prev = delta
        mu_prev = mu

    peak = int(np.argmax(np.abs(x)))
    if x[peak] < 0.0:
        x = -x
    x.setflags(write=False)
    pair = EigenPair(eigenvalue=mu, vector=x, residual=residual, iterations=iterations)
    if not converged:
        method = "power iteration" if block is None else "LOBPCG"
        raise EigenConvergenceError(
            f"{method} did not converge in {opts.max_iterations} steps "
            f"(residual {residual:.3e})",
            best=pair,
        )
    return pair


def _start_vector(start, w: np.ndarray) -> np.ndarray:
    x = np.array(start, dtype=float)
    if x.shape != w.shape:
        raise ValueError(f"start vector must have shape {w.shape}, got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("start vector must be finite")
    if not float(x @ (w * x)) > 0.0:
        raise ValueError("start vector must have a non-zero W-norm")
    return x


def _w_basis(gram: np.ndarray) -> np.ndarray:
    """Coefficients B with B' gram B = I over the numerically independent
    columns; Gram eigenvalues below _RANK_TOL of the largest are dropped."""
    values, vectors = np.linalg.eigh(gram)
    if not values[-1] > 0.0:
        raise SolverError("inverse iteration produced a degenerate iterate")
    keep = values > _RANK_TOL * values[-1]
    return vectors[:, keep] / np.sqrt(values[keep])


class _Lobpcg:
    """Block state of the factored path.

    One column-major buffer holds S = [X, Y, P], ``width`` columns each:
    the W-orthonormal block X, then Y = A^-1 W X, then the previous update
    direction P, which is zero before the first step; a second buffer
    holds W S.  Products that write n-row blocks are taken transposed,
    (c' S')', so that they come out column-major too.
    """

    def __init__(self, x: np.ndarray, w: np.ndarray):
        self.w = w[:, None]
        ramp = np.linspace(-1.0, 1.0, x.shape[0])
        block = np.stack([x * ramp ** k for k in range(BLOCK_WIDTH)], axis=1)
        self._reset(block @ _w_basis(block.T @ (self.w * block)), None)

    def _reset(self, block: np.ndarray, direction: np.ndarray | None) -> None:
        n, self.width = block.shape
        self.s = np.zeros((n, 3 * self.width), order="F")
        self.ws = np.empty_like(self.s)
        self.s[:, :self.width] = block
        if direction is not None:
            self.s[:, 2 * self.width:] = direction

    def step(self, A, mat, opts: SolverOptions) -> tuple[np.ndarray, np.ndarray]:
        """One LOBPCG step; returns the smallest Ritz vector x, W-normalized,
        and A x."""
        k = self.width
        s = self.s
        x_block = s[:, :k]
        wx = self.w * x_block
        s[:, k:2 * k] = solve_spd(A, wx, opts.cg_rel_tol)
        # W-orthogonalize Y and P against X, so that the Gram matrices keep
        # the small components that carry the update
        rest = s[:, k:]
        rest -= ((wx.T @ rest).T @ x_block.T).T
        np.multiply(self.w, s, out=self.ws)
        # A S by an explicit product: taking A Y = W X from the solve instead
        # trusts its backward error and stalls the residual near 1e-5
        a_s = mat @ s
        gram_w = s.T @ self.ws
        gram_a = s.T @ a_s
        # unit W-norm columns before the Gram eigh; exactly-zero columns, as
        # P before the first step or a Y inside span(X), get scale 0 and are
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
        if c.shape[1] == k:
            s[:, :k] = new_x
            s[:, 2 * k:] = new_p
        else:
            self._reset(new_x, new_p)
        x = new_x[:, 0]
        norm = np.sqrt(float(x @ (self.w[:, 0] * x)))
        return x / norm, ax / norm
