"""First eigenpair of A phi = mu W phi by inverse iteration.

Every inner solve goes through ``solve_spd``, which has two backends: the
cached sparse LU factor of an assembled stiffness matrix (2D grids up to
``FACTOR_MAX_NODES`` nodes, see ``StiffnessMatrix.factored``), and plain
conjugate gradients for every other matrix.  With a factor, the outer loop
is block inverse iteration with Rayleigh-Ritz on ``BLOCK_WIDTH`` vectors,
which converges at rate mu1/mu3 and so stays fast when mu1 ~ mu2, as on
symmetric dumbbells.  With conjugate gradients it is single-vector inverse
power iteration, warm-started from the previous iterate, which converges
at rate mu1/mu2.  Both are deterministic: fixed all-ones start, a fixed
second block column, no randomization, no threading (SuperLU is
single-threaded).  The Rayleigh quotient of the iterates is non-increasing,
which the outer density optimization relies on for monotone descent.
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
"""Vectors per block step on the factored path.

Two is the smallest block that converges at mu1/mu3 rather than mu1/mu2,
and a wider one does not pay for itself.  Measured on the dumbbell at
h=1/32 (1973 nodes, ``configs/dumbbell_sweep.cfg``; 2-vCPU Intel Xeon,
one BLAS thread): a SuperLU solve takes 103 us for one right-hand side,
155 us for two and 217 us for three (medians of 400 interleaved samples),
while the eight-seed multi-start needs 664 block steps at width two and
585 at width three, 12% fewer steps at 40% more cost per step.
"""

# Gram eigenvalues below this fraction of the largest mark a block column
# as linearly dependent on the others; it is dropped from the block
_RANK_TOL = 1e-10


class SolverError(RuntimeError):
    pass


class CGStagnationError(SolverError):
    """Conjugate gradients hit its cap or a non-positive curvature direction."""


class EigenConvergenceError(SolverError):
    """Power iteration exhausted its cap; carries the best iterate."""

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
    steps: block steps on the factored path, power steps on the CG path;
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
    ValueError.
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
        x += alpha * p
        r -= alpha * ap
        if (it + 1) % 50 == 0:
            # periodic true-residual refresh against floating-point drift
            r = b - mat @ x
        rs_new = float(r @ r)
        p = r + (rs_new / rs) * p
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
    iterate x with mu <- x' A x.  When A carries a sparse factor the step
    is block inverse iteration: Y <- solve(A, W X) for a block X of
    BLOCK_WIDTH columns (the start times the powers 0, 1, ... of an index
    ramp from -1 to 1), then Rayleigh-Ritz on span(Y) in the W inner
    product; x is the smallest Ritz vector and the Ritz vectors form the
    next block.  Columns that turn out linearly dependent, as for one-node
    grids, are dropped.  Otherwise the step is warm-started inverse power
    iteration, y <- solve(A, W x), x <- y / sqrt(y' W y), and a
    RuntimeWarning flags an observed convergence rate above 0.999, the
    signature of a nearly degenerate leading eigenvalue.  Both stop once
    the relative eigenvalue change drops below eig_rel_tol and the
    measured residual below 10x that; past max_iterations steps,
    EigenConvergenceError carries the last iterate.
    """
    mat = _matrix(A)
    w = np.asarray(weights, dtype=float)
    if not np.all(w > 0.0):
        raise ValueError("weight vector must be strictly positive")
    n = w.shape[0]
    x = np.ones(n) if start is None else np.asarray(start, dtype=float).copy()
    x = x / np.sqrt(float(x @ (w * x)))
    block = None
    if isinstance(A, StiffnessMatrix) and A.factor is not None:
        ramp = np.linspace(-1.0, 1.0, n)
        block = np.stack([x * ramp ** k for k in range(BLOCK_WIDTH)], axis=1)

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
            block = _ritz_step(A, mat, w, block, opts)
            ritz = block[:, 0]
            x = ritz / np.sqrt(float(ritz @ (w * ritz)))
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
        raise EigenConvergenceError(
            f"power iteration did not converge in {opts.max_iterations} steps "
            f"(residual {residual:.3e})",
            best=pair,
        )
    return pair


def _ritz_step(A, mat, w: np.ndarray, block: np.ndarray,
               opts: SolverOptions) -> np.ndarray:
    """One block inverse iteration step: Y = A^-1 W X, W-orthonormalized,
    then Rayleigh-Ritz; returns the Ritz vectors by ascending Ritz value."""
    y = solve_spd(A, w[:, None] * block, opts.cg_rel_tol)
    gram, basis = np.linalg.eigh(y.T @ (w[:, None] * y))
    if not gram[-1] > 0.0:
        raise SolverError("inverse iteration produced a degenerate iterate")
    keep = gram > _RANK_TOL * gram[-1]
    z = y @ (basis[:, keep] / np.sqrt(gram[keep]))
    projected = z.T @ (mat @ z)
    _, coeffs = np.linalg.eigh(0.5 * (projected + projected.T))
    return z @ coeffs
