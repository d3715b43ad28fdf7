"""First eigenpair of A phi = mu W phi by inverse power iteration.

The outer loop repeatedly solves A y = W x and renormalizes in the W
inner product.  Every inner solve goes through ``solve_spd``, which has
two backends: the cached sparse LU factor of an assembled stiffness
matrix (2D grids up to ``FACTOR_MAX_NODES`` nodes, see
``StiffnessMatrix.factored``), and plain conjugate gradients for every
other matrix.  Both are deterministic: fixed all-ones start, no
randomization, no threading (SuperLU is single-threaded).  The Rayleigh
quotient of the iterates is non-increasing, which the outer density
optimization relies on for monotone descent.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .operators import StiffnessMatrix

__all__ = [
    "CGStagnationError",
    "EigenConvergenceError",
    "EigenPair",
    "SolverOptions",
    "first_eigenpair",
    "solve_spd",
]


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
    entry of largest magnitude is positive.
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
    ``x0`` do not apply.  Otherwise conjugate gradients run from ``x0`` (or
    zero) to relative residual <= tol, taking at least one step unless
    ``x0`` solves the system exactly, capped at 10x the dimension;
    exceeding the cap (or meeting a direction of non-positive curvature,
    the signature of an ill-assembled matrix) raises CGStagnationError.
    """
    b = np.asarray(b, dtype=float)
    if not np.all(np.isfinite(b)):
        raise ValueError("right-hand side must be finite")
    norm_b = float(np.linalg.norm(b))
    if norm_b == 0.0:
        return np.zeros_like(b)
    if isinstance(A, StiffnessMatrix) and A.factor is not None:
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

    Inverse power iteration: y <- solve(A, W x), x <- y / sqrt(y' W y),
    mu <- x' A x.  Stops once the relative eigenvalue change drops below
    eig_rel_tol and the measured residual below 10x that.  Emits a
    RuntimeWarning when the observed convergence rate stays above 0.999,
    the signature of a nearly degenerate leading eigenvalue.
    """
    mat = _matrix(A)
    w = np.asarray(weights, dtype=float)
    if not np.all(w > 0.0):
        raise ValueError("weight vector must be strictly positive")
    n = w.shape[0]
    x = np.ones(n) if start is None else np.asarray(start, dtype=float).copy()
    x = x / np.sqrt(float(x @ (w * x)))

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
            # otherwise noise-floor wobble masquerades as stagnation
            if delta_prev is not None and delta_prev > 100.0 * opts.eig_rel_tol * abs(mu):
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
