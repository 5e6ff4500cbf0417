"""Semismooth Newton driver with optional backtracking line search.

The solver works on callables so the same loop serves plain and deflated
systems: ``residual(z)`` returns ``(F, point)``, the (possibly deflated)
residual vector and whatever its system needs to build the derivative there,
and ``derivative(point)`` returns ``(scale, matrix, w)`` so that the Newton
matrix at a residual value r is ``scale * matrix + outer(r / scale, w)``, the
form of every deflated residual r = alpha F (scale = alpha, w = grad alpha);
``w = None`` means no rank-one part.  Each step factors ``matrix`` once and
back-substitutes once (:func:`deflated_newton.linalg.solve_rank_one_update`).
:func:`solve` hands ``derivative`` the point of the iterate each step starts
from, so one evaluation serves both.  Rejected line-search trials and the
final iterate get no derivative.  :func:`solve` never modifies an array it
has passed to ``residual``, so a point may hold ``z``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .deflation import AtDeflatedRoot
from .linalg import (
    BandedMatrix,
    SingularMatrix,
    all_finite,
    lu_factor,
    solve_rank_one_update,
)
from .reformulate import NonFiniteResidual


class SolveStatus(Enum):
    CONVERGED = "converged"
    MAX_ITERATIONS = "max-iterations"
    SINGULAR_JACOBIAN = "singular-jacobian"
    DIVERGED = "diverged"
    DEFLATED_ROOT_HIT = "deflated-root-hit"
    LINE_SEARCH_FAILED = "line-search-failed"
    STALLED = "stalled"


LINE_SEARCH_NONE = "none"
LINE_SEARCH_BACKTRACKING = "backtracking"

SINGULAR_ERROR = "error"
SINGULAR_LEAST_SQUARES = "least-squares"

# Armijo backtracking (see _backtrack): the step factor per rejected trial,
# the sufficient-decrease constant c and the step below which it fails
LS_REDUCTION = 0.5
LS_SUFFICIENT_DECREASE = 1e-4
LS_MIN_STEP = 1e-10

SMALL_NORM = 1e-150  # squares of entries this small approach the subnormal range


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and globalization settings for :func:`solve`.

    Convergence is declared when ||r(z_k)||_2 <= atol, where r is what the
    ``residual`` callable returns (G = alpha F for a deflated system).
    ``singular_action`` selects what to do when the Newton matrix is flagged
    singular: fail with SINGULAR_JACOBIAN, or take a minimum-norm
    least-squares step (useful for degenerate starting points).

    With ``stall_window`` set, a solve also stops, as STALLED, once that many
    iterations have passed since the residual norm last fell to half of its
    best value so far (the best is only moved on such a halving).  ``None``
    never stops a solve for lack of progress.
    """

    atol: float = 1e-10
    max_iter: int = 100
    divergence_tol: float = 1e8
    line_search: str = LINE_SEARCH_NONE
    singular_action: str = SINGULAR_ERROR
    stall_window: Optional[int] = None

    def __post_init__(self):
        if not all(0.0 < tol < math.inf for tol in (self.atol, self.divergence_tol)):
            raise ValueError("tolerances must be positive and finite")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.stall_window is not None and self.stall_window < 1:
            raise ValueError("stall_window must be at least 1")
        if self.line_search not in (LINE_SEARCH_NONE, LINE_SEARCH_BACKTRACKING):
            raise ValueError(f"unknown line search mode {self.line_search!r}")
        if self.singular_action not in (SINGULAR_ERROR, SINGULAR_LEAST_SQUARES):
            raise ValueError(f"unknown singular action {self.singular_action!r}")


@dataclass
class SolveResult:
    status: SolveStatus
    solution: np.ndarray
    iterations: int
    residual_history: list[float] = field(default_factory=list)

    @property
    def converged(self) -> bool:
        return self.status is SolveStatus.CONVERGED


def plain_derivative(jacobian: Callable[..., "np.ndarray | BandedMatrix"]):
    """Adapt a Jacobian of a point to the (scale, matrix, w) contract."""

    def wrapped(point):
        return 1.0, jacobian(point), None

    return wrapped


def _dense(matrix) -> np.ndarray:
    if isinstance(matrix, BandedMatrix):
        return matrix.to_dense()
    return np.asarray(matrix, dtype=float)


def _least_squares_step(scale, matrix, w, r) -> np.ndarray:
    full = scale * _dense(matrix)
    if w is not None:
        full = full + np.outer(r / scale, w)
    return -np.linalg.lstsq(full, r, rcond=None)[0]


def _norm(r: np.ndarray) -> float:
    """sqrt(r . r), which np.vdot reads as inf past the double range without
    a numpy warning; a tiny r is scaled by its largest entry first, so that
    a nonzero G = alpha F with a tiny alpha never reads 0 (and converged)."""
    norm = math.sqrt(np.vdot(r, r))
    if norm < SMALL_NORM and r.any():
        big = float(np.abs(r).max())
        norm = big * math.sqrt(np.vdot(r / big, r / big))
    return norm


def solve(
    residual: Callable[[np.ndarray], tuple],
    derivative: Callable,
    z0: np.ndarray,
    config: Optional[SolverConfig] = None,
) -> SolveResult:
    """Run the semismooth Newton iteration z_{k+1} = z_k - H(z_k)^-1 F(z_k).

    Args:
        residual: z -> (residual vector, point); may raise AtDeflatedRoot
            or NonFiniteResidual.
        derivative: point -> (scale, matrix, w) as described in the
            module docstring; may raise NonFiniteResidual.
        z0: starting point.
        config: solver settings; defaults to ``SolverConfig()``.

    Returns:
        A :class:`SolveResult`; ``residual_history`` holds one norm per
        visited iterate, so its length is ``iterations + 1``.
    """
    cfg = config or SolverConfig()
    z = np.array(z0, dtype=float)

    try:
        value, point = residual(z)
        r = np.asarray(value, dtype=float)
    except AtDeflatedRoot:
        return SolveResult(SolveStatus.DEFLATED_ROOT_HIT, z, 0, [math.inf])
    except NonFiniteResidual:
        return SolveResult(SolveStatus.DIVERGED, z, 0, [math.inf])

    rnorm = _norm(r)
    history = [rnorm]
    iterations = 0
    best, best_at = rnorm, 0

    while True:
        if rnorm <= cfg.atol:
            return SolveResult(SolveStatus.CONVERGED, z, iterations, history)
        if not math.isfinite(rnorm) or rnorm > cfg.divergence_tol:
            return SolveResult(SolveStatus.DIVERGED, z, iterations, history)
        if iterations >= cfg.max_iter:
            return SolveResult(SolveStatus.MAX_ITERATIONS, z, iterations, history)
        if rnorm <= 0.5 * best:
            best, best_at = rnorm, iterations
        if cfg.stall_window is not None and iterations - best_at >= cfg.stall_window:
            return SolveResult(SolveStatus.STALLED, z, iterations, history)

        try:
            scale, matrix, w = derivative(point)
        except NonFiniteResidual:
            return SolveResult(SolveStatus.DIVERGED, z, iterations, history)

        try:
            fac = lu_factor(matrix)
        except ValueError:
            return SolveResult(SolveStatus.DIVERGED, z, iterations, history)
        try:
            step = -solve_rank_one_update(fac, scale, w, r)
        except SingularMatrix:
            if cfg.singular_action != SINGULAR_LEAST_SQUARES:
                return SolveResult(SolveStatus.SINGULAR_JACOBIAN, z, iterations, history)
            step = _least_squares_step(scale, matrix, w, r)
        if not all_finite(step):
            return SolveResult(SolveStatus.DIVERGED, z, iterations, history)

        if cfg.line_search == LINE_SEARCH_BACKTRACKING:
            accepted = _backtrack(residual, z, step, rnorm)
            if accepted is None:
                return SolveResult(SolveStatus.LINE_SEARCH_FAILED, z, iterations, history)
            z_new, r_new, point_new = accepted
        else:
            z_new = z + step
            try:
                value, point_new = residual(z_new)
                r_new = np.asarray(value, dtype=float)
            except AtDeflatedRoot:
                return SolveResult(SolveStatus.DEFLATED_ROOT_HIT, z, iterations, history)
            except NonFiniteResidual:
                return SolveResult(SolveStatus.DIVERGED, z, iterations, history)

        z, r, point = z_new, r_new, point_new
        rnorm = _norm(r)
        iterations += 1
        history.append(rnorm)


def _backtrack(residual, z, step, rnorm):
    """Armijo backtracking on the merit 0.5 ||F||^2.

    The Newton direction predicts a merit slope of -||F||^2, so sufficient
    decrease reads m(z + t d) <= (1 - 2 c t) m(z), c = LS_SUFFICIENT_DECREASE.
    Trial points that raise or return non-finite values are rejected like
    failed decrease.  Returns ``(trial, F(trial), point)`` of the accepted
    trial, or None.
    """
    merit0 = 0.5 * rnorm * rnorm
    t = 1.0
    while True:
        trial = z + t * step
        r_trial = None
        try:
            value, point = residual(trial)
            r_candidate = np.asarray(value, dtype=float)
            if all_finite(r_candidate):
                r_trial = r_candidate
        except (AtDeflatedRoot, NonFiniteResidual):
            r_trial = None
        if r_trial is not None:
            merit = 0.5 * float(np.vdot(r_trial, r_trial))
            if merit <= (1.0 - 2.0 * LS_SUFFICIENT_DECREASE * t) * merit0:
                return trial, r_trial, point
        t *= LS_REDUCTION
        if t < LS_MIN_STEP:
            return None
