"""Semismooth Newton driver with optional backtracking line search.

The solver works on callables so the same loop serves plain and deflated
systems: ``residual(z)`` returns the (possibly deflated) residual vector and
``derivative(z)`` returns ``(scale, matrix, u, w)`` so that the Newton matrix
is ``scale * matrix + outer(u, w)``; ``u = w = None`` means no rank-one part.

Call order: :func:`solve` calls ``derivative(z)`` only on the array object
most recently passed to ``residual``, after that call returned normally, and
never modifies an array it has passed to either callable.  A pair of
callables may therefore compute everything a point needs in ``residual`` and
reuse it in ``derivative`` when handed the same object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .deflation import AtDeflatedRoot
from .linalg import (
    BandedMatrix,
    SingularMatrix,
    SingularUpdate,
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


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and globalization settings for :func:`solve`.

    Convergence is declared when ||F(z_k)||_2 <= max(atol, rtol * ||F(z_0)||_2).
    ``singular_action`` selects what to do when the Newton matrix is flagged
    singular: fail with SINGULAR_JACOBIAN, or take a minimum-norm
    least-squares step (useful for degenerate starting points).

    With ``stall_window`` set, a solve also stops, as STALLED, once that many
    iterations have passed since the residual norm last fell to half of its
    best value so far (the best is only moved on such a halving).  ``None``
    never stops a solve for lack of progress.
    """

    atol: float = 1e-10
    rtol: float = 1e-8
    max_iter: int = 100
    divergence_tol: float = 1e8
    line_search: str = LINE_SEARCH_NONE
    ls_reduction: float = 0.5
    ls_sufficient_decrease: float = 1e-4
    ls_min_step: float = 1e-10
    singular_action: str = SINGULAR_ERROR
    stall_window: Optional[int] = None

    def __post_init__(self):
        if min(self.atol, self.rtol, self.divergence_tol) <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.stall_window is not None and self.stall_window < 1:
            raise ValueError("stall_window must be at least 1")
        if self.line_search not in (LINE_SEARCH_NONE, LINE_SEARCH_BACKTRACKING):
            raise ValueError(f"unknown line search mode {self.line_search!r}")
        if self.singular_action not in (SINGULAR_ERROR, SINGULAR_LEAST_SQUARES):
            raise ValueError(f"unknown singular action {self.singular_action!r}")
        if not (0.0 < self.ls_reduction < 1.0 and 0.0 < self.ls_sufficient_decrease < 1.0):
            raise ValueError("line search parameters out of range")

    def with_(self, **changes) -> "SolverConfig":
        return replace(self, **changes)


@dataclass
class SolveResult:
    status: SolveStatus
    solution: np.ndarray
    iterations: int
    residual_history: list[float] = field(default_factory=list)

    @property
    def converged(self) -> bool:
        return self.status is SolveStatus.CONVERGED


def plain_derivative(jacobian: Callable[[np.ndarray], "np.ndarray | BandedMatrix"]):
    """Adapt a plain Jacobian callable to the (scale, matrix, u, w) contract."""

    def wrapped(z):
        return 1.0, jacobian(z), None, None

    return wrapped


def _dense(matrix) -> np.ndarray:
    if isinstance(matrix, BandedMatrix):
        return matrix.to_dense()
    return np.asarray(matrix, dtype=float)


def _least_squares_step(scale, matrix, u, w, r) -> np.ndarray:
    full = scale * _dense(matrix)
    if u is not None:
        full = full + np.outer(u, w)
    return -np.linalg.lstsq(full, r, rcond=None)[0]


def solve(
    residual: Callable[[np.ndarray], np.ndarray],
    derivative: Callable,
    z0: np.ndarray,
    config: Optional[SolverConfig] = None,
) -> SolveResult:
    """Run the semismooth Newton iteration z_{k+1} = z_k - H(z_k)^-1 F(z_k).

    Args:
        residual: z -> residual vector; may raise AtDeflatedRoot or
            NonFiniteResidual.
        derivative: z -> (scale, matrix, u, w) as described in the module
            docstring; called only at the point last passed to ``residual``.
        z0: starting point.
        config: solver settings; defaults to ``SolverConfig()``.

    Returns:
        A :class:`SolveResult`; ``residual_history`` holds one norm per
        visited iterate, so its length is ``iterations + 1``.
    """
    cfg = config or SolverConfig()
    z = np.array(z0, dtype=float)

    try:
        r = np.asarray(residual(z), dtype=float)
    except AtDeflatedRoot:
        return SolveResult(SolveStatus.DEFLATED_ROOT_HIT, z, 0, [math.inf])
    except NonFiniteResidual:
        return SolveResult(SolveStatus.DIVERGED, z, 0, [math.inf])

    rnorm = math.sqrt(r @ r)
    history = [rnorm]
    threshold = max(cfg.atol, cfg.rtol * rnorm) if math.isfinite(rnorm) else cfg.atol
    iterations = 0
    best, best_at = rnorm, 0

    while True:
        if math.isfinite(rnorm) and rnorm <= threshold:
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
            scale, matrix, u, w = derivative(z)
        except AtDeflatedRoot:
            return SolveResult(SolveStatus.DEFLATED_ROOT_HIT, z, iterations, history)
        except NonFiniteResidual:
            return SolveResult(SolveStatus.DIVERGED, z, iterations, history)

        step = None
        try:
            fac = lu_factor(scale * matrix if scale != 1.0 else matrix)
        except ValueError:
            return SolveResult(SolveStatus.DIVERGED, z, iterations, history)
        if fac.singular:
            if cfg.singular_action == SINGULAR_LEAST_SQUARES:
                step = _least_squares_step(scale, matrix, u, w, r)
            else:
                return SolveResult(SolveStatus.SINGULAR_JACOBIAN, z, iterations, history)
        if step is None:
            try:
                if u is None:
                    step = -fac.solve(r)
                else:
                    step = -solve_rank_one_update(fac, u, w, r)
            except (SingularMatrix, SingularUpdate):
                if cfg.singular_action == SINGULAR_LEAST_SQUARES:
                    step = _least_squares_step(scale, matrix, u, w, r)
                else:
                    return SolveResult(SolveStatus.SINGULAR_JACOBIAN, z, iterations, history)
        if not np.isfinite(step).all():
            return SolveResult(SolveStatus.DIVERGED, z, iterations, history)

        if cfg.line_search == LINE_SEARCH_BACKTRACKING:
            accepted = _backtrack(residual, z, step, rnorm, cfg)
            if accepted is None:
                return SolveResult(SolveStatus.LINE_SEARCH_FAILED, z, iterations, history)
            z_new, r_new = accepted
        else:
            z_new = z + step
            try:
                r_new = np.asarray(residual(z_new), dtype=float)
            except AtDeflatedRoot:
                return SolveResult(SolveStatus.DEFLATED_ROOT_HIT, z, iterations, history)
            except NonFiniteResidual:
                return SolveResult(SolveStatus.DIVERGED, z, iterations, history)

        z, r = z_new, r_new
        rnorm = math.sqrt(r @ r)
        iterations += 1
        history.append(rnorm)


def _backtrack(residual, z, step, rnorm, cfg):
    """Armijo backtracking on the merit 0.5 ||F||^2.

    The Newton direction predicts a merit slope of -||F||^2, so sufficient
    decrease reads m(z + t d) <= (1 - 2 c t) m(z).  Trial points that raise
    or return non-finite values are rejected like failed decrease.
    """
    merit0 = 0.5 * rnorm * rnorm
    t = 1.0
    while True:
        trial = z + t * step
        r_trial = None
        try:
            r_candidate = np.asarray(residual(trial), dtype=float)
            if np.isfinite(r_candidate).all():
                r_trial = r_candidate
        except (AtDeflatedRoot, NonFiniteResidual):
            r_trial = None
        if r_trial is not None:
            merit = 0.5 * float(r_trial @ r_trial)
            if merit <= (1.0 - 2.0 * cfg.ls_sufficient_decrease * t) * merit0:
                return trial, r_trial
        t *= cfg.ls_reduction
        if t < cfg.ls_min_step:
            return None
