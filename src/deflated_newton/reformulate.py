"""Semismooth reformulation of mixed complementarity problems.

A problem MCP(F, l, u) asks for z with, componentwise, either z_i at a bound
with the residual signed accordingly, or F_i(z) = 0 in between.  An NCP
function turns each component into a scalar rootfinding condition; assembling
all components gives a semismooth system Phi(z) = 0 together with an element
of its generalized derivative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .linalg import all_finite


class NonFiniteResidual(Exception):
    """F(z) produced NaN or infinity."""


class NcpFunction(Enum):
    """Scalar complementarity functions: phi(a, b) = 0 iff a, b >= 0 and ab = 0."""

    FISCHER_BURMEISTER = "fb"
    MIN_MAX = "mp"


# a module name: reading an Enum member off its class is slow in the hot loops
_FISCHER_BURMEISTER = NcpFunction.FISCHER_BURMEISTER

# Generalized-derivative element chosen at the Fischer-Burmeister kink (0, 0):
# the limit along the direction (1, 1)/sqrt(2).
_FB_ORIGIN = 1.0 / math.sqrt(2.0) - 1.0

# How a component is bounded: neither bound finite, only the lower, only the
# upper, or both.
_FREE, _LOWER, _UPPER, _BOX = range(4)


def phi(kind: NcpFunction, a: float, b: float) -> float:
    """Evaluate the NCP function ``kind`` at (a, b)."""
    if kind is _FISCHER_BURMEISTER:
        return math.hypot(a, b) - a - b
    # b - max(0, b - a), identically min(a, b); branch selection keeps the
    # value exact where the subtraction form would cancel
    return a if b - a > 0.0 else b


def phi_derivative(kind: NcpFunction, a: float, b: float) -> tuple[float, float]:
    """One element (d_a, d_b) of the generalized derivative of ``phi``.

    Fischer-Burmeister is smooth away from the origin; at the origin the
    selection documented in ``_FB_ORIGIN`` is returned.  The min function
    takes the (0, 1) branch on ties b - a = 0.
    """
    if kind is _FISCHER_BURMEISTER:
        r = math.hypot(a, b)
        if r == 0.0:
            return (_FB_ORIGIN, _FB_ORIGIN)
        return (a / r - 1.0, b / r - 1.0)
    if b - a > 0.0:
        return (1.0, 0.0)
    return (0.0, 1.0)


@dataclass(frozen=True, eq=False)
class MixedComplementarityProblem:
    """MCP(F, l, u) with an optional analytic derivative and scalar parameter.

    Args:
        dimension: number of unknowns n.
        residual: map z -> F(z) of length n.
        derivative: optional map z -> n-by-n Jacobian of F; when absent,
            forward differences are used.
        lower: lower bounds (default all zero, the NCP case).
        upper: upper bounds (default all +inf).
        parameter: value of the problem's scalar parameter, if any.

    The bounds are copied into read-only arrays and each component is
    classified (free, lower, upper or box) once, at construction.
    """

    dimension: int
    residual: Callable[[np.ndarray], np.ndarray]
    derivative: Optional[Callable[[np.ndarray], np.ndarray]] = None
    lower: Optional[np.ndarray] = None
    upper: Optional[np.ndarray] = None
    parameter: Optional[float] = None

    def __post_init__(self):
        n = self.dimension
        lower = np.zeros(n) if self.lower is None else np.array(self.lower, dtype=float)
        upper = np.full(n, np.inf) if self.upper is None else np.array(self.upper, dtype=float)
        if lower.shape != (n,) or upper.shape != (n,):
            raise ValueError("bounds must have the problem dimension")
        if np.isnan(lower).any() or np.isnan(upper).any():
            raise ValueError("bounds must not be NaN")
        if (lower > upper).any():
            raise ValueError("lower bounds must not exceed upper bounds")
        if (lower == np.inf).any() or (upper == -np.inf).any():
            raise ValueError("bounds leave no feasible value at some index")
        # own read-only copies: the classification below must stay valid
        lower.flags.writeable = upper.flags.writeable = False
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        # (kind, l_i, u_i) per component, as Python floats: at the benchmark
        # sizes (n <= 10) the per-component branches cost more in numpy
        # scalar indexing than in arithmetic, and floats give the same bits
        bounds = []
        for lo, up in zip(lower.tolist(), upper.tolist()):
            if math.isfinite(lo):
                kind = _BOX if math.isfinite(up) else _LOWER
            else:
                kind = _UPPER if math.isfinite(up) else _FREE
            bounds.append((kind, lo, up))
        object.__setattr__(self, "_bounds", tuple(bounds))


def evaluate(problem: MixedComplementarityProblem, z: np.ndarray) -> np.ndarray:
    """Evaluate F(z), raising :class:`NonFiniteResidual` on NaN or infinity."""
    z = np.asarray(z, dtype=float)
    if z.shape != (problem.dimension,):
        raise ValueError(f"z must have length {problem.dimension}")
    try:
        value = np.asarray(problem.residual(z), dtype=float)
    except OverflowError:  # a float power beyond the double range
        raise NonFiniteResidual(f"F(z) overflows at z={z!r}") from None
    if value.shape != (problem.dimension,):
        raise ValueError("residual map returned the wrong length")
    if not all(map(math.isfinite, value.tolist())):
        raise NonFiniteResidual(f"F(z) contains non-finite entries at z={z!r}")
    return value


def jacobian(
    problem: MixedComplementarityProblem,
    z: np.ndarray,
    value: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Jacobian of F at z, analytic if provided, else forward differences.

    ``value`` is F(z) when already evaluated; forward differences reuse it
    as their base point.
    """
    z = np.asarray(z, dtype=float)
    if problem.derivative is not None:
        try:
            jac = np.asarray(problem.derivative(z), dtype=float)
        except OverflowError:
            raise NonFiniteResidual(f"F'(z) overflows at z={z!r}") from None
        if jac.shape != (problem.dimension,) * 2:
            raise ValueError("derivative map returned the wrong shape")
    else:
        jac = _forward_difference_jacobian(problem, z, value)
    if not all_finite(jac):
        raise NonFiniteResidual(f"F'(z) contains non-finite entries at z={z!r}")
    return jac


def _forward_difference_jacobian(problem, z, base=None):
    if base is None:
        base = evaluate(problem, z)
    n = problem.dimension
    jac = np.empty((n, n))
    sqrt_eps = math.sqrt(np.finfo(float).eps)
    for j in range(n):
        step = sqrt_eps * (1.0 + abs(z[j]))
        zp = z.copy()
        zp[j] += step
        jac[:, j] = (evaluate(problem, zp) - base) / step
    return jac


def assemble_residual(
    problem: MixedComplementarityProblem,
    z: np.ndarray,
    kind: NcpFunction = NcpFunction.FISCHER_BURMEISTER,
    value: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Assemble the semismooth residual Phi(z) of the reformulated MCP.

    ``value`` is F(z) when the caller has already evaluated it.
    Componentwise, with l_i, u_i the bounds and F = F(z):

    * free (both bounds infinite):   Phi_i = F_i
    * finite lower bound only:       Phi_i = phi(z_i - l_i, F_i)
    * finite upper bound only:       Phi_i = -phi(u_i - z_i, -F_i)
    * both bounds finite:            Phi_i = phi(z_i - l_i, -phi(u_i - z_i, -F_i))
    """
    z = np.asarray(z, dtype=float)
    if value is None:
        value = evaluate(problem, z)
    out = []
    values = np.asarray(value, dtype=float).tolist()
    for zi, fi, (bound, lo, up) in zip(z.tolist(), values, problem._bounds):
        if bound == _LOWER:
            out.append(phi(kind, zi - lo, fi))
        elif bound == _FREE:
            out.append(fi)
        elif bound == _UPPER:
            out.append(-phi(kind, up - zi, -fi))
        else:
            inner = -phi(kind, up - zi, -fi)
            out.append(phi(kind, zi - lo, inner))
    return np.array(out, dtype=float)


def assemble_newton_derivative(
    problem: MixedComplementarityProblem,
    z: np.ndarray,
    kind: NcpFunction = NcpFunction.FISCHER_BURMEISTER,
    value: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Assemble an element H(z) of the generalized derivative of Phi.

    Row i combines the chain rule through ``phi`` with the Jacobian of F;
    doubly bounded components compose the chain rule twice; free components
    copy the corresponding Jacobian row.  ``value`` is F(z) when the caller
    has already evaluated it.
    """
    z = np.asarray(z, dtype=float)
    if value is None:
        value = evaluate(problem, z)
    jac = jacobian(problem, z, value)
    n = problem.dimension
    # row i is d_b[i] * jac[i, :] plus d_a[i] on the diagonal; free rows take
    # d_b = 1 and d_a = -0.0, the exact identities of the multiply and the
    # add, so they stay bit-for-bit copies of the Jacobian rows (-0.0 too)
    row_scale, diag_add = [], []
    values = np.asarray(value, dtype=float).tolist()
    for zi, fi, (bound, lo, up) in zip(z.tolist(), values, problem._bounds):
        if bound == _LOWER:
            d_a, d_b = phi_derivative(kind, zi - lo, fi)
        elif bound == _FREE:
            d_a, d_b = -0.0, 1.0
        elif bound == _UPPER:
            # Phi_i = -phi(u_i - z_i, -F_i): both inner signs cancel the outer one
            d_a, d_b = phi_derivative(kind, up - zi, -fi)
        else:
            a2 = up - zi
            b2 = -fi
            d_a2, d_b2 = phi_derivative(kind, a2, b2)
            inner = -phi(kind, a2, b2)
            d_a1, d_b1 = phi_derivative(kind, zi - lo, inner)
            d_a = d_a1 + d_b1 * d_a2
            d_b = d_b1 * d_b2
        row_scale.append(d_b)
        diag_add.append(d_a)
    # C order makes the flat view below a view, whatever the layout of jac
    out = np.multiply(jac, np.array(row_scale)[:, None], order="C")
    diagonal = out.reshape(-1)[:: n + 1]
    diagonal += diag_add
    return out
