"""Shifted deflation operators for computing distinct roots.

Given known roots r_1..r_k of a residual F, the deflated residual is
G(z) = alpha(z) F(z) with

    alpha(z) = prod_i ( ||z - r_i||^-p + shift )

so a Newton iteration on G cannot converge back to any deflated root, while
roots of F away from the r_i are preserved (alpha > 0).  With shift = 1 the
factor tends to 1 far away and G recovers F; shift = 0 gives the classical
unshifted operator.  The derivative of G is alpha H_F + F grad(alpha)^T, the
scaled Jacobian plus a rank-one term; as F = G / alpha, the solver takes the
deflated Newton step as a multiple of the undeflated one, with one solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .linalg import BandedMatrix, lapack
from .reformulate import NonFiniteResidual

GUARD = 1e-10  # radius of the guard ball around each deflated root


class AtDeflatedRoot(Exception):
    """Evaluation point is inside the guard ball of a deflated root."""


@dataclass(frozen=True, eq=False)
class NormSpec:
    """Distance for deflation: Euclidean, or sqrt(v^T W v) with W a symmetric
    positive definite :class:`BandedMatrix` (e.g. a finite-element mass
    matrix for the L2 norm)."""

    weight: Optional[BandedMatrix] = None

    def __post_init__(self):
        w = self.weight
        if w is None:
            return
        if not isinstance(w, BandedMatrix):
            raise ValueError(f"weight must be a BandedMatrix or None, got {type(w).__name__}")
        if not np.isfinite(w.data).all():
            raise ValueError("weight matrix entries must be finite")
        if not w.is_symmetric():
            raise ValueError("weight matrix must be symmetric")
        # upper triangle in solve_banded layout is exactly the top rows
        _, info = lapack.dpbtrf(w.data[: w.hbw + 1], lower=0)
        if info != 0:
            raise np.linalg.LinAlgError(
                f"weight matrix is not positive definite (Cholesky info={info})"
            )

    def norm(self, v: np.ndarray) -> float:
        v = np.asarray(v, dtype=float)
        wv = v if self.weight is None else self.weight.matvec(v)
        return math.sqrt(max(v @ wv, 0.0))

    def distances(self, z: np.ndarray, roots: Sequence[np.ndarray]) -> tuple[list, np.ndarray]:
        """The norms of z - r_i over ``roots``, and the ``(k, n)`` stack of W(z - r_i).

        ``z`` is a vector; ``roots`` is a ``(k, n)`` array, as
        :attr:`DeflationState.stacked`, or a sequence of roots, each taken
        flat.  The weight is applied once to the stack of all z - r_i (with
        no roots, the stack is an empty ``(0, n)`` one and is its own
        weighted stack); each squared distance is the dot product of a row
        and its weighted row, with the bits of the single ``v @ W v`` of
        :meth:`norm`.
        """
        differences = z - np.asarray(roots).reshape(len(roots), z.size)
        if self.weight is None or not len(differences):
            weighted = differences
        else:
            weighted = self.weight.matvec(differences)
        squares = np.matmul(differences[:, None, :], weighted[:, :, None])
        return [math.sqrt(max(square, 0.0)) for square in squares.ravel().tolist()], weighted


EUCLIDEAN = NormSpec()


@dataclass
class DeflationState:
    """Roots deflated so far plus the operator parameters.

    Append roots between solves with :meth:`add_root`; never mutate during a
    solve.  ``power`` >= 1 and ``shift`` >= 0; defaults are power 2, shift 1.
    ``stacked`` holds the same roots, flat, as the rows of one ``(k, n)``
    array (``(0, 0)`` with none).  Every distance to the roots, for the
    operator as for the guard, is measured by ``norm.distances`` on it.
    """

    power: float = 2.0
    shift: float = 1.0
    norm: NormSpec = field(default_factory=NormSpec)
    roots: list[np.ndarray] = field(default_factory=list)
    stacked: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 1.0 <= self.power < math.inf:
            raise ValueError(f"deflation power must be finite and >= 1, got {self.power}")
        if not 0.0 <= self.shift < math.inf:
            raise ValueError(f"deflation shift must be finite and >= 0, got {self.shift}")
        roots, self.roots, self.stacked = list(self.roots), [], np.empty((0, 0))
        for r in roots:
            self.add_root(r)

    def add_root(self, root: np.ndarray) -> None:
        """Deflate a copy of ``root``; ValueError when it has another shape than
        the roots held or lies within :data:`GUARD` of one of them."""
        root = self._checked(root)
        self._append(root, self.norm.distances(root.ravel(), self.stacked)[0])

    def _checked(self, root: np.ndarray) -> np.ndarray:
        """A float copy of ``root``; ValueError when it has another shape than
        the roots held."""
        root = np.array(root, dtype=float)
        if self.roots and self.roots[0].shape != root.shape:
            raise ValueError("all deflated roots must share one dimension")
        return root

    def _append(self, root: np.ndarray, distances: Sequence[float]) -> None:
        """Deflate the checked ``root``, whose distances to the roots held are
        ``distances``; ValueError when one is within :data:`GUARD`."""
        if any(d <= GUARD for d in distances):
            raise ValueError("new root coincides with an already deflated root")
        row = root.reshape(1, -1)
        self.stacked = np.concatenate((self.stacked, row)) if self.roots else row.copy()
        self.roots.append(root)


class _Terms(NamedTuple):
    """Everything deflation needs at one point, from one pass over the roots.

    ``weighted`` is the ``(k, n)`` stack of W(z - r_i), ``distances[i]`` the
    norm of z - r_i and ``factors[i]`` the factor ||z - r_i||^-p + shift;
    ``alpha`` is their product.
    """

    alpha: float
    distances: list[float]
    factors: list[float]
    weighted: np.ndarray


def _deflation_terms(state: DeflationState, z: np.ndarray) -> _Terms:
    """The deflation terms at z, from one ``state.norm.distances`` pass.

    Raises:
        AtDeflatedRoot: z lies within :data:`GUARD` of a deflated root.
    """
    distances, weighted = state.norm.distances(z, state.stacked)
    alpha, factors = 1.0, []
    for d in distances:
        if d <= GUARD:
            raise AtDeflatedRoot(f"point within {GUARD:.1e} of a deflated root (d={d:.3e})")
        m = d ** (-state.power) + state.shift
        alpha *= m
        factors.append(m)
    return _Terms(alpha, distances, factors, weighted)


def _power(base: float, exponent: float) -> float:
    """``base ** exponent``, with inf where the power overflows."""
    try:
        return base**exponent
    except OverflowError:
        return math.inf


def _gradient(state: DeflationState, terms: _Terms) -> np.ndarray:
    # each root's term (alpha / m_i) (-p) W(z - r_i) / d_i ** (p + 2), summed
    # in root order from 0.0; a term whose d ** (p + 2) overflows is below
    # every float and reads +-0
    p = state.power
    scales = [(terms.alpha / m) * (-p) for m in terms.factors]
    divisors = [_power(d, p + 2.0) for d in terms.distances]
    if state.norm.weight is None:
        # the dense benchmarks' k * n <= 30 terms cost less on Python floats
        # than numpy's per-call overhead; the operations and their order are
        # the broadcast's below, so the bits are the same (a divisor that
        # underflows to 0 raises ZeroDivisionError)
        grad = [0.0] * terms.weighted.shape[1]
        for row, scale, divisor in zip(terms.weighted.tolist(), scales, divisors):
            for i, w in enumerate(row):
                grad[i] += scale * w / divisor
        return np.array(grad)
    parts = np.array(scales)[:, None] * terms.weighted / np.array(divisors)[:, None]
    return np.add.reduce(parts, axis=0, initial=0.0)


def deflation_factor(state: DeflationState, z: np.ndarray) -> float:
    """alpha(z) = prod_i (||z - r_i||^-p + shift); 1.0 with no roots."""
    return _deflation_terms(state, np.asarray(z, dtype=float)).alpha


def deflation_gradient(state: DeflationState, z: np.ndarray) -> np.ndarray:
    """Gradient of the deflation factor.

    Each factor m_i = ||z - r_i||^-p + shift contributes
    -p W(z - r_i) / ||z - r_i||^(p+2) times the product of the others,
    where W is the norm weight (identity for the Euclidean norm).
    """
    z = np.asarray(z, dtype=float)
    return _gradient(state, _deflation_terms(state, z))


class DeflatedSystem:
    """The deflated residual G = alpha F and its Newton derivative parts.

    ``residual(z)`` evaluates F and the deflation terms once and returns G
    with the point ``(inner, terms)``, where ``inner`` is the point the
    undeflated ``residual`` returned; ``derivative`` builds its parts from
    that point, calling the undeflated ``jacobian`` on ``inner``.  ``z`` is
    a float array, as the solver passes it.  A deflation factor or gradient
    that overflows raises :class:`NonFiniteResidual`, as an overflowing F
    does.
    """

    def __init__(self, state: DeflationState, residual, jacobian):
        self.state = state
        self._residual = residual
        self._jacobian = jacobian

    def residual(self, z: np.ndarray):
        value, inner = self._residual(z)
        try:
            terms = _deflation_terms(self.state, z)
        except OverflowError:
            raise NonFiniteResidual("deflation factor overflows") from None
        if not terms.alpha < math.inf:
            raise NonFiniteResidual("deflation factor overflows")
        return terms.alpha * np.asarray(value, dtype=float), (inner, terms)

    def derivative(self, point):
        """``(alpha, H_F, grad alpha)``: at G = alpha F the Newton matrix is
        ``alpha H_F + outer(G / alpha, grad alpha)``, the system that
        :func:`deflated_newton.linalg.solve_rank_one_update` solves."""
        inner, terms = point
        jac = self._jacobian(inner)
        try:
            if self.state.norm.weight is None:
                # the float gradient raises no numpy flag; an overflow or an
                # invalid operation leaves an inf or NaN entry instead
                grad = _gradient(self.state, terms)
                if not all(map(math.isfinite, grad.tolist())):
                    raise FloatingPointError
            else:
                with np.errstate(over="raise", invalid="raise", divide="raise"):
                    grad = _gradient(self.state, terms)
        except (OverflowError, FloatingPointError, ZeroDivisionError):
            raise NonFiniteResidual("deflation gradient overflows") from None
        return terms.alpha, jac, grad
