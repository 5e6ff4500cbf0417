"""Shifted deflation operators for computing distinct roots.

Given known roots r_1..r_k of a residual F, the deflated residual is
G(z) = alpha(z) F(z) with

    alpha(z) = prod_i ( ||z - r_i||^-p + shift )

so a Newton iteration on G cannot converge back to any deflated root, while
roots of F away from the r_i are preserved (alpha > 0).  With shift = 1 the
factor tends to 1 far away and G recovers F; shift = 0 gives the classical
unshifted operator.  The derivative of G is the scaled Jacobian plus a
rank-one term, which the solver exploits via Sherman-Morrison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Union

import numpy as np

from .linalg import BandedMatrix, lapack

GUARD = 1e-10  # radius of the guard ball around each deflated root


class AtDeflatedRoot(Exception):
    """Evaluation point is inside the guard ball of a deflated root."""


@dataclass(frozen=True, eq=False)
class NormSpec:
    """Distance for deflation: Euclidean, or sqrt(v^T W v) with W symmetric
    positive definite (e.g. a finite-element mass matrix for the L2 norm)."""

    weight: Union[np.ndarray, BandedMatrix, None] = None

    def __post_init__(self):
        w = self.weight
        if w is None:
            return
        if isinstance(w, BandedMatrix):
            _require_finite(w.data)
            if not w.is_symmetric():
                raise ValueError("weight matrix must be symmetric")
            # upper triangle in solve_banded layout is exactly the top rows
            _, info = lapack.dpbtrf(w.data[: w.hbw + 1], lower=0)
        else:
            w = np.asarray(w, dtype=float)
            if w.ndim != 2 or w.shape[0] != w.shape[1]:
                raise ValueError("weight matrix must be square")
            _require_finite(w)
            if not np.allclose(w, w.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(w).max())):
                raise ValueError("weight matrix must be symmetric")
            _, info = lapack.dpotrf(w)
            object.__setattr__(self, "weight", w)
        if info != 0:
            raise np.linalg.LinAlgError(
                f"weight matrix is not positive definite (Cholesky info={info})"
            )

    def norm(self, v: np.ndarray) -> float:
        return self.weigh(np.asarray(v, dtype=float))[0]

    def weigh(self, v: np.ndarray) -> tuple[float, np.ndarray]:
        """``(||v||, W v)`` from a single application of the weight.

        ``v`` is a float array; for the Euclidean norm ``W v`` is ``v`` itself.
        """
        if self.weight is None:
            return math.sqrt(v @ v), v
        v = np.asarray(v, dtype=float)
        wv = self.weight.matvec(v) if isinstance(self.weight, BandedMatrix) else self.weight @ v
        return math.sqrt(max(v @ wv, 0.0)), wv


EUCLIDEAN = NormSpec()


def _require_finite(weight: np.ndarray) -> None:
    if not np.isfinite(weight).all():
        raise ValueError("weight matrix entries must be finite")


@dataclass
class DeflationState:
    """Roots deflated so far plus the operator parameters.

    Append roots between solves with :meth:`add_root`; never mutate during a
    solve.  ``power`` >= 1 and ``shift`` >= 0; defaults are power 2, shift 1.
    """

    power: float = 2.0
    shift: float = 1.0
    norm: NormSpec = field(default_factory=NormSpec)
    roots: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self):
        if not 1.0 <= self.power < math.inf:
            raise ValueError(f"deflation power must be finite and >= 1, got {self.power}")
        if not 0.0 <= self.shift < math.inf:
            raise ValueError(f"deflation shift must be finite and >= 0, got {self.shift}")
        roots, self.roots = list(self.roots), []
        for r in roots:
            self.add_root(r)

    def add_root(self, root: np.ndarray) -> None:
        root = np.array(root, dtype=float)
        for known in self.roots:
            if known.shape != root.shape:
                raise ValueError("all deflated roots must share one dimension")
            if self.norm.norm(root - known) <= GUARD:
                raise ValueError("new root coincides with an already deflated root")
        self.roots.append(root)


class _Terms(NamedTuple):
    """Everything deflation needs at one point, from one pass over the roots.

    ``weighted[i]`` is W(z - r_i), ``distances[i]`` its norm and
    ``factors[i]`` the factor ||z - r_i||^-p + shift; ``alpha`` is their
    product.  With a banded weight ``weighted`` is one ``(k, n)`` array.
    """

    alpha: float
    distances: list[float]
    factors: list[float]
    weighted: Union[list[np.ndarray], np.ndarray]


def _deflation_terms(state: DeflationState, z: np.ndarray) -> _Terms:
    """Apply the norm weight once per root and collect the deflation terms at z.

    Raises:
        AtDeflatedRoot: z lies within :data:`GUARD` of a deflated root.
    """
    if state.roots and isinstance(state.norm.weight, BandedMatrix):
        return _banded_terms(state, z)
    alpha = 1.0
    distances, factors, weighted = [], [], []
    for root in state.roots:
        d, wv = state.norm.weigh(z - root)
        if d <= GUARD:
            raise AtDeflatedRoot(f"point within {GUARD:.1e} of a deflated root (d={d:.3e})")
        m = d ** (-state.power) + state.shift
        alpha *= m
        distances.append(d)
        factors.append(m)
        weighted.append(wv)
    return _Terms(alpha, distances, factors, weighted)


def _banded_terms(state: DeflationState, z: np.ndarray) -> _Terms:
    """:func:`_deflation_terms` for a banded weight, applied to all k
    differences z - r_i in one stacked product whose rows are the single
    products; each distance still comes from its own dot product."""
    differences = z - np.array(state.roots)
    weighted = state.norm.weight.matvec(differences)
    alpha = 1.0
    distances, factors = [], []
    for v, wv in zip(differences, weighted):
        d = math.sqrt(max(v @ wv, 0.0))
        if d <= GUARD:
            raise AtDeflatedRoot(f"point within {GUARD:.1e} of a deflated root (d={d:.3e})")
        m = d ** (-state.power) + state.shift
        alpha *= m
        distances.append(d)
        factors.append(m)
    return _Terms(alpha, distances, factors, weighted)


def _gradient(state: DeflationState, z: np.ndarray, terms: _Terms) -> np.ndarray:
    p = state.power
    if isinstance(terms.weighted, np.ndarray):
        # the terms of all roots, then one sum over them in root order
        scales = np.array([(terms.alpha / m) * (-p) for m in terms.factors])
        divisors = np.array([d ** (p + 2.0) for d in terms.distances])
        parts = scales[:, None] * terms.weighted / divisors[:, None]
        return np.add.reduce(parts, axis=0, initial=0.0)
    grad = np.zeros(z.shape)
    for wv, d, m in zip(terms.weighted, terms.distances, terms.factors):
        grad += (terms.alpha / m) * (-p) * wv / d ** (p + 2.0)
    return grad


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
    return _gradient(state, z, _deflation_terms(state, z))


def deflated_residual(state: DeflationState, f_value: np.ndarray, z: np.ndarray) -> np.ndarray:
    """G(z) = alpha(z) F(z) for a residual value F(z) already in hand."""
    return deflation_factor(state, z) * np.asarray(f_value, dtype=float)


def deflated_derivative_parts(
    state: DeflationState,
    f_value: np.ndarray,
    jac,
    z: np.ndarray,
):
    """Pieces of the deflated derivative H_G = alpha(z) H_F + F(z) grad(alpha)^T.

    Returns ``(scale, matrix, u, w)`` with scale = alpha(z), matrix = H_F,
    u = F(z) and w = grad(alpha); the caller solves the rank-one corrected
    system via :func:`deflated_newton.linalg.solve_rank_one_update`.
    """
    z = np.asarray(z, dtype=float)
    terms = _deflation_terms(state, z)
    return terms.alpha, jac, np.asarray(f_value, dtype=float), _gradient(state, z, terms)


class DeflatedSystem:
    """The deflated residual G = alpha F and its Newton derivative parts.

    ``residual(z)`` evaluates F and the deflation terms once;
    ``derivative(z)`` reuses both when handed the array object last passed
    to ``residual`` (the order :func:`deflated_newton.solver.solve` follows)
    and recomputes them for any other array.  Points are float arrays, as
    the solver passes them.  ``jacobian(z)`` of the undeflated system is
    called right after ``residual(z)`` at the same array, so the two may
    share work too.  The deflation state must not change between a
    ``residual`` call and the ``derivative`` call that reuses it; build one
    system per solve.
    """

    def __init__(self, state: DeflationState, residual, jacobian):
        self.state = state
        self._residual = residual
        self._jacobian = jacobian
        self._point = None
        self._values = None

    def residual(self, z: np.ndarray) -> np.ndarray:
        self._point = None
        f_value = np.asarray(self._residual(z), dtype=float)
        terms = _deflation_terms(self.state, z)
        self._point, self._values = z, (f_value, terms)
        return terms.alpha * f_value

    def derivative(self, z: np.ndarray):
        """``(alpha, H_F, F, grad alpha)`` as in :func:`deflated_derivative_parts`."""
        if z is not self._point:
            self.residual(z)
        f_value, terms = self._values
        return terms.alpha, self._jacobian(z), f_value, _gradient(self.state, z, terms)
