"""Benchmark complementarity problems with analytic residuals and derivatives.

Four classic small problems with multiple solutions: a degenerate NCP
(Kojima-Shindoh), the KKT system of a nonconvex quadratic program (Gould),
a bimatrix-game equilibrium problem with an artificial continuation
parameter (Aggarwal), and a ten-variable risk-averse market equilibrium MCP
(Gerard-Leclere-Philpott).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .reformulate import MixedComplementarityProblem, NcpFunction
from .solver import SolverConfig


class UnknownBenchmark(ValueError):
    """Requested benchmark name is not in the registry."""


# The benchmark maps unpack z with ``tolist()`` and compute on Python floats:
# the same IEEE operations as numpy scalars, without their per-operation
# overhead.  ``x**2`` stays a power, not ``x*x``: both sides call ``pow``,
# which differs from the product in the last bit for some x.  A float power
# that overflows raises OverflowError where numpy returned inf;
# ``reformulate.evaluate`` and ``reformulate.jacobian`` report it as
# NonFiniteResidual.


def _kojima_shindoh_f(z):
    z1, z2, z3, z4 = z.tolist()
    return np.array(
        [
            3 * z1**2 + 2 * z1 * z2 + 2 * z2**2 + z3 + 3 * z4 - 6,
            2 * z1**2 + z2**2 + z1 + 10 * z3 + 2 * z4 - 2,
            3 * z1**2 + z1 * z2 + 2 * z2**2 + 2 * z3 + 9 * z4 - 9,
            z1**2 + 3 * z2**2 + 2 * z3 + 3 * z4 - 3,
        ]
    )


def _kojima_shindoh_jac(z):
    z1, z2, _, _ = z.tolist()
    return np.array(
        [
            [6 * z1 + 2 * z2, 2 * z1 + 4 * z2, 1.0, 3.0],
            [4 * z1 + 1, 2 * z2, 10.0, 2.0],
            [6 * z1 + z2, z1 + 4 * z2, 2.0, 9.0],
            [2 * z1, 6 * z2, 2.0, 3.0],
        ]
    )


def _gould_f(z):
    x1, x2, lam1, lam2 = z.tolist()
    # KKT system of min -2(x1 - 1/4)^2 + 2(x2 - 1/2)^2 subject to
    # 3 x1 + x2 <= 3/2 and x1 + x2 <= 1 (x >= 0 handled by the NCP bounds).
    return np.array(
        [
            -4 * (x1 - 0.25) + 3 * lam1 + lam2,
            4 * (x2 - 0.5) + lam1 + lam2,
            1.5 - 3 * x1 - x2,
            1.0 - x1 - x2,
        ]
    )


_GOULD_JAC = np.array(
    [
        [-4.0, 0.0, 3.0, 1.0],
        [0.0, 4.0, 1.0, 1.0],
        [-3.0, -1.0, 0.0, 0.0],
        [-1.0, -1.0, 0.0, 0.0],
    ]
)

_AGGARWAL_A = np.array([[30.0, 20.0], [10.0, 25.0]])
_AGGARWAL_B = np.array([[30.0, 10.0], [20.0, 25.0]])


def _aggarwal_f(mu):
    def f(z):
        x = z[:2]
        y = z[2:]
        # mu scales on floats, so a huge mu overflows to inf without a warning
        products = (_AGGARWAL_A @ y).tolist() + (_AGGARWAL_B.T @ x).tolist()
        return np.array([mu * v - 1.0 for v in products])

    return f


def _aggarwal_jac(mu):
    jac = np.zeros((4, 4))
    jac[:2, 2:] = [[mu * v for v in row] for row in _AGGARWAL_A.tolist()]
    jac[2:, :2] = [[mu * v for v in row] for row in _AGGARWAL_B.T.tolist()]

    def deriv(z):
        return jac

    return deriv


def _gerard_f(z):
    x0, x11, x12, y1, y2, pi1, pi2, u4, u5, theta = z.tolist()
    a1 = pi1 - 11.5 * x0
    a2 = pi2 - 11.5 * x0
    s1 = pi1 * (x0 + x11) - 5.75 * x0**2 - 0.5 * x11**2
    s2 = pi2 * (x0 + x12) - 5.75 * x0**2 - 1.75 * x12**2
    return np.array(
        [
            -(0.75 * a1 + 0.25 * a2) * u4 - (0.25 * a1 + 0.75 * a2) * u5,
            -(pi1 - x11) * (0.75 * u4 + 0.25 * u5),
            -(pi2 - 3.5 * x12) * (0.25 * u4 + 0.75 * u5),
            pi1 + 2 * y1 - 4.0,
            pi2 + 10 * y2 - 9.6,
            x0 + x11 - y1,
            x0 + x12 - y2,
            0.75 * s1 + 0.25 * s2 - theta,
            0.25 * s1 + 0.75 * s2 - theta,
            u4 + u5 - 1.0,
        ]
    )


def _gerard_jac(z):
    x0, x11, x12, _, _, pi1, pi2, u4, u5, _ = z.tolist()
    a1 = pi1 - 11.5 * x0
    a2 = pi2 - 11.5 * x0
    # rows 7, 8 (risk-adjusted profit vs. certainty equivalent) weigh the
    # scenario profits s1, s2 by (0.75, 0.25) and (0.25, 0.75); dsk_v is dsk/dv
    ds1_x0, ds1_x11, ds1_pi1 = pi1 - 11.5 * x0, pi1 - x11, x0 + x11
    ds2_x0, ds2_x12, ds2_pi2 = pi2 - 11.5 * x0, pi2 - 3.5 * x12, x0 + x12
    return np.array(
        [
            # row 0: producer's expected marginal profit in the capacity good
            [11.5 * (u4 + u5), 0.0, 0.0, 0.0, 0.0, -(0.75 * u4 + 0.25 * u5),
             -(0.25 * u4 + 0.75 * u5), -(0.75 * a1 + 0.25 * a2), -(0.25 * a1 + 0.75 * a2), 0.0],
            [0.0, 0.75 * u4 + 0.25 * u5, 0.0, 0.0, 0.0, -(0.75 * u4 + 0.25 * u5),
             0.0, -0.75 * (pi1 - x11), -0.25 * (pi1 - x11), 0.0],
            [0.0, 0.0, 3.5 * (0.25 * u4 + 0.75 * u5), 0.0, 0.0, 0.0,
             -(0.25 * u4 + 0.75 * u5), -0.25 * (pi2 - 3.5 * x12), -0.75 * (pi2 - 3.5 * x12), 0.0],
            # rows 3, 4: inverse demand
            [0.0, 0.0, 0.0, 2.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 10.0, 0.0, 1.0, 0.0, 0.0, 0.0],
            # rows 5, 6: market clearing
            [1.0, 1.0, 0.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [1.0, 0.0, 1.0, 0.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [0.75 * ds1_x0 + 0.25 * ds2_x0, 0.75 * ds1_x11, 0.25 * ds2_x12, 0.0, 0.0,
             0.75 * ds1_pi1, 0.25 * ds2_pi2, 0.0, 0.0, -1.0],
            [0.25 * ds1_x0 + 0.75 * ds2_x0, 0.25 * ds1_x11, 0.75 * ds2_x12, 0.0, 0.0,
             0.25 * ds1_pi1, 0.75 * ds2_pi2, 0.0, 0.0, -1.0],
            # row 9: probabilities sum to one
            [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0],
        ]
    )


@dataclass(frozen=True)
class Benchmark:
    """One registry row: a benchmark's name, problem data and search settings.

    ``guess`` is the initial guess, and its length the dimension;
    ``functions(mu)`` returns ``(F, jacobian)``, and only a parameterized
    entry reads ``mu``; ``lower`` is the lower bound (``None``: all zero).
    ``ncp``, ``power`` and ``config`` are the NCP function, the deflation
    power at the default shift and the :class:`SolverConfig` of the
    benchmark's searches.  ``guess`` and ``lower`` are made read-only.
    """

    name: str
    guess: np.ndarray
    functions: Callable[[Optional[float]], tuple]
    lower: Optional[np.ndarray] = None
    ncp: NcpFunction = NcpFunction.FISCHER_BURMEISTER
    power: float = 2.0
    config: SolverConfig = SolverConfig()
    parameterized: bool = False

    def __post_init__(self):
        for values in (self.guess, self.lower):
            if values is not None:
                values.flags.writeable = False


REGISTRY = {rec.name: rec for rec in (
    Benchmark("kojima-shindoh", np.full(4, 0.7),
              lambda mu: (_kojima_shindoh_f, _kojima_shindoh_jac)),
    Benchmark("gould", np.array([0.2, 0.2, 0.0, 0.0]), lambda mu: (_gould_f, lambda z: _GOULD_JAC)),
    # the game is symmetric under swapping the players, the zero guess is
    # symmetric, and two of the equilibria are not: escaping the symmetric
    # subspace rides on rounding noise and needs a generous iteration cap
    Benchmark("aggarwal", np.zeros(4), lambda mu: (_aggarwal_f(mu), _aggarwal_jac(mu)),
              config=SolverConfig(max_iter=2000), parameterized=True),
    # the all-zero start makes several rows of the Newton matrix vanish, so
    # singular systems are solved in the minimum-norm sense there; the
    # certainty-equivalent variable is unconstrained
    Benchmark("gerard", np.zeros(10), lambda mu: (_gerard_f, _gerard_jac),
              lower=np.append(np.zeros(9), -np.inf), ncp=NcpFunction.MIN_MAX, power=1.0,
              config=SolverConfig(line_search=True, least_squares_fallback=True)),
)}


def get(name) -> Benchmark:
    """The :data:`REGISTRY` record called ``name``.

    Raises:
        UnknownBenchmark: if ``name`` is not the name of a registry entry,
            a value that is not a string included.
    """
    rec = REGISTRY.get(name) if isinstance(name, str) else None
    if rec is None:
        raise UnknownBenchmark(f"unknown benchmark {name!r}; known: {', '.join(REGISTRY)}")
    return rec


def build(name, mu: Optional[float] = None) -> MixedComplementarityProblem:
    """Build the MCP of the benchmark called ``name``.

    Args:
        name: a :data:`REGISTRY` name.
        mu: continuation parameter, only meaningful for a parameterized
            benchmark (defaults to 1, the original problem).

    Raises:
        UnknownBenchmark: for names outside the registry.
        ValueError: if ``mu`` is passed for a non-parameterized benchmark or
            is not finite.
    """
    rec = get(name)
    parameter = None
    if rec.parameterized:
        parameter = 1.0 if mu is None else float(mu)
        if not math.isfinite(parameter):
            raise ValueError(f"mu must be finite, got {parameter}")
    elif mu is not None:
        raise ValueError(f"{rec.name} takes no parameter")
    residual, derivative = rec.functions(parameter)
    return MixedComplementarityProblem(
        dimension=rec.guess.size,
        residual=residual,
        derivative=derivative,
        lower=rec.lower,
        parameter=parameter,
    )
