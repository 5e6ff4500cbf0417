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
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .reformulate import MixedComplementarityProblem, NcpFunction
from .solver import SINGULAR_ERROR, SINGULAR_LEAST_SQUARES


class UnknownBenchmark(Exception):
    """Requested benchmark name is not in the registry."""


class Benchmark(Enum):
    KOJIMA_SHINDOH = "kojima-shindoh"
    GOULD = "gould"
    AGGARWAL = "aggarwal"
    GERARD = "gerard"


@dataclass(frozen=True)
class BenchmarkDefaults:
    """Recommended solver settings for a benchmark."""

    ncp: NcpFunction = NcpFunction.FISCHER_BURMEISTER
    power: float = 2.0
    shift: float = 1.0
    line_search: bool = False
    singular_action: str = SINGULAR_ERROR
    parameterized: bool = False
    max_iter: int = 100


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
class _Entry:
    """One registry row: solver defaults, initial guess and problem data.

    ``functions(mu)`` returns ``(F, jacobian)``; only a parameterized entry
    reads ``mu``.  The dimension is the length of ``guess``.
    """

    defaults: BenchmarkDefaults
    guess: np.ndarray
    functions: Callable[[Optional[float]], tuple]
    lower: Optional[np.ndarray] = None


_REGISTRY = {
    Benchmark.KOJIMA_SHINDOH: _Entry(
        BenchmarkDefaults(),
        guess=np.full(4, 0.7),
        functions=lambda mu: (_kojima_shindoh_f, _kojima_shindoh_jac),
    ),
    Benchmark.GOULD: _Entry(
        BenchmarkDefaults(),
        guess=np.array([0.2, 0.2, 0.0, 0.0]),
        functions=lambda mu: (_gould_f, lambda z: _GOULD_JAC),
    ),
    Benchmark.AGGARWAL: _Entry(
        # the game is symmetric under swapping the players, the zero guess is
        # symmetric, and two of the equilibria are not: escaping the symmetric
        # subspace rides on rounding noise and needs a generous iteration cap
        BenchmarkDefaults(parameterized=True, max_iter=2000),
        guess=np.zeros(4),
        functions=lambda mu: (_aggarwal_f(mu), _aggarwal_jac(mu)),
    ),
    Benchmark.GERARD: _Entry(
        # the all-zero start makes several rows of the Newton matrix vanish,
        # so singular systems are solved in the minimum-norm sense there
        BenchmarkDefaults(
            ncp=NcpFunction.MIN_MAX, power=1.0, line_search=True,
            singular_action=SINGULAR_LEAST_SQUARES,
        ),
        guess=np.zeros(10),
        functions=lambda mu: (_gerard_f, _gerard_jac),
        # the certainty-equivalent variable is unconstrained
        lower=np.append(np.zeros(9), -np.inf),
    ),
}


def resolve(benchmark) -> Benchmark:
    if isinstance(benchmark, Benchmark):
        return benchmark
    try:
        return Benchmark(str(benchmark))
    except ValueError:
        raise UnknownBenchmark(f"unknown benchmark {benchmark!r}; see list_benchmarks()") from None


def build(benchmark, mu: Optional[float] = None) -> MixedComplementarityProblem:
    """Build a benchmark MCP.

    Args:
        benchmark: a :class:`Benchmark` or its string name.
        mu: continuation parameter, only meaningful for a parameterized
            benchmark (defaults to 1, the original problem).

    Raises:
        UnknownBenchmark: for names outside the registry.
        ValueError: if ``mu`` is passed for a non-parameterized benchmark or
            is not finite.
    """
    bench = resolve(benchmark)
    entry = _REGISTRY[bench]
    parameter = None
    if entry.defaults.parameterized:
        parameter = 1.0 if mu is None else float(mu)
        if not math.isfinite(parameter):
            raise ValueError(f"mu must be finite, got {parameter}")
    elif mu is not None:
        raise ValueError(f"{bench.value} takes no parameter")
    residual, derivative = entry.functions(parameter)
    return MixedComplementarityProblem(
        dimension=entry.guess.size,
        residual=residual,
        derivative=derivative,
        lower=entry.lower,
        parameter=parameter,
        name=bench.value,
    )


def defaults(benchmark) -> BenchmarkDefaults:
    return _REGISTRY[resolve(benchmark)].defaults


def initial_guess(benchmark) -> np.ndarray:
    return _REGISTRY[resolve(benchmark)].guess.copy()


def dimension(benchmark) -> int:
    return _REGISTRY[resolve(benchmark)].guess.size


def list_benchmarks() -> list[str]:
    return [b.value for b in Benchmark]


def gerard_prices(z: np.ndarray) -> tuple[float, float]:
    """Extract the equilibrium price pair (pi1, pi2) from a Gerard solution."""
    return float(z[5]), float(z[6])
