"""Shared fixtures: the expensive searches run once per session.

Also holds the exact reference for banded linear systems that the beam tests
compare the inactive equilibrium against.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from deflated_newton import (
    BeamProblem,
    DeflationState,
    deflated_search,
    path_follow,
)
from deflated_newton import problems
from deflated_newton.linalg import BandedMatrix, lu_factor
from deflated_newton.obstacle1d import BeamDiscretization

EPS = float(np.finfo(float).eps)


@pytest.fixture(scope="session")
def kojima_roots():
    prob = problems.build("kojima-shindoh")
    sols = deflated_search(prob, [problems.get("kojima-shindoh").guess])
    return [rec.z for rec in sols]


@pytest.fixture(scope="session")
def gould_roots():
    prob = problems.build("gould")
    sols = deflated_search(prob, [problems.get("gould").guess])
    return [rec.z for rec in sols]


@pytest.fixture(scope="session")
def gerard_solutions():
    rec = problems.get("gerard")
    sols = deflated_search(
        problems.build("gerard"),
        [rec.guess],
        ncp=rec.ncp,
        deflation=DeflationState(power=rec.power),
        config=rec.config,
    )
    return sols


@pytest.fixture(scope="session")
def aggarwal_search():
    """Deflated search on the bimatrix game at the small parameter value."""
    rec = problems.get("aggarwal")
    config = rec.config
    events = []
    sols = deflated_search(
        problems.build("aggarwal", mu=1e-3),
        [rec.guess],
        config=config,
        events=events,
    )
    return sols, config, events


@pytest.fixture(scope="session")
def beam_path():
    """Full penalty path for the default beam, with its event log."""
    problem = BeamProblem()
    events = []
    state = path_follow(problem, events=events)
    return problem, state, events


@pytest.fixture(scope="session")
def beam_path_subcritical():
    """Path for a load below the first buckling load: a single equilibrium."""
    problem = BeamProblem(load=5.0)
    events = []
    state = path_follow(problem, events=events)
    return problem, state, events


def exact_residual(matrix: BandedMatrix, z, rhs) -> np.ndarray:
    """``rhs - matrix @ z`` with each entry computed exactly, then rounded once.

    Works on the band storage ``matrix.data`` in ``fractions.Fraction``
    arithmetic, so the result is the correctly rounded residual of the stored
    doubles, free of the cancellation a floating-point matvec suffers.
    """
    n, hbw, data = matrix.n, matrix.hbw, matrix.data
    z_exact = [Fraction(float(v)) for v in z]
    out = np.empty(n)
    for i in range(n):
        acc = Fraction(float(rhs[i]))
        for j in range(max(0, i - hbw), min(n, i + hbw + 1)):
            acc -= Fraction(float(data[hbw + i - j, j])) * z_exact[j]
        out[i] = float(acc)
    return out


@dataclass
class ExactReference:
    """Exact solution z* of a banded system and the double-precision budget around it.

    ``forward_bound`` is eps * || |A^-1| (|A| |z*| + |f|) ||_inf, the first-order
    forward error of any solve whose componentwise backward error is at most
    eps (Skeel's condition number times eps ||z*||).  ``direct_gap`` is the
    distance from z* of one plain LU solve.
    """

    matrix: BandedMatrix
    rhs: np.ndarray
    solution: np.ndarray
    forward_bound: float
    direct_gap: float

    def residual(self, z) -> np.ndarray:
        """Exactly evaluated ``rhs - matrix @ z``, rounded once per entry."""
        return exact_residual(self.matrix, z, self.rhs)


def exact_reference(matrix: BandedMatrix, rhs, max_steps: int = 10) -> ExactReference:
    """Solve ``matrix z = rhs`` by iterative refinement with exact residuals.

    Each correction solves against the program's ``lu_factor`` with the
    residual from :func:`exact_residual`; refinement stops once a correction
    is at most 4 eps ||z||_inf.  A reference that does not get there fails the
    calling test instead of quietly loosening its check.
    """
    rhs = np.asarray(rhs, dtype=float)
    factors = lu_factor(matrix)
    direct = factors.solve(rhs)
    z = direct
    for _ in range(max_steps):
        correction = factors.solve(exact_residual(matrix, z, rhs))
        z = z + correction
        last = float(np.abs(correction).max())
        if last <= 4.0 * EPS * float(np.abs(z).max()):
            break
    else:
        pytest.fail(
            f"exact refinement stalled: last correction {last:.2e} after {max_steps} steps"
        )
    abs_inverse = np.abs(factors.solve(np.eye(matrix.n)))
    scale = np.abs(matrix.to_dense()) @ np.abs(z) + np.abs(rhs)
    forward_bound = EPS * float((abs_inverse @ scale).max())
    return ExactReference(matrix, rhs, z, forward_bound, float(np.abs(direct - z).max()))


@pytest.fixture(scope="session")
def inactive_branch_reference(beam_path):
    """Exact solution of the unconstrained system (2K - 2G) y = f on the final beam mesh."""
    problem, state, _ = beam_path
    disc = BeamDiscretization(problem, state.mesh)
    return exact_reference(2.0 * disc.stiffness - 2.0 * disc.geometric, disc.load_vector)
