"""Distinct solutions of complementarity problems via deflated semismooth Newton.

The package combines a semismooth Newton solver for mixed complementarity
problems with shifted deflation operators, so that repeated solves from one
initial guess discover distinct roots.  It includes zero-order parameter
continuation, four classic finite-dimensional benchmarks, and a penalty
path-following solver for an obstacle-constrained Euler-Bernoulli beam.

The top level exports the entry points below; every other name is imported
from its own module, e.g. ``deflated_newton.deflation.NormSpec``.
"""

from . import problems
from .continuation import deflated_search
from .deflation import DeflationState
from .obstacle1d import BeamProblem, path_follow
from .solver import SolverConfig

__all__ = [
    "BeamProblem",
    "DeflationState",
    "SolverConfig",
    "deflated_search",
    "path_follow",
    "problems",
]

__version__ = "0.1.0"
