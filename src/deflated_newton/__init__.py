"""Distinct solutions of complementarity problems via deflated semismooth Newton.

The package combines a semismooth Newton solver for mixed complementarity
problems with shifted deflation operators, so that repeated solves from one
initial guess discover distinct roots.  It includes zero-order parameter
continuation, four classic finite-dimensional benchmarks, and a penalty
path-following solver for an obstacle-constrained Euler-Bernoulli beam.
"""

from .continuation import (
    AllBranchesLost,
    ContinuationPlan,
    Event,
    RootRecord,
    SolutionSet,
    continue_parameter,
    deflated_search,
)
from .deflation import (
    EUCLIDEAN,
    AtDeflatedRoot,
    DeflationState,
    NormSpec,
    deflated_derivative_parts,
    deflated_residual,
    deflation_factor,
    deflation_gradient,
)
from .linalg import (
    BandedMatrix,
    LuFactorization,
    SingularMatrix,
    lu_factor,
    solve_rank_one_update,
)
from .obstacle1d import (
    BeamProblem,
    HermiteMesh1D,
    PathState,
    gamma_schedule,
    path_follow,
    prolong,
)
from .problems import Benchmark, UnknownBenchmark, build, defaults, initial_guess, list_benchmarks
from .reformulate import (
    MixedComplementarityProblem,
    NcpFunction,
    NonFiniteResidual,
    assemble_newton_derivative,
    assemble_residual,
    phi,
    phi_derivative,
)
from .solver import SolveResult, SolveStatus, SolverConfig, solve

__all__ = [
    "AllBranchesLost",
    "AtDeflatedRoot",
    "BandedMatrix",
    "BeamProblem",
    "Benchmark",
    "ContinuationPlan",
    "DeflationState",
    "EUCLIDEAN",
    "Event",
    "HermiteMesh1D",
    "LuFactorization",
    "MixedComplementarityProblem",
    "NcpFunction",
    "NonFiniteResidual",
    "NormSpec",
    "PathState",
    "RootRecord",
    "SingularMatrix",
    "SolutionSet",
    "SolveResult",
    "SolveStatus",
    "SolverConfig",
    "UnknownBenchmark",
    "assemble_newton_derivative",
    "assemble_residual",
    "build",
    "continue_parameter",
    "defaults",
    "deflated_derivative_parts",
    "deflated_residual",
    "deflated_search",
    "deflation_factor",
    "deflation_gradient",
    "gamma_schedule",
    "initial_guess",
    "list_benchmarks",
    "lu_factor",
    "path_follow",
    "phi",
    "phi_derivative",
    "prolong",
    "solve",
    "solve_rank_one_update",
]

__version__ = "0.1.0"
