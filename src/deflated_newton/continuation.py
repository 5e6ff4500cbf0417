"""Deflated search over a guess pool and deflated parameter continuation.

The search loop follows a greedy protocol: solve the deflated problem from a
guess; when the solve converges and the undeflated residual is at most atol
there too, deflate the root and retry the same guess; move on at the first
failure.
:func:`deflated_continuation` is the one continuation loop, shared by the
``mu`` continuation of :func:`continue_parameter` and the beam's penalty
path: step 0 is a search from a guess pool, and each later step re-solves
every known branch and then runs a deflated search from the branch points
(and any guesses) to pick up newcomers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .deflation import EUCLIDEAN, DeflatedSystem, DeflationState, NormSpec, deflation_factor
from .reformulate import (
    MixedComplementarityProblem,
    NcpFunction,
    assemble_newton_derivative,
    assemble_residual,
    evaluate,
)
from .solver import SolveResult, SolveStatus, SolverConfig, plain_derivative, solve

DISTINCTNESS_TOL = 1e-6  # see SolutionSet


class AllBranchesLost(Exception):
    """No branch could be re-solved at some continuation step.

    ``solutions`` and ``parameter`` are the set and the parameter value of
    the last step that kept a branch (an empty set and None when there was
    none).
    """

    def __init__(self, message: str, solutions: "SolutionSet", parameter: Optional[float]):
        super().__init__(message)
        self.solutions, self.parameter = solutions, parameter


@dataclass
class RootRecord:
    """A root plus its discovery metadata."""

    z: np.ndarray
    iterations: int
    parameter: Optional[float]


class SolutionSet:
    """Ordered collection of pairwise distinct roots.

    Distinctness is measured in ``norm`` with radius
    ``DISTINCTNESS_TOL * (1 + ||z||)`` around each member; adding a vector
    inside an existing radius raises ValueError.
    """

    def __init__(self, norm: NormSpec = EUCLIDEAN):
        self.norm = norm
        self.records: list[RootRecord] = []

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[RootRecord]:
        return iter(self.records)

    def vectors(self) -> list[np.ndarray]:
        return [rec.z for rec in self.records]

    def radius(self, z: np.ndarray) -> float:
        return DISTINCTNESS_TOL * (1.0 + self.norm.norm(z))

    def is_distinct(self, z: np.ndarray) -> bool:
        if not self.records:
            return True
        radius = self.radius(z)
        return all(self.norm.norm(z - rec.z) > radius for rec in self.records)

    def add(self, z: np.ndarray, iterations: int, parameter: Optional[float]) -> RootRecord:
        z = np.array(z, dtype=float)
        if not self.is_distinct(z):
            raise ValueError("root is not distinct from the set")
        record = RootRecord(z, iterations, parameter)
        self.records.append(record)
        return record


@dataclass(frozen=True)
class Event:
    """Structured progress event for loggers and the CLI."""

    kind: str
    step: Optional[int] = None
    parameter: Optional[float] = None
    branch: Optional[int] = None
    status: Optional[str] = None
    iterations: Optional[int] = None
    detail: str = ""


def _emit(events: Optional[list], **kwargs) -> None:
    if events is not None:
        events.append(Event(**kwargs))


class _ReformulatedSystem:
    """Phi(z) and an element of its generalized derivative, one F(z) per point.

    ``residual(z)`` returns Phi(z) with the point ``(z, F(z))``, from which
    ``jacobian`` assembles the derivative without evaluating F again.
    """

    def __init__(self, problem: MixedComplementarityProblem, ncp: NcpFunction):
        self.problem = problem
        self.ncp = ncp

    def residual(self, z: np.ndarray) -> tuple[np.ndarray, tuple]:
        value = evaluate(self.problem, z)
        return assemble_residual(self.problem, z, self.ncp, value), (z, value)

    def jacobian(self, point: tuple) -> np.ndarray:
        z, value = point
        return assemble_newton_derivative(self.problem, z, self.ncp, value)


def polish_root(result: SolveResult, deflation: DeflationState, atol: float) -> bool:
    """Whether a converged deflated solve ends at a root of the undeflated residual.

    The solve stops at ||G|| <= atol; a root also needs ||F|| = ||G|| / alpha
    <= atol at its final iterate.  With shift 1, alpha >= 1 and this always
    holds; with shift 0 it rejects solves that run off to where alpha vanishes.
    """
    return result.residual_history[-1] / deflation_factor(deflation, result.solution) <= atol


def checked_guesses(guesses: Sequence[np.ndarray], n: int) -> list[np.ndarray]:
    """The guesses as float arrays, each checked to have length ``n``.

    Raises:
        ValueError: naming the first guess of another shape.
    """
    pool = [np.asarray(guess, dtype=float) for guess in guesses]
    for gi, guess in enumerate(pool):
        if guess.shape != (n,):
            raise ValueError(f"guess {gi} has shape {guess.shape}; expected length {n}")
    return pool


def deflated_search_callables(
    residual: Callable[[np.ndarray], tuple],
    jacobian: Callable,
    guesses: Sequence[np.ndarray],
    deflation: DeflationState,
    config: SolverConfig,
    solutions: Optional[SolutionSet] = None,
    parameter: Optional[float] = None,
    max_roots: Optional[int] = None,
    events: Optional[list] = None,
    step: Optional[int] = None,
) -> SolutionSet:
    """Core deflated search over ``guesses`` for a residual given as callables.

    ``residual`` and ``jacobian`` follow the point contract of
    :mod:`deflated_newton.solver`.  ``deflation`` must already contain the
    roots of ``solutions``; both are grown in place as new roots are found.
    """
    sols = solutions if solutions is not None else SolutionSet(norm=deflation.norm)
    system = DeflatedSystem(deflation, residual, jacobian)
    for gi, guess in enumerate(guesses):
        while max_roots is None or len(sols) < max_roots:
            result = solve(system.residual, system.derivative, guess, config)
            _emit(
                events,
                kind="deflated-solve",
                step=step,
                parameter=parameter,
                branch=gi,
                status=result.status.value,
                iterations=result.iterations,
            )
            if result.status is not SolveStatus.CONVERGED:
                break
            if not polish_root(result, deflation, config.atol):
                _emit(events, kind="rejected-unverified", step=step, parameter=parameter,
                      branch=gi)
                break
            root = result.solution
            if not sols.is_distinct(root):
                # converged back into a known root's neighborhood despite deflation
                _emit(events, kind="rejected-duplicate", step=step, parameter=parameter, branch=gi)
                break
            sols.add(root, iterations=result.iterations, parameter=parameter)
            deflation.add_root(root)
            _emit(events, kind="root-found", step=step, parameter=parameter, branch=gi,
                  iterations=result.iterations)
        if max_roots is not None and len(sols) >= max_roots:
            break
    return sols


def deflated_search(
    problem: MixedComplementarityProblem,
    guesses: Sequence[np.ndarray],
    ncp: NcpFunction = NcpFunction.FISCHER_BURMEISTER,
    deflation: Optional[DeflationState] = None,
    config: Optional[SolverConfig] = None,
    max_roots: Optional[int] = None,
    events: Optional[list] = None,
) -> SolutionSet:
    """Deflated search for distinct roots of a complementarity problem.

    Args:
        problem: the MCP to solve.
        guesses: starting points, tried in order; each is retried after every
            root it produces, so one guess can yield several roots.
        ncp: NCP function used for the semismooth reformulation.
        deflation: operator state (fresh shifted p=2 state by default).
        config: solver settings.
        max_roots: optional cap on the number of roots returned.
        events: optional list collecting :class:`Event` records.

    Returns:
        A :class:`SolutionSet`; empty when no guess converged.

    Raises:
        ValueError: a guess does not have the problem's dimension; raised
            before any solve.
    """
    guesses = checked_guesses(guesses, problem.dimension)
    state = deflation if deflation is not None else DeflationState()
    cfg = config or SolverConfig()
    system = _ReformulatedSystem(problem, ncp)
    return deflated_search_callables(
        residual=system.residual,
        jacobian=system.jacobian,
        guesses=guesses,
        deflation=state,
        config=cfg,
        parameter=problem.parameter,
        max_roots=max_roots,
        events=events,
    )


@dataclass(frozen=True)
class ContinuationPlan:
    """Equispaced zero-order continuation from ``start`` to ``end``."""

    start: float
    end: float
    steps: int
    config: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("continuation needs at least one step")
        # a finite start and end can still be too far apart to step between
        if not all(map(math.isfinite, (self.start, self.end, self.end - self.start))):
            raise ValueError("continuation range must be finite")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.end, self.steps + 1)[1:]


class ContinuationStep(NamedTuple):
    """What :func:`deflated_continuation` solves at one parameter value.

    ``branches`` are the known records in this step's unknowns, ``norm``
    deflates and tells roots apart, ``detail`` labels branch-resolved events.
    """

    residual: Callable[[np.ndarray], tuple]
    jacobian: Callable
    config: SolverConfig
    norm: NormSpec
    branches: Sequence[RootRecord]
    guesses: Sequence[np.ndarray]
    detail: str


def deflated_continuation(
    values: Sequence[float],
    setup: Callable[[int, float, list[RootRecord]], ContinuationStep],
    deflation: DeflationState,
    max_roots: Optional[int],
    events: Optional[list],
    name: str,
) -> SolutionSet:
    """Deflated continuation (Farrell, Beentjes & Birkisson 2016) over ``values``.

    ``setup(step, value, records)`` gives the :class:`ContinuationStep` at
    each value from the records of the step before.  Each branch is
    re-solved (undeflated, down to ``atol``), or dropped with an event when
    that fails or it collides with an already re-solved branch.  A deflated
    search from the branch points, then from the guesses, looks for
    newcomers, with ``deflation``'s power and shift, up to ``max_roots``
    roots in all.  Re-solved branches keep their discovery metadata;
    newcomers record the value.  Step 0 has no branches, so it is the search
    alone; when it finds nothing the path ends there, with an empty set.

    Raises:
        AllBranchesLost: a step had branches and none re-converges
            ("all branches failed at {name} {value}").
    """
    solutions, previous = SolutionSet(), None
    for step, value in enumerate(map(float, values)):
        at = setup(step, value, list(solutions))
        resolved = SolutionSet(norm=at.norm)
        for bi, record in enumerate(at.branches):
            result = solve(at.residual, plain_derivative(at.jacobian), record.z, at.config)
            if result.status is not SolveStatus.CONVERGED:
                _emit(events, kind="branch-lost", step=step, parameter=value, branch=bi,
                      status=result.status.value)
                continue
            if not resolved.is_distinct(result.solution):
                _emit(events, kind="branch-collision", step=step, parameter=value, branch=bi)
                continue
            resolved.add(result.solution, iterations=record.iterations, parameter=record.parameter)
            _emit(events, kind="branch-resolved", step=step, parameter=value, branch=bi,
                  iterations=result.iterations, detail=at.detail)
        if len(at.branches) > 0 and len(resolved) == 0:
            raise AllBranchesLost(f"all branches failed at {name} {value}", solutions, previous)

        solutions = deflated_search_callables(
            at.residual, at.jacobian, [record.z for record in at.branches] + list(at.guesses),
            deflation=replace(deflation, norm=at.norm, roots=resolved.vectors()),
            config=at.config, solutions=resolved, parameter=value, max_roots=max_roots,
            events=events, step=step,
        )
        if len(solutions) == 0:  # only a step without branches ends empty
            break
        previous = value
    return solutions


def continue_parameter(
    family: Callable[[float], MixedComplementarityProblem],
    plan: ContinuationPlan,
    guesses: Sequence[np.ndarray],
    ncp: NcpFunction = NcpFunction.FISCHER_BURMEISTER,
    deflation: Optional[DeflationState] = None,
    config: Optional[SolverConfig] = None,
    max_roots: Optional[int] = None,
    events: Optional[list] = None,
) -> SolutionSet:
    """Find the roots of ``family(plan.start)`` and continue them to plan.end.

    One :func:`deflated_continuation` over plan.start and ``plan.values()``
    in the norm of ``deflation`` (Euclidean by default).  Step 0 is the
    deflated search from ``guesses`` with ``config``, as in
    :func:`deflated_search`; later steps solve with ``plan.config``.

    Returns:
        The branches at plan.end; empty when step 0 found no root.

    Raises:
        ValueError: a guess does not have the problem's dimension; raised
            before any solve.
        AllBranchesLost: no branch re-converges at some step.
    """
    state = deflation if deflation is not None else DeflationState()
    search_config = config or SolverConfig()

    def step_at(step: int, mu: float, branches: list[RootRecord]) -> ContinuationStep:
        system = _ReformulatedSystem(family(mu), ncp)
        pool = checked_guesses(guesses, system.problem.dimension) if step == 0 else []
        step_config = plan.config if step > 0 else search_config
        return ContinuationStep(
            system.residual, system.jacobian, step_config, state.norm, branches, pool, ""
        )

    return deflated_continuation(
        [plan.start, *plan.values()], step_at, state, max_roots, events, "parameter"
    )
