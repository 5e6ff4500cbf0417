"""Deflated search over a guess pool and zero-order parameter continuation.

The search loop follows a greedy protocol: solve the deflated problem from a
guess; on success verify the root against the undeflated residual, deflate
it, and retry the same guess; move on at the first failure.  Continuation
re-solves every known branch at each new parameter value and then runs a
deflated search from the previous branch points to pick up newcomers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .deflation import EUCLIDEAN, DeflatedSystem, DeflationState, NormSpec
from .reformulate import (
    MixedComplementarityProblem,
    NcpFunction,
    assemble_newton_derivative,
    assemble_residual,
    evaluate,
)
from .solver import SolveStatus, SolverConfig, plain_derivative, solve

DISTINCTNESS_TOL = 1e-6  # see SolutionSet

# A candidate root is polished with a few plain Newton steps before it is
# accepted: the deflated solve stops at max(atol, rtol * ||G(z0)||), while
# membership requires the undeflated residual to reach atol.  Warm-started
# polishing gets there in one or two steps; anything needing more than this
# cap was not actually a root.
POLISH_MAX_ITER = 5


class AllBranchesLost(Exception):
    """No branch could be re-solved at some continuation step."""


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


def polish_root(
    residual: Callable[[np.ndarray], tuple],
    jacobian: Callable,
    z: np.ndarray,
    config: SolverConfig,
) -> Optional[tuple[np.ndarray, int]]:
    """Refine a candidate root on the undeflated problem down to atol.

    Returns the polished root and the number of extra Newton iterations, or
    None when the candidate cannot be verified as a root.
    """
    cfg = replace(config, max_iter=POLISH_MAX_ITER)
    result = solve(residual, plain_derivative(jacobian), z, cfg)
    if result.status is not SolveStatus.CONVERGED:
        return None
    if result.residual_history[-1] > config.atol:
        return None
    return result.solution, result.iterations


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
            polished = polish_root(residual, jacobian, result.solution, config)
            if polished is None:
                _emit(events, kind="rejected-unverified", step=step, parameter=parameter,
                      branch=gi)
                break
            root, extra = polished
            if not sols.is_distinct(root):
                # converged back into a known root's neighborhood despite deflation
                _emit(events, kind="rejected-duplicate", step=step, parameter=parameter, branch=gi)
                break
            iterations = result.iterations + extra
            sols.add(root, iterations=iterations, parameter=parameter)
            deflation.add_root(root)
            _emit(events, kind="root-found", step=step, parameter=parameter, branch=gi,
                  iterations=iterations)
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
    ncp: NcpFunction = NcpFunction.FISCHER_BURMEISTER
    power: float = 2.0
    shift: float = 1.0

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("continuation needs at least one step")
        # a finite start and end can still be too far apart to step between
        if not all(map(math.isfinite, (self.start, self.end, self.end - self.start))):
            raise ValueError("continuation range must be finite")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.end, self.steps + 1)[1:]


def advance_branches(
    residual: Callable[[np.ndarray], tuple],
    jacobian: Callable,
    branches: Sequence[RootRecord],
    deflation: DeflationState,
    config: SolverConfig,
    parameter: float,
    step: int,
    extra_guesses: Sequence[np.ndarray] = (),
    max_roots: Optional[int] = None,
    events: Optional[list] = None,
    detail: str = "",
    name: str = "parameter",
) -> SolutionSet:
    """One step of deflated continuation (Farrell, Beentjes & Birkisson 2016).

    Each branch record is re-solved (undeflated) from its ``z`` and
    polished, or dropped with an event when that fails or it collides with
    an already re-solved branch.  A deflated search from the branch points,
    then from ``extra_guesses``, looks for newcomers.  Re-solved branches
    keep their discovery metadata; newcomers record ``parameter``.
    ``deflation`` gives the operator and the norm; its roots are replaced by
    the re-solved branches.  With no ``branches`` the step is the search
    from ``extra_guesses`` alone, and its result may be empty.

    Raises:
        AllBranchesLost: there were branches and none re-converges
            ("... at {name} {parameter}").
    """
    resolved = SolutionSet(norm=deflation.norm)
    for bi, record in enumerate(branches):
        result = solve(residual, plain_derivative(jacobian), record.z, config)
        moved = None
        if result.status is SolveStatus.CONVERGED:
            moved = polish_root(residual, jacobian, result.solution, config)
        if moved is None:
            why = "unverified" if result.status is SolveStatus.CONVERGED else result.status.value
            _emit(events, kind="branch-lost", step=step, parameter=parameter, branch=bi,
                  status=why)
            continue
        z_new, extra = moved
        if not resolved.is_distinct(z_new):
            _emit(events, kind="branch-collision", step=step, parameter=parameter, branch=bi)
            continue
        resolved.add(z_new, iterations=record.iterations, parameter=record.parameter)
        _emit(events, kind="branch-resolved", step=step, parameter=parameter, branch=bi,
              iterations=result.iterations + extra, detail=detail)
    if len(branches) > 0 and len(resolved) == 0:
        raise AllBranchesLost(f"all branches failed at {name} {parameter}")

    return deflated_search_callables(
        residual=residual,
        jacobian=jacobian,
        guesses=[record.z for record in branches] + list(extra_guesses),
        deflation=replace(deflation, roots=resolved.vectors()),
        config=config,
        solutions=resolved,
        parameter=parameter,
        max_roots=max_roots,
        events=events,
        step=step,
    )


def continue_parameter(
    family: Callable[[float], MixedComplementarityProblem],
    plan: ContinuationPlan,
    initial: SolutionSet,
    events: Optional[list] = None,
) -> SolutionSet:
    """Continue all branches of ``initial`` from plan.start to plan.end.

    Every step is one :func:`advance_branches` in the Euclidean norm.

    Raises:
        AllBranchesLost: when no branch re-converges at some step.
    """
    if len(initial) == 0:
        raise ValueError("continuation requires a nonempty initial solution set")
    current = initial
    deflation = DeflationState(power=plan.power, shift=plan.shift)
    for step_idx, value in enumerate(plan.values(), start=1):
        system = _ReformulatedSystem(family(float(value)), plan.ncp)
        current = advance_branches(
            system.residual, system.jacobian, current, deflation=deflation, config=plan.config,
            parameter=float(value), step=step_idx, events=events,
        )
    return current
