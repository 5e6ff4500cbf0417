"""Deflated search over a guess pool and deflated parameter continuation.

The search loop follows a greedy protocol: solve the deflated problem from a
guess; when the solve converges and the undeflated residual is at most atol
there too, deflate the root and retry the same guess; move on at the first
failure.
:func:`deflated_continuation` is the one continuation loop, shared by the
``mu`` continuation of :func:`continue_parameter` and the beam's penalty
path: step 0 is a search from a guess pool, and each later step re-solves
every known branch and then runs a deflated search from the branch points
(and any guesses) to pick up newcomers.  A step may give a coarser
:class:`SearchLevel`; its newcomer search then runs there, and what it finds
is lifted back and re-solved on the step's own unknowns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .deflation import DeflatedSystem, DeflationState, NormSpec, deflation_factor
from .reformulate import (
    MixedComplementarityProblem,
    NcpFunction,
    assemble_newton_derivative,
    assemble_residual,
    evaluate,
)
from .solver import SolveResult, SolveStatus, SolverConfig, check_count, plain_derivative, solve

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
    """Ordered collection of pairwise distinct roots, and the deflation of them.

    Members enter the :class:`DeflationState` only through :meth:`add`, so
    ``deflation.roots`` (a fresh shifted p=2 state by default) is the roots
    the state came with, then :meth:`vectors`: the members are its last
    ``len(self)`` roots, which :meth:`DeflationState.add_root` tells a
    newcomer apart from.
    """

    def __init__(self, deflation: Optional[DeflationState] = None):
        self.deflation = deflation if deflation is not None else DeflationState()
        self.records: list[RootRecord] = []

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[RootRecord]:
        return iter(self.records)

    def vectors(self) -> list[np.ndarray]:
        return [rec.z for rec in self.records]

    def add(self, z: np.ndarray, iterations: int,
            parameter: Optional[float]) -> Optional[RootRecord]:
        """Append and deflate ``z`` and return its :class:`RootRecord`, or return
        None, changing nothing, when ``z`` lies within ``DISTINCTNESS_TOL *
        (1 + ||z||)`` of a member in the deflation norm.  The ValueError of
        :meth:`DeflationState.add_root` (another shape, or within the guard)
        passes on."""
        if not self.deflation.add_root(z, distinct_from=len(self.records)):
            return None
        # the record gets its own copy, not the deflated array
        record = RootRecord(self.deflation.roots[-1].copy(), iterations, parameter)
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
    holds; with shift 0 it rejects solves that run off to where alpha vanishes,
    and those where alpha underflows to 0, which leave ||F|| unknown.
    """
    alpha = deflation_factor(deflation, result.solution)
    return alpha > 0.0 and result.residual_history[-1] / alpha <= atol


def checked_guesses(guesses: Sequence[np.ndarray], n: int,
                    deflation: Optional[DeflationState]) -> list[np.ndarray]:
    """The guesses as float arrays, each checked to have length ``n``; the roots
    and the norm weight of ``deflation`` (if given) are checked to have it too.

    Raises:
        ValueError: naming the first guess, or the part of ``deflation``, of
            another dimension.
    """
    pool = [np.asarray(guess, dtype=float) for guess in guesses]
    for gi, guess in enumerate(pool):
        if guess.shape != (n,):
            raise ValueError(f"guess {gi} has shape {guess.shape}; expected length {n}")
    if deflation is not None:
        weight = deflation.norm.weight
        for what, size in (("roots have", deflation.stacked.shape[1] if deflation.roots else n),
                           ("norm weight has", n if weight is None else weight.n)):
            if size != n:
                raise ValueError(f"the deflation {what} dimension {size}, not the problem's {n}")
    return pool


def deflated_search_callables(
    residual: Callable[[np.ndarray], tuple],
    jacobian: Callable,
    guesses: Sequence[np.ndarray],
    config: SolverConfig,
    solutions: SolutionSet,
    parameter: Optional[float] = None,
    max_roots: Optional[int] = None,
    events: Optional[list] = None,
    step: Optional[int] = None,
) -> SolutionSet:
    """Core deflated search over ``guesses`` for a residual given as callables.

    ``residual`` and ``jacobian`` follow the point contract of
    :mod:`deflated_newton.solver`.  The solves deflate with
    ``solutions.deflation``, and each root found is added to ``solutions``.
    """
    system = DeflatedSystem(solutions.deflation, residual, jacobian)
    for gi, guess in enumerate(guesses):
        while max_roots is None or len(solutions) < max_roots:
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
            if not polish_root(result, solutions.deflation, config.atol):
                _emit(events, kind="rejected-unverified", step=step, parameter=parameter,
                      branch=gi)
                break
            if solutions.add(result.solution, result.iterations, parameter) is None:
                # converged back into a known root's neighborhood despite deflation
                _emit(events, kind="rejected-duplicate", step=step, parameter=parameter, branch=gi)
                break
            _emit(events, kind="root-found", step=step, parameter=parameter, branch=gi,
                  iterations=result.iterations)
        if max_roots is not None and len(solutions) >= max_roots:
            break
    return solutions


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
        deflation: operator state (fresh shifted p=2 state by default); its
            roots are deflated too, and the returned set grows it in place.
        config: solver settings.
        max_roots: optional cap on the number of roots returned.
        events: optional list collecting :class:`Event` records.

    Returns:
        A :class:`SolutionSet`; empty when no guess converged.

    Raises:
        ValueError: ``max_roots`` is neither None nor a count of at least 1,
            or a guess or ``deflation`` has another dimension than the
            problem; raised before any solve.
    """
    if max_roots is not None:
        check_count("max_roots", max_roots)
    guesses = checked_guesses(guesses, problem.dimension, deflation)
    system = _ReformulatedSystem(problem, ncp)
    return deflated_search_callables(
        residual=system.residual,
        jacobian=system.jacobian,
        guesses=guesses,
        config=config or SolverConfig(),
        solutions=SolutionSet(deflation),
        parameter=problem.parameter,
        max_roots=max_roots,
        events=events,
    )


def unrooted(deflation: Optional[DeflationState]) -> DeflationState:
    """``deflation`` (shifted p=2 when None) to start a continuation with; one that
    holds roots raises ValueError, as each step deflates only its own branches."""
    if deflation is not None and deflation.roots:
        raise ValueError(f"a continuation deflates only its own branches; this deflation "
                         f"state holds {len(deflation.roots)} root(s)")
    return deflation if deflation is not None else DeflationState()


@dataclass(frozen=True)
class ContinuationPlan:
    """Equispaced zero-order continuation from ``start`` to ``end``."""

    start: float
    end: float
    steps: int
    config: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        check_count("continuation steps", self.steps)
        # a finite start and end can still be too far apart to step between
        if not all(map(math.isfinite, (self.start, self.end, self.end - self.start))):
            raise ValueError("continuation range must be finite")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.end, self.steps + 1)[1:]


class SearchLevel(NamedTuple):
    """A coarser discretization that a step's newcomer search runs on.

    ``residual``, ``jacobian``, ``config`` and ``norm`` are as in
    :class:`ContinuationStep`, in the search level's unknowns.  ``restrict``
    maps the step's unknowns to the search level's, and ``lift`` maps them
    back.
    """

    residual: Callable[[np.ndarray], tuple]
    jacobian: Callable
    config: SolverConfig
    norm: NormSpec
    restrict: Callable[[np.ndarray], np.ndarray]
    lift: Callable[[np.ndarray], np.ndarray]


class ContinuationStep(NamedTuple):
    """What :func:`deflated_continuation` solves at one parameter value.

    ``branches`` are the known records in this step's unknowns, ``norm``
    deflates and tells roots apart, ``detail`` labels branch-resolved events.
    The newcomer search runs on the ``search`` level when there is one, and
    on the step's unknowns otherwise; ``guesses`` are in the unknowns of
    the level it runs on.
    """

    residual: Callable[[np.ndarray], tuple]
    jacobian: Callable
    config: SolverConfig
    norm: NormSpec
    branches: Sequence[RootRecord]
    guesses: Sequence[np.ndarray]
    detail: str
    search: Optional[SearchLevel] = None


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
    newcomers, up to ``max_roots`` roots in all, deflating the step's set in
    its norm with ``deflation``'s power and shift.  A search level runs it
    there and keeps the newcomers that lift (see :func:`_search_and_lift`).
    Re-solved branches keep their discovery metadata; newcomers record the
    value.  Step 0 has no branches, so it is the search alone; when it finds
    nothing the path ends there, with an empty set.

    Raises:
        AllBranchesLost: a step had branches and none re-converges
            ("all branches failed at {name} {value}").
    """
    solutions, previous = SolutionSet(), None
    for step, value in enumerate(map(float, values)):
        at = setup(step, value, list(solutions))
        resolved = SolutionSet(replace(deflation, norm=at.norm, roots=[]))
        for bi, record in enumerate(at.branches):
            result = solve(at.residual, plain_derivative(at.jacobian), record.z, at.config)
            if result.status is not SolveStatus.CONVERGED:
                _emit(events, kind="branch-lost", step=step, parameter=value, branch=bi,
                      status=result.status.value)
                continue
            if resolved.add(result.solution, record.iterations, record.parameter) is None:
                _emit(events, kind="branch-collision", step=step, parameter=value, branch=bi)
                continue
            _emit(events, kind="branch-resolved", step=step, parameter=value, branch=bi,
                  iterations=result.iterations, detail=at.detail)
        if len(at.branches) > 0 and len(resolved) == 0:
            raise AllBranchesLost(f"all branches failed at {name} {value}", solutions, previous)

        if at.search is not None:
            solutions = _search_and_lift(at, resolved, value, max_roots, events, step)
        else:
            solutions = deflated_search_callables(
                at.residual, at.jacobian, [record.z for record in at.branches] + list(at.guesses),
                config=at.config, solutions=resolved, parameter=value, max_roots=max_roots,
                events=events, step=step,
            )
        if len(solutions) == 0:  # only a step without branches ends empty
            break
        previous = value
    return solutions


def _search_and_lift(
    at: ContinuationStep,
    resolved: SolutionSet,
    value: float,
    max_roots: Optional[int],
    events: Optional[list],
    step: int,
) -> SolutionSet:
    """``resolved`` plus the newcomers that a search on ``at.search`` finds and lifts.

    Nested iteration for deflation (Adler, Emerson, Farrell & MacLachlan,
    SIAM J. Sci. Comput. 39, 2017).  Each re-solved branch is restricted to
    the search level and re-solved there, undeflated and without an event;
    the ones that converge to distinct roots are deflated on that level,
    with the power and shift of ``resolved.deflation``.
    The deflated search runs from the restricted branch points, then from
    the guesses, for at most as many newcomers as ``max_roots`` leaves room
    for.  Each newcomer is lifted and re-solved, undeflated, on the step's
    unknowns.  It is kept only when that converges to a root distinct from
    ``resolved``; its ``root-found`` event then stands where the search
    found it, and otherwise that event is ``branch-lost`` (with the status
    of the re-solve) or ``rejected-duplicate``.
    """
    if max_roots is not None and len(resolved) >= max_roots:
        return resolved
    level = at.search
    coarse = SolutionSet(replace(resolved.deflation, norm=level.norm, roots=[]))
    for record in resolved:
        result = solve(level.residual, plain_derivative(level.jacobian),
                       level.restrict(record.z), level.config)
        if result.status is SolveStatus.CONVERGED:
            coarse.add(result.solution, record.iterations, record.parameter)
    known, found = len(coarse), []
    deflated_search_callables(
        level.residual, level.jacobian,
        [level.restrict(record.z) for record in at.branches] + list(at.guesses),
        config=level.config, solutions=coarse, parameter=value,
        max_roots=None if max_roots is None else known + max_roots - len(resolved),
        events=found, step=step,
    )
    newcomers = iter(coarse.records[known:])
    for event in found:
        if event.kind == "root-found":
            record = next(newcomers)
            result = solve(at.residual, plain_derivative(at.jacobian), level.lift(record.z),
                           at.config)
            if result.status is not SolveStatus.CONVERGED:
                event = replace(event, kind="branch-lost", iterations=None,
                                status=result.status.value)
            elif resolved.add(result.solution, record.iterations, value) is None:
                event = replace(event, kind="rejected-duplicate", iterations=None)
        if events is not None:
            events.append(event)
    return resolved


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
    with the power, shift and norm of ``deflation`` (a shifted p=2
    Euclidean state by default), which must hold no roots.  Step 0 is the
    deflated search from ``guesses`` with ``config``, as in
    :func:`deflated_search`; later steps solve with ``plan.config``.

    Returns:
        The branches at plan.end, deflated by its ``deflation``; empty when none.

    Raises:
        ValueError: ``max_roots`` is neither None nor a count of at least 1,
            ``deflation`` holds roots, or a guess or its norm weight has
            another dimension than the problem; raised before any solve.
        AllBranchesLost: no branch re-converges at some step.
    """
    if max_roots is not None:
        check_count("max_roots", max_roots)
    state = unrooted(deflation)
    search_config = config or SolverConfig()

    def step_at(step: int, mu: float, branches: list[RootRecord]) -> ContinuationStep:
        system = _ReformulatedSystem(family(mu), ncp)
        pool = checked_guesses(guesses, system.problem.dimension, state) if step == 0 else []
        step_config = plan.config if step > 0 else search_config
        return ContinuationStep(
            system.residual, system.jacobian, step_config, state.norm, branches, pool, ""
        )

    return deflated_continuation(
        [plan.start, *plan.values()], step_at, state, max_roots, events, "parameter"
    )
