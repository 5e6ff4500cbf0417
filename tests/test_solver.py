import math
import warnings

import numpy as np
import pytest

from deflated_newton import problems
from deflated_newton.continuation import ContinuationPlan
from deflated_newton.deflation import (
    AtDeflatedRoot,
    DeflatedSystem,
    DeflationState,
    deflation_factor,
    deflation_gradient,
)
from deflated_newton.linalg import BandedMatrix
from deflated_newton.obstacle1d import HermiteMesh1D
from deflated_newton.reformulate import (
    NcpFunction,
    NonFiniteResidual,
    assemble_newton_derivative,
    assemble_residual,
)
from deflated_newton.solver import (
    SolveStatus,
    SolverConfig,
    _backtrack,
    plain_derivative,
    solve,
)

FB = NcpFunction.FISCHER_BURMEISTER


def at_z(residual):
    """``residual`` under the point contract, with ``z`` itself as the point."""
    return lambda z: (residual(z), z)


def mcp_callables(problem, kind=FB):
    residual = at_z(lambda z: assemble_residual(problem, z, kind))
    derivative = plain_derivative(lambda z: assemble_newton_derivative(problem, z, kind))
    return residual, derivative


def test_affine_residual_one_iteration():
    c = np.array([2.0, -1.0, 0.25])
    result = solve(at_z(lambda z: z - c), plain_derivative(lambda z: np.eye(3)), np.zeros(3))
    assert result.status is SolveStatus.CONVERGED
    assert result.iterations == 1
    np.testing.assert_allclose(result.solution, c, atol=1e-14)


def test_zero_iterations_at_root():
    c = np.array([1.0])
    result = solve(at_z(lambda z: z - c), plain_derivative(lambda z: np.eye(1)), c.copy())
    assert result.converged and result.iterations == 0
    assert len(result.residual_history) == 1


def test_tiny_nonzero_residual_does_not_read_as_zero():
    # the squares of 2e-170 underflow to 0, so sqrt(r . r) alone would stop
    # this solve at its start, 2 away from the root
    result = solve(
        at_z(lambda z: 1e-170 * (z - 1.0)),
        plain_derivative(lambda z: np.array([[1e-170]])),
        np.array([3.0]),
        SolverConfig(atol=1e-300),
    )
    assert result.residual_history[0] == pytest.approx(2e-170, rel=1e-15, abs=0.0)
    assert result.converged and result.iterations == 1
    assert result.solution[0] == 1.0


def test_kojima_from_published_start():
    prob = problems.build("kojima-shindoh")
    residual, derivative = mcp_callables(prob)
    result = solve(residual, derivative, np.full(4, 0.7))
    assert result.status is SolveStatus.CONVERGED
    assert result.iterations <= 14
    np.testing.assert_allclose(result.solution, [1.0, 0.0, 3.0, 0.0], atol=1e-6)


def test_gould_from_published_start():
    prob = problems.build("gould")
    residual, derivative = mcp_callables(prob)
    result = solve(residual, derivative, np.array([0.2, 0.2, 0.0, 0.0]))
    assert result.status is SolveStatus.CONVERGED
    assert result.iterations <= 10
    np.testing.assert_allclose(result.solution, [0.25, 0.5, 0.0, 0.0], atol=1e-6)


@pytest.mark.parametrize("name", ["kojima-shindoh", "gould"])
def test_complementarity_at_converged_solution(name, kojima_roots, gould_roots):
    prob = problems.build(name)
    roots = kojima_roots if name == "kojima-shindoh" else gould_roots
    for z in roots:
        value = prob.residual(z)
        assert (z >= -1e-8).all()
        assert (value >= -1e-8).all()
        assert (np.abs(z * value) <= 1e-8).all()


def test_residual_history_length_invariant():
    prob = problems.build("kojima-shindoh")
    residual, derivative = mcp_callables(prob)
    for z0 in (np.full(4, 0.7), np.full(4, 5.0), np.zeros(4)):
        result = solve(residual, derivative, z0)
        assert len(result.residual_history) == result.iterations + 1


def test_deterministic_iteration_history():
    prob = problems.build("kojima-shindoh")
    residual, derivative = mcp_callables(prob)
    first = solve(residual, derivative, np.full(4, 0.7))
    second = solve(residual, derivative, np.full(4, 0.7))
    assert first.residual_history == second.residual_history
    assert (first.solution == second.solution).all()


def test_backtracking_merit_nonincreasing():
    prob = problems.build("gerard")
    config = SolverConfig(line_search=True, least_squares_fallback=True)
    residual, derivative = mcp_callables(prob, NcpFunction.MIN_MAX)
    result = solve(residual, derivative, np.zeros(10), config)
    assert result.status is SolveStatus.CONVERGED
    merits = [0.5 * r * r for r in result.residual_history]
    assert all(b <= a + 1e-15 for a, b in zip(merits, merits[1:]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_backtracking_rejects_a_nonfinite_trial_residual(bad):
    # F(x) = x from z with the Newton step -z: the full step's residual holds
    # a non-finite entry, so its merit fails the Armijo test, and the first
    # halving is accepted
    z, step = np.array([1.0, -2.0]), np.array([-1.0, 2.0])
    seen = []

    def residual(trial):
        seen.append(trial)
        value = np.array([bad, 0.0]) if len(seen) == 1 else trial.copy()
        return value, ("point", len(seen))

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        trial, r_trial, point = _backtrack(residual, z, step, math.sqrt(5.0))
    assert len(seen) == 2
    assert trial.tobytes() == (z + 0.5 * step).tobytes()
    assert r_trial.tobytes() == trial.tobytes()
    assert point == ("point", 2)


def test_divergence_on_blowup():
    blow = solve(
        at_z(lambda z: np.array([z[0] ** 3 + 1e12])),
        plain_derivative(lambda z: np.array([[3.0 * z[0] ** 2]])),
        np.array([1e-3]),
    )
    assert blow.status is SolveStatus.DIVERGED


def test_nan_residual_becomes_diverged():
    def residual(z):
        return np.array([np.nan if z[0] > 0.5 else z[0] - 1.0])

    result = solve(at_z(residual), plain_derivative(lambda z: np.eye(1)), np.array([0.0]))
    assert result.status is SolveStatus.DIVERGED


def raising_from(call, error):
    """F(z) = z under the point contract, raising ``error`` from its
    ``call``-th call on."""
    calls = []

    def residual(z):
        calls.append(z)
        if len(calls) >= call:
            raise error("scripted failure")
        return z, z

    return residual


@pytest.mark.parametrize(
    "make_residual, matrix",
    [
        # lu_factor refuses a NaN entry
        (lambda: at_z(lambda z: z), np.array([[np.nan]])),
        # a subnormal pivot passes the relative pivot test, and 1 / 1e-310
        # overflows in the back-substitution
        (lambda: at_z(lambda z: z), np.array([[1e-310]])),
        # an undamped step whose residual raises
        (lambda: raising_from(2, NonFiniteResidual), np.eye(1)),
    ],
    ids=["nonfinite-matrix", "nonfinite-step", "nonfinite-trial-residual"],
)
def test_diverged_exits(make_residual, matrix):
    result = solve(make_residual(), plain_derivative(lambda z: matrix), np.ones(1))
    assert result.status is SolveStatus.DIVERGED
    assert result.iterations == 0
    assert result.residual_history == [1.0]


def test_singular_jacobian_status():
    result = solve(
        at_z(lambda z: np.array([1.0, z[1]])),
        plain_derivative(lambda z: np.array([[0.0, 0.0], [0.0, 1.0]])),
        np.array([1.0, 1.0]),
    )
    assert result.status is SolveStatus.SINGULAR_JACOBIAN


def test_singular_least_squares_fallback():
    # minimum-norm steps ignore the dead component and solve the live one
    config = SolverConfig(least_squares_fallback=True, max_iter=10)
    result = solve(
        at_z(lambda z: np.array([0.0, z[1] - 2.0])),
        plain_derivative(lambda z: np.array([[0.0, 0.0], [0.0, 1.0]])),
        np.array([1.0, 0.0]),
        config,
    )
    assert result.status is SolveStatus.CONVERGED
    assert result.solution[1] == pytest.approx(2.0)


def test_least_squares_fallback_on_a_banded_matrix_matches_its_dense_copy():
    # a singular tridiagonal matrix, row 3 all zero, and a right-hand side
    # in its range; the fallback takes the minimum-norm step from to_dense()
    n = 6
    dense = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    dense[3] = 0.0
    banded = BandedMatrix.zeros(n, 1)
    for i in range(n):
        for j in range(max(0, i - 1), min(n, i + 2)):
            banded.data[1 + i - j, j] = dense[i, j]
    np.testing.assert_array_equal(banded.to_dense(), dense)
    rhs = dense @ np.linspace(1.0, 2.0, n)
    residual = at_z(lambda z: dense @ z - rhs)
    results = [
        solve(residual, plain_derivative(lambda z, m=matrix: m), np.zeros(n),
              SolverConfig(least_squares_fallback=True))
        for matrix in (banded, dense)
    ]
    assert results[0].status is results[1].status is SolveStatus.CONVERGED
    assert results[0].iterations == results[1].iterations
    assert results[0].solution.tobytes() == results[1].solution.tobytes()
    without = solve(residual, plain_derivative(lambda z: banded), np.zeros(n))
    assert without.status is SolveStatus.SINGULAR_JACOBIAN


def test_line_search_failed_on_stationary_merit():
    # constant residual: no step length can decrease the merit
    config = SolverConfig(line_search=True)
    result = solve(
        at_z(lambda z: np.array([1.0])),
        plain_derivative(lambda z: np.array([[1.0]])),
        np.array([0.0]),
        config,
    )
    assert result.status is SolveStatus.LINE_SEARCH_FAILED


def test_max_iterations_status():
    prob = problems.build("kojima-shindoh")
    residual, derivative = mcp_callables(prob)
    result = solve(residual, derivative, np.full(4, 0.7), SolverConfig(max_iter=2))
    assert result.status is SolveStatus.MAX_ITERATIONS
    assert result.iterations == 2


def test_deflated_root_hit_at_start():
    state = DeflationState()
    root = np.array([1.0, 2.0])
    state.add_root(root)

    def residual(z):
        return deflation_factor(state, z) * (z - root)

    result = solve(at_z(residual), plain_derivative(lambda z: np.eye(2)), root.copy())
    assert result.status is SolveStatus.DEFLATED_ROOT_HIT


def test_deflated_root_hit_mid_iteration():
    state = DeflationState()
    state.add_root(np.zeros(1))

    calls = {"n": 0}

    def residual(z):
        calls["n"] += 1
        if calls["n"] > 1:
            raise AtDeflatedRoot("stepped onto the root")
        return np.array([1.0])

    result = solve(at_z(residual), plain_derivative(lambda z: np.eye(1)), np.array([1.0]))
    assert result.status is SolveStatus.DEFLATED_ROOT_HIT
    assert len(result.residual_history) == result.iterations + 1


IDENTITY = at_z(lambda z: z)

# Newton matrices for F(z) = z in the plane, by the step each one takes
QUARTER_TURN = np.array([[0.0, -1.0], [1.0, 0.0]])
STEP_MATRICES = {
    "r": np.linalg.inv(np.eye(2) - QUARTER_TURN),  # z -> quarter turn of z, same norm
    "q": np.eye(2) / 0.75,  # z -> z / 4
    "s": np.eye(2) / 0.01,  # z -> 0.99 z
    "n": np.eye(2),  # z -> 0, the root
}


def scripted_derivative(script):
    """Derivative whose k-th call returns the matrix of the k-th script letter."""
    steps = iter(script)
    return lambda point: (1.0, STEP_MATRICES[next(steps)], None)


@pytest.mark.parametrize("window", [1, 5, 25])
def test_stall_window_stops_a_solve_that_never_halves(window):
    z0 = np.array([1.0, 0.5])
    script = "r" * (window + 10)
    result = solve(IDENTITY, scripted_derivative(script), z0, SolverConfig(stall_window=window))
    assert result.status is SolveStatus.STALLED
    assert result.iterations == window
    history = result.residual_history
    assert len(history) == window + 1 and min(history) > 0.5 * history[0]
    # without a window the same solve runs to the iteration cap
    capped = SolverConfig(max_iter=window + 10)
    result = solve(IDENTITY, scripted_derivative(script), z0, capped)
    assert result.status is SolveStatus.MAX_ITERATIONS


@pytest.mark.parametrize(
    "script, status, iterations",
    [
        ("r" * 9 + "n", SolveStatus.CONVERGED, 10),
        # the quartering step moves the best residual, so the count restarts
        ("r" * 9 + "q" + "r" * 9 + "n", SolveStatus.CONVERGED, 20),
        ("r" * 10 + "n", SolveStatus.STALLED, 10),
        # a steady decrease that never halves the best residual is no progress
        ("s" * 10 + "n", SolveStatus.STALLED, 10),
    ],
)
def test_stall_window_counts_iterations_since_the_last_halving(script, status, iterations):
    z0 = np.array([1.0, 0.5])
    result = solve(IDENTITY, scripted_derivative(script), z0, SolverConfig(stall_window=10))
    assert result.status is status and result.iterations == iterations
    if status is SolveStatus.CONVERGED:
        unbounded = solve(IDENTITY, scripted_derivative(script), z0, SolverConfig())
        assert unbounded.status is status and unbounded.iterations == iterations
        np.testing.assert_array_equal(unbounded.solution, result.solution)
        assert unbounded.residual_history == result.residual_history


@pytest.mark.parametrize("n", [1, 2])
def test_stall_window_counts_the_undeflated_residual(n):
    # next to a deflated root of F(z) = z - r, each deflated Newton step
    # doubles the distance from r: ||F|| doubles while ||G|| = alpha ||F||
    # halves, so the window must see no progress at all
    r = np.arange(1.0, n + 1.0)
    system = DeflatedSystem(DeflationState(roots=[r]), lambda z: (z - r, z), lambda z: np.eye(len(z)))
    result = solve(system.residual, system.derivative, r + 1e-6, SolverConfig(stall_window=5))
    assert result.status is SolveStatus.STALLED
    assert result.iterations == 5
    history = result.residual_history
    assert all(later < earlier for earlier, later in zip(history, history[1:]))


# Newton matrices for F(z) = z whose iterates are exact: "h" halves z, "d"
# doubles it, "n" lands on the root and "0" is singular
EXACT_STEPS = {"h": 2.0 * np.eye(2), "d": -np.eye(2), "n": np.eye(2), "0": np.zeros((2, 2))}


@pytest.mark.parametrize(
    "script, settings, fails_from, status, iterations, factor",
    [
        ("hn", {}, None, SolveStatus.CONVERGED, 2, 0.0),
        ("hhh", {"max_iter": 3}, None, SolveStatus.MAX_ITERATIONS, 3, 0.125),
        ("h0", {}, None, SolveStatus.SINGULAR_JACOBIAN, 1, 0.5),
        ("hdd", {"divergence_tol": 1.5}, None, SolveStatus.DIVERGED, 3, 2.0),
        ("hh", {}, (3, NonFiniteResidual), SolveStatus.DIVERGED, 1, 0.5),
        ("", {}, (1, NonFiniteResidual), SolveStatus.DIVERGED, 0, 1.0),
        ("hh", {}, (3, AtDeflatedRoot), SolveStatus.DEFLATED_ROOT_HIT, 1, 0.5),
        ("", {}, (1, AtDeflatedRoot), SolveStatus.DEFLATED_ROOT_HIT, 0, 1.0),
        ("hd", {"line_search": True}, None, SolveStatus.LINE_SEARCH_FAILED, 1, 0.5),
        # the stall test reads the derivative of the iterate it stops at
        ("ddd", {"stall_window": 2}, None, SolveStatus.STALLED, 2, 4.0),
    ],
)
def test_every_status_ends_at_the_last_accepted_iterate(
    script, settings, fails_from, status, iterations, factor
):
    z0 = np.array([1.0, 0.5])
    steps = iter(script)
    residual = IDENTITY if fails_from is None else raising_from(*fails_from)
    derivative = lambda point: (1.0, EXACT_STEPS[next(steps)], None)  # noqa: E731
    result = solve(residual, derivative, z0, SolverConfig(**settings))
    assert result.status is status and result.iterations == iterations
    assert next(steps, None) is None  # every scripted step was taken
    np.testing.assert_array_equal(result.solution, factor * z0)
    if fails_from is not None and fails_from[0] == 1:
        assert result.residual_history == [math.inf]
    else:
        assert len(result.residual_history) == iterations + 1
        solution = result.solution
        assert result.residual_history[-1] == math.sqrt(np.vdot(solution, solution))


@pytest.mark.parametrize("window", [0, -1])
def test_stall_window_validation(window):
    with pytest.raises(ValueError, match="stall_window"):
        SolverConfig(stall_window=window)
    assert SolverConfig(stall_window=1).stall_window == 1


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(atol=0.0)
    for field in ("atol", "divergence_tol"):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                SolverConfig(**{field: value})
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)
    with pytest.raises(ValueError):
        SolverConfig(line_search="cubic")
    # each switch is a bool: a former mode string, truthy or not, is refused
    for field in ("line_search", "least_squares_fallback"):
        for value in ("none", "backtracking", "error", "least-squares", 1, None):
            with pytest.raises(ValueError, match=f"^{field} must be a bool"):
                SolverConfig(**{field: value})


class PointProbe:
    """Residual/derivative pair recording the points ``solve`` hands on.

    ``residual`` returns a new point object per call, ``(z, copy of z,
    residual norm)``; ``derivative`` records every point it receives.
    """

    def __init__(self, residual, jacobian):
        self._residual = residual
        self._jacobian = jacobian
        self.returned = []
        self.received = []

    def residual(self, z):
        value = self._residual(z)
        point = (z, z.copy(), math.sqrt(value @ value))
        self.returned.append(point)
        return value, point

    def derivative(self, point):
        self.received.append(point)
        return 1.0, self._jacobian(point[0]), None

    def check(self, result):
        """Each step got the point residual returned for the iterate it
        starts from, the final iterate none, and no array was modified."""
        assert len(self.received) == result.iterations
        assert [point[2] for point in self.received] == result.residual_history[:-1]
        assert all(any(point is seen for seen in self.returned) for point in self.received)
        assert all(np.array_equal(z, copy) for z, copy, _ in self.returned)


def kojima_probe():
    prob = problems.build("kojima-shindoh")
    return PointProbe(
        lambda z: assemble_residual(prob, z, FB), lambda z: assemble_newton_derivative(prob, z, FB)
    )


def test_derivative_gets_the_point_of_each_step_iterate():
    probe = kojima_probe()
    result = solve(probe.residual, probe.derivative, np.full(4, 0.7))
    assert result.converged and result.iterations > 1
    probe.check(result)
    # undamped, every residual call is an iterate, so step k gets the k-th point
    assert all(got is sent for got, sent in zip(probe.received, probe.returned))


def test_rejected_trial_points_never_reach_derivative():
    # full Newton steps on arctan overshoot from |z| > 1.39: the first trial
    # from z = 3 lands near -9.5 and raises like a deflated root, the second
    # near -3.2 raises the merit, the third is accepted
    raised = []

    def residual(z):
        if z[0] < -5.0:
            raised.append(z[0])
            raise AtDeflatedRoot("trial inside a guard ball")
        return np.arctan(z)

    probe = PointProbe(residual, lambda z: np.array([[1.0 / (1.0 + z[0] ** 2)]]))
    config = SolverConfig(line_search=True)
    result = solve(probe.residual, probe.derivative, np.array([3.0]), config)
    assert result.converged
    assert raised
    rejected = [point for point in probe.returned if point[2] not in result.residual_history]
    assert rejected  # rejected on merit too
    probe.check(result)
    assert not any(point is bad for point in probe.received for bad in rejected)


def least_squares_probe():
    return PointProbe(
        lambda z: np.array([0.0, z[1] - 2.0]), lambda z: np.array([[0.0, 0.0], [0.0, 1.0]])
    )


@pytest.mark.parametrize(
    "make_probe, z0, config, status",
    [
        (kojima_probe, np.full(4, 0.7), SolverConfig(), SolveStatus.CONVERGED),
        (kojima_probe, np.full(4, 0.7), SolverConfig(max_iter=2), SolveStatus.MAX_ITERATIONS),
        (
            least_squares_probe,
            np.array([1.0, 0.0]),
            SolverConfig(least_squares_fallback=True, max_iter=10),
            SolveStatus.CONVERGED,
        ),
    ],
    ids=["converged", "max-iterations", "least-squares"],
)
def test_final_iterate_gets_no_derivative(make_probe, z0, config, status):
    probe = make_probe()
    result = solve(probe.residual, probe.derivative, z0, config)
    assert result.status is status and result.iterations >= 1
    probe.check(result)
    final = probe.returned[-1]
    assert final[2] == result.residual_history[-1]
    assert not any(point is final for point in probe.received)


# Deflated steps, whose Newton matrix alpha H + F grad(alpha)^T has a rank-one
# part, on an affine F(z) = H z - b with one deflated point (p = 2, shift = 1).


def affine_deflated(h, b, deflated_point):
    """``(system, G, alpha H, outer(F, grad alpha))`` at z = 0 for F = H z - b."""
    state = DeflationState(roots=[deflated_point])
    system = DeflatedSystem(state, at_z(lambda z: h @ z - b), lambda z: h)
    z0 = np.zeros(len(b))
    alpha, grad = deflation_factor(state, z0), deflation_gradient(state, z0)
    return system, -alpha * b, alpha * h, np.outer(-b, grad)


def first_step(system, n, **settings):
    """The status of one ``solve`` iteration from z = 0, and the step it took."""
    config = SolverConfig(max_iter=1, **settings)
    result = solve(system.residual, system.derivative, np.zeros(n), config)
    return result, result.solution


def test_deflated_step_solves_the_assembled_matrix_and_scales_the_undeflated_step():
    rng = np.random.RandomState(21)
    h = rng.randn(4, 4) + 4.0 * np.eye(4)
    b = rng.randn(4)
    system, g0, scaled, rank_one = affine_deflated(h, b, rng.randn(4))
    result, step = first_step(system, 4)
    assert result.status is SolveStatus.MAX_ITERATIONS
    np.testing.assert_allclose(step, np.linalg.solve(scaled + rank_one, -g0), rtol=1e-12)
    # tau delta, with delta = -H^-1 F the undeflated Newton step
    z0 = np.zeros(4)
    alpha, grad = deflation_factor(system.state, z0), deflation_gradient(system.state, z0)
    delta = np.linalg.solve(h, b)
    tau = 1.0 / (1.0 - grad @ delta / alpha)
    assert abs(tau - 1.0) > 1e-3  # the rank-one part changes the step
    np.testing.assert_allclose(step, tau * delta, rtol=1e-12)


# H singular: its factorization is refused, though alpha H + F grad^T is not
SINGULAR_H = (np.diag([2.0, 4.0, 0.0]), np.array([1.0, 1.0, 1.0]), np.array([0.5, 0.25, 0.5]))
# H regular, and the deflated point 0.5 e1 from z = 0 with the undeflated step
# delta = (5/16) e1: alpha = 5 and grad alpha = 16 e1, so the denominator
# 1 - grad alpha . delta / alpha is exactly 0 and the assembled matrix singular
ZERO_DENOMINATOR = (
    np.diag([2.0, 4.0, 0.5]), np.array([0.625, 0.0, 0.0]), np.array([0.5, 0.0, 0.0])
)


@pytest.mark.parametrize(
    "case", [SINGULAR_H, ZERO_DENOMINATOR], ids=["singular-h", "zero-denominator"]
)
def test_singular_deflated_step_falls_back_on_the_assembled_matrix(case):
    system, g0, scaled, rank_one = affine_deflated(*case)
    expected = -np.linalg.lstsq(scaled + rank_one, g0, rcond=None)[0]
    without = -np.linalg.lstsq(scaled, g0, rcond=None)[0]
    assert np.linalg.norm(without - expected) > 1e-3 * np.linalg.norm(expected)
    result, step = first_step(system, 3, least_squares_fallback=True)
    assert result.status is SolveStatus.MAX_ITERATIONS and result.iterations == 1
    np.testing.assert_allclose(step, expected, rtol=1e-12, atol=1e-15)
    result, step = first_step(system, 3)
    assert result.status is SolveStatus.SINGULAR_JACOBIAN and result.iterations == 0
    np.testing.assert_array_equal(step, np.zeros(3))


@pytest.mark.parametrize(
    "build",
    [
        lambda: HermiteMesh1D(4.0),
        lambda: ContinuationPlan(0.0, 1.0, 2.5),
        lambda: SolverConfig(max_iter=2.5),
        lambda: SolverConfig(stall_window=2.5),
        lambda: SolverConfig(max_iter=True),
        lambda: HermiteMesh1D(True),
    ],
    ids=["mesh", "plan-steps", "max-iter", "stall-window", "max-iter-bool", "mesh-bool"],
)
def test_a_count_that_is_not_an_integer_is_refused_at_construction(build):
    # a float count would fail later, in assembly or in numpy, and a bool
    # would read as 0 or 1
    with pytest.raises(ValueError, match="must be an integer of at least 1, got (4.0|2.5|True)"):
        build()


def test_numpy_integer_counts_are_accepted():
    assert HermiteMesh1D(np.int64(4)).dofs == 8
    assert SolverConfig(max_iter=np.int32(3), stall_window=np.int64(2)).max_iter == 3
    assert len(ContinuationPlan(0.0, 1.0, np.int64(2)).values()) == 2
