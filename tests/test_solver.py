import math

import numpy as np
import pytest

from deflated_newton import problems
from deflated_newton.deflation import AtDeflatedRoot, DeflationState, deflated_residual
from deflated_newton.reformulate import NcpFunction, assemble_newton_derivative, assemble_residual
from deflated_newton.solver import (
    SolveStatus,
    SolverConfig,
    plain_derivative,
    solve,
)

FB = NcpFunction.FISCHER_BURMEISTER


def mcp_callables(problem, kind=FB):
    residual = lambda z: assemble_residual(problem, z, kind)  # noqa: E731
    derivative = plain_derivative(lambda z: assemble_newton_derivative(problem, z, kind))
    return residual, derivative


def test_affine_residual_one_iteration():
    c = np.array([2.0, -1.0, 0.25])
    result = solve(lambda z: z - c, plain_derivative(lambda z: np.eye(3)), np.zeros(3))
    assert result.status is SolveStatus.CONVERGED
    assert result.iterations == 1
    np.testing.assert_allclose(result.solution, c, atol=1e-14)


def test_zero_iterations_at_root():
    c = np.array([1.0])
    result = solve(lambda z: z - c, plain_derivative(lambda z: np.eye(1)), c.copy())
    assert result.converged and result.iterations == 0
    assert len(result.residual_history) == 1


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
    config = SolverConfig(line_search="backtracking", singular_action="least-squares")
    residual, derivative = mcp_callables(prob, NcpFunction.MIN_MAX)
    result = solve(residual, derivative, np.zeros(10), config)
    assert result.status is SolveStatus.CONVERGED
    merits = [0.5 * r * r for r in result.residual_history]
    assert all(b <= a + 1e-15 for a, b in zip(merits, merits[1:]))


def test_divergence_on_blowup():
    blow = solve(
        lambda z: np.array([z[0] ** 3 + 1e12]),
        plain_derivative(lambda z: np.array([[3.0 * z[0] ** 2]])),
        np.array([1e-3]),
    )
    assert blow.status is SolveStatus.DIVERGED


def test_nan_residual_becomes_diverged():
    def residual(z):
        return np.array([np.nan if z[0] > 0.5 else z[0] - 1.0])

    result = solve(residual, plain_derivative(lambda z: np.eye(1)), np.array([0.0]))
    assert result.status is SolveStatus.DIVERGED


def test_singular_jacobian_status():
    result = solve(
        lambda z: np.array([1.0, z[1]]),
        plain_derivative(lambda z: np.array([[0.0, 0.0], [0.0, 1.0]])),
        np.array([1.0, 1.0]),
    )
    assert result.status is SolveStatus.SINGULAR_JACOBIAN


def test_singular_least_squares_fallback():
    # minimum-norm steps ignore the dead component and solve the live one
    config = SolverConfig(singular_action="least-squares", max_iter=10)
    result = solve(
        lambda z: np.array([0.0, z[1] - 2.0]),
        plain_derivative(lambda z: np.array([[0.0, 0.0], [0.0, 1.0]])),
        np.array([1.0, 0.0]),
        config,
    )
    assert result.status is SolveStatus.CONVERGED
    assert result.solution[1] == pytest.approx(2.0)


def test_line_search_failed_on_stationary_merit():
    # constant residual: no step length can decrease the merit
    config = SolverConfig(line_search="backtracking")
    result = solve(
        lambda z: np.array([1.0]),
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
        return deflated_residual(state, z - root, z)

    result = solve(residual, plain_derivative(lambda z: np.eye(2)), root.copy())
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

    result = solve(residual, plain_derivative(lambda z: np.eye(1)), np.array([1.0]))
    assert result.status is SolveStatus.DEFLATED_ROOT_HIT
    assert len(result.residual_history) == result.iterations + 1


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
    return lambda z: (1.0, STEP_MATRICES[next(steps)], None, None)


@pytest.mark.parametrize("window", [1, 5, 25])
def test_stall_window_stops_a_solve_that_never_halves(window):
    z0 = np.array([1.0, 0.5])
    script = "r" * (window + 10)
    result = solve(lambda z: z, scripted_derivative(script), z0, SolverConfig(stall_window=window))
    assert result.status is SolveStatus.STALLED
    assert result.iterations == window
    history = result.residual_history
    assert len(history) == window + 1 and min(history) > 0.5 * history[0]
    # without a window the same solve runs to the iteration cap
    capped = SolverConfig(max_iter=window + 10)
    result = solve(lambda z: z, scripted_derivative(script), z0, capped)
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
    result = solve(lambda z: z, scripted_derivative(script), z0, SolverConfig(stall_window=10))
    assert result.status is status and result.iterations == iterations
    if status is SolveStatus.CONVERGED:
        unbounded = solve(lambda z: z, scripted_derivative(script), z0, SolverConfig())
        assert unbounded.status is status and unbounded.iterations == iterations
        np.testing.assert_array_equal(unbounded.solution, result.solution)
        assert unbounded.residual_history == result.residual_history


@pytest.mark.parametrize("window", [0, -1])
def test_stall_window_validation(window):
    with pytest.raises(ValueError, match="stall_window"):
        SolverConfig(stall_window=window)
    assert SolverConfig(stall_window=1).stall_window == 1


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(atol=0.0)
    for field in ("atol", "rtol", "divergence_tol"):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                SolverConfig(**{field: value})
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)
    with pytest.raises(ValueError):
        SolverConfig(line_search="cubic")
    with pytest.raises(ValueError):
        SolverConfig(singular_action="pinv")


class CallOrderProbe:
    """Residual/derivative pair recording the call order ``solve`` follows.

    ``derivative`` notes every call whose argument is not the array object
    last passed to ``residual`` with a normal return; every array handed to
    either callable is kept with a copy, to check that none is modified.
    """

    def __init__(self, residual, jacobian):
        self._residual = residual
        self._jacobian = jacobian
        self.last = None
        self.seen = []
        self.residual_calls = 0
        self.derivative_calls = 0
        self.out_of_order = 0

    def residual(self, z):
        self.seen.append((z, z.copy()))
        self.residual_calls += 1
        self.last = None
        value = self._residual(z)
        self.last = z
        return value

    def derivative(self, z):
        self.seen.append((z, z.copy()))
        self.derivative_calls += 1
        if z is not self.last:
            self.out_of_order += 1
        return 1.0, self._jacobian(z), None, None

    def check(self):
        assert self.derivative_calls > 0
        assert self.out_of_order == 0
        assert all(np.array_equal(z, copy) for z, copy in self.seen)


def test_call_order_undamped():
    prob = problems.build("kojima-shindoh")
    probe = CallOrderProbe(
        lambda z: assemble_residual(prob, z, FB), lambda z: assemble_newton_derivative(prob, z, FB)
    )
    result = solve(probe.residual, probe.derivative, np.full(4, 0.7))
    assert result.converged
    probe.check()


def test_call_order_backtracking_with_rejected_trials():
    # full Newton steps on arctan overshoot from |z| > 1.39: the first trial
    # from z = 3 lands near -9.5 and raises like a deflated root, the second
    # near -3.2 raises the merit, the third is accepted
    raised = []

    def residual(z):
        if z[0] < -5.0:
            raised.append(z[0])
            raise AtDeflatedRoot("trial inside a guard ball")
        return np.arctan(z)

    probe = CallOrderProbe(residual, lambda z: np.array([[1.0 / (1.0 + z[0] ** 2)]]))
    config = SolverConfig(line_search="backtracking")
    result = solve(probe.residual, probe.derivative, np.array([3.0]), config)
    assert result.converged
    assert raised
    assert probe.residual_calls > result.iterations + 1 + len(raised)  # rejected on merit too
    probe.check()


def test_call_order_least_squares_fallback():
    probe = CallOrderProbe(
        lambda z: np.array([0.0, z[1] - 2.0]), lambda z: np.array([[0.0, 0.0], [0.0, 1.0]])
    )
    config = SolverConfig(singular_action="least-squares", max_iter=10)
    result = solve(probe.residual, probe.derivative, np.array([1.0, 0.0]), config)
    assert result.converged and result.iterations >= 1
    probe.check()
