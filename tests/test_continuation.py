import dataclasses
import re

import numpy as np
import pytest

from deflated_newton import continuation, problems
from deflated_newton.continuation import (
    AllBranchesLost,
    ContinuationPlan,
    SolutionSet,
    continue_parameter,
    deflated_search,
)
from deflated_newton.deflation import EUCLIDEAN, GUARD, DeflationState
from deflated_newton.reformulate import (
    MixedComplementarityProblem,
    NcpFunction,
    assemble_residual,
)
from deflated_newton.solver import SolverConfig

FB = NcpFunction.FISCHER_BURMEISTER

KOJIMA_ROOTS = [
    np.array([1.0, 0.0, 3.0, 0.0]),
    np.array([np.sqrt(6.0) / 2.0, 0.0, 0.0, 0.5]),
]
GOULD_ROOTS = [
    np.array([0.25, 0.5, 0.0, 0.0]),
    np.array([0.0, 0.5, 0.0, 0.0]),
    np.array([11 / 32, 15 / 32, 1 / 8, 0.0]),
]
AGGARWAL_ROOTS = [
    np.array([0.0, 1 / 20, 1 / 10, 0.0]),
    np.array([1 / 110, 4 / 110, 1 / 110, 4 / 110]),
    np.array([1 / 10, 0.0, 0.0, 1 / 20]),
]


def match_as_set(found, expected, tol):
    """Each expected vector matches exactly one found vector within tol."""
    found = [np.asarray(f, dtype=float) for f in found]
    assert len(found) == len(expected)
    remaining = list(range(len(found)))
    for target in expected:
        hits = [i for i in remaining if np.abs(found[i] - target).max() <= tol]
        assert hits, f"no match for {target}"
        remaining.remove(hits[0])


def test_kojima_two_roots_in_order():
    prob = problems.build("kojima-shindoh")
    events = []
    sols = deflated_search(prob, [np.full(4, 0.7)], events=events)
    assert len(sols) == 2
    records = list(sols)
    np.testing.assert_allclose(records[0].z, KOJIMA_ROOTS[0], atol=1e-6)
    np.testing.assert_allclose(records[1].z, KOJIMA_ROOTS[1], atol=1e-6)
    assert records[0].iterations <= 14
    assert records[1].iterations <= 24


def test_kojima_unshifted_finds_single_root():
    prob = problems.build("kojima-shindoh")
    sols = deflated_search(prob, [np.full(4, 0.7)], deflation=DeflationState(shift=0.0))
    assert len(sols) == 1
    np.testing.assert_allclose(list(sols)[0].z, KOJIMA_ROOTS[0], atol=1e-6)


def test_gould_three_roots_in_order():
    prob = problems.build("gould")
    sols = deflated_search(prob, [np.array([0.2, 0.2, 0.0, 0.0])])
    assert len(sols) == 3
    records = list(sols)
    for record, expected, cap in zip(records, GOULD_ROOTS, (10, 14, 20)):
        np.testing.assert_allclose(record.z, expected, atol=1e-6)
        assert record.iterations <= cap


def test_returned_roots_verify_against_plain_residual():
    prob = problems.build("gould")
    config = SolverConfig()
    sols = deflated_search(prob, [np.array([0.2, 0.2, 0.0, 0.0])], config=config)
    for rec in sols:
        assert np.linalg.norm(assemble_residual(prob, rec.z, FB)) <= config.atol
    vectors = sols.vectors()
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            assert np.linalg.norm(vectors[i] - vectors[j]) > 1e-6


def test_root_list_only_grows(aggarwal_search):
    """Within one search the set of known roots is append-only."""
    _, _, events = aggarwal_search
    found = [e for e in events if e.kind == "root-found"]
    assert len(found) == 3
    solve_events = [e for e in events if e.kind == "deflated-solve"]
    assert len(solve_events) >= len(found)


def test_aggarwal_search_finds_three(aggarwal_search):
    sols, _, _ = aggarwal_search
    assert len(sols) == 3
    # the small-parameter equilibria are the final ones scaled by 1/(1000 mu)
    match_as_set(sols.vectors(), [r * 1000.0 for r in AGGARWAL_ROOTS], tol=1e-5)


def test_aggarwal_continuation_to_unit_parameter(aggarwal_search):
    # step 0 is the search of the fixture, with its config
    _, config, _ = aggarwal_search
    plan = ContinuationPlan(start=1e-3, end=1.0, steps=50, config=SolverConfig())
    final = continue_parameter(
        lambda mu: problems.build("aggarwal", mu=mu), plan,
        [problems.initial_guess("aggarwal")], config=config,
    )
    assert len(final) == 3
    match_as_set(final.vectors(), AGGARWAL_ROOTS, tol=1e-6)
    # branches keep the parameter value at which they were first discovered
    for rec in final:
        assert rec.parameter == pytest.approx(1e-3)


def test_single_step_continuation_is_fixed_point():
    # step 0 finds the roots from themselves, step 1 re-solves them
    plan = ContinuationPlan(start=1.0, end=1.0, steps=1)
    final = continue_parameter(lambda mu: problems.build("aggarwal", mu=mu), plan, AGGARWAL_ROOTS)
    assert len(final) == 3
    match_as_set(final.vectors(), AGGARWAL_ROOTS, tol=1e-9)


def test_all_branches_lost():
    def family(mu):
        # for mu > 0 the only component has no root: z^2 + mu = 0
        return MixedComplementarityProblem(
            dimension=1,
            residual=lambda z: np.array([z[0] ** 2 + mu]),
            derivative=lambda z: np.array([[2.0 * z[0]]]),
            lower=np.array([-np.inf]),
            parameter=mu,
        )

    plan = ContinuationPlan(start=0.0, end=1.0, steps=4)
    with pytest.raises(AllBranchesLost):
        continue_parameter(family, plan, [np.zeros(1)])


def test_branch_step_event_stream():
    """Every kind of branch-step event, in order, on a one-unknown family.

    At mu = 0, F = z (z - 1) (z - 2): step 0 finds the three roots from
    themselves.  At mu = 1, F = z^2 - 1: the branch at 0 has a singular
    Jacobian, the branch at 1 re-solves in place, the branch at 2 converges
    onto 1, and a deflated search from 2 lands on -1 in one step.  At
    mu = 2, F = (z - 1)^2 + 1 has no real root, so both branches are lost,
    and the error carries the set of mu = 1.
    """

    def family(mu):
        if mu == 0.0:
            residual = lambda z: np.array([z[0] * (z[0] - 1.0) * (z[0] - 2.0)])  # noqa: E731
            derivative = lambda z: np.array([[3.0 * z[0] ** 2 - 6.0 * z[0] + 2.0]])  # noqa: E731
        elif mu == 1.0:
            residual = lambda z: np.array([z[0] ** 2 - 1.0])  # noqa: E731
            derivative = lambda z: np.array([[2.0 * z[0]]])  # noqa: E731
        else:
            residual = lambda z: np.array([(z[0] - 1.0) ** 2 + 1.0])  # noqa: E731
            derivative = lambda z: np.array([[2.0 * (z[0] - 1.0)]])  # noqa: E731
        return MixedComplementarityProblem(
            dimension=1, residual=residual, derivative=derivative,
            lower=np.array([-np.inf]), parameter=mu,
        )

    plan = ContinuationPlan(start=0.0, end=2.0, steps=2, config=SolverConfig(max_iter=10))
    events = []
    with pytest.raises(AllBranchesLost, match=r"^all branches failed at parameter 2\.0$") as err:
        continue_parameter(family, plan, [np.array([z]) for z in (0.0, 1.0, 2.0)],
                           config=SolverConfig(max_iter=10), events=events)
    step_0 = [(e.kind, e.step, e.parameter, e.branch, e.status, e.detail) for e in events[:9]]
    assert step_0 == [
        ev
        for branch in range(3)
        for ev in (
            ("deflated-solve", 0, 0.0, branch, "converged", ""),
            ("root-found", 0, 0.0, branch, None, ""),
            ("deflated-solve", 0, 0.0, branch, "deflated-root-hit", ""),
        )
    ]
    assert [(e.kind, e.step, e.parameter, e.branch, e.status, e.detail) for e in events[9:]] == [
        ("branch-lost", 1, 1.0, 0, "singular-jacobian", ""),
        ("branch-resolved", 1, 1.0, 1, None, ""),
        ("branch-collision", 1, 1.0, 2, None, ""),
        ("deflated-solve", 1, 1.0, 0, "singular-jacobian", ""),
        ("deflated-solve", 1, 1.0, 1, "deflated-root-hit", ""),
        ("deflated-solve", 1, 1.0, 2, "converged", ""),
        ("root-found", 1, 1.0, 2, None, ""),
        ("deflated-solve", 1, 1.0, 2, "max-iterations", ""),
        ("branch-lost", 2, 2.0, 0, "singular-jacobian", ""),
        ("branch-lost", 2, 2.0, 1, "max-iterations", ""),
    ]
    # the last step that kept a branch: the re-solved 1 (found at mu = 0)
    # and the newcomer -1
    assert err.value.parameter == 1.0
    assert [(rec.z[0], rec.parameter) for rec in err.value.solutions] == [(1.0, 0.0), (-1.0, 1.0)]


@pytest.mark.parametrize(
    "shift, branches, roots",
    [
        (-1.0, [], [1.0, -1.0]),  # the search from 2 finds 1, then -1 under deflation
        (1.0, [], []),  # z^2 + 1 has no real root: an empty set, not an error
        (1.0, [0.5], None),  # a branch was given and lost
    ],
)
def test_branch_step_without_branches_is_the_search_alone(shift, branches, roots):
    records = [continuation.RootRecord(np.array([z]), 0, 0.0) for z in branches]

    def setup(step, value, known):
        return continuation.ContinuationStep(
            lambda z: (z**2 + shift, z), lambda z: np.array([[2.0 * z[0]]]),
            SolverConfig(max_iter=10), EUCLIDEAN, records, [np.array([2.0])], "",
        )

    step = lambda: continuation.deflated_continuation(  # noqa: E731
        [1.0], setup, DeflationState(), None, None, "parameter"
    )
    if roots is None:
        with pytest.raises(AllBranchesLost, match=r"^all branches failed at parameter 1\.0$"):
            step()
    else:
        found = step()
        assert [rec.z[0] for rec in found] == pytest.approx(roots, abs=1e-9)
        assert [rec.parameter for rec in found] == [1.0] * len(roots)


def test_gerard_roots_satisfy_mixed_complementarity(gerard_solutions):
    prob = problems.build("gerard")
    assert len(gerard_solutions) == 3
    for rec in gerard_solutions:
        z = rec.z
        value = prob.residual(z)
        assert (z[:9] >= -1e-8).all()          # bounded variables stay feasible
        assert (value[:9] >= -1e-8).all()
        assert (np.abs(z[:9] * value[:9]) <= 1e-8).all()
        assert abs(value[9]) <= 1e-9           # free variable: plain equation


def test_max_roots_cap():
    prob = problems.build("gould")
    sols = deflated_search(prob, [np.array([0.2, 0.2, 0.0, 0.0])], max_roots=1)
    assert len(sols) == 1


def test_empty_result_for_hopeless_guess():
    prob = MixedComplementarityProblem(
        dimension=1,
        residual=lambda z: np.array([z[0] ** 2 + 1.0]),
        derivative=lambda z: np.array([[2.0 * z[0]]]),
        lower=np.array([-np.inf]),
    )
    sols = deflated_search(prob, [np.array([3.0])], config=SolverConfig(max_iter=30))
    assert len(sols) == 0


def test_wrong_length_guess_fails_before_any_solve(monkeypatch):
    prob = problems.build("kojima-shindoh")
    calls = []
    monkeypatch.setattr(continuation, "solve", lambda *args: calls.append(args))
    good = problems.initial_guess("kojima-shindoh")
    for guesses, index, shape in (
        ([good, np.zeros(3)], 1, "(3,)"),
        ([np.zeros(5)], 0, "(5,)"),
        ([good, good, np.zeros((4, 1))], 2, "(4, 1)"),
        ([np.float64(0.7)], 0, "()"),
    ):
        events = []
        message = f"guess {index} has shape {re.escape(shape)}; expected length 4"
        with pytest.raises(ValueError, match=message):
            deflated_search(prob, guesses, events=events)
        assert events == [] and calls == []


def test_nan_guess_ends_as_diverged_solve():
    prob = problems.build("kojima-shindoh")
    events = []
    sols = deflated_search(prob, [np.full(4, np.nan)], events=events)
    assert len(sols) == 0
    assert [(ev.kind, ev.status) for ev in events] == [("deflated-solve", "diverged")]


def test_unshifted_search_rejects_a_solve_that_ends_above_atol_in_f():
    # with root 1 of F(z) = z - 1 deflated at shift 0, G = F / |z - 1|^2 =
    # 1 / (z - 1): Newton doubles z - 1 each step, so ||G|| reaches atol
    # far out, where ||F|| = ||G|| / alpha is about 1e10
    events = []
    sols = continuation.deflated_search_callables(
        residual=lambda z: (z - 1.0, z),
        jacobian=lambda z: np.eye(1),
        guesses=[np.array([3.0])],
        deflation=DeflationState(shift=0.0, roots=[np.ones(1)]),
        config=SolverConfig(),
        events=events,
    )
    assert [(ev.kind, ev.status) for ev in events] == [
        ("deflated-solve", "converged"), ("rejected-unverified", None)
    ]
    assert events[0].iterations == 33
    assert len(sols) == 0


def test_root_inside_a_known_roots_radius_is_rejected_as_a_duplicate():
    # roots 0 and 1e-7 of F(z) = 1e7 z (z - 1e-7) are farther apart than the
    # guard but inside one distinctness radius: the deflated solve finds the
    # second, and the set refuses it
    a, b = 0.0, 1e-7
    assert GUARD < b - a < continuation.DISTINCTNESS_TOL
    events = []
    sols = continuation.deflated_search_callables(
        residual=lambda z: (1e7 * (z - a) * (z - b), z),
        jacobian=lambda z: np.array([[1e7 * (2.0 * z[0] - a - b)]]),
        guesses=[np.array([-1.0])],
        deflation=DeflationState(),
        config=SolverConfig(),
        events=events,
    )
    assert [ev.kind for ev in events] == [
        "deflated-solve", "root-found", "deflated-solve", "rejected-duplicate"
    ]
    assert len(sols) == 1


def test_empty_step_zero_ends_the_path_at_plan_start():
    # z^2 + 1 has no real root: step 0 finds nothing and no later value is visited
    visited = []

    def family(mu):
        visited.append(mu)
        return MixedComplementarityProblem(
            dimension=1,
            residual=lambda z: np.array([z[0] ** 2 + 1.0]),
            derivative=lambda z: np.array([[2.0 * z[0]]]),
            lower=np.array([-np.inf]),
            parameter=mu,
        )

    events = []
    plan = ContinuationPlan(start=0.5, end=1.0, steps=4)
    final = continue_parameter(family, plan, [np.array([3.0])],
                               config=SolverConfig(max_iter=30), events=events)
    assert len(final) == 0
    assert visited == [0.5]
    assert [(ev.kind, ev.step, ev.parameter) for ev in events] == [("deflated-solve", 0, 0.5)]


def test_solution_set_rejects_duplicates():
    sols = SolutionSet()
    sols.add(np.array([1.0, 0.0]), iterations=1, parameter=None)
    with pytest.raises(ValueError):
        sols.add(np.array([1.0, 1e-9]), iterations=1, parameter=None)
    assert sols.is_distinct(np.array([2.0, 0.0]))


def test_plan_validation():
    with pytest.raises(ValueError):
        ContinuationPlan(start=0.0, end=1.0, steps=0)
    for start, end in ((np.nan, 1.0), (0.0, np.nan), (0.0, np.inf), (-np.inf, 1.0), (-1e308, 1e308)):
        with pytest.raises(ValueError, match="continuation range must be finite"):
            ContinuationPlan(start=start, end=end, steps=2)
    plan = ContinuationPlan(start=1e-3, end=1.0, steps=50)
    values = plan.values()
    assert len(values) == 50
    assert values[-1] == 1.0
    np.testing.assert_allclose(np.diff(values), np.diff(values)[0])


def test_one_residual_evaluation_per_point(monkeypatch):
    """Residual, deflation and derivative at a point share one F(z)."""
    base = problems.build("kojima-shindoh")
    f_calls = []
    points = []

    def counted_f(z):
        f_calls.append(z)
        return base.residual(z)

    real_solve = continuation.solve

    def counting_solve(residual, derivative, z0, config=None):
        def counted(z):
            points.append(z)
            return residual(z)

        return real_solve(counted, derivative, z0, config)

    monkeypatch.setattr(continuation, "solve", counting_solve)
    problem = dataclasses.replace(base, residual=counted_f)
    sols = deflated_search(problem, [problems.initial_guess("kojima-shindoh")])
    assert len(sols) == 2
    assert len(points) > 0
    assert len(f_calls) == len(points)
