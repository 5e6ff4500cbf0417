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
from deflated_newton.deflation import DISTINCTNESS_TOL, GUARD, DeflationState, NormSpec
from deflated_newton.obstacle1d import BeamDiscretization, BeamProblem, HermiteMesh1D
from deflated_newton.reformulate import (
    MixedComplementarityProblem,
    NcpFunction,
    assemble_residual,
)
from deflated_newton.solver import SolverConfig

FB = NcpFunction.FISCHER_BURMEISTER
EUCLIDEAN = NormSpec()

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


def _two_level_setup(step, value, known):
    """Step 0 solves F = z - 1 alone; step 1 solves F = (z - 1)(z - 5) and
    searches on a level with roots 1, 1.05, 2 and 3, lifted by z -> 2z - 1.

    Lifted, the coarse root 3 starts at 5, a new root; 2 starts at 3, where
    the step's Jacobian is singular; 1.05 starts at 1.1, next to the branch.
    """
    config = SolverConfig(max_iter=20)
    if step == 0:
        return continuation.ContinuationStep(
            lambda z: (z - 1.0, z), lambda z: np.eye(1), config, EUCLIDEAN, known,
            [np.array([0.0])], "",
        )
    roots = np.array([1.0, 1.05, 2.0, 3.0])
    level = continuation.SearchLevel(
        lambda z: (np.array([np.prod(z[0] - roots)]), z),
        lambda z: np.array([[sum(np.prod(np.delete(z[0] - roots, i)) for i in range(4))]]),
        config, EUCLIDEAN, lambda z: z, lambda z: 2.0 * z - 1.0,
    )
    return continuation.ContinuationStep(
        lambda z: ((z - 1.0) * (z - 5.0), z), lambda z: np.array([[2.0 * z[0] - 6.0]]), config,
        EUCLIDEAN, known, [np.array([z]) for z in (3.1, 2.05, 1.06)], "", level,
    )


def test_search_level_newcomers_are_kept_only_when_they_lift():
    events = []
    found = continuation.deflated_continuation(
        [0.0, 1.0], _two_level_setup, DeflationState(), None, events, "parameter"
    )
    assert [rec.z[0] for rec in found] == pytest.approx([1.0, 5.0], abs=1e-9)
    assert [(rec.iterations, rec.parameter) for rec in found] == [(1, 0.0), (4, 1.0)]
    # the branch's re-solve on the search level emits nothing; each coarse
    # root's event tells what its lift came to, where the search found it
    assert [(e.kind, e.branch, e.status, e.iterations) for e in events if e.step == 1] == [
        ("branch-resolved", 0, None, 0),
        ("deflated-solve", 0, "deflated-root-hit", 0),
        ("deflated-solve", 1, "converged", 4),
        ("root-found", 1, None, 4),
        ("deflated-solve", 1, "converged", 7),
        ("branch-lost", 1, "singular-jacobian", None),
        ("deflated-solve", 1, "max-iterations", 20),
        ("deflated-solve", 2, "max-iterations", 20),
        ("deflated-solve", 3, "converged", 4),
        ("rejected-duplicate", 3, None, None),
        ("deflated-solve", 3, "max-iterations", 20),
    ]
    assert sum(e.kind == "root-found" for e in events) == len(found)


@pytest.mark.parametrize("max_roots, searches", [(1, 0), (2, 2)])
def test_search_level_stops_at_max_roots(max_roots, searches):
    # one branch is known at step 1: a cap of 1 leaves no room for a search,
    # and a cap of 2 ends it at the first newcomer
    events = []
    found = continuation.deflated_continuation(
        [0.0, 1.0], _two_level_setup, DeflationState(), max_roots, events, "parameter"
    )
    assert len(found) == max_roots
    assert sum(e.kind == "deflated-solve" and e.step == 1 for e in events) == searches


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
        config=SolverConfig(),
        solutions=SolutionSet(DeflationState(shift=0.0, roots=[np.ones(1)])),
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
    assert GUARD < b - a < DISTINCTNESS_TOL
    events = []
    sols = continuation.deflated_search_callables(
        residual=lambda z: (1e7 * (z - a) * (z - b), z),
        jacobian=lambda z: np.array([[1e7 * (2.0 * z[0] - a - b)]]),
        guesses=[np.array([-1.0])],
        config=SolverConfig(),
        solutions=SolutionSet(),
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
    first = sols.add(np.array([1.0, 0.0]), iterations=1, parameter=None)
    assert sols.add(np.array([1.0, 1e-9]), iterations=1, parameter=None) is None
    assert sols.records == [first] and len(sols.deflation.roots) == 1
    second = sols.add(np.array([2.0, 0.0]), iterations=2, parameter=0.5)
    assert sols.records == [first, second]
    assert (second.iterations, second.parameter) == (2, 0.5)


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


def test_search_deflates_the_callers_roots_and_grows_its_state():
    prob = problems.build("kojima-shindoh")
    known = KOJIMA_ROOTS[0]
    state = DeflationState(roots=[known])
    sols = deflated_search(prob, [np.full(4, 0.7)], deflation=state)
    assert sols.deflation is state
    match_as_set(sols.vectors(), KOJIMA_ROOTS[1:], 1e-6)
    assert len(state.roots) == 2
    np.testing.assert_array_equal(state.roots[0], known)
    assert state.roots[1].tobytes() == sols.vectors()[0].tobytes()


def test_continuation_refuses_a_deflation_that_holds_roots(monkeypatch):
    # a continuation deflates only the branches it holds: a root given in
    # the state would be dropped and found again, so it is refused up front
    calls = []
    monkeypatch.setattr(continuation, "solve", lambda *args: calls.append(args))
    state = DeflationState(roots=[KOJIMA_ROOTS[0]])
    plan = ContinuationPlan(start=0.0, end=1.0, steps=2)
    message = r"^a continuation deflates only its own branches; this deflation state holds 1 "
    with pytest.raises(ValueError, match=message):
        continue_parameter(calls.append, plan, [np.full(4, 0.7)], deflation=state)
    assert calls == []
    assert len(state.roots) == 1


from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

# points of a small grid, so that draws repeat, each moved by nothing, by
# less than the guard, by less than the distinctness radius, or clear of it
_grid_points = st.lists(st.sampled_from([-1.0, 0.0, 0.5, 1.0]), min_size=2, max_size=2)
_moves = st.sampled_from([0.0, 1e-12, 1e-8, 1e-3])
_points = st.builds(lambda point, move: np.array(point) + move, _grid_points, _moves)


def _bits(vectors):
    return [v.tobytes() for v in vectors]


# now and then a point of another shape, which only an empty state takes
_wrong_shapes = st.sampled_from([np.zeros(3), np.ones((2, 1)), np.full(1, 0.5)])


def _assert_stacked(state):
    """``state.stacked`` holds the bits of ``np.array(state.roots)``, a row per root."""
    assert len(state.stacked) == len(state.roots)
    assert state.stacked.tobytes() == np.array(state.roots).tobytes()


@settings(max_examples=150, deadline=None)
@given(
    st.lists(_grid_points, max_size=3, unique_by=tuple),
    st.lists(st.one_of(_points, _points, _points, _wrong_shapes), max_size=12),
)
def test_solution_set_holds_the_one_root_list_property(earlier, additions):
    state = DeflationState(roots=[np.array(point) for point in earlier])
    sols = SolutionSet(state)
    before = _bits(state.roots)
    _assert_stacked(state)
    for z in additions:
        roots, vectors = _bits(state.roots), _bits(sols.vectors())
        stacked = state.stacked.tobytes()
        try:
            refused = sols.add(z, iterations=0, parameter=None) is None
        except ValueError:
            refused = True
        _assert_stacked(state)
        if refused:
            # a refused root, duplicate of a member or of an earlier root, or
            # of another shape, changes neither list nor the stacked array
            assert _bits(state.roots) == roots and _bits(sols.vectors()) == vectors
            assert state.stacked.tobytes() == stacked
    assert sols.deflation is state
    assert _bits(state.roots) == before + _bits(sols.vectors())
    assert not any(np.shares_memory(v, r) for v in sols.vectors() for r in state.roots)
    # a copy rebuilds the stacked array from its roots; roots=[] starts empty
    copy = dataclasses.replace(state)
    _assert_stacked(copy)
    assert copy.stacked.tobytes() == state.stacked.tobytes()
    empty = dataclasses.replace(state, roots=[])
    assert empty.roots == [] and empty.stacked.size == 0
    _assert_stacked(empty)
    _assert_stacked(state)


# a few fixed points of the 4-element beam's 8 unknowns, each moved along a
# fixed direction by nothing, by less than the guard, by about the
# distinctness radius or clear of it
_BEAM = BeamDiscretization(BeamProblem(), HermiteMesh1D(4))
_BASES = np.random.default_rng(7).standard_normal((3, _BEAM.n))
_DIRECTIONS = np.random.default_rng(8).standard_normal((2, _BEAM.n))
_near_points = st.builds(
    lambda base, direction, move: _BASES[base] + move * _DIRECTIONS[direction],
    st.integers(0, 2),
    st.integers(0, 1),
    st.sampled_from([0.0, 1e-12, 1e-9, 1e-7, 1e-6, 1e-5, 1e-3, 1.0]),
)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["euclidean", "mass"]),
    st.lists(_near_points, max_size=3),
    st.lists(_near_points, max_size=4),
    _near_points,
)
def test_add_refuses_exactly_the_roots_within_the_distinctness_radius_property(
    norm_name, earlier, members, z
):
    norm = EUCLIDEAN if norm_name == "euclidean" else _BEAM.mass_norm
    state = DeflationState(norm=norm)
    for root in earlier:
        try:
            state.add_root(root)
        except ValueError:  # within the guard of an earlier root
            pass
    sols = SolutionSet(state)
    for member in members:
        try:
            sols.add(member, iterations=0, parameter=None)
        except ValueError:
            pass
    roots, vectors = _bits(state.roots), _bits(sols.vectors())

    # the kernel's distances are the per-root norms, bit for bit
    per_root = [norm.norm(z - r) for r in state.roots]
    assert np.array(norm.distances(z, state.roots)[0]).tobytes() == np.array(per_root).tobytes()

    radius = DISTINCTNESS_TOL * (1.0 + norm.norm(z))
    duplicate = any(norm.norm(z - r) <= radius for r in sols.vectors())
    guarded = any(norm.norm(z - r) <= GUARD for r in state.roots)
    if duplicate:
        assert sols.add(z, iterations=1, parameter=None) is None
    elif guarded:
        with pytest.raises(ValueError, match="coincides with an already deflated root"):
            sols.add(z, iterations=1, parameter=None)
    else:
        record = sols.add(z, iterations=3, parameter=0.25)
        assert record is sols.records[-1]
        assert (record.iterations, record.parameter) == (3, 0.25)
        assert _bits(state.roots) == roots + _bits([z])
        assert _bits(sols.vectors()) == vectors + _bits([z])
        return
    assert _bits(state.roots) == roots and _bits(sols.vectors()) == vectors


_POLY_ROOTS = np.array([-2.0, -1.0, 0.5, 1.5, 3.0])
_POLY = MixedComplementarityProblem(
    dimension=1,
    residual=lambda z: np.array([np.prod(z[0] - _POLY_ROOTS)]),
    derivative=lambda z: np.array(
        [[sum(np.prod(np.delete(z[0] - _POLY_ROOTS, i)) for i in range(_POLY_ROOTS.size))]]
    ),
    lower=np.array([-np.inf]),
)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.sampled_from(list(_POLY_ROOTS)), min_size=1, max_size=4, unique=True),
    st.floats(-3.0, 4.0),
)
def test_search_from_a_rooted_state_returns_none_of_its_roots_property(known, guess):
    state = DeflationState(roots=[np.array([root]) for root in known])
    sols = deflated_search(_POLY, [np.array([guess])], deflation=state,
                           config=SolverConfig(max_iter=50))
    for z in sols.vectors():
        assert np.abs(z[0] - np.array(known)).min() > 1e-3
    assert _bits(state.roots) == _bits(np.array([[root] for root in known])) + _bits(
        sols.vectors()
    )
