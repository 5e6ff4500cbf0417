"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
"""

import contextlib
import io

import numpy as np

from deflated_newton import continuation, problems
from deflated_newton.cli import main
from deflated_newton.continuation import ContinuationPlan, continue_parameter, deflated_search
from deflated_newton.deflation import DeflationState, deflation_factor, deflation_gradient
from deflated_newton.linalg import lu_factor, solve_rank_one_update
from deflated_newton.obstacle1d import _discretization, beam_solver_config
from deflated_newton.reformulate import (
    NcpFunction,
    assemble_newton_derivative,
    assemble_residual,
)
from deflated_newton.solver import SolveStatus, SolverConfig

FB = NcpFunction.FISCHER_BURMEISTER
SQRT6 = np.sqrt(6.0)

KOJIMA_ROOTS = [np.array([1.0, 0.0, 3.0, 0.0]), np.array([SQRT6 / 2, 0.0, 0.0, 0.5])]
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

PUBLISHED_PAIRS = [
    ("kojima-shindoh", None, KOJIMA_ROOTS[0], [0.0, 31.0, 0.0, 4.0]),
    ("kojima-shindoh", None, KOJIMA_ROOTS[1], [0.0, 2.0 + SQRT6 / 2, 0.0, 0.0]),
    ("gould", None, GOULD_ROOTS[0], [0.0, 0.0, 0.25, 0.25]),
    ("gould", None, GOULD_ROOTS[1], [1.0, 0.0, 1.0, 0.5]),
    ("gould", None, GOULD_ROOTS[2], [0.0, 0.0, 0.0, 3 / 16]),
    ("aggarwal", 1.0, AGGARWAL_ROOTS[0], [2.0, 0.0, 0.0, 0.25]),
    ("aggarwal", 1.0, AGGARWAL_ROOTS[1], [0.0, 0.0, 0.0, 0.0]),
    ("aggarwal", 1.0, AGGARWAL_ROOTS[2], [0.0, 0.25, 2.0, 0.0]),
]

GERARD_PRICES = [(1.2256, 2.0698), (1.2478, 2.1564), (1.2358, 2.1095)]


def gerard_prices(z):
    """The equilibrium price pair (pi1, pi2) of a Gerard solution."""
    return float(z[5]), float(z[6])


def report(number, issues, detail=""):
    if not issues:
        extra = f" - {detail}" if detail else ""
        print(f"\nacceptance criterion {number}: PASS{extra}")
    else:
        print(f"\nacceptance criterion {number}: FAIL - " + "; ".join(issues))
        assert False, f"criterion {number}: " + "; ".join(issues)


def match_as_set(found, expected, tol):
    remaining = list(range(len(found)))
    misses = []
    for target in expected:
        hits = [i for i in remaining if np.abs(np.asarray(found[i]) - target).max() <= tol]
        if hits:
            remaining.remove(hits[0])
        else:
            misses.append(np.array_str(np.asarray(target), precision=6))
    return misses


def test_criterion_1_kojima_shindoh():
    issues = []
    prob = problems.build("kojima-shindoh")
    sols = deflated_search(prob, [np.full(4, 0.7)])
    records = list(sols)
    if len(records) != 2:
        issues.append(f"expected 2 roots, found {len(records)}")
    else:
        for rec, target, cap in zip(records, KOJIMA_ROOTS, (14, 24)):
            if np.abs(rec.z - target).max() > 1e-6:
                issues.append(f"root {np.array_str(rec.z, precision=6)} != {target}")
            if rec.iterations > cap:
                issues.append(f"{rec.iterations} iterations > {cap}")
    unshifted = deflated_search(prob, [np.full(4, 0.7)], deflation=DeflationState(shift=0.0))
    if len(unshifted) != 1:
        issues.append(f"unshifted run found {len(unshifted)} roots, expected 1")
    report(1, issues, "two roots in order, published values, unshifted finds one")


def test_criterion_2_gould():
    issues = []
    sols = deflated_search(problems.build("gould"), [np.array([0.2, 0.2, 0.0, 0.0])])
    records = list(sols)
    if len(records) != 3:
        issues.append(f"expected 3 roots, found {len(records)}")
    else:
        for rec, target, cap in zip(records, GOULD_ROOTS, (10, 14, 20)):
            if np.abs(rec.z - target).max() > 1e-6:
                issues.append(f"root {np.array_str(rec.z, precision=6)} != {target}")
            if rec.iterations > cap:
                issues.append(f"{rec.iterations} iterations > {cap}")
    report(2, issues, "saddle, global minimum, local minimum in discovery order")


def test_criterion_3_aggarwal_continuation(aggarwal_search):
    issues = []
    sols, config, _ = aggarwal_search
    if len(sols) != 3:
        issues.append(f"search at mu=1/1000 found {len(sols)} roots, expected 3")
    else:
        # step 0 repeats the fixture's search, with its config
        plan = ContinuationPlan(start=1e-3, end=1.0, steps=50, config=SolverConfig())
        final = continue_parameter(lambda mu: problems.build("aggarwal", mu=mu), plan,
                                   [problems.get("aggarwal").guess], config=config)
        if len(final) != 3:
            issues.append(f"continuation ended with {len(final)} branches")
        issues += match_as_set(final.vectors(), AGGARWAL_ROOTS, tol=1e-6)
    report(3, issues, "three equilibria tracked over 50 equispaced steps")


def test_criterion_4_gerard_prices(gerard_solutions):
    issues = []
    sols = gerard_solutions
    if len(sols) != 3:
        issues.append(f"expected 3 equilibria, found {len(sols)}")
    else:
        pairs = [gerard_prices(rec.z) for rec in sols]
        issues += match_as_set(
            [np.array(p) for p in pairs], [np.array(p) for p in GERARD_PRICES], tol=1e-3
        )
    report(4, issues, "three market equilibria from the all-zero start")


def _benchmark_root_sets(gerard_solutions):
    yield "kojima-shindoh", FB, KOJIMA_ROOTS
    yield "gould", FB, GOULD_ROOTS
    yield "aggarwal", FB, AGGARWAL_ROOTS
    yield "gerard", NcpFunction.MIN_MAX, [rec.z for rec in gerard_solutions]


def test_criterion_5_no_decay_toward_roots(gerard_solutions):
    """min_k N_k >= 0.1 * median_k N_k with N_k = ||z_k - r||^(p-1) ||alpha(z_k) Phi(z_k)||,
    over 20 points z_k = r + 10^(-k/3) d, k spanning [3, 18], for p = 2 and
    both shifts.

    Near a deflated root alpha(z) behaves like ||z - r||^-p, and at a
    BD-regular root ||Phi(z)|| >= c ||z - r|| (the assumption of the paper's
    proof), so N_k stays bounded away from zero for every p: the deflated
    residual grows at least like ||z - r||^(1-p) and never decays toward the
    root.  For p = 1 N_k is ||alpha Phi|| itself.  Without deflation, or with
    the factor at power 1, N_k shrinks like ||z - r||^p or ||z - r|| over the
    five-decade sample and the ratio falls far below 0.1.
    """
    power = 2.0
    rng = np.random.RandomState(42)
    issues = []
    worst = np.inf
    for name, kind, roots in _benchmark_root_sets(gerard_solutions):
        prob = problems.build(name)
        for root in roots:
            direction = rng.randn(prob.dimension)
            direction /= np.linalg.norm(direction)
            for shift in (1.0, 0.0):
                state = DeflationState(power=power, shift=shift)
                state.add_root(root)
                normalised = []
                for k in np.linspace(3.0, 18.0, 20):
                    z = root + 10.0 ** (-k / 3.0) * direction
                    phi_value = assemble_residual(prob, z, kind)
                    g_norm = np.linalg.norm(deflation_factor(state, z) * phi_value)
                    normalised.append(np.linalg.norm(z - root) ** (power - 1.0) * g_norm)
                ratio = np.min(normalised) / np.median(normalised)
                worst = min(worst, ratio)
                if ratio < 0.1:
                    issues.append(
                        f"{name} shift={shift}: min/median of ||z - r||^(p-1) ||G|| "
                        f"= {ratio:.2e} < 0.1"
                    )
    report(
        5,
        issues,
        f"worst min/median of ||z - r||^(p-1) ||G|| is {worst:.3f} >= 0.1 at p = 2",
    )


def test_criterion_6_derivative_consistency(gerard_solutions):
    issues = []
    rng = np.random.RandomState(7)
    for name, kind, roots in _benchmark_root_sets(gerard_solutions):
        prob = problems.build(name)
        state = DeflationState(power=2.0, shift=1.0)
        for root in roots:
            state.add_root(root)

        def deflated(z):
            return deflation_factor(state, z) * assemble_residual(prob, z, kind)

        def is_kink_free(z):
            value = prob.residual(z)
            for i in range(prob.dimension):
                if not np.isfinite(prob.lower[i]):
                    continue
                a, b = z[i] - prob.lower[i], value[i]
                if kind is FB and np.hypot(a, b) < 1e-3:
                    return False
                if kind is not FB and abs(b - a) < 1e-3:
                    return False
            return True

        checked = 0
        attempts = 0
        worst = 0.0
        while checked < 20 and attempts < 400:
            attempts += 1
            z = rng.uniform(0.2, 1.4, prob.dimension)
            if not is_kink_free(z) or min(np.linalg.norm(z - r) for r in roots) < 1e-2:
                continue
            checked += 1
            scale, w = deflation_factor(state, z), deflation_gradient(state, z)
            jac = assemble_newton_derivative(prob, z, kind)
            assembled = scale * jac + np.outer(deflated(z) / scale, w)
            fd = np.zeros_like(assembled)
            for j in range(prob.dimension):
                h = 1e-7 * (1.0 + abs(z[j]))
                zp, zm = z.copy(), z.copy()
                zp[j] += h
                zm[j] -= h
                fd[:, j] = (deflated(zp) - deflated(zm)) / (2 * h)
            rel = np.linalg.norm(fd - assembled) / np.linalg.norm(assembled)
            worst = max(worst, rel)
        if checked < 20:
            issues.append(f"{name}: only {checked} kink-free sample points")
        if worst > 1e-5:
            issues.append(f"{name}: finite-difference mismatch {worst:.2e} > 1e-5")

    sm_worst = 0.0
    for _ in range(40):
        n = rng.randint(2, 12)
        a = rng.randn(n, n) + 3.0 * np.eye(n)
        scale, w, b = rng.uniform(0.5, 2.0), rng.randn(n), rng.randn(n)
        if abs(1.0 + w @ np.linalg.solve(a, b) / scale**2) < 1e-6:
            continue
        x = solve_rank_one_update(lu_factor(a), scale, w, b)
        expected = np.linalg.solve(scale * a + np.outer(b / scale, w), b)
        sm_worst = max(sm_worst, np.linalg.norm(x - expected) / np.linalg.norm(expected))
    if sm_worst > 1e-10:
        issues.append(f"rank-one solve mismatch {sm_worst:.2e} > 1e-10")
    report(6, issues, "deflated derivative vs differences; rank-one vs dense solve")


def test_criterion_7_beam_path(beam_path, beam_path_subcritical, inactive_branch_reference):
    issues = []
    problem, state, events = beam_path
    disc = _discretization(problem, state.mesh)
    alpha = problem.half_width

    if len(state.solutions) != 3:
        issues.append(f"{len(state.solutions)} solutions at gamma_max, expected 3")
    records = list(state.solutions)

    inactive = [rec for rec in records if disc.active_fraction(rec.z) == 0.0]
    if len(inactive) != 1:
        issues.append(f"{len(inactive)} inactive solutions, expected 1")
    else:
        rec = inactive[0]
        values = disc.mesh.full_vector(rec.z)[0::2]
        if np.abs(values).max() >= alpha:
            issues.append("inactive solution touches the bounds")
        # against the exact solution z* of (2K - 2G) y = f: the exactly evaluated
        # residual within the solver's threshold, and the distance to z* within
        # the forward error a componentwise backward-stable solve can promise
        ref = inactive_branch_reference
        atol = beam_solver_config(disc).atol
        residual = float(np.linalg.norm(ref.residual(rec.z)))
        if residual > atol:
            issues.append(
                f"inactive branch leaves an exact residual {residual:.2e} > solver "
                f"threshold {atol:.2e}"
            )
        gap = float(np.abs(rec.z - ref.solution).max())
        if gap > ref.forward_bound:
            issues.append(
                f"inactive branch is {gap:.2e} from the exact solution z*, above the "
                f"forward bound {ref.forward_bound:.2e} (a plain direct solve is "
                f"{ref.direct_gap:.2e} away)"
            )

    node_values = [disc.mesh.full_vector(rec.z)[0::2] for rec in records]
    if not any(v.min() <= -alpha + 1e-4 for v in node_values):
        issues.append("no solution touches the lower bound")
    if not any(v.max() >= alpha - 1e-4 for v in node_values):
        issues.append("no solution touches the upper bound")

    discoveries = [e for e in events if e.kind == "root-found"]
    if not discoveries or discoveries[0].iterations != 1:
        issues.append("first solve did not converge in exactly 1 iteration")
    caps = (3, 18, 42)  # three times the reference counts (1, 6, 14)
    for ev, cap in zip(discoveries, caps):
        if ev.iterations > cap:
            issues.append(f"discovery took {ev.iterations} iterations > {cap}")

    steps = max(e.step for e in events if e.step is not None)
    if steps != 9:
        issues.append(f"{steps} penalty steps, expected 9")

    _, sub_state, _ = beam_path_subcritical
    if len(sub_state.solutions) != 1:
        issues.append(f"below the buckling load: {len(sub_state.solutions)} solutions")

    report(7, issues, "three equilibria to gamma_max, bound contact, step counts")


def test_criterion_8_mesh_independence(beam_path):
    issues = []
    _, _, events = beam_path
    per_branch = {}
    for ev in events:
        if ev.kind == "branch-resolved":
            elements = int(ev.detail.split("=")[1])
            per_branch.setdefault(ev.branch, []).append((elements, ev.iterations))
    if not per_branch:
        issues.append("no branch re-solve events recorded")
    for branch, rows in per_branch.items():
        coarsest = min(e for e, _ in rows)
        base = max(its for e, its in rows if e == coarsest)
        over = [(e, its) for e, its in rows if its > base + 5]
        if over:
            issues.append(f"branch {branch}: iterations grew with refinement: {over}")
    report(8, issues, "re-solve iteration counts flat across refinement levels")


def test_criterion_9_published_residuals():
    issues = []
    for name, mu, root, expected in PUBLISHED_PAIRS:
        prob = problems.build(name, mu=mu)
        gap = np.abs(prob.residual(np.asarray(root)) - np.asarray(expected)).max()
        if gap > 1e-12:
            issues.append(f"{name} at {root}: residual off by {gap:.2e}")
    report(9, issues, f"{len(PUBLISHED_PAIRS)} published residual evaluations reproduced")


RATE_FLOOR = 1e-13  # a residual norm below it is rounding, not contraction
RATE_BOUND = 1e-2  # linear end games (d_b scaled by 0.9) read 0.03 to 0.17


def last_contraction(history):
    """The last ratio ||G_{k+1}|| / ||G_k|| of a residual history whose
    ||G_k|| lies above :data:`RATE_FLOOR`; None when there is none."""
    ratios = [after / before for before, after in zip(history, history[1:])
              if before > RATE_FLOOR]
    return ratios[-1] if ratios else None


def test_criterion_10_local_superlinear_convergence(monkeypatch):
    # the paper: deflation keeps the local superlinear convergence of
    # semismooth Newton at BD-regular roots, so every converged deflated
    # solve of the MCP searches ends contracting far faster than linearly
    solves, solve = [], continuation.solve

    def recorded(*args, **kwargs):
        result = solve(*args, **kwargs)
        solves.append(result)
        return result

    monkeypatch.setattr(continuation, "solve", recorded)
    issues, worst, count = [], 0.0, 0
    for argv in (["kojima-shindoh"], ["gould"], ["gerard"], ["aggarwal", "--mu", "1e-3"]):
        solves.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["solve", *argv, "--deterministic"]) == 0
        converged = [r for r in solves if r.status is SolveStatus.CONVERGED]
        if not converged:
            issues.append(f"{' '.join(argv)}: no converged solve")
        for i, result in enumerate(converged):
            ratio = last_contraction(result.residual_history)
            if ratio is None or not ratio < RATE_BOUND:
                issues.append(f"{' '.join(argv)} solve {i}: last contraction ratio {ratio}")
            else:
                worst = max(worst, ratio)
        count += len(converged)
    report(10, issues, f"{count} converged deflated solves, last contraction ratio <= {worst:.1e}")
