import math
import warnings

import numpy as np
import pytest
from scipy.linalg import cholesky_banded

from deflated_newton import obstacle1d
from deflated_newton.continuation import AllBranchesLost
from deflated_newton.linalg import lu_factor
from deflated_newton.obstacle1d import (
    GAUSS_POINTS,
    GAUSS_WEIGHTS,
    HALF_BANDWIDTH,
    MAX_ELEMENTS,
    MAX_PENALTY_STEPS,
    STALL_WINDOW,
    BeamDiscretization,
    BeamProblem,
    HermiteMesh1D,
    beam_solver_config,
    final_elements,
    gamma_schedule,
    hermite_basis,
    path_follow,
    prolong,
)
from deflated_newton.obstacle1d import _discretization
from deflated_newton.solver import SolverConfig


def hermite_eval(mesh, y_reduced, points):
    """Evaluate the reduced FE function at arbitrary coordinates."""
    full = np.zeros(mesh.full_dofs)
    full[mesh.free_indices()] = y_reduced
    h = mesh.h
    out = np.empty(len(points))
    for k, x in enumerate(points):
        e = min(int(x / h), mesh.elements - 1)
        xi = np.array([(x - e * h) / h])
        basis, _, _ = hermite_basis(h, xi)
        out[k] = full[2 * e : 2 * e + 4] @ basis[:, 0]
    return out


def test_element_matrices_match_closed_forms():
    problem = BeamProblem(bending_stiffness=2.0, load=3.0, density=1.5, gravity=2.0)
    mesh = HermiteMesh1D(1, length=0.25)
    h = mesh.h
    disc = BeamDiscretization(problem, mesh, reduced=False)
    stiffness, geometric, load, mass = disc.stiffness, disc.geometric, disc.load_vector, disc.mass
    b, p = problem.bending_stiffness, problem.load
    ke = (b / h**3) * np.array(
        [
            [12.0, 6 * h, -12.0, 6 * h],
            [6 * h, 4 * h**2, -6 * h, 2 * h**2],
            [-12.0, -6 * h, 12.0, -6 * h],
            [6 * h, 2 * h**2, -6 * h, 4 * h**2],
        ]
    )
    ge = (p / (30 * h)) * np.array(
        [
            [36.0, 3 * h, -36.0, 3 * h],
            [3 * h, 4 * h**2, -3 * h, -(h**2)],
            [-36.0, -3 * h, 36.0, -3 * h],
            [3 * h, -(h**2), -3 * h, 4 * h**2],
        ]
    )
    me = (h / 420) * np.array(
        [
            [156.0, 22 * h, 54.0, -13 * h],
            [22 * h, 4 * h**2, 13 * h, -3 * h**2],
            [54.0, 13 * h, 156.0, -22 * h],
            [-13 * h, -3 * h**2, -22 * h, 4 * h**2],
        ]
    )
    fe = problem.density * problem.gravity * h * np.array([0.5, h / 12, 0.5, -h / 12])
    np.testing.assert_allclose(stiffness.to_dense(), ke, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(geometric.to_dense(), ge, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(mass.to_dense(), me, rtol=1e-13, atol=1e-16)
    np.testing.assert_allclose(load, fe, rtol=1e-13)


def test_stiffness_positive_definite_on_pinned_space():
    problem = BeamProblem()
    mesh = HermiteMesh1D(16)
    stiffness = BeamDiscretization(problem, mesh).stiffness
    # Cholesky succeeds only for a symmetric positive definite matrix
    cholesky_banded(stiffness.data[: stiffness.hbw + 1], lower=False)


def test_pure_bending_matches_simply_supported_closed_form():
    # with no axial load the equilibrium is the uniform-load simply
    # supported beam with effective rigidity 2B: midspan 5 w L^4 / (768 B)
    problem = BeamProblem(load=0.0)
    mesh = HermiteMesh1D(64)
    disc = BeamDiscretization(problem, mesh)
    y = lu_factor(2.0 * disc.stiffness).solve(disc.load_vector)
    midspan = y[2 * 32 - 1]
    exact = 5.0 / 768.0
    assert abs(midspan - exact) <= 1e-4 * exact


def test_mass_partition_of_unity():
    problem = BeamProblem()
    mesh = HermiteMesh1D(13, length=2.5)
    mass = BeamDiscretization(problem, mesh, reduced=False).mass
    ones = np.zeros(mesh.full_dofs)
    ones[0::2] = 1.0  # value unknowns only
    assert ones @ mass.matvec(ones) == pytest.approx(mesh.length, abs=1e-13)


def test_residual_at_flat_beam_is_minus_load():
    problem = BeamProblem()
    mesh = HermiteMesh1D(32)
    disc = BeamDiscretization(problem, mesh)
    res = disc.residual(50.0, np.zeros(mesh.dofs))
    np.testing.assert_allclose(res, -disc.load_vector, rtol=0, atol=1e-15)


def test_zero_penalty_is_plain_beam_residual():
    problem = BeamProblem()
    mesh = HermiteMesh1D(16)
    disc = BeamDiscretization(problem, mesh)
    rng = np.random.RandomState(0)
    y = rng.randn(mesh.dofs)
    expected = 2.0 * disc.stiffness.matvec(y) - 2.0 * disc.geometric.matvec(y) - disc.load_vector
    np.testing.assert_allclose(disc.residual(0.0, y), expected, atol=1e-12)


def test_residual_is_gradient_of_energy():
    problem = BeamProblem()
    mesh = HermiteMesh1D(8)
    gamma = 75.0
    disc = BeamDiscretization(problem, mesh)
    rng = np.random.RandomState(1)
    for _ in range(4):
        y = rng.randn(mesh.dofs) * 0.5
        res = disc.residual(gamma, y)
        fd = np.zeros_like(y)
        for j in range(y.size):
            h = 1e-6 * (1.0 + abs(y[j]))
            yp, ym = y.copy(), y.copy()
            yp[j] += h
            ym[j] -= h
            fd[j] = (disc.energy(gamma, yp) - disc.energy(gamma, ym)) / (2 * h)
        assert np.linalg.norm(fd - res) <= 1e-5 * max(1.0, np.linalg.norm(res))


def test_derivative_matches_directional_differences():
    problem = BeamProblem()
    mesh = HermiteMesh1D(8)
    gamma = 75.0
    disc = BeamDiscretization(problem, mesh)
    rng = np.random.RandomState(2)
    for _ in range(4):
        y = rng.randn(mesh.dofs) * 0.5
        jac = disc.derivative(gamma, y)
        direction = rng.randn(mesh.dofs)
        h = 1e-7
        fd = (
            disc.residual(gamma, y + h * direction) - disc.residual(gamma, y - h * direction)
        ) / (2 * h)
        assert np.linalg.norm(fd - jac.matvec(direction)) <= 1e-5 * np.linalg.norm(fd)


def test_derivative_without_contact_is_linear_part():
    problem = BeamProblem()
    mesh = HermiteMesh1D(16)
    disc = BeamDiscretization(problem, mesh)
    y = np.zeros(mesh.dofs)
    jac = disc.derivative(1e6, y)
    expected = 2.0 * disc.stiffness - 2.0 * disc.geometric
    np.testing.assert_array_equal(jac.to_dense(), expected.to_dense())


def test_contact_exactly_at_bound_counts_inactive():
    # a flat stretch at exactly +alpha: every quadrature point ties, none active
    problem = BeamProblem()
    mesh = HermiteMesh1D(16)
    y_full = np.zeros(mesh.full_dofs)
    y_full[0::2] = problem.half_width
    y_full[0] = y_full[2 * mesh.elements] = 0.0
    y = y_full[mesh.free_indices()]
    disc = _discretization(problem, mesh)
    interior = slice(2, mesh.elements - 2)
    values = disc.values_at_quadrature(y)[interior]
    assert np.abs(values - problem.half_width).max() <= 1e-15
    jac = disc.derivative(1e6, y)
    linear = 2.0 * disc.stiffness - 2.0 * disc.geometric
    # rows touching only interior elements carry no penalty term
    np.testing.assert_array_equal(
        jac.to_dense()[8 : 2 * mesh.elements - 8], linear.to_dense()[8 : 2 * mesh.elements - 8]
    )


def reference_derivative(disc, gamma, y):
    """Element-by-element assembly: einsum penalty blocks scattered with np.add.at."""
    freemap = np.full(disc.mesh.full_dofs, -1)
    freemap[disc.free] = np.arange(disc.n)
    red = freemap[disc.elem_dofs]
    rows = np.repeat(red[:, :, None], 4, axis=2)
    cols = np.repeat(red[:, None, :], 4, axis=1)
    mask = (rows >= 0) & (cols >= 0)
    yq = disc.values_at_quadrature(y)
    alpha = disc.problem.half_width
    weights = ((yq > alpha) | (yq < -alpha)) * disc.quad_weights
    blocks = np.einsum("eq,aq,bq->eab", weights, disc.basis, disc.basis)
    out = 2.0 * disc.stiffness - 2.0 * disc.geometric
    band_rows = (HALF_BANDWIDTH + rows - cols)[mask]
    np.add.at(out.data, (band_rows, cols[mask]), gamma * blocks[mask])
    return out


@pytest.mark.parametrize("elements", [64, 128, 256, 512, 1024])
def test_derivative_matches_elementwise_assembly(elements):
    mesh = HermiteMesh1D(elements)
    rng = np.random.RandomState(elements)
    y = np.cumsum(rng.randn(mesh.dofs)) / np.sqrt(mesh.dofs)
    yq = BeamDiscretization(BeamProblem(), mesh).values_at_quadrature(y)
    # channel half-widths from none to all points active, plus two that put
    # a quadrature point exactly on +alpha and on -alpha
    widths = list(np.quantile(np.abs(yq), [0.0, 0.3, 0.7, 0.95]) * (1.0 - 1e-9))
    widths += [yq.max(), -yq.min(), 10.0 * np.abs(yq).max()]
    for width in widths:
        disc = BeamDiscretization(BeamProblem(half_width=float(width)), mesh)
        for gamma in (1e1, 1e6):
            expected = reference_derivative(disc, gamma, y)
            got = disc.derivative(gamma, y)
            err = np.abs(got.data - expected.data).max() / np.abs(expected.data).max()
            assert err <= 1e-13, f"width {width}: relative error {err:.2e}"
    # a point on the bound is inactive: widening the channel by a hair
    # changes nothing, narrowing it by a hair activates the point
    for width in (yq.max(), -yq.min()):
        def jac(w):
            return BeamDiscretization(BeamProblem(half_width=float(w)), mesh).derivative(1e6, y)

        on_bound = jac(width).data
        np.testing.assert_array_equal(on_bound, jac(width * (1.0 + 1e-12)).data)
        assert not np.array_equal(on_bound, jac(width * (1.0 - 1e-12)).data)


def test_quadrature_trace_follows_changed_values():
    # residual and derivative share the trace of one point; a point changed
    # in place must not reuse the old trace
    problem = BeamProblem()
    mesh = HermiteMesh1D(16)
    disc = BeamDiscretization(problem, mesh)
    y = np.full(mesh.dofs, 0.5)
    before = disc.derivative(1e3, y).data.copy()
    y[:] = 0.0
    after = disc.derivative(1e3, y)
    linear = 2.0 * disc.stiffness - 2.0 * disc.geometric
    np.testing.assert_array_equal(after.data, linear.data)
    assert not np.array_equal(before, after.data)
    np.testing.assert_array_equal(disc.residual(1e3, y), -disc.load_vector)


def test_prolongation_is_exact():
    problem = BeamProblem()
    mesh = HermiteMesh1D(8)
    rng = np.random.RandomState(3)
    y = rng.randn(mesh.dofs)
    fine = prolong(mesh, y)
    points = np.linspace(0.0, mesh.length, 257)
    coarse_values = hermite_eval(mesh, y, points)
    fine_values = hermite_eval(mesh.refined(), fine, points)
    assert np.abs(coarse_values - fine_values).max() <= 1e-13
    assert problem.length == mesh.length


from fractions import Fraction  # noqa: E402

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402


@st.composite
def coarse_functions(draw):
    """(problem, mesh, reduced unknowns) on a uniform mesh."""
    length = draw(st.sampled_from([1.0, 0.3, 2.5]))
    mesh = HermiteMesh1D(draw(st.integers(1, 40)), length)
    y = draw(arrays(float, mesh.dofs, elements=st.floats(-1e3, 1e3, allow_subnormal=False)))
    return BeamProblem(length=length), mesh, y


def gamma(n: int) -> Fraction:
    """gamma_n = n u / (1 - n u), the classic bound on n roundings, u = 2^-53."""
    u = Fraction(1, 2**53)
    return n * u / (1 - n * u)


def exact_hermite(h: Fraction, xi: Fraction) -> list:
    """The four cubic Hermite shape functions at xi, exactly."""
    return [
        1 - 3 * xi**2 + 2 * xi**3,
        h * (xi - 2 * xi**2 + xi**3),
        3 * xi**2 - 2 * xi**3,
        h * (xi**3 - xi**2),
    ]


def exact_hermite_magnitude(h: Fraction, xi: Fraction) -> list:
    """Each shape function with every monomial taken in absolute value."""
    return [
        1 + 3 * xi**2 + 2 * xi**3,
        h * (xi + 2 * xi**2 + xi**3),
        3 * xi**2 + 2 * xi**3,
        h * (xi**3 + xi**2),
    ]


@settings(max_examples=60, deadline=None)
@given(coarse_functions())
@example((BeamProblem(), HermiteMesh1D(37), np.where(np.arange(74) == 63, 1.0, -1.0)))
def test_prolongation_trace_is_the_coarse_cubic(case):
    """The fine-mesh quadrature trace of the prolonged unknowns is the coarse
    cubic, up to a bound derived from the program's roundings.

    The reference is the coarse cubic evaluated exactly (``Fraction``) at
    each fine quadrature point, taking the stored Gauss points and mesh
    widths as exact; the fine width is exactly half the coarse one.  The
    program computes the trace as one four-term product per point,
    ``F~ . B~``, of the prolonged unknowns ``F~`` and the fine basis ``B~``,
    so ``|F~ . B~ - F . B| <= gamma_4 |F~| |B~| + |F~ - F| |B~| + |F| |B~ - B|``,
    where (with gamma_n = n u / (1 - n u)):

    * ``|B~ - B| <= gamma_5 |B|abs``: each shape function is at most three
      monomials in xi (times h), each reaching the result through at most
      four roundings (``pow`` counted as two); ``|B|abs`` is the shape
      function with every monomial in absolute value;
    * ``|F~ - F| <= D = gamma_5 G + 5 eta``: node unknowns are copied, and a
      midpoint value or slope is a four-term product with coefficients
      (1/2, h/8, 1/2, -h/8) (exact) or (-3/(2h), -1/4, 3/(2h), -1/4) (one
      rounding in 3/(2h)); ``G`` is that product taken in absolute values,
      and each of its four products may underflow by eta = 2^-1075, the
      absolute error of a product rounded to a subnormal;
    * ``|F| <= |F~| + D``;
    * the four products of the trace add at most 5 eta of underflow.

    The bound is summed exactly, so nothing else is assumed.  The pinned
    example broke an earlier fixed bound, ``64 eps max(1, |y|)`` against a
    float reference evaluated at rounded coordinates (66 eps apart); the
    trace is within 1 eps of the exact cubic there, about 0.13 of this
    bound.
    """
    problem, mesh, y = case
    fine = mesh.refined()
    assert 2 * fine.h == mesh.h
    trace = _discretization(problem, fine).values_at_quadrature(prolong(mesh, y))
    fine_full = _discretization(problem, fine).full_vector(prolong(mesh, y))
    basis = _discretization(problem, fine).basis  # (shape function, Gauss point)

    h, h_fine = Fraction(mesh.h), Fraction(fine.h)
    gauss = [Fraction(g) for g in GAUSS_POINTS.tolist()]
    # exact fine basis and its magnitude, and the coarse basis at the fine
    # points of the left (0) and right (1) halves of a coarse element
    exact_basis = [exact_hermite(h_fine, g) for g in gauss]
    magnitude = [exact_hermite_magnitude(h_fine, g) for g in gauss]
    coarse_basis = {
        (half, q): exact_hermite(h, (half + g) / 2) for half in (0, 1) for q, g in enumerate(gauss)
    }
    value_weights = [Fraction(1, 2), h / 8, Fraction(1, 2), h / 8]
    slope_weights = [3 / (2 * h), Fraction(1, 4), 3 / (2 * h), Fraction(1, 4)]

    coarse_full = np.zeros(mesh.full_dofs)
    coarse_full[mesh.free_indices()] = y
    coarse_full = [Fraction(v) for v in coarse_full.tolist()]
    g4, g5, eta = gamma(4), gamma(5), Fraction(1, 2**1075)
    for e_fine in range(fine.elements):
        e, half = divmod(e_fine, 2)
        dofs = coarse_full[2 * e : 2 * e + 4]
        size = [abs(v) for v in dofs]
        # D of the element's unknowns: zero at the copied coarse node
        midpoint = [
            g5 * sum(s * w for s, w in zip(size, value_weights)) + 5 * eta,
            g5 * sum(s * w for s, w in zip(size, slope_weights)) + 5 * eta,
        ]
        deviation = [0, 0, *midpoint] if half == 0 else [*midpoint, 0, 0]
        computed = [abs(Fraction(v)) for v in fine_full[2 * e_fine : 2 * e_fine + 4].tolist()]
        for q in range(4):
            exact = sum(c * b for c, b in zip(dofs, coarse_basis[half, q]))
            b_computed = [abs(Fraction(v)) for v in basis[:, q].tolist()]
            bound = 5 * eta + sum(
                g4 * f * b + d * b + g5 * (f + d) * m
                for f, d, b, m in zip(computed, deviation, b_computed, magnitude[q])
            )
            error = abs(Fraction(trace[e_fine, q].item()) - exact)
            assert error <= bound, (e_fine, q, float(error), float(bound))


def test_gamma_schedule_default_and_custom():
    default = gamma_schedule(10.0, 1e6)
    assert len(default) == 9
    assert default[-1] == 1e6
    ratios = np.diff(np.log(default))
    np.testing.assert_allclose(ratios, ratios[0], rtol=1e-9)
    custom = gamma_schedule(100.0, 1e6, q=10.0)
    assert custom == pytest.approx([1e3, 1e4, 1e5, 1e6])
    with pytest.raises(ValueError):
        gamma_schedule(10.0, 1e6, q=0.5)
    assert gamma_schedule(10.0, 5.0) == []
    assert len(gamma_schedule(10.0, 1e6, q=1.01)) == 1158 < MAX_PENALTY_STEPS


@pytest.mark.parametrize(
    "gamma0, gamma_max, q",
    [
        (0.0, 1e6, None),
        (-1.0, 1e6, None),
        (math.nan, 1e6, None),
        (math.inf, 1e6, None),
        (10.0, math.inf, None),
        (10.0, math.nan, None),
        (10.0, 1e6, math.nan),
        (10.0, 1e6, math.inf),
        # more than MAX_PENALTY_STEPS steps: 11519, 1.15 million, never ending
        (10.0, 1e6, 1.001),
        (10.0, 1e6, 1.00001),
        (10.0, 1e6, math.nextafter(1.0, 2.0)),
    ],
)
def test_invalid_schedule_fails_before_any_solve(gamma0, gamma_max, q):
    with pytest.raises(ValueError):
        gamma_schedule(gamma0, gamma_max, q)
    events = []
    with pytest.raises(ValueError):
        path_follow(BeamProblem(), gamma0=gamma0, gamma_max=gamma_max, q=q, events=events)
    assert events == []


@pytest.mark.parametrize("gamma_max", [1e20, 1e300])
def test_refinement_beyond_the_cap_fails_before_any_mesh(monkeypatch, gamma_max):
    def no_mesh(*args):
        raise AssertionError("a discretization was built")

    monkeypatch.setattr(obstacle1d, "_discretization", no_mesh)
    with pytest.raises(ValueError, match=f"more than {MAX_ELEMENTS} elements"):
        final_elements(HermiteMesh1D(64), 10.0, gamma_max)
    events = []
    with pytest.raises(ValueError, match=f"more than {MAX_ELEMENTS} elements"):
        path_follow(BeamProblem(), gamma_max=gamma_max, events=events)
    assert events == []


def test_final_elements_follows_the_mesh_rule(beam_path):
    problem, state, events = beam_path
    assert final_elements(HermiteMesh1D(64), 10.0, 1e6) == state.mesh.elements == 1024
    # the cap itself is reachable: h = 2^-16 meets h <= 1/sqrt(gamma) at 2^32
    assert final_elements(HermiteMesh1D(64), 10.0, 2.0**32) == MAX_ELEMENTS
    with pytest.raises(ValueError):
        final_elements(HermiteMesh1D(64), 10.0, 2.0**32 * 1.01)
    # only gamma0 counts when the schedule is empty, and only gamma_max otherwise
    assert final_elements(HermiteMesh1D(64), 1e6, 10.0) == 1024
    assert final_elements(HermiteMesh1D(8), 10.0, 1e2) == 16
    for gamma_max, q, mesh in ((1e4, None, 64), (3e5, 10.0, 32), (50.0, None, 8)):
        short = path_follow(BeamProblem(), gamma_max=gamma_max, q=q, initial_elements=mesh)
        assert short.mesh.elements == final_elements(HermiteMesh1D(mesh), 10.0, gamma_max)


@pytest.mark.parametrize(
    "initial_elements, gamma_max, q, assembled, refines",
    [
        # gamma = 1e5 needs 512 elements: three levels in one step, solved on the last
        (64, 1e5, 100.0, [64, 512], [(2, 128), (2, 256), (2, 512)]),
        # gamma0 = 10 needs 4 elements; refining for the initial penalty emits no event
        (1, 1e3, None, [4, 8, 16, 32], [(1, 8), (4, 16), (7, 32)]),
    ],
)
def test_one_assembly_per_solved_mesh(monkeypatch, initial_elements, gamma_max, q, assembled,
                                      refines):
    built = []
    original = obstacle1d._discretization

    def recording(problem, mesh):
        built.append(mesh.elements)
        return original(problem, mesh)

    monkeypatch.setattr(obstacle1d, "_discretization", recording)
    events = []
    path_follow(BeamProblem(), gamma_max=gamma_max, q=q, initial_elements=initial_elements,
                events=events)
    assert built == assembled
    refined = [(ev.step, ev.detail) for ev in events if ev.kind == "refine"]
    assert refined == [(step, f"elements={elements}") for step, elements in refines]


def test_wrong_length_guess_fails_before_any_solve():
    events = []
    with pytest.raises(ValueError, match=r"guess 1 has shape \(64,\); expected length 128"):
        path_follow(BeamProblem(), guesses=[np.zeros(128), np.zeros(64)], events=events)
    # gamma0 = 1e4 refines 64 elements to 128, but guesses have the initial length
    with pytest.raises(ValueError, match=r"guess 0 has shape \(256,\); expected length 128"):
        path_follow(BeamProblem(), guesses=[np.zeros(256)], gamma0=1e4, gamma_max=2e4,
                    events=events)
    assert events == []


def test_guesses_are_prolonged_through_the_initial_refinement():
    events = []
    state = path_follow(BeamProblem(), guesses=[np.zeros(128)], gamma0=1e4, gamma_max=2e4,
                        events=events)
    assert state.mesh.elements == 256
    assert len(state.solutions) > 0
    assert events[0].kind == "deflated-solve"


def test_records_keep_their_metadata_through_refinement(beam_path):
    _, state, events = beam_path
    assert sum(ev.kind == "refine" for ev in events) == 4
    found = sorted((ev.parameter, ev.iterations) for ev in events if ev.kind == "root-found")
    assert sorted((rec.parameter, rec.iterations) for rec in state.solutions) == found
    assert [it for _, it in found] == [1, 8, 11]


def test_nan_guess_ends_as_diverged_solve():
    events = []
    with pytest.raises(AllBranchesLost):
        path_follow(BeamProblem(), guesses=[np.full(128, np.nan)], gamma_max=1e3, events=events)
    assert [(ev.kind, ev.status) for ev in events] == [("deflated-solve", "diverged")]


def test_beam_solver_config_stall_window():
    disc = _discretization(BeamProblem(), HermiteMesh1D(64))
    assert SolverConfig().stall_window is None
    assert beam_solver_config(disc).stall_window == STALL_WINDOW
    assert beam_solver_config(disc, SolverConfig(stall_window=7)).stall_window == 7


def test_stall_window_keeps_the_short_path_roots():
    # a window as long as the iteration cap never fires before the cap does
    never = SolverConfig(stall_window=SolverConfig().max_iter)
    with_window, without = [], []
    on = path_follow(BeamProblem(), gamma_max=1e4, events=with_window)
    off = path_follow(BeamProblem(), gamma_max=1e4, config=never, events=without)
    assert [ev for ev in with_window if ev.status == "stalled"]
    assert not [ev for ev in without if ev.status == "stalled"]
    assert len(on.solutions) == len(off.solutions) == 3
    # every equilibrium is kept; a root found at the same penalty both ways
    # is the same double precision vector (on this schedule one deflated
    # solve at gamma = 21.5 goes 48 iterations without halving its best
    # residual before it converges, so the window finds that root a step
    # later)
    for rec in off.solutions:
        assert not on.solutions.is_distinct(rec.z)
    same_history = [
        (a.z, b.z) for a, b in zip(on.solutions, off.solutions) if a.parameter == b.parameter
    ]
    assert len(same_history) >= 2
    for a, b in same_history:
        np.testing.assert_array_equal(a, b)
    iterations = lambda events: sum(  # noqa: E731
        ev.iterations for ev in events if ev.kind == "deflated-solve"
    )
    assert 2 * iterations(with_window) < iterations(without)


def test_path_finds_three_equilibria(beam_path):
    problem, state, events = beam_path
    assert len(state.solutions) == 3
    assert state.gamma == 1e6
    disc = _discretization(problem, state.mesh)
    fractions = sorted(disc.active_fraction(rec.z) for rec in state.solutions)
    assert fractions[0] == 0.0
    assert fractions[1] > 0.0 and fractions[2] > 0.0


def test_mesh_rule_enforced(beam_path):
    problem, state, events = beam_path
    assert state.mesh.h <= 1.0 / math.sqrt(state.gamma)
    # every re-solve happened on a mesh satisfying h <= 1/sqrt(gamma)
    for ev in events:
        if ev.kind == "branch-resolved":
            elements = int(ev.detail.split("=")[1])
            assert problem.length / elements <= (1.0 + 1e-12) / math.sqrt(ev.parameter)


def test_branch_resolved_events_name_the_current_mesh(beam_path):
    _, state, events = beam_path
    elements = 64  # h = 1/64 already meets the rule at gamma0 = 10
    resolved = 0
    for ev in events:
        if ev.kind == "refine":
            elements = int(ev.detail.split("=")[1])
        elif ev.kind == "branch-resolved":
            assert ev.detail == f"elements={elements}"
            resolved += 1
    assert elements == state.mesh.elements
    assert resolved >= 3 * len(state.solutions)


def test_violation_bound_invariant(beam_path):
    """Each contact zone at the final penalty violates the bound by at most
    the point-contact penetration of the quadratic penalty, to 2 %.

    Near an isolated contact the beam is a parabola of curvature kappa that
    overshoots the bound by delta, and the penalty force density
    gamma (|y| - alpha)_+ integrates to
    F = gamma (4 sqrt(2) / 3) delta^(3/2) / sqrt(kappa),
    so delta = (3 F sqrt(kappa) / (4 sqrt(2) gamma))^(2/3), which falls like
    gamma^(-2/3) and does not depend on the mesh.  F is taken from the elastic
    residual f - (2K - 2G) y summed over the value unknowns of the zone (the
    value shape functions sum to one), independently of the penalty code, and
    kappa = |y''| at the zone's deepest quadrature point.  A penalty that
    acts too weakly for the force it must carry, at the wrong scale or at
    the wrong points, lets the beam overshoot this law: half the penalty
    gives 2^(2/3) = 1.59 times delta.
    """
    problem, state, _ = beam_path
    disc = _discretization(problem, state.mesh)
    alpha, gamma = problem.half_width, state.gamma
    linear = 2.0 * disc.stiffness - 2.0 * disc.geometric
    zones, failed = [], False
    for rec in state.solutions:
        depth = np.abs(disc.values_at_quadrature(rec.z)).ravel() - alpha
        active = np.flatnonzero(depth > 0.0)
        if active.size == 0:
            continue
        curvature = (disc.full_vector(rec.z)[disc.elem_dofs] @ disc.basis_d2).ravel()
        elastic = disc.full_vector(disc.load_vector - linear.matvec(rec.z))[0::2]
        for zone in np.split(active, np.flatnonzero(np.diff(active) > 1) + 1):
            first, last = zone[0] // 4, zone[-1] // 4  # elements, 4 points each
            force = abs(float(elastic[first : last + 2].sum()))
            deepest = zone[np.argmax(depth[zone])]
            kappa = abs(float(curvature[deepest]))
            delta = (3.0 * force * math.sqrt(kappa) / (4.0 * math.sqrt(2.0) * gamma)) ** (2 / 3)
            violation = float(depth[deepest])
            failed |= violation > 1.02 * delta
            zones.append(
                f"elements {first}-{last}: F = {force:.6f}, kappa = {kappa:.4f}, "
                f"delta = {delta:.4e}, violation = {violation:.4e}, ratio {violation / delta:.5f}"
            )
    assert zones, "no contact zone at the final penalty"
    assert not failed, (
        f"violation above 1.02 x the point-contact penetration at gamma = {gamma:.0e}: "
        + "; ".join(zones)
    )


def test_inactive_branch_matches_unconstrained_invariant(beam_path, inactive_branch_reference):
    """The contact-free equilibrium solves the unconstrained system (2K - 2G) y = f.

    The reference z* is that system's exact solution (iterative refinement
    with exactly evaluated residuals).  The equilibrium must (i) leave an
    exactly evaluated residual ||f - A y||_2 within the solver's acceptance
    threshold ``beam_solver_config(disc).atol``, and (ii) lie within
    eps || |A^-1| (|A| |z*| + |f|) ||_inf of z*, the forward error a
    componentwise backward-stable solve can promise.  At 1024 elements
    cond_2(A) is about 1.1e14 (one negative eigenvalue, the smallest
    |eigenvalue| near 1e-3), so the bound is near 1e-3; a buckling-mode
    error of that size fails (ii) while its residual still passes (i).
    """
    problem, state, _ = beam_path
    ref = inactive_branch_reference
    disc = _discretization(problem, state.mesh)
    inactive = [rec for rec in state.solutions if disc.active_fraction(rec.z) == 0.0]
    assert len(inactive) == 1
    y = inactive[0].z
    atol = beam_solver_config(disc).atol
    residual = float(np.linalg.norm(ref.residual(y)))
    assert residual <= atol, (
        f"exact residual of the inactive branch {residual:.3e} exceeds the solver "
        f"threshold {atol:.3e}"
    )
    gap = float(np.abs(y - ref.solution).max())
    assert gap <= ref.forward_bound, (
        f"inactive branch is {gap:.3e} from the exact solution z*, above the forward "
        f"bound {ref.forward_bound:.3e} (a plain direct solve is {ref.direct_gap:.3e} away)"
    )


def test_violation_decays_with_penalty():
    problem = BeamProblem()
    violations = []
    for gamma_max in (1e4, 1e6):
        state = path_follow(problem, gamma_max=gamma_max)
        disc = _discretization(problem, state.mesh)
        worst = 0.0
        for rec in state.solutions:
            values = disc.values_at_quadrature(rec.z)
            worst = max(worst, float((np.abs(values) - problem.half_width).max()))
        violations.append(worst)
    assert violations[1] < 0.2 * violations[0]


def test_resolve_iterations_mesh_independent(beam_path):
    _, _, events = beam_path
    per_branch = {}
    for ev in events:
        if ev.kind == "branch-resolved":
            elements = int(ev.detail.split("=")[1])
            per_branch.setdefault(ev.branch, []).append((elements, ev.iterations))
    assert per_branch
    for branch, rows in per_branch.items():
        coarsest = min(e for e, _ in rows)
        base = max(its for e, its in rows if e == coarsest)
        assert all(its <= base + 5 for _, its in rows), (branch, rows)


def test_subcritical_load_single_solution(beam_path_subcritical):
    problem, state, _ = beam_path_subcritical
    # the load at the first bifurcation of the unconstrained rod
    buckling_load = problem.bending_stiffness * math.pi**2 / problem.length**2
    assert problem.load < buckling_load
    assert len(state.solutions) == 1
    disc = _discretization(problem, state.mesh)
    assert disc.active_fraction(list(state.solutions)[0].z) == 0.0


def test_path_follow_max_roots():
    state = path_follow(BeamProblem(), gamma_max=1e4, max_roots=1)
    assert len(state.solutions) == 1


def test_banded_solve_matches_dense_on_active_jacobian():
    problem = BeamProblem()
    mesh = HermiteMesh1D(64)
    disc = _discretization(problem, mesh)
    x = mesh.nodes()
    y_full = np.zeros(mesh.full_dofs)
    y_full[0::2] = 0.9 * np.sin(np.pi * x)
    y_full[1::2] = 0.9 * np.pi * np.cos(np.pi * x)
    y = y_full[mesh.free_indices()]
    jac = disc.derivative(1000.0, y)
    assert disc.active_fraction(y) > 0.0
    rng = np.random.RandomState(4)
    b = rng.randn(mesh.dofs)
    x_banded = lu_factor(jac).solve(b)
    x_dense = lu_factor(jac.to_dense()).solve(b)
    assert np.abs(x_banded - x_dense).max() <= 1e-9 * np.abs(x_dense).max()


def test_discovery_is_mesh_independent(beam_path):
    # a finer starting mesh finds the same equilibria at the same cost
    _, coarse_state, _ = beam_path
    state = path_follow(BeamProblem(), initial_elements=128)
    assert len(state.solutions) == 3
    coarse_its = [rec.iterations for rec in coarse_state.solutions]
    fine_its = [rec.iterations for rec in state.solutions]
    assert all(abs(a - b) <= 2 for a, b in zip(fine_its, coarse_its)), (fine_its, coarse_its)


@pytest.mark.parametrize(
    "data",
    [
        {"load": 1e308},
        {"load": 1.5e306},
        {"bending_stiffness": 1e305},
        {"density": 1e308, "gravity": 1e308},
    ],
    ids=["load", "load-assembled", "stiffness", "gravity-load"],
)
def test_overflowing_beam_data_is_a_value_error(data):
    problem, mesh = BeamProblem(**data), HermiteMesh1D(64)
    if data == {"load": 1.5e306}:
        # each element matrix is finite; at an interior node the sum of the
        # two elements' value-value entries is not
        _, d1, _ = hermite_basis(mesh.h, GAUSS_POINTS)
        element = problem.load * (d1 * (GAUSS_WEIGHTS * mesh.h)) @ d1.T
        assert np.isfinite(element).all()
        with np.errstate(over="ignore"):
            assert not np.isfinite(element[0, 0] + element[2, 2])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="overflow"):
            BeamDiscretization(problem, mesh)
        events = []
        with pytest.raises(ValueError, match="overflow"):
            path_follow(problem, gamma_max=100.0, events=events)
    assert events == []


def test_mesh_and_problem_validation():
    with pytest.raises(ValueError):
        HermiteMesh1D(0)
    with pytest.raises(ValueError):
        BeamProblem(bending_stiffness=-1.0)
    for field in ("bending_stiffness", "load", "density", "gravity", "length", "half_width"):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match="must be finite"):
                BeamProblem(**{field: value})
    for length in (math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            HermiteMesh1D(4, length=length)
    mesh = HermiteMesh1D(10, length=2.0)
    assert mesh.h == pytest.approx(0.2)
    assert mesh.dofs == 20
    assert mesh.refined().elements == 20
