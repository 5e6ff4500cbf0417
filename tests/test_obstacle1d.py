import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cholesky_banded

from deflated_newton import continuation, deflation, obstacle1d
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
    gamma_schedule,
    hermite_basis,
    path_follow,
    path_meshes,
    prolong,
    prolong_to,
    restrict,
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
    # three elements: the middle one has all four unknowns free, and each
    # closed form is assembled with the end values pinned, as the program does
    problem = BeamProblem(bending_stiffness=2.0, load=3.0, weight=3.0)
    mesh = HermiteMesh1D(3, length=0.75)
    h = mesh.h
    disc = BeamDiscretization(problem, mesh)
    stiffness, geometric, load, mass = disc.stiffness, disc.geometric, disc.load_vector, disc.mass
    free = mesh.free_indices()

    def assembled(element):
        full = np.zeros((mesh.full_dofs,) * element.ndim)
        for e in range(mesh.elements):
            full[(slice(2 * e, 2 * e + 4),) * element.ndim] += element
        return full[np.ix_(*(free,) * element.ndim)]

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
    fe = problem.weight * h * np.array([0.5, h / 12, 0.5, -h / 12])
    np.testing.assert_allclose(stiffness.to_dense(), assembled(ke), rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(geometric.to_dense(), assembled(ge), rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(mass.to_dense(), assembled(me), rtol=1e-13, atol=1e-16)
    # an inner slope row sums h^2/12 and -h^2/12, which leaves only rounding;
    # the end slope rows hold those terms alone
    rows = [0, 1, 3, 5]
    np.testing.assert_allclose(load[rows], assembled(fe)[rows], rtol=1e-13)


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
    mass = BeamDiscretization(problem, mesh).mass
    # the free value unknowns set to 1 give the function 1 on every element
    # but the two end ones; a node off those has rows (int phi, int psi)
    ones = np.zeros(mesh.dofs)
    ones[1:-1:2] = 1.0  # reduced order: slope 0, then (value, slope) per inner node
    rows = mass.matvec(ones)[3:-3].reshape(-1, 2)
    assert len(rows) == mesh.elements - 3
    np.testing.assert_allclose(rows, [[mesh.h, 0.0]] * len(rows), rtol=0, atol=1e-13)


def test_residual_at_flat_beam_is_minus_load():
    problem = BeamProblem()
    mesh = HermiteMesh1D(32)
    disc = BeamDiscretization(problem, mesh)
    res = disc.residual(50.0, np.zeros(mesh.dofs))[0]
    np.testing.assert_allclose(res, -disc.load_vector, rtol=0, atol=1e-15)


def test_zero_penalty_is_plain_beam_residual():
    problem = BeamProblem()
    mesh = HermiteMesh1D(16)
    disc = BeamDiscretization(problem, mesh)
    rng = np.random.RandomState(0)
    y = rng.randn(mesh.dofs)
    expected = 2.0 * disc.stiffness.matvec(y) - 2.0 * disc.geometric.matvec(y) - disc.load_vector
    np.testing.assert_allclose(disc.residual(0.0, y)[0], expected, atol=1e-12)


def beam_energy(disc, gamma, y):
    """Discrete penalized energy, with the quadrature of the residual."""
    value = y @ disc.stiffness.matvec(y) - y @ disc.geometric.matvec(y) - disc.load_vector @ y
    yq = disc.values_at_quadrature(y)
    alpha = disc.problem.half_width
    overshoot = yq - np.clip(yq, -alpha, alpha)
    return float(value) + 0.5 * gamma * float((overshoot**2 * disc.quad_weights).sum())


def test_residual_is_gradient_of_energy():
    problem = BeamProblem()
    mesh = HermiteMesh1D(8)
    gamma = 75.0
    disc = BeamDiscretization(problem, mesh)
    rng = np.random.RandomState(1)
    for _ in range(4):
        y = rng.randn(mesh.dofs) * 0.5
        res = disc.residual(gamma, y)[0]
        fd = np.zeros_like(y)
        for j in range(y.size):
            h = 1e-6 * (1.0 + abs(y[j]))
            yp, ym = y.copy(), y.copy()
            yp[j] += h
            ym[j] -= h
            fd[j] = (beam_energy(disc, gamma, yp) - beam_energy(disc, gamma, ym)) / (2 * h)
        assert np.linalg.norm(fd - res) <= 1e-5 * max(1.0, np.linalg.norm(res))


def test_derivative_matches_directional_differences():
    problem = BeamProblem()
    mesh = HermiteMesh1D(8)
    gamma = 75.0
    disc = BeamDiscretization(problem, mesh)
    rng = np.random.RandomState(2)
    for _ in range(4):
        y = rng.randn(mesh.dofs) * 0.5
        jac = disc.derivative(gamma, disc.residual(gamma, y)[1])
        direction = rng.randn(mesh.dofs)
        h = 1e-7
        fd = (
            disc.residual(gamma, y + h * direction)[0] - disc.residual(gamma, y - h * direction)[0]
        ) / (2 * h)
        assert np.linalg.norm(fd - jac.matvec(direction)) <= 1e-5 * np.linalg.norm(fd)


def test_derivative_without_contact_is_linear_part():
    problem = BeamProblem()
    mesh = HermiteMesh1D(16)
    disc = BeamDiscretization(problem, mesh)
    y = np.zeros(mesh.dofs)
    jac = disc.derivative(1e6, disc.residual(1e6, y)[1])
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
    jac = disc.derivative(1e6, disc.residual(1e6, y)[1])
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
            got = disc.derivative(gamma, disc.residual(gamma, y)[1])
            err = np.abs(got.data - expected.data).max() / np.abs(expected.data).max()
            assert err <= 1e-13, f"width {width}: relative error {err:.2e}"
    # a point on the bound is inactive: widening the channel by a hair
    # changes nothing, narrowing it by a hair activates the point
    for width in (yq.max(), -yq.min()):
        def jac(w):
            disc = BeamDiscretization(BeamProblem(half_width=float(w)), mesh)
            return disc.derivative(1e6, disc.residual(1e6, y)[1])

        on_bound = jac(width).data
        np.testing.assert_array_equal(on_bound, jac(width * (1.0 + 1e-12)).data)
        assert not np.array_equal(on_bound, jac(width * (1.0 - 1e-12)).data)


def test_quadrature_trace_follows_changed_values():
    # the residual hands its trace to the derivative as the point; a point
    # taken at y must not change when y is changed in place afterwards
    problem = BeamProblem()
    mesh = HermiteMesh1D(16)
    disc = BeamDiscretization(problem, mesh)
    y = np.full(mesh.dofs, 0.5)
    _, point = disc.residual(1e3, y)
    before = disc.derivative(1e3, point).data.copy()
    y[:] = 0.0
    np.testing.assert_array_equal(disc.derivative(1e3, point).data, before)
    value, changed = disc.residual(1e3, y)
    after = disc.derivative(1e3, changed)
    linear = 2.0 * disc.stiffness - 2.0 * disc.geometric
    np.testing.assert_array_equal(after.data, linear.data)
    assert not np.array_equal(before, after.data)
    np.testing.assert_array_equal(value, -disc.load_vector)


def test_discretization_keeps_no_per_point_state():
    # residual and derivative share the trace through the point they pass,
    # not through anything the discretization keeps
    disc = BeamDiscretization(BeamProblem(), HermiteMesh1D(8))
    before = dict(vars(disc))

    def assert_unchanged():
        after = vars(disc)
        assert after.keys() == before.keys()
        assert [key for key in before if after[key] is not before[key]] == []

    rng = np.random.default_rng(5)
    for gamma in (10.0, 1e6, 0.0):
        for y in (np.zeros(disc.n), rng.standard_normal(disc.n), np.full(disc.n, 0.5)):
            result = disc.residual(gamma, y)
            assert_unchanged()
            disc.derivative(gamma, result[1])
            assert_unchanged()


def test_prolongation_is_exact():
    mesh = HermiteMesh1D(8)
    rng = np.random.RandomState(3)
    y = rng.randn(mesh.dofs)
    fine = prolong(mesh, y)
    points = np.linspace(0.0, mesh.length, 257)
    coarse_values = hermite_eval(mesh, y, points)
    fine_values = hermite_eval(mesh.refined(), fine, points)
    assert np.abs(coarse_values - fine_values).max() <= 1e-13


def node_table(mesh, y):
    """Per-node (coordinate, value, slope) table of the reduced unknowns ``y``."""
    full = mesh.full_vector(y)
    return np.column_stack([mesh.nodes(), full[0::2], full[1::2]])


def test_restriction_injects_the_coarse_nodes():
    mesh, fine = HermiteMesh1D(8, 2.5), HermiteMesh1D(64, 2.5)
    y = np.random.RandomState(5).randn(mesh.dofs)
    lifted = prolong_to(mesh, fine, y)
    assert lifted.shape == (fine.dofs,)
    # the coarse nodes keep their (value, slope) pairs through every refinement
    np.testing.assert_array_equal(restrict(fine, mesh, lifted), y)
    np.testing.assert_array_equal(restrict(fine, fine, lifted), lifted)
    np.testing.assert_array_equal(prolong_to(mesh, mesh, y), y)
    # injection reads the nodal pairs of any fine function, not only a prolonged one
    z = np.random.RandomState(6).randn(fine.dofs)
    table = node_table(fine, z)[::8]
    coarse = node_table(mesh, restrict(fine, mesh, z))
    np.testing.assert_array_equal(coarse, table)


def reference_prolong(mesh, y):
    """Prolongation with the midpoint basis tabulated by ``hermite_basis`` and
    the free unknowns picked by ``free_indices``."""
    y_full = np.zeros(mesh.full_dofs)
    y_full[mesh.free_indices()] = y
    mid_n, mid_dn, _ = hermite_basis(mesh.h, np.array([0.5]))
    elems = y_full[2 * np.arange(mesh.elements)[:, None] + np.arange(4)[None, :]]
    fine = mesh.refined()
    fine_full = np.zeros(fine.full_dofs)
    fine_full[0::4], fine_full[1::4] = y_full[0::2], y_full[1::2]
    fine_full[2::4], fine_full[3::4] = elems @ mid_n[:, 0], elems @ mid_dn[:, 0]
    return fine_full[fine.free_indices()]


@pytest.mark.parametrize("elements, length", [(1, 1.0), (2, 0.3), (8, 2.5), (37, 1.0), (512, 1.0)])
def test_mesh_transfers_match_the_index_based_ones_bitwise(elements, length):
    mesh = HermiteMesh1D(elements, length)
    rng = np.random.default_rng(elements)
    y = rng.standard_normal(mesh.dofs) * 10.0 ** rng.integers(-5, 6, mesh.dofs)
    y[::5] = -0.0
    full = np.zeros(mesh.full_dofs)
    full[mesh.free_indices()] = y
    assert mesh.full_vector(y).tobytes() == full.tobytes()
    assert mesh.reduced_vector(full).tobytes() == y.tobytes()
    assert prolong(mesh, y).tobytes() == reference_prolong(mesh, y).tobytes()
    fine = mesh.refined().refined()
    z = rng.standard_normal(fine.dofs)
    nodes = fine.full_vector(z).reshape(-1, 2)[::4].ravel()
    assert restrict(fine, mesh, z).tobytes() == nodes[mesh.free_indices()].tobytes()


@pytest.mark.parametrize("elements", [1, 2, 7])
def test_node_columns_are_the_node_table_of_the_same_floats(elements):
    mesh = HermiteMesh1D(elements, 2.5)
    y = np.random.default_rng(elements).standard_normal(mesh.dofs)
    y[0] = -0.0
    items = y.tolist()
    values, slopes = mesh.node_columns(items)
    table = node_table(mesh, y)
    assert np.array([values, slopes]).T.tobytes() == table[:, 1:].tobytes()
    # every unknown appears once, as the very float object it was given
    assert sorted(map(id, values[1:-1] + slopes)) == sorted(map(id, items))


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
    return BeamProblem(), mesh, y


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
    fine_full = fine.full_vector(prolong(mesh, y))
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
        path_meshes(HermiteMesh1D(64), [10.0] + gamma_schedule(10.0, gamma_max))
    events = []
    with pytest.raises(ValueError, match=f"more than {MAX_ELEMENTS} elements"):
        path_follow(BeamProblem(), gamma_max=gamma_max, events=events)
    assert events == []


def final_elements(elements, gamma0, gamma_max):
    """Element count of the last mesh of the default path from gamma0 to gamma_max."""
    values = [gamma0] + gamma_schedule(gamma0, gamma_max)
    return path_meshes(HermiteMesh1D(elements), values)[-1].elements


def test_path_meshes_follow_the_mesh_rule(beam_path):
    problem, state, events = beam_path
    assert final_elements(64, 10.0, 1e6) == state.mesh.elements == 1024
    # the cap itself is reachable: h = 2^-16 meets h <= 1/sqrt(gamma) at 2^32
    assert final_elements(64, 10.0, 2.0**32) == MAX_ELEMENTS
    with pytest.raises(ValueError):
        final_elements(64, 10.0, 2.0**32 * 1.01)
    # only gamma0 counts when the schedule is empty, and only gamma_max otherwise
    assert final_elements(64, 1e6, 10.0) == 1024
    assert final_elements(8, 10.0, 1e2) == 16
    # an initial mesh over the cap fails even where the rule asks for nothing finer
    with pytest.raises(ValueError, match=f"from {2 * MAX_ELEMENTS} elements to gamma = 10 "):
        path_meshes(HermiteMesh1D(2 * MAX_ELEMENTS), [10.0])
    for gamma_max, q, mesh in ((1e4, None, 64), (3e5, 10.0, 32), (50.0, None, 8)):
        short = path_follow(BeamProblem(), gamma_max=gamma_max, q=q,
                            initial_mesh=HermiteMesh1D(mesh))
        assert short.mesh.elements == final_elements(mesh, 10.0, gamma_max)


def _coarsest(mesh, gamma, slack):
    """Element count of the coarsest refinement of ``mesh`` meeting the rule, uncapped."""
    elements = mesh.elements
    while mesh.length / elements > slack / math.sqrt(gamma):
        elements *= 2
    return elements


@settings(max_examples=300, deadline=None)
@given(
    elements=st.integers(1, 64),
    length=st.sampled_from([0.5, 1.0, 3.0]),
    gamma0=st.floats(-2.0, 6.0).map(lambda e: 10.0**e),
    q=st.floats(1e-3, 2.0).map(lambda e: 10.0**e),
    steps=st.integers(0, 12),
)
def test_path_meshes_are_the_coarsest_meeting_the_rule(elements, length, gamma0, q, steps):
    initial = HermiteMesh1D(elements, length)
    values = [gamma0 * q**k for k in range(steps + 1)]
    slacks = [1.0] + [1.0 + 1e-12] * steps
    # the meshes of a path are nested, so the last is the finest any penalty asks for
    needed = max(_coarsest(initial, g, s) for g, s in zip(values, slacks))
    with mock.patch.object(obstacle1d, "_discretization", side_effect=AssertionError):
        if needed > MAX_ELEMENTS:
            with pytest.raises(ValueError, match=f"from {elements} elements to gamma = "):
                path_meshes(initial, values)
            return
        meshes = path_meshes(initial, values)
    assert len(meshes) == len(values)
    previous = initial
    for mesh, gamma, slack in zip(meshes, values, slacks):
        ratio, rest = divmod(mesh.elements, previous.elements)
        assert mesh.length == length and rest == 0 and ratio & (ratio - 1) == 0
        assert mesh.h <= slack / math.sqrt(gamma)
        if mesh != previous:
            assert 2 * mesh.h > slack / math.sqrt(gamma)
        previous = mesh
    assert meshes[-1].elements == needed


@pytest.mark.parametrize(
    "elements, gamma_max, q, assembled, refines",
    [
        # gamma = 1e5 needs 512 elements: three levels in one step, solved on the last
        (64, 1e5, 100.0, [64, 512], [(2, 128), (2, 256), (2, 512)]),
        # gamma0 = 10 needs 4 elements; refining for the initial penalty emits no event
        (1, 1e3, None, [4, 8, 16, 32], [(1, 8), (4, 16), (7, 32)]),
    ],
)
def test_one_assembly_per_solved_mesh(monkeypatch, elements, gamma_max, q, assembled, refines):
    built = []
    original = obstacle1d._discretization

    def recording(problem, mesh):
        built.append(mesh.elements)
        return original(problem, mesh)

    monkeypatch.setattr(obstacle1d, "_discretization", recording)
    events = []
    path_follow(BeamProblem(), gamma_max=gamma_max, q=q, initial_mesh=HermiteMesh1D(elements),
                events=events)
    assert built == assembled
    refined = [(ev.step, ev.detail) for ev in events if ev.kind == "refine"]
    assert refined == [(step, f"elements={elements}") for step, elements in refines]


def test_one_mass_norm_validation_per_assembled_mesh(monkeypatch):
    # each discretization validates its mass norm (symmetry scan and banded
    # Cholesky) once; the path's steps take it from there
    validated = []
    original = deflation.NormSpec.__post_init__

    def recording(norm):
        if norm.weight is not None:
            validated.append(norm.weight.n)
        original(norm)

    monkeypatch.setattr(deflation.NormSpec, "__post_init__", recording)
    _discretization.cache_clear()
    path_follow(BeamProblem(), gamma_max=1e5, q=100.0)
    assert validated == [128, 1024]  # the unknowns of 64 and 512 elements


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


def _assert_stall_window_keeps_the_roots(gamma_max):
    # a window as long as the iteration cap never fires before the cap does
    never = SolverConfig(stall_window=SolverConfig().max_iter)
    with_window, without = [], []
    on = path_follow(BeamProblem(), gamma_max=gamma_max, events=with_window)
    off = path_follow(BeamProblem(), gamma_max=gamma_max, config=never, events=without)
    assert [ev for ev in with_window if ev.status == "stalled"]
    assert not [ev for ev in without if ev.status == "stalled"]
    assert len(on.solutions) == len(off.solutions) == 3
    # every equilibrium is found at the same penalty both ways, as the same
    # double precision vector: the longest run of a converged deflated solve
    # without halving its best undeflated residual is 19 iterations here at
    # gamma_max = 1e4 and 8 on the default path, below the window of 25
    same_history = [
        (a.z, b.z) for a, b in zip(on.solutions, off.solutions) if a.parameter == b.parameter
    ]
    assert len(same_history) == 3
    for a, b in same_history:
        np.testing.assert_array_equal(a, b)
    iterations = lambda events: sum(  # noqa: E731
        ev.iterations for ev in events if ev.kind == "deflated-solve"
    )
    assert 2 * iterations(with_window) < iterations(without)


def test_stall_window_keeps_the_short_path_roots():
    _assert_stall_window_keeps_the_roots(1e4)


def test_stall_window_keeps_the_default_path_roots():
    _assert_stall_window_keeps_the_roots(1e6)


def test_path_refuses_a_deflation_that_holds_roots(monkeypatch):
    # each step deflates only the branches it holds; a root given in the
    # state is refused before any mesh is assembled
    calls = []
    monkeypatch.setattr(obstacle1d, "_discretization", lambda *args: calls.append(args))
    monkeypatch.setattr(continuation, "solve", lambda *args: calls.append(args))
    state = deflation.DeflationState(roots=[np.zeros(128), np.ones(128)])
    message = r"^a continuation deflates only its own branches; this deflation state holds 2 root"
    with pytest.raises(ValueError, match=message):
        path_follow(BeamProblem(), deflation=state)
    assert calls == []


def test_path_refuses_a_weighted_deflation_norm(monkeypatch):
    # each step measures distances in its own mesh's mass norm, so a norm
    # given in the state would be dropped; it is refused before any assembly
    norm = _discretization(BeamProblem(), HermiteMesh1D(64)).mass_norm
    calls, events = [], []
    monkeypatch.setattr(obstacle1d, "_discretization", lambda *args: calls.append(args))
    monkeypatch.setattr(continuation, "solve", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="mass norm; give a norm without weight"):
        path_follow(BeamProblem(), deflation=deflation.DeflationState(norm=norm), events=events)
    assert calls == [] and events == []


def test_the_initial_mesh_sets_the_beam_length():
    state = path_follow(BeamProblem(), initial_mesh=HermiteMesh1D(8, 2.0), gamma_max=1e3)
    assert state.mesh == HermiteMesh1D(64, 2.0)  # h = 1/32 <= 1/sqrt(1e3)
    assert len(state.solutions) > 0


def test_newcomer_searches_run_on_the_initial_mesh(monkeypatch):
    unknowns = []
    original = continuation.deflated_search_callables

    def recording(residual, jacobian, guesses, *args, **kwargs):
        unknowns.append((kwargs["step"], {len(guess) for guess in guesses}))
        return original(residual, jacobian, guesses, *args, **kwargs)

    monkeypatch.setattr(continuation, "deflated_search_callables", recording)
    events = []
    state = path_follow(BeamProblem(), events=events)
    assert len(state.solutions) == 3
    # one search per step, each from the 128 unknowns of 64 elements,
    # while the branches are re-solved on 64 to 1024 elements
    assert unknowns == [(step, {128}) for step in range(10)]
    meshes = {ev.detail for ev in events if ev.kind == "branch-resolved"}
    assert meshes == {f"elements={m}" for m in (64, 128, 256, 512, 1024)}


# Discovery penalties of the two buckled equilibria along the default
# schedule to each gamma_max: the first and second steps after gamma0 = 10
DISCOVERED_AT = {
    1e3: 16.68, 3e3: 18.85, 1e4: 21.54, 3e4: 24.34, 1e5: 27.83, 3e5: 31.44, 1e6: 35.94,
    1e7: 46.42,
}


@pytest.mark.parametrize("gamma_max", [1e3, 3e3, 1e4, 3e4, 1e5, 3e5, 1e6, 3e6, 1e7])
def test_discovery_penalties_over_the_gamma_max_sweep(gamma_max):
    events = []
    state = path_follow(BeamProblem(), gamma_max=gamma_max, events=events)
    found = [round(rec.parameter, 2) for rec in state.solutions]
    if gamma_max == 3e6:
        # The path loses one buckled equilibrium here (ROADMAP item 2); the
        # change that finds it again must expect three roots, as elsewhere.
        assert found == [10.0, 40.6]
    else:
        assert found == [10.0, DISCOVERED_AT[gamma_max], DISCOVERED_AT[gamma_max]]
    assert sum(ev.kind == "root-found" for ev in events) == len(state.solutions)


def test_a_search_root_that_lifts_onto_a_branch_is_not_found():
    # On 8 elements the search at gamma = 1e6 converges to a root the lift
    # re-solves onto a known branch on 1024 elements: a duplicate, not a root
    events = []
    state = path_follow(BeamProblem(), initial_mesh=HermiteMesh1D(8), events=events)
    assert len(state.solutions) == sum(ev.kind == "root-found" for ev in events) == 3
    rejected = [(ev.step, ev.branch) for ev in events if ev.kind == "rejected-duplicate"]
    assert rejected == [(9, 2)]


def test_path_finds_three_equilibria(beam_path):
    problem, state, events = beam_path
    assert len(state.solutions) == 3
    assert state.gamma == 1e6
    disc = _discretization(problem, state.mesh)
    fractions = sorted(disc.active_fraction(rec.z) for rec in state.solutions)
    assert fractions[0] == 0.0
    assert fractions[1] > 0.0 and fractions[2] > 0.0


def test_mesh_rule_enforced(beam_path):
    _, state, events = beam_path
    assert state.mesh.h <= 1.0 / math.sqrt(state.gamma)
    # every re-solve happened on a mesh satisfying h <= 1/sqrt(gamma)
    for ev in events:
        if ev.kind == "branch-resolved":
            elements = int(ev.detail.split("=")[1])
            assert state.mesh.length / elements <= (1.0 + 1e-12) / math.sqrt(ev.parameter)


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
        curvature = (disc.mesh.full_vector(rec.z)[disc.elem_dofs] @ disc.basis_d2).ravel()
        elastic = disc.mesh.full_vector(disc.load_vector - linear.matvec(rec.z))[0::2]
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
    buckling_load = problem.bending_stiffness * math.pi**2 / state.mesh.length**2
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
    jac = disc.derivative(1000.0, disc.residual(1000.0, y)[1])
    assert disc.active_fraction(y) > 0.0
    rng = np.random.RandomState(4)
    b = rng.randn(mesh.dofs)
    x_banded = lu_factor(jac).solve(b)
    x_dense = lu_factor(jac.to_dense()).solve(b)
    assert np.abs(x_banded - x_dense).max() <= 1e-9 * np.abs(x_dense).max()


def test_discovery_is_mesh_independent(beam_path):
    # a finer starting mesh finds the same equilibria at the same cost
    _, coarse_state, _ = beam_path
    state = path_follow(BeamProblem(), initial_mesh=HermiteMesh1D(128))
    assert len(state.solutions) == 3
    coarse_its = [rec.iterations for rec in coarse_state.solutions]
    fine_its = [rec.iterations for rec in state.solutions]
    assert all(abs(a - b) <= 2 for a, b in zip(fine_its, coarse_its)), (fine_its, coarse_its)


@pytest.mark.parametrize(
    "data, mesh",
    [
        ({"load": 1e308}, HermiteMesh1D(64)),
        ({"load": 1.5e306}, HermiteMesh1D(64)),
        ({"bending_stiffness": 1e305}, HermiteMesh1D(64)),
        # a slope entry of the load is weight * h^2 / 12, past the double range at h = 10
        ({"weight": 1e308}, HermiteMesh1D(1, 10.0)),
    ],
    ids=["load", "load-assembled", "stiffness", "gravity-load"],
)
def test_overflowing_beam_data_is_a_value_error(data, mesh):
    problem = BeamProblem(**data)
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
        # a first penalty of at most h^-2 keeps the path on ``mesh`` (h <= 1/sqrt(gamma0))
        with pytest.raises(ValueError, match="overflow"):
            path_follow(problem, gamma0=min(10.0, mesh.h**-2), gamma_max=100.0,
                        initial_mesh=mesh, events=events)
    assert events == []


def test_a_mesh_too_long_for_its_basis_is_a_value_error():
    # h ** 2 of the Hermite basis overflows before any matrix is assembled
    with pytest.raises(ValueError, match="beam data overflow"):
        BeamDiscretization(BeamProblem(), HermiteMesh1D(64, 1e300))


def test_mesh_and_problem_validation():
    with pytest.raises(ValueError):
        HermiteMesh1D(0)
    with pytest.raises(ValueError):
        BeamProblem(bending_stiffness=-1.0)
    for field in ("bending_stiffness", "load", "weight", "half_width"):
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
