import numpy as np
import pytest

from deflated_newton import problems
from deflated_newton.deflation import (
    AtDeflatedRoot,
    DeflatedSystem,
    DeflationState,
    NormSpec,
    deflated_derivative_parts,
    deflated_residual,
    deflation_factor,
    deflation_gradient,
)
from deflated_newton.linalg import BandedMatrix
from deflated_newton.obstacle1d import BeamDiscretization, BeamProblem, HermiteMesh1D
from deflated_newton.reformulate import NcpFunction, assemble_newton_derivative, assemble_residual

FB = NcpFunction.FISCHER_BURMEISTER


def spd_weight(rng, n):
    a = rng.randn(n, n)
    return a @ a.T + n * np.eye(n)


def test_factor_single_root_unit_distance():
    state = DeflationState()
    state.add_root(np.zeros(3))
    z = np.array([1.0, 0.0, 0.0])
    assert deflation_factor(state, z) == pytest.approx(2.0)


def test_factor_two_roots_product():
    state = DeflationState()
    state.add_root(np.array([1.0, 0.0]))
    state.add_root(np.array([-1.0, 0.0]))
    assert deflation_factor(state, np.array([0.0, 0.0])) == pytest.approx(4.0)


def test_factor_tends_to_one_far_away():
    state = DeflationState()
    state.add_root(np.zeros(2))
    far = deflation_factor(state, np.array([1e6, 0.0]))
    assert abs(far - 1.0) <= 1e-11


def test_factor_guard_raises():
    state = DeflationState()
    state.add_root(np.zeros(2))
    with pytest.raises(AtDeflatedRoot):
        deflation_factor(state, np.full(2, 1e-11))


def test_gradient_no_roots_is_zero():
    state = DeflationState()
    np.testing.assert_array_equal(deflation_gradient(state, np.ones(4)), np.zeros(4))
    assert deflation_factor(state, np.ones(4)) == 1.0


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("power,shift", [(2.0, 1.0), (1.0, 1.0), (2.0, 0.0), (3.0, 1.0)])
def test_gradient_matches_central_differences(weighted, power, shift):
    rng = np.random.RandomState(11)
    n = 5
    norm = NormSpec(spd_weight(rng, n)) if weighted else NormSpec()
    state = DeflationState(power=power, shift=shift, norm=norm)
    state.add_root(rng.randn(n))
    state.add_root(rng.randn(n) + 3.0)
    for _ in range(10):
        z = rng.randn(n) * 2.0
        grad = deflation_gradient(state, z)
        fd = np.zeros(n)
        for j in range(n):
            h = 1e-6 * (1.0 + abs(z[j]))
            zp, zm = z.copy(), z.copy()
            zp[j] += h
            zm[j] -= h
            fd[j] = (deflation_factor(state, zp) - deflation_factor(state, zm)) / (2 * h)
        assert np.linalg.norm(fd - grad) <= 1e-7 * max(1.0, np.linalg.norm(grad))


def test_gradient_symmetry_between_two_roots():
    r1 = np.array([1.0, 0.0])
    r2 = np.array([-1.0, 0.0])
    state = DeflationState()
    state.add_root(r1)
    state.add_root(r2)
    z = np.array([0.0, 1.5])  # on the perpendicular bisector
    grad = deflation_gradient(state, z)
    # contributions along r1 - r2 cancel; swapping roots flips nothing else
    assert abs(grad[0]) <= 1e-14
    swapped = DeflationState()
    swapped.add_root(r2)
    swapped.add_root(r1)
    np.testing.assert_allclose(deflation_gradient(swapped, z), grad, atol=1e-14)


def test_residual_empty_state_passthrough():
    state = DeflationState()
    value = np.array([1.0, -2.0])
    np.testing.assert_array_equal(deflated_residual(state, value, np.zeros(2)), value)


def test_residual_zero_at_new_root():
    state = DeflationState()
    state.add_root(np.zeros(2))
    out = deflated_residual(state, np.zeros(2), np.array([5.0, 5.0]))
    np.testing.assert_array_equal(out, np.zeros(2))


def test_root_preservation():
    # alpha > 0 outside guard balls, so G vanishes exactly when F does
    rng = np.random.RandomState(12)
    state = DeflationState()
    state.add_root(rng.randn(3))
    for _ in range(50):
        z = rng.randn(3) * 3
        f_value = rng.randn(3)
        g_value = deflated_residual(state, f_value, z)
        assert (np.linalg.norm(g_value) == 0.0) == (np.linalg.norm(f_value) == 0.0)
        assert deflation_factor(state, z) > 0.0


def test_kojima_segment_no_decay_toward_root():
    """Approaching a deflated root along a ray, the deflated residual never
    sinks below its far-field level: deflation blocks re-convergence."""
    prob = problems.build("kojima-shindoh")
    root = np.array([1.0, 0.0, 3.0, 0.0])
    start = np.full(4, 0.7)
    for shift in (1.0, 0.0):
        state = DeflationState(power=2.0, shift=shift)
        state.add_root(root)
        norms = []
        for t in np.geomspace(1e-1, 1e-6, 16):
            z = root + t * (start - root)
            g_value = deflated_residual(state, assemble_residual(prob, z, FB), z)
            norms.append(np.linalg.norm(g_value))
        norms = np.array(norms)
        assert norms.min() > 0.0
        assert norms.min() >= 0.1 * norms[0]
        # with power 2 the norms in fact grow monotonically toward the root
        assert (np.diff(norms) > 0).all()


def test_blowup_min_median_invariant():
    """Along a ray into the Kojima root, N(z) = ||z - r||^(p-1) ||G(z)|| has
    min >= 0.1 x median over a five-decade sample, for p = 2 and both shifts.

    The deflation factor grows like ||z - r||^-p and, at a BD-regular root,
    ||F(z)|| >= c ||z - r||, so N stays bounded away from zero: G never
    decays toward the root.  For p = 1, N is ||G|| itself.  The undeflated
    residual, or deflation at power 1, gives N ~ ||z - r||^p or ||z - r||,
    whose min/median over the sample is far below 0.1.
    """
    power = 2.0
    rng = np.random.RandomState(13)
    prob = problems.build("kojima-shindoh")
    root = np.array([1.0, 0.0, 3.0, 0.0])
    direction = rng.randn(4)
    direction /= np.linalg.norm(direction)
    worst = np.inf
    for shift in (1.0, 0.0):
        state = DeflationState(power=power, shift=shift)
        state.add_root(root)
        normalised = []
        for t in np.geomspace(1e-1, 1e-6, 16):
            z = root + t * direction
            g_value = deflated_residual(state, assemble_residual(prob, z, FB), z)
            normalised.append(np.linalg.norm(z - root) ** (power - 1.0) * np.linalg.norm(g_value))
        worst = min(worst, np.min(normalised) / np.median(normalised))
    assert worst >= 0.1, (
        f"min/median of ||z - r||^(p-1) ||G|| = {worst:.2e} < 0.1: the deflated "
        "residual decays toward the deflated root"
    )


def test_far_field_relative_perturbation():
    # shifted deflation changes the residual by at most 2k/d_min^p far away
    rng = np.random.RandomState(14)
    for name, roots in (
        ("kojima-shindoh", [np.array([1.0, 0.0, 3.0, 0.0]), np.array([np.sqrt(6) / 2, 0, 0, 0.5])]),
        ("gould", [np.array([0.25, 0.5, 0, 0]), np.array([0.0, 0.5, 0, 0]),
                   np.array([11 / 32, 15 / 32, 1 / 8, 0])]),
    ):
        prob = problems.build(name)
        for power in (1.0, 2.0):
            state = DeflationState(power=power, shift=1.0)
            for r in roots:
                state.add_root(r)
            for _ in range(25):
                z = rng.randn(4) * 10.0
                d_min = min(np.linalg.norm(z - r) for r in roots)
                if d_min < 2.0:
                    continue
                f_value = assemble_residual(prob, z, FB)
                g_value = deflated_residual(state, f_value, z)
                lhs = np.linalg.norm(g_value - f_value)
                bound = 2.0 * len(roots) / d_min**power * np.linalg.norm(f_value)
                assert lhs <= bound + 1e-14


def test_derivative_parts_empty_state():
    state = DeflationState()
    f_value = np.zeros(3)
    scale, jac, u, w = deflated_derivative_parts(state, f_value, np.eye(3), np.ones(3))
    assert scale == 1.0
    np.testing.assert_array_equal(u, np.zeros(3))
    np.testing.assert_array_equal(w, np.zeros(3))


def test_rank_one_term_vanishes_at_other_root():
    # at a second root of F the update vector u = F = 0, so H_G = alpha H_F
    prob = problems.build("kojima-shindoh")
    state = DeflationState()
    state.add_root(np.array([1.0, 0.0, 3.0, 0.0]))
    second = np.array([np.sqrt(6) / 2, 0.0, 0.0, 0.5])
    f_value = assemble_residual(prob, second, FB)
    scale, _, u, w = deflated_derivative_parts(state, f_value, np.eye(4), second)
    assert np.linalg.norm(u) <= 1e-12
    assert scale > 1.0


def test_deflated_derivative_matches_differences():
    prob = problems.build("gould")
    # Euclidean, and the L2 norm of a two-element Hermite beam (4 unknowns)
    mass = BeamDiscretization(BeamProblem(), HermiteMesh1D(2)).mass
    for norm in (NormSpec(), NormSpec(mass)):
        state = DeflationState(norm=norm)
        state.add_root(np.array([0.25, 0.5, 0.0, 0.0]))
        system = DeflatedSystem(
            state,
            lambda z: assemble_residual(prob, z, FB),
            lambda z: assemble_newton_derivative(prob, z, FB),
        )
        rng = np.random.RandomState(15)

        def g_residual(z):
            return deflated_residual(state, assemble_residual(prob, z, FB), z)

        for _ in range(10):
            z = rng.uniform(0.2, 1.0, 4)
            scale, jac, u, w = deflated_derivative_parts(
                state, assemble_residual(prob, z, FB), assemble_newton_derivative(prob, z, FB), z
            )
            assembled = scale * np.asarray(jac) + np.outer(u, w)
            fd = np.zeros((4, 4))
            for j in range(4):
                h = 1e-7 * (1.0 + abs(z[j]))
                zp, zm = z.copy(), z.copy()
                zp[j] += h
                zm[j] -= h
                fd[:, j] = (g_residual(zp) - g_residual(zm)) / (2 * h)
            assert np.linalg.norm(fd - assembled) <= 1e-5 * np.linalg.norm(assembled)
            # the system object gives the same parts, after a residual call
            # at the same array and for a fresh array alike
            np.testing.assert_array_equal(system.residual(z), g_residual(z))
            for point in (z, z.copy()):
                s_scale, s_jac, s_u, s_w = system.derivative(point)
                assert s_scale == scale
                np.testing.assert_array_equal(s_jac, jac)
                np.testing.assert_array_equal(s_u, u)
                np.testing.assert_array_equal(s_w, w)


def tridiagonal_band(dense: np.ndarray) -> BandedMatrix:
    upper, lower = np.diag(dense, 1), np.diag(dense, -1)
    data = np.array([np.r_[0.0, upper], np.diag(dense), np.r_[lower, 0.0]])
    return BandedMatrix(dense.shape[0], 1, data)


def test_norm_spec_rejects_indefinite_weight():
    with pytest.raises(Exception):
        NormSpec(np.diag([1.0, -1.0]))
    with pytest.raises(ValueError):
        NormSpec(np.array([[1.0, 2.0], [0.0, 1.0]]))
    tridiagonal = np.diag([4.0, 4.0, 4.0]) + np.diag([1.0, 1.0], 1) + np.diag([1.0, 1.0], -1)
    # both kinds of weight raise the same errors; NaN and inf entries sit
    # symmetrically, so they reach the Cholesky check
    cases = [(tridiagonal, None)]
    for i, j, value in ((0, 1, np.nan), (1, 1, np.nan), (2, 2, np.inf)):
        bad = tridiagonal.copy()
        bad[i, j] = bad[j, i] = value
        cases.append((bad, ValueError))
    cases.append((np.diag([1.0, -1.0, 1.0]), np.linalg.LinAlgError))
    cases.append((tridiagonal - 5.0 * np.eye(3), np.linalg.LinAlgError))
    nonsymmetric = tridiagonal.copy()
    nonsymmetric[0, 1] = 2.0
    cases.append((nonsymmetric, ValueError))
    for dense, error in cases:
        for weight in (dense, tridiagonal_band(dense)):
            if error is None:
                NormSpec(weight)
            else:
                with pytest.raises(error):
                    NormSpec(weight)


def test_norm_spec_rejects_nonfinite_banded_weight_below_the_diagonal():
    # the Cholesky check reads only the upper band rows, so a NaN below the
    # diagonal must be caught before it
    weight = tridiagonal_band(np.diag([4.0, 4.0, 4.0]))
    weight.data[2, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        NormSpec(weight)


def test_state_validation():
    with pytest.raises(ValueError):
        DeflationState(power=0.5)
    with pytest.raises(ValueError):
        DeflationState(shift=-1.0)
    for bad in ({"power": np.nan}, {"power": np.inf}, {"shift": np.nan}, {"shift": np.inf}):
        with pytest.raises(ValueError, match="must be finite"):
            DeflationState(**bad)
    state = DeflationState()
    state.add_root(np.zeros(2))
    with pytest.raises(ValueError):
        state.add_root(np.zeros(2))


def test_weighted_norm_value():
    weight = np.diag([4.0, 9.0])
    norm = NormSpec(weight)
    assert norm.norm(np.array([1.0, 1.0])) == pytest.approx(np.sqrt(13.0))


# Property test: the deflation gradient against central differences.

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

coordinate = st.floats(-3.0, 3.0, allow_nan=False, allow_subnormal=False)


@st.composite
def deflation_points(draw):
    """(state, z) with z at distance >= 0.5 from every deflated root."""
    n = draw(st.integers(1, 6))
    norm = NormSpec()
    if draw(st.booleans()):
        a = draw(arrays(float, (n, n), elements=st.floats(-1.0, 1.0, allow_subnormal=False)))
        norm = NormSpec(a @ a.T + n * np.eye(n))
    state = DeflationState(
        power=draw(st.floats(1.0, 3.0)), shift=draw(st.sampled_from([0.0, 1.0])), norm=norm
    )
    for _ in range(draw(st.integers(1, 3))):
        root = draw(arrays(float, n, elements=coordinate))
        assume(all(norm.norm(root - known) > 1e-3 for known in state.roots))
        state.add_root(root)
    z = draw(arrays(float, n, elements=coordinate))
    assume(all(norm.norm(z - root) >= 0.5 for root in state.roots))
    return state, z


@settings(max_examples=200, deadline=None)
@given(deflation_points())
def test_gradient_matches_central_differences_property(point):
    state, z = point
    grad = deflation_gradient(state, z)
    fd = np.empty(z.size)
    for j in range(z.size):
        h = 1e-5 * (1.0 + abs(z[j]))
        zp, zm = z.copy(), z.copy()
        zp[j] += h
        zm[j] -= h
        fd[j] = (deflation_factor(state, zp) - deflation_factor(state, zm)) / (2 * h)
    # truncation O(h^2) and rounding O(eps / h), both relative to the factor
    scale = deflation_factor(state, z) + np.linalg.norm(grad)
    assert np.linalg.norm(fd - grad) <= 1e-6 * scale
