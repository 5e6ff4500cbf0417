import numpy as np
import pytest

from deflated_newton import problems
from deflated_newton.deflation import (
    AtDeflatedRoot,
    DeflatedSystem,
    DeflationState,
    NormSpec,
    deflation_factor,
    deflation_gradient,
)
from deflated_newton.linalg import BandedMatrix
from deflated_newton.obstacle1d import BeamDiscretization, BeamProblem, HermiteMesh1D
from deflated_newton.reformulate import (
    NcpFunction,
    NonFiniteResidual,
    assemble_newton_derivative,
    assemble_residual,
)

FB = NcpFunction.FISCHER_BURMEISTER


def spd_weight(rng, n):
    a = rng.randn(n, n)
    return a @ a.T + n * np.eye(n)


def full_band(dense, hbw=None) -> BandedMatrix:
    """The band of half bandwidth ``hbw`` of a square matrix; by default
    hbw = n - 1, which holds every entry."""
    dense = np.asarray(dense, dtype=float)
    n = dense.shape[0]
    hbw = n - 1 if hbw is None else hbw
    out = BandedMatrix.zeros(n, hbw)
    for i in range(n):
        for j in range(max(0, i - hbw), min(n, i + hbw + 1)):
            out.data[hbw + i - j, j] = dense[i, j]
    return out


def deflated_residual(state, f_value, z):
    """G(z) = alpha(z) F(z), formed independently of DeflatedSystem."""
    return deflation_factor(state, z) * np.asarray(f_value, dtype=float)


def system_at(state, f_value, jac):
    """A DeflatedSystem whose undeflated residual and derivative are constant."""
    return DeflatedSystem(state, lambda z: (np.asarray(f_value, dtype=float), z), lambda z: jac)


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


def test_guard_measures_column_roots_as_vectors():
    # the guard measures a column root as the vector it holds
    state = DeflationState(roots=[np.zeros((2, 1))])
    with pytest.raises(ValueError, match="coincides with an already deflated root"):
        state.add_root(np.full((2, 1), 1e-12))
    state.add_root(np.array([[1.0], [0.0]]))
    assert len(state.roots) == 2
    assert deflation_factor(state, np.array([0.0, 1.0])) == pytest.approx(2.0 * 1.5, rel=1e-15)


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
    norm = NormSpec(full_band(spd_weight(rng, n))) if weighted else NormSpec()
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


def test_gradient_term_of_an_overflowing_power_reads_zero():
    # at p = 1000 the far root's d ** (p + 2) overflows (d = 4): its term lies
    # below every float and reads 0, where it used to raise OverflowError
    z, far, near = np.array([4.0, 0.0]), np.zeros(2), np.array([3.01, 0.0])
    state = DeflationState(power=1000.0, roots=[far])
    np.testing.assert_array_equal(deflation_gradient(state, z), np.zeros(2))
    state.add_root(near)  # d = 0.99: a finite term, times the far factor 1.0
    only_near = DeflationState(power=1000.0, roots=[near])
    grad = deflation_gradient(only_near, z)
    assert np.isfinite(grad).all() and grad[0] < 0.0
    np.testing.assert_array_equal(deflation_gradient(state, z), grad)


def test_residual_empty_state_passthrough():
    value = np.array([1.0, -2.0])
    out, _ = system_at(DeflationState(), value, None).residual(np.zeros(2))
    np.testing.assert_array_equal(out, value)


def test_residual_zero_at_new_root():
    state = DeflationState()
    state.add_root(np.zeros(2))
    out, _ = system_at(state, np.zeros(2), None).residual(np.array([5.0, 5.0]))
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
    system = system_at(DeflationState(), np.ones(3), np.eye(3))
    scale, jac, w = system.derivative(system.residual(np.ones(3))[1])
    assert scale == 1.0
    np.testing.assert_array_equal(jac, np.eye(3))
    np.testing.assert_array_equal(w, np.zeros(3))


def test_rank_one_term_vanishes_at_other_root():
    # at a second root of F the rank-one term F grad(alpha)^T is 0, so H_G = alpha H_F
    prob = problems.build("kojima-shindoh")
    state = DeflationState()
    state.add_root(np.array([1.0, 0.0, 3.0, 0.0]))
    second = np.array([np.sqrt(6) / 2, 0.0, 0.0, 0.5])
    g_value = deflated_residual(state, assemble_residual(prob, second, FB), second)
    scale, w = deflation_factor(state, second), deflation_gradient(state, second)
    assert np.linalg.norm(np.outer(g_value / scale, w)) <= 1e-12 * np.linalg.norm(w)
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
            lambda z: (assemble_residual(prob, z, FB), z),
            lambda z: assemble_newton_derivative(prob, z, FB),
        )
        rng = np.random.RandomState(15)

        def g_residual(z):
            return deflated_residual(state, assemble_residual(prob, z, FB), z)

        for _ in range(10):
            z = rng.uniform(0.2, 1.0, 4)
            scale, w = deflation_factor(state, z), deflation_gradient(state, z)
            jac = assemble_newton_derivative(prob, z, FB)
            assembled = scale * jac + np.outer(g_residual(z) / scale, w)
            fd = np.zeros((4, 4))
            for j in range(4):
                h = 1e-7 * (1.0 + abs(z[j]))
                zp, zm = z.copy(), z.copy()
                zp[j] += h
                zm[j] -= h
                fd[:, j] = (g_residual(zp) - g_residual(zm)) / (2 * h)
            assert np.linalg.norm(fd - assembled) <= 1e-5 * np.linalg.norm(assembled)
            # the system object gives the same residual, and the same parts
            # from the point its residual returned
            value, point = system.residual(z)
            np.testing.assert_array_equal(value, g_residual(z))
            s_scale, s_jac, s_w = system.derivative(point)
            assert s_scale == scale
            np.testing.assert_array_equal(s_jac, jac)
            np.testing.assert_array_equal(s_w, w)


def test_norm_spec_rejects_indefinite_weight():
    with pytest.raises(np.linalg.LinAlgError):
        NormSpec(full_band(np.diag([1.0, -1.0])))
    with pytest.raises(ValueError, match="symmetric"):
        NormSpec(full_band(np.array([[1.0, 2.0], [0.0, 1.0]])))
    tridiagonal = np.diag([4.0, 4.0, 4.0]) + np.diag([1.0, 1.0], 1) + np.diag([1.0, 1.0], -1)
    # the tridiagonal and the full band raise the same errors; NaN and inf
    # entries sit symmetrically, so they would reach the Cholesky check
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
        for weight in (full_band(dense), full_band(dense, 1)):
            if error is None:
                NormSpec(weight)
            else:
                with pytest.raises(error):
                    NormSpec(weight)


def test_norm_spec_rejects_nonfinite_banded_weight_below_the_diagonal():
    # the Cholesky check reads only the upper band rows, so a NaN below the
    # diagonal must be caught before it
    weight = full_band(np.diag([4.0, 4.0, 4.0]), 1)
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


def test_overflowing_deflation_is_a_nonfinite_residual():
    def system(power, *roots):
        state = DeflationState(power=power, roots=list(roots))
        return DeflatedSystem(state, lambda z: (z, z), lambda z: np.eye(2))

    # one factor beyond the double range: 0.5^-1100 raises OverflowError
    with pytest.raises(NonFiniteResidual, match="factor"):
        system(1100.0, np.zeros(2)).residual(np.array([0.5, 0.0]))
    # each factor finite (0.5^-600 = 4e180), their product infinite
    with pytest.raises(NonFiniteResidual, match="factor"):
        system(600.0, np.zeros(2), np.array([1.0, 0.0])).residual(np.array([0.5, 0.0]))
    # at d = 4 only the divisor 4^(p + 2) overflows: the gradient term lies
    # below every float and reads 0
    far = system(1000.0, np.zeros(2))
    value, point = far.residual(np.array([4.0, 0.0]))
    np.testing.assert_array_equal(value, [4.0, 0.0])
    np.testing.assert_array_equal(far.derivative(point)[2], np.zeros(2))
    # and 0.4918^-1000 is finite, its gradient beyond the double range
    near = system(1000.0, np.zeros(2))
    _, point = near.residual(np.array([0.4918, 0.0]))
    with pytest.raises(NonFiniteResidual, match="gradient"):
        near.derivative(point)


@pytest.mark.parametrize("weighted", [False, True], ids=["euclidean", "mass"])
def test_a_nonfinite_gradient_is_a_nonfinite_residual_in_both_norms(weighted):
    # the Euclidean gradient runs on Python floats and the banded one under
    # numpy's raising errstate; each refuses the same points
    mesh = HermiteMesh1D(4)
    norm = NormSpec(BeamDiscretization(BeamProblem(), mesh).mass) if weighted else NormSpec()
    direction = np.linspace(1.0, 2.0, mesh.dofs)
    direction /= norm.norm(direction)  # unit length in the deflation norm

    def derivative_at(power, distance, *roots):
        state = DeflationState(power=power, norm=norm, roots=[r * direction for r in roots])
        system = DeflatedSystem(state, lambda z: (z, z), lambda z: np.eye(z.size))
        return system.derivative(system.residual(distance * direction)[1])

    # d < 1: 0.4918^-1000 is finite, but the divisor 0.4918^1002 is
    # subnormal and the quotient lies beyond the double range
    with pytest.raises(NonFiniteResidual, match="gradient"):
        derivative_at(1000.0, 0.4918, 0.0)
    # d > 1: the divisor 1e110^1002 overflows, and the other root's factor
    # 0.631^-1000 (about 1e200) pushes the numerator past the double range too
    with pytest.raises(NonFiniteResidual, match="gradient"):
        derivative_at(1000.0, 0.631, 0.0, -1e110)
    # the divisor (1e-9)^36 underflows to 0 while the factor (1e-9)^-34 is finite
    with pytest.raises(NonFiniteResidual, match="gradient"):
        derivative_at(34.0, 1e-9, 0.0)
    # each term finite: the gradient is returned
    alpha, _, grad = derivative_at(1000.0, 4.0, 0.0)
    assert alpha == 1.0 and np.isfinite(grad).all()


def test_an_overflowing_gradient_scale_is_a_nonfinite_residual():
    # unshifted, the scale (alpha / m_B) (-p) = m_A (-p) of the root at d = 2
    # is -inf (m_A = 0.494^-1000, about 3e306), though alpha = m_A m_B is
    # finite; numpy raised no flag for -inf times finite entries and the
    # gradient was returned as [-inf, -inf]
    z = np.array([0.494, 0.0])
    state = DeflationState(power=1000.0, shift=0.0, roots=[np.zeros(2), z - np.sqrt(2.0)])
    system = DeflatedSystem(state, lambda z: (z, z), lambda z: np.eye(2))
    _, point = system.residual(z)
    with pytest.raises(NonFiniteResidual, match="gradient"):
        system.derivative(point)


def test_norm_spec_refuses_a_dense_weight():
    for weight in (np.eye(2), [[1.0, 0.0], [0.0, 1.0]]):
        with pytest.raises(ValueError, match="BandedMatrix"):
            NormSpec(weight)


def test_weighted_norm_value():
    weight = full_band(np.diag([4.0, 9.0]))
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
        norm = NormSpec(full_band(a @ a.T + n * np.eye(n)))
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
