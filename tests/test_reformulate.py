import dataclasses
import math

import numpy as np
import pytest

from deflated_newton import problems
from deflated_newton.reformulate import (
    MixedComplementarityProblem,
    NcpFunction,
    NonFiniteResidual,
    assemble_newton_derivative,
    assemble_residual,
    evaluate,
    jacobian,
    phi,
    phi_derivative,
)

FB = NcpFunction.FISCHER_BURMEISTER
MP = NcpFunction.MIN_MAX


def central_difference(fun, z, step=1e-7):
    n = z.size
    out = np.zeros((fun(z).size, n))
    for j in range(n):
        h = step * (1.0 + abs(z[j]))
        zp, zm = z.copy(), z.copy()
        zp[j] += h
        zm[j] -= h
        out[:, j] = (fun(zp) - fun(zm)) / (2.0 * h)
    return out


def test_phi_values():
    assert phi(FB, 0.0, 0.0) == 0.0
    assert phi(FB, -1.0, 0.0) == pytest.approx(2.0)
    assert phi(MP, 2.0, 5.0) == 2.0
    assert phi(MP, 5.0, 2.0) == 2.0


def test_phi_derivative_values():
    assert phi_derivative(FB, 3.0, 4.0) == pytest.approx((-0.4, -0.2))
    origin = 1.0 / math.sqrt(2.0) - 1.0
    assert phi_derivative(FB, 0.0, 0.0) == pytest.approx((origin, origin))
    assert phi_derivative(MP, 1.0, 1.0) == (0.0, 1.0)
    assert phi_derivative(MP, 1.0, 3.0) == (1.0, 0.0)


def test_min_max_is_min():
    rng = np.random.RandomState(0)
    for _ in range(200):
        a, b = rng.uniform(-5, 5, 2)
        assert phi(MP, a, b) == min(a, b)


def test_phi_zero_iff_complementary():
    # grid of exact boundary points and clean interior magnitudes
    values = [-2.0, -0.5, 0.0, 0.3, 1.0, 4.0]
    for kind in (FB, MP):
        for a in values:
            for b in values:
                complementary = a >= 0 and b >= 0 and abs(a * b) <= 1e-15 * (1 + a + b)
                vanishes = abs(phi(kind, a, b)) <= 1e-15 * (1.0 + abs(a) + abs(b))
                assert vanishes == complementary, (kind, a, b)


def test_phi_nonzero_off_complementarity_random():
    rng = np.random.RandomState(1)
    for kind in (FB, MP):
        for _ in range(300):
            a, b = rng.uniform(-3, 3, 2)
            if min(abs(a), abs(b)) < 1e-6:
                continue
            complementary = a > 0 and b > 0 and a * b <= 1e-15 * (1 + a + b)
            assert (abs(phi(kind, a, b)) < 1e-12) == complementary


def test_residual_kojima_published_root():
    prob = problems.build("kojima-shindoh")
    z = np.array([1.0, 0.0, 3.0, 0.0])
    np.testing.assert_allclose(prob.residual(z), [0.0, 31.0, 0.0, 4.0], atol=1e-12)
    res = assemble_residual(prob, z, FB)
    assert np.linalg.norm(res) <= 1e-12


def test_residual_gerard_free_component_at_zero():
    prob = problems.build("gerard")
    res = assemble_residual(prob, np.zeros(10), MP)
    assert res[9] == -1.0  # free unknown copies its equation


def test_residual_minmax_at_lower_bound():
    prob = MixedComplementarityProblem(dimension=2, residual=lambda z: np.array([3.0, z[1] - 1]))
    res = assemble_residual(prob, np.array([0.0, 1.0]), MP)
    assert res[0] == 0.0


def test_ncp_special_case_matches_phi():
    # with lower bound 0 and no upper bound the residual is phi(z_i, F_i) verbatim
    prob = problems.build("kojima-shindoh")
    rng = np.random.RandomState(2)
    for _ in range(20):
        z = rng.uniform(-1, 2, 4)
        value = prob.residual(z)
        expected = np.array([phi(FB, z[i], value[i]) for i in range(4)])
        np.testing.assert_array_equal(assemble_residual(prob, z, FB), expected)


def test_derivative_free_problem_is_jacobian():
    c = np.array([1.0, -2.0, 0.5])
    free = np.full(3, np.inf)
    prob = MixedComplementarityProblem(
        dimension=3, residual=lambda z: z - c, lower=-free, upper=free
    )
    jac = assemble_newton_derivative(prob, np.array([5.0, 0.0, -3.0]), FB)
    np.testing.assert_array_equal(jac, np.eye(3))


def test_derivative_kojima_matches_central_differences():
    prob = problems.build("kojima-shindoh")
    z = np.full(4, 0.7)
    jac = assemble_newton_derivative(prob, z, FB)
    fd = central_difference(lambda y: assemble_residual(prob, y, FB), z)
    assert np.linalg.norm(fd - jac) <= 1e-6 * np.linalg.norm(jac)


def test_derivative_minmax_active_branch_row():
    prob = MixedComplementarityProblem(
        dimension=2,
        residual=lambda z: np.array([2.0 + z[1], z[0] + z[1] - 1.0]),
    )
    jac = assemble_newton_derivative(prob, np.array([0.0, 0.5]), MP)
    np.testing.assert_array_equal(jac[0], [1.0, 0.0])  # bound branch selected


def test_upper_bound_only_branch():
    # finite upper bound, no lower: Phi_i = -phi(u_i - z_i, -F_i)
    upper = np.array([2.0, np.inf])
    lower = np.array([-np.inf, -np.inf])

    def residual(z):
        return np.array([1.0 - z[0], z[1] + z[0]])

    prob = MixedComplementarityProblem(2, residual, lower=lower, upper=upper)
    rng = np.random.RandomState(8)
    for kind in (FB, MP):
        z = np.array([1.3, 0.4])
        value = residual(z)
        expected = -phi(kind, upper[0] - z[0], -value[0])
        assert assemble_residual(prob, z, kind)[0] == expected
        for _ in range(10):
            z = rng.uniform(0.2, 1.2, 2)
            jac = assemble_newton_derivative(prob, z, kind)
            fd = central_difference(lambda y: assemble_residual(prob, y, kind), z)
            assert np.linalg.norm(fd - jac) <= 1e-5 * max(1.0, np.linalg.norm(jac))


def test_doubly_bounded_composition():
    lower = np.array([0.0, -1.0])
    upper = np.array([2.0, 1.0])

    def residual(z):
        return np.array([z[0] ** 2 - z[1], z[0] + 2.0 * z[1] + 0.3])

    prob = MixedComplementarityProblem(2, residual, lower=lower, upper=upper)
    rng = np.random.RandomState(3)
    for kind in (FB, MP):
        for _ in range(25):
            z = rng.uniform(0.1, 0.9, 2)
            jac = assemble_newton_derivative(prob, z, kind)
            fd = central_difference(lambda y: assemble_residual(prob, y, kind), z)
            assert np.linalg.norm(fd - jac) <= 1e-5 * max(1.0, np.linalg.norm(jac))


def test_directional_semismoothness():
    # ||Phi(z + t h) - Phi(z) - t H(z + t h) h|| / t stays small for small t
    prob = problems.build("kojima-shindoh")
    rng = np.random.RandomState(4)
    t = 1e-6
    for kind in (FB, MP):
        for _ in range(20):
            z = rng.uniform(0.3, 1.2, 4)
            h = rng.randn(4)
            h /= np.linalg.norm(h)
            base = assemble_residual(prob, z, kind)
            ahead = assemble_residual(prob, z + t * h, kind)
            jac = assemble_newton_derivative(prob, z + t * h, kind)
            ratio = np.linalg.norm(ahead - base - t * (jac @ h)) / t
            assert ratio <= 1e-4


def test_fd_fallback_close_to_analytic():
    analytic = problems.build("gould")
    fallback = MixedComplementarityProblem(dimension=4, residual=analytic.residual)
    z = np.array([0.3, 0.4, 0.1, 0.2])
    a = assemble_newton_derivative(analytic, z, FB)
    b = assemble_newton_derivative(fallback, z, FB)
    assert np.abs(a - b).max() <= 1e-6


def test_nonfinite_residual_raises():
    prob = MixedComplementarityProblem(
        dimension=1, residual=lambda z: np.array([np.nan])
    )
    with pytest.raises(NonFiniteResidual):
        assemble_residual(prob, np.array([1.0]), FB)


def test_float_overflow_is_a_nonfinite_residual():
    # maps on Python floats raise OverflowError where numpy returned inf
    prob = MixedComplementarityProblem(
        dimension=1,
        residual=lambda z: np.array([z.tolist()[0] ** 2]),
        derivative=lambda z: np.array([[2.0 * z.tolist()[0] ** 3]]),
    )
    big = np.array([1e200])
    with pytest.raises(NonFiniteResidual):
        evaluate(prob, big)
    with pytest.raises(NonFiniteResidual):
        jacobian(prob, big, value=np.array([1.0]))


def test_bounds_are_read_only_copies():
    # the bound classification is made once, so the bounds must not change
    lower, upper = np.array([0.0, -np.inf]), np.array([np.inf, 1.0])
    prob = MixedComplementarityProblem(2, residual=lambda z: z, lower=lower, upper=upper)
    lower[:] = 5.0  # the caller's arrays stay writable and are not shared
    assert prob.lower.tolist() == [0.0, -np.inf]
    with pytest.raises(ValueError, match="read-only"):
        prob.upper[0] = 0.0
    z = np.array([2.0, 3.0])
    assert assemble_residual(prob, z, MP).tolist() == [2.0, 3.0]


def test_bounds_validation():
    with pytest.raises(ValueError):
        MixedComplementarityProblem(
            dimension=2,
            residual=lambda z: z,
            lower=np.array([1.0, 0.0]),
            upper=np.array([0.0, 1.0]),
        )


@pytest.mark.parametrize(
    "bounds",
    [
        {"lower": np.array([np.nan])},
        {"upper": np.array([np.nan])},
        {"lower": np.array([np.nan]), "upper": np.array([1.0])},
        {"lower": np.array([-np.inf]), "upper": np.array([np.nan])},
    ],
)
def test_nan_bound_is_rejected(bounds):
    # a NaN bound used to pass validation and read as no bound on that
    # side: lower=[nan] made the component free, upper=[nan] a lower bound
    with pytest.raises(ValueError, match="NaN"):
        MixedComplementarityProblem(1, residual=lambda z: z - 2.0, **bounds)


# The assembly runs its per-component branches on Python floats; the
# per-component numpy loops it replaced are kept here as the reference, and
# the two must agree bit for bit, signed zeros and kinks included.

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

INF = math.inf
BOUND_CLASSES = ("free", "lower", "upper", "box")


def reference_residual(problem, z, kind):
    value = evaluate(problem, z)
    lower, upper = problem.lower, problem.upper
    out = np.empty(problem.dimension)
    for i in range(problem.dimension):
        lo_finite = math.isfinite(lower[i])
        up_finite = math.isfinite(upper[i])
        if not lo_finite and not up_finite:
            out[i] = value[i]
        elif lo_finite and not up_finite:
            out[i] = phi(kind, z[i] - lower[i], value[i])
        elif up_finite and not lo_finite:
            out[i] = -phi(kind, upper[i] - z[i], -value[i])
        else:
            inner = -phi(kind, upper[i] - z[i], -value[i])
            out[i] = phi(kind, z[i] - lower[i], inner)
    return out


def reference_derivative(problem, z, kind):
    value = evaluate(problem, z)
    jac = jacobian(problem, z, value)
    lower, upper = problem.lower, problem.upper
    n = problem.dimension
    out = np.zeros((n, n))
    for i in range(n):
        lo_finite = math.isfinite(lower[i])
        up_finite = math.isfinite(upper[i])
        if not lo_finite and not up_finite:
            out[i, :] = jac[i, :]
            continue
        if lo_finite and not up_finite:
            d_a, d_b = phi_derivative(kind, z[i] - lower[i], value[i])
        elif up_finite and not lo_finite:
            d_a, d_b = phi_derivative(kind, upper[i] - z[i], -value[i])
        else:
            a2 = upper[i] - z[i]
            b2 = -value[i]
            d_a2, d_b2 = phi_derivative(kind, a2, b2)
            inner = -phi(kind, a2, b2)
            d_a1, d_b1 = phi_derivative(kind, z[i] - lower[i], inner)
            d_a = d_a1 + d_b1 * d_a2
            d_b = d_b1 * d_b2
        out[i, :] = d_b * jac[i, :]
        out[i, i] += d_a
    return out


def frozen_problem(lower, upper, f, jac):
    """An MCP whose F is the constant ``f`` with Jacobian ``jac``."""
    f, jac = np.array(f, dtype=float), np.array(jac, dtype=float)
    return MixedComplementarityProblem(
        len(f), lambda z: f.copy(), lambda z: jac.copy(), lower=lower, upper=upper
    )


def assert_assembly_matches_reference(problem, z):
    for kind in (FB, MP):
        assert assemble_residual(problem, z, kind).tobytes() == (
            reference_residual(problem, z, kind).tobytes()
        )
        assert assemble_newton_derivative(problem, z, kind).tobytes() == (
            reference_derivative(problem, z, kind).tobytes()
        )


def test_assembly_matches_reference_at_kinks():
    # one component per row: (lower, upper, z, F(z))
    rows = [
        (-INF, INF, 0.3, -0.0),  # free, -0.0 value
        (-INF, INF, -0.0, 0.0),
        (0.0, INF, 0.0, 0.0),  # FB origin, min tie
        (0.0, INF, -0.0, -0.0),
        (-0.0, INF, 0.0, -0.0),
        (1.0, INF, 1.5, 0.5),  # min tie away from the origin
        (-INF, 0.0, 0.0, 0.0),
        (-INF, -0.0, 0.0, -0.0),
        (-INF, 2.0, 1.0, -1.0),  # min tie: u - z == -F
        (0.0, 1.0, 0.0, 0.0),  # outer FB origin (inner phi(1, 0) = 0)
        (0.0, 1.0, 1.0, 0.0),  # inner FB origin
        (0.0, 1.0, 1.0, -0.0),
        (-0.0, 0.0, -0.0, 0.0),  # degenerate box
        (0.0, 1.0, 0.5, 0.5),  # outer min tie (inner = 0.5 = z - l)
    ]
    lower, upper, z, f = (np.array(col) for col in zip(*rows))
    n = len(rows)
    jac = np.random.RandomState(11).uniform(-2.0, 2.0, (n, n))
    jac[np.random.RandomState(12).rand(n, n) < 0.3] = -0.0
    np.fill_diagonal(jac, -0.0)
    assert_assembly_matches_reference(frozen_problem(lower, upper, f, jac), z)


SPECIAL = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0])
values = st.one_of(SPECIAL, st.floats(-4.0, 4.0, allow_nan=False, allow_subnormal=False))


@st.composite
def bounded_points(draw):
    """(problem with constant F, z) over all bound classes, often on kinks."""
    n = draw(st.integers(1, 6))
    lower, upper, z, f = [], [], [], []
    for _ in range(n):
        cls = draw(st.sampled_from(BOUND_CLASSES))
        lo = draw(values) if cls in ("lower", "box") else -INF
        up = draw(values) if cls == "upper" else INF
        if cls == "box":
            up = lo + abs(draw(values))
        finite = [b for b in (lo, up) if math.isfinite(b)]
        zi = draw(st.one_of(st.sampled_from(finite), values)) if finite else draw(values)
        ties = [zi - lo if math.isfinite(lo) else 0.0, zi - up if math.isfinite(up) else 0.0]
        lower.append(lo)
        upper.append(up)
        z.append(zi)
        f.append(draw(st.one_of(values, st.sampled_from(ties))))
    jac = draw(arrays(float, (n, n), elements=values))
    return frozen_problem(np.array(lower), np.array(upper), f, jac), np.array(z)


@settings(max_examples=400, deadline=None)
@given(bounded_points())
def test_assembly_matches_reference_bitwise(case):
    problem, z = case
    assert_assembly_matches_reference(problem, z)


def flat_iterator_derivative(problem, z, kind):
    """The assembly with its diagonal added through ``out.flat``, as it was
    before the flat view of ``out.reshape(-1)`` took that step."""
    value = evaluate(problem, z)
    jac = jacobian(problem, z, value)
    lower, upper = problem.lower, problem.upper
    n = problem.dimension
    row_scale, diag_add = [], []
    for i in range(n):
        lo_finite, up_finite = math.isfinite(lower[i]), math.isfinite(upper[i])
        if not lo_finite and not up_finite:
            d_a, d_b = -0.0, 1.0
        elif lo_finite and not up_finite:
            d_a, d_b = phi_derivative(kind, z[i] - lower[i], value[i])
        elif up_finite and not lo_finite:
            d_a, d_b = phi_derivative(kind, upper[i] - z[i], -value[i])
        else:
            a2, b2 = upper[i] - z[i], -value[i]
            d_a2, d_b2 = phi_derivative(kind, a2, b2)
            d_a1, d_b1 = phi_derivative(kind, z[i] - lower[i], -phi(kind, a2, b2))
            d_a, d_b = d_a1 + d_b1 * d_a2, d_b1 * d_b2
        row_scale.append(d_b)
        diag_add.append(d_a)
    out = jac * np.array(row_scale)[:, None]
    out.flat[:: n + 1] += diag_add
    return out


@settings(max_examples=300, deadline=None)
@given(bounded_points(), st.booleans())
def test_diagonal_add_matches_the_flat_iterator_bitwise(case, fortran):
    # -0.0 entries on the diagonal and in the added values; a Jacobian in
    # Fortran order must not turn the flat view into a copy
    problem, z = case
    if fortran:
        derivative = problem.derivative
        problem = dataclasses.replace(problem, derivative=lambda y: np.asfortranarray(derivative(y)))
    for kind in (FB, MP):
        got = assemble_newton_derivative(problem, z, kind)
        assert got.tobytes() == flat_iterator_derivative(problem, z, kind).tobytes()


def kink_distance(kind, lo, up, z, f):
    """Distance of the phi arguments of one component from the kinks of ``kind``.

    Fischer-Burmeister is measured by min(|a|, |b|), the min function by
    |b - a|; a free component has no kink.
    """
    pairs = []
    if math.isfinite(lo) and not math.isfinite(up):
        pairs.append((z - lo, f))
    elif math.isfinite(up) and not math.isfinite(lo):
        pairs.append((up - z, -f))
    elif math.isfinite(lo):
        pairs.append((up - z, -f))
        pairs.append((z - lo, -phi(kind, up - z, -f)))
    if kind is FB:
        return min((min(abs(a), abs(b)) for a, b in pairs), default=INF)
    return min((abs(b - a) for a, b in pairs), default=INF)


AWAY = 0.05
offsets = st.floats(0.25, 3.0).flatmap(lambda m: st.sampled_from([m, -m]))


@st.composite
def smooth_points(draw):
    """(problem with a nonlinear F, z, kind) with every phi argument AWAY from a kink."""
    kind = draw(st.sampled_from([FB, MP]))
    n = draw(st.integers(1, 5))
    z = draw(arrays(float, n, elements=st.floats(-3.0, 3.0)))
    f = np.array([draw(offsets) for _ in range(n)])
    lower, upper = np.full(n, -INF), np.full(n, INF)
    for i in range(n):
        cls = draw(st.sampled_from(BOUND_CLASSES))
        if cls in ("lower", "box"):
            lower[i] = z[i] - draw(offsets)
        if cls in ("upper", "box"):
            upper[i] = z[i] + draw(offsets)
        assume(lower[i] <= upper[i])
        assume(kink_distance(kind, lower[i], upper[i], z[i], f[i]) >= AWAY)
    m = draw(arrays(float, (n, n), elements=st.floats(-1.0, 1.0)))
    # F(y) = f + M (y - z) + 0.1 sin(y - z): value f at z, Jacobian M + 0.1 diag(cos)
    problem = MixedComplementarityProblem(
        n,
        lambda y: f + m @ (y - z) + 0.1 * np.sin(y - z),
        lambda y: m + np.diag(0.1 * np.cos(y - z)),
        lower=lower,
        upper=upper,
    )
    return problem, z, kind


@settings(max_examples=300, deadline=None)
@given(smooth_points())
def test_derivative_matches_central_differences_away_from_kinks(case):
    problem, z, kind = case
    jac = assemble_newton_derivative(problem, z, kind)
    fd = central_difference(lambda y: assemble_residual(problem, y, kind), z)
    assert np.abs(fd - jac).max() <= 1e-6 * max(1.0, np.abs(jac).max())
