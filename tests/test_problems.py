import numpy as np
import pytest

from deflated_newton import problems
from deflated_newton.problems import Benchmark, UnknownBenchmark
from deflated_newton.reformulate import NcpFunction, assemble_residual

SQRT6 = np.sqrt(6.0)

# every published (root, residual) pair of the three closed-form benchmarks
PUBLISHED = [
    ("kojima-shindoh", None, [1.0, 0.0, 3.0, 0.0], [0.0, 31.0, 0.0, 4.0]),
    ("kojima-shindoh", None, [SQRT6 / 2, 0.0, 0.0, 0.5], [0.0, 2.0 + SQRT6 / 2, 0.0, 0.0]),
    ("gould", None, [0.25, 0.5, 0.0, 0.0], [0.0, 0.0, 0.25, 0.25]),
    ("gould", None, [0.0, 0.5, 0.0, 0.0], [1.0, 0.0, 1.0, 0.5]),
    ("gould", None, [11 / 32, 15 / 32, 1 / 8, 0.0], [0.0, 0.0, 0.0, 3 / 16]),
    ("aggarwal", 1.0, [0.0, 1 / 20, 1 / 10, 0.0], [2.0, 0.0, 0.0, 0.25]),
    ("aggarwal", 1.0, [1 / 110, 4 / 110, 1 / 110, 4 / 110], [0.0, 0.0, 0.0, 0.0]),
    ("aggarwal", 1.0, [1 / 10, 0.0, 0.0, 1 / 20], [0.0, 0.25, 2.0, 0.0]),
]


@pytest.mark.parametrize("name,mu,root,value", PUBLISHED)
def test_published_residual_pairs(name, mu, root, value):
    prob = problems.build(name, mu=mu)
    computed = prob.residual(np.array(root))
    np.testing.assert_allclose(computed, value, rtol=0, atol=1e-12)


@pytest.mark.parametrize("name,mu,root,value", PUBLISHED)
def test_published_roots_solve_reformulation(name, mu, root, value):
    prob = problems.build(name, mu=mu)
    res = assemble_residual(prob, np.array(root), NcpFunction.FISCHER_BURMEISTER)
    assert np.linalg.norm(res) <= 1e-12


@pytest.mark.parametrize("name", ["kojima-shindoh", "gould", "aggarwal", "gerard"])
def test_analytic_jacobian_matches_finite_differences(name):
    prob = problems.build(name)
    rng = np.random.RandomState(hash(name) % 2**31)
    for _ in range(20):
        z = rng.uniform(0.1, 1.5, prob.dimension)
        jac = prob.derivative(z)
        fd = np.zeros_like(jac)
        base = prob.residual(z)
        for j in range(prob.dimension):
            h = 1e-7 * (1.0 + abs(z[j]))
            zp, zm = z.copy(), z.copy()
            zp[j] += h
            zm[j] -= h
            fd[:, j] = (prob.residual(zp) - prob.residual(zm)) / (2 * h)
        scale = max(1.0, np.linalg.norm(jac))
        assert np.linalg.norm(fd - jac) <= 1e-6 * scale, name
    assert base.shape == (prob.dimension,)


def test_dimensions_and_bounds():
    assert problems.build("kojima-shindoh").dimension == 4
    assert problems.build("gould").dimension == 4
    assert problems.build("aggarwal").dimension == 4
    gerard = problems.build("gerard")
    assert gerard.dimension == 10
    assert gerard.lower[9] == -np.inf  # certainty-equivalent variable is free
    assert (gerard.lower[:9] == 0.0).all()
    assert (gerard.upper == np.inf).all()


def test_aggarwal_parameter_hook():
    base = problems.build("aggarwal")
    assert base.parameter == 1.0
    scaled = problems.build("aggarwal", mu=0.5)
    z = np.array([0.1, 0.2, 0.3, 0.4])
    np.testing.assert_allclose(
        scaled.residual(z) + 1.0, 0.5 * (base.residual(z) + 1.0), atol=1e-15
    )


def test_mu_rejected_outside_aggarwal():
    with pytest.raises(ValueError):
        problems.build("gould", mu=0.5)


@pytest.mark.parametrize("mu", [np.nan, np.inf, -np.inf])
def test_non_finite_mu_rejected(mu):
    with pytest.raises(ValueError, match="mu must be finite"):
        problems.build("aggarwal", mu=mu)


@pytest.mark.parametrize("name", problems.list_benchmarks())
def test_registry_is_consistent(name):
    guess = problems.initial_guess(name)
    assert problems.dimension(name) == problems.build(name).dimension == len(guess)
    if problems.defaults(name).parameterized:
        assert problems.build(name, mu=0.5).parameter == 0.5
    else:
        with pytest.raises(ValueError, match="takes no parameter"):
            problems.build(name, mu=0.5)
    # the registry hands out copies, and a problem's bounds are read-only
    guess[:] = 123.0
    with pytest.raises(ValueError, match="read-only"):
        problems.build(name).lower[:] = 123.0
    assert not (problems.initial_guess(name) == 123.0).any()
    assert not (problems.build(name).lower == 123.0).any()


def test_unknown_benchmark():
    with pytest.raises(UnknownBenchmark):
        problems.build("lemke")


def test_registry_defaults():
    assert problems.defaults(Benchmark.GERARD).ncp is NcpFunction.MIN_MAX
    assert problems.defaults(Benchmark.GERARD).power == 1.0
    assert problems.defaults(Benchmark.GERARD).line_search is True
    assert problems.defaults(Benchmark.GERARD).least_squares_fallback is True
    for name in ("kojima-shindoh", "gould", "aggarwal"):
        rec = problems.defaults(name)
        assert rec.ncp is NcpFunction.FISCHER_BURMEISTER
        assert rec.power == 2.0 and rec.shift == 1.0
        assert rec.line_search is False and rec.least_squares_fallback is False
    assert problems.list_benchmarks() == ["kojima-shindoh", "gould", "aggarwal", "gerard"]


def test_initial_guesses():
    np.testing.assert_array_equal(problems.initial_guess("kojima-shindoh"), np.full(4, 0.7))
    np.testing.assert_array_equal(problems.initial_guess("gould"), [0.2, 0.2, 0.0, 0.0])
    np.testing.assert_array_equal(problems.initial_guess("aggarwal"), np.zeros(4))
    np.testing.assert_array_equal(problems.initial_guess("gerard"), np.zeros(10))


# Property test: the float-unpacked benchmark maps against the numpy-scalar
# formulas they replaced, kept here as the reference.  Python floats and
# numpy float64 scalars run the same IEEE operations, and ``**`` calls pow
# on both sides, so every entry must agree to the bit (-0.0 included).

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from deflated_newton.continuation import deflated_search  # noqa: E402


def reference_kojima_shindoh_f(z):
    z1, z2, z3, z4 = z
    return np.array(
        [
            3 * z1**2 + 2 * z1 * z2 + 2 * z2**2 + z3 + 3 * z4 - 6,
            2 * z1**2 + z2**2 + z1 + 10 * z3 + 2 * z4 - 2,
            3 * z1**2 + z1 * z2 + 2 * z2**2 + 2 * z3 + 9 * z4 - 9,
            z1**2 + 3 * z2**2 + 2 * z3 + 3 * z4 - 3,
        ]
    )


def reference_kojima_shindoh_jac(z):
    z1, z2 = z[0], z[1]
    return np.array(
        [
            [6 * z1 + 2 * z2, 2 * z1 + 4 * z2, 1.0, 3.0],
            [4 * z1 + 1, 2 * z2, 10.0, 2.0],
            [6 * z1 + z2, z1 + 4 * z2, 2.0, 9.0],
            [2 * z1, 6 * z2, 2.0, 3.0],
        ]
    )


def reference_gould_f(z):
    x1, x2, lam1, lam2 = z
    return np.array(
        [
            -4 * (x1 - 0.25) + 3 * lam1 + lam2,
            4 * (x2 - 0.5) + lam1 + lam2,
            1.5 - 3 * x1 - x2,
            1.0 - x1 - x2,
        ]
    )


def reference_gerard_f(z):
    x0, x11, x12, y1, y2, pi1, pi2, u4, u5, theta = z
    a1 = pi1 - 11.5 * x0
    a2 = pi2 - 11.5 * x0
    s1 = pi1 * (x0 + x11) - 5.75 * x0**2 - 0.5 * x11**2
    s2 = pi2 * (x0 + x12) - 5.75 * x0**2 - 1.75 * x12**2
    return np.array(
        [
            -(0.75 * a1 + 0.25 * a2) * u4 - (0.25 * a1 + 0.75 * a2) * u5,
            -(pi1 - x11) * (0.75 * u4 + 0.25 * u5),
            -(pi2 - 3.5 * x12) * (0.25 * u4 + 0.75 * u5),
            pi1 + 2 * y1 - 4.0,
            pi2 + 10 * y2 - 9.6,
            x0 + x11 - y1,
            x0 + x12 - y2,
            0.75 * s1 + 0.25 * s2 - theta,
            0.25 * s1 + 0.75 * s2 - theta,
            u4 + u5 - 1.0,
        ]
    )


def reference_gerard_jac(z):
    x0, x11, x12, y1, y2, pi1, pi2, u4, u5, theta = z
    a1 = pi1 - 11.5 * x0
    a2 = pi2 - 11.5 * x0
    jac = np.zeros((10, 10))
    jac[0, 0] = 11.5 * (u4 + u5)
    jac[0, 5] = -(0.75 * u4 + 0.25 * u5)
    jac[0, 6] = -(0.25 * u4 + 0.75 * u5)
    jac[0, 7] = -(0.75 * a1 + 0.25 * a2)
    jac[0, 8] = -(0.25 * a1 + 0.75 * a2)
    jac[1, 1] = 0.75 * u4 + 0.25 * u5
    jac[1, 5] = -(0.75 * u4 + 0.25 * u5)
    jac[1, 7] = -0.75 * (pi1 - x11)
    jac[1, 8] = -0.25 * (pi1 - x11)
    jac[2, 2] = 3.5 * (0.25 * u4 + 0.75 * u5)
    jac[2, 6] = -(0.25 * u4 + 0.75 * u5)
    jac[2, 7] = -0.25 * (pi2 - 3.5 * x12)
    jac[2, 8] = -0.75 * (pi2 - 3.5 * x12)
    jac[3, 3] = 2.0
    jac[3, 5] = 1.0
    jac[4, 4] = 10.0
    jac[4, 6] = 1.0
    jac[5, 0] = 1.0
    jac[5, 1] = 1.0
    jac[5, 3] = -1.0
    jac[6, 0] = 1.0
    jac[6, 2] = 1.0
    jac[6, 4] = -1.0
    ds1 = (pi1 - 11.5 * x0, pi1 - x11, 0.0, x0 + x11, 0.0)
    ds2 = (pi2 - 11.5 * x0, 0.0, pi2 - 3.5 * x12, 0.0, x0 + x12)
    for row, (w1, w2) in ((7, (0.75, 0.25)), (8, (0.25, 0.75))):
        jac[row, 0] = w1 * ds1[0] + w2 * ds2[0]
        jac[row, 1] = w1 * ds1[1]
        jac[row, 2] = w2 * ds2[2]
        jac[row, 5] = w1 * ds1[3]
        jac[row, 6] = w2 * ds2[4]
        jac[row, 9] = -1.0
    jac[9, 7] = 1.0
    jac[9, 8] = 1.0
    return jac


REFERENCE_MAPS = {
    "kojima-shindoh": (reference_kojima_shindoh_f, reference_kojima_shindoh_jac),
    "gould": (reference_gould_f, lambda z: problems._GOULD_JAC),
    "gerard": (reference_gerard_f, reference_gerard_jac),
}

# doubles whose pow(x, 2) differs from x * x in the last bit (about one in a
# thousand): a map that squared by multiplying would fail on these
_draws = np.random.RandomState(5).uniform(-2.0, 2.0, 50_000).tolist()
POW_SENSITIVE = [x for x in _draws if x**2 != x * x][:10]

# magnitudes up to 1e150 keep every product and square of the three maps
# finite; the strategy also draws signed zeros, subnormals and exact ties
unknowns = st.one_of(st.floats(-1e150, 1e150), st.sampled_from(POW_SENSITIVE or [0.5]))


@pytest.mark.parametrize("name", sorted(REFERENCE_MAPS))
@settings(max_examples=300, deadline=None)
@given(z=arrays(float, 10, elements=unknowns))
@example(z=np.resize(POW_SENSITIVE or [0.5], 10))
def test_float_maps_match_numpy_scalar_formulas_bitwise(name, z):
    prob = problems.build(name)
    z = z[: prob.dimension]
    reference_f, reference_jac = REFERENCE_MAPS[name]
    assert prob.residual(z).tobytes() == reference_f(z).tobytes()
    assert prob.derivative(z).tobytes() == reference_jac(z).tobytes()


def test_overflowing_start_ends_as_diverged_solve():
    # (1e200)**2 overflows: numpy scalars gave inf, a float power raises
    # OverflowError, which must still end the solve as diverged
    events = []
    found = deflated_search(problems.build("kojima-shindoh"), [np.full(4, 1e200)], events=events)
    assert len(found) == 0
    assert [(ev.kind, ev.status) for ev in events] == [("deflated-solve", "diverged")]
