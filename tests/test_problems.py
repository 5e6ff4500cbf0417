import numpy as np
import pytest

from deflated_newton import problems
from deflated_newton.problems import Benchmark, UnknownBenchmark, gerard_prices
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
    # the registry hands out copies
    guess[:] = 123.0
    problems.build(name).lower[:] = 123.0
    assert not (problems.initial_guess(name) == 123.0).any()
    assert not (problems.build(name).lower == 123.0).any()


def test_unknown_benchmark():
    with pytest.raises(UnknownBenchmark):
        problems.build("lemke")


def test_registry_defaults():
    assert problems.defaults(Benchmark.GERARD).ncp is NcpFunction.MIN_MAX
    assert problems.defaults(Benchmark.GERARD).power == 1.0
    assert problems.defaults(Benchmark.GERARD).line_search
    for name in ("kojima-shindoh", "gould", "aggarwal"):
        rec = problems.defaults(name)
        assert rec.ncp is NcpFunction.FISCHER_BURMEISTER
        assert rec.power == 2.0 and rec.shift == 1.0
        assert not rec.line_search
    assert problems.list_benchmarks() == ["kojima-shindoh", "gould", "aggarwal", "gerard"]


def test_initial_guesses():
    np.testing.assert_array_equal(problems.initial_guess("kojima-shindoh"), np.full(4, 0.7))
    np.testing.assert_array_equal(problems.initial_guess("gould"), [0.2, 0.2, 0.0, 0.0])
    np.testing.assert_array_equal(problems.initial_guess("aggarwal"), np.zeros(4))
    np.testing.assert_array_equal(problems.initial_guess("gerard"), np.zeros(10))


def test_gerard_price_extraction():
    z = np.arange(10.0)
    assert gerard_prices(z) == (5.0, 6.0)
