"""The banded Newton kernels and the float writer against the code they replaced.

The references live in ``reference_kernels``; every comparison is on the
bits, signed zeros included.
"""

import io
import json
import math

import numpy as np
import pytest

import reference_kernels as ref
from deflated_newton.cli import _write_json, main
from deflated_newton.deflation import (
    AtDeflatedRoot,
    DeflationState,
    NormSpec,
    _deflation_terms,
    _gradient,
)
from deflated_newton.linalg import BandedMatrix, _lu_factor_banded
from deflated_newton.obstacle1d import (
    BeamDiscretization,
    BeamProblem,
    HermiteMesh1D,
    _discretization,
)
from deflated_newton.reformulate import NonFiniteResidual


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def awkward(rng, shape):
    """Magnitudes from 1e-100 to 1e100 of both signs, with +0.0, -0.0 and 1.0 mixed in."""
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-100, 101, shape)
    pick = rng.random(shape)
    x[pick < 0.1] = 0.0
    x[(pick >= 0.1) & (pick < 0.2)] = -0.0
    x[(pick >= 0.2) & (pick < 0.25)] = 1.0
    return x


@pytest.mark.parametrize("hbw", range(5))
def test_matvec_matches_diagonal_loop(hbw):
    rng = np.random.default_rng(hbw)
    for n in list(range(1, 12)) + [40, 129]:
        for _ in range(20):
            matrix = BandedMatrix(n, hbw, awkward(rng, (2 * hbw + 1, n)))
            stack = awkward(rng, (int(rng.integers(1, 5)), n))
            got = matrix.matvec(stack)
            for row, v in zip(got, stack):
                want = ref.banded_matvec(matrix, v)
                assert same_bits(matrix.matvec(v), want)
                assert same_bits(row, want)


@pytest.mark.parametrize("hbw", range(5))
def test_matvec_of_negative_zeros_is_positive_zero(hbw):
    # every product -0.0: the loop's sums start at +0.0 and end there
    for n in (1, 3, 12):
        matrix = BandedMatrix(n, hbw, np.ones((2 * hbw + 1, n)))
        zeros = np.full((2, n), -0.0)
        want = ref.banded_matvec(matrix, zeros[0])
        assert same_bits(want, np.zeros(n))
        assert same_bits(matrix.matvec(zeros[0]), want)
        assert same_bits(matrix.matvec(zeros), np.zeros((2, n)))


def test_matvec_of_large_stacks_and_special_values():
    # inf and NaN entries must land where the loop puts them
    rng = np.random.default_rng(7)
    n, hbw = 3000, 3
    data = awkward(rng, (2 * hbw + 1, n))
    data[2, 10], data[4, 500] = np.inf, np.nan
    matrix = BandedMatrix(n, hbw, data)
    stack = awkward(rng, (5, n))
    stack[1, 7] = -np.inf
    with np.errstate(invalid="ignore"):
        got = matrix.matvec(stack)
        for row, v in zip(got, stack):
            assert same_bits(row, ref.banded_matvec(matrix, v))


def test_infinity_norm_is_the_largest_absolute_row_sum():
    rng = np.random.default_rng(3)
    for n in range(1, 9):
        for hbw in range(5):
            matrix = BandedMatrix(n, hbw, rng.standard_normal((2 * hbw + 1, n)))
            dense = matrix.to_dense()
            want = max(math.fsum(abs(x) for x in row) for row in dense)
            assert matrix.infinity_norm() == pytest.approx(want, rel=1e-15)


@pytest.mark.parametrize("n", [1, 2, 5, 64, 513])
def test_staged_gbtrf_matches_the_copying_one(n):
    rng = np.random.default_rng(n)
    hbw = 3
    cases = [rng.standard_normal((2 * hbw + 1, n)), np.zeros((2 * hbw + 1, n))]
    singular = rng.standard_normal((2 * hbw + 1, n))
    singular[hbw, n // 2] = 0.0
    singular[:, n // 2] = 0.0  # a zero column
    cases.append(singular)
    for data in cases:
        matrix = BandedMatrix(n, hbw, data)
        got, want = _lu_factor_banded(matrix), ref.lu_factor_banded(matrix)
        assert same_bits(got.factors, want.factors)
        assert np.array_equal(got.pivots, want.pivots)
        assert got.singular == want.singular
    bad = BandedMatrix(n, hbw, cases[0].copy())
    bad.data[hbw, 0] = np.nan
    for factor in (_lu_factor_banded, ref.lu_factor_banded):
        with pytest.raises(ValueError, match="finite"):
            factor(bad)


def outcome(kernel, *args):
    """What ``kernel`` returns, or the type of the error it raises."""
    try:
        with np.errstate(all="ignore"):  # inf and NaN from the awkward values
            return kernel(*args)
    except (AtDeflatedRoot, NonFiniteResidual, OverflowError, ZeroDivisionError) as error:
        return type(error)


def same_outcome(a, b) -> bool:
    # the gradient kernel raises NonFiniteResidual where the reference
    # returns an inf or NaN entry or divides 0.0 by 0.0
    if a is NonFiniteResidual:
        return b is ZeroDivisionError if isinstance(b, type) else not np.isfinite(b).all()
    if isinstance(a, type) or isinstance(b, type):
        return a is b
    return same_bits(a, b)


@pytest.mark.parametrize("roots", range(5))
def test_banded_deflation_terms_and_gradient(roots):
    # both norms, one kernel: the stacked terms against one weighted norm per root
    disc = BeamDiscretization(BeamProblem(), HermiteMesh1D(16))
    rng = np.random.default_rng(roots)
    for norm in (NormSpec(), NormSpec(disc.mass)):
        for draw in (rng.standard_normal, lambda n: awkward(rng, n)):
            state = DeflationState(
                power=float(rng.choice([1.0, 2.0, 3.5])),
                shift=float(rng.choice([0.0, 1.0])),
                norm=norm,
                roots=[draw(disc.n) for _ in range(roots)],
            )
            points = [rng.standard_normal(disc.n) * 10.0 ** rng.integers(-3, 4) for _ in range(10)]
            # exact zeros in z - r_i: the gradient's signed zeros
            points += [root + (np.arange(disc.n) % 2 == 0) for root in state.roots]
            for z in points + [awkward(rng, disc.n) for _ in range(10)]:
                got, want = outcome(_deflation_terms, state, z), outcome(ref.deflation_terms, state, z)
                if isinstance(want, type):
                    assert got is want
                    continue
                assert same_bits([got.alpha], [want.alpha])
                assert same_bits(got.distances, want.distances)
                assert same_bits(got.factors, want.factors)
                assert len(got.weighted) == len(want.weighted)
                for row, wv in zip(got.weighted, want.weighted):
                    assert same_bits(row, wv)
                gradient = outcome(ref.gradient, state, want)
                if gradient is not OverflowError:  # d ** (p + 2) now reads inf there
                    assert same_outcome(outcome(_gradient, state, got), gradient)
            for root in state.roots:
                for kernel in (_deflation_terms, ref.deflation_terms):
                    with pytest.raises(AtDeflatedRoot):
                        kernel(state, root + 1e-12)


def test_scatter_matches_bincount():
    rng = np.random.default_rng(11)
    for elements in (1, 2, 3, 64):
        disc = BeamDiscretization(BeamProblem(), HermiteMesh1D(elements))
        contrib = awkward(rng, (elements, 4))
        assert same_bits(disc._scatter_vector(contrib), ref.scatter_vector(disc, contrib))


@pytest.mark.parametrize("elements", [1, 2, 3, 16])
def test_beam_residual_and_derivative_match_the_earlier_assembly(elements):
    rng = np.random.default_rng(elements)
    disc = BeamDiscretization(BeamProblem(), HermiteMesh1D(elements))
    for scale in (1e-3, 0.3, 1.0, 3.0):
        y = rng.standard_normal(disc.n) * scale
        # exactly on the channel wall: inactive
        y[0] = disc.problem.half_width
        for gamma in (0.0, 10.0, 1e6, -2.0, math.inf, math.nan):
            with np.errstate(invalid="ignore"):  # inf * 0 and inf - inf
                value, point = disc.residual(gamma, y)
                assert same_bits(value, ref.beam_residual(disc, gamma, y)[0])
                got, want = disc.derivative(gamma, point), ref.beam_derivative(disc, gamma, y)
            assert same_bits(got.data, want.data)
    y[1] = np.nan
    assert same_bits(disc.residual(10.0, y)[0], ref.beam_residual(disc, 10.0, y)[0])
    assert same_bits(disc.values_at_quadrature(y), ref.values_at_quadrature(disc, y))


def test_one_element_mesh_kernels_match_dense():
    # n = 2 unknowns, below the half bandwidth of 3
    disc = BeamDiscretization(BeamProblem(), HermiteMesh1D(1))
    assert disc.n == 2
    linear = (2.0 * disc.stiffness - 2.0 * disc.geometric).to_dense()
    assert disc.operator_scale == pytest.approx(np.abs(linear).sum(axis=1).max(), rel=1e-15)
    y = np.array([0.9, -1.3])
    penalty = disc.residual(1e3, y)[0] - (linear @ y - disc.load_vector)
    assert np.abs(penalty).max() > 0.0  # the slopes push the beam out of the channel
    np.testing.assert_allclose(disc.residual(0.0, y)[0], linear @ y - disc.load_vector, rtol=1e-14)
    jac = disc.derivative(1e3, disc.residual(1e3, y)[1])
    np.testing.assert_allclose(jac.matvec(y), jac.to_dense() @ y, rtol=1e-14)
    assert jac.infinity_norm() == pytest.approx(np.abs(jac.to_dense()).sum(axis=1).max(), rel=1e-15)


FLOATS = [0.0, -0.0, 1.0, -3.0, 1e16, 1e17, -1e17, 2.0**53, 5e-324, 1 / 3, 123.5, 1e300]


@pytest.mark.parametrize("extra", [[], [math.nan], [math.inf], [-math.inf]])
def test_float_writer_matches_the_per_number_writer(extra):
    values = FLOATS + extra
    rng = np.random.default_rng(len(extra))
    table = [list(rng.permutation(values)[:3]) for _ in range(700)] + [values]
    doc = {"z": values * 150, "nodes": table, "one": [[1.5]], "mixed": [[1.0], [2.0, 3.0]]}
    got, want = io.StringIO(), io.StringIO()
    _write_json(doc, got)
    ref.reference_write_json(doc, want)
    assert got.getvalue() == want.getvalue()
    json.loads(got.getvalue())


def run_cli(capsys, argv):
    _discretization.cache_clear()
    code = main(argv + ["--deterministic"])
    out, err = capsys.readouterr()
    return code, out


@pytest.mark.parametrize(
    "argv",
    [["beam", "--gamma-max", "1e3"], ["solve", "gerard"], ["solve", "kojima-shindoh"],
     ["solve", "gould"]],
    ids=["beam", "gerard", "kojima-shindoh", "gould"],
)
def test_cli_output_is_unchanged_on_the_reference_kernels(argv, capsys, monkeypatch):
    new = run_cli(capsys, argv)
    with monkeypatch.context() as patch:
        ref.install(patch)
        old = run_cli(capsys, argv)
    assert new[0] == old[0]
    assert new[1] == old[1]
