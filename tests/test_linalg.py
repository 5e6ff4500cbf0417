import os
import subprocess
import sys
import textwrap
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla

import deflated_newton
from deflated_newton.linalg import (
    BandedMatrix,
    SingularMatrix,
    lu_factor,
    solve_rank_one_update,
)


def random_well_conditioned(rng, n, max_cond=1e6):
    """Random matrix with singular values spread below the condition cap."""
    q1, _ = np.linalg.qr(rng.randn(n, n))
    q2, _ = np.linalg.qr(rng.randn(n, n))
    sing = np.geomspace(1.0, 1.0 / np.sqrt(max_cond), n)
    return q1 @ np.diag(sing) @ q2


def test_identity_solve():
    fac = lu_factor(np.eye(3))
    b = np.array([1.0, 2.0, 3.0])
    assert not fac.singular
    np.testing.assert_allclose(fac.solve(b), b, rtol=0, atol=0)


def test_diagonal_solve():
    fac = lu_factor(np.array([[2.0, 0.0], [0.0, 4.0]]))
    np.testing.assert_allclose(fac.solve(np.array([2.0, 8.0])), [1.0, 2.0])


def test_random_solve_residual():
    rng = np.random.RandomState(0)
    a = random_well_conditioned(rng, 10)
    b = rng.randn(10)
    x = lu_factor(a).solve(b)
    assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_random_instances_residual_bound():
    rng = np.random.RandomState(1)
    for n in (3, 7, 20, 40):
        for _ in range(5):
            a = random_well_conditioned(rng, n)
            b = rng.randn(n)
            x = lu_factor(a).solve(b)
            assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_singular_flag_blocks_solve():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    fac = lu_factor(a)
    assert fac.singular
    with pytest.raises(SingularMatrix):
        fac.solve(np.ones(2))


def test_zero_matrix_is_singular():
    assert lu_factor(np.zeros((3, 3))).singular


def test_pivot_threshold_is_strict():
    assert not lu_factor(np.diag([1.0, 1e-8])).singular
    # a pivot exactly at PIVOT_TOL * max|A| passes
    at, below = np.diag([1.0, 1e-14]), np.diag([1.0, np.nextafter(1e-14, 0.0)])
    for kind in (lambda m: m, lambda m: banded_from_dense(m, 1)):
        assert not lu_factor(kind(at)).singular
        assert lu_factor(kind(below)).singular


def test_nonfinite_entries_rejected():
    # the finiteness check is the pivot scale max|A|; a NaN must not slip
    # past the max, on the diagonal or off it, in either kind of matrix
    for value in (np.nan, np.inf, -np.inf):
        for i, j in ((0, 1), (1, 1), (2, 1)):
            a = np.diag([4.0, 5.0, 6.0]) + np.diag([1.0, 1.0], 1)
            a[i, j] = value
            for matrix in (a, banded_from_dense(a, 1)):
                with pytest.raises(ValueError, match="finite"):
                    lu_factor(matrix)


def deflated_matrix(a, scale, w, r):
    """The Newton matrix ``scale A + outer(r / scale, w)`` that the rank-one solve inverts."""
    return scale * a + np.outer(r / scale, w)


def test_rank_one_zero_update_is_plain_solve():
    rng = np.random.RandomState(2)
    a = random_well_conditioned(rng, 5)
    b = rng.randn(5)
    fac = lu_factor(a)
    for w in (None, np.zeros(5)):
        np.testing.assert_array_equal(solve_rank_one_update(fac, 1.0, w, b), fac.solve(b))
    np.testing.assert_allclose(solve_rank_one_update(fac, 4.0, None, b), fac.solve(b) / 4.0)


def test_rank_one_matches_dense_assembly():
    rng = np.random.RandomState(3)
    a = random_well_conditioned(rng, 4)
    w, b = rng.randn(4), rng.randn(4)
    x = solve_rank_one_update(lu_factor(a), 2.5, w, b)
    expected = np.linalg.solve(deflated_matrix(a, 2.5, w, b), b)
    assert np.linalg.norm(x - expected) <= 1e-10 * np.linalg.norm(expected)


def test_rank_one_matches_dense_many():
    rng = np.random.RandomState(4)
    for _ in range(40):
        n = rng.randint(2, 12)
        a = random_well_conditioned(rng, n)
        scale = 10.0 ** rng.uniform(-3, 3)
        w, b = rng.randn(n), rng.randn(n)
        denom = 1.0 + w @ np.linalg.solve(a, b) / scale**2
        if abs(denom) < 1e-6:
            continue
        x = solve_rank_one_update(lu_factor(a), scale, w, b)
        full = deflated_matrix(a, scale, w, b)
        expected = np.linalg.solve(full, b)
        # a small scale makes the rank-one part, and the condition number, large
        bound = 1e-13 * np.linalg.cond(full) * (1.0 + 1.0 / abs(denom))
        assert np.linalg.norm(x - expected) <= bound * np.linalg.norm(expected)


def test_rank_one_singular_denominator():
    rng = np.random.RandomState(5)
    a = random_well_conditioned(rng, 4)
    b = rng.randn(4)
    y = np.linalg.solve(a, b)
    scale = 3.0
    w = -(scale**2) * y / (y @ y)  # makes 1 + w' A^-1 b / scale^2 vanish
    with pytest.raises(SingularMatrix, match="denominator"):
        solve_rank_one_update(lu_factor(a), scale, w, b)


def test_rank_one_on_singular_factors_raises():
    fac = lu_factor(np.zeros((3, 3)))
    with pytest.raises(SingularMatrix, match="singular"):
        solve_rank_one_update(fac, 2.0, np.ones(3), np.ones(3))


def banded_from_dense(a, hbw):
    n = a.shape[0]
    out = BandedMatrix.zeros(n, hbw)
    for i in range(n):
        for j in range(max(0, i - hbw), min(n, i + hbw + 1)):
            out.data[hbw + i - j, j] = a[i, j]
    return out


def random_banded_dense(rng, n, hbw):
    a = np.zeros((n, n))
    for i in range(n):
        for j in range(max(0, i - hbw), min(n, i + hbw + 1)):
            a[i, j] = rng.randn()
        a[i, i] += 4.0
    return a


def test_banded_roundtrip_and_matvec():
    rng = np.random.RandomState(6)
    a = random_banded_dense(rng, 12, 3)
    banded = banded_from_dense(a, 3)
    np.testing.assert_allclose(banded.to_dense(), a)
    v = rng.randn(12)
    np.testing.assert_allclose(banded.matvec(v), a @ v, atol=1e-13)
    assert banded.infinity_norm() == pytest.approx(np.abs(a).sum(axis=1).max())


def test_banded_factor_matches_dense():
    rng = np.random.RandomState(7)
    a = random_banded_dense(rng, 30, 3)
    b = rng.randn(30)
    x_banded = lu_factor(banded_from_dense(a, 3)).solve(b)
    x_dense = lu_factor(a).solve(b)
    np.testing.assert_allclose(x_banded, x_dense, atol=1e-12)


def test_banded_rank_one_update():
    rng = np.random.RandomState(8)
    a = random_banded_dense(rng, 20, 3)
    w, b = rng.randn(20), rng.randn(20)
    x = solve_rank_one_update(lu_factor(banded_from_dense(a, 3)), 0.5, w, b)
    expected = np.linalg.solve(deflated_matrix(a, 0.5, w, b), b)
    assert np.linalg.norm(x - expected) <= 1e-10 * np.linalg.norm(expected)


def test_banded_rank_one_update_at_beam_size():
    # the finest beam mesh: 1024 Hermite elements, 2048 unknowns, 3 off-diagonals
    n, hbw = 2048, 3
    rng = np.random.RandomState(n)
    data = rng.randn(2 * hbw + 1, n)
    data[hbw] += 8.0
    matrix = BandedMatrix(n, hbw, data)
    w, b = rng.randn(n) / n, rng.randn(n)
    for scale in (1e-3, 1.0, 1e3):
        x = solve_rank_one_update(lu_factor(matrix), scale, w, b)
        expected = np.linalg.solve(deflated_matrix(matrix.to_dense(), scale, w, b), b)
        assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)


def test_banded_singular_flag():
    banded = BandedMatrix.zeros(4, 1)
    assert lu_factor(banded).singular


def test_banded_arithmetic():
    rng = np.random.RandomState(9)
    a = random_banded_dense(rng, 9, 2)
    b = random_banded_dense(rng, 9, 2)
    ba, bb = banded_from_dense(a, 2), banded_from_dense(b, 2)
    np.testing.assert_allclose((ba - bb).to_dense(), a - b)
    np.testing.assert_allclose((2.5 * ba).to_dense(), 2.5 * a)


def test_factorization_shared_across_threads():
    # one factorization, many concurrent read-only solves
    rng = np.random.RandomState(10)
    a = random_well_conditioned(rng, 15)
    fac = lu_factor(a)
    rhs = [rng.randn(15) for _ in range(8)]
    results = [None] * len(rhs)

    def work(i):
        results[i] = fac.solve(rhs[i])

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(rhs))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for b, x in zip(rhs, results):
        assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)


# Property tests: the rank-one solve against a dense solve of
# scale A + outer(r / scale, w).

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

unit = st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False)


@st.composite
def rank_one_systems(draw):
    """(A as dense, A as passed to lu_factor, scale, w, r) with A diagonally dominant."""
    n = draw(st.integers(1, 8))
    hbw = draw(st.one_of(st.none(), st.integers(0, 3)))
    a = draw(arrays(float, (n, n), elements=unit))
    if hbw is not None:
        a = np.triu(np.tril(a, hbw), -hbw)
    a += np.diag(1.0 + np.abs(a).sum(axis=1))
    scale = draw(st.sampled_from([1.0, 1e-3, 1e3]))
    w, r = (draw(arrays(float, n, elements=unit)) for _ in range(2))
    matrix = a if hbw is None else banded_from_dense(a, hbw)
    return a, matrix, scale, w, r


@settings(max_examples=150, deadline=None)
@given(rank_one_systems())
def test_rank_one_update_matches_dense_solve(system):
    a, matrix, scale, w, r = system
    fac = lu_factor(matrix)
    denom = 1.0 + w @ np.linalg.solve(a, r) / scale**2
    assume(abs(denom) > 1e-6)
    full = deflated_matrix(a, scale, w, r)
    x = solve_rank_one_update(fac, scale, w, r)
    expected = np.linalg.solve(full, r)
    cond = np.linalg.cond(full)
    assert np.linalg.norm(x - expected) <= 1e-13 * cond * (1.0 + 1.0 / abs(denom)) * max(
        1.0, np.linalg.norm(expected)
    )


@settings(max_examples=100, deadline=None)
@given(rank_one_systems())
def test_rank_one_update_flags_singular_update(system):
    # w chosen so that w^T A^-1 r / scale^2 = -1: the deflated matrix is singular
    a, matrix, scale, _, r = system
    fac = lu_factor(matrix)
    y = fac.solve(r)
    assume(np.linalg.norm(y) > 1e-8)
    w = -(scale**2) * y / (y @ y)
    full = deflated_matrix(a, scale, w, r)
    smallest = np.linalg.svd(full, compute_uv=False)[-1]
    bound = scale * np.linalg.norm(a, 2) + np.linalg.norm(r / scale) * np.linalg.norm(w)
    assert smallest <= 1e-12 * bound
    with pytest.raises(SingularMatrix, match="denominator"):
        solve_rank_one_update(fac, scale, w, r)


# Property tests: the dense factorization calls LAPACK getrf/getrs directly
# and must give the bits of scipy.linalg.lu_factor/lu_solve.


@st.composite
def dense_systems(draw):
    """(A, b) with n = 1..12; A is general, exactly singular or all zero."""
    n = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["general", "zero-column", "repeated-row", "zero"]))
    a = draw(arrays(float, (n, n), elements=st.floats(-1e3, 1e3, allow_nan=False)))
    if kind == "zero-column":
        a[:, draw(st.integers(0, n - 1))] = 0.0
    elif kind == "repeated-row" and n > 1:
        i, j = draw(st.permutations(range(n)))[:2]
        a[j] = a[i]
    elif kind == "zero":
        a[:] = 0.0
    return a, draw(arrays(float, n, elements=unit))


@settings(max_examples=300, deadline=None)
@given(dense_systems())
def test_dense_lu_matches_scipy_bitwise(system):
    a, b = system
    fac = lu_factor(a)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sla.LinAlgWarning)  # exact zero pivots
        lu, piv = sla.lu_factor(a, check_finite=False)
    assert fac.factors.tobytes() == lu.tobytes()
    assert fac.pivots.tobytes() == piv.tobytes()
    if not np.abs(a).any():
        assert fac.singular
    if not fac.singular:
        x = sla.lu_solve((lu, piv), b, check_finite=False)
        assert fac.solve(b).tobytes() == x.tobytes()
        cols = np.stack([b, -2.0 * b], axis=1)
        assert fac.solve(cols).tobytes() == sla.lu_solve((lu, piv), cols).tobytes()


def test_empty_matrix_is_singular_and_silent(capfd):
    fac = lu_factor(np.zeros((0, 0)))
    assert fac.singular
    captured = capfd.readouterr()
    assert captured.out == "" and captured.err == ""


@pytest.mark.parametrize("banded", [False, True])
def test_wrong_rhs_length_raises(banded):
    a = np.diag([2.0, 3.0, 4.0])
    fac = lu_factor(banded_from_dense(a, 1) if banded else a)
    for b in (np.ones(2), np.ones(4), np.ones((2, 1)), np.float64(1.0)):
        with pytest.raises(ValueError):
            fac.solve(b)


# The LAPACK wrappers are loaded from scipy's compiled module without
# importing scipy.linalg; each check runs in a fresh interpreter, since this
# test process has long imported scipy.linalg.

ROUTINES = ("dgetrf", "dgetrs", "dgbtrf", "dgbtrs", "dpotrf", "dpbtrf")
SRC = str(Path(deflated_newton.__file__).resolve().parent.parent)


def run_python(code: str, tmp_path) -> str:
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_runs_never_import_scipy_linalg(tmp_path):
    out = run_python(
        """
        import sys
        from deflated_newton.cli import main
        assert main(["solve", "kojima-shindoh", "--deterministic", "--out", "solve.json"]) == 0
        assert main(["beam", "--gamma-max", "1e3", "--deterministic", "--out", "beam.json"]) == 0
        print(sorted(m for m in sys.modules if m.startswith(("scipy.linalg", "numpy.f2py"))))
        """,
        tmp_path,
    )
    assert out.strip() == "['scipy.linalg._flapack']"


@pytest.mark.parametrize("first", ["deflated_newton.linalg", "scipy.linalg"])
def test_loader_shares_scipy_lapack_functions(first, tmp_path):
    out = run_python(
        f"""
        import {first}
        import scipy.linalg
        import deflated_newton.linalg
        ours, theirs = deflated_newton.linalg.lapack, scipy.linalg.lapack
        print([getattr(ours, name) is getattr(theirs, name) for name in {ROUTINES!r}])
        """,
        tmp_path,
    )
    assert out.strip() == str([True] * len(ROUTINES))


SOLVE_BITS = textwrap.dedent(
    """
    import numpy as np
    from deflated_newton.linalg import BandedMatrix, lu_factor
    rng = np.random.RandomState(0)
    dense = rng.randn(9, 9) + 9.0 * np.eye(9)
    data = rng.randn(5, 40)
    data[2] += 8.0
    for matrix in (dense, BandedMatrix(40, 2, data)):
        fac = lu_factor(matrix)
        print(fac.factors.tobytes().hex(), fac.solve(rng.randn(fac.n)).tobytes().hex())
    """
)


def test_loader_falls_back_to_scipy_linalg(tmp_path):
    # the patched finder fails only the loader's own lookup: once the
    # scipy.linalg package is being imported, its import finds the module
    patch = textwrap.dedent(
        """
        import sys
        from importlib.machinery import PathFinder
        find_spec = PathFinder.find_spec

        def patched(name, path=None, target=None):
            if name == "scipy.linalg._flapack" and "scipy.linalg" not in sys.modules:
                return None
            return find_spec(name, path, target)

        PathFinder.find_spec = patched
        import deflated_newton.linalg
        assert "scipy.linalg" in sys.modules
        import scipy.linalg
        assert deflated_newton.linalg.lapack is scipy.linalg.lapack
        """
    )
    fallback = run_python(patch + SOLVE_BITS, tmp_path)
    assert fallback == run_python(SOLVE_BITS, tmp_path)
    assert len(fallback.splitlines()) == 2
