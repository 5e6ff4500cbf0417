"""Dense and banded linear kernels used by the Newton solvers.

Factorizations are LU with partial pivoting (LAPACK ``getrf``/``gbtrf``).
A deflated Newton system ``(s A + (r / s) w^T) x = r`` is solved with one
back-substitution against the factors of ``A``: its solution is a multiple
of ``A^-1 r``, so deflation needs neither a second factorization nor a
second solve.

Both kinds call the LAPACK wrappers directly: at the n = 4..10 of the
complementarity benchmarks, ``scipy.linalg.lu_factor``/``lu_solve`` spend
several times the cost of the LAPACK call in argument handling, and the
factors, pivots and solutions are the same bits either way.

The wrappers come from scipy's compiled ``scipy.linalg._flapack`` module,
loaded without running the ``scipy.linalg`` package: the extension itself
loads in milliseconds, while nearly all of the cost of ``import
scipy.linalg`` goes to Python modules this package never uses.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

_FLAPACK = "scipy.linalg._flapack"


def _load_lapack():
    """scipy's LAPACK wrappers, without importing ``scipy.linalg``.

    The extension is found in scipy's ``linalg`` directory (locating scipy
    does not import it) and registered in ``sys.modules`` under its own
    name, so a later ``import scipy.linalg`` reuses this module object and
    ``scipy.linalg.lapack.dgetrf`` is the very function used here.
    """
    module = sys.modules.get(_FLAPACK)
    if module is not None:
        return module
    scipy_spec = importlib.util.find_spec("scipy")
    locations = (scipy_spec and scipy_spec.submodule_search_locations) or []
    spec = importlib.machinery.PathFinder.find_spec(
        _FLAPACK, [os.path.join(path, "linalg") for path in locations]
    )
    if spec is None:
        from scipy.linalg import lapack

        return lapack
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[_FLAPACK] = module
    return module


lapack = _load_lapack()

PIVOT_TOL = 1e-14  # relative to max|A|: a smaller pivot flags the factors singular
DENOM_TOL = 1e-14
SYMMETRY_TOL = 1e-12  # relative to max|A|, for BandedMatrix.is_symmetric

_all_true = np.logical_and.reduce


def all_finite(a: np.ndarray) -> bool:
    """``np.isfinite(a).all()``, without numpy's Python wrapper around ``all``."""
    return bool(_all_true(np.isfinite(a), axis=None))


class SingularMatrix(Exception):
    """A solve was requested on a factorization flagged as singular, or on a
    rank-one updated system that is numerically singular."""


@dataclass
class BandedMatrix:
    """Square banded matrix with ``hbw`` sub- and superdiagonals.

    Storage follows ``scipy.linalg.solve_banded``: ``data[hbw + i - j, j]``
    holds entry ``(i, j)`` for ``|i - j| <= hbw``.  Instances are treated as
    immutable once assembled; arithmetic returns new matrices.
    """

    n: int
    hbw: int
    data: np.ndarray

    @classmethod
    def zeros(cls, n: int, hbw: int) -> "BandedMatrix":
        return cls(n, hbw, np.zeros((2 * hbw + 1, n)))

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """``A v`` for a vector ``v`` of length n, or row by row for a ``(k, n)`` stack."""
        return _band_product(self.data, self.hbw, np.asarray(v, dtype=float))

    def to_dense(self) -> np.ndarray:
        n, hbw = self.n, self.hbw
        dense = np.zeros((n, n))
        reach = min(hbw, n - 1)  # diagonals that fit in the matrix
        for off in range(-reach, reach + 1):
            if off >= 0:
                idx = np.arange(n - off)
                dense[idx, idx + off] = self.data[hbw - off, off:]
            else:
                e = -off
                idx = np.arange(n - e)
                dense[idx + e, idx] = self.data[hbw + e, : n - e]
        return dense

    def infinity_norm(self) -> float:
        # |a| * 1.0 is |a|, so these are the absolute row sums, in column order
        rows = _band_product(np.abs(self.data), self.hbw, np.ones(self.n))
        return float(rows.max()) if self.n else 0.0

    def is_symmetric(self) -> bool:
        scale = float(np.abs(self.data).max()) or 1.0
        for off in range(1, min(self.hbw, self.n - 1) + 1):
            upper = self.data[self.hbw - off, off:]
            lower = self.data[self.hbw + off, : self.n - off]
            if np.abs(upper - lower).max(initial=0.0) > SYMMETRY_TOL * scale:
                return False
        return True

    def __sub__(self, other: "BandedMatrix") -> "BandedMatrix":
        if not isinstance(other, BandedMatrix) or other.hbw != self.hbw:
            return NotImplemented
        return BandedMatrix(self.n, self.hbw, self.data - other.data)

    def __mul__(self, scalar: float) -> "BandedMatrix":
        return BandedMatrix(self.n, self.hbw, self.data * float(scalar))

    __rmul__ = __mul__


def _band_product(data: np.ndarray, hbw: int, v: np.ndarray) -> np.ndarray:
    """``A v`` from band storage, for one vector or a stack of vectors.

    Entry i is the sum of ``A[i, j] * v[j]`` over the band columns j in
    ascending order, starting from 0.0, as when the diagonals are added one
    by one.  The products ``data[r, j] * v[j]`` go, band rows in reverse
    order, into the rows of a grid with ``hbw`` zeros on either side; read
    with rows one place longer, grid row r shifts left by r, so column i of
    that window holds the terms of entry i, diagonals in order.  Places
    outside the matrix read an exact +0.0, which changes no partial sum: a
    sum started at +0.0 is never -0.0.
    """
    n = data.shape[1]
    rows, width = 2 * hbw + 1, n + 2 * hbw
    lead = v.shape[:-1]
    # zero-filled for the margins; the last ``rows`` places only complete
    # the window's shape, and none of them is read
    buffer = np.zeros(lead + (rows * (width + 1),))
    grid = buffer[..., : rows * width].reshape(lead + (rows, width))
    # a reversed output view is fast; a reversed input is not
    np.multiply(data, v[..., None, :], out=grid[..., ::-1, hbw : hbw + n])
    window = buffer.reshape(lead + (rows, width + 1))[..., :n]
    return np.add.reduce(window, axis=-2, initial=0.0)


@dataclass
class LuFactorization:
    """LU factors with partial pivoting plus a singularity flag.

    ``singular`` is set when any pivot magnitude falls below
    :data:`PIVOT_TOL` ``* max|A|``; solves on a singular factorization raise
    :class:`SingularMatrix`.  A factorization is read-only after
    construction and may be shared across threads for solves.
    """

    n: int
    factors: np.ndarray
    pivots: np.ndarray
    singular: bool
    banded: bool = False
    hbw: int = 0

    def solve(self, b: np.ndarray) -> np.ndarray:
        if self.singular:
            raise SingularMatrix("factorization is singular; cannot solve")
        b = np.asarray(b, dtype=float)
        if b.ndim == 0 or b.shape[0] != self.n:
            raise ValueError(f"right-hand side has shape {b.shape}, expected length {self.n}")
        if self.banded:
            x, info = lapack.dgbtrs(self.factors, self.hbw, self.hbw, b, self.pivots)
        else:
            x, info = lapack.dgetrs(self.factors, self.pivots, b)
        if info != 0:
            raise SingularMatrix(f"back-substitution failed (info={info})")
        return x


def lu_factor(matrix) -> LuFactorization:
    """Factor a square dense or banded matrix with partial pivoting.

    Args:
        matrix: square ``np.ndarray`` or :class:`BandedMatrix`.

    Returns:
        An :class:`LuFactorization`; check ``.singular`` before solving.
    """
    if isinstance(matrix, BandedMatrix):
        return _lu_factor_banded(matrix)
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n == 0:
        # getrf rejects an empty matrix (info = -4) and reports it on stderr
        return LuFactorization(0, a, np.zeros(0, dtype=np.int32), True)
    scale = _finite_scale(a)
    lu, piv, info = lapack.dgetrf(a)
    if info < 0:
        raise ValueError(f"getrf failed on argument {-info}")
    # any |U_ii| < threshold, on floats: a NaN pivot passes, as with numpy's <
    threshold = PIVOT_TOL * scale
    singular = scale == 0.0 or any(map(threshold.__gt__, map(abs, lu.diagonal().tolist())))
    return LuFactorization(n, lu, piv, singular)


def _finite_scale(data: np.ndarray) -> float:
    """``max|A|`` for the pivot test; NaN or inf there means a bad entry."""
    scale = float(np.abs(data).max())
    if not math.isfinite(scale):
        raise ValueError("matrix entries must be finite")
    return scale


def _lu_factor_banded(matrix: BandedMatrix) -> LuFactorization:
    n, hbw, data = matrix.n, matrix.hbw, matrix.data
    scale = _finite_scale(data) if n else 0.0
    # gbtrf wants hbw extra rows on top for pivoting fill-in; the band is
    # copied once into a Fortran-ordered buffer that gbtrf factors in place
    ab = np.zeros((3 * hbw + 1, n), order="F")
    ab[hbw:] = data
    lu, ipiv, info = lapack.dgbtrf(ab, kl=hbw, ku=hbw, overwrite_ab=1)
    if info < 0:
        raise ValueError(f"gbtrf failed on argument {-info}")
    # the smallest pivot magnitude, NaN pivots left out as numpy's < leaves them
    smallest = np.fmin.reduce(np.abs(lu[2 * hbw, :])) if n else math.inf
    singular = info > 0 or scale == 0.0 or bool(smallest < PIVOT_TOL * scale)
    return LuFactorization(n, lu, ipiv, singular, banded=True, hbw=hbw)


def solve_rank_one_update(
    fac: LuFactorization,
    scale: float,
    w: np.ndarray | None,
    r: np.ndarray,
) -> np.ndarray:
    """Solve ``(scale A + outer(r / scale, w)) x = r`` given a factorization of ``A``.

    With ``y = A^-1 r`` the solution is ``y / (scale + w^T y / scale)``;
    ``w = None`` means no rank-one part.  Raises :class:`SingularMatrix` when
    ``fac`` is singular or when ``|1 + w^T y / scale^2|`` is below
    :data:`DENOM_TOL`, i.e. the updated matrix is numerically singular.
    """
    if fac.singular:
        raise SingularMatrix("factorization is singular; cannot solve")
    y = fac.solve(r)
    shifted = scale if w is None else scale + float(w @ y) / scale
    if abs(shifted) < DENOM_TOL * abs(scale):
        raise SingularMatrix(f"update denominator {shifted / scale:.3e} below {DENOM_TOL:.1e}")
    return y / shifted
