"""Dense and banded linear kernels used by the Newton solvers.

Factorizations are LU with partial pivoting (LAPACK ``getrf``/``gbtrf``), and
rank-one updated systems ``(A + u w^T) x = b`` are solved with the
Sherman-Morrison formula so that deflation never requires refactorizing.

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

DEFAULT_PIVOT_TOL = 1e-14
DEFAULT_DENOM_TOL = 1e-14

_all_true = np.logical_and.reduce


def all_finite(a: np.ndarray) -> bool:
    """``np.isfinite(a).all()``, without numpy's Python wrapper around ``all``."""
    return bool(_all_true(np.isfinite(a), axis=None))


class SingularMatrix(Exception):
    """A solve was requested on a factorization flagged as singular."""


class SingularUpdate(Exception):
    """The Sherman-Morrison denominator 1 + w^T A^-1 u is numerically zero."""


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

    def copy(self) -> "BandedMatrix":
        return BandedMatrix(self.n, self.hbw, self.data.copy())

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        n, hbw = self.n, self.hbw
        out = np.zeros(n)
        for off in range(-hbw, hbw + 1):
            # off = j - i: superdiagonals have off > 0
            if off >= 0:
                out[: n - off] += self.data[hbw - off, off:] * v[off:]
            else:
                e = -off
                out[e:] += self.data[hbw + e, : n - e] * v[: n - e]
        return out

    def to_dense(self) -> np.ndarray:
        n, hbw = self.n, self.hbw
        dense = np.zeros((n, n))
        for off in range(-hbw, hbw + 1):
            if off >= 0:
                idx = np.arange(n - off)
                dense[idx, idx + off] = self.data[hbw - off, off:]
            else:
                e = -off
                idx = np.arange(n - e)
                dense[idx + e, idx] = self.data[hbw + e, : n - e]
        return dense

    def infinity_norm(self) -> float:
        n, hbw = self.n, self.hbw
        rows = np.zeros(n)
        for off in range(-hbw, hbw + 1):
            if off >= 0:
                rows[: n - off] += np.abs(self.data[hbw - off, off:])
            else:
                e = -off
                rows[e:] += np.abs(self.data[hbw + e, : n - e])
        return float(rows.max()) if n else 0.0

    def is_symmetric(self, tol: float = 1e-12) -> bool:
        scale = float(np.abs(self.data).max()) or 1.0
        for off in range(1, self.hbw + 1):
            upper = self.data[self.hbw - off, off:]
            lower = self.data[self.hbw + off, : self.n - off]
            if np.abs(upper - lower).max(initial=0.0) > tol * scale:
                return False
        return True

    def __sub__(self, other: "BandedMatrix") -> "BandedMatrix":
        if not isinstance(other, BandedMatrix) or other.hbw != self.hbw:
            return NotImplemented
        return BandedMatrix(self.n, self.hbw, self.data - other.data)

    def __mul__(self, scalar: float) -> "BandedMatrix":
        return BandedMatrix(self.n, self.hbw, self.data * float(scalar))

    __rmul__ = __mul__


@dataclass
class LuFactorization:
    """LU factors with partial pivoting plus a singularity flag.

    ``singular`` is set when any pivot magnitude falls below
    ``pivot_tol * max|A|``; solves on a singular factorization raise
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


def lu_factor(matrix, pivot_tol: float = DEFAULT_PIVOT_TOL) -> LuFactorization:
    """Factor a square dense or banded matrix with partial pivoting.

    Args:
        matrix: square ``np.ndarray`` or :class:`BandedMatrix`.
        pivot_tol: relative pivot threshold below which the factorization is
            flagged singular (relative to ``max|A|``).

    Returns:
        An :class:`LuFactorization`; check ``.singular`` before solving.
    """
    if isinstance(matrix, BandedMatrix):
        return _lu_factor_banded(matrix, pivot_tol)
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
    threshold = pivot_tol * scale
    singular = scale == 0.0 or any(map(threshold.__gt__, map(abs, lu.diagonal().tolist())))
    return LuFactorization(n, lu, piv, singular)


def _finite_scale(data: np.ndarray) -> float:
    """``max|A|`` for the pivot test; NaN or inf there means a bad entry."""
    scale = float(np.abs(data).max())
    if not math.isfinite(scale):
        raise ValueError("matrix entries must be finite")
    return scale


def _lu_factor_banded(matrix: BandedMatrix, pivot_tol: float) -> LuFactorization:
    n, hbw = matrix.n, matrix.hbw
    scale = _finite_scale(matrix.data) if n else 0.0
    # gbtrf wants hbw extra rows on top for pivoting fill-in; Fortran order
    # spares the wrapper a copy
    ab = np.zeros((3 * hbw + 1, n), order="F")
    ab[hbw:, :] = matrix.data
    lu, ipiv, info = lapack.dgbtrf(ab, kl=hbw, ku=hbw)
    if info < 0:
        raise ValueError(f"gbtrf failed on argument {-info}")
    diag = np.abs(lu[2 * hbw, :])
    singular = info > 0 or scale == 0.0 or bool((diag < pivot_tol * scale).any())
    return LuFactorization(n, lu, ipiv, singular, banded=True, hbw=hbw)


def solve_rank_one_update(
    fac: LuFactorization,
    u: np.ndarray,
    w: np.ndarray,
    b: np.ndarray,
    denom_tol: float = DEFAULT_DENOM_TOL,
) -> np.ndarray:
    """Solve ``(A + u w^T) x = b`` given a factorization of ``A``.

    Uses the Sherman-Morrison identity with two solves against ``fac``; for
    banded factors both go through one back-substitution with two
    right-hand sides, which gives the same bits as two separate solves.
    Raises :class:`SingularUpdate` when ``|1 + w^T A^-1 u|`` is below
    ``denom_tol``, i.e. the updated matrix is numerically singular.
    """
    if u is None:
        return fac.solve(b)
    if fac.banded:
        # the transpose of a C-ordered (2, n) array is Fortran-ordered, as
        # gbtrs wants its right-hand sides
        x, s = fac.solve(np.array([b, u], dtype=float).T).T
    else:
        # dense getrs with two right-hand sides rounds differently from two
        # single solves, and root discovery on some problems depends on that
        x = fac.solve(b)
        s = fac.solve(u)
    denom = 1.0 + float(w @ s)
    if abs(denom) < denom_tol:
        raise SingularUpdate(f"update denominator {denom:.3e} below {denom_tol:.1e}")
    return x - s * (float(w @ x) / denom)
