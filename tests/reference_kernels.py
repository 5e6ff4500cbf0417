"""The kernels that the banded Newton step and the JSON writer replaced.

Each function is the earlier implementation, kept as the reference that the
current kernels must match bit for bit.  ``install`` patches all of them
into the package, so a whole CLI run can be repeated on the reference code.
"""

import math

import numpy as np

from deflated_newton import cli, deflation, linalg, obstacle1d
from deflated_newton.cli import _format_number, _json_string
from deflated_newton.linalg import BandedMatrix, LuFactorization, lapack


def banded_matvec(matrix: BandedMatrix, v) -> np.ndarray:
    """One vector: the diagonals added one by one, lowest first."""
    v = np.asarray(v, dtype=float)
    n, hbw = matrix.n, matrix.hbw
    out = np.zeros(n)
    # the earlier loop assumed n > hbw; diagonals outside the matrix are skipped
    for off in range(-min(hbw, n - 1), min(hbw, n - 1) + 1):
        # off = j - i: superdiagonals have off > 0
        if off >= 0:
            out[: n - off] += matrix.data[hbw - off, off:] * v[off:]
        else:
            e = -off
            out[e:] += matrix.data[hbw + e, : n - e] * v[: n - e]
    return out


def lu_factor_banded(matrix: BandedMatrix, pivot_tol: float) -> LuFactorization:
    """A zeroed buffer, the band copied in, and a copying ``gbtrf``."""
    n, hbw = matrix.n, matrix.hbw
    scale = float(np.abs(matrix.data).max()) if n else 0.0
    if not math.isfinite(scale):
        raise ValueError("matrix entries must be finite")
    ab = np.zeros((3 * hbw + 1, n), order="F")
    ab[hbw:, :] = matrix.data
    lu, ipiv, info = lapack.dgbtrf(ab, kl=hbw, ku=hbw)
    if info < 0:
        raise ValueError(f"gbtrf failed on argument {-info}")
    diag = np.abs(lu[2 * hbw, :])
    singular = info > 0 or scale == 0.0 or bool((diag < pivot_tol * scale).any())
    return LuFactorization(n, lu, ipiv, singular, banded=True, hbw=hbw)


def deflation_terms(state, z):
    """One weighted norm, hence one matvec, per root."""
    alpha = 1.0
    distances, factors, weighted = [], [], []
    for root in state.roots:
        d, wv = state.norm.weigh(z - root)
        if d <= deflation.GUARD:
            raise deflation.AtDeflatedRoot(
                f"point within {deflation.GUARD:.1e} of a deflated root (d={d:.3e})"
            )
        m = d ** (-state.power) + state.shift
        alpha *= m
        distances.append(d)
        factors.append(m)
        weighted.append(wv)
    return deflation._Terms(alpha, distances, factors, weighted)


def gradient(state, z, terms) -> np.ndarray:
    p = state.power
    grad = np.zeros(z.shape)
    for wv, d, m in zip(terms.weighted, terms.distances, terms.factors):
        grad += (terms.alpha / m) * (-p) * wv / d ** (p + 2.0)
    return grad


def scatter_vector(disc, contrib) -> np.ndarray:
    """``bincount`` over the element unknowns, in element order."""
    full = np.bincount(
        disc.elem_dofs.ravel(), weights=contrib.ravel(), minlength=disc.mesh.full_dofs
    )
    return full[disc.free]


def values_at_quadrature(disc, y) -> np.ndarray:
    """The trace from ``np.append``, computed afresh on every call."""
    y = np.asarray(y, dtype=float)
    if y.shape != (disc.n,):
        raise ValueError(f"y must have length {disc.n}")
    return np.append(y, 0.0)[disc._red] @ disc.basis


def beam_residual(disc, gamma, y) -> np.ndarray:
    """The penalty block on every call, from separate upper and lower parts."""
    y = np.asarray(y, dtype=float)
    out = disc._linear.matvec(y) - disc.load_vector
    if gamma != 0.0:
        yq = values_at_quadrature(disc, y)
        alpha = disc.problem.half_width
        upper = np.maximum(yq - alpha, 0.0)
        lower = np.maximum(-alpha - yq, 0.0)
        contrib = ((upper - lower) * disc.quad_weights) @ disc.basis.T
        out += gamma * disc._scatter_vector(contrib)
    return out


def penalty_table(disc) -> np.ndarray:
    """Penalty block per pattern of active points, pairs (a, b) at column 4a + b."""
    wn = disc.basis * disc.quad_weights
    products = (wn[:, None, :] * disc.basis[None, :, :]).reshape(16, 4).T
    pattern_bits = (np.arange(16)[:, None] >> np.arange(4)) & 1
    table = np.zeros((16, 16))
    for q in range(4):
        table += pattern_bits[:, q : q + 1] * products[q]
    return table


def add_blocks(disc, base, blocks, elements) -> BandedMatrix:
    """Pairs off the left node for all elements, then the left node's pairs."""
    hbw, n = obstacle1d.HALF_BANDWIDTH, disc.n
    rows = np.repeat(disc._red[:, :, None], 4, axis=2)
    cols = np.repeat(disc._red[:, None, :], 4, axis=1)
    flat = np.where(
        (rows >= 0) & (cols >= 0), (hbw + rows - cols) * n + cols, (2 * hbw + 1) * n
    ).reshape(-1, 16)
    left = np.zeros((4, 4), dtype=bool)
    left[:2, :2] = True
    data = np.empty(base.data.size + 1)
    data[:-1] = base.data.ravel()
    for pairs in (np.flatnonzero(~left), np.flatnonzero(left)):
        data[flat[:, pairs][elements]] += blocks[:, pairs]
    return BandedMatrix(n, hbw, data[:-1].reshape(base.data.shape))


def beam_derivative(disc, gamma, y) -> BandedMatrix:
    """A fresh copy of the linear part when no point is active."""
    yq = values_at_quadrature(disc, y)
    alpha = disc.problem.half_width
    pattern = ((yq > alpha) | (yq < -alpha)) @ obstacle1d._PATTERN_WEIGHTS
    hit = np.flatnonzero(pattern)
    if gamma == 0.0 or hit.size == 0:
        return disc._linear.copy()
    blocks = gamma * penalty_table(disc)[pattern[hit]]
    return add_blocks(disc, disc._linear, blocks, hit)


def reference_write_json(obj, out, indent: int = 0) -> None:
    """Every value through its own write; keys quoted without escapes."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            out.write("{}")
            return
        out.write("{\n")
        for i, (key, value) in enumerate(obj.items()):
            out.write(f'{pad}  "{key}": ')
            reference_write_json(value, out, indent + 1)
            out.write(",\n" if i + 1 < len(obj) else "\n")
        out.write(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            out.write("[]")
            return
        out.write("[\n")
        for i, value in enumerate(obj):
            out.write(pad + "  ")
            reference_write_json(value, out, indent + 1)
            out.write(",\n" if i + 1 < len(obj) else "\n")
        out.write(pad + "]")
    elif isinstance(obj, str):
        escaped = obj.replace("\\", "\\\\").replace('"', '\\"')
        out.write(f'"{escaped}"')
    elif isinstance(obj, bool):
        out.write("true" if obj else "false")
    elif obj is None:
        out.write("null")
    elif isinstance(obj, (int, np.integer)):
        out.write(str(int(obj)))
    else:
        out.write(_format_number(float(obj)))


def write_json(obj, out, indent: int = 0) -> None:
    """The CLI writer before one-call float formatting: one call per number."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            out.write("{}")
            return
        out.write("{\n")
        for i, (key, value) in enumerate(obj.items()):
            out.write(f"{pad}  {_json_string(key)}: ")
            write_json(value, out, indent + 1)
            out.write(",\n" if i + 1 < len(obj) else "\n")
        out.write(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            out.write("[]")
            return
        if all(isinstance(value, float) for value in obj):
            sep = ",\n" + pad + "  "
            out.write("[\n" + pad + "  " + sep.join(map(_format_number, obj)) + "\n" + pad + "]")
            return
        out.write("[\n")
        for i, value in enumerate(obj):
            out.write(pad + "  ")
            write_json(value, out, indent + 1)
            out.write(",\n" if i + 1 < len(obj) else "\n")
        out.write(pad + "]")
    elif isinstance(obj, str):
        out.write(_json_string(obj))
    elif isinstance(obj, bool):
        out.write("true" if obj else "false")
    elif obj is None:
        out.write("null")
    elif isinstance(obj, (int, np.integer)):
        out.write(str(int(obj)))
    else:
        out.write(_format_number(float(obj)))


def install(monkeypatch) -> None:
    """Patch every reference kernel into the package for one test."""
    monkeypatch.setattr(BandedMatrix, "matvec", banded_matvec)
    monkeypatch.setattr(linalg, "_lu_factor_banded", lu_factor_banded)
    monkeypatch.setattr(deflation, "_deflation_terms", deflation_terms)
    monkeypatch.setattr(deflation, "_gradient", gradient)
    disc = obstacle1d.BeamDiscretization
    monkeypatch.setattr(disc, "_scatter_vector", scatter_vector)
    monkeypatch.setattr(disc, "values_at_quadrature", values_at_quadrature)
    monkeypatch.setattr(disc, "residual", beam_residual)
    monkeypatch.setattr(disc, "derivative", beam_derivative)
    monkeypatch.setattr(cli, "_write_json", write_json)
