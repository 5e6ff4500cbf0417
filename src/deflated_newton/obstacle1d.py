"""Obstacle-constrained linearized beam in one dimension.

A compressed rod pinned at both ends inside a channel |y| <= alpha, after
linearization for small rotations: minimize

    J(y) = int_0^L B (y'')^2 - P (y')^2 - rho g y dx,   |y| <= alpha a.e.

over y in H^2 with y(0) = y(L) = 0, L the length of the mesh.  The constraint
indicator is replaced by the quadratic penalty (gamma/2) int (y - alpha)_+^2
+ (-alpha - y)_+^2 dx, giving a semismooth residual whose roots approach the
constrained equilibria as gamma grows.  Discretization uses C^1 cubic Hermite
elements (value and slope unknowns per node); path-following drives gamma to
gamma_max with the mesh refined so that h <= 1/sqrt(gamma), deflating in the
L2 norm to collect distinct equilibria.  The search for new equilibria stays
on the mesh of the initial penalty: its roots are prolonged to the current
mesh and re-solved there, and nodal injection (:func:`restrict`) takes
branches the other way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from typing import Optional, Sequence

import numpy as np

from .continuation import AllBranchesLost, ContinuationStep, SearchLevel, SolutionSet, _emit
from .continuation import checked_guesses, deflated_continuation, unrooted
from .deflation import DeflationState, NormSpec
from .linalg import BandedMatrix, all_finite
from .solver import SolverConfig, check_count

# unused here, but the benchmark's layer trace patches these names on this module
from .continuation import deflated_search_callables, polish_root  # noqa: F401
from .solver import solve  # noqa: F401

HALF_BANDWIDTH = 3  # cubic Hermite couples the 4 unknowns of 2 adjacent nodes

# Absolute tolerance and divergence guard are anchored to the assembled
# operator scale: the bending block grows like B/h^3, so a fixed absolute
# tolerance cannot be satisfied in double precision on fine meshes.  The
# factor sits two orders above the observed rounding floor of a direct solve
# and several below the residual jump caused by one penalty update.
ATOL_SCALE_FACTOR = 30.0
DIVERGENCE_SCALE_FACTOR = 1e4

# A deflated solve on the beam that has found nothing new reaches its best
# residual within about ten iterations and then drifts away, so it is
# stopped once 25 iterations pass without halving its best residual.  The
# window counts the undeflated ||F|| = ||G|| / alpha (see SolverConfig): a
# search started next to a deflated root first escapes from it, and on
# each escape step ||G|| halves only because alpha falls.  The longest run
# of a converged deflated solve without halving its best ||F|| is 8
# iterations on the default path, 19 at gamma_max = 1e4, 21 at 3e5 and 13
# at 1e7, and branch re-solves (at most 4 iterations) cannot reach the
# window.  At gamma_max = 3e6 one converging solve goes 55 iterations
# without halving, so the path keeps only two of the three equilibria.
# The stop is not global: one Aggarwal search solve converges 297
# iterations after it last halved its best ||F||.
STALL_WINDOW = 25

PENALTY_STEPS = 9  # of the default schedule; the CLI's --q sets another ratio

# Largest final mesh :func:`path_follow` builds.  The mesh rule asks for
# about sqrt(gamma_max) elements, so without a cap a huge gamma_max (1e300
# asks for about 1e150) refines until memory runs out.  The `beam` command
# peaked at 262 MB of resident memory on a 65536-element path (gamma_max =
# 4.2e9), about 3.1 kB per element over the 60 MB of the bare interpreter,
# so the cap keeps a path to a few hundred MB.
MAX_ELEMENTS = 2**16

# Longest penalty schedule :func:`gamma_schedule` builds.  A ratio q just
# above 1 asks for log(gamma_max / gamma0) / log(q) steps, each a branch
# step of the path: q = 1.00001 from 10 to 1e6 asks for 1.15 million, and
# q = nextafter(1, 2) never reaches gamma_max, so the list grows until
# memory runs out.  The `beam` command took 92 s for the 1158 steps of
# q = 1.01 on 2 vCPUs, so the cap keeps a path under a quarter of an hour.
MAX_PENALTY_STEPS = 10_000

_GAUSS_XI, _GAUSS_W = np.polynomial.legendre.leggauss(4)
GAUSS_POINTS = 0.5 * (_GAUSS_XI + 1.0)
GAUSS_WEIGHTS = 0.5 * _GAUSS_W
_PATTERN_WEIGHTS = 1 << np.arange(4)  # active quadrature points -> pattern number
_PINNED = np.zeros(1)
# Element pairs (a, b), numbered 4a + b: the 12 off the left node, then the
# left node's own 4 (a, b < 2), and the two groups as slices of that order
_PAIR_ORDER = np.array([2, 3, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 0, 1, 4, 5])
_PAIR_GROUPS = (slice(0, 12), slice(12, 16))


@dataclass(frozen=True)
class BeamProblem:
    """B, P, rho g (``weight``) and alpha of the channel-constrained beam's J(y);
    the beam's length is the length of the mesh it is discretized on."""

    bending_stiffness: float = 1.0
    load: float = 10.4
    weight: float = 1.0
    half_width: float = 0.4

    def __post_init__(self):
        values = (self.bending_stiffness, self.load, self.weight, self.half_width)
        if not all(map(math.isfinite, values)):
            raise ValueError("beam data must be finite")
        if self.bending_stiffness <= 0 or self.half_width <= 0:
            raise ValueError("stiffness and channel half-width must be positive")


@dataclass(frozen=True)
class HermiteMesh1D:
    """Uniform 1D mesh carrying (value, slope) unknowns per node.

    The value unknowns at both end nodes are pinned (y = 0); slopes stay
    free, which leaves 2 * elements unknowns.
    """

    elements: int
    length: float = 1.0

    def __post_init__(self):
        check_count("mesh elements", self.elements)
        if not 0 < self.length < math.inf:
            raise ValueError("mesh length must be positive and finite")

    @property
    def h(self) -> float:
        return self.length / self.elements

    @property
    def num_nodes(self) -> int:
        return self.elements + 1

    @property
    def full_dofs(self) -> int:
        return 2 * self.num_nodes

    @property
    def dofs(self) -> int:
        return 2 * self.elements

    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.length, self.num_nodes)

    def free_indices(self) -> np.ndarray:
        return np.delete(np.arange(self.full_dofs), (0, 2 * self.elements))

    def refined(self) -> "HermiteMesh1D":
        return HermiteMesh1D(2 * self.elements, self.length)

    def full_vector(self, y: np.ndarray) -> np.ndarray:
        """The reduced unknowns ``y`` with the pinned end values (0) put back."""
        full = np.zeros(self.full_dofs)
        # the pinned values are the first and the last but one unknown
        full[1:-2], full[-1] = y[:-1], y[-1]
        return full

    def reduced_vector(self, full: np.ndarray) -> np.ndarray:
        """The free unknowns of ``full``: all but the pinned end values."""
        return np.concatenate((full[1:-2], full[-1:]))

    def node_columns(self, y: Sequence[float]) -> tuple[list, list]:
        """The value and slope columns of the nodes, as lists of the items of
        the reduced unknowns ``y`` with the pinned end values 0.0 put in."""
        return [0.0, *y[1:-1:2], 0.0], [*y[0::2], y[-1]]


def hermite_basis(h: float, xi: np.ndarray):
    """Cubic Hermite shape functions and x-derivatives at reference points.

    Returns (N, dN, d2N) of shape (4, len(xi)); slope unknowns carry the
    element length so that the interpolated function is
    y(xi) = y_L N1 + y'_L N2 + y_R N3 + y'_R N4.
    """
    xi = np.asarray(xi, dtype=float)
    n = np.vstack(
        [
            1.0 - 3.0 * xi**2 + 2.0 * xi**3,
            h * (xi - 2.0 * xi**2 + xi**3),
            3.0 * xi**2 - 2.0 * xi**3,
            h * (xi**3 - xi**2),
        ]
    )
    dn = np.vstack(
        [
            6.0 * (xi**2 - xi) / h,
            1.0 - 4.0 * xi + 3.0 * xi**2,
            6.0 * (xi - xi**2) / h,
            3.0 * xi**2 - 2.0 * xi,
        ]
    )
    d2n = np.vstack(
        [
            (12.0 * xi - 6.0) / h**2,
            (6.0 * xi - 4.0) / h,
            (6.0 - 12.0 * xi) / h**2,
            (6.0 * xi - 2.0) / h,
        ]
    )
    return n, dn, d2n


_OVERFLOW = "beam data overflow: the assembled operator or load is not finite"


class BeamDiscretization:
    """Assembled matrices and penalty evaluation for one problem and mesh."""

    def __init__(self, problem: BeamProblem, mesh: HermiteMesh1D):
        self.problem = problem
        self.mesh = mesh
        m, h = mesh.elements, mesh.h

        try:
            self.basis, self.basis_d1, self.basis_d2 = hermite_basis(h, GAUSS_POINTS)
        except OverflowError:  # h ** 2 past the double range
            raise ValueError(_OVERFLOW) from None
        self.quad_weights = GAUSS_WEIGHTS * h  # physical weights, same per element

        elem = np.arange(m)
        self.elem_dofs = 2 * elem[:, None] + np.arange(4)[None, :]  # full numbering

        self.free = mesh.free_indices()
        self.n = self.free.size
        freemap = np.full(mesh.full_dofs, -1, dtype=int)
        freemap[self.free] = np.arange(self.n)
        self._red = freemap[self.elem_dofs]  # (m, 4), -1 marks pinned unknowns

        # Element pair (a, b) lands at one flat band index; pairs on a pinned
        # unknown land in a spare slot past the band.  Block arrays hold the
        # pairs in ``_PAIR_ORDER``: all pairs off an element's left node,
        # then its left node's own pairs.  The two groups are added one after
        # the other, so an entry shared by two elements receives the left
        # element first, as when elements are accumulated one by one, and no
        # entry appears twice in one add.
        rows = np.repeat(self._red[:, :, None], 4, axis=2)
        cols = np.repeat(self._red[:, None, :], 4, axis=1)
        band_size = (2 * HALF_BANDWIDTH + 1) * self.n
        flat = np.where(
            (rows >= 0) & (cols >= 0), (HALF_BANDWIDTH + rows - cols) * self.n + cols, band_size
        ).reshape(m, 16)
        self._band_index = [np.ascontiguousarray(flat[:, _PAIR_ORDER[g]]) for g in _PAIR_GROUPS]

        # The penalty block of an element is active @ P over its quadrature
        # points, with P[q, 4a + b] = w_q N_a N_b the same for every element.
        # An element's active set is one of 16 patterns (bit q for point q),
        # so the blocks are tabulated once, summed over q in order.
        wn = self.basis * self.quad_weights
        products = (wn[:, None, :] * self.basis[None, :, :]).reshape(16, 4).T
        pattern_bits = (np.arange(16)[:, None] >> np.arange(4)) & 1
        table = np.zeros((16, 16))
        for q in range(4):
            table += pattern_bits[:, q : q + 1] * products[q]
        self._penalty_table = table[:, _PAIR_ORDER]

        wb = self.quad_weights
        # finite beam data can still overflow here; that is checked below
        with np.errstate(over="ignore", invalid="ignore"):
            ke = self.problem.bending_stiffness * (self.basis_d2 * wb) @ self.basis_d2.T
            ge = self.problem.load * (self.basis_d1 * wb) @ self.basis_d1.T
            me = (self.basis * wb) @ self.basis.T
            fe = self.problem.weight * self.basis @ wb

            self.stiffness = self._assemble_constant(ke)
            self.geometric = self._assemble_constant(ge)
            self.mass = self._assemble_constant(me)
            self.load_vector = self._scatter_vector(np.broadcast_to(fe, (m, 4)))
            self._linear = 2.0 * self.stiffness - 2.0 * self.geometric
            self.operator_scale = self._linear.infinity_norm()
        # a NaN or infinite entry makes its row sum, hence the scale, non-finite
        if not (math.isfinite(self.operator_scale) and all_finite(self.load_vector)):
            raise ValueError(_OVERFLOW)
        self._linear.data.flags.writeable = False
        self.mass_norm = NormSpec(self.mass)  # the L2 norm the beam deflates in

    def _assemble_constant(self, element_matrix: np.ndarray) -> BandedMatrix:
        block = element_matrix.reshape(16)[_PAIR_ORDER]
        blocks = np.broadcast_to(block, (self.mesh.elements, 16))
        return self._add_blocks(BandedMatrix.zeros(self.n, HALF_BANDWIDTH), blocks)

    def _add_blocks(self, base: BandedMatrix, blocks: np.ndarray, elements=slice(None)):
        """``base`` plus the (k, 16) element ``blocks`` of ``elements``, as a new matrix."""
        data = np.empty(base.data.size + 1)
        data[:-1] = base.data.ravel()
        for index, group in zip(self._band_index, _PAIR_GROUPS):
            at = index[elements]
            data[at] = data[at] + blocks[:, group]
        return BandedMatrix(self.n, HALF_BANDWIDTH, data[:-1].reshape(base.data.shape))

    def _scatter_vector(self, contrib: np.ndarray) -> np.ndarray:
        """Sum the (m, 4) element vectors ``contrib`` into the reduced unknowns.

        Element e adds its first two entries to node e and its last two to
        node e + 1.  An interior node gets 0.0 plus two terms, and such a
        sum does not depend on their order.
        """
        full = np.zeros(self.mesh.full_dofs)
        nodes = full.reshape(-1, 2)
        nodes[1:] += contrib[:, 2:]
        nodes[:-1] += contrib[:, :2]
        return full[self.free]

    def values_at_quadrature(self, y: np.ndarray) -> np.ndarray:
        """Trace of the finite element function at all quadrature points, (m, 4)."""
        return self._trace(self._checked(y))

    def _checked(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if y.shape != (self.n,):
            raise ValueError(f"y must have length {self.n}")
        return y

    def _trace(self, y: np.ndarray) -> np.ndarray:
        # a trailing zero stands in for the pinned unknowns (index -1)
        return np.concatenate((y, _PINNED))[self._red] @ self.basis

    def residual(self, gamma: float, y: np.ndarray) -> tuple[np.ndarray, Optional[tuple]]:
        """Weak-form residual of the penalized energy at y, and its point.

        The point, read by :meth:`derivative`, is the trace at y and whether
        all of it lies in the channel (a NaN value counts as outside); at
        gamma = 0 no trace is needed and the point is None.  With the trace
        inside and a finite gamma the penalty block adds only zeros, and
        adding a zero leaves the linear part as it is: that part is never
        -0.0, being a band sum started at +0.0 minus the load.  So the block
        is skipped then.
        """
        y = self._checked(y)
        out = self._linear.matvec(y)
        out -= self.load_vector
        if gamma == 0.0:
            return out, None
        yq = self._trace(y)
        alpha = self.problem.half_width
        inside = bool(yq.max() <= alpha and yq.min() >= -alpha)
        if not (inside and math.isfinite(gamma)):
            # how far each value lies above (+) or below (-) the channel:
            # yq minus its clip, the same bits as max(yq - alpha, 0) -
            # max(-alpha - yq, 0), and +0.0 inside
            overshoot = yq - np.minimum(np.maximum(yq, -alpha), alpha)
            contrib = (overshoot * self.quad_weights) @ self.basis.T
            out += gamma * self._scatter_vector(contrib)
        return out, (yq, inside)

    def derivative(self, gamma: float, point: Optional[tuple]) -> BandedMatrix:
        """Generalized derivative at the point :meth:`residual` returned.

        The linear part plus the active penalty mass; quadrature points
        sitting exactly on a bound count as inactive.  With none active the
        shared, read-only linear part is returned.
        """
        if point is None:  # gamma == 0
            return self._linear
        yq, inside = point
        if inside:
            return self._linear
        pattern = (np.abs(yq) > self.problem.half_width) @ _PATTERN_WEIGHTS
        hit = pattern.nonzero()[0]
        if hit.size == 0:
            return self._linear
        blocks = gamma * self._penalty_table[pattern[hit]]
        return self._add_blocks(self._linear, blocks, hit)

    def active_fraction(self, y: np.ndarray) -> float:
        yq = self.values_at_quadrature(y)
        alpha = self.problem.half_width
        return float(((yq > alpha) | (yq < -alpha)).mean())


@lru_cache(maxsize=16)
def _discretization(problem: BeamProblem, mesh: HermiteMesh1D) -> BeamDiscretization:
    return BeamDiscretization(problem, mesh)


def prolong(mesh: HermiteMesh1D, y: np.ndarray) -> np.ndarray:
    """Transfer reduced unknowns to the uniformly refined mesh.

    Nested refinement keeps the old nodes and adds element midpoints, where
    the cubic is evaluated exactly, so prolongation is exact for the
    represented function.
    """
    y_full = mesh.full_vector(y)

    # the shape functions and their derivatives at the midpoint, the exact
    # values :func:`hermite_basis` gives there
    h = mesh.h
    mid_n = np.array([0.5, h / 8.0, 0.5, -h / 8.0])
    mid_dn = np.array([-1.5 / h, -0.25, 1.5 / h, -0.25])
    elems = y_full[2 * np.arange(mesh.elements)[:, None] + np.arange(4)[None, :]]
    mid_values = elems @ mid_n
    mid_slopes = elems @ mid_dn

    fine = mesh.refined()
    fine_full = np.zeros(fine.full_dofs)
    fine_full[0::4] = y_full[0::2]  # old node values
    fine_full[1::4] = y_full[1::2]  # old node slopes
    fine_full[2::4] = mid_values
    fine_full[3::4] = mid_slopes
    return fine.reduced_vector(fine_full)


def prolong_to(mesh: HermiteMesh1D, fine: HermiteMesh1D, y: np.ndarray) -> np.ndarray:
    """Prolong reduced unknowns on ``mesh`` through each refinement up to ``fine``."""
    while mesh != fine:
        y, mesh = prolong(mesh, y), mesh.refined()
    return y


def restrict(mesh: HermiteMesh1D, coarse: HermiteMesh1D, y: np.ndarray) -> np.ndarray:
    """Inject reduced unknowns on ``mesh`` into a coarser mesh nested in it.

    The nodes of ``coarse`` are nodes of ``mesh``, and their (value, slope)
    pairs are copied.  Slope unknowns are physical derivatives, so this is
    exact at the coarse nodes and undoes :func:`prolong`.
    """
    nodes = mesh.full_vector(y).reshape(-1, 2)[:: mesh.elements // coarse.elements]
    return coarse.reduced_vector(nodes.ravel())


def gamma_schedule(gamma0: float, gamma_max: float, q: Optional[float] = None):
    """Geometric penalty schedule from gamma0 (exclusive) to gamma_max.

    Default ratio is (gamma_max / gamma0)^(1/PENALTY_STEPS); a custom ratio
    q > 1 runs until gamma_max, with the final value clipped to hit it
    exactly.  Raises ValueError unless gamma0 > 0 and gamma0, gamma_max and
    q are finite and the schedule has at most :data:`MAX_PENALTY_STEPS`
    steps, so a bad schedule fails before any mesh is built.
    """
    if not (math.isfinite(gamma0) and gamma0 > 0.0):
        raise ValueError("initial penalty gamma0 must be positive and finite")
    if not math.isfinite(gamma_max):
        raise ValueError("final penalty gamma_max must be finite")
    if q is not None and not math.isfinite(q):
        raise ValueError("penalty growth ratio must be finite")
    if gamma_max <= gamma0:
        return []
    if q is None:
        q = (gamma_max / gamma0) ** (1.0 / PENALTY_STEPS)
    if q <= 1.0:
        raise ValueError("penalty growth ratio must exceed 1")
    steps = (math.log(gamma_max) - math.log(gamma0)) / math.log(q)
    if steps > MAX_PENALTY_STEPS:
        raise ValueError(
            f"penalty growth ratio {q!r} needs about {steps:.0f} steps to reach gamma_max; "
            f"the cap is {MAX_PENALTY_STEPS}"
        )
    values = []
    g = gamma0
    while True:
        g *= q
        if g >= gamma_max * (1.0 - 1e-12):
            values.append(gamma_max)
            return values
        values.append(g)


def path_meshes(mesh: HermiteMesh1D, values: Sequence[float]) -> list[HermiteMesh1D]:
    """The mesh of each penalty in ``values`` on a path that starts on ``mesh``.

    Each mesh is the previous one (``mesh`` for the first) refined until
    h <= slack / sqrt(gamma), with slack 1 at the first penalty and
    1 + 1e-12 after it.  Only mesh sizes are computed; nothing is assembled.

    Raises:
        ValueError: the path would need more than :data:`MAX_ELEMENTS` elements.
    """
    meshes, fine = [], mesh
    for step, gamma in enumerate(values):
        slack = 1.0 if step == 0 else 1.0 + 1e-12
        while fine.elements <= MAX_ELEMENTS and fine.h > slack / math.sqrt(gamma):
            fine = fine.refined()
        if fine.elements > MAX_ELEMENTS:
            raise ValueError(
                f"a penalty path from {mesh.elements} elements to gamma = "
                f"{max(values):g} needs more than {MAX_ELEMENTS} elements (the cap)"
            )
        meshes.append(fine)
    return meshes


def beam_solver_config(disc: BeamDiscretization, base: Optional[SolverConfig] = None) -> SolverConfig:
    """Anchor the solver tolerances to the assembled operator scale.

    Also stops stalled solves after :data:`STALL_WINDOW` iterations unless
    ``base`` sets its own ``stall_window``.
    """
    cfg = base or SolverConfig()
    eps = float(np.finfo(float).eps)
    atol = max(cfg.atol, ATOL_SCALE_FACTOR * eps * disc.operator_scale)
    divergence = max(cfg.divergence_tol, DIVERGENCE_SCALE_FACTOR * disc.operator_scale)
    window = STALL_WINDOW if cfg.stall_window is None else cfg.stall_window
    return replace(cfg, atol=atol, divergence_tol=divergence, stall_window=window)


@dataclass
class PathState:
    """Final state of a penalty path: where it stopped and what it found."""

    gamma: float
    mesh: HermiteMesh1D
    solutions: SolutionSet


def path_follow(
    problem: BeamProblem,
    guesses: Optional[Sequence[np.ndarray]] = None,
    gamma0: float = 10.0,
    gamma_max: float = 1e6,
    q: Optional[float] = None,
    initial_mesh: HermiteMesh1D = HermiteMesh1D(64),
    deflation: Optional[DeflationState] = None,
    config: Optional[SolverConfig] = None,
    max_roots: Optional[int] = None,
    events: Optional[list] = None,
) -> PathState:
    """Collect distinct penalized equilibria and continue them to gamma_max.

    One :func:`~deflated_newton.continuation.deflated_continuation` over
    gamma0 and then the values of :func:`gamma_schedule`.  The mesh of each
    penalty is decided up front by :func:`path_meshes` (h <= 1/sqrt(gamma)),
    and each mesh is assembled once, in path order.  A step on a finer mesh
    prolongs the branches to it.  Each step deflates in the L2 norm of its
    mesh's mass matrix, with the power and shift of ``deflation`` (p=2,
    shift 1 by default).  Every step searches from the branch points and then
    from the pool, so equilibria that only appear at larger penalties are
    picked up; at gamma0 there are no branches yet, so that step is the
    search from the pool alone.  The pool holds the supplied guesses
    (default: the flat beam), given on the initial mesh and prolonged to
    the mesh of gamma0.

    Every search runs on that mesh of gamma0, with its own tolerances and
    mass norm.  On a step whose mesh is finer the branches are re-solved
    on the step's mesh, then restricted (:func:`restrict`) and re-solved
    again on the search mesh, where they are deflated.  A root the search
    finds there is prolonged to the step's mesh and re-solved, and is kept
    only when that converges to an equilibrium distinct from the branches.

    Args:
        initial_mesh: the mesh of the guesses; its length is the beam's.

    Returns:
        PathState with the solution set at gamma_max, deflated in the final
        mass norm; record parameters hold the penalty value at discovery.

    Raises:
        AllBranchesLost: no solution at the initial penalty, or every branch
            failed to re-converge at some step.
        ValueError: the penalty schedule is invalid (see :func:`gamma_schedule`),
            the final mesh would exceed :data:`MAX_ELEMENTS` elements (see
            :func:`path_meshes`), ``deflation`` holds roots or a norm weight,
            a guess does not have the length of the initial mesh's unknowns,
            or the beam data overflow the assembled operator or load; all but
            the last are raised before any assembly.
    """
    values = [gamma0] + gamma_schedule(gamma0, gamma_max, q)
    meshes = path_meshes(initial_mesh, values)
    operator = unrooted(deflation)
    if operator.norm.weight is not None:
        raise ValueError("each step deflates in its mesh's mass norm; give a norm without weight")
    n = initial_mesh.dofs
    pool = [np.zeros(n)] if guesses is None else checked_guesses(guesses, n)
    pool = [prolong_to(initial_mesh, meshes[0], guess) for guess in pool]  # emits no event
    discs = {mesh: _discretization(problem, mesh) for mesh in dict.fromkeys(meshes)}
    # step 0's mesh: every newcomer search runs on it, from the pool
    base = discs[meshes[0]]
    search_config = beam_solver_config(base, config)

    def step_at(step: int, gamma: float, branches: list) -> ContinuationStep:
        mesh, fine = meshes[max(step - 1, 0)], meshes[step]
        while mesh != fine:
            branches = [replace(rec, z=prolong(mesh, rec.z)) for rec in branches]
            mesh = mesh.refined()
            _emit(events, kind="refine", step=step, parameter=gamma,
                  detail=f"elements={mesh.elements}")
        at = discs[fine]
        search = None if at is base else SearchLevel(
            partial(base.residual, gamma), partial(base.derivative, gamma),
            search_config, base.mass_norm,
            lambda z: restrict(fine, base.mesh, z), lambda z: prolong_to(base.mesh, fine, z),
        )
        return ContinuationStep(
            partial(at.residual, gamma), partial(at.derivative, gamma),
            beam_solver_config(at, config), at.mass_norm, branches, pool,
            f"elements={fine.elements}", search,
        )

    solutions = deflated_continuation(values, step_at, operator, max_roots, events, "penalty")
    if len(solutions) == 0:  # only the search at gamma0 can end empty
        message = f"no solution found at the initial penalty {gamma0}"
        raise AllBranchesLost(message, solutions, None)
    return PathState(values[-1], meshes[-1], solutions)
