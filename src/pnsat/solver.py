"""Semi-discrete P_N operator with SAT boundary terms and Strang stepping.

State layout: one array per parity family (2^d families over the active
axes), shaped (family grid shape) + (number of family components,).  Each
family holds only the components of the reachable sector (see
:func:`sector`): the volume, boundary, penalty and relaxation terms
conserve the parity of every inactive axis, and every inflow depends only
on the direction component along its face normal, so the data reach just
the inactive-axis parity classes of the initial moments plus the all-even
class.  In 1-D every term also commutes with rotations about the active
axis, so each azimuthal mode about it evolves on its own, and a run keeps
only the modes its data reach.  A family's components are the orthonormal
columns of its :class:`Frame`: basis functions, or the harmonics of the
kept modes projected onto the basis, through which every operator, the
inflow moments and the initial data are projected.  tc1 (isotropic data,
N = 13) integrates the 14 P_l(omega_x) of the 196 components, an x-z run
with y-even data 105; a 3-axis run has no inactive axis and integrates the
full basis.  The transport increment for family a is

    du^a = - sum_d A^a_d (D_d u^{c_d(a)})  +  boundary SATs,

where A^a_d is the block of A^(d) coupling family a to its axis-d
complement and the SAT at a boundary node penalizes the residual of
u^o = +/- (L Ahat) u^e + g (or the half-moment matrix for unstable faces),
scaled by the inverse boundary norm entry.

Boundary set-up.  L and Ahat do not depend on the side, so each axis
assembles them once over all its odd and even positions with
:func:`pnsat.boundary.onsager_bc` on its high face; each odd family takes
its slice, and both faces share them (the low face negates M).
With the penalty tau^o = -alpha L^-1 the constant of the energy bound is
C = max(alpha, 1 - alpha) / lambda_min(L) per block, and since
g(t) = time_factor(t) (g_space (x) g_dir), the face norm of g is
time_factor(t)^2 times a sum fixed at set-up.  Each axis speed (the
largest singular value of its Ahat) is computed once and serves the CFL
step and the run metadata.

Time integration is Strang-split: exact half-step relaxation (the
scattering matrix is diagonal on the basis), a full transport step with
classical RK4, then the second relaxation half-step.  One buffered kernel
computes the differences, the moment coupling and the SAT terms; ``run``
steps in place with it, and :func:`rhs` and :func:`step_strang` run it on
fresh buffers.  Families and face blocks without components are skipped.

Kernel layout.  The state u and the RK4 quantities k, stage and acc are
each one flat contiguous array holding the families in order; the family
arrays are reshaped views of it, so every RK4 update is one array
operation on the whole state.  RK4 reads two buffers and writes two, so
the kernel binds two plans at construction, u -> acc and stage -> k: the
hi/lo slices of each staggered difference and its target, the coupling
blocks with -1/h folded in, and every face block's boundary slabs with
m_eff^T and the penalties already divided by the boundary norm entries.
Each SBP closure is one small dense product per grid end
(:class:`pnsat.sbp.ClosureCorner`) along the differenced axis.  An RHS
call is then a fixed list of subtractions, ``matmul`` calls and in-place
additions.

Norms.  :attr:`SolverSetup.shapes` and :attr:`SolverSetup.weights` hold
each family's state shape and its SBP norm table (the outer product of
its axis P entries, :meth:`pnsat.sbp.TensorGrid.weights`); :func:`inner`
is the one discrete inner product, and :func:`energy` and
:func:`mass_u00` read the same tables.
"""

from __future__ import annotations

import functools
import logging
import math
import time as _time
from dataclasses import dataclass

import numpy as np

from . import boundary as bnd
from .config import Scenario, face_key_to_dim_side
from .errors import NumericalError, ValidationError
from .moments import MomentBasis, PnSystem, assemble_transport, scattering_diagonal
from .sbp import SatPenalty, StaggeredGrid1d, TensorGrid, outer, sat_penalties
from .sphharm import axis_mode_signs, build_quadrature, eval_axis_modes, eval_basis

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Frame:
    """One family's integrated components: orthonormal columns over basis functions.

    ``rows`` are the flat basis positions the columns live on (the family's
    part of the reachable parity classes) and ``matrix`` (rows x columns)
    holds the columns.  A column is a basis function (an identity column,
    order -1) or, in a 1-D run, the degree-l harmonic of an azimuthal mode
    of order m about the active axis, projected onto the basis functions of
    its own degree and parity class.  ``degrees``, ``orders`` and ``signs``
    (3 x columns, per Cartesian axis) describe the columns; :attr:`size`
    is their number.
    """

    rows: np.ndarray
    matrix: np.ndarray
    degrees: np.ndarray
    orders: np.ndarray
    signs: np.ndarray

    @property
    def size(self) -> int:
        return self.matrix.shape[1]

    def project(self, mat: np.ndarray, right: "Frame") -> np.ndarray:
        """V^T mat W for a matrix over (self.rows, right.rows), W the right frame."""
        return self.matrix.T @ mat @ right.matrix

    def coefficients(self, flat: np.ndarray) -> np.ndarray:
        """Column coefficients of a flat-basis vector that lies in the span of the columns."""
        return self.matrix.T @ flat[self.rows]


@dataclass(frozen=True)
class FaceBlock:
    """BC data restricted to one odd family of one face, in the families' frames."""

    family_odd: tuple[str, ...]
    family_even: tuple[str, ...]
    m_eff: np.ndarray
    l_matrix: np.ndarray
    penalty: SatPenalty
    g_dir: np.ndarray
    g_space: np.ndarray  # transverse profile on the slab, shape = transverse grid
    has_source: bool  # by symmetry: an inflow, and a column even off the face axis and not a mode m > 0


@dataclass(frozen=True)
class FaceData:
    dim: int
    side: str
    axis: int
    kind: str
    alpha: float
    inflow: object
    blocks: tuple[FaceBlock, ...]
    source_norm_sq: float  # ||g||^2 at time factor 1: sum over blocks of (sum w g_space^2)(g_dir . g_dir)
    c_constant: float | None

    @property
    def boundary_index(self) -> int:
        return 0 if self.side == "low" else -1


@dataclass
class SolverSetup:
    scenario: Scenario
    basis: MomentBasis
    system: PnSystem
    tensor: TensorGrid
    comps: dict  # per family: its Frame; comps[a].size components are integrated
    modes: tuple | None  # 1-D: the kept azimuthal modes (m, "cos" | "sin") about the active axis
    a_blocks: dict
    q_relax: dict  # per family: the relaxation rate of each column, sigma_l - sigma_t at its degree
    faces: tuple[FaceData, ...]
    speeds: dict  # per active axis: the largest singular value of its Ahat

    @property
    def families(self):
        return self.tensor.families

    @property
    def max_speed(self) -> float:
        return max(self.speeds.values())

    @property
    def n_components(self) -> int:
        """Number of components integrated, summed over the families."""
        return sum(c.size for c in self.comps.values())

    @functools.cached_property
    def shapes(self) -> dict:
        """Per family: the shape of its state array, its grid shape + (components,)."""
        return {a: self.tensor.family_shape(a) + (self.comps[a].size,) for a in self.families}

    @functools.cached_property
    def weights(self) -> dict:
        """Per family with components: its SBP norm table, flattened over the grid."""
        return {a: self.tensor.weights(a).ravel() for a in self.families if self.comps[a].size}

    def dt_stable(self) -> float:
        h_min = min(g.h for g in self.tensor.grids)
        return self.scenario.cfl * h_min / sum(self.speeds.values())


def _mode_classes(axis: int, n_max: int) -> dict:
    """The parity class of each azimuthal mode (m, trig) about ``axis``, m <= n_max.

    A class is the mode's parity signs on the two other axes, in axis
    order; they depend only on the parity of m and the trig kind, not on
    the degree.  Modes come in order of m, cos before sin.
    """
    kinds, classes = {}, {}
    for m, trig in [(0, "cos")] + [(m, trig) for m in range(1, n_max + 1) for trig in ("cos", "sin")]:
        if (m % 2, trig) not in kinds:
            signs = axis_mode_signs(axis, m, m, trig)
            kinds[(m % 2, trig)] = tuple(signs[ax - 1] for ax in (1, 2, 3) if ax != axis)
        classes[(m, trig)] = kinds[(m % 2, trig)]
    return classes


def sector(scenario: Scenario, basis: MomentBasis) -> tuple[np.ndarray, tuple | None]:
    """The part of the basis the scenario's data can reach: (flat mask, modes).

    The mask holds the components whose parity class over the inactive axes
    is the all-even class (which holds u00 and every inflow) or the class of
    a non-zero initial moment amplitude.  In a 1-D run every term also
    commutes with rotations about the active axis, so each azimuthal mode
    (m, "cos" | "sin") about it evolves on its own: the run keeps (0, cos),
    which holds u00 and every inflow, and for each non-zero initial moment
    of degree l every mode m <= l of that moment's class.  In 2-D and 3-D
    the modes are None.
    """
    inactive = [ax for ax in (1, 2, 3) if ax not in scenario.axes]
    if not inactive:
        return np.ones(basis.dim, dtype=bool), None
    classes = np.stack([basis.parity.signs[ax - 1] for ax in inactive], axis=-1)
    amps = scenario.initial.moment_amplitudes(scenario.n_max)
    nonzero = [flat for flat, amp in amps.items() if amp != 0.0]
    reached = [np.ones(len(inactive), dtype=int)] + [classes[flat] for flat in nonzero]
    mask = np.any([np.all(classes == c, axis=-1) for c in reached], axis=0)
    if len(inactive) == 1:
        return mask, None
    (axis,) = scenario.axes
    top = {(1, 1): 0}  # per class: the highest degree the data hold
    for flat in nonzero:
        c = tuple(int(s) for s in classes[flat])
        top[c] = max(top.get(c, 0), basis.indices[flat].l)
    modes = tuple(mode for mode, c in _mode_classes(axis, basis.n_max).items() if mode[0] <= top.get(c, -1))
    return mask, modes


def component_frames(scenario: Scenario, basis: MomentBasis, mask: np.ndarray, modes: tuple | None) -> dict:
    """Per family: the Frame of its integrated components.

    The columns are the basis functions in ``mask``, except in a 1-D parity
    class of which some modes up to N are not kept: there they are the
    degree-l harmonics of the class's kept modes, degrees m..N.  Only then is
    a full-sphere rule built: the harmonics are projected onto the basis on
    it (exact, as the products have degree 2l <= 2N), set to exact zero
    outside their own degree and parity class, which rotation about the axis
    preserves, and scaled to unit norm.  Columns are ordered by degree, basis
    functions before modes, so the l = 0 column comes first in the all-even
    family.
    """
    parity = np.stack(basis.parity.signs)  # (3, m)
    degrees = np.repeat(np.arange(basis.n_max + 1), 2 * np.arange(basis.n_max + 1) + 1)
    basis_cols = mask.copy()
    mode_cols = []
    if modes is not None:
        (axis,) = scenario.axes
        inactive = [ax - 1 for ax in (1, 2, 3) if ax != axis]
        kept, every = {}, {}
        for mode, c in _mode_classes(axis, basis.n_max).items():
            every.setdefault(c, []).append(mode)
            if mode in modes:
                kept.setdefault(c, []).append(mode)
        for c, ms in kept.items():
            if ms != every[c]:
                basis_cols &= ~np.all(parity[inactive].T == c, axis=-1)
                mode_cols += [(l, m, trig) for m, trig in ms for l in range(m, basis.n_max + 1)]
    # every column over the whole basis, with its degree, order and parity signs
    flats = np.nonzero(basis_cols)[0]
    columns = np.zeros((basis.dim, flats.size + len(mode_cols)))
    columns[flats, np.arange(flats.size)] = 1.0
    col_degrees = np.concatenate([degrees[flats], [l for l, _, _ in mode_cols]]).astype(int)
    col_orders = np.concatenate([np.full(flats.size, -1), [m for _, m, _ in mode_cols]]).astype(int)
    col_signs = parity[:, flats]
    if mode_cols:
        mode_signs = np.array([axis_mode_signs(axis, *col) for col in mode_cols]).T
        col_signs = np.concatenate([col_signs, mode_signs], axis=1)
        need = np.nonzero(mask & ~basis_cols)[0]  # the basis functions of the mode classes
        quad = build_quadrature(basis.n_max)
        modes_at_nodes = eval_axis_modes(basis.n_max, axis, mode_cols, quad.nodes)
        proj = eval_basis(basis.n_max, quad.nodes)[:, need].T @ (quad.weights[:, None] * modes_at_nodes)
        own = (degrees[need, None] == col_degrees[flats.size:]) & np.all(
            parity[:, need, None] == mode_signs[:, None, :], axis=0)
        proj[~own] = 0.0
        columns[need, flats.size:] = proj / np.linalg.norm(proj, axis=0)
    # by degree, then basis functions (in flat order) before modes (in mode_cols order)
    order = np.lexsort((np.arange(columns.shape[1]), col_orders >= 0, col_degrees))
    frames = {}
    for a, idx in basis.family_indices(scenario.axes).items():
        rows = idx[mask[idx]]
        mine = np.all([(col_signs[ax - 1] < 0) == (p == "o") for ax, p in zip(scenario.axes, a)], axis=0)
        sel = order[mine[order]]
        frames[a] = Frame(
            rows, columns[np.ix_(rows, sel)], col_degrees[sel], col_orders[sel], col_signs[:, sel]
        )
    return frames


def build_setup(scenario: Scenario) -> SolverSetup:
    """Assemble a scenario's operators in the frames of its reachable components.

    The transport blocks, L, Ahat, M, the penalties, the inflow moments and
    (in :func:`initial_state`) the initial data are projected through each
    family's :class:`Frame`; relaxation stays diagonal.  The CFL step, the
    axis speeds and the constant C of the energy bound come from the
    unreduced operators (the full Ahat and the parity-sector L), so they do
    not depend on the reduction.
    """
    basis = MomentBasis.build(scenario.n_max)
    system = assemble_transport(basis)
    grids = tuple(
        StaggeredGrid1d(lo, hi, c) for (lo, hi), c in zip(scenario.extents, scenario.cells)
    )
    tensor = TensorGrid.build(scenario.axes, grids)
    mask, modes = sector(scenario, basis)
    comps = component_frames(scenario, basis, mask, modes)
    parity = np.stack(basis.parity.signs)
    a_blocks = {}
    for a in tensor.families:
        for d, axis in enumerate(scenario.axes):
            fa, fc = comps[a], comps[tensor.complement(a, d)]
            block = fa.project(system.a_full[axis - 1][np.ix_(fa.rows, fc.rows)], fc)
            # transposed dense block: BLAS-friendly as (nodes, m_c) @ (m_c, m_a)
            a_blocks[(a, d)] = np.ascontiguousarray(block.T)
    # sigma_l - sigma_t depends on the degree only: read it at (l, 0)
    q_flat = scattering_diagonal(scenario.scattering, basis)
    q_relax = {a: q_flat[f.degrees * (f.degrees + 1)] for a, f in comps.items()}

    faces = []
    shared = {}  # per axis: its half-sphere rule and, per odd family, its slice of the high face's Onsager blocks
    for (d, side), spec in scenario.faces.items():
        axis = scenario.axes[d]
        face = bnd.Face(axis, side)
        if axis not in shared:
            high = bnd.Face(axis, "high")
            q_out = bnd.outgoing_quadrature(basis, high)
            full = bnd.onsager_bc(basis, high, system, quad=q_out)  # every odd row, every even column
            odd, even = basis.odd_positions(axis), basis.even_positions(axis)
            onsager = {}
            for a in tensor.families:
                fo, fe = comps[a], comps[tensor.complement(a, d)]
                if a[d] == "o" and fo.size and fe.size:
                    ro, re = np.searchsorted(odd, fo.rows), np.searchsorted(even, fe.rows)
                    oe = np.ix_(ro, re)
                    bc = bnd.OnsagerBoundary(
                        high, full.l_matrix[np.ix_(ro, ro)], full.a_hat[oe], full.m_matrix[oe]
                    )
                    onsager[a] = (
                        bc, oe, fo.project(bc.l_matrix, fo), fo.project(bc.a_hat, fe), fo.project(bc.m_matrix, fe)
                    )
            shared[axis] = q_out, onsager
        q_out, onsager = shared[axis]
        q_in = bnd.inflow_quadrature(basis, face) if spec.inflow.kind != "none" else None
        marshak = bnd.marshak_matrix(basis, face, quad=q_out) if spec.kind == "unstable_marshak" else None
        off_axis = [ax - 1 for ax in (1, 2, 3) if ax != axis]
        blocks = []
        source_norm_sq = 0.0
        for a, (bc, oe, l_mat, a_hat, m_mat) in onsager.items():
            ae = tensor.complement(a, d)
            fo, fe = comps[a], comps[ae]
            if marshak is not None:
                m_eff = fo.project(marshak[oe], fe)
            else:
                m_eff = face.sign * m_mat  # M = sign * L Ahat: L and Ahat are side-independent
            pen = sat_penalties(l_mat, a_hat, spec.alpha, side)
            # an inflow depends on omega only through omega_axis, so its moments
            # vanish on columns odd in any other axis and on modes about the axis
            # of order m > 0
            sourced = np.all(fo.signs[off_axis] > 0, axis=0) & (fo.orders <= 0)
            has_source = spec.inflow.kind != "none" and bool(sourced.any())
            g_dir = np.zeros(fo.size)
            if has_source:
                even_rows = np.all(parity[np.ix_(off_axis, fo.rows)] > 0, axis=0)
                g_dir[sourced] = fo.matrix[np.ix_(even_rows, sourced)].T @ bnd.boundary_source(
                    face,
                    lambda om: spec.inflow.amplitude
                    * spec.inflow.direction_profile(om, axis, face.sign),
                    basis,
                    quad=q_in,
                    rows=fo.rows[even_rows],
                )
            g_space = outer([
                spec.inflow.spatial_profile(tensor.axis_nodes(j, a[j]))
                for j in range(tensor.ndim) if j != d
            ])
            blocks.append(FaceBlock(a, ae, m_eff, l_mat, pen, g_dir, g_space, has_source))
            if has_source:
                w = tensor.boundary_weight(a, d)
                source_norm_sq += float(np.sum(w * g_space * g_space)) * float(g_dir @ g_dir)
        c_const = None
        if spec.kind == "onsager" and onsager:
            # tau^o = -alpha L^-1, so per block ||tau^o|| = alpha / l_min and
            # ||L^-1 + tau^o^T|| = (1 - alpha) / l_min; l_min of the parity-sector L
            c_const = max(spec.alpha, 1.0 - spec.alpha) / min(bc.l_min for bc, *_ in onsager.values())
        faces.append(FaceData(
            d, side, axis, spec.kind, spec.alpha, spec.inflow, tuple(blocks), source_norm_sq, c_const
        ))
    return SolverSetup(
        scenario=scenario,
        basis=basis,
        system=system,
        tensor=tensor,
        comps=comps,
        modes=modes,
        a_blocks=a_blocks,
        q_relax=q_relax,
        faces=tuple(faces),
        speeds={ax: system.max_speed(ax) for ax in scenario.axes},
    )


# ---------------------------------------------------------------------------
# state


def zero_state(setup: SolverSetup) -> dict:
    return {a: np.zeros(shape) for a, shape in setup.shapes.items()}


def initial_state(setup: SolverSetup, out: dict | None = None) -> dict:
    """Populate the family arrays from the scenario's initial spec.

    The initial moments are projected through each family's frame.  Writes
    into ``out`` (a dict of family arrays, zeroed first) when given, so a
    run fills its stepper's own buffer; otherwise into a new zero state.
    """
    sc = setup.scenario
    if out is None:
        state = zero_state(setup)
    else:
        state = out
        for v in state.values():
            v.fill(0.0)
    amps = np.zeros(setup.basis.dim)
    for flat, amp in sc.initial.moment_amplitudes(sc.n_max).items():
        amps[flat] = amp
    for a, frame in setup.comps.items():
        coef = frame.coefficients(amps)
        cols = np.flatnonzero(coef)
        if cols.size:
            profile = sc.initial.spatial_profile(setup.tensor.family_nodes(a))
            state[a][..., cols] += np.multiply.outer(profile, coef[cols])
    if sc.initial.odd_from_bc is not None:
        d, side = face_key_to_dim_side(sc, sc.initial.odd_from_bc)
        face = next(f for f in setup.faces if f.dim == d and f.side == side)
        for blk in face.blocks:
            ao, ae = blk.family_odd, blk.family_even
            profile = sc.initial.spatial_profile(setup.tensor.family_nodes(ao))
            state[ao][...] += np.multiply.outer(profile, blk.m_eff @ setup.comps[ae].coefficients(amps))
    return state


def inner(setup: SolverSetup, u: dict, v: dict) -> float:
    """The discrete SBP inner product <u, v>: per family, the P-weighted sum over nodes of u . v."""
    total = 0.0
    for a, w in setup.weights.items():
        uf, vf = u[a].reshape(w.size, -1), v[a].reshape(w.size, -1)
        total += float(np.dot(np.einsum("ij,ij->i", uf, vf), w))
    return total


def energy(setup: SolverSetup, state: dict) -> float:
    """Total discrete energy <u, u>: sum of squared family SBP norms."""
    return inner(setup, state, state)


def mass_u00(setup: SolverSetup, state: dict) -> float:
    """Discrete integral of the mean component (all-even family, position 0)."""
    a = ("e",) * setup.tensor.ndim
    return float(np.dot(state[a][..., 0].ravel(), setup.weights[a]))


def _slab(arr: np.ndarray, dim: int, idx: int) -> np.ndarray:
    return arr[(slice(None),) * dim + (idx,)]


def face_source_norm_sq(setup: SolverSetup, face: FaceData, t: float) -> float:
    """Squared face norm of g at time t, transverse-weighted: time_factor(t)^2 ||g||^2 at factor 1."""
    if face.inflow.kind == "none":
        return 0.0
    tf = face.inflow.time_factor(t, setup.scenario.energy_map)
    return tf * tf * face.source_norm_sq


def _check_cfl(setup: SolverSetup, dt: float) -> None:
    limit = setup.dt_stable()
    if dt > limit * (1.0 + 1e-12):
        raise ValidationError(
            f"dt = {dt} violates the CFL bound cfl * h_min / sum_i lambda_max,i = {limit}"
        )


# ---------------------------------------------------------------------------
# the transport kernel


def _along(arr: np.ndarray, d: int) -> np.ndarray:
    """View of a C-contiguous array as (before, axis d, after): axis d at position -2."""
    shape = arr.shape
    return arr.reshape(math.prod(shape[:d]), shape[d], math.prod(shape[d + 1:]))


class _Stepper:
    """The transport kernel with in-place Strang/RK4 stepping on flat buffers.

    u, k, stage and acc are each one contiguous array that holds every
    family in ``setup.families`` order; :meth:`views` gives the per-family
    arrays, and ``state`` is the dict of views of u.  The two plans that
    RK4 needs are bound at construction: ``plan_u`` reads u and writes acc
    (k1 goes straight into the accumulator), ``plan_stage`` reads stage and
    writes k.  :meth:`rhs` runs one of them.
    """

    def __init__(self, setup: SolverSetup):
        self.setup = setup
        tensor = setup.tensor
        sizes = [math.prod(shape) for shape in setup.shapes.values()]
        self.offsets = np.cumsum([0] + sizes)
        self.u, self.k, self.stage, self.acc = (np.empty(self.offsets[-1]) for _ in range(4))
        self.state = self.views(self.u)
        self.scratch = np.empty(max(sizes))
        # per family with components: (axis, complement, -(moment block)/h so
        # the difference buffer holds raw differences, difference buffer)
        self.terms = {}
        for a in tensor.families:
            if not setup.comps[a].size:
                continue
            self.terms[a] = []
            for d in range(tensor.ndim):
                c = tensor.complement(a, d)
                if setup.comps[c].size:
                    shape = tensor.family_shape(a) + (setup.comps[c].size,)
                    block = setup.a_blocks[(a, d)] / -tensor.grids[d].h
                    self.terms[a].append((d, c, block, np.empty(shape)))
        q = {a: v for a, v in setup.q_relax.items() if v.size}
        self.q_relax = q if any(np.any(v) for v in q.values()) else None
        self._relax_cache: tuple[float, dict] | None = None
        self.rhs_calls = 0
        self.plan_u = self._bind(self.u, self.acc)
        self.plan_stage = self._bind(self.stage, self.k)

    def views(self, flat: np.ndarray) -> dict:
        """Per-family arrays viewing one flat buffer."""
        return {
            a: flat[lo:hi].reshape(shape)
            for (a, shape), lo, hi in zip(self.setup.shapes.items(), self.offsets[:-1], self.offsets[1:])
        }

    def load(self, state: dict) -> None:
        """Copy a dict of family arrays into u."""
        for a, v in self.state.items():
            v[...] = state[a]

    def _bind(self, x: np.ndarray, out: np.ndarray) -> tuple:
        """The plan that reads buffer ``x`` and writes buffer ``out``: views and operands bound once.

        Per face, the plan holds the inflow when a block carries a source, and
        per block the slabs with m_eff^T, g's space-direction product,
        tau^o^T / p^o and, unless alpha = 1 makes tau^e vanish, tau^e^T / p^e.
        """
        tensor = self.setup.tensor
        src_of, dst_of = self.views(x), self.views(out)
        diffs, corners, coupling = [], [], []
        for a, terms in self.terms.items():
            dst = dst_of[a].reshape(-1, dst_of[a].shape[-1])
            for n, (d, c, block, db) in enumerate(terms):
                src = src_of[c]
                pre = (slice(None),) * d
                target = db if a[d] == "o" else db[pre + (slice(1, -1),)]
                diffs.append((src[pre + (slice(1, None),)], src[pre + (slice(None, -1),)], target))
                pair = tensor.pairs[d]
                for cn in pair.corners_odd if a[d] == "o" else pair.corners_even:
                    corners.append((cn.weights, _along(src, d)[:, cn.cols], _along(db, d)[:, cn.rows]))
                lhs = db.reshape(-1, db.shape[-1])
                if n == 0:
                    coupling.append((lhs, block, dst, None))
                else:
                    coupling.append((lhs, block, self.scratch[: dst.size].reshape(dst.shape), dst))
        sats = []
        for face in self.setup.faces:
            d, bidx = face.dim, face.boundary_index
            p_odd = tensor.axis_weights(d, "o")[bidx]
            p_even = tensor.axis_weights(d, "e")[bidx]
            bound = []
            for blk in face.blocks:
                u_o = _slab(src_of[blk.family_odd], d, bidx)
                tau_even = blk.penalty.tau_even.T / p_even if blk.penalty.alpha != 1.0 else None
                bound.append((
                    u_o, _slab(src_of[blk.family_even], d, bidx), blk.m_eff.T.copy(), np.empty_like(u_o),
                    np.multiply.outer(blk.g_space, blk.g_dir) if blk.has_source else None,
                    _slab(dst_of[blk.family_odd], d, bidx), blk.penalty.tau_odd.T / p_odd,
                    _slab(dst_of[blk.family_even], d, bidx) if tau_even is not None else None, tau_even,
                ))
            inflow = face.inflow if any(blk.has_source for blk in face.blocks) else None
            sats.append((inflow, bound))
        return diffs, corners, coupling, sats

    def rhs(self, plan: tuple, t: float) -> None:
        """Transport + SAT increment at time t of the plan's input buffer, written to its output."""
        self.rhs_calls += 1
        diffs, corners, coupling, sats = plan
        for hi, lo, target in diffs:
            np.subtract(hi, lo, out=target)
        for weights, src, target in corners:
            np.matmul(weights, src, out=target)
        for lhs, block, target, into in coupling:
            np.matmul(lhs, block, out=target)
            if into is not None:
                into += target
        energy_map = self.setup.scenario.energy_map
        for inflow, bound in sats:
            tf = inflow.time_factor(t, energy_map) if inflow is not None else 0.0
            for u_o, u_e, m_t, res, g, out_o, tau_odd, out_e, tau_even in bound:
                np.matmul(u_e, m_t, out=res)
                np.subtract(u_o, res, out=res)
                if g is not None:
                    res -= tf * g
                out_o += res @ tau_odd
                if out_e is not None:
                    out_e += res @ tau_even

    def _relax(self, dt_half: float) -> None:
        """Exact relaxation of u over dt_half; factors cached per step size."""
        if self._relax_cache is None or self._relax_cache[0] != dt_half:
            factors = {a: np.exp(q * dt_half) for a, q in self.q_relax.items()}
            self._relax_cache = (dt_half, factors)
        for a, f in self._relax_cache[1].items():
            self.state[a] *= f

    def step(self, dt: float, t: float) -> None:
        """Advance u (and so ``self.state``) in place by one Strang step."""
        _check_cfl(self.setup, dt)
        if self.q_relax is not None:
            self._relax(0.5 * dt)
        u, k, stage, acc = self.u, self.k, self.stage, self.acc
        self.rhs(self.plan_u, t)  # k1 into acc
        for prev, c, twice, t_off in (
            (acc, 0.5 * dt, True, 0.5 * dt), (k, 0.5 * dt, True, 0.5 * dt), (k, dt, False, dt)
        ):
            np.multiply(prev, c, out=stage)
            stage += u
            self.rhs(self.plan_stage, t + t_off)  # into k
            acc += k
            if twice:
                acc += k
        acc *= dt / 6.0
        u += acc
        if self.q_relax is not None:
            self._relax(0.5 * dt)


def rhs(setup: SolverSetup, state: dict, t: float = 0.0) -> dict:
    """Transport + SAT increment (no relaxation); pure in ``state``."""
    stepper = _Stepper(setup)
    stepper.load(state)
    stepper.rhs(stepper.plan_u, t)
    return stepper.views(stepper.acc)


def step_strang(setup: SolverSetup, state: dict, dt: float, t: float = 0.0) -> dict:
    """One Strang-split step (relax, RK4, relax) of a copy of ``state``."""
    stepper = _Stepper(setup)
    stepper.load(state)
    stepper.step(dt, t)
    return stepper.state


# ---------------------------------------------------------------------------
# runs


@dataclass
class Snapshot:
    time: float
    energy: float | None
    nodes: tuple[np.ndarray, ...]
    u00: np.ndarray

    @property
    def centers(self) -> tuple[np.ndarray, ...]:
        """Cell-center nodes (interior even-grid nodes), aligned with MC bins."""
        return tuple(n[1:-1] for n in self.nodes)

    @property
    def u00_centers(self) -> np.ndarray:
        sl = tuple(slice(1, -1) for _ in self.nodes)
        return self.u00[sl]


@dataclass
class EnergyLog:
    times: np.ndarray
    energies: np.ndarray
    source_integral: np.ndarray  # cumulative sum over faces of int g^T g dt
    c_constant: float | None

    @property
    def bound(self) -> np.ndarray:
        if self.c_constant is None:
            return np.full_like(self.energies, np.nan)
        return self.energies[0] + self.c_constant * self.source_integral


@dataclass
class RunResult:
    scenario: Scenario
    log: EnergyLog
    snapshots: list[Snapshot]
    metadata: dict
    final_state: dict
    setup: SolverSetup


def run(scenario: Scenario) -> RunResult:
    """Integrate a scenario to its end time, recording energy and snapshots."""
    wall0 = _time.perf_counter()
    setup = build_setup(scenario)
    stepper = _Stepper(setup)
    state = initial_state(setup, out=stepper.state)
    dt_base = setup.dt_stable()
    t = 0.0
    times = [0.0]
    setup_s = _time.perf_counter() - wall0
    energies = [energy(setup, state)]
    gsq = [0.0]
    gnorm_prev = sum(face_source_norm_sq(setup, f, 0.0) for f in setup.faces)
    snap_iter = iter(sorted(scenario.snapshot_times))
    next_snap = next(snap_iter, None)
    snapshots: list[Snapshot] = []
    e_family = ("e",) * setup.tensor.ndim

    def take_snapshot(at_t: float) -> None:
        snapshots.append(
            Snapshot(
                time=at_t,
                energy=scenario.energy_of(at_t),
                nodes=setup.tensor.family_nodes(e_family),
                u00=state[e_family][..., 0].copy(),
            )
        )

    while next_snap is not None and next_snap <= 1e-14:
        take_snapshot(t)
        next_snap = next(snap_iter, None)

    step_count = 0
    while t < scenario.t_end - 1e-12:
        dt = min(dt_base, scenario.t_end - t)
        if next_snap is not None and t + dt > next_snap - 1e-12:
            dt = next_snap - t
        stepper.step(dt, t)
        t += dt
        step_count += 1
        e_now = energy(setup, state)
        if not math.isfinite(e_now):
            raise NumericalError(
                f"non-finite energy at t = {t:.6g}; last good state at t = {times[-1]:.6g}"
            )
        gnorm_now = sum(face_source_norm_sq(setup, f, t) for f in setup.faces)
        gsq.append(gsq[-1] + 0.5 * dt * (gnorm_prev + gnorm_now))
        gnorm_prev = gnorm_now
        times.append(t)
        energies.append(e_now)
        if next_snap is not None and t >= next_snap - 1e-12:
            take_snapshot(t)
            next_snap = next(snap_iter, None)
        if step_count > 10_000_000:
            raise NumericalError("step budget exceeded")

    stepping_s = _time.perf_counter() - wall0 - setup_s
    modes = None if setup.modes is None else [list(mode) for mode in setup.modes]
    logger.debug(
        "run %s: %d steps of dt = %.6g on %d components (modes %s), set-up %.3f s, stepping %.3f s",
        scenario.name, step_count, dt_base, setup.n_components, modes, setup_s, stepping_s,
    )
    c_vals = [f.c_constant for f in setup.faces if f.c_constant is not None]
    all_onsager = all(f.kind == "onsager" for f in setup.faces)
    c_const = max(c_vals) if (c_vals and all_onsager) else (0.0 if all_onsager else None)
    log = EnergyLog(np.array(times), np.array(energies), np.array(gsq), c_const)
    meta = {
        "scenario": scenario.to_dict(),
        "dt": dt_base,
        "steps": step_count,
        "cfl": scenario.cfl,
        "max_speed": setup.max_speed,
        "matrix_norms": {f"ahat_axis_{ax}": speed for ax, speed in setup.speeds.items()},
        "c_constant": c_const,
        "components": {
            "integrated": setup.n_components,
            "basis": setup.basis.dim,
            "modes": modes,
        },
        "length_unit": scenario.length_unit,
        "seconds": {"setup": setup_s, "stepping": stepping_s},
        "rhs_calls": stepper.rhs_calls,
        "wall_seconds": _time.perf_counter() - wall0,
    }
    return RunResult(scenario, log, snapshots, meta, state, setup)


# ---------------------------------------------------------------------------
# diagnostics


@dataclass(frozen=True)
class BoundReport:
    applicable: bool
    ok: bool
    e_final: float
    e_initial: float
    bound_final: float
    margin: float
    c_constant: float | None

    def describe(self) -> str:
        if not self.applicable:
            return "energy-bound check not applicable (non-Onsager face present)"
        verdict = "holds" if self.ok else "VIOLATED"
        return (
            f"discrete energy bound {verdict}: E(T) = {self.e_final:.6e} vs "
            f"bound {self.bound_final:.6e} (C = {self.c_constant:.4g}, margin = {self.margin:.3e})"
        )


def energy_bound_check(result: RunResult, tol_rel: float = 1e-8) -> BoundReport:
    """E(T) <= E(0) + C * sum_faces int g^T g dt + tol, C from the penalty family."""
    log = result.log
    if log.c_constant is None:
        return BoundReport(False, False, log.energies[-1], log.energies[0], math.nan, math.nan, None)
    bound = log.energies[0] + log.c_constant * log.source_integral[-1] + tol_rel * log.energies[0]
    margin = bound - log.energies[-1]
    return BoundReport(
        True, bool(log.energies[-1] <= bound), float(log.energies[-1]), float(log.energies[0]),
        float(bound), float(margin), float(log.c_constant),
    )


def detect_plateaus(
    times: np.ndarray,
    energies: np.ndarray,
    flat_tol: float = 1e-4,
    drop_tol: float = 0.01,
    min_len_frac: float = 0.015,
) -> list[tuple[float, float]]:
    """Maximal flat intervals of an energy curve, separated by visible drops.

    An interval is flat when |E(t) - E(t_start)| < flat_tol * E(0)
    throughout; plateaus shorter than ``min_len_frac`` of the horizon are
    ignored, and consecutive plateaus count separately only when the curve
    drops by more than drop_tol * E(0) between them.
    """
    t = np.asarray(times, dtype=float)
    e = np.asarray(energies, dtype=float)
    e0 = e[0]
    horizon = t[-1] - t[0]
    raw = []
    i = 0
    while i < len(t):
        j = i
        while j + 1 < len(t) and abs(e[j + 1] - e[i]) < flat_tol * e0:
            j += 1
        if t[j] - t[i] >= min_len_frac * horizon:
            raw.append((i, j))
            i = j + 1
        else:
            i += 1
    kept: list[tuple[float, float]] = []
    last_level = None
    for i, j in raw:
        level = e[i]
        if last_level is None or (last_level - level) > drop_tol * e0:
            kept.append((float(t[i]), float(t[j])))
            last_level = level
    return kept
