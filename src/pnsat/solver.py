"""Semi-discrete P_N operator with SAT boundary terms and Strang stepping.

State layout: one array per parity family (2^d families over the active
axes), shaped (family grid shape) + (number of family components,).  Each
family integrates only the basis functions of the reachable sector (see
:func:`sector`), listed by their flat positions in ``SolverSetup.comps``:
the volume, boundary, penalty and relaxation terms conserve the parity of
every inactive axis, and every inflow depends only on the direction
component along its face normal, so the data reach just the inactive-axis
parity classes of the initial moments plus the all-even class.  A 1-D run
works in the basis about its own axis (:func:`pnsat.sphharm.cyclic_axes`):
its operators are those of the basis's polar axis 3, and only the initial
moment amplitudes are rotated onto that basis.  Every term then commutes
with rotations about the polar axis, so each azimuthal mode (m, cos | sin),
the basis functions of order k = +m | -m, evolves on its own, and a run
keeps only the modes its data reach.  tc1 (isotropic data, N = 13)
integrates the 14 P_l(omega_x) of the 196 components, an x-z run with
y-even data 105; a 3-axis run has no inactive axis and integrates the full
basis.  The transport increment for family a is

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
largest singular value of the Ahat of the physical axis) is computed once
and serves the CFL step and the run metadata.

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
its axis P entries, :meth:`pnsat.sbp.TensorGrid.weights`), and
:attr:`SolverSetup.entry_weights` the norm weight of every entry of the
flat state; :func:`inner` is the one discrete inner product, one
weighted contraction against those weights, and :func:`energy` and
:func:`mass_u00` read the same tables.
"""

from __future__ import annotations

import functools
import logging
import math
import time as _time
from dataclasses import dataclass, field

import numpy as np

from . import boundary as bnd
from .config import Scenario, face_key_to_dim_side
from .errors import NumericalError, ValidationError
from .moments import MomentBasis, PnSystem, assemble_transport, scattering_diagonal
from .sbp import SatPenalty, StaggeredGrid1d, TensorGrid, outer, sat_penalties
from .sphharm import cyclic_axes, rotation_about

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class FaceBlock:
    """BC data restricted to one odd family of one face, over the two families' components."""

    family_odd: tuple[str, ...]
    family_even: tuple[str, ...]
    m_eff: np.ndarray
    l_matrix: np.ndarray
    penalty: SatPenalty
    g_dir: np.ndarray
    g_space: np.ndarray  # transverse profile on the slab, shape = transverse grid
    has_source: bool  # by symmetry: an inflow, and a component even off the face axis (k = 0 about axis 3)


@dataclass(frozen=True)
class FaceData:
    dim: int
    side: str
    axis: int  # the basis axis of the face normal: 3 in a 1-D run
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
    axes: tuple[int, ...]  # per active axis, the basis axis its operators use: (3,) in 1-D
    comps: dict  # per family: the flat basis positions it integrates, an int array
    modes: tuple | None  # 1-D: the kept azimuthal modes (m, "cos" | "sin") about the active axis
    a_blocks: dict
    q_relax: dict  # per family: the relaxation rate of each component, sigma_l - sigma_t at its degree
    faces: tuple[FaceData, ...]
    speeds: dict  # per active physical axis: the largest singular value of its Ahat
    entry_weights: np.ndarray = field(init=False)  # the SBP norm weight of every entry of the flat state

    def __post_init__(self):
        # each node's weight repeated over its components, families in order
        per_node = [np.broadcast_to(w[:, None], (w.size, self.comps[a].size)) for a, w in self.weights.items()]
        self.entry_weights = np.concatenate(per_node, axis=None)

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


def sector(scenario: Scenario, basis: MomentBasis) -> tuple[np.ndarray, tuple | None]:
    """The part of the basis the scenario's data can reach: (flat mask, modes).

    The mask holds the components whose parity class over the inactive axes
    is the all-even class (which holds u00 and every inflow) or the class of
    a non-zero initial moment amplitude.  In a 1-D run the mask is over the
    basis about the active axis (:func:`pnsat.sphharm.cyclic_axes`), where
    every term also commutes with rotations about the polar axis, so each
    azimuthal mode (m, "cos" | "sin"), the basis functions of order
    k = +m | -m, evolves on its own: the run keeps (0, cos), which holds u00
    and every inflow, and for each non-zero initial moment of degree l every
    mode m <= l of that moment's class.  The classes and degrees are read
    from the amplitudes on the basis, before any rotation.  In 2-D and 3-D
    the modes are None.
    """
    inactive = [ax for ax in (1, 2, 3) if ax not in scenario.axes]
    if not inactive:
        return np.ones(basis.dim, dtype=bool), None
    signs = np.stack(basis.parity.signs)
    classes = signs[[ax - 1 for ax in inactive]].T  # per flat position: its signs on the inactive axes
    top = {(1,) * len(inactive): 0}  # per reached class: the highest degree the data hold
    for flat, amp in scenario.initial.moment_amplitudes(scenario.n_max).items():
        if amp != 0.0:
            c = tuple(int(s) for s in classes[flat])
            top[c] = max(top.get(c, 0), basis.indices[flat].l)
    if len(inactive) == 1:
        return np.any([np.all(classes == c, axis=-1) for c in top], axis=0), None
    # in the basis about the axis, Cartesian axis cyclic_axes(axis)[j] carries basis axis j + 1's parity
    about = cyclic_axes(scenario.axes[0])
    classes = signs[[about.index(ax) for ax in inactive]].T
    reach = np.full(basis.dim, -1)
    for c, deg in top.items():
        reach[np.all(classes == c, axis=-1)] = deg
    mask = np.abs(basis.orders) <= reach
    kept = sorted(set(basis.orders[mask].tolist()), key=lambda k: (abs(k), k < 0))
    return mask, tuple((abs(k), "cos" if k >= 0 else "sin") for k in kept)


def build_setup(scenario: Scenario) -> SolverSetup:
    """Assemble a scenario's operators over the basis functions of its reachable components.

    A 1-D run assembles about its active axis, with the operators of the
    basis's polar axis 3.  The transport blocks, L, Ahat, M, the penalties
    and the inflow moments are slices over each family's flat positions
    ``comps[a]``; relaxation stays diagonal.  The CFL step and the axis
    speeds come from the unreduced Ahat of each physical axis, so they do
    not depend on the reduction.
    """
    basis = MomentBasis.build(scenario.n_max)
    system = assemble_transport(basis)
    grids = tuple(
        StaggeredGrid1d(lo, hi, c) for (lo, hi), c in zip(scenario.extents, scenario.cells)
    )
    tensor = TensorGrid.build(scenario.axes, grids)
    mask, modes = sector(scenario, basis)
    axes = scenario.axes if modes is None else (3,)
    comps = {a: idx[mask[idx]] for a, idx in basis.family_indices(axes).items()}
    parity = np.stack(basis.parity.signs)
    a_blocks = {}
    for a in tensor.families:
        for d, axis in enumerate(axes):
            block = system.a_full[axis - 1][np.ix_(comps[a], comps[tensor.complement(a, d)])]
            # transposed dense block: BLAS-friendly as (nodes, m_c) @ (m_c, m_a)
            a_blocks[(a, d)] = np.ascontiguousarray(block.T)
    q_flat = scattering_diagonal(scenario.scattering, basis)
    q_relax = {a: q_flat[idx] for a, idx in comps.items()}

    faces = []
    shared = {}  # per axis: its half-sphere rule and, per odd family, its slice of the high face's Onsager blocks
    for (d, side), spec in scenario.faces.items():
        axis = axes[d]
        face = bnd.Face(axis, side)
        if axis not in shared:
            high = bnd.Face(axis, "high")
            q_out = bnd.outgoing_quadrature(basis, high)
            full = bnd.onsager_bc(basis, high, system, quad=q_out)  # every odd row, every even column
            odd, even = basis.odd_positions(axis), basis.even_positions(axis)
            onsager = {}
            for a in tensor.families:
                rows, cols = comps[a], comps[tensor.complement(a, d)]
                if a[d] == "o" and rows.size and cols.size:
                    ro, re = np.searchsorted(odd, rows), np.searchsorted(even, cols)
                    oe = np.ix_(ro, re)
                    bc = bnd.OnsagerBoundary(
                        high, full.l_matrix[np.ix_(ro, ro)], full.a_hat[oe], full.m_matrix[oe]
                    )
                    onsager[a] = bc, oe
            shared[axis] = q_out, onsager
        q_out, onsager = shared[axis]
        q_in = bnd.inflow_quadrature(basis, face) if spec.inflow.kind != "none" else None
        marshak = bnd.marshak_matrix(basis, face, quad=q_out) if spec.kind == "unstable_marshak" else None
        off_axis = [ax - 1 for ax in (1, 2, 3) if ax != axis]
        blocks = []
        source_norm_sq = 0.0
        for a, (bc, oe) in onsager.items():
            rows = comps[a]
            # M = sign * L Ahat: L and Ahat are side-independent
            m_eff = marshak[oe] if marshak is not None else face.sign * bc.m_matrix
            pen = sat_penalties(bc.l_matrix, bc.a_hat, spec.alpha, side)
            # an inflow depends on omega only through omega_axis, so its moments vanish
            # on components odd in another axis and, about the polar axis, of order k != 0
            if axis == 3:
                sourced = basis.orders[rows] == 0
            else:
                sourced = np.all(parity[np.ix_(off_axis, rows)] > 0, axis=0)
            has_source = spec.inflow.kind != "none" and bool(sourced.any())
            g_dir = np.zeros(rows.size)
            if has_source:
                # the rule's nodes are directions in the basis's coordinates: omega_axis is component `axis`
                g_dir[sourced] = bnd.boundary_source(
                    face,
                    lambda om: spec.inflow.amplitude
                    * spec.inflow.direction_profile(om, axis, face.sign),
                    basis,
                    quad=q_in,
                    rows=rows[sourced],
                )
            g_space = outer([
                spec.inflow.spatial_profile(tensor.axis_nodes(j, a[j]))
                for j in range(tensor.ndim) if j != d
            ])
            blocks.append(FaceBlock(
                a, tensor.complement(a, d), m_eff, bc.l_matrix, pen, g_dir, g_space, has_source
            ))
            if has_source:
                w = tensor.boundary_weight(a, d)
                source_norm_sq += float(np.sum(w * g_space * g_space)) * float(g_dir @ g_dir)
        c_const = None
        if spec.kind == "onsager" and onsager:
            # tau^o = -alpha L^-1, so per block ||tau^o|| = alpha / l_min and
            # ||L^-1 + tau^o^T|| = (1 - alpha) / l_min
            c_const = max(spec.alpha, 1.0 - spec.alpha) / min(bc.l_min for bc, _ in onsager.values())
        faces.append(FaceData(
            d, side, axis, spec.kind, spec.alpha, spec.inflow, tuple(blocks), source_norm_sq, c_const
        ))
    return SolverSetup(
        scenario=scenario,
        basis=basis,
        system=system,
        tensor=tensor,
        axes=axes,
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

    A 1-D run off the z axis first rotates the initial moment amplitudes
    onto the basis about its axis (:func:`pnsat.sphharm.rotation_about`, up
    to the highest degree they hold); each family then takes its positions.
    Writes into ``out`` (a dict of family arrays, zeroed first) when given,
    so a run fills its stepper's own buffer; otherwise into a new zero state.
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
    if setup.axes != sc.axes and np.any(amps):
        n = max(setup.basis.indices[flat].l for flat in np.flatnonzero(amps))
        held = slice((n + 1) ** 2)
        amps[held] = rotation_about(n, sc.axes[0]) @ amps[held]
    for a, idx in setup.comps.items():
        coef = amps[idx]
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
            state[ao][...] += np.multiply.outer(profile, blk.m_eff @ amps[setup.comps[ae]])
    return state


def _flat(setup: SolverSetup, u) -> np.ndarray:
    """``u`` as a flat state buffer: as it is if it is one, else its family arrays in order."""
    if isinstance(u, np.ndarray):
        return u
    return np.concatenate([u[a].ravel() for a in setup.families])


def inner(setup: SolverSetup, u, v) -> float:
    """The discrete SBP inner product <u, v>: one weighted dot, sum of w u v over the per-entry weights w.

    ``u`` and ``v`` are flat state buffers (the layout of the stepper's
    buffers) or dicts of family arrays.  The contraction allocates no
    state-sized temporary.
    """
    return float(np.einsum("i,i,i->", _flat(setup, u), _flat(setup, v), setup.entry_weights))


def energy(setup: SolverSetup, state) -> float:
    """Total discrete energy <u, u>: sum of squared family SBP norms."""
    u = _flat(setup, state)
    return inner(setup, u, u)


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
    energies = [energy(setup, stepper.u)]
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
        e_now = energy(setup, stepper.u)
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
