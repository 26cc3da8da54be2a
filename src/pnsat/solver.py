"""Semi-discrete P_N operator with SAT boundary terms and Strang stepping.

State layout: a state is one flat array that holds the parity families
(2^d over the active axes) in order, each at its slice
``SolverSetup.spans``; :meth:`SolverSetup.views` gives the family arrays,
shaped (family grid shape) + (number of family components,).  Each
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
assembles them once over the odd and even positions its blocks keep with
:func:`pnsat.boundary.onsager_bc` on its high face; each odd family takes
its slice, and both faces share them.  The side of a face is the sign of
its normal: the low face negates M and tau^e, so both faces also share one
:func:`pnsat.sbp.sat_penalties` solve per odd family and alpha.  With the
penalty tau^o = -alpha L^-1 the constant of the energy bound is
C = max(alpha, 1 - alpha) / lambda_min(L) per block, and since
g(t) = time_factor(t) (g_space (x) g_dir), the face norm of g is
time_factor(t)^2 times a sum fixed at set-up.  Every axis has the same
transport speed, the largest root of P_{N+1}
(:meth:`pnsat.moments.PnSystem.max_speed`); it is read once and serves
the CFL step and the run metadata.

Time integration is Strang-split: exact half-step relaxation (the
scattering matrix is diagonal on the basis), a full transport step with
classical RK4, then the second relaxation half-step.  One buffered kernel
computes the differences, the moment coupling and the SAT terms; ``run``
steps the initial state in place with it, and :func:`rhs` and
:func:`step_strang` run it on a copy of the caller's state;
:func:`step_strang`, the one entry point that takes a caller's dt, rejects
a dt above the CFL bound.  Families and face blocks without components are
skipped.

Kernel layout.  The kernel steps the state array it is given; the RK4
quantities k, stage and acc are flat arrays of the same layout, so every
RK4 update is one array operation on the whole state.  RK4 reads two
buffers and writes two, so the kernel binds two plans at construction,
u -> acc and stage -> k: the hi/lo slices of each staggered difference and
its target, the coupling blocks with -1/h folded in, and every face
block's boundary slabs with m_eff^T and the penalties already divided by
the boundary norm entries.
Each SBP closure is one small dense product per grid end
(:class:`pnsat.sbp.ClosureCorner`) along the differenced axis.  An RHS
call is then a fixed list of subtractions, dense products and in-place
additions, and it allocates nothing: the SAT residual and both SAT
increments have buffers of their own in the plan.  Each product gets its
call once, at bind time, from the grid axes it runs over
(:func:`_product`).  ``np.dot`` takes every product over at most one axis:
all products of a 1-D run, and the SAT slab products and leading-axis
closure corners (bound as 2-D views) of a 2-D run.  ``np.matmul`` takes
the products over a plane or a volume, which are the multi-axis coupling
and every product of a 3-D run, and the corners along a later axis, which
are batched over the axes before it and which ``np.dot`` cannot batch.
Both calls reach the same BLAS gemm or gemv and give the same bits.
``np.dot`` skips 0.35-0.5 us of ``np.matmul``'s ufunc dispatch per call,
30-45% of a 1-D product's cost, but on a 2-D coupling over about a
thousand nodes it is the slower (30.0 us against 25.6 us on tc3, one
BLAS thread).

Mirror planes.  A scenario that is invariant under x_d -> -x_d with
Omega_d -> -Omega_d (symmetric extents with an even cell count of at least
8, equal faces on that axis, data centred at 0 and even in Omega_d, no
``odd_from_bc``) is integrated on x_d >= 0 only: :func:`mirror_symmetry`
reads this from the scenario, the same way :func:`sector` reads parity,
and the axis gets the half SBP pair of :mod:`pnsat.sbp` and loses its low
face.  The kernel is the same; h, and so dt, is the full grid's.  Every
reported quantity is full-domain: :func:`inner` (hence :func:`energy`) and
:func:`mass_u00` are 2x the half-domain sums per mirrored axis, ``run``
scales the source norm the same way, and snapshots are reflected onto the
full grid's nodes.

Norms.  :attr:`SolverSetup.shapes` and :attr:`SolverSetup.weights` hold
each family's state shape and its SBP norm table (the outer product of
its axis P entries, :meth:`pnsat.sbp.TensorGrid.weights`), flattened over
its nodes; :func:`inner` is the one discrete inner product, contracting
each family's (nodes, components) slice of two states against its node
weights without a state-sized temporary, and :func:`energy` and
:func:`mass_u00` read the same tables.  In 1-D :func:`energy` is one dot
against :attr:`SolverSetup.flat_weights`, the node weights repeated per
component.
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
from .sbp import StaggeredGrid1d, TensorGrid, outer, sat_penalties
from .sphharm import cyclic_axes, rotation_about

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class FaceBlock:
    """BC data restricted to one odd family of one face, over the two families' components."""

    family_odd: tuple[str, ...]
    family_even: tuple[str, ...]
    m_eff: np.ndarray
    l_matrix: np.ndarray
    tau_odd: np.ndarray
    tau_even: np.ndarray  # negated on a low face, as m_eff is
    g_dir: np.ndarray
    g_space: np.ndarray  # transverse profile on the slab, shape = transverse grid
    has_source: bool  # an inflow, and a component in the symmetry class of u00 (bnd.symmetry_key)


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
    speed: float  # the transport speed of every axis: the largest singular value of each Ahat
    mirror: tuple[int, ...] = ()  # storage axes integrated on x >= 0 only (see mirror_symmetry)

    @property
    def mirror_scale(self) -> float:
        """Full-domain over half-domain sums: 2 per mirrored axis."""
        return 2.0 ** len(self.mirror)

    @property
    def families(self):
        return self.tensor.families

    @property
    def n_components(self) -> int:
        """Number of components integrated, summed over the families."""
        return sum(c.size for c in self.comps.values())

    @functools.cached_property
    def shapes(self) -> dict:
        """Per family: the shape of its state array, its grid shape + (components,)."""
        return {a: self.tensor.family_shape(a) + (self.comps[a].size,) for a in self.families}

    @functools.cached_property
    def spans(self) -> dict:
        """Per family: its slice of a flat state, which holds the families in order."""
        ends = np.cumsum([0] + [math.prod(shape) for shape in self.shapes.values()]).tolist()
        return {a: slice(lo, hi) for a, lo, hi in zip(self.shapes, ends[:-1], ends[1:])}

    @property
    def size(self) -> int:
        """Number of entries of a flat state."""
        return max(span.stop for span in self.spans.values())

    def views(self, state: np.ndarray) -> dict:
        """Per family: its array, a view of the flat ``state``."""
        return {a: state[span].reshape(self.shapes[a]) for a, span in self.spans.items()}

    @functools.cached_property
    def norm_tables(self) -> tuple:
        """Per family with components: (family, its span, its component count, its node weights)."""
        return tuple((a, self.spans[a], self.shapes[a][-1], w) for a, w in self.weights.items())

    @functools.cached_property
    def weights(self) -> dict:
        """Per family with components: its SBP norm table, flattened over the grid."""
        return {a: self.tensor.weights(a).ravel() for a in self.families if self.comps[a].size}

    @functools.cached_property
    def flat_weights(self) -> np.ndarray | None:
        """1-D runs: the norm weight of each entry of a flat state; None on multi-axis set-ups.

        A 1-D state is small enough to keep a table of its size; a multi-axis
        one is not.
        """
        if self.tensor.ndim > 1:
            return None
        out = np.zeros(self.size)
        for a, span, m, w in self.norm_tables:
            out[span] = np.repeat(w, m)
        return out

    def dt_stable(self) -> float:
        h_min = min(g.h for g in self.tensor.grids)
        return self.scenario.cfl * h_min / (self.tensor.ndim * self.speed)


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
    classes = basis.parity[[ax - 1 for ax in inactive]].T  # per flat position: its signs on the inactive axes
    top = {(1,) * len(inactive): 0}  # per reached class: the highest degree the data hold
    for flat, amp in scenario.initial.moment_amplitudes(scenario.n_max).items():
        if amp != 0.0:
            c = tuple(int(s) for s in classes[flat])
            top[c] = max(top.get(c, 0), int(basis.degrees[flat]))
    if len(inactive) == 1:
        return np.any([np.all(classes == c, axis=-1) for c in top], axis=0), None
    # in the basis about the axis, Cartesian axis cyclic_axes(axis)[j] carries basis axis j + 1's parity
    about = cyclic_axes(scenario.axes[0])
    classes = basis.parity[[about.index(ax) for ax in inactive]].T
    reach = np.full(basis.dim, -1)
    for c, deg in top.items():
        reach[np.all(classes == c, axis=-1)] = deg
    mask = np.abs(basis.orders) <= reach
    kept = sorted(set(basis.orders[mask].tolist()), key=lambda k: (abs(k), k < 0))
    return mask, tuple((abs(k), "cos" if k >= 0 else "sin") for k in kept)


def _mirror_obstacle(scenario: Scenario, basis: MomentBasis, d: int) -> str | None:
    """The first condition that keeps storage axis ``d`` from a mirror plane at 0, or None."""
    name = scenario.axis_names[d]
    (lo, hi), cells = scenario.extents[d], scenario.cells[d]
    if lo != -hi:
        return f"extents [{lo:g}, {hi:g}] are not symmetric about 0"
    if cells % 2:
        return f"odd cell count {cells}"
    if cells < 8:
        return f"{cells} cells, fewer than 8"
    low, high = scenario.faces[(d, "low")], scenario.faces[(d, "high")]
    for key, a, b in (("type", low.kind, high.kind), ("alpha", low.alpha, high.alpha),
                      ("psi_in", low.inflow, high.inflow)):
        if a != b:
            return f"{name}_low.{key} != {name}_high.{key}"
    init = scenario.initial
    for key, centre in (("mu", init.mu), ("center", init.center)):
        if centre and centre[d] != 0.0:
            return f"initial {key} = {centre[d]:g} on {name}"
    signs = basis.parity[scenario.axes[d] - 1]
    for flat, amp in init.moment_amplitudes(scenario.n_max).items():
        if amp != 0.0 and signs[flat] < 0:
            return f"initial moment (l={basis.degrees[flat]}, k={basis.orders[flat]}) is odd in omega_{name}"
    if init.odd_from_bc is not None:
        return "initial odd_from_bc is set"
    return None


def mirror_symmetry(scenario: Scenario, basis: MomentBasis) -> tuple[int, ...]:
    """The storage axes on which the run integrates x >= 0 only, read from the scenario alone.

    Axis d qualifies when the scenario is invariant under x_d -> -x_d with
    Omega_d -> -Omega_d and the half grid can hold it: extents [-X, X] with
    an even cell count of at least 8, the same spec (type, alpha, psi_in) on
    both faces, initial ``mu`` / ``center`` 0 on the axis, every non-zero
    initial moment even in Omega_d (``basis.parity`` on the unrotated
    amplitudes) and no ``odd_from_bc``.  Inflows on the other axes' faces
    are even in x_d by construction: centred profiles, directions through
    the normal component only.  One ``pnsat.solver`` debug event per axis
    names the decision or the first condition that ruled it out.
    """
    mirrored = []
    for d, name in enumerate(scenario.axis_names):
        obstacle = _mirror_obstacle(scenario, basis, d)
        if obstacle is None:
            mirrored.append(d)
            logger.debug("%s: mirrored (integrating %s >= 0)", name, name)
        else:
            logger.debug("%s: not mirrored (%s)", name, obstacle)
    return tuple(mirrored)


def build_setup(scenario: Scenario) -> SolverSetup:
    """Assemble a scenario's operators over the basis functions of its reachable components.

    A 1-D run assembles about its active axis, with the operators of the
    basis's polar axis 3.  The transport blocks, L, Ahat, M, the penalties
    and the inflow moments are slices over each family's flat positions
    ``comps[a]``; relaxation stays diagonal.  The transport speed that sets
    the CFL step is the largest singular value of the unreduced Ahat of
    every axis, so it does not depend on the reduction.  A mirrored axis
    (:func:`mirror_symmetry`) gets the half grid and keeps only its high face.
    """
    basis = MomentBasis.build(scenario.n_max)
    system = assemble_transport(basis)
    mirror = mirror_symmetry(scenario, basis)
    grids = tuple(
        StaggeredGrid1d(lo, hi, c, mirror=d in mirror)
        for d, ((lo, hi), c) in enumerate(zip(scenario.extents, scenario.cells))
    )
    tensor = TensorGrid.build(scenario.axes, grids)
    mask, modes = sector(scenario, basis)
    axes = scenario.axes if modes is None else (3,)
    odd = basis.parity[[ax - 1 for ax in axes]] < 0  # per storage axis: the odd flat positions
    comps = {a: np.flatnonzero(mask & np.all(odd.T == (np.array(a) == "o"), axis=1)) for a in tensor.families}
    a_blocks = {}
    for a in tensor.families:
        for d, axis in enumerate(axes):
            block = system.a_full[axis - 1][np.ix_(comps[a], comps[tensor.complement(a, d)])]
            # transposed dense block: BLAS-friendly as (nodes, m_c) @ (m_c, m_a)
            a_blocks[(a, d)] = np.ascontiguousarray(block.T)
    q_flat = scattering_diagonal(scenario.scattering, basis)
    q_relax = {a: q_flat[idx] for a, idx in comps.items()}

    faces = []
    for d, axis in enumerate(axes):
        high = bnd.Face(axis, "high")
        kept = {
            a: (comps[a], comps[tensor.complement(a, d)])
            for a in tensor.families
            if a[d] == "o" and comps[a].size and comps[tensor.complement(a, d)].size
        }
        # per odd family: its L, Ahat and M slices and where they sit in the axis assembly
        onsager, union = {}, None
        if kept:
            # one assembly over every odd row and even column a block keeps: the exact zeros
            # between symmetry classes (bnd.symmetry_key) make each block a slice of it
            union = tuple(np.unique(np.concatenate([rc[i] for rc in kept.values()])) for i in (0, 1))
            full = bnd.onsager_bc(basis, high, system, rows=union[0], cols=union[1])
            for a, (rows, cols) in kept.items():
                ro, re = np.searchsorted(union[0], rows), np.searchsorted(union[1], cols)
                oe = np.ix_(ro, re)
                onsager[a] = full.l_matrix[np.ix_(ro, ro)], full.a_hat[oe], full.m_matrix[oe], oe
            l_min = min(float(np.linalg.eigvalsh(v[0])[0]) for v in onsager.values())
        key = bnd.symmetry_key(basis, axis)
        # per (odd family, alpha): the high face's penalty; the low face negates tau^e
        penalties = {}
        for side in ("high",) if d in mirror else ("low", "high"):
            spec = scenario.faces[d, side]
            face = bnd.Face(axis, side)
            marshak = None
            if spec.kind == "unstable_marshak" and onsager:
                marshak = bnd.marshak_matrix(basis, face, rows=union[0], cols=union[1])
            blocks = []
            source_norm_sq = 0.0
            for a, (l_mat, a_hat, m_mat, oe) in onsager.items():
                rows = comps[a]
                # M = sign * L Ahat: L and Ahat are side-independent
                m_eff = marshak[oe] if marshak is not None else face.sign * m_mat
                if (a, spec.alpha) not in penalties:
                    penalties[a, spec.alpha] = sat_penalties(l_mat, a_hat, spec.alpha)
                tau_odd, tau_even = penalties[a, spec.alpha]
                # an inflow depends on omega only through omega_axis, so its moments vanish
                # outside the symmetry class of u00
                sourced = key[rows] == key[0]
                has_source = spec.inflow.kind != "none" and bool(sourced.any())
                g_dir = np.zeros(rows.size)
                if has_source:
                    # the rule's nodes are directions in the basis's coordinates:
                    # omega_axis is component `axis`
                    g_dir[sourced] = bnd.boundary_source(
                        face,
                        lambda om: spec.inflow.amplitude
                        * spec.inflow.direction_profile(om, axis, face.sign),
                        basis,
                        rows=rows[sourced],
                    )
                g_space = outer([
                    spec.inflow.spatial_profile(tensor.axis_nodes(j, a[j]))
                    for j in range(tensor.ndim) if j != d
                ])
                blocks.append(FaceBlock(
                    a, tensor.complement(a, d), m_eff, l_mat, tau_odd, face.sign * tau_even,
                    g_dir, g_space, has_source,
                ))
                if has_source:
                    w = tensor.boundary_weight(a, d)
                    source_norm_sq += float(np.sum(w * g_space * g_space)) * float(g_dir @ g_dir)
            c_const = None
            if spec.kind == "onsager" and onsager:
                # tau^o = -alpha L^-1, so per block ||tau^o|| = alpha / lambda_min(L) and
                # ||L^-1 + tau^o^T|| = (1 - alpha) / lambda_min(L)
                c_const = max(spec.alpha, 1.0 - spec.alpha) / l_min
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
        speed=system.max_speed(),
        mirror=mirror,
    )


# ---------------------------------------------------------------------------
# state


def initial_state(setup: SolverSetup) -> np.ndarray:
    """A new flat state from the scenario's initial spec.

    A 1-D run off the z axis first rotates the initial moment amplitudes
    onto the basis about its axis (:func:`pnsat.sphharm.rotation_about`, up
    to the highest degree they hold); each family then takes its positions.
    """
    sc = setup.scenario
    u = np.zeros(setup.size)
    state = setup.views(u)
    amps = np.zeros(setup.basis.dim)
    for flat, amp in sc.initial.moment_amplitudes(sc.n_max).items():
        amps[flat] = amp
    if setup.axes != sc.axes and np.any(amps):
        n = int(setup.basis.degrees[np.flatnonzero(amps)].max())
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
    return u


def inner(setup: SolverSetup, u: np.ndarray, v: np.ndarray) -> float:
    """The discrete SBP inner product <u, v> of two flat states over the full domain.

    Per family, one pass sums u v over the components of each node and one
    dot applies the node weights, so no state-sized temporary is made.  A
    mirrored run's states stand for their mirror-symmetric extensions,
    whose sums are exactly ``mirror_scale`` times the stored half's.
    """
    total = 0.0
    for a, span, m, w in setup.norm_tables:
        total += np.dot(w, np.einsum("ij,ij->i", u[span].reshape(-1, m), v[span].reshape(-1, m)))
    return setup.mirror_scale * float(total)


def energy(setup: SolverSetup, state: np.ndarray) -> float:
    """Total discrete energy <u, u> of a flat state: sum of squared family SBP norms, full domain.

    In 1-D it is one dot against :attr:`SolverSetup.flat_weights`, which
    costs a few numpy calls fewer per time step than :func:`inner`.
    """
    w = setup.flat_weights
    if w is not None:
        return setup.mirror_scale * float(np.dot(w * state, state))
    return inner(setup, state, state)


def mass_u00(setup: SolverSetup, state: np.ndarray) -> float:
    """Discrete integral of the mean component (all-even family, position 0) of a flat state, full domain."""
    a = ("e",) * setup.tensor.ndim
    return setup.mirror_scale * float(np.dot(setup.views(state)[a][..., 0].ravel(), setup.weights[a]))


def unfold(setup: SolverSetup, values: np.ndarray) -> np.ndarray:
    """A new array of all-even-family node values on the full grid: reflected evenly across every mirror plane."""
    out = np.array(values)
    for d in setup.mirror:
        out = np.concatenate([np.flip(out, d), out], axis=d)
    return out


def _slab(arr: np.ndarray, dim: int, idx: int) -> np.ndarray:
    return arr[(slice(None),) * dim + (idx,)]


def face_source_norm_sq(setup: SolverSetup, face: FaceData, t: float) -> float:
    """Squared face norm of g at time t, transverse-weighted: time_factor(t)^2 ||g||^2 at factor 1.

    The norm is over the face's stored nodes; summed over the faces of a
    mirrored run, ``mirror_scale`` times it is the full domain's.
    """
    if face.inflow.kind == "none":
        return 0.0
    tf = face.inflow.time_factor(t, setup.scenario.energy_map)
    return tf * tf * face.source_norm_sq


# ---------------------------------------------------------------------------
# the transport kernel


def _along(arr: np.ndarray, d: int) -> np.ndarray:
    """View of a C-contiguous array as (before, axis d, after): axis d at position -2."""
    shape = arr.shape
    return arr.reshape(math.prod(shape[:d]), shape[d], math.prod(shape[d + 1:]))


def _product(axes_spanned: int):
    """The call for a dense product that runs over the nodes of ``axes_spanned`` grid axes.

    ``np.dot`` up to one axis, where dispatch is a large share of a product's
    cost and ``np.dot``'s is the lower; ``np.matmul`` over a plane or a
    volume, where it is the faster.  Both give the same bits.
    """
    return np.dot if axes_spanned <= 1 else np.matmul


class _Stepper:
    """The transport kernel with in-place Strang/RK4 stepping of one flat state.

    u is the flat state it was given, which it steps in place; k, stage and
    acc are flat arrays of the same layout, and ``state`` is the dict of
    family views of u.  The two plans that RK4 needs are bound at
    construction: ``plan_u`` reads u and writes acc (k1 goes straight into
    the accumulator), ``plan_stage`` reads stage and writes k.  :meth:`rhs`
    runs one of them.
    """

    def __init__(self, setup: SolverSetup, u: np.ndarray):
        self.setup = setup
        tensor = setup.tensor
        self.u = u
        self.k, self.stage, self.acc = (np.empty(setup.size) for _ in range(3))
        self.state = setup.views(u)
        self.scratch = np.empty(max(span.stop - span.start for span in setup.spans.values()))
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

    def _bind(self, x: np.ndarray, out: np.ndarray) -> tuple:
        """The plan that reads buffer ``x`` and writes buffer ``out``: views, operands and calls bound once.

        Each product carries its call (:func:`_product`): the coupling's rows
        run over every axis, a SAT slab's and a leading-axis corner's over all
        but one; a corner along a later axis is batched over the axes before
        it and takes ``np.matmul``.  Per face, the plan holds the inflow when a
        block carries a source, and per block the slabs with m_eff^T, g's
        space-direction product, the residual buffer, tau^o^T / p^o with the
        odd increment's buffer and, unless alpha = 1 makes tau^e vanish, the
        even slab with tau^e^T / p^e and its increment's buffer.
        """
        tensor = self.setup.tensor
        src_of, dst_of = self.setup.views(x), self.setup.views(out)
        coupling_product, face_product = _product(tensor.ndim), _product(tensor.ndim - 1)
        diffs, corners, coupling = [], [], []
        for a, terms in self.terms.items():
            dst = dst_of[a].reshape(-1, dst_of[a].shape[-1])
            for n, (d, c, block, db) in enumerate(terms):
                src = src_of[c]
                pre = (slice(None),) * d
                target = db if a[d] == "o" else db[pre + (slice(1, -1),)]
                diffs.append((src[pre + (slice(1, None),)], src[pre + (slice(None, -1),)], target))
                pair = tensor.pairs[d]
                # the leading axis has nothing before it to batch over: its corners are 2-D products
                prod, batch = (face_product, 0) if d == 0 else (np.matmul, slice(None))
                for cn in pair.corners_odd if a[d] == "o" else pair.corners_even:
                    corners.append((prod, cn.weights, _along(src, d)[batch, cn.cols], _along(db, d)[batch, cn.rows]))
                lhs = db.reshape(-1, db.shape[-1])
                if n == 0:
                    coupling.append((coupling_product, lhs, block, dst, None))
                else:
                    coupling.append((coupling_product, lhs, block, self.scratch[: dst.size].reshape(dst.shape), dst))
        sats = []
        for face in self.setup.faces:
            d, bidx = face.dim, face.boundary_index
            p_odd = tensor.axis_weights(d, "o")[bidx]
            p_even = tensor.axis_weights(d, "e")[bidx]
            bound = []
            for blk in face.blocks:
                u_o = _slab(src_of[blk.family_odd], d, bidx)
                even = None
                if face.alpha != 1.0:
                    out_e = _slab(dst_of[blk.family_even], d, bidx)
                    even = (out_e, blk.tau_even.T / p_even, np.empty(out_e.shape))
                bound.append((
                    u_o, _slab(src_of[blk.family_even], d, bidx), blk.m_eff.T.copy(), np.empty(u_o.shape),
                    np.multiply.outer(blk.g_space, blk.g_dir) if blk.has_source else None,
                    _slab(dst_of[blk.family_odd], d, bidx), blk.tau_odd.T / p_odd, np.empty(u_o.shape), even,
                ))
            inflow = face.inflow if any(blk.has_source for blk in face.blocks) else None
            sats.append((inflow, face_product, bound))
        return diffs, corners, coupling, sats

    def rhs(self, plan: tuple, t: float) -> None:
        """Transport + SAT increment at time t of the plan's input buffer, written to its output."""
        self.rhs_calls += 1
        diffs, corners, coupling, sats = plan
        for hi, lo, target in diffs:
            np.subtract(hi, lo, out=target)
        for prod, weights, src, target in corners:
            prod(weights, src, out=target)
        for prod, lhs, block, target, into in coupling:
            prod(lhs, block, out=target)
            if into is not None:
                into += target
        energy_map = self.setup.scenario.energy_map
        for inflow, prod, bound in sats:
            tf = inflow.time_factor(t, energy_map) if inflow is not None else 0.0
            for u_o, u_e, m_t, res, g, out_o, tau_odd, inc_o, even in bound:
                prod(u_e, m_t, out=res)
                np.subtract(u_o, res, out=res)
                if g is not None:
                    np.multiply(g, tf, out=inc_o)  # inc_o as scratch: tf g, before it takes the increment
                    res -= inc_o
                prod(res, tau_odd, out=inc_o)
                out_o += inc_o
                if even is not None:
                    out_e, tau_even, inc_e = even
                    prod(res, tau_even, out=inc_e)
                    out_e += inc_e

    def _relax(self, dt_half: float) -> None:
        """Exact relaxation of u over dt_half; factors cached per step size."""
        if self._relax_cache is None or self._relax_cache[0] != dt_half:
            factors = {a: np.exp(q * dt_half) for a, q in self.q_relax.items()}
            self._relax_cache = (dt_half, factors)
        for a, f in self._relax_cache[1].items():
            self.state[a] *= f

    def step(self, dt: float, t: float) -> None:
        """Advance u (and so ``self.state``) in place by one Strang step."""
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


def rhs(setup: SolverSetup, u: np.ndarray, t: float = 0.0) -> np.ndarray:
    """Transport + SAT increment (no relaxation) of a flat state, as a new flat array; pure in ``u``."""
    stepper = _Stepper(setup, u.copy())
    stepper.rhs(stepper.plan_u, t)
    return stepper.acc


def step_strang(setup: SolverSetup, u: np.ndarray, dt: float, t: float = 0.0) -> np.ndarray:
    """One Strang-split step (relax, RK4, relax) of a copy of the flat state ``u``; dt must meet the CFL bound."""
    limit = setup.dt_stable()
    if dt > limit * (1.0 + 1e-12):
        raise ValidationError(
            f"dt = {dt} violates the CFL bound cfl * h_min / (ndim * max_speed) = {limit}"
        )
    stepper = _Stepper(setup, u.copy())
    stepper.step(dt, t)
    return stepper.u


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
    final_state: np.ndarray  # flat, in the layout of setup.spans
    setup: SolverSetup


STEP_BUDGET = 10_000_000  # the most steps one run may take


def _check_step_budget(t_end: float, dt: float, n_snapshots: int) -> None:
    """Raise before the first step when a run could take more than :data:`STEP_BUDGET` steps.

    A run takes at most ceil(t_end / dt) steps of dt plus one shortened step
    per snapshot time; dt = 0 counts as unbounded.
    """
    bound = t_end / dt + n_snapshots if dt > 0 else math.inf
    if bound > STEP_BUDGET:
        raise NumericalError(
            f"the run needs up to {bound:.3g} steps of dt = {dt:.3g} to reach t_end = {t_end:.6g}, "
            f"over the budget of {STEP_BUDGET:,} steps"
        )


def run(scenario: Scenario) -> RunResult:
    """Integrate a scenario to its end time, recording energy and snapshots.

    Energies, the bound and the snapshots are full-domain also for a
    mirrored run; ``final_state`` is the stored state of ``setup``.
    """
    wall0 = _time.perf_counter()
    setup = build_setup(scenario)
    dt_base = setup.dt_stable()
    _check_step_budget(scenario.t_end, dt_base, len(scenario.snapshot_times))
    stepper = _Stepper(setup, initial_state(setup))
    t = 0.0
    times = [0.0]
    setup_s = _time.perf_counter() - wall0
    energies = [energy(setup, stepper.u)]
    gsq = [0.0]

    inflow_faces = [f for f in setup.faces if f.inflow.kind != "none"]  # every other face adds an exact 0

    def source_norm_sq(at_t: float) -> float:
        return setup.mirror_scale * sum(face_source_norm_sq(setup, f, at_t) for f in inflow_faces)

    gnorm_prev = source_norm_sq(0.0)
    snap_iter = iter(sorted(scenario.snapshot_times))
    next_snap = next(snap_iter, None)
    snapshots: list[Snapshot] = []
    e_family = ("e",) * setup.tensor.ndim
    snap_nodes = tuple(g.full.x_even for g in setup.tensor.grids)

    def take_snapshot(at_t: float) -> None:
        snapshots.append(
            Snapshot(
                time=at_t,
                energy=scenario.energy_of(at_t),
                nodes=snap_nodes,
                u00=unfold(setup, stepper.state[e_family][..., 0]),
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
        gnorm_now = source_norm_sq(t)
        gsq.append(gsq[-1] + 0.5 * dt * (gnorm_prev + gnorm_now))
        gnorm_prev = gnorm_now
        times.append(t)
        energies.append(e_now)
        while next_snap is not None and t >= next_snap - 1e-12:
            take_snapshot(t)
            next_snap = next(snap_iter, None)
        if step_count > STEP_BUDGET:  # a backstop: _check_step_budget bounds the count up front
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
        "max_speed": setup.speed,
        "matrix_norms": {f"ahat_axis_{ax}": setup.speed for ax in scenario.axes},
        "c_constant": c_const,
        "components": {
            "integrated": setup.n_components,
            "basis": setup.basis.dim,
            "modes": modes,
        },
        "mirror": [scenario.axis_names[d] for d in setup.mirror],
        "length_unit": scenario.length_unit,
        "seconds": {"setup": setup_s, "stepping": stepping_s},
        "rhs_calls": stepper.rhs_calls,
        "wall_seconds": _time.perf_counter() - wall0,
    }
    return RunResult(scenario, log, snapshots, meta, stepper.u, setup)


# ---------------------------------------------------------------------------
# diagnostics


@dataclass(frozen=True)
class BoundReport:
    """Energy bound over a run's log: ``margin`` is the smallest bound(t) - E(t) after t = 0 (where it is
    the tolerance); ``first_violation`` is the (time, step) where E(t) first exceeds the bound, or None."""

    applicable: bool
    ok: bool
    e_final: float
    e_initial: float
    bound_final: float
    margin: float
    c_constant: float | None
    first_violation: tuple[float, int] | None = None

    def describe(self) -> str:
        if not self.applicable:
            return "energy-bound check not applicable (non-Onsager face present)"
        verdict = "holds" if self.ok else "VIOLATED"
        text = (
            f"discrete energy bound {verdict}: E(T) = {self.e_final:.6e} vs "
            f"bound {self.bound_final:.6e} (C = {self.c_constant:.4g}, smallest margin = {self.margin:.3e})"
        )
        if self.first_violation is not None:
            t, step = self.first_violation
            text += f"; first exceeded at t = {t:.6g} (step {step})"
        return text


def energy_bound_check(result: RunResult, tol_rel: float = 1e-8) -> BoundReport:
    """E(t) <= E(0) + C * sum_faces int_0^t g^T g dt + tol at every logged time, C from the penalty family."""
    log = result.log
    if log.c_constant is None:
        return BoundReport(False, False, log.energies[-1], log.energies[0], math.nan, math.nan, None)
    bound = log.bound + tol_rel * log.energies[0]
    over = np.flatnonzero(~(log.energies <= bound))  # a NaN energy counts as over
    first = None if over.size == 0 else (float(log.times[over[0]]), int(over[0]))
    slack = (bound - log.energies)[1:] if bound.size > 1 else bound - log.energies
    return BoundReport(
        True, first is None, float(log.energies[-1]), float(log.energies[0]),
        float(bound[-1]), float(slack.min()), float(log.c_constant), first,
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
