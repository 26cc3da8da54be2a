import json
from importlib.resources import files
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp

from pnsat.checks import golden_sector  # the test modules import it from here
from pnsat.config import load_scenario, scenario_from_dict
from pnsat.moments import MomentBasis, assemble_transport
from pnsat.solver import build_setup
from pnsat.sphharm import rotation_about


def scenario_path(name: str) -> str:
    return str(files("pnsat") / "scenarios" / f"{name}.json")


def load_bundled(name: str):
    return load_scenario(scenario_path(name))


def bundled_doc(name: str) -> dict:
    with open(scenario_path(name)) as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def basis2():
    return MomentBasis.build(2)


@pytest.fixture(scope="session")
def system2(basis2):
    return assemble_transport(basis2)


@pytest.fixture(scope="session")
def basis5():
    return MomentBasis.build(5)


@pytest.fixture(scope="session")
def system5(basis5):
    return assemble_transport(basis5)


def every_moment_initial(n_max: int, ndim: int) -> dict:
    """Initial data with every basis moment non-zero, so the integrated sector is the full basis."""
    return {
        "kind": "gaussian_envelope_moments",
        "center": [0.1] * ndim,
        "width": [0.4] * ndim,
        "moments": [{"l": l, "k": k, "amp": 1.0} for l in range(n_max + 1) for k in range(-l, l + 1)],
    }


def full_basis(scenario, basis):
    """Stand-in for ``solver.sector`` that keeps every basis function and no modes."""
    return np.ones(basis.dim, dtype=bool), None


def full_domain(scenario, basis):
    """Stand-in for ``solver.mirror_symmetry`` that mirrors no axis: every run integrates its whole domain."""
    return ()


def build_full_setup(scenario):
    """The scenario's setup on the full basis about the physical axes: each family keeps all its positions."""
    with mock.patch("pnsat.solver.sector", full_basis):
        return build_setup(scenario)


def lift(setup, state, full) -> dict:
    """A state of ``setup`` in the layout of the full-basis setup ``full``.

    Each family's components go to their flat positions; a 1-D run's
    coefficients, on the basis about its axis, are rotated back onto the
    basis (c = R^T c' with R from ``rotation_about``).
    """
    basis = setup.basis
    back = np.eye(basis.dim)
    if setup.axes != full.axes:
        back = rotation_about(basis.n_max, setup.scenario.axes[0])
    out = {}
    for a, idx in setup.comps.items():
        vals = np.zeros(setup.tensor.family_shape(a) + (basis.dim,))
        vals[..., idx] = state[a]
        out[a] = (vals @ back)[..., full.comps[a]]
    return out


class AssembledOperator:
    """Global sparse form of the semi-discrete system, du/dt = L u + s(t).

    An independent reference for the solver's kernel: L is assembled from
    Kronecker products of the SBP derivative matrices D^o / D^e with the
    moment blocks, plus the SAT rows of every face block; s(t) carries the
    boundary source g.  States are packed by concatenating the flattened
    family arrays.  Build it on a full-basis setup (:func:`build_full_setup`)
    and compare reduced runs through :func:`lift`.
    """

    def __init__(self, setup):
        self.setup = setup
        tensor = setup.tensor
        fams = setup.families
        self.shapes = setup.shapes
        sizes = {a: int(np.prod(s)) for a, s in self.shapes.items()}
        starts = np.cumsum([0] + list(sizes.values()))
        self.slices = {a: slice(starts[i], starts[i + 1]) for i, a in enumerate(fams)}
        blocks = {(a, b): sp.csr_matrix((sizes[a], sizes[b])) for a in fams for b in fams}
        for a in fams:
            for d in range(tensor.ndim):
                pair = tensor.pairs[d]
                op = pair.d_odd if a[d] == "o" else pair.d_even
                blocks[a, tensor.complement(a, d)] -= sp.kron(
                    self._on_axis(a, d, op), setup.a_blocks[(a, d)].T
                )
        self.lifts = []
        for face in setup.faces:
            d, b = face.dim, face.boundary_index
            p_o = tensor.axis_weights(d, "o")[b]
            p_e = tensor.axis_weights(d, "e")[b]
            for blk in face.blocks:
                ao, ae = blk.family_odd, blk.family_even
                sel_o = self._on_axis(ao, d, self._unit_row(tensor.family_shape(ao)[d], b))
                sel_e = self._on_axis(ae, d, self._unit_row(tensor.family_shape(ae)[d], b))
                lift = {ao: sp.kron(sel_o.T, blk.tau_odd / p_o),
                        ae: sp.kron(sel_e.T, blk.tau_even / p_e)}
                residual = {ao: sp.kron(sel_o, np.eye(blk.m_eff.shape[0])), ae: -sp.kron(sel_e, blk.m_eff)}
                for x in (ao, ae):
                    for y in (ao, ae):
                        blocks[x, y] += lift[x] @ residual[y]
                self.lifts.append((face, blk, lift))
        self.matrix = sp.bmat([[blocks[a, b] for b in fams] for a in fams], format="csr")

    def _on_axis(self, a, d, mid):
        """Kronecker product over the grid axes: ``mid`` on axis d, identities elsewhere."""
        shape = self.setup.tensor.family_shape(a)
        before, after = int(np.prod(shape[:d])), int(np.prod(shape[d + 1:]))
        return sp.kron(sp.kron(sp.identity(before), mid), sp.identity(after), format="csr")

    @staticmethod
    def _unit_row(n, index):
        row = np.zeros((1, n))
        row[0, index] = 1.0
        return sp.csr_matrix(row)

    def pack(self, state) -> np.ndarray:
        return np.concatenate([state[a].ravel() for a in self.setup.families])

    def unpack(self, vec) -> dict:
        return {a: vec[self.slices[a]].reshape(s) for a, s in self.shapes.items()}

    def source(self, t: float) -> np.ndarray:
        out = np.zeros(self.matrix.shape[0])
        energy_map = self.setup.scenario.energy_map
        for face, blk, lift in self.lifts:
            if face.inflow.kind != "none":
                tf = face.inflow.time_factor(t, energy_map)
                g = (tf * np.multiply.outer(blk.g_space, blk.g_dir)).ravel()
                for fam, mat in lift.items():
                    out[self.slices[fam]] -= mat @ g
        return out

    def rhs(self, state, t: float = 0.0) -> dict:
        return self.unpack(self.matrix @ self.pack(state) + self.source(t))

    def step_strang(self, state, dt: float, t: float) -> dict:
        """Relaxation half-step, classical RK4 on L u + s(t), relaxation half-step."""
        relax = np.concatenate([
            np.broadcast_to(np.exp(self.setup.q_relax[a] * 0.5 * dt), s).ravel()
            for a, s in self.shapes.items()
        ])
        u = relax * self.pack(state)
        f = lambda v, s: self.matrix @ v + self.source(s)
        k1 = f(u, t)
        k2 = f(u + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = f(u + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = f(u + dt * k3, t + dt)
        return self.unpack(relax * (u + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)))
