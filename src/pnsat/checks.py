"""Named property checks backing the ``verify`` command.

Each check returns a :class:`CheckResult` with the measured margin, so the
command can print one machine-readable line per invariant.  Every size,
tolerance and seed is a literal in its check's body: ``verify`` runs each
check as it stands.  Two kinds of argument remain, for the tests: a
prebuilt ``system`` (the golden values and block purity), which makes
fault injection easy, and the degree list of
:func:`check_truncation_locality`.  The solver checks run small scenarios
end to end; :func:`check_free_streaming` measures the whole scheme against
the closed form of :mod:`pnsat.exact`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import boundary as bnd
from . import exact
from .config import scenario_from_dict
from .moments import MomentBasis, ScatteringSpectrum, assemble_transport, recursion_check, scattering_diagonal
from .sbp import StaggeredGrid1d, build_sbp_pair, sat_penalties
from .solver import _Stepper, build_setup, energy, inner, mass_u00, run
from .sphharm import build_quadrature, eval_basis, flat_position, reflect


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    margin: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"  {self.detail}" if self.detail else ""
        return f"{status} {self.name} margin={self.margin:.3e}{extra}"


def truncate4(x: float) -> float:
    """Truncate |x| to 4 decimals, keeping the sign (printed-value comparison)."""
    return math.copysign(math.floor(abs(x) * 1e4) / 1e4, x)


def _random_directions(n: int, rng) -> np.ndarray:
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1)[:, None]


# --------------------------------------------------------------------------- sphharm


def check_orthonormality() -> CheckResult:
    tol = 1e-11
    worst = 0.0
    for n in (3, 8, 13):
        quad = build_quadrature(n)
        y = eval_basis(n, quad.nodes)
        gram = y.T @ (quad.weights[:, None] * y)
        worst = max(worst, float(np.abs(gram - np.eye(y.shape[1])).max()))
    return CheckResult("sphharm.orthonormality", worst < tol, tol - worst, f"max gram dev {worst:.2e}")


def check_parity() -> CheckResult:
    tol = 1e-12
    dirs = _random_directions(1000, np.random.default_rng(0))
    signs = MomentBasis.build(9).parity  # the table the solver reads
    y = eval_basis(9, dirs)
    worst = 0.0
    for axis in (1, 2, 3):
        y_ref = eval_basis(9, reflect(dirs, axis))
        worst = max(worst, float(np.abs(y_ref - signs[axis - 1][None, :] * y).max()))
    return CheckResult("sphharm.parity", worst < tol, tol - worst, f"max reflection dev {worst:.2e}")


def check_counting() -> CheckResult:
    ok = True
    for n in range(14):
        basis = MomentBasis.build(n)
        for axis in (1, 2, 3):
            odd = basis.odd_positions(axis).size
            even = basis.even_positions(axis).size
            ok &= odd == n * (n + 1) // 2 and even == (n + 1) * (n + 2) // 2
    return CheckResult("sphharm.counting", ok, 0.0 if ok else -1.0)


def check_half_plus_half() -> CheckResult:
    tol, n_max = 1e-11, 6
    full = build_quadrature(n_max)
    y_full = eval_basis(n_max, full.nodes)
    gram_full = y_full.T @ (full.weights[:, None] * y_full)
    worst = 0.0
    for axis in (1, 2, 3):
        acc = np.zeros_like(gram_full)
        for sign in (-1, 1):
            half = build_quadrature(n_max, restriction=(axis, sign))
            y = eval_basis(n_max, half.nodes)
            acc += y.T @ (half.weights[:, None] * y)
        worst = max(worst, float(np.abs(acc - gram_full).max()))
    return CheckResult("sphharm.half_plus_half", worst < tol, tol - worst, f"max dev {worst:.2e}")


# --------------------------------------------------------------------------- assembly


def golden_sector(basis: MomentBasis) -> tuple[np.ndarray, np.ndarray]:
    """The transversally even sector (even in y and z) of the x-face: its x-odd rows and x-even columns.

    At order 2 it is one odd row and three even columns, the sector of every
    printed golden value.
    """
    sector = np.all(basis.parity[1:] > 0, axis=0)
    odd = basis.parity[0] < 0
    return np.flatnonzero(sector & odd), np.flatnonzero(sector & ~odd)


def check_golden_coupling(system=None) -> CheckResult:
    """Printed coupling-row values (axis x, order 2, transversally even sector)."""
    basis = MomentBasis.build(2) if system is None else system.basis
    if system is None:
        system = assemble_transport(basis)
    rows, cols = golden_sector(basis)
    a_hat = system.a_hat_block(1, rows, cols).ravel()
    want = (0.5773, -0.2581, 0.4472)
    got = tuple(truncate4(v) for v in a_hat)
    ok = got == want
    return CheckResult("assembly.golden_coupling", ok, 0.0 if ok else -1.0, f"{got} vs {want}")


def check_block_purity(system=None) -> CheckResult:
    tol = 1e-13
    basis = MomentBasis.build(7) if system is None else system.basis
    if system is None:
        system = assemble_transport(basis)
    worst = 0.0
    for axis in (1, 2, 3):
        a = system.a_full[axis - 1]
        odd = basis.odd_positions(axis)
        even = basis.even_positions(axis)
        worst = max(worst, float(np.abs(a[np.ix_(odd, odd)]).max()))
        worst = max(worst, float(np.abs(a[np.ix_(even, even)]).max()))
    return CheckResult("assembly.block_purity", worst < tol, tol - worst, f"max same-parity entry {worst:.2e}")


def check_spectrum() -> CheckResult:
    tol = 1e-10
    ok = True
    worst = 0.0
    for n in range(1, 10):
        basis = MomentBasis.build(n)
        system = assemble_transport(basis)
        for axis in (1, 2, 3):
            ev = np.linalg.eigvalsh(system.a_full[axis - 1])
            sym = float(np.abs(ev + ev[::-1]).max())
            worst = max(worst, sym)
            n_zero = int(np.sum(np.abs(ev) < tol))
            ok &= sym < tol and n_zero == n + 1
    return CheckResult("assembly.spectrum", ok and worst < tol, tol - worst,
                       f"max asymmetry {worst:.2e}")


def check_rank() -> CheckResult:
    tol = 1e-10
    system = assemble_transport(MomentBasis.build(13))
    smin = min(
        float(np.linalg.svd(system.a_hat[axis - 1], compute_uv=False)[-1]) for axis in (1, 2, 3)
    )
    return CheckResult("assembly.rank", smin > tol, smin - tol, f"min singular value {smin:.2e}")


def check_recursion() -> CheckResult:
    tol = 1e-12
    system = assemble_transport(MomentBasis.build(5))
    dirs = _random_directions(100, np.random.default_rng(1))
    worst = max(recursion_check(system, axis, dirs) for axis in (1, 2, 3))
    return CheckResult("assembly.recursion", worst < tol, tol - worst, f"max residual {worst:.2e}")


def check_quadrature_agreement() -> CheckResult:
    """Closed-form A^(i) against full-sphere quadrature of < omega_i Y, Y^T > for every axis, N = 13.

    The product rule of :func:`build_quadrature` is exact to degree
    2 N + 2, so the two agree to roundoff.
    """
    tol, n_max = 1e-12, 13
    system = assemble_transport(MomentBasis.build(n_max))
    quad = build_quadrature(n_max)
    y = eval_basis(n_max, quad.nodes)
    worst = 0.0
    for axis in (1, 2, 3):
        ref = y.T @ ((quad.weights * quad.nodes[:, axis - 1])[:, None] * y)
        worst = max(worst, float(np.abs(system.a_full[axis - 1] - ref).max()))
    return CheckResult("assembly.quadrature_agreement", worst < tol, tol - worst,
                       f"max entry dev {worst:.2e}")


def check_scattering() -> CheckResult:
    tol = 1e-13
    basis = MomentBasis.build(4)
    iso = scattering_diagonal(ScatteringSpectrum.isotropic(2.0, 4), basis)
    ok = abs(iso[0]) < tol and np.allclose(iso[1:], -2.0, atol=tol)
    hg = scattering_diagonal(ScatteringSpectrum.henyey_greenstein(1.0, 0.5, 4), basis)
    ok &= abs(hg[flat_position(2, 0)] - (0.25 - 1.0)) < tol
    return CheckResult("assembly.scattering", bool(ok), 0.0 if ok else -1.0)


# --------------------------------------------------------------------------- boundary


def check_golden_marshak(system=None) -> CheckResult:
    basis = MomentBasis.build(2) if system is None else system.basis
    if system is None:
        system = assemble_transport(basis)
    rows, cols = golden_sector(basis)
    mt = bnd.marshak_matrix(basis, bnd.Face(1, "high"), rows=rows, cols=cols).ravel()
    got = tuple(truncate4(v) for v in mt)
    ok = got == (0.8660, -0.2420, 0.4192)
    dot = truncate4(float(mt @ np.array([1.0, 2.5, -1.0])))
    ok = ok and dot == -0.1583
    return CheckResult("boundary.golden_marshak", ok, 0.0 if ok else -1.0,
                       f"{got}, row.(1,2.5,-1) = {dot}")


def check_l_analytic() -> CheckResult:
    tol = 1e-12
    basis = MomentBasis.build(1)
    face = bnd.Face(3, "high")
    l_mat = bnd.onsager_L(basis, face)
    mt = bnd.marshak_matrix(basis, face)
    # order-1 z-face: single odd component, three even columns led by the mean
    dev = max(abs(float(l_mat[0, 0]) - 1.5), abs(float(mt[0, 0]) - math.sqrt(3.0) / 2.0))
    return CheckResult("boundary.l_analytic", dev < tol, tol - dev, f"dev {dev:.2e}")


def check_truncation_locality(n_list=range(1, 8)) -> CheckResult:
    """Mtilde - L Ahat vanishes except in the highest-degree even columns."""
    tol = 1e-11
    worst = 0.0
    for n in n_list:
        basis = MomentBasis.build(n)
        system = assemble_transport(basis)
        for axis in (1, 2, 3):
            for side in ("low", "high"):
                face = bnd.Face(axis, side)
                mt = bnd.marshak_matrix(basis, face)
                obc = bnd.onsager_bc(basis, face, system)
                keep = basis.degrees[basis.even_positions(axis)] < n
                diff = (mt - obc.m_matrix)[:, keep]
                if diff.size:
                    worst = max(worst, float(np.abs(diff).max()))
    return CheckResult("boundary.truncation_locality", worst < tol, tol - worst,
                       f"max off-tail dev {worst:.2e}")


def check_energy_algebra() -> CheckResult:
    """Boundary flux form under the stabilized condition stays below the source bound."""
    tol = 1e-10
    rng = np.random.default_rng(2)
    basis = MomentBasis.build(3)
    system = assemble_transport(basis)
    face = bnd.Face(1, "high")
    obc = bnd.onsager_bc(basis, face, system)
    l_inv_norm = float(np.linalg.norm(np.linalg.inv(obc.l_matrix), 2))
    worst = -np.inf
    for _ in range(1000):
        u_e = rng.standard_normal(obc.a_hat.shape[1])
        g = rng.standard_normal(obc.a_hat.shape[0])
        u_o = obc.m_matrix @ u_e + g
        flux = -2.0 * float(u_o @ (obc.a_hat @ u_e))
        worst = max(worst, flux - l_inv_norm * float(g @ g))
    return CheckResult("boundary.energy_algebra", worst <= tol, tol - worst,
                       f"max flux excess {worst:.2e}")


def check_characteristic() -> CheckResult:
    tol = 1e-11
    rng = np.random.default_rng(3)
    basis = MomentBasis.build(4)
    system = assemble_transport(basis)
    worst = 0.0
    consistent = True
    for side in ("low", "high"):
        face = bnd.Face(2, side)
        obc = bnd.onsager_bc(basis, face, system)
        cf = bnd.characteristic_form(obc)
        for _ in range(200):
            u_e = rng.standard_normal(obc.a_hat.shape[1])
            g = rng.standard_normal(obc.a_hat.shape[0])
            u_o = obc.m_matrix @ u_e + g
            worst = max(worst, cf.residual(u_o, u_e, g))
            # a violated condition must show a nonzero characteristic residual
            u_bad = u_o + rng.standard_normal(u_o.shape)
            obc_res = float(np.abs(u_bad - (obc.m_matrix @ u_e + g)).max())
            consistent &= cf.residual(u_bad, u_e, g) > 0.01 * obc_res
    return CheckResult("boundary.characteristic", worst < tol and consistent, tol - worst,
                       f"max equivalent-form residual {worst:.2e}")


def check_reflection_consistency() -> CheckResult:
    tol = 1e-13
    basis = MomentBasis.build(5)
    worst = 0.0
    for axis in (1, 2, 3):
        lo, hi = bnd.Face(axis, "low"), bnd.Face(axis, "high")
        worst = max(worst, float(np.abs(
            bnd.marshak_matrix(basis, lo) + bnd.marshak_matrix(basis, hi)).max()))
        worst = max(worst, float(np.abs(
            bnd.onsager_L(basis, lo) - bnd.onsager_L(basis, hi)).max()))
    return CheckResult("boundary.reflection_consistency", worst < tol, tol - worst,
                       f"max dev {worst:.2e}")


# --------------------------------------------------------------------------- sbp


def check_sbp_identity() -> CheckResult:
    worst = 0.0
    for n in (8, 16, 64):
        pair = build_sbp_pair(StaggeredGrid1d(0.0, 1.0, n))
        dev = np.abs(pair.q_odd + pair.q_even.T - pair.boundary_matrix()).max()
        worst = max(worst, float(dev))
    return CheckResult("sbp.identity", worst == 0.0, -worst, f"max entry dev {worst:.2e}")


def check_sbp_exactness() -> CheckResult:
    tol = 1e-12
    worst = 0.0
    for n in (8, 16, 64):
        grid = StaggeredGrid1d(-0.3, 1.1, n)
        pair = build_sbp_pair(grid)
        worst = max(worst, float(np.abs(pair.d_odd @ np.ones(n + 2)).max()))
        worst = max(worst, float(np.abs(pair.d_odd @ grid.x_even - 1.0).max()))
        worst = max(worst, float(np.abs(pair.d_even @ np.ones(n + 1)).max()))
        worst = max(worst, float(np.abs(pair.d_even @ grid.x_odd - 1.0).max()))
    return CheckResult("sbp.exactness", worst < tol, tol - worst, f"max dev {worst:.2e}")


def check_sbp_convergence() -> CheckResult:
    min_order = 1.8
    errs = []
    ns = (16, 32, 64, 128)
    for n in ns:
        grid = StaggeredGrid1d(0.0, 1.0, n)
        pair = build_sbp_pair(grid)
        err = pair.d_odd @ np.sin(grid.x_even + 2.0) - np.cos(grid.x_odd + 2.0)
        errs.append(math.sqrt(float(err @ (pair.p_odd * err))))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    worst = min(orders)
    return CheckResult("sbp.convergence", worst >= min_order, worst - min_order,
                       f"observed orders {[round(o, 2) for o in orders]}")


def check_penalty_admissibility() -> CheckResult:
    tol = 1e-12
    rng = np.random.default_rng(4)
    worst = -np.inf
    for r in (1, 3, 10):
        m = rng.standard_normal((r, r))
        l_mat = m @ m.T + 0.1 * np.eye(r)
        a_hat = rng.standard_normal((r, r + 2))
        for alpha in (0.0, 0.5, 1.0):
            tau_odd = sat_penalties(l_mat, a_hat, alpha)[0]  # the same on both sides
            ev_tau = np.linalg.eigvalsh(0.5 * (tau_odd + tau_odd.T))
            worst = max(worst, float(ev_tau.max()))  # must stay <= 0
            cond = l_mat @ (-tau_odd.T) @ l_mat - l_mat
            worst = max(worst, float(np.linalg.eigvalsh(0.5 * (cond + cond.T)).max()))
    return CheckResult("sbp.penalty_admissibility", worst <= tol, tol - worst,
                       f"max stability-condition excess {worst:.2e}")


def check_semidiscrete_dissipativity() -> CheckResult:
    """<u, P rhs(u)> <= 0 for random states over the full basis (g = 0).

    The probe holds a degree-3 initial moment in each of the four (y, z)
    parity classes, so every azimuthal mode about x up to N = 3 is kept and
    the probed state space is the whole 16-component basis; the check fails
    if it is not.
    """
    sc = scenario_from_dict({
        "name": "dissipativity-probe",
        "model": {"N": 3, "scattering": {"kind": "none"}, "stopping": {"mode": "time"}},
        "domain": {"axes": ["x"], "extents": [[0.0, 1.0]], "cells": [16]},
        "boundaries": {
            "x_low": {"type": "onsager", "alpha": 1.0, "psi_in": {"kind": "none"}},
            "x_high": {"type": "onsager", "alpha": 0.5, "psi_in": {"kind": "none"}},
        },
        "initial": {
            "kind": "gaussian_envelope_moments",
            "center": [0.5],
            "width": [0.2],
            # (y, z) parity classes: (e, e), (o, e), (e, o), (o, o)
            "moments": [
                {"l": 3, "k": 1, "amp": 1.0},
                {"l": 3, "k": -1, "amp": 1.0},
                {"l": 3, "k": 0, "amp": 1.0},
                {"l": 3, "k": -2, "amp": 1.0},
            ],
        },
        "integration": {"cfl": 0.5, "t_end": 1.0},
        "outputs": {"snapshot_times": []},
    })
    tol = 1e-12
    setup = build_setup(sc)
    stepper = _Stepper(setup, np.empty(setup.size))  # one stepper: rhs_u reads u and writes acc
    rng = np.random.default_rng(5)
    worst = -np.inf
    for _ in range(100):
        st = rng.standard_normal(setup.size)
        stepper.u[...] = st
        stepper.rhs_u(0.0)
        worst = max(worst, inner(setup, st, stepper.acc) / energy(setup, st))
    n, dim = setup.n_components, setup.basis.dim
    return CheckResult("solver.semidiscrete_dissipativity", worst <= tol and n == dim, tol - worst,
                       f"max <u, P rhs>/E = {worst:.2e} over {n}/{dim} components")


def run_deviation(result, reference) -> tuple[float, str]:
    """How far a run is from its reference: the largest deviation and the name of its column.

    Exact facts (a mismatch returns ``(inf, <fact>)``): metadata ``dt`` and
    ``steps``, the time grid, and the snapshot times, nodes and u00 shapes.
    Columns, each over the ``nanmax`` of the reference column's magnitude
    (1 when all NaN): energy, bound, source integral, C, the final mass
    (:func:`pnsat.solver.mass_u00`) and each snapshot's u00.  NaN agrees
    only with NaN in the same place, so a C of None only with None.
    """
    pairs = list(zip(result.snapshots, reference.snapshots))
    for fact, same in (
        ("dt", result.metadata["dt"] == reference.metadata["dt"]),
        ("steps", result.metadata["steps"] == reference.metadata["steps"]),
        ("times", np.array_equal(result.log.times, reference.log.times)),
        ("snapshot times", [s.time for s in result.snapshots] == [s.time for s in reference.snapshots]),
        ("snapshot grids", all(a.u00.shape == b.u00.shape and all(map(np.array_equal, a.nodes, b.nodes))
                               for a, b in pairs)),
    ):
        if not same:
            return math.inf, fact
    columns = [
        ("energy", result.log.energies, reference.log.energies),
        ("bound", result.log.bound, reference.log.bound),
        ("source integral", result.log.source_integral, reference.log.source_integral),
        ("C", result.metadata["c_constant"], reference.metadata["c_constant"]),
        ("mass", mass_u00(result.setup, result.final_state), mass_u00(reference.setup, reference.final_state)),
    ] + [(f"snapshot {i}", a.u00, b.u00) for i, (a, b) in enumerate(pairs)]
    worst = (0.0, "energy")
    for name, got, want in columns:
        got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)  # None reads as NaN
        nan = np.isnan(want)
        if not np.array_equal(nan, np.isnan(got)):
            return math.inf, name
        diff, scale = np.abs(got - want)[~nan].max(initial=0.0), np.abs(want)[~nan].max(initial=0.0)
        dev = diff / scale if scale else (math.inf if diff else 0.0)
        worst = max(worst, (dev, name), key=lambda w: w[0])
    return worst


def check_mirror_agreement() -> CheckResult:
    """A small symmetric x-z run on x >= 0 against the same run on the whole domain.

    The probe has alpha = 0.5 x faces (so tau^e acts), a time-dependent
    beam on z_high, anisotropic scattering and x-even data in several
    parity classes, so it exercises the half pair's plane corner, the
    dropped low face and the 2x scaling of energy, bound and source
    integral.  The reference adds a zero-amplitude isotropic inflow on
    x_low: g = 0 changes nothing, but the x faces differ, so it runs full.
    Passes when only the probe is mirrored, on x (so the check fails should
    zero inflow ever count as none), and :func:`run_deviation` < ``tol``.
    """
    tol = 1e-12
    face = {"type": "onsager", "alpha": 0.5, "psi_in": {"kind": "none"}}
    beam = {"kind": "beam", "amplitude": 1.0, "sigma_x": 0.5, "sigma_omega": 0.3,
            "eps_center": 1.9, "sigma_eps": 0.1}
    doc = {
        "name": "mirror-probe",
        "model": {"N": 3, "scattering": {"kind": "henyey_greenstein", "sigma_s": 1.0, "g": 0.5},
                  "stopping": {"mode": "energy", "s_rho": 1.0, "eps_max": 2.0, "eps_end": 1.5}},
        "domain": {"axes": ["x", "z"], "extents": [[-1.0, 1.0], [-1.5, 0.0]], "cells": [16, 10]},
        "boundaries": {"x_low": face, "x_high": face, "z_low": {**face, "alpha": 1.0},
                       "z_high": {**face, "alpha": 1.0, "psi_in": beam}},
        "initial": {"kind": "gaussian_envelope_moments", "center": [0.0, -0.7], "width": [0.4, 0.4],
                    "moments": [{"l": 0, "k": 0, "amp": 1.0}, {"l": 1, "k": 0, "amp": 0.4},
                                {"l": 1, "k": -1, "amp": 0.3}, {"l": 2, "k": 2, "amp": -0.5}]},
        "integration": {"cfl": 0.5},
        "outputs": {"snapshot_energies": [1.8, 1.5]},
    }
    half = run(scenario_from_dict(doc))
    doc["boundaries"]["x_low"] = {**face, "psi_in": {"kind": "isotropic", "amplitude": 0.0}}
    full = run(scenario_from_dict(doc))
    mirrored = half.metadata["mirror"] == ["x"] and full.metadata["mirror"] == []
    dev, column = run_deviation(half, full) if mirrored else (math.inf, "the mirror axes")
    return CheckResult("solver.mirror_agreement", dev < tol, tol - dev,
                       f"max dev {dev:.2e} of the column's max, in {column}")


def _free_streaming_error(n_max: int, cells: int, t_end: float) -> float:
    """Relative L2 error of u00 at t_end against :func:`pnsat.exact.u00`, on the snapshot's nodes.

    The probe is the paper's first test case: a normal pdf pulse (sigma 0.2)
    on [-1, 1], isotropic, with vacuum Onsager faces and no scattering.
    """
    vacuum = {"type": "onsager", "alpha": 1.0, "psi_in": {"kind": "none"}}
    snap = run(scenario_from_dict({
        "name": "free-streaming-probe",
        "model": {"N": n_max, "scattering": {"kind": "none"}, "stopping": {"mode": "time"}},
        "domain": {"axes": ["x"], "extents": [[-1.0, 1.0]], "cells": [cells]},
        "boundaries": {"x_low": vacuum, "x_high": vacuum},
        "initial": {"kind": "gaussian_bulk", "mu": [0.0], "sigma": [0.2],
                    "normalize": "pdf", "direction": {"kind": "isotropic"}},
        "integration": {"cfl": 0.5, "t_end": t_end},
        "outputs": {"snapshot_times": [t_end]},
    })).snapshots[0]
    want = exact.u00(snap.nodes[0], snap.time, 0.2)
    return float(np.linalg.norm(snap.u00 - want) / np.linalg.norm(want))


def check_free_streaming() -> CheckResult:
    """The whole scheme against the closed-form free-streaming solution.

    Cell orders: the error at N = 13 and t = 0.4 on 100, 200 and 400 cells,
    where the spatial error dominates; both orders lie within 0.2 of 2.  N
    ladder: the error at t = 2 on 100 cells, after the pulse has reached the
    faces, where the angular truncation dominates; it falls from P3 to P7 to
    P13.  The margin is 0.2 less the largest order deviation, -1 when the
    ladder does not fall.
    """
    errs = [_free_streaming_error(13, cells, 0.4) for cells in (100, 200, 400)]
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    ladder = [_free_streaming_error(n, 100, 2.0) for n in (3, 7, 13)]
    dev = max(abs(o - 2.0) for o in orders)
    falling = ladder[0] > ladder[1] > ladder[2]
    return CheckResult("solver.free_streaming", dev <= 0.2 and falling, 0.2 - dev if falling else -1.0,
                       f"cell orders {[round(o, 2) for o in orders]} at N = 13, t = 0.4; "
                       f"P3/P7/P13 errors [{', '.join(f'{e:.3g}' for e in ladder)}] at t = 2")


ALL_CHECKS = (
    check_orthonormality,
    check_parity,
    check_counting,
    check_half_plus_half,
    check_golden_coupling,
    check_block_purity,
    check_spectrum,
    check_rank,
    check_recursion,
    check_quadrature_agreement,
    check_scattering,
    check_golden_marshak,
    check_l_analytic,
    check_truncation_locality,
    check_energy_algebra,
    check_characteristic,
    check_reflection_consistency,
    check_sbp_identity,
    check_sbp_exactness,
    check_sbp_convergence,
    check_penalty_admissibility,
    check_semidiscrete_dissipativity,
    check_mirror_agreement,
    check_free_streaming,
)


def run_all() -> list[CheckResult]:
    return [c() for c in ALL_CHECKS]
