"""Named property checks backing the ``verify`` command.

Each check returns a :class:`CheckResult` with the measured margin, so the
command can print one machine-readable line per invariant.  The functions
accept prebuilt objects where that makes fault injection easy to test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import boundary as bnd
from .moments import MomentBasis, ScatteringSpectrum, assemble_transport, recursion_check, scattering_diagonal
from .sbp import StaggeredGrid1d, build_sbp_pair, sat_penalties
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


def check_orthonormality(n_list=(3, 8, 13), tol=1e-11) -> CheckResult:
    worst = 0.0
    for n in n_list:
        quad = build_quadrature(n)
        y = eval_basis(n, quad.nodes)
        gram = y.T @ (quad.weights[:, None] * y)
        worst = max(worst, float(np.abs(gram - np.eye(y.shape[1])).max()))
    return CheckResult("sphharm.orthonormality", worst < tol, tol - worst, f"max gram dev {worst:.2e}")


def check_parity(n_max=9, n_dirs=1000, tol=1e-12, seed=0) -> CheckResult:
    rng = np.random.default_rng(seed)
    dirs = _random_directions(n_dirs, rng)
    signs = MomentBasis.build(n_max).parity  # the table the solver reads
    y = eval_basis(n_max, dirs)
    worst = 0.0
    for axis in (1, 2, 3):
        y_ref = eval_basis(n_max, reflect(dirs, axis))
        worst = max(worst, float(np.abs(y_ref - signs[axis - 1][None, :] * y).max()))
    return CheckResult("sphharm.parity", worst < tol, tol - worst, f"max reflection dev {worst:.2e}")


def check_counting(n_max=13) -> CheckResult:
    ok = True
    for n in range(n_max + 1):
        basis = MomentBasis.build(n)
        for axis in (1, 2, 3):
            odd = basis.odd_positions(axis).size
            even = basis.even_positions(axis).size
            ok &= odd == n * (n + 1) // 2 and even == (n + 1) * (n + 2) // 2
    return CheckResult("sphharm.counting", ok, 0.0 if ok else -1.0)


def check_half_plus_half(n_max=6, tol=1e-11) -> CheckResult:
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


def check_block_purity(n_max=7, tol=1e-13, system=None) -> CheckResult:
    basis = MomentBasis.build(n_max) if system is None else system.basis
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


def check_spectrum(n_list=range(1, 10), tol=1e-10) -> CheckResult:
    ok = True
    worst = 0.0
    for n in n_list:
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


def check_rank(n_max=13, tol=1e-10) -> CheckResult:
    basis = MomentBasis.build(n_max)
    system = assemble_transport(basis)
    smin = min(
        float(np.linalg.svd(system.a_hat[axis - 1], compute_uv=False)[-1]) for axis in (1, 2, 3)
    )
    return CheckResult("assembly.rank", smin > tol, smin - tol, f"min singular value {smin:.2e}")


def check_recursion(n_max=5, n_dirs=100, tol=1e-12, seed=1) -> CheckResult:
    rng = np.random.default_rng(seed)
    basis = MomentBasis.build(n_max)
    system = assemble_transport(basis)
    dirs = _random_directions(n_dirs, rng)
    worst = max(recursion_check(system, axis, dirs) for axis in (1, 2, 3))
    return CheckResult("assembly.recursion", worst < tol, tol - worst, f"max residual {worst:.2e}")


def check_quadrature_agreement(n_max=13, tol=1e-12) -> CheckResult:
    """Closed-form A^(i) against full-sphere quadrature of < omega_i Y, Y^T > for every axis.

    The product rule of :func:`build_quadrature` is exact to degree
    2 n_max + 2, so the two agree to roundoff.
    """
    system = assemble_transport(MomentBasis.build(n_max))
    quad = build_quadrature(n_max)
    y = eval_basis(n_max, quad.nodes)
    worst = 0.0
    for axis in (1, 2, 3):
        ref = y.T @ ((quad.weights * quad.nodes[:, axis - 1])[:, None] * y)
        worst = max(worst, float(np.abs(system.a_full[axis - 1] - ref).max()))
    return CheckResult("assembly.quadrature_agreement", worst < tol, tol - worst,
                       f"max entry dev {worst:.2e}")


def check_scattering(tol=1e-13) -> CheckResult:
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


def check_l_analytic(tol=1e-12) -> CheckResult:
    basis = MomentBasis.build(1)
    face = bnd.Face(3, "high")
    l_mat = bnd.onsager_L(basis, face)
    mt = bnd.marshak_matrix(basis, face)
    # order-1 z-face: single odd component, three even columns led by the mean
    dev = max(abs(float(l_mat[0, 0]) - 1.5), abs(float(mt[0, 0]) - math.sqrt(3.0) / 2.0))
    return CheckResult("boundary.l_analytic", dev < tol, tol - dev, f"dev {dev:.2e}")


def check_truncation_locality(n_list=range(1, 8), tol=1e-11) -> CheckResult:
    """Mtilde - L Ahat vanishes except in the highest-degree even columns."""
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


def check_energy_algebra(n_max=3, n_samples=1000, tol=1e-10, seed=2) -> CheckResult:
    """Boundary flux form under the stabilized condition stays below the source bound."""
    rng = np.random.default_rng(seed)
    basis = MomentBasis.build(n_max)
    system = assemble_transport(basis)
    face = bnd.Face(1, "high")
    obc = bnd.onsager_bc(basis, face, system)
    l_inv_norm = float(np.linalg.norm(np.linalg.inv(obc.l_matrix), 2))
    worst = -np.inf
    for _ in range(n_samples):
        u_e = rng.standard_normal(obc.a_hat.shape[1])
        g = rng.standard_normal(obc.a_hat.shape[0])
        u_o = obc.m_matrix @ u_e + g
        flux = -2.0 * float(u_o @ (obc.a_hat @ u_e))
        worst = max(worst, flux - l_inv_norm * float(g @ g))
    return CheckResult("boundary.energy_algebra", worst <= tol, tol - worst,
                       f"max flux excess {worst:.2e}")


def check_characteristic(n_max=4, n_samples=200, tol=1e-11, seed=3) -> CheckResult:
    rng = np.random.default_rng(seed)
    basis = MomentBasis.build(n_max)
    system = assemble_transport(basis)
    worst = 0.0
    consistent = True
    for side in ("low", "high"):
        face = bnd.Face(2, side)
        obc = bnd.onsager_bc(basis, face, system)
        cf = bnd.characteristic_form(obc)
        for _ in range(n_samples):
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


def check_reflection_consistency(n_max=5, tol=1e-13) -> CheckResult:
    basis = MomentBasis.build(n_max)
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


def check_sbp_identity(n_list=(8, 16, 64)) -> CheckResult:
    worst = 0.0
    for n in n_list:
        pair = build_sbp_pair(StaggeredGrid1d(0.0, 1.0, n))
        dev = np.abs(pair.q_odd + pair.q_even.T - pair.boundary_matrix()).max()
        worst = max(worst, float(dev))
    return CheckResult("sbp.identity", worst == 0.0, -worst, f"max entry dev {worst:.2e}")


def check_sbp_exactness(n_list=(8, 16, 64), tol=1e-12) -> CheckResult:
    worst = 0.0
    for n in n_list:
        grid = StaggeredGrid1d(-0.3, 1.1, n)
        pair = build_sbp_pair(grid)
        worst = max(worst, float(np.abs(pair.d_odd @ np.ones(n + 2)).max()))
        worst = max(worst, float(np.abs(pair.d_odd @ grid.x_even - 1.0).max()))
        worst = max(worst, float(np.abs(pair.d_even @ np.ones(n + 1)).max()))
        worst = max(worst, float(np.abs(pair.d_even @ grid.x_odd - 1.0).max()))
    return CheckResult("sbp.exactness", worst < tol, tol - worst, f"max dev {worst:.2e}")


def check_sbp_convergence(min_order=1.8) -> CheckResult:
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


def check_penalty_admissibility(tol=1e-12, seed=4) -> CheckResult:
    rng = np.random.default_rng(seed)
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


def check_semidiscrete_dissipativity(tol=1e-12, seed=5, n_samples=100) -> CheckResult:
    """<u, P rhs(u)> <= 0 for random states over the full basis (g = 0).

    The probe holds a degree-3 initial moment in each of the four (y, z)
    parity classes, so every azimuthal mode about x up to N = 3 is kept and
    the probed state space is the whole 16-component basis; the check fails
    if it is not.
    """
    from .config import scenario_from_dict
    from .solver import build_setup, energy, inner, rhs

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
    setup = build_setup(sc)
    rng = np.random.default_rng(seed)
    worst = -np.inf
    for _ in range(n_samples):
        st = rng.standard_normal(setup.size)
        worst = max(worst, inner(setup, st, rhs(setup, st)) / energy(setup, st))
    n, dim = setup.n_components, setup.basis.dim
    return CheckResult("solver.semidiscrete_dissipativity", worst <= tol and n == dim, tol - worst,
                       f"max <u, P rhs>/E = {worst:.2e} over {n}/{dim} components")


def check_mirror_agreement(tol=1e-12) -> CheckResult:
    """A small symmetric x-z run on x >= 0 against the same run on the whole domain.

    The probe has alpha = 0.5 x faces (so tau^e acts), a time-dependent
    beam on z_high, anisotropic scattering and x-even data in several
    parity classes, so it exercises the half pair's plane corner, the
    dropped low face and the 2x scaling of energy, bound and source
    integral.  The reference patches :func:`pnsat.solver.mirror_symmetry`
    to mirror no axis.  Passes when both runs share dt and time grid, the
    probe is mirrored on x only, and energy, bound and the full-grid
    snapshots agree to ``tol`` of each column's maximum.
    """
    from unittest import mock

    from . import solver
    from .config import scenario_from_dict

    face = {"type": "onsager", "alpha": 0.5, "psi_in": {"kind": "none"}}
    beam = {"kind": "beam", "amplitude": 1.0, "sigma_x": 0.5, "sigma_omega": 0.3,
            "eps_center": 1.9, "sigma_eps": 0.1}
    sc = scenario_from_dict({
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
    })
    half = solver.run(sc)
    with mock.patch.object(solver, "mirror_symmetry", lambda scenario, basis: ()):
        full = solver.run(sc)
    same = (
        half.metadata["mirror"] == ["x"] and full.metadata["mirror"] == []
        and half.metadata["dt"] == full.metadata["dt"]
        and np.array_equal(half.log.times, full.log.times)
        and len(half.snapshots) == len(full.snapshots)
    )
    pairs = [(half.log.energies, full.log.energies), (half.log.bound, full.log.bound)]
    pairs += [(a.u00, b.u00) for a, b in zip(half.snapshots, full.snapshots)]
    dev = max(float(np.abs(a - b).max() / np.abs(b).max()) if a.shape == b.shape else math.inf for a, b in pairs)
    return CheckResult("solver.mirror_agreement", same and dev < tol, tol - dev,
                       f"max dev {dev:.2e} of each column's max over E, bound and {len(pairs) - 2} snapshots")


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
)


def run_all(checks=ALL_CHECKS) -> list[CheckResult]:
    return [c() for c in checks]
