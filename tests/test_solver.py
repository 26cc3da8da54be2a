import copy
import logging
import math
import sys
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from conftest import (
    AssembledOperator,
    build_full_setup,
    bundled_doc,
    every_moment_initial,
    lift,
    load_bundled,
)
from pnsat import boundary as bnd
from pnsat import solver as solver_module
from pnsat import sphharm
from pnsat.checks import check_free_streaming, run_deviation
from pnsat.config import scenario_from_dict
from pnsat.errors import NumericalError, ValidationError
from pnsat.moments import PnSystem, ScatteringSpectrum
from pnsat.sbp import sat_penalties
from pnsat.solver import (
    EnergyLog,
    _Stepper,
    build_setup,
    detect_plateaus,
    energy,
    energy_bound_check,
    face_source_norm_sq,
    initial_state,
    inner,
    mass_u00,
    rhs,
    run,
    step_strang,
)


def vacuum_1d(n_max=5, cells=60, t_end=0.5, sigma=0.2, scattering=None, cfl=0.5, initial=None, snapshots=None):
    return scenario_from_dict({
        "name": "probe",
        "model": {
            "N": n_max,
            "scattering": scattering or {"kind": "none"},
            "stopping": {"mode": "time"},
        },
        "domain": {"axes": ["x"], "extents": [[-1.0, 1.0]], "cells": [cells]},
        "boundaries": {
            "x_low": {"type": "onsager", "alpha": 1.0, "psi_in": {"kind": "none"}},
            "x_high": {"type": "onsager", "alpha": 1.0, "psi_in": {"kind": "none"}},
        },
        "initial": initial or {"kind": "gaussian_bulk", "mu": [0.0], "sigma": [sigma],
                               "normalize": "pdf", "direction": {"kind": "isotropic"}},
        "integration": {"cfl": cfl, "t_end": t_end},
        "outputs": {"snapshot_times": snapshots or [t_end]},
    })


BEAM = {"kind": "beam", "amplitude": 1.0, "sigma_x": 0.5, "sigma_omega": 0.3,
        "eps_center": 1.9, "sigma_eps": 0.1}
ISOTROPIC = {"kind": "isotropic", "amplitude": 1.0}


def small_nd(axes, cells, inflow_face, inflow, n_max=3):
    """An n-D run with every moment set, isotropic scattering, an inflow face and an alpha = 0.5 face.

    A beam with ``eps_center`` makes the run energy-mode, so its source depends on time.
    """
    boundaries = {
        f"{ax}_{side}": {"type": "onsager", "alpha": 1.0, "psi_in": {"kind": "none"}}
        for ax in axes for side in ("low", "high")
    }
    boundaries[inflow_face]["psi_in"] = inflow
    boundaries[f"{axes[0]}_low"]["alpha"] = 0.5
    timed = "eps_center" in inflow
    return scenario_from_dict({
        "name": "probe_nd",
        "model": {
            "N": n_max,
            "scattering": {"kind": "isotropic", "sigma_s": 1.5},
            "stopping": {"mode": "energy", "s_rho": 1.0, "eps_max": 2.0, "eps_end": 1.5}
            if timed else {"mode": "time"},
        },
        "domain": {"axes": list(axes), "extents": [[-1.0, 1.0]] * len(axes), "cells": list(cells)},
        "boundaries": boundaries,
        "initial": every_moment_initial(n_max, len(axes)),
        "integration": {"cfl": 0.5} if timed else {"cfl": 0.5, "t_end": 0.5},
        "outputs": {"snapshot_energies": [1.5]} if timed else {"snapshot_times": [0.5]},
    })


class TestRhs:
    def test_constant_state_interior_zero(self):
        sc = vacuum_1d()
        setup = build_setup(sc)
        inc = setup.views(rhs(setup, np.ones(setup.size)))
        for a, arr in inc.items():
            assert np.abs(arr[2:-2]).max() < 1e-13  # interior SAT-free rows

    def test_boundary_rows_carry_sat_residual(self):
        sc = vacuum_1d()
        setup = build_setup(sc)
        state = setup.views(np.ones(setup.size))
        inc = setup.views(rhs(setup, np.ones(setup.size)))
        face = setup.faces[0]  # the high face when the run is mirrored
        blk, b = face.blocks[0], face.boundary_index
        res = state[blk.family_odd][b] - blk.m_eff @ state[blk.family_even][b]
        p_o = setup.tensor.axis_weights(0, "o")[b]
        np.testing.assert_allclose(inc[blk.family_odd][b], (blk.tau_odd @ res) / p_o,
                                   atol=1e-13)

    def test_locality_of_delta(self):
        sc = vacuum_1d(cells=80)
        setup = build_setup(sc)
        state = np.zeros(setup.size)
        e_fam, o_fam = ("e",), ("o",)
        setup.views(state)[e_fam][40, 0] = 1.0
        inc = setup.views(rhs(setup, state))
        hit = np.nonzero(np.abs(inc[o_fam]).max(axis=-1) > 0)[0]
        assert hit.size > 0
        assert hit.min() >= 35 and hit.max() <= 45
        # the even family is driven only by the (zero) odd family here
        assert np.abs(inc[e_fam]).max() == 0.0

    def test_gaussian_initial_increment_matches_analytic_derivative(self):
        # odd-family increment = -Ahat^T d/dx u00 up to O(h^2)
        sc = vacuum_1d(n_max=3, cells=200, sigma=0.25)
        setup = build_setup(sc)
        inc = setup.views(rhs(setup, initial_state(setup)))
        o_fam, e_fam = ("o",), ("e",)
        x_o = setup.tensor.axis_nodes(0, "o")
        sig = 0.25
        du00 = -(x_o / sig**2) * np.exp(-x_o**2 / (2 * sig**2)) / (sig * math.sqrt(2 * math.pi))
        # the run works about x, the basis's polar axis: its coupling is that of A^(3)
        a_blk = setup.system.a_hat_block(3, setup.comps[o_fam], setup.comps[e_fam])
        expected = -np.outer(du00, a_blk[:, 0])  # even component 0 is u00
        interior = slice(5, -5)
        err = np.abs(inc[o_fam][interior] - expected[interior]).max()
        assert err < 5e-3  # O(h^2) at h = 0.01 with |f'''| ~ 1e2 scale

    def test_semidiscrete_dissipativity(self):
        # moments in every (y, z) parity class: the random states span the full basis
        sc = vacuum_1d(n_max=3, cells=24, initial=every_moment_initial(3, 1))
        setup = build_setup(sc)
        assert setup.n_components == 16
        rng = np.random.default_rng(5)
        for _ in range(100):
            st = rng.standard_normal(setup.size)
            fams, inc = setup.views(st), setup.views(rhs(setup, st))
            val = sum(
                float(np.sum(setup.tensor.axis_weights(0, a[0])[:, None] * fams[a] * inc[a]))
                for a in setup.families
            )
            assert val <= 1e-12 * energy(setup, st)


class TestNorms:
    @pytest.mark.parametrize("axes, cells", [("x", (5,)), ("xz", (5, 6)), ("xyz", (4, 5, 6))])
    def test_inner_energy_mass_match_kronecker_sums(self, axes, cells):
        # reference: per family, the Kronecker product of the axis P tables (p_odd on an
        # 'o' axis, p_even on an 'e' axis) weights the node sums of u . v
        setup = build_setup(small_nd(axes, cells, f"{axes[0]}_high", ISOTROPIC))
        rng = np.random.default_rng(11)
        u, v = rng.random(setup.size), rng.random(setup.size)

        def kron_weights(a):
            w = np.ones(1)
            for pair, parity in zip(setup.tensor.pairs, a):
                w = np.kron(w, pair.p_odd if parity == "o" else pair.p_even)
            return w

        def reference(x, y):
            x, y = setup.views(x), setup.views(y)
            return sum(float(kron_weights(a) @ (x[a] * y[a]).reshape(-1, s[-1]).sum(axis=1))
                       for a, s in setup.shapes.items())

        assert inner(setup, u, v) == pytest.approx(reference(u, v), rel=1e-13)
        assert energy(setup, u) == pytest.approx(reference(u, u), rel=1e-13)
        even = ("e",) * len(axes)
        mass = float(kron_weights(even) @ setup.views(u)[even][..., 0].ravel())
        assert mass_u00(setup, u) == pytest.approx(mass, rel=1e-13)

    @pytest.mark.parametrize("name", ["tc1", "tc_inflow_1d"])
    def test_energy_of_a_flat_1d_buffer_matches_inner(self, name):
        # one dot against the flat weight table (tc1 is mirrored) against the per-family sums
        setup = build_setup(load_bundled(name))
        flat = np.random.default_rng(5).random(setup.size)
        assert energy(setup, flat) == pytest.approx(inner(setup, flat, flat), rel=1e-14)

    def test_no_flat_weight_table_on_multi_axis_setups(self):
        setup = build_setup(small_nd("xz", (5, 6), "x_high", ISOTROPIC))
        assert setup.flat_weights is None


class TestStepping:
    def test_pure_relaxation_decay(self):
        # A = 0 cannot be configured directly; use a constant-in-space state so
        # transport contributes nothing in the interior, only relaxation acts
        sc = vacuum_1d(n_max=3, cells=60, scattering={"kind": "isotropic", "sigma_s": 2.0})
        setup = build_setup(sc)
        state = np.zeros(setup.size)
        e_fam = ("e",)
        setup.views(state)[e_fam][:, :] = 1.0
        dt = setup.dt_stable()
        new = setup.views(step_strang(setup, state, dt, 0.0))
        # keep clear of the boundary SAT influence (a few stencil widths per stage)
        interior = slice(14, -14)
        for pos, flat in enumerate(setup.comps[e_fam]):
            l = setup.basis.degrees[flat]
            want = 1.0 if l == 0 else math.exp(-2.0 * dt)
            got = new[e_fam][interior, pos]
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_zero_scattering_reduces_to_rk4(self):
        sc = vacuum_1d(n_max=3, cells=24)
        setup = build_setup(sc)
        state = initial_state(setup)
        dt = setup.dt_stable()
        k1 = rhs(setup, state, 0.0)
        k2 = rhs(setup, state + 0.5 * dt * k1, 0.0)
        k3 = rhs(setup, state + 0.5 * dt * k2, 0.0)
        k4 = rhs(setup, state + dt * k3, 0.0)
        manual = state + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        np.testing.assert_allclose(step_strang(setup, state, dt, 0.0), manual, atol=1e-14)

    def test_cfl_violation_rejected(self):
        sc = vacuum_1d()
        setup = build_setup(sc)
        with pytest.raises(ValidationError, match="CFL"):
            step_strang(setup, np.zeros(setup.size), 10.0 * setup.dt_stable(), 0.0)

    def test_buffered_stepper_matches_reference(self):
        # reference: RK4 on the assembled global sparse operator; the n-D cases carry
        # relaxation, an alpha = 0.5 face (even-side penalty), a time-dependent
        # inflow and closure corners along every axis, n = 4, 5 included
        cases = [vacuum_1d(n_max=4, cells=30, scattering=s)
                 for s in (None, {"kind": "isotropic", "sigma_s": 1.5})]
        cases += [small_nd("xz", (8, 5), "z_high", BEAM), small_nd("xyz", (4, 5, 6), "y_low", ISOTROPIC)]
        # the 1-D cases integrate only the mode m = 0 about x: their states are
        # rotated back onto the full basis about the physical axes for the reference
        for sc in cases:
            setup = build_setup(sc)
            full = build_full_setup(sc)
            state = initial_state(setup)
            dt = setup.dt_stable()
            assert full.dt_stable() == dt
            op = AssembledOperator(full)
            ref = lift(setup, state, full)
            for i in range(3):
                ref = op.step_strang(ref, dt, i * dt)
            stepper = _Stepper(setup, state)
            for i in range(3):
                stepper.step(dt, i * dt)
            np.testing.assert_allclose(lift(setup, stepper.u, full), ref, atol=1e-13)
        assert build_setup(cases[0]).n_components < build_full_setup(cases[0]).n_components

    def test_n_dimensional_cases_exercise_every_term(self):
        for sc in (small_nd("xz", (8, 5), "z_high", BEAM), small_nd("xyz", (4, 5, 6), "y_low", ISOTROPIC)):
            setup = build_setup(sc)
            assert setup.n_components == setup.basis.dim
            assert any(np.any(q) for q in setup.q_relax.values())
            blocks = [blk for f in setup.faces for blk in f.blocks]
            assert any(f.alpha == 0.5 and f.blocks for f in setup.faces)
            assert any(blk.has_source for blk in blocks)
        sc = small_nd("xz", (8, 5), "z_high", BEAM)
        beam = sc.faces[(1, "high")].inflow
        assert beam.time_factor(0.0, sc.energy_map) != beam.time_factor(0.1, sc.energy_map)

    def test_stepper_reused_across_states(self):
        # one stepper stepping two different states in turn through its u agrees with fresh
        # steppers: its other buffers carry nothing from one step to the next
        sc = small_nd("xz", (8, 5), "z_high", BEAM)
        setup = build_setup(sc)
        dt = setup.dt_stable()
        first = initial_state(setup)
        second = 0.5 * first[::-1]
        want = {}
        for name, st in (("first", first), ("second", second)):
            fresh = _Stepper(setup, st.copy())
            for i in range(2):
                fresh.step(dt, i * dt)
            want[name] = fresh.u
        shared = _Stepper(setup, np.empty(setup.size))
        got = {"first": first.copy(), "second": second.copy()}
        for i in range(2):
            for name in ("first", "second"):
                shared.u[...] = got[name]
                shared.step(dt, i * dt)
                got[name][...] = shared.u
        for name in got:
            assert np.array_equal(got[name], want[name])

    def test_single_step_energy_non_increasing(self):
        sc = vacuum_1d(n_max=5, cells=60)
        setup = build_setup(sc)
        state = initial_state(setup)
        e0 = energy(setup, state)
        new = step_strang(setup, state, setup.dt_stable(), 0.0)
        assert energy(setup, new) <= e0 * (1.0 + 1e-12)


BUNDLED = ("tc1", "tc2_stable", "tc2_unstable", "tc3_vacuum", "tc4_beam", "tc_inflow_1d")


def count_sphere_rules(monkeypatch) -> list:
    """Record (n_max, restriction) of every sphere rule the package builds from now on."""
    calls = []
    build = sphharm.build_quadrature

    def counted(n_max, restriction=None, polar_nodes=None):
        calls.append((n_max, restriction))
        return build(n_max, restriction, polar_nodes)

    for name, mod in list(sys.modules.items()):
        if name.startswith("pnsat.") and getattr(mod, "build_quadrature", None) is build:
            monkeypatch.setattr(mod, "build_quadrature", counted)
    return calls


class TestSetup:
    def test_shared_rules_match_per_block_build(self):
        # each block rebuilt with its own default half-sphere rules and rows; the setup slices
        # one assembly per axis, so L, M and tau^o agree to roundoff of the block's largest entry
        def close(got, want):
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13 * np.abs(want).max(initial=0.0))

        for name in BUNDLED:
            sc = load_bundled(name)
            setup = build_setup(sc)
            basis = setup.basis
            for f in setup.faces:
                face = bnd.Face(f.axis, f.side)
                for blk in f.blocks:
                    fo, fe = setup.comps[blk.family_odd], setup.comps[blk.family_even]
                    l_blk = bnd.onsager_L(basis, face, rows=fo)
                    a_blk = setup.system.a_hat_block(f.axis, fo, fe)
                    if f.kind == "unstable_marshak":
                        m_eff = bnd.marshak_matrix(basis, face, rows=fo, cols=fe)
                    else:
                        m_eff = face.sign * (l_blk @ a_blk)
                    tau_odd, tau_even = sat_penalties(l_blk, a_blk, f.alpha)
                    close(blk.l_matrix, l_blk)
                    close(blk.m_eff, m_eff)
                    close(blk.tau_odd, tau_odd)
                    assert np.array_equal(blk.tau_even, face.sign * tau_even)
                    g_dir = np.zeros(fo.size)
                    if blk.has_source:
                        off = [ax - 1 for ax in (1, 2, 3) if ax != f.axis]
                        # the inflow reaches the components even off the face axis, and about
                        # the polar axis only those of order k = 0
                        sourced = np.all(basis.parity[np.ix_(off, fo)] > 0, axis=0)
                        if f.axis == 3:
                            sourced &= basis.orders[fo] == 0
                        g_dir[sourced] = bnd.boundary_source(
                            face,
                            lambda om: f.inflow.amplitude * f.inflow.direction_profile(om, f.axis, face.sign),
                            basis, rows=fo[sourced],
                        )
                    assert np.array_equal(blk.g_dir, g_dir)

    def test_one_rule_per_axis_and_inflow_face(self, monkeypatch):
        calls = []
        build = bnd.build_quadrature
        monkeypatch.setattr(bnd, "build_quadrature", lambda *a, **k: calls.append(k) or build(*a, **k))
        setup = build_setup(load_bundled("tc4_beam"))
        blocks = [blk for f in setup.faces for blk in f.blocks]
        per_block = len(blocks) + sum(blk.has_source for blk in blocks)
        # x and z outgoing rules, plus the incoming rule of the beam face
        assert len(calls) == 3 < per_block

    def test_gauss_legendre_once_per_node_count(self, monkeypatch):
        # tc4 (N = 13): the x and z outgoing rules share leggauss(15), the beam face's inflow
        # rule takes 48 polar nodes, and the one speed reads the largest node of leggauss(14)
        calls = {}
        solve = np.polynomial.legendre.leggauss

        def counted(n):
            calls[n] = calls.get(n, 0) + 1
            return solve(n)

        sphharm._gauss_legendre.cache_clear()
        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
        build_setup(load_bundled("tc4_beam"))
        assert calls == {14: 1, 15: 1, 48: 1}

    @pytest.mark.parametrize("name, blocks", [("tc1", 1), ("tc3_vacuum", 4), ("tc4_beam", 4)])
    def test_one_onsager_assembly_per_axis_block(self, monkeypatch, name, blocks):
        # one L per axis over its kept odd positions serves the odd-family blocks of its faces
        # (only the high face on a mirrored axis)
        calls = []
        build = bnd.onsager_L
        monkeypatch.setattr(bnd, "onsager_L", lambda *a, **k: calls.append(k) or build(*a, **k))
        sc = load_bundled(name)
        setup = build_setup(sc)
        assert len(calls) == len(sc.axes)
        assert sum({f.dim: len(f.blocks) for f in setup.faces}.values()) == blocks

    def test_no_full_sphere_rule_in_2d(self, monkeypatch):
        # A comes in closed form and every component of a 2-D run is a basis function
        calls = count_sphere_rules(monkeypatch)
        build_setup(load_bundled("tc3_vacuum"))
        assert calls and all(restriction is not None for _, restriction in calls)  # the faces' half-spheres

    @pytest.mark.parametrize("name, rotation", [("tc1", [(0, None)]), ("tc_inflow_1d", [])])
    def test_no_full_sphere_rule_in_1d_setups(self, monkeypatch, name, rotation):
        # a 1-D run assembles about its axis, so only its initial amplitudes are rotated, on
        # one full-sphere rule of the degree the data hold: tc1's u00 (0), tc_inflow_1d none
        calls = count_sphere_rules(monkeypatch)
        setup = build_setup(load_bundled(name))
        assert calls and all(restriction is not None for _, restriction in calls)
        calls.clear()
        initial_state(setup)
        assert calls == rotation

    @pytest.mark.parametrize("name", ["tc1", "tc_inflow_1d", "tc3_vacuum"])
    def test_transport_blocks_exact_outside_neighbouring_degrees(self, name):
        # every component is a basis function, and A^(i) couples only l and l +- 1
        setup = build_setup(load_bundled(name))
        degrees = setup.basis.degrees
        stored = 0
        for (a, d), block in setup.a_blocks.items():
            fa, fc = setup.comps[a], setup.comps[setup.tensor.complement(a, d)]
            near = np.abs(np.subtract.outer(degrees[fc], degrees[fa])) == 1  # block is (c, a)
            assert np.all(block[~near] == 0.0)
            stored += np.count_nonzero(block)
        assert stored == {"tc1": 26, "tc_inflow_1d": 10, "tc3_vacuum": 520}[name]

    def test_one_speed_per_axis(self, monkeypatch):
        # every axis has the same speed, read once per set-up; the metadata repeats it per axis
        calls = []
        speed = PnSystem.max_speed
        monkeypatch.setattr(PnSystem, "max_speed", lambda self: calls.append(self) or speed(self))
        for sc in (vacuum_1d(n_max=3, cells=20, t_end=0.1), small_nd("xz", (8, 5), "z_high", BEAM)):
            calls.clear()
            result = run(sc)
            setup = result.setup
            assert len(calls) == 1 and setup.speed == speed(setup.system)
            assert result.metadata["matrix_norms"] == {f"ahat_axis_{ax}": setup.speed for ax in sc.axes}
            assert result.metadata["max_speed"] == setup.speed
            h_min = min(g.h for g in setup.tensor.grids)
            assert setup.dt_stable() == sc.cfl * h_min / sum(setup.speed for _ in sc.axes)

    @staticmethod
    def beam_xz(alpha_low, alpha_high):
        """A short tc4 beam at N = 3 (x mirrored, so one x face) with the given z-face alphas."""
        doc = bundled_doc("tc4_beam")
        doc["model"]["N"] = 3
        doc["domain"]["cells"] = [8, 6]
        doc["boundaries"]["z_low"]["alpha"] = alpha_low
        doc["boundaries"]["z_high"]["alpha"] = alpha_high
        return scenario_from_dict(doc)

    @staticmethod
    def counted_setup(sc):
        with mock.patch.object(solver_module, "sat_penalties", wraps=sat_penalties) as pen:
            setup = build_setup(sc)
        return setup, pen.call_count

    def test_one_penalty_per_axis_and_odd_family(self):
        setup, calls = self.counted_setup(self.beam_xz(0.5, 0.5))
        faces = {(f.dim, f.side): f for f in setup.faces}
        assert sorted(faces) == [(0, "high"), (1, "high"), (1, "low")]
        x_blocks, z_blocks = len(faces[0, "high"].blocks), len(faces[1, "low"].blocks)
        assert x_blocks == z_blocks == 2
        assert calls == x_blocks + z_blocks  # not one per face
        for low, high in zip(faces[1, "low"].blocks, faces[1, "high"].blocks):
            assert low.family_odd == high.family_odd
            assert np.array_equal(low.tau_odd, high.tau_odd)
            assert np.array_equal(low.tau_even, -high.tau_even)  # the side is the sign of the normal
            assert np.any(high.tau_even != 0.0)
            tau_odd, tau_even = sat_penalties(low.l_matrix, setup.system.a_hat_block(
                3, setup.comps[low.family_odd], setup.comps[low.family_even]), 0.5)
            np.testing.assert_allclose(low.tau_odd, tau_odd, rtol=0.0, atol=1e-14 * np.abs(tau_odd).max())
            assert np.array_equal(high.tau_even, tau_even)
            assert np.array_equal(high.m_eff, -low.m_eff)

    def test_unequal_alphas_solve_a_penalty_per_face(self):
        setup, calls = self.counted_setup(self.beam_xz(0.5, 1.0))
        faces = {(f.dim, f.side): f for f in setup.faces}
        assert calls == 2 + 2 * 2
        assert (faces[1, "low"].alpha, faces[1, "high"].alpha) == (0.5, 1.0)
        for low, high in zip(faces[1, "low"].blocks, faces[1, "high"].blocks):
            np.testing.assert_allclose(low.tau_odd, 0.5 * high.tau_odd, rtol=1e-13)
            assert np.all(high.tau_even == 0.0) and np.any(low.tau_even != 0.0)

    @pytest.mark.parametrize("name", BUNDLED)
    def test_closed_form_c_matches_penalty_norms(self, name):
        # C = max over blocks of (||tau^o||, ||L^-1 + tau^o^T||), from the stored blocks
        for f in build_setup(load_bundled(name)).faces:
            if f.kind != "onsager":
                assert f.c_constant is None
                continue
            want = max(
                max(np.linalg.norm(blk.tau_odd, 2),
                    np.linalg.norm(np.linalg.inv(blk.l_matrix) + blk.tau_odd.T, 2))
                for blk in f.blocks
            )
            np.testing.assert_allclose(f.c_constant, want, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("name", ["tc4_beam", "tc_inflow_1d"])
    def test_closed_form_source_norm(self, name):
        sc = load_bundled(name)
        setup = build_setup(sc)
        for t in (0.0, 0.5 * sc.t_end, sc.t_end):
            for f in setup.faces:
                want = 0.0
                if f.inflow.kind != "none":
                    tf = f.inflow.time_factor(t, sc.energy_map)
                    for blk in f.blocks:
                        g = tf * np.multiply.outer(blk.g_space, blk.g_dir)
                        w = setup.tensor.boundary_weight(blk.family_odd, f.dim)
                        want += float(np.sum(w * np.sum(g * g, axis=-1)))
                np.testing.assert_allclose(face_source_norm_sq(setup, f, t), want, rtol=1e-14, atol=0.0)
            assert any(face_source_norm_sq(setup, f, t) > 0.0 for f in setup.faces)


class TestRun:
    @pytest.mark.parametrize("t_end, dt, n_snapshots, over", [
        (1.5, 5.36e-9, 2, True),  # 2.8e8 steps
        (1.0, 0.0, 0, True),  # dt = 0 never reaches t_end
        (1e300, 1e-10, 0, True),  # the quotient overflows to inf
        (1.0, 1.0 / 9_999_990, 10, False),  # 9,999,990 steps plus 10 snapshot steps: at the budget
        (1.0, 1.0 / 9_999_990, 11, True),
    ])
    def test_step_budget_is_checked_before_stepping(self, t_end, dt, n_snapshots, over):
        if over:
            with pytest.raises(NumericalError, match="over the budget of 10,000,000 steps"):
                solver_module._check_step_budget(t_end, dt, n_snapshots)
        else:
            solver_module._check_step_budget(t_end, dt, n_snapshots)

    def test_conservation_before_boundary_contact(self):
        sc = scenario_from_dict({
            "name": "mass",
            "model": {"N": 7, "scattering": {"kind": "isotropic", "sigma_s": 2.0},
                      "stopping": {"mode": "time"}},
            "domain": {"axes": ["x"], "extents": [[-2.0, 2.0]], "cells": [200]},
            "boundaries": {
                "x_low": {"type": "onsager", "alpha": 1.0, "psi_in": {"kind": "none"}},
                "x_high": {"type": "onsager", "alpha": 1.0, "psi_in": {"kind": "none"}},
            },
            "initial": {"kind": "gaussian_bulk", "mu": [0.0], "sigma": [0.2],
                        "normalize": "pdf", "direction": {"kind": "isotropic"}},
            "integration": {"cfl": 0.5, "t_end": 0.4},
            "outputs": {"snapshot_times": []},
        })
        setup = build_setup(sc)
        m0 = mass_u00(setup, initial_state(setup))
        res = run(sc)
        m1 = mass_u00(res.setup, res.final_state)
        assert abs(m1 - m0) < 1e-8 * abs(m0)

    def test_run_logs_one_debug_event(self, caplog):
        sc = vacuum_1d(n_max=3, cells=24, t_end=0.1)
        assert logging.getLogger("pnsat.solver").handlers == []  # silent unless the caller configures logging
        with caplog.at_level(logging.DEBUG, logger="pnsat.solver"):
            res = run(sc)
        records = [r for r in caplog.records if r.name == "pnsat.solver"]
        assert all(r.levelno == logging.DEBUG for r in records)
        # the set-up's mirror decision for the one axis, then the run's own event
        assert [r.getMessage() for r in records[:-1]] == ["x: mirrored (integrating x >= 0)"]
        records = records[-1:]
        meta = res.metadata
        assert meta["rhs_calls"] == 4 * meta["steps"]
        n_comp, modes = meta["components"]["integrated"], meta["components"]["modes"]
        assert modes == [[0, "cos"]]
        assert (f"{meta['steps']} steps of dt = {meta['dt']:.6g} on {n_comp} components (modes {modes})"
                in records[0].getMessage())

    def test_pseudo_one_dim_reduction(self):
        # z-invariant 2-d run against the 1-d run, matched time step
        base = {
            "name": "red1",
            "model": {"N": 5, "scattering": {"kind": "none"}, "stopping": {"mode": "time"}},
            "domain": {"axes": ["x"], "extents": [[-1.0, 1.0]], "cells": [100]},
            "boundaries": {
                "x_low": {"type": "onsager", "alpha": 1.0, "psi_in": {"kind": "none"}},
                "x_high": {"type": "onsager", "alpha": 1.0, "psi_in": {"kind": "none"}},
            },
            "initial": {"kind": "gaussian_bulk", "mu": [0.0], "sigma": [0.2],
                        "normalize": "peak", "direction": {"kind": "isotropic"}},
            "integration": {"cfl": 0.25, "t_end": 0.8},
            "outputs": {"snapshot_times": [0.8]},
        }
        r1 = run(scenario_from_dict(base))
        doc2 = dict(base)
        doc2["name"] = "red2"
        doc2["domain"] = {"axes": ["x", "z"], "extents": [[-1.0, 1.0], [-3.0, 3.0]],
                          "cells": [100, 60]}
        doc2["boundaries"] = dict(base["boundaries"])
        doc2["boundaries"].update({
            "z_low": {"type": "onsager", "alpha": 1.0, "psi_in": {"kind": "none"}},
            "z_high": {"type": "onsager", "alpha": 1.0, "psi_in": {"kind": "none"}},
        })
        doc2["initial"] = {"kind": "gaussian_bulk", "mu": [0.0, 0.0], "sigma": [0.2, 1e9],
                           "normalize": "peak", "direction": {"kind": "isotropic"}}
        doc2["integration"] = {"cfl": 0.5, "t_end": 0.8}  # speed sum doubles: same dt
        r2 = run(scenario_from_dict(doc2))
        assert abs(r1.metadata["dt"] - r2.metadata["dt"]) < 1e-15
        u1 = r1.snapshots[0].u00
        u2 = r2.snapshots[0].u00
        iz = u2.shape[1] // 2
        assert np.abs(u2[:, iz] - u1).max() < 1e-10

    def test_self_convergence_order(self):
        # the same runs (N = 13, 100/200/400 cells, t = 0.4), measured against the closed form
        result = check_free_streaming()
        assert result.passed, result.line()

    def test_finite_wave_speeds(self):
        sc = vacuum_1d(n_max=9, cells=400, t_end=0.5, sigma=0.02)
        setup = build_setup(sc)
        assert setup.speed <= 1.0
        res = run(sc)
        s = res.snapshots[0]
        x = s.nodes[0]
        h = 2.0 / 400
        outside = np.abs(x) > 0.5 * setup.speed + 6 * 0.02 + 20 * h
        assert np.abs(s.u00[outside]).max() < 1e-5 * np.abs(s.u00).max()

    def test_snapshot_times_hit_exactly(self):
        sc = vacuum_1d(t_end=0.5)
        res = run(sc)
        assert res.snapshots[0].time == pytest.approx(0.5, abs=1e-12)

    def test_energy_log_strictly_increasing_times(self):
        res = run(vacuum_1d(t_end=0.3, cells=40))
        assert np.all(np.diff(res.log.times) > 0)
        # a repeated snapshot time is taken at once, without a zero-length step
        dup = run(vacuum_1d(t_end=0.3, cells=40, snapshots=[0.1, 0.1, 0.2]))
        once = run(vacuum_1d(t_end=0.3, cells=40, snapshots=[0.1, 0.2]))
        assert np.all(np.diff(dup.log.times) > 0)
        assert np.array_equal(dup.log.times, once.log.times)
        assert dup.metadata["steps"] == once.metadata["steps"]
        assert [s.time for s in dup.snapshots] == pytest.approx([0.1, 0.1, 0.2], abs=1e-12)
        assert np.array_equal(dup.snapshots[0].u00, dup.snapshots[1].u00)


class TestEnergyBound:
    def test_vacuum_run_bound(self):
        res = run(vacuum_1d(t_end=0.6))
        rep = energy_bound_check(res)
        assert rep.applicable and rep.ok
        assert res.log.energies[-1] <= res.log.energies[0] * (1.0 + 1e-10)

    def test_inflow_run_bound(self):
        res = run(load_bundled("tc_inflow_1d"))
        rep = energy_bound_check(res)
        assert rep.applicable and rep.ok
        assert res.log.source_integral[-1] > 0

    @pytest.mark.parametrize("case", ["beam_on_one_of_four_faces", "vacuum"])
    def test_source_integral_is_the_trapezoid_sum_over_every_face(self, case):
        # the cumulative column against its definition: the trapezoid rule over the steps taken of
        # mirror_scale * sum over all faces of ||g||^2, recomputed at every logged time
        if case == "vacuum":
            sc = vacuum_1d(t_end=0.3, cells=40)
        else:
            sc = small_nd("xz", (8, 5), "z_high", BEAM)
        dts, step = [], _Stepper.step

        def recording_step(stepper, dt, t):
            dts.append(dt)
            step(stepper, dt, t)

        with mock.patch.object(_Stepper, "step", recording_step):
            res = run(sc)
        setup = res.setup
        gsq = [setup.mirror_scale * sum(face_source_norm_sq(setup, f, t) for f in setup.faces)
               for t in res.log.times.tolist()]
        want = [0.0]
        for dt, g0, g1 in zip(dts, gsq[:-1], gsq[1:], strict=True):
            want.append(want[-1] + 0.5 * dt * (g0 + g1))
        assert np.array_equal(res.log.source_integral, want)
        sourced = [f for f in setup.faces if f.inflow.kind != "none"]
        if case == "vacuum":
            assert not sourced and not np.any(res.log.source_integral)
        else:
            assert len(setup.faces) == 4 and len(sourced) == 1
            assert len(set(gsq[1:])) > 1 and res.log.source_integral[-1] > 0  # the source varies in time

    def test_unstable_run_not_applicable(self):
        res = run(load_bundled("tc2_unstable"))
        rep = energy_bound_check(res)
        assert not rep.applicable

    def test_checks_every_logged_time(self):
        # E(0) = 1, C = 1: the bound is 1 + S(t); E exceeds it at step 2 only
        log = EnergyLog(
            times=np.array([0.0, 0.1, 0.2, 0.3]),
            energies=np.array([1.0, 1.05, 1.3, 1.1]),
            source_integral=np.array([0.0, 0.1, 0.2, 0.3]),
            c_constant=1.0,
        )
        rep = energy_bound_check(SimpleNamespace(log=log))
        assert rep.applicable and not rep.ok
        assert rep.e_final <= rep.bound_final
        assert rep.first_violation == (0.2, 2)
        assert rep.margin == pytest.approx(-0.1, abs=1e-7)
        assert "VIOLATED" in rep.describe() and "t = 0.2 (step 2)" in rep.describe()
        log.energies[2] = 1.15
        rep = energy_bound_check(SimpleNamespace(log=log))
        assert rep.ok and rep.first_violation is None
        assert rep.margin == pytest.approx(0.05, abs=1e-7)  # t = 0 (slack 1e-8) is not counted


def edited(result, edit):
    """A deep copy of a run with ``edit`` applied to it in place."""
    other = copy.deepcopy(result)
    edit(other)
    return other


# (an edit of a vacuum run, the column run_deviation must name, the deviation it must report)
RUN_EDITS = {
    "unchanged": (lambda r: None, "energy", 0.0),
    "dt": (lambda r: r.metadata.update(dt=np.nextafter(r.metadata["dt"], 1.0)), "dt", math.inf),
    "steps": (lambda r: r.metadata.update(steps=r.metadata["steps"] + 1), "steps", math.inf),
    "times": (lambda r: r.log.times.__setitem__(-1, np.nextafter(r.log.times[-1], 1.0)), "times", math.inf),
    "snapshot_time": (lambda r: setattr(r.snapshots[0], "time", 0.11), "snapshot times", math.inf),
    "snapshot_dropped": (lambda r: r.snapshots.pop(), "snapshot times", math.inf),
    "snapshot_nodes": (lambda r: setattr(r.snapshots[1], "nodes", (r.snapshots[1].nodes[0] + 1e-9,)),
                       "snapshot grids", math.inf),
    "snapshot_shape": (lambda r: setattr(r.snapshots[1], "u00", r.snapshots[1].u00[:-1]), "snapshot grids", math.inf),
    "energy_nan": (lambda r: r.log.energies.__setitem__(3, np.nan), "energy", math.inf),
    # no inflow: an all-zero reference column admits no deviation
    "source_integral": (lambda r: r.log.source_integral.__setitem__(-1, 1e-300), "source integral", math.inf),
    "energy": (lambda r: r.log.energies.__setitem__(0, r.log.energies[0] * (1.0 + 2e-9)), "energy", 2e-9),
    "c_constant": (lambda r: r.metadata.update(c_constant=r.metadata["c_constant"] * (1.0 + 4e-9)), "C", 4e-9),
    "mass": (lambda r: r.final_state.__imul__(1.5), "mass", 0.5),
    "snapshot": (lambda r: r.snapshots[1].u00.__iadd__(1e-6 * np.abs(r.snapshots[1].u00).max()), "snapshot 1", 1e-6),
}


class TestRunDeviation:
    @pytest.fixture(scope="class")
    def vacuum(self):
        return run(vacuum_1d(t_end=0.3, cells=40, snapshots=[0.1, 0.3]))

    @pytest.mark.parametrize("name", RUN_EDITS)
    def test_names_the_edited_column(self, vacuum, name):
        edit, column, dev = RUN_EDITS[name]
        got = run_deviation(edited(vacuum, edit), vacuum)
        assert got[1] == column
        assert got[0] == pytest.approx(dev, rel=1e-6, abs=0.0)

    def test_nan_bound_and_no_c_agree_with_themselves_only(self):
        marshak = run(load_bundled("tc2_unstable"))
        assert marshak.metadata["c_constant"] is None and np.isnan(marshak.log.bound).all()
        assert run_deviation(edited(marshak, lambda r: None), marshak) == (0.0, "energy")
        assert run_deviation(edited(marshak, lambda r: r.metadata.update(c_constant=0.0)), marshak) == (math.inf, "C")


class TestPlateauDetector:
    def test_synthetic_staircase(self):
        t = np.linspace(0.0, 10.0, 2001)
        e = np.where(t < 3, 1.0, np.where(t < 6, 0.6, 0.1))
        plats = detect_plateaus(t, e)
        assert len(plats) == 3

    def test_drop_threshold_merges_levels(self):
        t = np.linspace(0.0, 10.0, 2001)
        e = np.where(t < 5, 1.0, 1.0 - 0.005)  # 0.5% drop: not a separate plateau
        assert len(detect_plateaus(t, e)) == 1
