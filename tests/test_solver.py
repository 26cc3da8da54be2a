import math

import numpy as np
import pytest
from scipy.interpolate import interp1d

from conftest import AssembledOperator, bundled_doc, every_moment_initial, load_bundled
from pnsat.config import scenario_from_dict
from pnsat.errors import ValidationError
from pnsat.moments import ScatteringSpectrum
from pnsat.solver import (
    _Stepper,
    build_setup,
    detect_plateaus,
    energy,
    energy_bound_check,
    initial_state,
    mass_u00,
    rhs,
    run,
    step_strang,
    zero_state,
)


def vacuum_1d(n_max=5, cells=60, t_end=0.5, sigma=0.2, scattering=None, cfl=0.5, initial=None):
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
        "outputs": {"snapshot_times": [t_end]},
    })


class TestRhs:
    def test_constant_state_interior_zero(self):
        sc = vacuum_1d()
        setup = build_setup(sc)
        state = zero_state(setup)
        for a in state:
            state[a][...] = 1.0
        inc = rhs(setup, state)
        for a, arr in inc.items():
            assert np.abs(arr[2:-2]).max() < 1e-13  # interior SAT-free rows

    def test_boundary_rows_carry_sat_residual(self):
        sc = vacuum_1d()
        setup = build_setup(sc)
        state = zero_state(setup)
        for a in state:
            state[a][...] = 1.0
        inc = rhs(setup, state)
        face = setup.faces[0]
        blk = face.blocks[0]
        res = state[blk.family_odd][0] - blk.m_eff @ state[blk.family_even][0]
        p_o = setup.tensor.axis_weights(0, "o")[0]
        np.testing.assert_allclose(inc[blk.family_odd][0], (blk.penalty.tau_odd @ res) / p_o,
                                   atol=1e-13)

    def test_locality_of_delta(self):
        sc = vacuum_1d(cells=80)
        setup = build_setup(sc)
        state = zero_state(setup)
        e_fam, o_fam = ("e",), ("o",)
        state[e_fam][40, 0] = 1.0
        inc = rhs(setup, state)
        hit = np.nonzero(np.abs(inc[o_fam]).max(axis=-1) > 0)[0]
        assert hit.size > 0
        assert hit.min() >= 35 and hit.max() <= 45
        # the even family is driven only by the (zero) odd family here
        assert np.abs(inc[e_fam]).max() == 0.0

    def test_gaussian_initial_increment_matches_analytic_derivative(self):
        # odd-family increment = -Ahat^T d/dx u00 up to O(h^2)
        sc = vacuum_1d(n_max=3, cells=200, sigma=0.25)
        setup = build_setup(sc)
        state = initial_state(setup)
        inc = rhs(setup, state)
        o_fam, e_fam = ("o",), ("e",)
        x_o = setup.tensor.axis_nodes(0, "o")
        sig = 0.25
        du00 = -(x_o / sig**2) * np.exp(-x_o**2 / (2 * sig**2)) / (sig * math.sqrt(2 * math.pi))
        a_blk = setup.system.a_hat_block(1, setup.comps[o_fam], setup.comps[e_fam])
        expected = -np.outer(du00, a_blk[:, 0])
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
            st = {a: rng.standard_normal(setup.tensor.family_shape(a) + (setup.comps[a].size,))
                  for a in setup.families}
            inc = rhs(setup, st)
            val = sum(
                float(np.sum(setup.tensor.axis_weights(0, a[0])[:, None] * st[a] * inc[a]))
                for a in setup.families
            )
            assert val <= 1e-12 * energy(setup, st)


class TestStepping:
    def test_pure_relaxation_decay(self):
        # A = 0 cannot be configured directly; use a constant-in-space state so
        # transport contributes nothing in the interior, only relaxation acts
        sc = vacuum_1d(n_max=3, cells=60, scattering={"kind": "isotropic", "sigma_s": 2.0})
        setup = build_setup(sc)
        state = zero_state(setup)
        e_fam = ("e",)
        state[e_fam][:, :] = 1.0
        dt = setup.dt_stable()
        new = step_strang(setup, state, dt, 0.0)
        # keep clear of the boundary SAT influence (a few stencil widths per stage)
        interior = slice(14, -14)
        comps = setup.comps[e_fam]
        for pos, flat in enumerate(comps):
            l = setup.basis.indices[flat].l
            want = 1.0 if l == 0 else math.exp(-2.0 * dt)
            got = new[e_fam][interior, pos]
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_zero_scattering_reduces_to_rk4(self):
        sc = vacuum_1d(n_max=3, cells=24)
        setup = build_setup(sc)
        state = initial_state(setup)
        dt = setup.dt_stable()
        k1 = rhs(setup, state, 0.0)
        u2 = {a: state[a] + 0.5 * dt * k1[a] for a in state}
        k2 = rhs(setup, u2, 0.0)
        u3 = {a: state[a] + 0.5 * dt * k2[a] for a in state}
        k3 = rhs(setup, u3, 0.0)
        u4 = {a: state[a] + dt * k3[a] for a in state}
        k4 = rhs(setup, u4, 0.0)
        manual = {
            a: state[a] + dt / 6.0 * (k1[a] + 2 * k2[a] + 2 * k3[a] + k4[a]) for a in state
        }
        stepped = step_strang(setup, state, dt, 0.0)
        for a in state:
            np.testing.assert_allclose(stepped[a], manual[a], atol=1e-14)

    def test_cfl_violation_rejected(self):
        sc = vacuum_1d()
        setup = build_setup(sc)
        state = zero_state(setup)
        with pytest.raises(ValidationError, match="CFL"):
            step_strang(setup, state, 10.0 * setup.dt_stable(), 0.0)

    def test_buffered_stepper_matches_reference(self):
        # reference: RK4 on the assembled global sparse operator
        for scattering in (None, {"kind": "isotropic", "sigma_s": 1.5}):
            sc = vacuum_1d(n_max=4, cells=30, scattering=scattering)
            setup = build_setup(sc)
            state = initial_state(setup)
            dt = setup.dt_stable()
            op = AssembledOperator(setup)
            ref = state
            for i in range(3):
                ref = op.step_strang(ref, dt, i * dt)
            fast = {a: v.copy() for a, v in state.items()}
            stepper = _Stepper(setup)
            for i in range(3):
                stepper.step(fast, dt, i * dt)
            for a in state:
                np.testing.assert_allclose(fast[a], ref[a], atol=1e-13)

    def test_single_step_energy_non_increasing(self):
        sc = vacuum_1d(n_max=5, cells=60)
        setup = build_setup(sc)
        state = initial_state(setup)
        e0 = energy(setup, state)
        new = step_strang(setup, state, setup.dt_stable(), 0.0)
        assert energy(setup, new) <= e0 * (1.0 + 1e-12)


class TestRun:
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
        probe = np.linspace(-0.9, 0.9, 181)
        vals = {}
        for cells in (100, 200, 400):
            sc = vacuum_1d(n_max=13, cells=cells, t_end=0.4)
            res = run(sc)
            s = res.snapshots[0]
            vals[cells] = interp1d(s.nodes[0], s.u00, kind="linear")(probe)
        e_coarse = np.linalg.norm(vals[100] - vals[200])
        e_fine = np.linalg.norm(vals[200] - vals[400])
        assert math.log2(e_coarse / e_fine) >= 1.8

    def test_finite_wave_speeds(self):
        sc = vacuum_1d(n_max=9, cells=400, t_end=0.5, sigma=0.02)
        setup = build_setup(sc)
        assert setup.max_speed <= 1.0
        res = run(sc)
        s = res.snapshots[0]
        x = s.nodes[0]
        h = 2.0 / 400
        outside = np.abs(x) > 0.5 * setup.max_speed + 6 * 0.02 + 20 * h
        assert np.abs(s.u00[outside]).max() < 1e-5 * np.abs(s.u00).max()

    def test_snapshot_times_hit_exactly(self):
        sc = vacuum_1d(t_end=0.5)
        res = run(sc)
        assert res.snapshots[0].time == pytest.approx(0.5, abs=1e-12)

    def test_energy_log_strictly_increasing_times(self):
        res = run(vacuum_1d(t_end=0.3, cells=40))
        assert np.all(np.diff(res.log.times) > 0)


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

    def test_unstable_run_not_applicable(self):
        res = run(load_bundled("tc2_unstable"))
        rep = energy_bound_check(res)
        assert not rep.applicable


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
