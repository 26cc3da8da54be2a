"""Acceptance suite: each criterion checked at its stated tolerance.

Every test prints one PASS line on success (visible with ``pytest -s`` or in
the captured output); the final test enforces the runtime budgets for the
two groups (property criteria 1-6, scenario criteria 7-11).
"""

import json
import time

import numpy as np
import pytest

from conftest import bundled_doc, load_bundled
from pnsat.boundary import eigenstructure
from pnsat.checks import (
    check_golden_coupling,
    check_golden_marshak,
    check_l_analytic,
    check_sbp_identity,
    check_truncation_locality,
)
from pnsat.config import scenario_from_dict
from pnsat.exact import energy_fraction
from pnsat.mc import simulate
from pnsat.moments import MomentBasis, assemble_transport
from pnsat.sbp import StaggeredGrid1d, build_sbp_pair
from pnsat.solver import detect_plateaus, energy_bound_check, run

TIMINGS = {"properties": {}, "runs": {}}


def _timed(group, key):
    def wrap(fn):
        def inner(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            TIMINGS[group][key] = time.perf_counter() - t0
            return out
        return inner
    return wrap


def _report(num, text):
    print(f"ACCEPTANCE {num:02d} PASS: {text}")


@pytest.fixture(scope="module")
def tc1_result():
    t0 = time.perf_counter()
    res = run(load_bundled("tc1"))
    TIMINGS["runs"]["tc1"] = time.perf_counter() - t0
    return res


@pytest.fixture(scope="module")
def tc2_results():
    t0 = time.perf_counter()
    out = {name: run(load_bundled(name)) for name in ("tc2_unstable", "tc2_stable")}
    TIMINGS["runs"]["tc2"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="module")
def tc3_results():
    t0 = time.perf_counter()
    out = {}
    for n in (13, 7, 3):
        doc = bundled_doc("tc3_vacuum")
        doc["model"]["N"] = n
        out[n] = run(scenario_from_dict(doc))
    TIMINGS["runs"]["tc3"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="module")
def tc3_mc():
    t0 = time.perf_counter()
    res = simulate(load_bundled("tc3_vacuum"), 1_000_000, seed=12345)
    TIMINGS["runs"]["tc3_mc"] = time.perf_counter() - t0
    return res


@pytest.fixture(scope="module")
def g_nonzero_results():
    t0 = time.perf_counter()
    out = {name: run(load_bundled(name)) for name in ("tc_inflow_1d", "tc4_beam")}
    TIMINGS["runs"]["g_nonzero"] = time.perf_counter() - t0
    return out


def _assert_passed(*results):
    for result in results:
        assert result.passed, result.line()


@_timed("properties", "c1")
def _criterion_1():
    return check_golden_coupling(), check_golden_marshak()


def test_criterion_01_golden_matrices():
    t0 = time.perf_counter()
    coupling, marshak = _criterion_1()
    elapsed = time.perf_counter() - t0
    _assert_passed(coupling, marshak)
    assert elapsed < 1.0
    _report(1, f"Ahat and Mtilde match the printed values to 4 decimals: Ahat {coupling.detail}, "
               f"Mtilde {marshak.detail} ({elapsed:.2f}s)")


@_timed("properties", "c2")
def test_criterion_02_marshak_dot_product():
    result = check_golden_marshak()
    _assert_passed(result)
    _report(2, f"Mtilde . (1, 2.5, -1) -> -0.1583 truncated: {result.detail}")


@_timed("properties", "c3")
def test_criterion_03_analytic_l_and_marshak():
    result = check_l_analytic()
    _assert_passed(result)
    _report(3, f"order-1 z-face: L = 3/2 and half-flux coefficient sqrt(3)/2 within 1e-12 ({result.detail})")


@_timed("properties", "c4")
def test_criterion_04_truncation_locality():
    result = check_truncation_locality()
    _assert_passed(result)
    _report(4, f"Mtilde - L Ahat vanishes off the top-degree even columns ({result.detail})")


@_timed("properties", "c5")
def test_criterion_05_eigenstructure():
    for n in range(1, 10):
        system = assemble_transport(MomentBasis.build(n))
        for axis in (1, 2, 3):
            a_hat = system.a_hat[axis - 1]
            eig = eigenstructure(a_hat)
            x = eig.assemble_x()
            lam = eig.assemble_lambda()
            a = np.block([
                [np.zeros((a_hat.shape[0],) * 2), a_hat],
                [a_hat.T, np.zeros((a_hat.shape[1],) * 2)],
            ])
            assert np.abs(x @ lam @ x.T - a).max() < 1e-10
            ev = np.sort(np.linalg.eigvalsh(a))
            assert np.abs(ev + ev[::-1]).max() < 1e-10
            assert eig.x_kernel.shape[1] == n + 1
            assert eig.lambda_p.size == n * (n + 1) // 2
    _report(5, "eigendecomposition, symmetric spectrum, kernel dim N+1, N(N+1)/2 incoming waves")


@_timed("properties", "c6")
def test_criterion_06_sbp_identity_and_exactness():
    identity = check_sbp_identity()  # N_c in {8, 16, 64} on [0, 1], margin exactly 0
    _assert_passed(identity)
    # check_sbp_exactness reads [-0.3, 1.1]; the criterion is stated on [0, 1]
    for n in (8, 16, 64):
        grid = StaggeredGrid1d(0.0, 1.0, n)
        pair = build_sbp_pair(grid)
        assert np.abs(pair.d_odd @ np.ones(n + 2)).max() < 1e-12
        assert np.abs(pair.d_odd @ grid.x_even - 1.0).max() < 1e-12
        assert np.abs(pair.d_even @ np.ones(n + 1)).max() < 1e-12
        assert np.abs(pair.d_even @ grid.x_odd - 1.0).max() < 1e-12
    _report(6, "SBP identity exact for N_c in {8, 16, 64}; constants/linears to 1e-12")


def test_criterion_07_test1_energy_decay(tc1_result):
    t0 = time.perf_counter()
    res = tc1_result
    t, e = res.log.times, res.log.energies
    steps = np.diff(e)
    assert np.all(steps <= 1e-10 * e[0]), "energy must be monotone non-increasing per step"
    plateaus = detect_plateaus(t, e)
    assert len(plateaus) >= 3, f"expected >= 3 plateaus, found {plateaus}"
    wall = res.metadata["wall_seconds"]
    assert wall < 60.0
    TIMINGS["runs"]["c7_checks"] = time.perf_counter() - t0
    _report(7, f"terraced monotone decay: {len(plateaus)} plateaus {plateaus}, run {wall:.1f}s")


def test_criterion_07b_decay_matches_kinetic_oracle(tc1_result):
    # independent oracle: the P13 wave packets of a sigma = 0.2 pulse leaving [-1, 1]
    res = tc1_result
    t, e = res.log.times, res.log.energies
    probe = np.linspace(0.0, 15.0, 601)
    oracle = energy_fraction(probe, 0.2, 13)
    solver = np.interp(probe, t, e / e[0])
    assert np.abs(solver - oracle).max() < 0.02
    oracle_plateaus = detect_plateaus(probe, oracle)
    assert len(oracle_plateaus) >= 3
    _report(7, f"energy curve matches the kinetic oracle within 2% (max dev "
               f"{np.abs(solver - oracle).max():.4f}); oracle shows {len(oracle_plateaus)} plateaus")


def test_criterion_08_test2_stability(tc2_results):
    t0 = time.perf_counter()
    unstable = tc2_results["tc2_unstable"]
    stable = tc2_results["tc2_stable"]
    tu, eu = unstable.log.times, unstable.log.energies
    e_03 = eu[np.searchsorted(tu, 0.3)]
    assert eu[-1] > e_03, "unstable half-moment condition must show late-time growth"
    ts, es = stable.log.times, stable.log.energies
    assert np.all(np.diff(es) <= 1e-10 * es[0])
    de_dt = abs(es[-1] - es[-2]) / (ts[-1] - ts[-2])
    assert de_dt < 1e-6 * es[0]
    TIMINGS["runs"]["c8_checks"] = time.perf_counter() - t0
    _report(8, f"unstable: E(1.0) = {eu[-1]:.4f} > E(0.3) = {e_03:.4f}; "
               f"stable monotone with |dE/dt|(T) = {de_dt:.2e}")


def test_criterion_09_discrete_energy_bound(tc1_result, g_nonzero_results):
    t0 = time.perf_counter()
    for name, res in g_nonzero_results.items():
        rep = energy_bound_check(res, tol_rel=1e-8)
        assert rep.applicable
        assert res.log.source_integral[-1] > 0, f"{name} must exercise a nonzero source"
        assert rep.ok, rep.describe()
    rep0 = energy_bound_check(tc1_result, tol_rel=1e-10)
    assert rep0.ok  # g = 0: energy cannot increase
    TIMINGS["runs"]["c9_checks"] = time.perf_counter() - t0
    _report(9, "E(T) <= E(0) + C int g^T g + tol for every bundled source scenario")


def test_criterion_10_order_comparison(tc3_results):
    t0 = time.perf_counter()
    ratios = []
    for i, snap13 in enumerate(tc3_results[13].snapshots):
        x = snap13.nodes[0]
        ix = int(np.argmin(np.abs(x)))
        line13 = snap13.u00[ix, :]
        line7 = tc3_results[7].snapshots[i].u00[ix, :]
        line3 = tc3_results[3].snapshots[i].u00[ix, :]
        d3 = float(np.linalg.norm(line3 - line13))
        d7 = float(np.linalg.norm(line7 - line13))
        ratios.append(d3 / d7)
        assert d3 >= 2.0 * d7
    TIMINGS["runs"]["c10_checks"] = time.perf_counter() - t0
    _report(10, f"|P3 - P13| / |P7 - P13| on the centerline: {[f'{r:.1f}' for r in ratios]}")


def test_criterion_11_mc_crosscheck(tc3_results, tc3_mc):
    # the free-streaming half (tally vs the exact kinetic solution) is
    # tests/test_mc.py::TestAgainstKineticSolution::test_free_streaming_within_family_wise_bound
    t0 = time.perf_counter()
    # simplified vacuum-escape analogue: N = 13 centerline vs MC within 5% + noise
    worst = -np.inf
    for i, snap in enumerate(tc3_results[13].snapshots):
        pn = snap.u00_centers
        tal = tc3_mc.snapshots[i]
        ix = int(np.argmin(np.abs(tc3_mc.centers[0])))
        pn_line, mc_line, se = pn[ix, :], tal.u00[ix, :], tal.stderr[ix, :]
        scale = float(np.abs(pn_line).max())
        excess = np.abs(pn_line - mc_line) - (0.05 * scale + 3.0 * se)
        worst = max(worst, float(excess.max()))
        assert excess.max() <= 0.0
    TIMINGS["runs"]["c11_checks"] = time.perf_counter() - t0
    _report(11, f"P13 vs MC centerline within 5% + noise (worst excess {worst:.2e}); free-streaming "
                "tally: test_mc.py::TestAgainstKineticSolution::test_free_streaming_within_family_wise_bound")


def test_criterion_12_runtime_budgets():
    prop_total = sum(TIMINGS["properties"].values())
    run_total = sum(TIMINGS["runs"].values())
    assert TIMINGS["properties"], "property criteria must have run first"
    assert TIMINGS["runs"], "scenario criteria must have run first"
    assert prop_total < 30.0, f"property criteria took {prop_total:.1f}s"
    assert run_total < 600.0, f"scenario criteria took {run_total:.1f}s"
    _report(12, f"property criteria {prop_total:.1f}s < 30s; scenario criteria {run_total:.1f}s < 600s")
