"""Each benchmark check accepts a right input and rejects a deliberately wrong one.

    python3 -m pytest bench/test_checks.py

The right inputs are built here from closed forms, so these tests need no
solver run.
"""

import math

import numpy as np
import pytest

import checks

SIGMA = 0.2


def tc1_curve(amplitude=1.0, stretch=1.0):
    """Kinetic-oracle energy curve of tc1 on a 5920-step time grid."""
    t = np.linspace(0.0, 15.0, 5921)
    e0 = amplitude**2 / (2.0 * SIGMA * math.sqrt(math.pi))
    return t, e0 * checks.free_stream_energy_fraction(t / stretch, SIGMA)


def test_kinetic_oracle_accepts_the_oracle_curve():
    t, e = tc1_curve(amplitude=1.7)
    assert checks.kinetic_oracle(t, e, 1.7, SIGMA) == []
    assert checks.non_increasing(e) == []
    assert checks.terraced(t, e) == []


@pytest.mark.parametrize("factor", [1.05, 0.95])
def test_kinetic_oracle_rejects_a_curve_scaled_by_5_percent(factor):
    t, e = tc1_curve()
    assert checks.kinetic_oracle(t, factor * e, 1.0, SIGMA)


def test_kinetic_oracle_rejects_a_curve_stretched_in_time_by_5_percent():
    t, e = tc1_curve(stretch=1.05)
    assert checks.kinetic_oracle(t, e, 1.0, SIGMA)


def test_terraces_and_monotonicity_reject_a_smooth_or_rising_curve():
    t = np.linspace(0.0, 15.0, 2000)
    assert checks.terraced(t, np.exp(-t))
    e = np.exp(-t)
    e[1000] = 1.001 * e[999]
    assert checks.non_increasing(e)


def test_growth_and_decay():
    t = np.linspace(0.0, 1.0, 101)
    assert checks.grows_after(t, 1.0 + t**2, 0.3) == []
    assert checks.grows_after(t, np.exp(-t), 0.3)
    assert checks.decays(np.exp(-t)) == []
    assert checks.decays(np.ones_like(t))


def test_energy_bound():
    s = np.linspace(0.0, 2.0, 50)
    assert checks.energy_bound(0.5 * s, s, 1.0) == []
    assert checks.energy_bound(1.5 * s, s, 1.0)
    assert checks.energy_bound(np.zeros(50), np.zeros(50), 1.0)  # source never acts
    assert checks.energy_bound(0.5 * s, s, None)


def symmetric_snapshot():
    x = np.linspace(-120.0, 120.0, 50)
    z = np.linspace(-120.0, 0.0, 38)
    return x, np.exp(-(x[:, None] / 30.0) ** 2 - ((z[None, :] + 50.0) / 40.0) ** 2)


def test_mirror_symmetry_accepts_a_symmetric_snapshot():
    x, u = symmetric_snapshot()
    assert checks.mirror_symmetric(x, u) == []


def test_mirror_symmetry_rejects_a_broken_snapshot():
    x, u = symmetric_snapshot()
    broken = u.copy()
    broken[20, 30] += 1e-9 * u.max()
    assert checks.mirror_symmetric(x, broken)
    assert checks.mirror_symmetric(x + 1.0, u)  # grid not centred


def test_order_ordering():
    z = np.linspace(0.0, 1.0, 30)
    p13 = np.sin(z)
    assert checks.order_ordering(p13 + 0.1, p13 + 0.01, p13) == []
    assert checks.order_ordering(p13 + 0.1, p13 + 0.08, p13)


def refinement(order):
    h = 2.0 / np.array([200, 400, 800, 1600])
    return 1.66 + 0.3 * h**order


def test_refinement_accepts_second_order_data():
    assert checks.second_order(refinement(2)) == []


def test_refinement_rejects_first_order_data():
    assert checks.second_order(refinement(1))
    assert checks.second_order(refinement(3))


def free_tally(seed, shift_sigma=0.0):
    """A synthetic 16-batch tally of the exact free-streaming solution."""
    edges = np.linspace(-1.0, 1.0, 51)
    exact = checks.free_stream_tally(edges, 0.4, SIGMA, 0.016)
    rng = np.random.default_rng(seed)
    rel = 0.05
    batches = exact * (1.0 + rel * rng.standard_normal((16, exact.size)))
    mean = batches.mean(axis=0)
    stderr = batches.std(axis=0, ddof=1) / 4.0
    return mean + shift_sigma * stderr, stderr, exact


def test_tally_check_accepts_noise():
    for seed in range(20):
        tally, se, exact = free_tally(seed)
        assert checks.tally_matches(tally, se, exact) == []


def test_tally_check_rejects_a_5_sigma_shift():
    tally, se, exact = free_tally(0, shift_sigma=5.0)
    assert checks.tally_matches(tally, se, exact)


def test_free_stream_tally_is_normalised():
    edges = np.linspace(-3.0, 3.0, 601)
    mass = checks.free_stream_tally(edges, 0.4, SIGMA, 0.016).sum() * (edges[1] - edges[0])
    assert abs(mass - 1.0) < 1e-8


def test_tally_mirror_symmetry():
    rng = np.random.default_rng(3)
    base = np.exp(-np.linspace(-2, 2, 48) ** 2)[:, None] * np.ones((1, 36))
    se = 0.02 * np.ones_like(base)
    noisy = base + se * rng.standard_normal(base.shape)
    assert checks.tally_mirror_symmetric(noisy, se) == []
    lopsided = noisy.copy()
    lopsided[:24] += 5.0 * se[:24]
    assert checks.tally_mirror_symmetric(lopsided, se)


def test_mass_bound():
    u = np.ones(10)
    assert checks.mass_within(u, 0.1, 1.0) == []
    assert checks.mass_within(u, 0.1, 0.99)


def test_injected_masses():
    init = {"kind": "gaussian_bulk", "mu": [0.0, 0.0], "sigma": [25.0, 25.0], "amplitude": 2.0,
            "normalize": "peak", "direction": {"kind": "affine_mu", "a": 0.1, "b": 0.1}}
    expect = 2.0 * (25.0 * math.sqrt(2 * math.pi)) ** 2 * 0.1 * math.sqrt(4 * math.pi)
    assert abs(checks.initial_u00_mass(init) / expect - 1.0) < 1e-12
    beam = {"amplitude": 1.0, "sigma_x": 25.0, "sigma_omega": 0.1, "eps_center": 14.0, "sigma_eps": 0.14}
    # a pulse centred well inside [0, t] is fully injected by t
    full = checks.beam_u00_mass(beam, 14.42, 0.011187, 80.0)
    assert checks.beam_u00_mass(beam, 14.42, 0.011187, 20.0) < full
    assert full > 0.0


def test_csv_readback(tmp_path):
    x = np.array([0.1, 1.0 / 3.0, 2.5])
    u = np.array([1e-300, -2.0 / 7.0, 5.0])
    path = tmp_path / "snap.csv"
    path.write_text("x,u00\n" + "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(x, u)))
    assert checks.columns_equal(path, {"x": x, "u00": u}) == []
    assert checks.columns_equal(path, {"x": x, "u00": u * (1.0 + 1e-15)})
    assert checks.columns_equal(path, {"missing": u})
