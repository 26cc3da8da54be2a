"""Correctness checks for the benchmark's workloads.

Every check takes plain arrays and returns a list of failure messages, empty
when the check passes.  None of them calls into pnsat: the expected values
come from closed forms and quadrature written here, or from properties the
method must have (monotone energy, the energy bound, mirror symmetry,
second-order convergence).  ``test_checks.py`` feeds each check a wrong
input and shows that it is rejected.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf

SQRT_FOUR_PI = math.sqrt(4.0 * math.pi)


def _fail(ok: bool, message: str) -> list[str]:
    return [] if ok else [message]


# ---------------------------------------------------------------------------
# energy curves


def non_increasing(energies, rel_tol: float = 1e-10) -> list[str]:
    """No step raises the energy by more than rel_tol * max(E)."""
    e = np.asarray(energies, dtype=float)
    worst = float(np.max(np.diff(e))) if e.size > 1 else 0.0
    return _fail(worst <= rel_tol * float(np.max(e)),
                 f"energy rises by {worst:.3e} in one step (max E = {np.max(e):.3e})")


def free_stream_energy_fraction(t, sigma: float, half_width: float = 1.0, n_gl: int = 14):
    """E(t)/E(0) of a centred Gaussian pulse leaving [-w, w] through vacuum faces.

    The P_{n_gl - 1} system on one axis carries wave packets moving at the
    Gauss-Legendre nodes mu_j with weights w_j.  The energy density of the
    pulse is a Gaussian of width sigma / sqrt(2), so the energy left inside
    the interval after a shift c is the erf expression below.
    """
    mu, w = np.polynomial.legendre.leggauss(n_gl)
    lam, wgt = mu[mu > 0], w[mu > 0]
    c = np.asarray(t, dtype=float)[..., None] * lam
    remaining = 0.5 * (erf((half_width - c) / sigma) - erf((-half_width - c) / sigma))
    return remaining @ wgt


def kinetic_oracle(times, energies, amplitude: float, sigma: float, tol: float = 0.02) -> list[str]:
    """The energy curve of tc1 follows the kinetic oracle within ``tol`` of E(0).

    E(0) is the closed form amplitude^2 / (2 sigma sqrt(pi)) of a normalised
    Gaussian, not the solver's first value, so a curve scaled as a whole is
    rejected too.
    """
    t = np.asarray(times, dtype=float)
    e0 = amplitude**2 / (2.0 * sigma * math.sqrt(math.pi))
    probe = np.linspace(t[0], t[-1], 601)
    solver = np.interp(probe, t, np.asarray(energies, dtype=float) / e0)
    dev = float(np.max(np.abs(solver - free_stream_energy_fraction(probe, sigma))))
    return _fail(dev < tol, f"energy curve departs from the kinetic oracle by {dev:.4f} of E(0)")


def count_plateaus(times, energies, flat_tol: float = 1e-4, drop_tol: float = 0.01,
                   min_len_frac: float = 0.015) -> int:
    """Number of flat stretches of an energy curve separated by visible drops.

    A stretch is flat while the curve stays within flat_tol * E(0) of its
    first value, and counts when it lasts min_len_frac of the horizon and
    sits more than drop_tol * E(0) below the previous counted stretch.
    """
    t = np.asarray(times, dtype=float)
    e = np.asarray(energies, dtype=float)
    scale = e[0]
    horizon = t[-1] - t[0]
    count, last_level, start = 0, None, 0
    for i in range(1, t.size + 1):
        if i < t.size and abs(e[i] - e[start]) < flat_tol * scale:
            continue
        if t[i - 1] - t[start] >= min_len_frac * horizon:
            if last_level is None or last_level - e[start] > drop_tol * scale:
                count += 1
                last_level = e[start]
        start = i
    return count


def terraced(times, energies, minimum: int = 3) -> list[str]:
    n = count_plateaus(times, energies)
    return _fail(n >= minimum, f"energy curve shows {n} plateaus, expected at least {minimum}")


def grows_after(times, energies, t_from: float) -> list[str]:
    t = np.asarray(times, dtype=float)
    e = np.asarray(energies, dtype=float)
    e_from = e[np.searchsorted(t, t_from)]
    return _fail(e[-1] > e_from, f"energy does not grow after t = {t_from}: "
                                 f"E(T) = {e[-1]:.6g} <= E({t_from}) = {e_from:.6g}")


def decays(energies) -> list[str]:
    e = np.asarray(energies, dtype=float)
    return non_increasing(e) + _fail(e[-1] < e[0], "energy does not decay overall")


def energy_bound(energies, source_integral, c_constant, rel_tol: float = 1e-8) -> list[str]:
    """E(t) <= E(0) + C * sum_faces int_0^t g^T g at every logged time, and the source acts."""
    e = np.asarray(energies, dtype=float)
    s = np.asarray(source_integral, dtype=float)
    if c_constant is None:
        return ["no penalty constant C: the bound does not apply"]
    excess = float(np.max(e - (e[0] + c_constant * s)))
    return _fail(excess <= rel_tol * float(np.max(e)),
                 f"energy exceeds E(0) + C * int g^T g by {excess:.3e}") + \
        _fail(s[-1] > 0.0, "source integral is not positive")


# ---------------------------------------------------------------------------
# snapshots


def mirror_symmetric(nodes_x, values, rel_tol: float = 1e-12) -> list[str]:
    """values(x, ...) == values(-x, ...) to roundoff on a grid symmetric in x."""
    x = np.asarray(nodes_x, dtype=float)
    u = np.asarray(values, dtype=float)
    scale = float(np.max(np.abs(u))) or 1.0
    grid_err = float(np.max(np.abs(x + x[::-1])))
    asym = float(np.max(np.abs(u - u[::-1]))) / scale
    return _fail(grid_err <= 1e-12 * float(np.max(np.abs(x))), "x grid is not mirror-symmetric") + \
        _fail(asym <= rel_tol, f"snapshot mirror asymmetry {asym:.3e} of max|u|")


def order_ordering(line3, line7, line13, factor: float = 2.0) -> list[str]:
    """|P3 - P13| >= factor * |P7 - P13| on a centerline."""
    d3 = float(np.linalg.norm(np.asarray(line3) - line13))
    d7 = float(np.linalg.norm(np.asarray(line7) - line13))
    return _fail(d3 >= factor * d7, f"|P3 - P13| = {d3:.4e} < {factor} * |P7 - P13| = {d7:.4e}")


def observed_orders(values) -> np.ndarray:
    """Self-convergence orders log2(|v_h - v_h/2| / |v_h/2 - v_h/4|) of a halving sequence."""
    d = np.abs(np.diff(np.asarray(values, dtype=float)))
    return np.log2(d[:-1] / d[1:])


def second_order(values, tol: float = 0.2) -> list[str]:
    p = observed_orders(values)
    return _fail(bool(np.all(np.abs(p - 2.0) <= tol)),
                 f"observed orders {np.round(p, 3).tolist()} are not within {tol} of 2")


# ---------------------------------------------------------------------------
# Monte Carlo tallies


def free_stream_tally(edges, t: float, sigma: float, window: float, subsamples: int = 4,
                      n_gl: int = 8) -> np.ndarray:
    """Bin-averaged u00 of a free-streaming isotropic Gaussian pdf pulse.

    u00(x, t) = (erf((x + t) / (sigma sqrt 2)) - erf((x - t) / (sigma sqrt 2))) / (4 t),
    averaged over each bin (Gauss-Legendre) and over the ``subsamples`` times
    of the estimator's window centred on t.
    """
    edges = np.asarray(edges, dtype=float)
    g, w = np.polynomial.legendre.leggauss(n_gl)
    lo, hi = edges[:-1, None], edges[1:, None]
    x = 0.5 * (lo + hi) + 0.5 * (hi - lo) * g
    times = [t - 0.5 * window + window * (j + 0.5) / subsamples for j in range(subsamples)] \
        if window > 0.0 else [t]
    s = sigma * math.sqrt(2.0)
    out = np.zeros(edges.size - 1)
    for tt in times:
        out += (((erf((x + tt) / s) - erf((x - tt) / s)) / (4.0 * tt)) @ w) / 2.0
    return out / len(times)


def _z_verdict(z: np.ndarray, what: str, max_frac: float, max_mean_z2: float) -> list[str]:
    # A per-bin 3-sigma test over ~100 bins with 16-batch standard errors
    # flags a bin or two by chance; a real bias moves most bins and the mean z^2.
    frac = float(np.mean(np.abs(z) > 3.0))
    mean_z2 = float(np.mean(z * z))
    return _fail(frac <= max_frac and mean_z2 <= max_mean_z2,
                 f"{what}: {frac:.1%} of {z.size} bins beyond 3 sigma, mean z^2 = {mean_z2:.2f}")


def tally_matches(tally, stderr, exact, max_frac: float = 0.10, max_mean_z2: float = 3.0) -> list[str]:
    """A tally agrees with an exact solution bin by bin within its standard errors."""
    se = np.asarray(stderr, dtype=float)
    live = se > 0.0
    if np.mean(live) < 0.9:
        return [f"only {np.mean(live):.0%} of bins carry a standard error"]
    z = (np.asarray(tally)[live] - np.asarray(exact)[live]) / se[live]
    return _z_verdict(z, "tally vs exact", max_frac, max_mean_z2)


def tally_mirror_symmetric(tally, stderr, max_frac: float = 0.10, max_mean_z2: float = 3.0) -> list[str]:
    """A tally and its mirror image in x (axis 0) agree within the combined standard errors."""
    u = np.asarray(tally, dtype=float)
    se = np.asarray(stderr, dtype=float)
    half = u.shape[0] // 2
    diff = (u - u[::-1])[:half]
    den = np.sqrt(se**2 + se[::-1] ** 2)[:half]
    live = den > 0.0
    z = diff[live] / den[live]
    return _fail(z.size > 0, "no tallied bins") + \
        _z_verdict(z, "tally mirror symmetry", max_frac, max_mean_z2)


def mass_within(tally, bin_volume: float, injected: float, rel_tol: float = 1e-9) -> list[str]:
    """The tallied u00 mass never exceeds the mass injected up to the tally time."""
    tallied = float(np.sum(tally)) * bin_volume
    return _fail(tallied <= injected * (1.0 + rel_tol),
                 f"tallied mass {tallied:.6e} exceeds the injected mass {injected:.6e}")


def initial_u00_mass(initial: dict) -> float:
    """Integral of u00 over space for a 'gaussian_bulk' initial condition."""
    mass = float(initial.get("amplitude", 1.0))
    for s in initial["sigma"]:
        mass *= s * math.sqrt(2.0 * math.pi) if initial.get("normalize", "peak") == "peak" else 1.0
    direction = initial.get("direction", {"kind": "isotropic"})
    if direction["kind"] == "affine_mu":
        mass *= SQRT_FOUR_PI * direction["a"]  # u00 = a sqrt(4 pi) * profile
    return mass


def beam_u00_mass(beam: dict, eps_max: float, s_rho: float, t: float, n_gl: int = 400) -> float:
    """u00 mass a separable beam injects through its face up to pseudo-time t.

    Particles enter at rate int |mu| psi_in dOmega per unit face length; the
    direction, space and time factors are integrated here by quadrature.
    """
    g, w = np.polynomial.legendre.leggauss(n_gl)
    mu = -0.5 + 0.5 * g  # incoming cosines in (-1, 0)
    dens = np.abs(mu) * np.exp(-(((mu + 1.0) / (math.sqrt(2.0) * beam["sigma_omega"])) ** 2))
    direction = 2.0 * math.pi * 0.5 * float(dens @ w)
    space = beam["sigma_x"] * math.sqrt(2.0 * math.pi)
    tau = 0.5 * t * (1.0 + g)
    eps = eps_max - s_rho * tau
    time = 0.5 * t * float(np.exp(-(((eps - beam["eps_center"]) / (math.sqrt(2.0) * beam["sigma_eps"])) ** 2)) @ w)
    return beam["amplitude"] * direction * space * time / SQRT_FOUR_PI


# ---------------------------------------------------------------------------
# artifacts


def read_csv(path) -> tuple[list[str], np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def columns_equal(path, expected: dict) -> list[str]:
    """The named CSV columns read back bit for bit (NaN equal to NaN)."""
    header, data = read_csv(path)
    out = []
    for name, values in expected.items():
        if name not in header:
            out.append(f"{path}: column {name!r} missing")
            continue
        col = data[:, header.index(name)]
        ref = np.asarray(values, dtype=float).ravel()
        if col.shape != ref.shape or not np.array_equal(col, ref, equal_nan=True):
            out.append(f"{path}: column {name!r} does not read back to the in-memory array")
    return out


def grid_columns(nodes, values) -> dict:
    """Expected snapshot columns: the writer's x[,z] meshgrid (ij order) and u00."""
    labels = ("x", "z")
    mesh = np.meshgrid(*nodes, indexing="ij")
    cols = {labels[i]: m.ravel() for i, m in enumerate(mesh)}
    cols["u00"] = np.asarray(values).ravel()
    return cols
