"""Closed-form free streaming on [-1, 1]: the reference solutions of the checks, tests and demos.

The paper's first test case is free flight through vacuum.  On the domain
[-1, 1] of one axis, with vacuum faces (psi_in = 0) and no scattering, an
isotropic pulse whose mean density is a normal pdf (mean ``mu``, width
``sigma``) moves in each direction Omega_x = c at speed c.  The mean density
u00 is therefore the average of the initial profile over the window
[x - t, x + t]:

    u00(x, t) = (Phi(x + t) - Phi(x - t)) / (2 t),
    Phi(y) = erf((clip(y, -1, 1) - mu) / (sigma sqrt 2)) / 2,  erf = math.erf.

The profile is clipped to the domain: its tail beyond a face is no initial
data, and vacuum faces let nothing in.  The P_N system on one axis carries
the same pulse as N + 1 wave packets instead, one per Gauss-Legendre node of
degree N + 1, which gives its energy curve in closed form
(:func:`energy_fraction`).

No module on the run path (``solver``, ``mc``, ``io``, ``config``) imports
this one.  ``bench/checks.py`` keeps its own copies of these forms, so that
none of the benchmark's checks calls into pnsat.
"""

from __future__ import annotations

import math

import numpy as np

_erf = np.vectorize(math.erf, otypes=[float])


def _cdf(y, sigma: float, mu: float) -> np.ndarray:
    """Phi: the initial mass left of y, up to a constant, with the profile clipped to [-1, 1]."""
    return 0.5 * _erf((np.clip(y, -1.0, 1.0) - mu) / (sigma * math.sqrt(2.0)))


def _cdf_integral(y, sigma: float) -> np.ndarray:
    """An antiderivative of Phi at mu = 0: closed form inside [-1, 1], continued linearly outside."""
    s = sigma * math.sqrt(2.0)
    c = np.clip(y, -1.0, 1.0)
    inside = c * _erf(c / s) + s / math.sqrt(math.pi) * np.exp(-((c / s) ** 2))
    return 0.5 * (inside + (y - c) * _erf(c / s))


def u00(x, t: float, sigma: float, mu: float = 0.0) -> np.ndarray:
    """Point values u00(x, t) of the free-streaming pulse, at time t > 0."""
    x = np.asarray(x, dtype=float)
    return (_cdf(x + t, sigma, mu) - _cdf(x - t, sigma, mu)) / (2.0 * t)


def u00_bins(edges, t: float, sigma: float) -> np.ndarray:
    """Averages of :func:`u00` (mu = 0) over the bins between consecutive ``edges``, at time t > 0."""
    edges = np.asarray(edges, dtype=float)
    window = _cdf_integral(edges + t, sigma) - _cdf_integral(edges - t, sigma)
    return np.diff(window) / (2.0 * t * np.diff(edges))


def energy_fraction(t, sigma: float, n_max: int) -> np.ndarray:
    """E(t)/E(0) of the P_N solution of a centred pulse (mu = 0) leaving [-1, 1] through vacuum faces.

    The P_N system on one axis splits into wave packets that move at the
    Gauss-Legendre nodes mu_j of degree N + 1.  Isotropic data put the share
    w_j / 2 of the energy (half the node's weight) in packet j.  The pulse's
    energy density is a normal profile of width sigma / sqrt 2, so a packet
    shifted by c = |mu_j| t keeps the erf share below of its energy on [-1, 1].
    E(0) counts the whole profile, so the value at t = 0 falls short of 1 by
    the share beyond the faces, 1.5e-12 at sigma = 0.2.
    """
    nodes, weights = np.polynomial.legendre.leggauss(n_max + 1)
    c = np.asarray(t, dtype=float)[..., None] * np.abs(nodes)
    remaining = 0.5 * (_erf((1.0 - c) / sigma) - _erf((-1.0 - c) / sigma))
    return remaining @ weights / 2.0
