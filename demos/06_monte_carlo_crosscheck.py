"""
Cross-checking the solver against Monte Carlo and an exact solution
===================================================================

For free flight from an isotropic Gaussian bulk the kinetic density has a
closed form: a moving-window average of the initial profile, clipped to the
domain (``pnsat.exact.u00``). The Monte Carlo oracle reproduces it within
statistical noise, and the moment solver lands on the same curve up to its
truncation error. The tally bins are centred on the solver's interior
even-grid nodes, so the two outputs diff node by node.
"""

import numpy as np

from pnsat import run, scenario_from_dict, simulate
from pnsat.exact import u00

scenario = scenario_from_dict({
    "name": "demo_mc",
    "model": {"N": 13, "scattering": {"kind": "none"}, "stopping": {"mode": "time"}},
    "domain": {"axes": ["x"], "extents": [[-1.0, 1.0]], "cells": [50]},
    "boundaries": {
        "x_low": {"type": "onsager", "alpha": 1.0, "psi_in": {"kind": "none"}},
        "x_high": {"type": "onsager", "alpha": 1.0, "psi_in": {"kind": "none"}},
    },
    "initial": {"kind": "gaussian_bulk", "mu": [0.0], "sigma": [0.2],
                "normalize": "pdf", "direction": {"kind": "isotropic"}},
    "integration": {"cfl": 0.5, "t_end": 0.8},
    "outputs": {"snapshot_times": [0.4, 0.8]},
})


solver = run(scenario)
mc = simulate(scenario, n_particles=500_000, seed=2024)

for snap_pn, snap_mc in zip(solver.snapshots, mc.snapshots):
    exact = u00(mc.centers[0], snap_mc.time, sigma=0.2)
    pn = snap_pn.u00_centers
    z = np.abs(snap_mc.u00 - exact) / np.maximum(snap_mc.stderr, 1e-300)
    print(f"t = {snap_mc.time}:")
    print(f"  MC vs exact:     worst |z| = {z.max():.2f} standard errors")
    print(f"  solver vs exact: max |diff| = {np.abs(pn - exact).max():.2e} (truncation + grid)")
    print(f"  solver vs MC:    max |diff| = {np.abs(pn - snap_mc.u00).max():.2e}")

# Determinism: the oracle is bit-reproducible for a fixed seed.
again = simulate(scenario, n_particles=500_000, seed=2024)
same = all(np.array_equal(a.u00, b.u00) for a, b in zip(mc.snapshots, again.snapshots))
print("\nsame seed reproduces bit-identical tallies:", same)
