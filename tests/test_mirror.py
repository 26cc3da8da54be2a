"""The mirror-symmetric half domain changes no result.

A run that is invariant under x -> -x with Omega_x -> -Omega_x integrates
x >= 0 only (``solver.mirror_symmetry``).  These tests rerun small mirrored
scenarios on the whole domain, by patching the symmetry function, and
require the same run to 1e-12 of each column's maximum by
``checks.run_deviation``.  Scenarios that break one condition run full.
"""

import copy
import logging

import pytest

from conftest import full_domain, load_bundled
from pnsat.checks import run_deviation
from pnsat.config import scenario_from_dict
from pnsat.solver import build_setup, run

ONSAGER = {"type": "onsager", "alpha": 1.0, "psi_in": {"kind": "none"}}
HALF = {"type": "onsager", "alpha": 0.5, "psi_in": {"kind": "none"}}
INFLOW = {"type": "onsager", "alpha": 1.0, "psi_in": {"kind": "isotropic", "amplitude": 1.0}}
BEAM = {"type": "onsager", "alpha": 1.0,
        "psi_in": {"kind": "beam", "amplitude": 1.0, "sigma_x": 0.5, "sigma_omega": 0.3,
                   "eps_center": 1.9, "sigma_eps": 0.1}}
ENERGY_MODE = {"mode": "energy", "s_rho": 1.0, "eps_max": 2.0, "eps_end": 1.5}


def slab(**over) -> dict:
    """1-D: N = 5, alpha = 0.5 faces, isotropic scattering, a centred Gaussian."""
    doc = {
        "name": "slab",
        "model": {"N": 5, "scattering": {"kind": "isotropic", "sigma_s": 1.5}, "stopping": {"mode": "time"}},
        "domain": {"axes": ["x"], "extents": [[-1.0, 1.0]], "cells": [40]},
        "boundaries": {"x_low": HALF, "x_high": HALF},
        "initial": {"kind": "gaussian_bulk", "mu": [0.0], "sigma": [0.2], "normalize": "pdf",
                    "direction": {"kind": "isotropic"}},
        "integration": {"cfl": 0.5, "t_end": 0.8},
        "outputs": {"snapshot_times": [0.3, 0.8]},
    }
    doc.update(copy.deepcopy(over))
    return doc


def plane(**over) -> dict:
    """x-z: N = 3, alpha = 0.5 x faces, a time-dependent beam on z_high, x-even moments of several classes."""
    doc = {
        "name": "plane",
        "model": {"N": 3, "scattering": {"kind": "henyey_greenstein", "sigma_s": 1.0, "g": 0.5},
                  "stopping": ENERGY_MODE},
        "domain": {"axes": ["x", "z"], "extents": [[-1.0, 1.0], [-1.5, 0.0]], "cells": [16, 10]},
        "boundaries": {"x_low": HALF, "x_high": HALF, "z_low": ONSAGER, "z_high": BEAM},
        "initial": {"kind": "gaussian_envelope_moments", "center": [0.0, -0.7], "width": [0.4, 0.4],
                    "moments": [{"l": 0, "k": 0, "amp": 1.0}, {"l": 1, "k": 0, "amp": 0.4},
                                {"l": 1, "k": -1, "amp": 0.3}, {"l": 2, "k": 2, "amp": -0.5},
                                {"l": 3, "k": -1, "amp": 0.2}]},
        "integration": {"cfl": 0.5},
        "outputs": {"snapshot_energies": [1.8, 1.5]},
    }
    doc.update(copy.deepcopy(over))
    return doc


def affine(**over) -> dict:
    """tc3 in small: x-z, N = 5, affine_mu direction (z-odd, x-even), vacuum faces."""
    doc = {
        "name": "affine",
        "model": {"N": 5, "scattering": {"kind": "isotropic", "sigma_s": 0.5}, "stopping": {"mode": "time"}},
        "domain": {"axes": ["x", "z"], "extents": [[-1.0, 1.0], [-1.0, 1.0]], "cells": [12, 8]},
        "boundaries": {"x_low": ONSAGER, "x_high": ONSAGER, "z_low": ONSAGER, "z_high": ONSAGER},
        "initial": {"kind": "gaussian_bulk", "mu": [0.0, 0.0], "sigma": [0.3, 0.3], "normalize": "peak",
                    "direction": {"kind": "affine_mu", "a": 1.0, "b": 0.8}},
        "integration": {"cfl": 0.5, "t_end": 0.5},
        "outputs": {"snapshot_times": [0.25, 0.5]},
    }
    doc.update(copy.deepcopy(over))
    return doc


def with_faces(doc: dict, **faces) -> dict:
    doc = copy.deepcopy(doc)
    doc["boundaries"].update(faces)
    return doc


def with_initial(doc: dict, **initial) -> dict:
    doc = copy.deepcopy(doc)
    doc["initial"].update(initial)
    return doc


MIRRORED = {
    "slab_alpha_half": (slab(), ["x"]),
    "slab_inflow_both_faces": (slab(initial={"kind": "zero"}, boundaries={"x_low": INFLOW, "x_high": INFLOW}), ["x"]),
    "plane_beam": (plane(), ["x"]),
    "plane_inflow_both_x_faces": (with_faces(plane(), x_low=INFLOW, x_high=INFLOW), ["x"]),
    "affine_n5": (affine(), ["x"]),
    "isotropic_both_axes": (with_initial(affine(), direction={"kind": "isotropic"}), ["x", "z"]),
}

FULL = {
    "off_centre_mu": (slab(initial={**slab()["initial"], "mu": [0.1]}), "initial mu = 0.1 on x"),
    "odd_cell_count": (slab(domain={"axes": ["x"], "extents": [[-1.0, 1.0]], "cells": [41]}),
                       "odd cell count 41"),
    "six_cells": (slab(domain={"axes": ["x"], "extents": [[-1.0, 1.0]], "cells": [6]}), "6 cells, fewer than 8"),
    "asymmetric_extents": (slab(domain={"axes": ["x"], "extents": [[-1.0, 1.2]], "cells": [40]}),
                           "extents [-1, 1.2] are not symmetric about 0"),
    "unequal_x_faces": (with_faces(plane(), x_low=ONSAGER), "x_low.alpha != x_high.alpha"),
    "unequal_x_inflow": (with_faces(slab(), x_low={**HALF, "psi_in": INFLOW["psi_in"]}),
                         "x_low.psi_in != x_high.psi_in"),
    "x_odd_moment": (with_initial(plane(), moments=plane()["initial"]["moments"] + [{"l": 1, "k": 1, "amp": 0.2}]),
                     "initial moment (l=1, k=1) is odd in omega_x"),
    "odd_from_bc": (slab(initial={"kind": "gaussian_envelope_moments", "center": [0.0], "width": [0.3],
                                  "moments": [{"l": 0, "k": 0, "amp": 1.0}, {"l": 2, "k": 0, "amp": 0.5}],
                                  "odd_from_bc": "x_low"}),
                    "initial odd_from_bc is set"),
}


@pytest.mark.parametrize("name", sorted(MIRRORED))
def test_mirrored_run_matches_full_domain(name, monkeypatch):
    doc, axes = MIRRORED[name]
    sc = scenario_from_dict(doc)
    half = run(sc)
    assert half.metadata["mirror"] == axes
    monkeypatch.setattr("pnsat.solver.mirror_symmetry", full_domain)
    full = run(sc)
    assert full.metadata["mirror"] == []
    # the half grid stores the nodes x > 0 of each mirrored axis, and its low face is gone
    for d in half.setup.mirror:
        assert half.setup.tensor.axis_nodes(d, "o").min() > 0.0
        assert not any(f.dim == d and f.side == "low" for f in half.setup.faces)
    assert half.metadata["components"] == full.metadata["components"]  # the component counts too
    dev, column = run_deviation(half, full)
    assert dev < 1e-12, column
    assert half.log.energies[-1] > 0.0


@pytest.mark.parametrize("name", sorted(FULL))
def test_broken_symmetry_runs_full(name, monkeypatch, caplog):
    doc, reason = FULL[name]
    sc = scenario_from_dict(doc)
    with caplog.at_level(logging.DEBUG, logger="pnsat.solver"):
        result = run(sc)
    assert result.metadata["mirror"] == []
    assert f"x: not mirrored ({reason})" in [r.getMessage() for r in caplog.records if r.name == "pnsat.solver"]
    monkeypatch.setattr("pnsat.solver.mirror_symmetry", full_domain)
    dev, column = run_deviation(result, run(sc))
    assert dev < 1e-12, column


@pytest.mark.parametrize(
    "name, mirror",
    [("tc1", ["x"]), ("tc3_vacuum", ["x"]), ("tc4_beam", ["x"]),
     ("tc2_stable", []), ("tc2_unstable", []), ("tc_inflow_1d", [])],
)
def test_bundled_mirror_decisions(name, mirror):
    sc = load_bundled(name)
    setup = build_setup(sc)
    assert [sc.axis_names[d] for d in setup.mirror] == mirror
    assert setup.mirror_scale == 2.0 ** len(mirror)
    assert len(setup.faces) == 2 * sc.ndim - len(mirror)
