"""The reachable-sector reduction changes no result.

Each run integrates only the inactive-axis parity classes its data can
reach (``solver.sector_mask``).  These tests rerun scaled-down bundled
scenarios on the full basis, by patching the mask, and require the same
time grid and the same energy, bound and snapshots to 1e-12 relative.
"""

from unittest import mock

import numpy as np
import pytest

from conftest import bundled_doc, load_bundled
from pnsat.config import scenario_from_dict
from pnsat.solver import build_setup, run


def full_basis(scenario, basis):
    return np.ones(basis.dim, dtype=bool)


def scaled(name: str) -> dict:
    """A bundled scenario shrunk in cells or end time to run in about a second on the full basis."""
    doc = bundled_doc(name)
    if name == "tc1":
        doc["domain"]["cells"] = [100]
        doc["integration"]["t_end"] = 2.0
        doc["outputs"]["snapshot_times"] = [0.4, 1.0, 2.0]
    elif name == "tc3_vacuum":
        doc["domain"]["cells"] = [16, 16]
    elif name == "tc4_beam":
        doc["domain"]["cells"] = [16, 12]
    return doc


def two_class_1d() -> dict:
    """1-D moments in the (y, z) classes (e, e) and (o, e): the sector is their union."""
    doc = bundled_doc("tc2_stable")
    doc["model"]["N"] = 4
    doc["domain"]["cells"] = [60]
    doc["initial"]["moments"] = [
        {"l": 0, "k": 0, "amp": 1.0},
        {"l": 2, "k": 0, "amp": 2.5},
        {"l": 2, "k": -2, "amp": -1.0},
    ]
    return doc


CASES = {
    name: scaled(name)
    for name in ("tc1", "tc2_stable", "tc2_unstable", "tc3_vacuum", "tc4_beam", "tc_inflow_1d")
}
CASES["two_class_1d"] = two_class_1d()


def assert_close(got, want, what):
    scale = np.nanmax(np.abs(want)) if np.any(np.isfinite(want)) else 1.0
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * scale, err_msg=what)


@pytest.mark.parametrize("name", sorted(CASES))
def test_sector_run_matches_full_basis(name):
    sc = scenario_from_dict(CASES[name])
    reduced = run(sc)
    with mock.patch("pnsat.solver.sector_mask", full_basis):
        full = run(sc)
    basis = reduced.setup.basis.dim
    assert full.metadata["components"] == {"integrated": basis, "basis": basis}
    assert reduced.metadata["components"]["integrated"] < basis
    assert reduced.metadata["dt"] == full.metadata["dt"]
    assert np.array_equal(reduced.log.times, full.log.times)
    assert [s.time for s in reduced.snapshots] == [s.time for s in full.snapshots]
    assert_close(reduced.log.energies, full.log.energies, "energy")
    assert_close(reduced.log.bound, full.log.bound, "bound")
    for i, (a, b) in enumerate(zip(reduced.snapshots, full.snapshots, strict=True)):
        assert_close(a.u00, b.u00, f"snapshot {i}")


@pytest.mark.parametrize(
    "name, integrated",
    [("tc2_stable", 4), ("tc3_vacuum", 105), ("tc4_beam", 105)],
)
def test_bundled_sector_sizes(name, integrated):
    # tc1 (56) and tc_inflow_1d (12) are pinned through metadata.json in test_config_cli
    setup = build_setup(load_bundled(name))
    assert setup.n_components == integrated


def test_union_of_initial_classes():
    # N = 4 in 1-D: (2, 0) is (y, z)-even, (2, -2) is y-odd and z-even, so the
    # sector is every z-even component: l + 1 of them per degree
    setup = build_setup(scenario_from_dict(two_class_1d()))
    assert setup.n_components == sum(l + 1 for l in range(5))
    signs = setup.basis.parity.signs
    flats = np.concatenate(list(setup.comps.values()))
    assert np.all(signs[2][flats] > 0)
    assert np.any(signs[1][flats] < 0)


def test_three_axis_setup_keeps_full_basis():
    doc = scaled("tc1")
    doc["domain"] = {"axes": ["x", "y", "z"], "extents": [[-1.0, 1.0]] * 3, "cells": [4] * 3}
    doc["boundaries"] = {
        f"{ax}_{side}": {"type": "onsager", "alpha": 1.0, "psi_in": {"kind": "none"}}
        for ax in "xyz" for side in ("low", "high")
    }
    doc["model"]["N"] = 3
    doc["initial"] = {"kind": "gaussian_bulk", "mu": [0.0] * 3, "sigma": [0.3] * 3}
    assert build_setup(scenario_from_dict(doc)).n_components == 16


def test_face_sources_follow_symmetry():
    # the tc4 beam depends on omega only through omega_z, so the z_high block
    # that is odd in x carries no source while the x-even block keeps it
    setup = build_setup(load_bundled("tc4_beam"))
    face = next(f for f in setup.faces if f.inflow.kind != "none")
    blocks = {blk.family_odd: blk for blk in face.blocks}
    assert not blocks[("o", "o")].has_source
    assert not np.any(blocks[("o", "o")].g_dir)
    assert blocks[("e", "o")].has_source
    assert np.abs(blocks[("e", "o")].g_dir).max() > 0.1
    assert all(not blk.has_source for f in setup.faces if f.inflow.kind == "none" for blk in f.blocks)
