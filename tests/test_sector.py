"""The reachable-sector reduction changes no result.

Each run integrates only the components its data can reach
(``solver.sector``): the inactive-axis parity classes of its data and, in
1-D, the azimuthal modes about the active axis.  A 1-D run works in the
basis about its axis, where those modes are the basis functions of order
k = +-m, so every family integrates basis functions.  These tests rerun
scaled-down bundled scenarios and 1-D probes on the full basis about the
physical axes, by patching the sector function, and require the same time
grid and the same energy, bound and snapshots to 1e-12 relative.
"""

import numpy as np
import pytest

from conftest import bundled_doc, full_basis, load_bundled
from pnsat import boundary as bnd
from pnsat.config import scenario_from_dict
from pnsat.solver import build_setup, run
from pnsat.sphharm import rotation_about

ONSAGER = {"type": "onsager", "alpha": 1.0, "psi_in": {"kind": "none"}}


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
    """1-D moments in the (y, z) classes (e, e) and (o, e): the modes cos 0, cos 1 and cos 2 about x."""
    doc = bundled_doc("tc2_stable")
    doc["model"]["N"] = 4
    doc["domain"]["cells"] = [60]
    doc["initial"]["moments"] = [
        {"l": 0, "k": 0, "amp": 1.0},
        {"l": 2, "k": 0, "amp": 2.5},
        {"l": 2, "k": -2, "amp": -1.0},
    ]
    return doc


# moments in all four classes of either inactive pair, none of degree N = 5
MIXED_MOMENTS = [
    {"l": 0, "k": 0, "amp": 1.0},
    {"l": 1, "k": 1, "amp": 0.5},
    {"l": 2, "k": -2, "amp": -1.0},
    {"l": 2, "k": 1, "amp": 0.7},
    {"l": 3, "k": -1, "amp": 0.3},
]


def along(axis: str) -> dict:
    """A 1-D run along ``axis`` with moments of every class: modes of both trig kinds and m up to 3."""
    return {
        "name": f"along_{axis}",
        "model": {"N": 5, "scattering": {"kind": "none"}, "stopping": {"mode": "time"}},
        "domain": {"axes": [axis], "extents": [[-1.0, 1.0]], "cells": [50]},
        "boundaries": {f"{axis}_low": ONSAGER, f"{axis}_high": ONSAGER},
        "initial": {"kind": "gaussian_envelope_moments", "center": [0.1], "width": [0.3],
                    "moments": MIXED_MOMENTS},
        "integration": {"cfl": 0.5, "t_end": 0.6},
        "outputs": {"snapshot_times": [0.3, 0.6]},
    }


def beam_1d() -> dict:
    """An alpha = 0.5 face, isotropic scattering and a time-dependent beam: tau^e, the source and relaxation."""
    beam = {"kind": "beam", "amplitude": 1.0, "sigma_x": 0.5, "sigma_omega": 0.3,
            "eps_center": 1.9, "sigma_eps": 0.1}
    return {
        "name": "beam_1d",
        "model": {"N": 5, "scattering": {"kind": "isotropic", "sigma_s": 1.5},
                  "stopping": {"mode": "energy", "s_rho": 1.0, "eps_max": 2.0, "eps_end": 1.5}},
        "domain": {"axes": ["x"], "extents": [[-1.0, 1.0]], "cells": [40]},
        "boundaries": {"x_low": {**ONSAGER, "alpha": 0.5}, "x_high": {**ONSAGER, "psi_in": beam}},
        "initial": {"kind": "gaussian_envelope_moments", "center": [0.0], "width": [0.3],
                    "moments": MIXED_MOMENTS},
        "integration": {"cfl": 0.5},
        "outputs": {"snapshot_energies": [1.7, 1.5]},
    }


def marshak_1d() -> dict:
    """tc2_unstable at N = 4: the Marshak face acts on mode frames (cos 0 and cos 2 of cos 0, 2, 4)."""
    doc = bundled_doc("tc2_unstable")
    doc["model"]["N"] = 4
    doc["domain"]["cells"] = [60]
    return doc


def affine_1d() -> dict:
    """gaussian_bulk with an affine_mu direction along x: the omega_z moment, degree 1 and z-odd, is the mode sin 1 about x."""
    return {
        "name": "affine_1d",
        "model": {"N": 5, "scattering": {"kind": "isotropic", "sigma_s": 0.5}, "stopping": {"mode": "time"}},
        "domain": {"axes": ["x"], "extents": [[-1.0, 1.0]], "cells": [50]},
        "boundaries": {"x_low": ONSAGER, "x_high": {**ONSAGER, "alpha": 0.5}},
        "initial": {"kind": "gaussian_bulk", "mu": [0.1], "sigma": [0.3],
                    "direction": {"kind": "affine_mu", "a": 1.0, "b": 0.8}},
        "integration": {"cfl": 0.5, "t_end": 0.6},
        "outputs": {"snapshot_times": [0.3, 0.6]},
    }


CASES = {
    name: scaled(name)
    for name in ("tc1", "tc2_stable", "tc2_unstable", "tc3_vacuum", "tc4_beam", "tc_inflow_1d")
}
CASES["two_class_1d"] = two_class_1d()
CASES["along_y"] = along("y")
CASES["along_z"] = along("z")
CASES["beam_1d"] = beam_1d()
CASES["marshak_1d"] = marshak_1d()
CASES["affine_1d"] = affine_1d()


def assert_close(got, want, what):
    scale = np.nanmax(np.abs(want)) if np.any(np.isfinite(want)) else 1.0
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * scale, err_msg=what)


@pytest.mark.parametrize("name", sorted(CASES))
def test_sector_run_matches_full_basis(name, monkeypatch):
    sc = scenario_from_dict(CASES[name])
    reduced = run(sc)
    monkeypatch.setattr("pnsat.solver.sector", full_basis)
    full = run(sc)
    basis = reduced.setup.basis.dim
    assert full.metadata["components"] == {"integrated": basis, "basis": basis, "modes": None}
    assert full.setup.axes == sc.axes  # the reference works about the physical axes: no rotation
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
    [("tc1", 14), ("tc_inflow_1d", 6), ("tc2_stable", 4), ("tc3_vacuum", 105), ("tc4_beam", 105)],
)
def test_bundled_sector_sizes(name, integrated):
    setup = build_setup(load_bundled(name))
    assert setup.n_components == integrated


def test_union_of_initial_classes():
    # N = 4 in 1-D: (2, 0) is (y, z)-even and reaches cos 0 and cos 2 about x;
    # (2, -2) is y-odd and z-even and reaches cos 1.  Each mode m keeps its
    # degrees m..4: 5 + 4 + 3 components
    setup = build_setup(scenario_from_dict(two_class_1d()))
    assert setup.modes == ((0, "cos"), (1, "cos"), (2, "cos"))
    assert setup.n_components == 12
    orders = setup.basis.orders[np.concatenate(list(setup.comps.values()))]
    assert sorted(np.bincount(orders)) == [3, 4, 5]
    # about x, z is the basis's axis 2: every component is z-even
    assert all(np.all(setup.basis.parity.signs[1][idx] > 0) for idx in setup.comps.values())


def test_affine_direction_reaches_sine_mode():
    # omega_z = Y_1^0 up to a factor is degree 1 and odd in z only: about x it is the mode sin 1
    setup = build_setup(scenario_from_dict(affine_1d()))
    assert setup.modes == ((0, "cos"), (1, "sin"))
    assert setup.n_components == 6 + 5


def test_three_axis_setup_keeps_full_basis():
    doc = scaled("tc1")
    doc["domain"] = {"axes": ["x", "y", "z"], "extents": [[-1.0, 1.0]] * 3, "cells": [4] * 3}
    doc["boundaries"] = {f"{ax}_{side}": ONSAGER for ax in "xyz" for side in ("low", "high")}
    doc["model"]["N"] = 3
    doc["initial"] = {"kind": "gaussian_bulk", "mu": [0.0] * 3, "sigma": [0.3] * 3}
    setup = build_setup(scenario_from_dict(doc))
    assert setup.n_components == 16 and setup.modes is None


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


def test_inflow_reaches_only_mode_zero():
    # beam_1d keeps modes m > 0 from its initial data; the beam's moments sit on m = 0 (k = 0) only
    setup = build_setup(scenario_from_dict(beam_1d()))
    blk = next(blk for f in setup.faces if f.inflow.kind != "none" for blk in f.blocks)
    orders = setup.basis.orders[setup.comps[blk.family_odd]]
    assert np.any(orders != 0)
    assert np.all(blk.g_dir[orders != 0] == 0.0)
    assert np.all(blk.g_dir[orders == 0] != 0.0)


FRAME_CASES = ("tc1", "tc_inflow_1d", "two_class_1d", "along_y", "along_z", "beam_1d", "marshak_1d")


@pytest.mark.parametrize("name", FRAME_CASES)
def test_frames_orthonormal_and_zero_outside_degree_and_class(name):
    # the change of frame is the rotation onto the basis about the axis: orthogonal, zero
    # between degrees, and to roundoff between classes; each family then integrates the
    # basis functions of the kept modes' orders within its own parity
    sc = scenario_from_dict(CASES[name])
    setup = build_setup(sc)
    basis = setup.basis
    assert setup.axes == (3,)
    rot = rotation_about(basis.n_max, sc.axes[0])
    np.testing.assert_allclose(rot @ rot.T, np.eye(basis.dim), rtol=0.0, atol=1e-14)
    degrees = np.array([i.l for i in basis.indices])
    assert np.all(rot[degrees[:, None] != degrees[None, :]] == 0.0)
    orders = [m if trig == "cos" else -m for m, trig in setup.modes]
    for (parity,), idx in basis.family_indices((3,)).items():
        want = idx[np.isin(basis.orders[idx], orders)]
        assert np.array_equal(setup.comps[(parity,)], want)
    # u00 leads the all-even family
    assert setup.comps[("e",)][0] == 0


def test_frame_reduces_span_of_transport():
    # A and the face matrices map the kept components only onto kept components, so
    # slicing them loses nothing (what makes the reduction exact)
    setup = build_setup(scenario_from_dict(along("y")))
    basis = setup.basis
    kept = np.zeros(basis.dim, dtype=bool)
    kept[np.concatenate(list(setup.comps.values()))] = True
    assert 0 < kept.sum() < basis.dim
    a = setup.system.a_full[2]
    assert np.all(a[np.ix_(~kept, kept)] == 0.0)
    bc = bnd.onsager_bc(basis, bnd.Face(3, "high"), setup.system)
    odd, even = basis.odd_positions(3), basis.even_positions(3)
    assert np.all(bc.l_matrix[np.ix_(~kept[odd], kept[odd])] == 0.0)
    assert np.all(bc.m_matrix[np.ix_(~kept[odd], kept[even])] == 0.0)
    assert np.all(bnd.marshak_matrix(basis, bnd.Face(3, "low"))[np.ix_(~kept[odd], kept[even])] == 0.0)


def test_complete_class_gets_identity_columns():
    # N = 3 along x: (3, 1) holds the (y, z)-even class up to m = 3, so every basis function
    # of that class is kept; (1, -1) reaches only cos 1 of the (o, e) class's cos 1 and cos 3
    doc = along("x")
    doc["model"]["N"] = 3
    doc["initial"]["moments"] = [{"l": 3, "k": 1, "amp": 1.0}, {"l": 1, "k": -1, "amp": 1.0}]
    setup = build_setup(scenario_from_dict(doc))
    assert setup.modes == ((0, "cos"), (1, "cos"), (2, "cos"))
    orders = setup.basis.orders[np.concatenate(list(setup.comps.values()))]
    assert sorted(set(orders)) == [0, 1, 2]
    # a 1-D run whose every class is complete integrates the whole basis about its axis
    doc["initial"]["moments"] = [{"l": 3, "k": k, "amp": 1.0} for k in (1, -1, 0, -2)]
    setup = build_setup(scenario_from_dict(doc))
    assert setup.n_components == 16
    for a, idx in setup.basis.family_indices((3,)).items():
        assert np.array_equal(setup.comps[a], idx)
