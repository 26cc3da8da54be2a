"""Property test: every small schema-valid scenario runs or fails cleanly.

Draws scenarios over 1-3 axes in any order, N = 0..4 and 4-6 cells per
axis, with Onsager or unstable Marshak faces, alpha in {0, 0.5, 1} and no,
isotropic or beam inflow.  A run either exits 0 with a bound report whose
snapshots read back to the in-memory arrays, and whose discrete energy
bound holds when every face is Onsager, or exits 1 or 2 with a message;
the kernel's increment matches the assembled global operator on
random states over the full basis.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import AssembledOperator, every_moment_initial
from pnsat.cli import main
from pnsat.config import scenario_from_dict
from pnsat.solver import build_setup, energy_bound_check, rhs, run

INFLOWS = (
    {"kind": "none"},
    {"kind": "isotropic", "amplitude": 0.5},
    {"kind": "beam", "amplitude": 1.0, "sigma_x": 0.5, "sigma_omega": 0.3},
)

faces = st.fixed_dictionaries({
    "type": st.sampled_from(["onsager", "unstable_marshak"]),
    "alpha": st.sampled_from([0.0, 0.5, 1.0]),
    "psi_in": st.sampled_from(INFLOWS),
})


@st.composite
def scenarios(draw) -> dict:
    axes = draw(st.lists(st.sampled_from("xyz"), min_size=1, max_size=3, unique=True))
    ndim = len(axes)
    return {
        "name": "drawn",
        "model": {
            "N": draw(st.integers(0, 4)),
            "scattering": draw(st.sampled_from([{"kind": "none"}, {"kind": "isotropic", "sigma_s": 1.0}])),
            "stopping": {"mode": "time"},
        },
        "domain": {
            "axes": axes,
            "extents": [[-1.0, 1.0]] * ndim,
            "cells": [draw(st.integers(4, 6)) for _ in axes],
        },
        "boundaries": {f"{ax}_{side}": draw(faces) for ax in axes for side in ("low", "high")},
        "initial": {"kind": "gaussian_bulk", "mu": [0.1] * ndim, "sigma": [0.4] * ndim},
        "integration": {"cfl": 0.5, "t_end": 0.2},
        "outputs": {"snapshot_times": [0.1, 0.2]},
    }


@settings(max_examples=50, derandomize=True, deadline=None)
@given(doc=scenarios())
def test_drawn_scenario_runs_or_fails_cleanly(doc):
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "drawn.json", Path(tmp) / "out"
        cfg.write_text(json.dumps(doc))
        stdout, stderr = io.StringIO(), io.StringIO()
        results = []  # the in-memory result of the run that main writes out
        recording_run = lambda scenario: results.append(run(scenario)) or results[-1]
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                mock.patch("pnsat.cli.run", recording_run):
            code = main(["run", str(cfg), "-o", str(out)])
        assert code in (0, 1, 2)
        if code != 0:
            assert stderr.getvalue().strip()
            return
        assert "energy bound" in stdout.getvalue() or "energy-bound" in stdout.getvalue()

        result = results[0]
        if all(face["type"] == "onsager" for face in doc["boundaries"].values()):
            report = energy_bound_check(result)
            assert report.ok, report.describe()
        for i, snap in enumerate(result.snapshots):
            data = np.genfromtxt(out / f"snapshot_{i:03d}.csv", delimiter=",", names=True)
            assert data.dtype.names == (*doc["domain"]["axes"], "u00")
            assert np.array_equal(data["u00"], snap.u00.ravel())
            for name, mesh in zip(doc["domain"]["axes"], np.meshgrid(*snap.nodes, indexing="ij")):
                assert np.array_equal(data[name], mesh.ravel())

        # the probe's initial moments fill every inactive parity class, so its
        # sector is the whole basis
        n_max, ndim = doc["model"]["N"], len(doc["domain"]["axes"])
        setup = build_setup(scenario_from_dict({**doc, "initial": every_moment_initial(n_max, ndim)}))
        assert setup.n_components == (n_max + 1) ** 2
        rng = np.random.default_rng(0)
        state = rng.standard_normal(setup.size)
        want = AssembledOperator(setup).rhs(state, 0.05)
        got = rhs(setup, state, 0.05)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13 * np.abs(want).max())
