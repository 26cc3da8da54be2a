"""The bulk CSV writers against the per-value formatter they replace: byte for byte."""

import numpy as np
import pytest

from conftest import bundled_doc
from pnsat import io
from pnsat.config import scenario_from_dict
from pnsat.mc import simulate
from pnsat.solver import run


def reference_snapshot_csv(names, nodes, values, extra=None) -> str:
    """One row per tensor-grid node in ij order, each value formatted on its own."""
    header = ",".join([*names, "u00"] + ([extra[0]] if extra else []))
    cols = [m.ravel() for m in np.meshgrid(*nodes, indexing="ij")] + [np.asarray(values).ravel()]
    if extra:
        cols.append(np.asarray(extra[1]).ravel())
    lines = [header + "\n"]
    for row in zip(*cols, strict=True):
        lines.append(",".join(f"{float(v)!r}" for v in row) + "\n")
    return "".join(lines)


def reference_energy_csv(log) -> str:
    lines = ["t,E,bound\n"]
    for t, e, b in zip(log.times, log.energies, log.bound):
        lines.append(f"{float(t)!r},{float(e)!r},{float(b)!r}\n")
    return "".join(lines)


def short(doc, n_max, cells, t_end, snapshots) -> dict:
    doc["model"].update({"N": n_max, "stopping": {"mode": "time"}})
    doc["domain"]["cells"] = cells
    doc["integration"] = {"cfl": 0.5, "t_end": t_end}
    doc["outputs"] = {"snapshot_times": snapshots}
    return doc


def cube_doc() -> dict:
    return {
        "name": "cube",
        "model": {"N": 1, "scattering": {"kind": "none"}, "stopping": {"mode": "time"}},
        "domain": {"axes": ["x", "y", "z"], "extents": [[-1.0, 1.0]] * 3, "cells": [4, 5, 6]},
        "boundaries": {
            f"{ax}_{side}": {"type": "onsager", "alpha": 1.0, "psi_in": {"kind": "none"}}
            for ax in "xyz" for side in ("low", "high")
        },
        "initial": {"kind": "gaussian_bulk", "mu": [0.1] * 3, "sigma": [0.4] * 3},
        "integration": {"cfl": 0.5, "t_end": 0.1},
        "outputs": {"snapshot_times": [0.0, 0.1]},
    }


RUNS = {
    "1d": lambda: short(bundled_doc("tc1"), 3, [20], 0.1, [0.0, 0.1]),
    "2d_mirrored": lambda: short(bundled_doc("tc3_vacuum"), 1, [8, 6], 0.1, [0.05, 0.1]),
    "3d": cube_doc,
    "nan_bound": lambda: short(bundled_doc("tc2_unstable"), 3, [12], 0.05, [0.05]),
}


class TestWriteRun:
    @pytest.mark.parametrize("case", sorted(RUNS))
    def test_bytes_match_the_per_value_formatter(self, case, tmp_path):
        result = run(scenario_from_dict(RUNS[case]()))
        io.write_run(result, tmp_path)
        assert (tmp_path / "energy.csv").read_text() == reference_energy_csv(result.log)
        names = result.scenario.axis_names
        assert result.snapshots
        for i, snap in enumerate(result.snapshots):
            want = reference_snapshot_csv(names, snap.nodes, snap.u00)
            assert (tmp_path / f"snapshot_{i:03d}.csv").read_text() == want
        if case == "2d_mirrored":
            assert result.metadata["mirror"] == ["x"]
        if case == "nan_bound":
            assert np.all(np.isnan(result.log.bound))

    def test_constant_bound_column(self, tmp_path):
        # no inflow: the bound is E(0) on every row
        result = run(scenario_from_dict(RUNS["2d_mirrored"]()))
        bound = result.log.bound
        assert bound.size > 2 and np.all(bound == bound[0])
        io.write_run(result, tmp_path)
        text = (tmp_path / "energy.csv").read_text()
        assert text == reference_energy_csv(result.log)
        assert {line.rsplit(",", 1)[1] for line in text.splitlines()[1:]} == {repr(float(bound[0]))}

    def test_special_values(self):
        nodes = (np.array([-1.0, -0.0, 1e-300]), np.array([0.1, 2.0 / 3.0]))
        values = np.array([[np.nan, np.inf], [-np.inf, -0.0], [5e-324, 1.7976931348623157e308]])
        want = reference_snapshot_csv(("x", "z"), nodes, values)
        rows = list(io._snapshot_rows(nodes, values))
        assert "x,z,u00\n" + "".join(f"{row}\n" for row in rows) == want

    def test_rejects_a_value_count_off_the_grid(self):
        with pytest.raises(ValueError):
            list(io._snapshot_rows((np.arange(3.0),), np.arange(4.0)))


class TestWriteMc:
    def test_tally_and_stderr_bytes(self, tmp_path):
        doc = short(bundled_doc("tc3_vacuum"), 1, [8, 6], 0.1, [0.05, 0.1])
        result = simulate(scenario_from_dict(doc), n_particles=4000, seed=5)
        io.write_mc(result, tmp_path)
        names = result.scenario.axis_names
        for i, snap in enumerate(result.snapshots):
            assert (tmp_path / f"tally_{i:03d}.csv").read_text() == reference_snapshot_csv(
                names, result.centers, snap.u00)
            assert (tmp_path / f"tally_{i:03d}_stderr.csv").read_text() == reference_snapshot_csv(
                names, result.centers, snap.u00, ("stderr", snap.stderr))
