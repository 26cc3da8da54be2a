import dataclasses
import json
import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import bundled_doc, scenario_path
from pnsat import mc as mc_module
from pnsat.cli import main
from pnsat.config import load_scenario, scenario_from_dict
from pnsat.errors import ValidationError
from pnsat.io import diff_against_run
from pnsat.solver import run


def package_env() -> dict:
    """The environment with this checkout's ``src`` first on PYTHONPATH, for ``python -m pnsat``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def small_doc(axes, n_max, cells=6) -> dict:
    """A short vacuum run on ``cells`` cells per axis, one snapshot at the end."""
    return {
        "name": "small",
        "model": {"N": n_max, "scattering": {"kind": "none"}, "stopping": {"mode": "time"}},
        "domain": {"axes": list(axes), "extents": [[-1.0, 1.0]] * len(axes), "cells": [cells] * len(axes)},
        "boundaries": {
            f"{ax}_{side}": {"type": "onsager", "alpha": 1.0, "psi_in": {"kind": "none"}}
            for ax in axes for side in ("low", "high")
        },
        "initial": {"kind": "gaussian_bulk", "mu": [0.1] * len(axes), "sigma": [0.4] * len(axes)},
        "integration": {"cfl": 0.5, "t_end": 0.2},
        "outputs": {"snapshot_times": [0.2]},
    }


# (bundled scenario, (section, key), a value that must be a validation error)
BAD_VALUES = [
    ("tc2_stable", ("initial", "moments"), [{"l": 1, "k": 2, "amp": 1.0}]),  # |k| > l
    ("tc2_stable", ("initial", "moments"), [{"l": 1.7, "k": 0, "amp": 1.0}]),
    ("tc2_stable", ("initial", "moments"), [{"l": True, "k": 0, "amp": 1.0}]),
    ("tc2_stable", ("initial", "moments"), [{"l": 0, "k": 0}]),
    ("tc2_stable", ("initial", "moments"), [{"l": 0, "k": 0, "amp": "1"}]),
    ("tc2_stable", ("initial", "moments"), {"l": 0, "k": 0, "amp": 1.0}),
    ("tc2_stable", ("initial", "moments"), [[0, 0, 1.0]]),
    ("tc2_stable", ("initial", "center"), ["0"]),
    ("tc2_stable", ("initial", "width"), [0.0]),
    ("tc1", ("initial", "mu"), ["0"]),
    ("tc1", ("initial", "sigma"), [-0.2]),
    ("tc1", ("initial", "amplitude"), "1"),
    ("tc1", ("initial", "direction"), {"kind": "affine_mu", "a": "1", "b": 0.0}),
    ("tc1", ("outputs", "snapshot_times"), ["0.4"]),
    ("tc1", ("integration", "t_end"), math.nan),
    ("tc1", ("integration", "t_end"), math.inf),
    ("tc4_beam", ("outputs", "snapshot_energies"), [math.nan]),
    ("tc1", ("domain", "extents"), [[0.0, math.inf]]),
    # eps_center and sigma_eps come together, and only in energy mode
    ("tc4_beam", ("boundaries", "z_high"), {"type": "onsager", "alpha": 1.0, "psi_in": {
        "kind": "beam", "amplitude": 1.0, "sigma_x": 25.0, "sigma_omega": 0.1, "eps_center": 14.0}}),
    ("tc4_beam", ("boundaries", "z_high"), {"type": "onsager", "alpha": 1.0, "psi_in": {
        "kind": "beam", "amplitude": 1.0, "sigma_x": 25.0, "sigma_omega": 0.1, "sigma_eps": 0.14}}),
    ("tc_inflow_1d", ("boundaries", "x_low"), {"type": "onsager", "alpha": 1.0, "psi_in": {
        "kind": "beam", "amplitude": 1.0, "sigma_omega": 0.3, "eps_center": 1.0, "sigma_eps": 0.1}}),
    # beside |k| > l above: the lower bound of the degree
    ("tc2_stable", ("initial", "moments"), [{"l": -1, "k": 0, "amp": 1.0}]),
    # a repeated (l, k), whose first amplitude would be dropped
    ("tc2_stable", ("initial", "moments"), [{"l": 0, "k": 0, "amp": 1.0}, {"l": 0, "k": 0, "amp": 2.0}]),
    ("tc1", ("domain", "length_unit"), [1, 2]),
    ("tc1", ("domain", "length_unit"), ""),
    ("tc1", ("model", "scattering"), {"kind": "table", "path": 5}),
    ("tc1", ("model", "scattering"), {"kind": "table", "path": ""}),
]

# (a moment-table body, the line it breaks): non-numeric, non-finite or non-integer entries,
# a header without exactly one value, a repeated degree
BAD_TABLES = [
    ("sigma_t 1.0\n0 abc\n", 2),
    ("sigma_t 1.0\nx 0.5\n", 2),
    ("sigma_t\n0 0.5\n", 1),
    ("sigma_t 1.0 2.0\n0 0.5\n", 1),
    ("sigma_t nan\n0 0.5\n", 1),
    ("sigma_t inf\n0 0.5\n", 1),
    ("sigma_t 1.0\n0 0.5\n1 -inf\n", 3),
    ("sigma_t 1.0\n0.5 0.5\n", 2),
    ("sigma_t 1.0\n0 0.5\n1 0.2\n# comment\n0 0.4\n", 5),
]

# `pnsat assemble 3`'s basis table: flat position, degree, order and the parity on each axis
BASIS_CSV_N3 = """\
position,l,k,parity_x,parity_y,parity_z
0,0,0,even,even,even
1,1,-1,even,odd,even
2,1,0,even,even,odd
3,1,1,odd,even,even
4,2,-2,odd,odd,even
5,2,-1,even,odd,odd
6,2,0,even,even,even
7,2,1,odd,even,odd
8,2,2,even,even,even
9,3,-3,even,odd,even
10,3,-2,odd,odd,odd
11,3,-1,even,odd,even
12,3,0,even,even,odd
13,3,1,odd,even,even
14,3,2,even,even,odd
15,3,3,odd,even,even
"""

# every part of a document that must be a JSON object, as a key path into tc_inflow_1d
OBJECT_SECTIONS = [
    (), ("model",), ("model", "scattering"), ("model", "stopping"), ("domain",),
    ("boundaries",), ("boundaries", "x_low"), ("boundaries", "x_low", "psi_in"),
    ("initial",), ("integration",), ("outputs",),
]

# zero-width beam parameters, each on a bundled scenario
ZERO_WIDTH_BEAMS = [
    ("tc_inflow_1d", "x_low", {"kind": "beam", "amplitude": 1.0, "sigma_omega": 0.0}),
    ("tc4_beam", "z_high", {"sigma_x": 0}),
    ("tc4_beam", "z_high", {"sigma_eps": 0}),
    ("tc4_beam", "z_high", {"sigma_omega": -0.1}),
]


class TestConfigValidation:
    def test_roundtrip_is_fixed_point(self):
        for name in ("tc1", "tc2_unstable", "tc2_stable", "tc3_vacuum", "tc4_beam", "tc_inflow_1d"):
            doc = bundled_doc(name)
            sc1 = scenario_from_dict(doc)
            echo = sc1.to_dict()
            sc2 = scenario_from_dict(echo)
            assert sc2.to_dict() == echo

    def test_unknown_keys_rejected(self):
        doc = bundled_doc("tc1")
        doc["surprise"] = 1
        with pytest.raises(ValidationError, match="unknown key"):
            scenario_from_dict(doc)
        doc = bundled_doc("tc1")
        doc["model"]["extra"] = True
        with pytest.raises(ValidationError, match="unknown key"):
            scenario_from_dict(doc)

    def test_missing_boundary_rejected(self):
        doc = bundled_doc("tc1")
        del doc["boundaries"]["x_high"]
        with pytest.raises(ValidationError):
            scenario_from_dict(doc)

    def test_alpha_out_of_range_rejected(self):
        doc = bundled_doc("tc1")
        doc["boundaries"]["x_low"]["alpha"] = 1.5
        with pytest.raises(ValidationError):
            scenario_from_dict(doc)

    def test_cfl_bounds(self):
        doc = bundled_doc("tc1")
        doc["integration"]["cfl"] = 0.0
        with pytest.raises(ValidationError):
            scenario_from_dict(doc)
        doc["integration"]["cfl"] = 1.2
        with pytest.raises(ValidationError):
            scenario_from_dict(doc)

    def test_model_n_must_be_a_strict_integer(self):
        for bad in (True, 2.5, 3.0, "3"):
            doc = bundled_doc("tc_inflow_1d")
            doc["model"]["N"] = bad
            with pytest.raises(ValidationError, match="model.N must be a positive integer"):
                scenario_from_dict(doc)

    def test_cells_must_be_strict_integers(self):
        for bad in (True, 10.5, 100.0, "100"):
            doc = bundled_doc("tc_inflow_1d")
            doc["domain"]["cells"] = [bad]
            with pytest.raises(ValidationError, match="domain.cells entries must be integers"):
                scenario_from_dict(doc)

    def test_domain_lists_must_be_lists(self):
        for key, bad in (("cells", 100), ("cells", "100"), ("axes", "x"), ("axes", {"x": 1}),
                         ("extents", 1.0), ("extents", {"x": [0.0, 1.0]})):
            doc = bundled_doc("tc_inflow_1d")
            doc["domain"][key] = bad
            with pytest.raises(ValidationError, match=f"domain.{key} must be a list"):
                scenario_from_dict(doc)
        for bad in ([["x"]], [1]):
            doc = bundled_doc("tc_inflow_1d")
            doc["domain"]["axes"] = bad
            with pytest.raises(ValidationError, match="domain.axes must be a nonempty list"):
                scenario_from_dict(doc)
        for bad in (1.0, [0.0], [0.0, 1.0, 2.0], ["0", "1"], [False, 1.0], "01"):
            doc = bundled_doc("tc_inflow_1d")
            doc["domain"]["extents"] = [bad]
            with pytest.raises(ValidationError, match="domain.extents entries must be"):
                scenario_from_dict(doc)

    def test_domain_non_list_exits_1(self, tmp_path, capsys):
        doc = bundled_doc("tc_inflow_1d")
        doc["domain"]["cells"] = 100
        cfg = tmp_path / "cells.json"
        cfg.write_text(json.dumps(doc))
        assert main(["run", str(cfg), "-o", str(tmp_path / "out")]) == 1
        assert "domain.cells must be a list" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_strict_integer_errors_exit_1(self, tmp_path, capsys):
        for section, key, bad in (("model", "N", True), ("domain", "cells", [10.5])):
            doc = bundled_doc("tc_inflow_1d")
            doc[section][key] = bad
            cfg = tmp_path / f"{key}.json"
            cfg.write_text(json.dumps(doc))
            assert main(["run", str(cfg), "-o", str(tmp_path / key)]) == 1
            assert "validation error" in capsys.readouterr().err
            assert not (tmp_path / key).exists()

    @pytest.mark.parametrize("name, where, bad", BAD_VALUES)
    def test_bad_values_exit_1(self, tmp_path, capsys, name, where, bad):
        doc = bundled_doc(name)
        section, key = where
        doc[section][key] = bad
        with pytest.raises(ValidationError):
            scenario_from_dict(doc)
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(doc))
        assert main(["run", str(cfg), "-o", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("validation error: ") and err.count("\n") == 1
        if where == ("initial", "moments") and isinstance(bad, list):
            assert "initial.moments[0]" in err
        assert not (tmp_path / "out").exists()

    def test_repeated_moment_names_both_entries(self):
        doc = bundled_doc("tc2_stable")
        doc["initial"]["moments"].append(dict(doc["initial"]["moments"][1], amp=7.0))
        l, k = doc["initial"]["moments"][1]["l"], doc["initial"]["moments"][1]["k"]
        with pytest.raises(ValidationError, match=rf"^initial.moments\[3\]: repeated moment \(l={l}, k={k}\), "
                                                  rf"first given in initial.moments\[1\]$"):
            scenario_from_dict(doc)

    def test_scenario_keeps_its_own_scattering(self):
        doc = bundled_doc("tc4_beam")
        given = dict(doc["model"]["scattering"])
        sc = scenario_from_dict(doc)
        doc["model"]["scattering"].update(kind="isotropic", g=0.0)
        assert sc.scattering_dict == given == sc.to_dict()["model"]["scattering"]
        assert given["kind"] == "henyey_greenstein" and given["g"] == 0.8

    def test_scenarios_compare_by_value(self):
        sc = load_scenario(scenario_path("tc1"))
        assert sc == load_scenario(scenario_path("tc1"))
        other_g = dataclasses.replace(sc.scattering, g=0.5)
        assert sc.scattering != other_g
        assert sc != dataclasses.replace(sc, scattering=other_g)
        with pytest.raises(TypeError, match="unhashable"):
            hash(sc)

    @pytest.mark.parametrize("path", OBJECT_SECTIONS, ids=lambda p: ".".join(p) or "config")
    def test_non_object_section_exits_1(self, tmp_path, capsys, path):
        doc = bundled_doc("tc_inflow_1d")
        if path:
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = 5
        else:
            doc = 5
        where = ".".join(path) or "config"
        with pytest.raises(ValidationError, match=f"^{where} must be an object, got 5$"):
            scenario_from_dict(doc)
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(doc))
        assert main(["run", str(cfg), "-o", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"validation error: {where} must be an object" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_non_object_direction_rejected(self):
        doc = bundled_doc("tc3_vacuum")
        doc["initial"]["direction"] = 5
        with pytest.raises(ValidationError, match="^initial.direction must be an object, got 5$"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("name, face, beam", ZERO_WIDTH_BEAMS)
    def test_zero_width_beam_exits_1(self, tmp_path, capsys, name, face, beam):
        doc = bundled_doc(name)
        doc["boundaries"][face]["psi_in"].update(beam)
        [key] = (k for k in beam if k.startswith("sigma"))
        with pytest.raises(ValidationError, match=f"psi_in.{key} must be > 0"):
            scenario_from_dict(doc)
        cfg = tmp_path / "beam.json"
        cfg.write_text(json.dumps(doc))
        assert main(["run", str(cfg), "-o", str(tmp_path / "out")]) == 1
        assert f"validation error: boundaries.{face}.psi_in.{key} must be > 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("body, line", BAD_TABLES, ids=[f"case{i}" for i in range(len(BAD_TABLES))])
    def test_bad_moment_table_exits_1(self, tmp_path, capsys, body, line):
        table = tmp_path / "kernel.table"
        table.write_text(body)
        doc = small_doc("x", 3)
        doc["model"]["scattering"] = {"kind": "table", "path": str(table)}
        cfg = tmp_path / "table.json"
        cfg.write_text(json.dumps(doc))
        assert main(["run", str(cfg), "-o", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"validation error: {table}:{line}: " in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("scattering, message", [
        ({"kind": "isotropic", "sigma_s": 1.0, "sigma_t": 0.5},
         "sigma_0 = 1.0 exceeds sigma_t = 0.5; relaxation would be positive"),
        # a table body: the message names the first degree whose moment is too large
        ("sigma_t 1.0\n0 0.5\n1 0.2\n2 -0.75\n3 0.9\n",
         "scattering moments must satisfy |sigma_l| <= sigma_0: sigma_2 = -0.75 exceeds sigma_0 = 0.5 in magnitude"),
    ], ids=["isotropic", "table"])
    def test_scattering_bounds_exit_1_with_plain_numbers(self, tmp_path, capsys, scattering, message):
        if isinstance(scattering, str):
            table = tmp_path / "kernel.table"
            table.write_text(scattering)
            scattering = {"kind": "table", "path": str(table)}
        doc = bundled_doc("tc_inflow_1d")
        doc["model"]["scattering"] = scattering
        cfg = tmp_path / "scattering.json"
        cfg.write_text(json.dumps(doc))
        assert main(["run", str(cfg), "-o", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err == f"validation error: {message}\n"
        assert "np.float64" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", ["../x", None])
    def test_name_must_be_a_directory_name(self, tmp_path, capsys, monkeypatch, name):
        # the default output directory is <name>_out in the working directory
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        doc = small_doc("x", 3)
        doc["name"] = name
        cfg = tmp_path / "named.json"
        cfg.write_text(json.dumps(doc))
        assert main(["run", str(cfg)]) == 1
        assert "validation error: name must be a non-empty string" in capsys.readouterr().err
        assert list(work.iterdir()) == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["named.json", "work"]

    def test_energy_mode_mapping(self):
        sc = scenario_from_dict(bundled_doc("tc4_beam"))
        assert sc.mode == "energy"
        assert sc.t_end == pytest.approx((14.42 - 13.45) / 0.011187)
        # snapshot energies map to increasing pseudo-times
        assert list(sc.snapshot_times) == sorted(sc.snapshot_times)
        assert sc.energy_of(0.0) == pytest.approx(14.42)
        assert sc.tau_of_energy(14.42) == pytest.approx(0.0)

    def test_snapshot_outside_range_rejected(self):
        doc = bundled_doc("tc1")
        doc["outputs"]["snapshot_times"] = [99.0]
        with pytest.raises(ValidationError):
            scenario_from_dict(doc)

    def test_bundled_paper_values(self):
        tc1 = bundled_doc("tc1")
        assert tc1["initial"]["mu"] == [0.0]
        assert tc1["initial"]["sigma"] == [0.2]
        assert tc1["model"]["N"] == 13
        assert tc1["domain"]["extents"] == [[-1.0, 1.0]]
        tc2 = bundled_doc("tc2_unstable")
        assert tc2["model"]["N"] == 2
        assert [m["amp"] for m in tc2["initial"]["moments"]] == [1.0, 2.5, -1.0]
        assert tc2["initial"]["width"] == [0.1]
        tc4 = bundled_doc("tc4_beam")
        beam = tc4["boundaries"]["z_high"]["psi_in"]
        assert beam["sigma_x"] == 25.0
        assert beam["sigma_omega"] == 0.1
        assert beam["eps_center"] == 14.0
        assert beam["sigma_eps"] == pytest.approx(14.0 / 100.0)
        assert tc4["outputs"]["snapshot_energies"] == [14.1, 14.0, 13.9, 13.5]
        tc3 = bundled_doc("tc3_vacuum")
        assert tc3["initial"]["sigma"] == [25.0, 25.0]
        assert tc3["initial"]["direction"] == {"kind": "affine_mu", "a": 0.1, "b": 0.1}


class TestCli:
    def test_verify_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_module_entry_point(self):
        proc = subprocess.run([sys.executable, "-m", "pnsat", "--help"],
                              env=package_env(), capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert "oracle" in proc.stdout

    def test_run_writes_artifacts(self, tmp_path, capsys):
        cfg = tmp_path / "probe.json"
        doc = bundled_doc("tc_inflow_1d")
        doc["integration"]["t_end"] = 0.5
        doc["outputs"]["snapshot_times"] = [0.25, 0.5]
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "-o", str(out)]) == 0
        assert (out / "energy.csv").exists()
        assert (out / "snapshot_000.csv").exists()
        assert (out / "snapshot_001.csv").exists()
        assert (out / "metadata.json").exists()
        assert (out / "plot_run.py").exists()
        first = (out / "snapshot_000.csv").read_text().splitlines()
        assert first[0] == "x,u00"
        log_lines = (out / "energy.csv").read_text().splitlines()
        assert log_lines[0] == "t,E,bound"
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["c_constant"] is not None
        # N = 5 in 1-D with zero initial data and an isotropic inflow: only the
        # azimuthal mode m = 0 about x, one component per degree, 6 of 36
        assert meta["components"] == {"integrated": 6, "basis": 36, "modes": [[0, "cos"]]}
        assert set(meta["seconds"]) == {"setup", "stepping"}
        assert all(v >= 0.0 for v in meta["seconds"].values())
        assert meta["rhs_calls"] == 4 * meta["steps"]  # four RK4 stages per step
        # the metadata echo revalidates
        scenario_from_dict(meta["scenario"])

    def test_run_records_component_counts(self, tmp_path, capsys):
        # tc1's isotropic data reach only the azimuthal mode m = 0 about x: the
        # 14 P_l(omega_x) of the 196 components at N = 13
        cfg = tmp_path / "tc1.json"
        doc = bundled_doc("tc1")
        doc["domain"]["cells"] = [20]
        doc["integration"]["t_end"] = 0.1
        doc["outputs"]["snapshot_times"] = [0.1]
        cfg.write_text(json.dumps(doc))
        assert main(["run", str(cfg), "-o", str(tmp_path / "out")]) == 0
        meta = json.loads((tmp_path / "out" / "metadata.json").read_text())
        assert meta["components"] == {"integrated": 14, "basis": 196, "modes": [[0, "cos"]]}

    def test_run_2d_snapshot_header(self, tmp_path):
        cfg = tmp_path / "probe2d.json"
        doc = bundled_doc("tc3_vacuum")
        doc["model"]["N"] = 3
        doc["domain"]["cells"] = [12, 12]
        doc["model"]["stopping"]["eps_end"] = 14.8
        doc["outputs"]["snapshot_energies"] = [14.9]
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out2d"
        assert main(["run", str(cfg), "-o", str(out)]) == 0
        header = (out / "snapshot_000.csv").read_text().splitlines()[0]
        assert header == "x,z,u00"
        # azimuthal modes are a 1-D reduction: a 2-D run records none
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["components"] == {"integrated": 10, "basis": 16, "modes": None}

    def test_empty_parity_families_and_p0(self, tmp_path, capsys):
        # N = 1 and 2 leave some parity families without components; P_0 has no transport
        for axes, n_max in (("xy", 1), ("xz", 1), ("xyz", 1), ("xyz", 2), ("x", 0), ("xz", 0), ("xyz", 0)):
            cfg = tmp_path / f"{axes}_{n_max}.json"
            cfg.write_text(json.dumps(small_doc(axes, n_max)))
            out = tmp_path / f"{axes}_{n_max}"
            code = main(["run", str(cfg), "-o", str(out)])
            err = capsys.readouterr().err
            if n_max == 0:
                assert code == 1 and "model.N must be a positive integer" in err
            else:
                assert code == 0
                rows = (out / "snapshot_000.csv").read_text().splitlines()
                assert rows[0] == ",".join(axes) + ",u00"
                assert len(rows) == 1 + 8 ** len(axes)

    def test_run_3d_snapshots_read_back(self, tmp_path, capsys):
        # every node of a 6^3 grid under the scenario's axis labels, for the run and the tallies
        cfg = tmp_path / "cube.json"
        cfg.write_text(json.dumps(small_doc("xyz", 3)))
        out = tmp_path / "cube"
        assert main(["run", str(cfg), "-o", str(out)]) == 0
        snap = run(load_scenario(cfg)).snapshots[0]
        data = np.genfromtxt(out / "snapshot_000.csv", delimiter=",", names=True)
        assert data.dtype.names == ("x", "y", "z", "u00")
        assert data.size == 512
        assert np.array_equal(data["u00"], snap.u00.ravel())
        for name, mesh in zip("xyz", np.meshgrid(*snap.nodes, indexing="ij")):
            assert np.array_equal(data[name], mesh.ravel())
        compile((out / "plot_run.py").read_text(), "plot_run.py", "exec")
        mc = tmp_path / "cube_mc"
        assert main(["oracle", str(cfg), "--n", "4000", "-o", str(mc), "--diff", str(out)]) == 0
        assert (mc / "tally_000.csv").read_text().splitlines()[0] == "x,y,z,u00"
        assert json.loads((mc / "diff.json").read_text())["snapshots"][0]["max_abs_diff"] >= 0.0

    def test_oracle_reproducible_and_diff(self, tmp_path, capsys):
        cfg = tmp_path / "probe.json"
        doc = bundled_doc("tc1")
        doc["domain"]["cells"] = [30]
        doc["integration"]["t_end"] = 0.5
        doc["outputs"]["snapshot_times"] = [0.5]
        cfg.write_text(json.dumps(doc))
        run_dir = tmp_path / "run"
        assert main(["run", str(cfg), "-o", str(run_dir)]) == 0
        mc1 = tmp_path / "mc1"
        mc2 = tmp_path / "mc2"
        assert main(["oracle", str(cfg), "--n", "40000", "--seed", "3", "-o", str(mc1),
                     "--diff", str(run_dir)]) == 0
        assert main(["oracle", str(cfg), "--n", "40000", "--seed", "3", "-o", str(mc2)]) == 0
        assert (mc1 / "tally_000.csv").read_text() == (mc2 / "tally_000.csv").read_text()
        diff = json.loads((mc1 / "diff.json").read_text())
        assert diff["snapshots"][0]["max_abs_diff"] < 0.1

    @pytest.mark.parametrize("change", ["cells", "extents"])
    def test_oracle_diff_against_run_of_another_grid_exits_1(self, tmp_path, capsys, monkeypatch, change):
        # a run with twice the cells used to raise a reshape ValueError, one with the same
        # cells on other extents was compared silently; both now fail before the simulation
        monkeypatch.setattr("pnsat.cli.simulate", lambda *a, **k: pytest.fail("simulated"))
        run_doc = small_doc("x", 2, cells=12)
        if change == "extents":
            run_doc["domain"]["extents"] = [[-2.0, 2.0]]
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(run_doc))
        assert main(["run", str(cfg), "-o", str(tmp_path / "run")]) == 0
        oracle = tmp_path / "oracle.json"
        oracle.write_text(json.dumps(small_doc("x", 2, cells=6 if change == "cells" else 12)))
        capsys.readouterr()
        code = main(["oracle", str(oracle), "--n", "4000", "-o", str(tmp_path / "mc"),
                     "--diff", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert code == 1 and "is not on the scenario's grid" in err and "Traceback" not in err
        assert not (tmp_path / "mc").exists()
        tallies = SimpleNamespace(scenario=load_scenario(oracle), snapshots=[])
        with pytest.raises(ValidationError, match="not on the scenario's grid"):
            diff_against_run(tallies, tmp_path / "run")

    def test_oracle_diff_against_run_without_the_tally_times_exits_1(self, tmp_path, capsys, monkeypatch):
        # a run on the same grid at other snapshot times used to give an empty diff.json and
        # exit 0; it now fails before the simulation and names the unmatched times
        monkeypatch.setattr("pnsat.cli.simulate", lambda *a, **k: pytest.fail("simulated"))
        doc = small_doc("x", 2, cells=12)
        doc["integration"]["t_end"] = 0.8
        doc["outputs"]["snapshot_times"] = [0.4, 0.8]
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(doc))
        assert main(["run", str(cfg), "-o", str(tmp_path / "run")]) == 0
        doc["outputs"]["snapshot_times"] = [0.3, 0.6]
        oracle = tmp_path / "oracle.json"
        oracle.write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(["oracle", str(oracle), "--n", "4000", "-o", str(tmp_path / "mc"),
                     "--diff", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert code == 1 and "Traceback" not in err
        assert "has no snapshot at t = 0.3, 0.6 (its snapshots are at t = 0.4, 0.8)" in err
        assert not (tmp_path / "mc").exists()

    def test_oracle_worker_error_exits_2(self, tmp_path, capsys, monkeypatch):
        # the Legendre reconstruction 1 + 5 P2(c) is negative near c = 0: a NumericalError
        # raised by the first collision inside a pool worker
        monkeypatch.setattr(mc_module, "_workers", lambda n_batches: 2)
        table = tmp_path / "negative.table"
        table.write_text("sigma_t 1.0\n0 1.0\n1 0.0\n2 1.0\n")
        doc = small_doc("x", 3)
        doc["model"]["scattering"] = {"kind": "table", "path": str(table)}
        cfg = tmp_path / "negative.json"
        cfg.write_text(json.dumps(doc))
        assert main(["oracle", str(cfg), "--n", "2000", "-o", str(tmp_path / "mc")]) == 2
        err = capsys.readouterr().err
        assert "numerical failure: tabulated scattering kernel is not sampleable" in err
        assert "Traceback" not in err
        assert multiprocessing.active_children() == []
        assert not (tmp_path / "mc").exists()

    @pytest.mark.parametrize("message, shown", [
        ("Unable to allocate 36.5 GiB for an array with shape (3, 40401, 40401) and data type float64",
         "Unable to allocate 36.5 GiB"),
        ("", "allocation failed"),
    ])
    def test_run_out_of_memory_exits_2(self, tmp_path, capsys, monkeypatch, message, shown):
        # a schema-valid N = 200 asks assemble_transport for 3 x 40401^2 floats; the patched
        # call fails as that allocation would, without allocating anything
        def no_memory(basis):
            raise MemoryError(message)

        monkeypatch.setattr("pnsat.solver.assemble_transport", no_memory)
        doc = bundled_doc("tc_inflow_1d")
        doc["model"]["N"] = 200
        cfg = tmp_path / "huge.json"
        cfg.write_text(json.dumps(doc))
        assert main(["run", str(cfg), "-o", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: out of memory") and shown in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_run_over_the_step_budget_exits_2_before_stepping(self, tmp_path):
        # extents in the wrong unit: 1e-6 instead of 1 needs about 2.8e8 steps; the run
        # must fail before its first step, not after ten million of them
        doc = bundled_doc("tc_inflow_1d")
        doc["domain"]["extents"] = [[0.0, 1e-6]]
        cfg = tmp_path / "tiny.json"
        cfg.write_text(json.dumps(doc))
        proc = subprocess.run([sys.executable, "-m", "pnsat", "run", str(cfg), "-o", str(tmp_path / "out")],
                              env=package_env(), capture_output=True, text=True, timeout=10)
        assert proc.returncode == 2
        assert proc.stdout == "" and proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
        assert proc.stderr.startswith("numerical failure: the run needs up to 2.8e+08 steps of dt = 5.36e-09")
        assert "budget of 10,000,000 steps" in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_oracle_too_few_particles_exits_1_before_workers(self, tmp_path, capsys, monkeypatch):
        def no_batches(*args):
            raise AssertionError("batches started")

        monkeypatch.setattr(mc_module, "_run_batches", no_batches)
        cfg = tmp_path / "small.json"
        cfg.write_text(json.dumps(small_doc("x", 3)))
        assert main(["oracle", str(cfg), "--n", "15", "-o", str(tmp_path / "mc")]) == 1
        assert "validation error: need at least one particle per batch" in capsys.readouterr().err
        assert not (tmp_path / "mc").exists()

    def test_assemble_dumps_matrices(self, tmp_path):
        out = tmp_path / "mats"
        assert main(["assemble", "3", "-o", str(out)]) == 0
        a_x = np.loadtxt(out / "a_x.csv", delimiter=",")
        assert a_x.shape == (16, 16)
        assert np.abs(a_x - a_x.T).max() < 1e-12
        ahat = np.loadtxt(out / "ahat_x.csv", delimiter=",")
        assert ahat.shape == (6, 10)
        assert (out / "basis.csv").read_text() == BASIS_CSV_N3

    def test_assemble_negative_degree_exits_1(self, tmp_path, capsys):
        out = tmp_path / "mats"
        assert main(["assemble", "-1", "-o", str(out)]) == 1
        assert "basis degree must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_validation_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        doc = bundled_doc("tc1")
        doc["integration"]["cfl"] = 2.0
        cfg.write_text(json.dumps(doc))
        assert main(["run", str(cfg)]) == 1

    def test_io_error_exit_code(self, capsys):
        assert main(["run", "/nonexistent/path.json"]) == 3

    def test_malformed_json_exit_code(self, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        assert main(["run", str(cfg)]) == 1
