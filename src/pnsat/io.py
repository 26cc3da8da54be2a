"""Artifact writers: energy log, snapshot CSVs, metadata, plot script."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .config import Scenario
from .errors import ValidationError
from .mc import McResult
from .solver import RunResult


def _write_snapshot_csv(path: Path, names, nodes, values: np.ndarray, extra=None) -> None:
    """One row per tensor-grid node in ij order: the axis coordinates, u00[, extra]."""
    header = ",".join([*names, "u00"] + ([extra[0]] if extra else []))
    cols = [m.ravel() for m in np.meshgrid(*nodes, indexing="ij")] + [np.asarray(values).ravel()]
    if extra:
        cols.append(np.asarray(extra[1]).ravel())
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in zip(*cols, strict=True):
            fh.write(",".join(f"{float(v)!r}" for v in row) + "\n")


def read_snapshot_csv(path):
    data = np.genfromtxt(path, delimiter=",", names=True)
    return data


def snapshot_label(snap) -> str:
    if snap.energy is not None:
        return f"eps{snap.energy:.6g}"
    return f"t{snap.time:.6g}"


def write_run(result: RunResult, outdir) -> dict:
    """Write energy.csv, snapshot CSVs, metadata.json and a plot script."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    log = result.log
    bound = log.bound
    with open(outdir / "energy.csv", "w") as fh:
        fh.write("t,E,bound\n")
        for t, e, b in zip(log.times, log.energies, bound):
            fh.write(f"{float(t)!r},{float(e)!r},{float(b)!r}\n")
    snap_files = []
    for i, snap in enumerate(result.snapshots):
        name = f"snapshot_{i:03d}.csv"
        _write_snapshot_csv(outdir / name, result.scenario.axis_names, snap.nodes, snap.u00)
        snap_files.append(
            {"file": name, "time": snap.time, "energy": snap.energy, "label": snapshot_label(snap)}
        )
    meta = dict(result.metadata)
    meta["snapshots"] = snap_files
    with open(outdir / "metadata.json", "w") as fh:
        json.dump(meta, fh, indent=2)
    with open(outdir / "plot_run.py", "w") as fh:
        fh.write(_plot_script(snap_files))
    return meta


def write_mc(result: McResult, outdir) -> dict:
    """Write tally CSVs (solver snapshot format) plus stderr companions."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    names = result.scenario.axis_names
    snap_files = []
    for i, snap in enumerate(result.snapshots):
        name = f"tally_{i:03d}.csv"
        _write_snapshot_csv(outdir / name, names, result.centers, snap.u00)
        _write_snapshot_csv(
            outdir / f"tally_{i:03d}_stderr.csv", names, result.centers, snap.u00, ("stderr", snap.stderr)
        )
        snap_files.append(
            {"file": name, "time": snap.time, "energy": snap.energy}
        )
    meta = {
        "scenario": result.scenario.to_dict(),
        "n_particles": result.n_particles,
        "seed": result.seed,
        "tallies": snap_files,
        **result.meta,
    }
    with open(outdir / "mc_metadata.json", "w") as fh:
        json.dump(meta, fh, indent=2)
    return meta


def run_metadata(run_dir, scenario: Scenario) -> dict:
    """A solver run's metadata.json; ValidationError unless its domain has the scenario's axes, extents, cells."""
    with open(Path(run_dir) / "metadata.json") as fh:
        meta = json.load(fh)
    keys = ("axes", "extents", "cells")
    want = {key: scenario.to_dict()["domain"][key] for key in keys}
    try:
        got = {key: meta["scenario"]["domain"][key] for key in keys}
    except (KeyError, TypeError):
        got = None
    if got != want:
        raise ValidationError(f"run {run_dir} is not on the scenario's grid: its domain is {got}, not {want}")
    return meta


def diff_against_run(mc_result: McResult, run_dir) -> dict:
    """Compare tallies with a solver run's snapshots on the shared cell centers.

    Solver snapshots live on the even grid (boundaries + midpoints); the
    tally bins are centred on the interior even nodes, so the comparison is
    node-exact after stripping the two boundary entries.  The run must have
    the tallies' grid (:func:`run_metadata`).
    """
    run_dir = Path(run_dir)
    meta = run_metadata(run_dir, mc_result.scenario)
    entries = []
    for i, snap in enumerate(mc_result.snapshots):
        match = None
        for rec in meta.get("snapshots", []):
            if abs(rec["time"] - snap.time) < 1e-9:
                match = rec
                break
        if match is None:
            continue
        data = read_snapshot_csv(run_dir / match["file"])
        cells = mc_result.scenario.cells
        solver_u = np.asarray(data["u00"]).reshape(tuple(c + 2 for c in cells))
        interior = solver_u[tuple(slice(1, -1) for _ in cells)]
        diff = interior - snap.u00
        scale = float(np.abs(interior).max()) or 1.0
        entries.append(
            {
                "time": snap.time,
                "energy": snap.energy,
                "max_abs_diff": float(np.abs(diff).max()),
                "max_rel_diff": float(np.abs(diff).max() / scale),
                "rms_diff": float(np.sqrt(np.mean(diff**2))),
                "mc_stderr_max": float(snap.stderr.max()),
            }
        )
    return {"run_dir": str(run_dir), "snapshots": entries}


def _plot_script(snap_files) -> str:
    """Matplotlib script reproducing the figure layout from the CSV artifacts.

    Axis names come from each snapshot's header; 2-D snapshots are drawn as
    maps, 3-D snapshots as their mid-plane in the third axis.
    """
    files = json.dumps([rec["file"] for rec in snap_files])
    labels = json.dumps([rec["label"] for rec in snap_files])
    return f'''"""Generated plotting script: density snapshots and the energy curve."""
from pathlib import Path

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt
import numpy as np

here = Path(__file__).parent
SNAPSHOTS = {files}
LABELS = {labels}


def load(fname):
    """Axis names, node vectors and u00 on the grid; 3-D data cut at its mid-plane."""
    data = np.genfromtxt(here / fname, delimiter=",", names=True)
    names = [n for n in data.dtype.names if n != "u00"]
    nodes = [np.unique(data[n]) for n in names]
    u = data["u00"].reshape([x.size for x in nodes])
    where = ""
    if len(names) == 3:
        mid = nodes[2].size // 2
        u, where = u[:, :, mid], f" at {{names[2]}}={{nodes[2][mid]:.3g}}"
    return names[:2], nodes[:2], u, where


fig1, ax1 = plt.subplots(figsize=(5, 3.5))
maps = []
for fname, label in zip(SNAPSHOTS, LABELS):
    names, nodes, u, where = load(fname)
    if len(names) == 1:
        ax1.plot(nodes[0], u, label=label)
        ax1.set_xlabel(names[0]); ax1.set_ylabel("u00")
    else:
        ax1.plot(nodes[1], u[np.argmin(np.abs(nodes[0])), :], label=label)
        ax1.set_xlabel(names[1]); ax1.set_ylabel(f"u00 at {{names[0]}}=0{{where}}")
        maps.append((label, names, nodes, u, where))
ax1.legend()
fig1.tight_layout(); fig1.savefig(here / "density.png", dpi=150)

if maps:
    fig2, axes = plt.subplots(1, len(maps), figsize=(4 * len(maps), 3.5))
    for ax, (label, names, nodes, u, where) in zip(np.atleast_1d(axes), maps):
        pc = ax.pcolormesh(nodes[0], nodes[1], u.T, shading="nearest")
        fig2.colorbar(pc, ax=ax)
        ax.set_title(label + where); ax.set_xlabel(names[0]); ax.set_ylabel(names[1])
    fig2.tight_layout(); fig2.savefig(here / "snapshots.png", dpi=150)

log = np.genfromtxt(here / "energy.csv", delimiter=",", names=True)
fig3, ax3 = plt.subplots(figsize=(5, 3.5))
ax3.plot(log["t"], log["E"], label="energy")
if np.all(np.isfinite(log["bound"])):
    ax3.plot(log["t"], log["bound"], "--", label="bound")
ax3.set_xlabel("t"); ax3.set_ylabel("E"); ax3.legend()
fig3.tight_layout(); fig3.savefig(here / "energy.png", dpi=150)
print("wrote density.png and energy.png")
'''
