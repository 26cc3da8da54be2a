"""Artifact writers: energy log, snapshot CSVs, metadata, plot script."""

from __future__ import annotations

import json
from itertools import product
from pathlib import Path

import numpy as np

from .config import Scenario
from .errors import ValidationError
from .mc import McResult
from .solver import RunResult


def _fmt(values) -> list[str]:
    """Each value as the repr of a Python float: the shortest text that reads back to the same double."""
    return list(map(repr, np.asarray(values, dtype=float).ravel().tolist()))


def _snapshot_rows(nodes, values):
    """One row per tensor-grid node in ij order, made as it is read: the axis coordinates, then the value.

    Each axis coordinate is formatted once and shared by the rows at it.
    """
    values = np.asarray(values, dtype=float).ravel().tolist()
    for coords, v in zip(product(*map(_fmt, nodes)), values, strict=True):
        yield f"{','.join(coords)},{v!r}"


def _write_csv(path: Path, columns, rows) -> None:
    """A header of ``columns``, then one line per string of ``rows``, handed over in one call."""
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(f"{row}\n" for row in rows)


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
    # streamed from the arrays: float repr dominates the cost, so text for every row at once
    # would only hold memory
    rows = (f"{float(t)!r},{float(e)!r},{float(b)!r}" for t, e, b in zip(log.times, log.energies, bound))
    _write_csv(outdir / "energy.csv", ("t", "E", "bound"), rows)
    snap_files = []
    for i, snap in enumerate(result.snapshots):
        name = f"snapshot_{i:03d}.csv"
        _write_csv(outdir / name, [*result.scenario.axis_names, "u00"], _snapshot_rows(snap.nodes, snap.u00))
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
    header = ",".join([*result.scenario.axis_names, "u00"])
    snap_files = []
    for i, snap in enumerate(result.snapshots):
        name = f"tally_{i:03d}.csv"
        rows = _snapshot_rows(result.centers, snap.u00)
        stderr = np.asarray(snap.stderr, dtype=float).ravel().tolist()
        # each tally row also starts its row of the stderr companion
        with open(outdir / name, "w") as fh, open(outdir / f"tally_{i:03d}_stderr.csv", "w") as fe:
            fh.write(header + "\n")
            fe.write(header + ",stderr\n")
            for row, e in zip(rows, stderr, strict=True):
                fh.write(f"{row}\n")
                fe.write(f"{row},{e!r}\n")
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
    """A solver run's metadata.json for the scenario's tallies.

    ValidationError unless the run's domain has the scenario's axes, extents
    and cells, and the run has a snapshot within 1e-9 of every scenario
    snapshot time.
    """
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
    try:
        times = [float(rec["time"]) for rec in meta.get("snapshots", [])]
    except (KeyError, TypeError, ValueError):
        times = []
    missing = [t for t in scenario.snapshot_times if not any(abs(r - t) < 1e-9 for r in times)]
    if missing:
        raise ValidationError(
            f"run {run_dir} has no snapshot at t = {', '.join(f'{t:.6g}' for t in missing)} "
            f"(its snapshots are at t = {', '.join(f'{t:.6g}' for t in times) or 'none'})"
        )
    return meta


def diff_against_run(mc_result: McResult, run_dir) -> dict:
    """Compare tallies with a solver run's snapshots on the shared cell centers.

    Solver snapshots live on the even grid (boundaries + midpoints); the
    tally bins are centred on the interior even nodes, so the comparison is
    node-exact after stripping the two boundary entries.  The run must have
    the tallies' grid and a snapshot at every tally time (:func:`run_metadata`).
    """
    run_dir = Path(run_dir)
    meta = run_metadata(run_dir, mc_result.scenario)
    entries = []
    for snap in mc_result.snapshots:
        match = next(rec for rec in meta["snapshots"] if abs(rec["time"] - snap.time) < 1e-9)
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
