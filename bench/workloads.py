"""The workloads: the operations of one round and the checks on their outputs.

An operation is one ``pnsat run`` or one ``pnsat oracle`` call on one
scenario, followed by its checks.  A workload's round runs its operations in
order; round checks compare operations of the same round.  The seed only
draws amplitude factors (solver workloads) or Monte Carlo seeds
(``mc_oracle``); grids, orders and step counts never depend on it, so every
seed does the same work.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks

MC_PARTICLES = 1_000_000
MC_WINDOW_FRAC = 0.02  # mc.simulate's default track-length window

FREE_STREAM = {
    "name": "mc_free",
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
}


@dataclass
class Op:
    name: str
    kind: str  # "run" | "oracle"
    doc: dict
    check: Callable[[object, Path], list[str]]
    mc_seed: int = 0


@dataclass
class Workload:
    ops: list[Op]
    round_check: Callable[[dict], list[str]] = field(default=lambda results: [])


def _amplitude(rng) -> float:
    return float(2.0 ** rng.uniform(-1.0, 1.0))


# ---------------------------------------------------------------------------
# per-operation checks


def _run_artifacts(out, outdir: Path) -> list[str]:
    """energy.csv and every snapshot CSV read back to the in-memory arrays."""
    result, report = out
    log = result.log
    problems = checks.columns_equal(
        outdir / "energy.csv", {"t": log.times, "E": log.energies, "bound": log.bound})
    for i, snap in enumerate(result.snapshots):
        problems += checks.columns_equal(
            outdir / f"snapshot_{i:03d}.csv", checks.grid_columns(snap.nodes, snap.u00))
    if report.applicable and not report.ok:
        problems.append(f"bound report: {report.describe()}")
    return problems


def _oracle_artifacts(result, outdir: Path) -> list[str]:
    problems = []
    for i, snap in enumerate(result.snapshots):
        problems += checks.columns_equal(
            outdir / f"tally_{i:03d}.csv", checks.grid_columns(result.centers, snap.u00))
        cols = checks.grid_columns(result.centers, snap.u00)
        cols["stderr"] = snap.stderr
        problems += checks.columns_equal(outdir / f"tally_{i:03d}_stderr.csv", cols)
    return problems


def _run_check(*log_checks, symmetric: bool = False):
    """Artifact read-back, the bound report, and the given checks on the energy log."""
    def check(out, outdir):
        problems = _run_artifacts(out, outdir)
        for log_check in log_checks:
            problems += log_check(out[0].log)
        if symmetric:
            for snap in out[0].snapshots:
                problems += checks.mirror_symmetric(snap.nodes[0], snap.u00)
        return problems
    return check


def _monotone(log):
    return checks.non_increasing(log.energies)


def _bounded(log):
    return checks.energy_bound(log.energies, log.source_integral, log.c_constant)


def _tc1(amplitude: float, sigma: float):
    return lambda log: (checks.non_increasing(log.energies)
                        + checks.terraced(log.times, log.energies)
                        + checks.kinetic_oracle(log.times, log.energies, amplitude, sigma))


def _grows(log):
    return checks.grows_after(log.times, log.energies, 0.3)


def _decays(log):
    return checks.decays(log.energies)


def _mc_initial_check(symmetric: bool):
    def check(result, outdir):
        sc = result.scenario
        injected = checks.initial_u00_mass(sc.initial.to_dict())
        problems = _oracle_artifacts(result, outdir)
        for snap in result.snapshots:
            problems += checks.mass_within(snap.u00, result.grid.bin_volume, injected)
            if symmetric:
                problems += checks.tally_mirror_symmetric(snap.u00, snap.stderr)
        return problems
    return check


def _mc_beam_check(result, outdir):
    sc = result.scenario
    beam = next(spec.inflow.to_dict() for spec in sc.faces.values() if spec.inflow.kind == "beam")
    problems = _oracle_artifacts(result, outdir)
    for snap in result.snapshots:
        t_in = min(snap.time + 0.5 * MC_WINDOW_FRAC * sc.t_end, sc.t_end)
        injected = checks.beam_u00_mass(beam, sc.eps_max, sc.s_rho, t_in)
        problems += checks.mass_within(snap.u00, result.grid.bin_volume, injected)
        problems += checks.tally_mirror_symmetric(snap.u00, snap.stderr)
    return problems


def _mc_free_check(result, outdir):
    sc = result.scenario
    problems = _mc_initial_check(False)(result, outdir)
    window = MC_WINDOW_FRAC * sc.t_end
    for snap in result.snapshots:
        w_eff = min(window, 2.0 * snap.time, 2.0 * (sc.t_end - snap.time))
        exact = checks.free_stream_tally(result.grid.edges[0], snap.time, sc.initial.sigma[0], w_eff)
        problems += checks.tally_matches(snap.u00, snap.stderr, exact)
    return problems


# ---------------------------------------------------------------------------
# workloads


def bundled_1d(seed: int, scenarios: Path) -> Workload:
    rng = np.random.default_rng(seed)
    tc1 = _load(scenarios, "tc1")
    tc1["initial"]["amplitude"] = a1 = _amplitude(rng)
    ops = [Op("tc1", "run", tc1, _run_check(_tc1(a1, tc1["initial"]["sigma"][0])))]
    for name, check in (("tc2_unstable", _grows), ("tc2_stable", _decays)):
        doc = _load(scenarios, name)
        scale = _amplitude(rng)
        for m in doc["initial"]["moments"]:
            m["amp"] *= scale
        ops.append(Op(name, "run", doc, _run_check(check)))
    inflow = _load(scenarios, "tc_inflow_1d")
    inflow["boundaries"]["x_low"]["psi_in"]["amplitude"] *= _amplitude(rng)
    ops.append(Op("tc_inflow_1d", "run", inflow, _run_check(_bounded)))
    return Workload(ops)


def bundled_2d(seed: int, scenarios: Path) -> Workload:
    rng = np.random.default_rng(seed)
    scale = _amplitude(rng)
    ops = []
    for n in (13, 7, 3):
        doc = _load(scenarios, "tc3_vacuum")
        doc["model"]["N"] = n
        doc["initial"]["amplitude"] = scale
        ops.append(Op(f"tc3_N{n}", "run", doc, _run_check(_monotone, symmetric=True)))
    tc4 = _load(scenarios, "tc4_beam")
    tc4["boundaries"]["z_high"]["psi_in"]["amplitude"] *= _amplitude(rng)
    ops.append(Op("tc4_beam", "run", tc4, _run_check(_bounded, symmetric=True)))

    def round_check(results):
        problems = []
        runs = {n: results[f"tc3_N{n}"][0] for n in (13, 7, 3)}
        for i, snap in enumerate(runs[13].snapshots):
            ix = int(np.argmin(np.abs(snap.nodes[0])))
            problems += checks.order_ordering(
                runs[3].snapshots[i].u00[ix], runs[7].snapshots[i].u00[ix], snap.u00[ix])
        return problems

    return Workload(ops, round_check)


def mc_oracle(seed: int, scenarios: Path) -> Workload:
    seeds = [int(s) for s in np.random.default_rng(seed).integers(0, 2**31, size=3)]
    ops = [
        Op("tc3_mc", "oracle", _load(scenarios, "tc3_vacuum"), _mc_initial_check(True), seeds[0]),
        Op("tc4_mc", "oracle", _load(scenarios, "tc4_beam"), _mc_beam_check, seeds[1]),
        Op("free_mc", "oracle", copy.deepcopy(FREE_STREAM), _mc_free_check, seeds[2]),
        Op("free_mc_repeat", "oracle", copy.deepcopy(FREE_STREAM), _mc_free_check, seeds[2]),
    ]

    def round_check(results):
        first, again = results["free_mc"], results["free_mc_repeat"]
        same = all(np.array_equal(a.u00, b.u00) and np.array_equal(a.stderr, b.stderr)
                   for a, b in zip(first.snapshots, again.snapshots))
        return [] if same else ["a repeated seed does not give bit-identical tallies"]

    return Workload(ops, round_check)


def _load(scenarios: Path, name: str) -> dict:
    with open(scenarios / f"{name}.json") as fh:
        return json.load(fh)


WORKLOADS = {
    "bundled_1d": bundled_1d,
    "bundled_2d": bundled_2d,
    "mc_oracle": mc_oracle,
}
