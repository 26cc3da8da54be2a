import dataclasses
import json
import logging
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import bundled_doc
from pnsat import exact
from pnsat import mc as mc_module
from pnsat.cli import main
from pnsat.config import scenario_from_dict
from pnsat.errors import NumericalError, ValidationError
from pnsat.mc import TallyGrid, simulate
from pnsat.moments import ScatteringSpectrum, dump_moment_table

SQRT_FOUR_PI = math.sqrt(4.0 * math.pi)


def free_streaming_1d(cells=50, t_end=0.8, snaps=(0.4, 0.8)):
    return scenario_from_dict({
        "name": "mc_free",
        "model": {"N": 13, "scattering": {"kind": "none"}, "stopping": {"mode": "time"}},
        "domain": {"axes": ["x"], "extents": [[-1.0, 1.0]], "cells": [cells]},
        "boundaries": {
            "x_low": {"type": "onsager", "alpha": 1.0, "psi_in": {"kind": "none"}},
            "x_high": {"type": "onsager", "alpha": 1.0, "psi_in": {"kind": "none"}},
        },
        "initial": {"kind": "gaussian_bulk", "mu": [0.0], "sigma": [0.2],
                    "normalize": "pdf", "direction": {"kind": "isotropic"}},
        "integration": {"cfl": 0.5, "t_end": t_end},
        "outputs": {"snapshot_times": list(snaps)},
    })


def scattering_1d(scattering: dict, n=13):
    doc = free_streaming_1d().to_dict()
    doc["model"]["N"] = n
    doc["model"]["scattering"] = scattering
    return scenario_from_dict(doc)


def u00_free_streaming(sc, edges) -> np.ndarray:
    """Free-streaming u00 of the sigma = 0.2 pulse, averaged as the tally estimates it.

    Each snapshot averages the bin values (:func:`pnsat.exact.u00_bins`) over
    the estimator's record times and weights (``mc._record_times``).
    Returns shape (snapshots, bins).
    """
    out = np.zeros((len(sc.snapshot_times), edges.size - 1))
    for t, si, weight in zip(*mc_module._record_times(sc)):
        out[si] += weight * exact.u00_bins(edges, t, 0.2)
    return out


class TestTallyGrid:
    def test_centers_match_interior_even_nodes(self):
        sc = free_streaming_1d(cells=10)
        grid = TallyGrid.from_scenario(sc)
        from pnsat.sbp import StaggeredGrid1d

        g = StaggeredGrid1d(-1.0, 1.0, 10)
        np.testing.assert_allclose(grid.centers[0], g.x_even[1:-1], atol=1e-14)

    def test_bin_volume(self):
        sc = free_streaming_1d(cells=50)
        assert TallyGrid.from_scenario(sc).bin_volume == pytest.approx(0.04)

    @pytest.mark.parametrize(
        "extents, cells",
        [
            ([(-1.0, 1.0)], [50]),
            ([(0.0, 1.0), (-0.3, 0.7)], [7, 13]),
            ([(-2.0, 3.0), (0.1, 0.4), (-1.0, 1.0)], [5, 9, 4]),
        ],
    )
    def test_deposit_bit_identical_to_histogramdd(self, extents, cells):
        grid = TallyGrid(tuple(np.linspace(lo, hi, c + 1) for (lo, hi), c in zip(extents, cells)))
        rng = np.random.default_rng(11)
        # every edge (interior, lo, hi), the neighbours of each, and points beyond both ends
        special = []
        for e in grid.edges:
            width = e[-1] - e[0]
            vals = np.concatenate([
                e, np.nextafter(e, -np.inf), np.nextafter(e, np.inf),
                [e[0] - 0.5 * width, e[-1] + 0.5 * width],
            ])
            special.append(vals)
        n_special = max(v.size for v in special)
        cols = [rng.permutation(np.resize(v, n_special)) for v in special]
        edge_pts = np.stack(cols, axis=1)
        # points whose every coordinate sits exactly on an edge
        on_edges = np.stack([rng.choice(e, 400) for e in grid.edges], axis=1)
        lo = np.array([e[0] for e in grid.edges])
        hi = np.array([e[-1] for e in grid.edges])
        span = hi - lo
        rand = lo + rng.uniform(-0.1, 1.1, (5000, len(cells))) * span
        pos = np.concatenate([edge_pts, on_edges, rand])
        pos = pos[rng.permutation(pos.shape[0])]
        weights = rng.lognormal(0.0, 2.0, pos.shape[0])
        want = np.full(grid.shape, 0.125)
        hist, _ = np.histogramdd(pos, bins=grid.edges, weights=weights)
        want += hist
        got = np.full(grid.shape, 0.125)
        grid.deposit(got, pos, weights)
        assert np.array_equal(got, want)
        empty = np.zeros(grid.shape)
        grid.deposit(empty, pos[:0], weights[:0])
        assert not empty.any()


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        sc = free_streaming_1d()
        a = simulate(sc, 20_000, seed=7)
        b = simulate(sc, 20_000, seed=7)
        for sa, sb in zip(a.snapshots, b.snapshots):
            np.testing.assert_array_equal(sa.u00, sb.u00)

    def test_different_seeds_differ(self):
        sc = free_streaming_1d()
        a = simulate(sc, 20_000, seed=7)
        b = simulate(sc, 20_000, seed=8)
        assert any(not np.array_equal(sa.u00, sb.u00) for sa, sb in zip(a.snapshots, b.snapshots))


def _table_1d(tmp_path):
    path = tmp_path / "hg.table"
    dump_moment_table(ScatteringSpectrum.henyey_greenstein(1.5, 0.4, 8, sigma_t=2.0), path)
    return scattering_1d({"kind": "table", "path": str(path)}, n=8)


PARALLEL_CASES = {
    "tc3": lambda tmp_path: scenario_from_dict(bundled_doc("tc3_vacuum")),
    "tc4": lambda tmp_path: scenario_from_dict(bundled_doc("tc4_beam")),
    "hg_1d": lambda tmp_path: scattering_1d(
        {"kind": "henyey_greenstein", "sigma_s": 2.0, "g": 0.6, "sigma_t": 2.5}),
    "table_1d": _table_1d,
}


def _fail_first_then_sleep(task):
    """A batch stand-in: task 0 fails at once, every other task takes 2 s."""
    if task == 0:
        raise NumericalError("batch 0 failed")
    time.sleep(2.0)
    return task


class TestParallelBatches:
    """The pooled batches give the in-process result bit for bit."""

    @pytest.mark.parametrize("case", sorted(PARALLEL_CASES))
    def test_worker_count_does_not_change_tallies(self, case, tmp_path, monkeypatch):
        sc = PARALLEL_CASES[case](tmp_path)
        results = {}
        for workers in (1, 2):
            monkeypatch.setattr(mc_module, "_workers", lambda n_batches, w=workers: w)
            results[workers] = simulate(sc, 20_003, seed=17)
            assert results[workers].meta["workers"] == workers
            assert multiprocessing.active_children() == []
        for one, two in zip(results[1].snapshots, results[2].snapshots):
            assert one.u00.any()
            assert np.array_equal(one.u00, two.u00)
            assert np.array_equal(one.stderr, two.stderr)

    def test_worker_error_raises_before_later_batches_finish(self):
        # the pool used to collect every batch before it re-raised: 4 tasks on 2 workers
        # took about 4 s; the failure of task 0 now ends the pool at once
        t0 = time.perf_counter()
        with pytest.raises(NumericalError, match="batch 0 failed"):
            mc_module._run_batches(_fail_first_then_sleep, [0, 1, 2, 3], 2)
        assert time.perf_counter() - t0 < 3.0
        assert multiprocessing.active_children() == []

    def test_default_worker_count(self):
        cores = len(os.sched_getaffinity(0))
        assert mc_module._workers(16) == min(16, cores)
        assert mc_module._workers(1) == 1

    def test_workers_recorded_and_logged(self, tmp_path, monkeypatch, caplog):
        monkeypatch.setattr(mc_module, "_workers", lambda n_batches: 2)
        cfg = tmp_path / "free.json"
        cfg.write_text(json.dumps(free_streaming_1d().to_dict()))
        with caplog.at_level(logging.DEBUG, logger="pnsat.mc"):
            assert main(["oracle", str(cfg), "--n", "5000", "-o", str(tmp_path / "mc")]) == 0
        meta = json.loads((tmp_path / "mc" / "mc_metadata.json").read_text())
        assert meta["workers"] == 2 and meta["n_batches"] == 16
        # vacuum: one flight per particle
        assert meta["flights"] == 5000 and meta["deposits"] > 0
        records = [r for r in caplog.records if r.name == "pnsat.mc"]
        assert len(records) == 1 and records[0].levelno == logging.DEBUG
        assert "16 batches on 2 workers" in records[0].getMessage()
        assert f"{meta['flights']} flights, {meta['deposits']} deposits" in records[0].getMessage()
        # the reaped workers' page faults and system time
        kernel = meta["kernel"]
        assert set(kernel) == {"minor_faults", "system_s"}
        assert isinstance(kernel["minor_faults"], int) and kernel["minor_faults"] >= 0
        assert isinstance(kernel["system_s"], float) and kernel["system_s"] >= 0.0
        assert f"{kernel['minor_faults']} minor faults, {kernel['system_s']:.3f} s system" in records[0].getMessage()

    def test_seconds_recorded_and_logged(self, tmp_path, caplog):
        cfg = tmp_path / "free.json"
        cfg.write_text(json.dumps(free_streaming_1d().to_dict()))
        with caplog.at_level(logging.DEBUG, logger="pnsat.mc"):
            assert main(["oracle", str(cfg), "--n", "5000", "-o", str(tmp_path / "mc")]) == 0
        seconds = json.loads((tmp_path / "mc" / "mc_metadata.json").read_text())["seconds"]
        assert set(seconds) == {"batches", "pool"}
        assert seconds["batches"] > 0.0 and seconds["pool"] > 0.0
        [record] = [r for r in caplog.records if r.name == "pnsat.mc"]
        msg = record.getMessage()
        assert f"batches {seconds['batches']:.3f} s, pool {seconds['pool']:.3f} s" in msg

    @pytest.mark.parametrize("case", ["tc4", "hg_1d"])
    def test_worker_count_does_not_change_counts(self, case, tmp_path, monkeypatch):
        sc = PARALLEL_CASES[case](tmp_path)
        counts = {}
        for workers in (1, 2):
            monkeypatch.setattr(mc_module, "_workers", lambda n_batches, w=workers: w)
            meta = simulate(sc, 20_003, seed=17).meta
            counts[workers] = (meta["flights"], meta["deposits"])
        # scatterers fly again after each collision
        assert counts[1][0] > 20_003 and counts[1][1] > 0
        assert counts[1] == counts[2]


class TestWorkerHeap:
    """Pool workers keep their freed heap; this process's allocator is never changed."""

    def test_in_process_run_skips_the_hook(self, monkeypatch):
        def refuse():
            raise AssertionError("allocator changed in this process")

        monkeypatch.setattr(mc_module, "_keep_heap", refuse)
        monkeypatch.setattr(mc_module, "_workers", lambda n_batches: 1)
        assert simulate(free_streaming_1d(), 5000, seed=3).meta["workers"] == 1

    def test_hook_runs_once_in_each_worker(self, tmp_path, monkeypatch):
        def record_pid():
            (tmp_path / str(os.getpid())).touch(exist_ok=False)

        monkeypatch.setattr(mc_module, "_keep_heap", record_pid)
        monkeypatch.setattr(mc_module, "_workers", lambda n_batches: 2)
        simulate(free_streaming_1d(), 5000, seed=3)
        pids = {int(p.name) for p in tmp_path.iterdir()}
        assert len(pids) == 2 and os.getpid() not in pids

    @pytest.mark.parametrize("libc", ["missing", "no_mallopt"])
    def test_hook_returns_without_mallopt(self, monkeypatch, libc):
        def cdll(name):
            if libc == "missing":
                raise OSError("no libc")
            return object()

        monkeypatch.setattr(mc_module.ctypes, "CDLL", cdll)
        assert mc_module._keep_heap() is None


class Distances:
    """A stand-in generator: ``exponential`` hands out the given path lengths; any other draw fails."""

    def __init__(self, *lengths):
        self.lengths = list(lengths)

    def exponential(self, scale, n):
        out, self.lengths = np.array(self.lengths[:n], dtype=float), self.lengths[n:]
        return out


def fly(sc, x, u, birth, times, rng=None):
    """Advance hand-built particles (rows of x, directions u) with one snapshot per record time.

    Returns the per-record tallies (in weight units) and the (flights, deposits) counts.
    """
    grid = TallyGrid.from_scenario(sc)
    acc = [np.zeros(grid.shape) for _ in times]
    rng = np.random.default_rng(0) if rng is None else rng
    state = rng.bit_generator.state if hasattr(rng, "bit_generator") else None
    counts = mc_module._advance_batch(
        sc, grid, np.array(x, dtype=float), np.array(u, dtype=float), np.array(birth, dtype=float),
        1.0, rng, (list(times), list(range(len(times))), [1.0] * len(times), acc))
    if state is not None:
        assert rng.bit_generator.state == state  # no scattering, no draw
    return acc, counts


def bin_of(sc, x):
    """The 1-D tally bin that holds x."""
    edges = TallyGrid.from_scenario(sc).edges[0]
    return int(np.searchsorted(edges, x, side="right")) - 1


def direct_tally(sc, pos, dirs, birth, weight, record, absorbed=None):
    """Straight-line tallies: p0 + d (t_r - birth) for each particle born by t_r and still inside.

    ``absorbed`` optionally gives the time each particle is absorbed (tallied up to and at it).
    Returns the (n_snapshots, *bins) tally and the number of deposited points.
    """
    grid = TallyGrid.from_scenario(sc)
    tally = np.zeros((len(sc.snapshot_times),) + grid.shape)
    comp = [ax - 1 for ax in sc.axes]
    lo = np.array([e[0] for e in sc.extents])
    hi = np.array([e[1] for e in sc.extents])
    deposits = 0
    for t_r, snap, scale in zip(*record):
        keep = birth - 1e-15 <= t_r
        if absorbed is not None:
            keep &= t_r <= absorbed
        p = pos[keep] + dirs[keep][:, comp] * (t_r - birth[keep])[:, None]
        p = p[np.all((p > lo) & (p < hi), axis=1)]
        grid.deposit(tally[snap], p, np.full(p.shape[0], weight * scale))
        deposits += p.shape[0]
    return tally, deposits


class TestEventSemantics:
    """One flight per particle between events; deposits at the record times each flight covers."""

    def test_exit_exactly_at_a_record_time_is_not_tallied(self):
        sc = free_streaming_1d()  # vacuum on [-1, 1]: no collision, no draw
        # leaves x = 1 at t = 0.5 exactly, and just after
        acc, counts = fly(sc, [[0.5]], [[1.0, 0.0, 0.0]], [0.0], [0.25, 0.5])
        assert acc[0][bin_of(sc, 0.75)] == 1.0 and acc[0].sum() == 1.0
        assert not acc[1].any()
        assert counts == (1, 1)
        acc, counts = fly(sc, [[0.5 - 2.0**-20]], [[1.0, 0.0, 0.0]], [0.0], [0.25, 0.5])
        assert acc[1][-1] == 1.0 and counts == (1, 2)

    def test_birth_exactly_at_a_record_time_is_tallied(self):
        sc = free_streaming_1d()
        times = [0.2, 0.4, 0.6]
        for birth, tallied in ((0.4, [0, 1, 1]), (0.4 + 5e-16, [0, 1, 1]), (0.4 + 1e-14, [0, 0, 1])):
            acc, counts = fly(sc, [[0.0]], [[1.0, 0.0, 0.0]], [birth], times)
            assert [a.sum() for a in acc] == tallied
            assert counts == (1, sum(tallied))
        acc, _ = fly(sc, [[0.0]], [[1.0, 0.0, 0.0]], [0.4], times)
        assert acc[1][bin_of(sc, 0.0)] == 1.0 and acc[2][bin_of(sc, 0.2)] == 1.0

    def test_nothing_advances_past_the_last_record_time(self):
        sc = free_streaming_1d()
        # born after the last record time: one flight of length zero, no deposit
        acc, counts = fly(sc, [[0.0]], [[1.0, 0.0, 0.0]], [0.5], [0.2, 0.4])
        assert not any(a.any() for a in acc) and counts == (1, 0)
        # a scatterer whose first collision lies at or after the last record time never
        # scatters: the stand-in generator has no deflection draws to give
        sc = scattering_1d({"kind": "isotropic", "sigma_s": 1.0})
        for s_coll in (0.5, 0.4):
            acc, counts = fly(sc, [[-0.5]], [[1.0, 0.0, 0.0]], [0.0], [0.2, 0.4], Distances(s_coll))
            assert acc[0][bin_of(sc, -0.3)] == 1.0 and acc[1][bin_of(sc, -0.1)] == 1.0
            assert counts == (1, 2)

    def test_pure_absorber_stops_at_its_first_collision(self):
        sc = scattering_1d({"kind": "isotropic", "sigma_s": 0.0, "sigma_t": 2.0})
        # collides at t = 0.3 (exactly on a record time, where it is still tallied)
        acc, counts = fly(sc, [[0.0]], [[1.0, 0.0, 0.0]], [0.0], [0.2, 0.3, 0.4], Distances(0.3))
        assert [a.sum() for a in acc] == [1.0, 1.0, 0.0]
        assert counts == (1, 2)

    def test_collision_on_a_duplicated_record_time_is_tallied_at_both(self):
        sc = scattering_1d({"kind": "isotropic", "sigma_s": 0.0, "sigma_t": 2.0})
        acc, counts = fly(sc, [[0.0]], [[1.0, 0.0, 0.0]], [0.0], [0.2, 0.3, 0.3, 0.4], Distances(0.3))
        assert [a.sum() for a in acc] == [1.0, 1.0, 1.0, 0.0]
        assert acc[1][bin_of(sc, 0.3)] == acc[2][bin_of(sc, 0.3)] == 1.0
        assert counts == (1, 3)

    def test_pure_absorber_matches_a_direct_computation(self):
        sc = scattering_1d({"kind": "isotropic", "sigma_s": 0.0, "sigma_t": 2.0})
        record = mc_module._record_times(sc)
        child = np.random.SeedSequence(9).spawn(1)[0]
        rng = np.random.default_rng(child)
        pos, dirs, birth, weight = mc_module._sample_initial(sc, 20_000, rng)
        t_coll = birth + rng.exponential(0.5, birth.size)
        want, deposits = direct_tally(sc, pos, dirs, birth, weight, record, absorbed=t_coll)
        grid = TallyGrid.from_scenario(sc)
        got, flights, got_deposits = mc_module._run_batch(
            sc, grid, mc_module._sample_initial, record, (child, 20_000))
        assert np.array_equal(got, want)
        assert (flights, got_deposits) == (20_000, deposits)

    @pytest.mark.parametrize("case", ["free_1d", "tc3", "tc4"])
    def test_vacuum_tally_matches_a_direct_computation(self, case):
        if case == "free_1d":
            sc = free_streaming_1d()
        else:
            doc = bundled_doc({"tc3": "tc3_vacuum", "tc4": "tc4_beam"}[case])
            doc["model"]["scattering"] = {"kind": "none"}
            sc = scenario_from_dict(doc)
        record = mc_module._record_times(sc)
        child = np.random.SeedSequence(21).spawn(3)[2]
        sample = mc_module._source_sampler(sc)
        assert (sample is mc_module._sample_initial) == (case != "tc4")
        pos, dirs, birth, weight = sample(sc, 20_000, np.random.default_rng(child))
        want, deposits = direct_tally(sc, pos, dirs, birth, weight, record)
        grid = TallyGrid.from_scenario(sc)
        got, flights, got_deposits = mc_module._run_batch(sc, grid, sample, record, (child, 20_000))
        assert want.any() and np.array_equal(got, want)
        assert (flights, got_deposits) == (20_000, deposits)


def rotate_with_cross(u, mu_s, chi):
    """Reference deflection on (n, 3) rows: helper frame e1 = ref x u, e2 = u x e1 by np.cross."""
    w = np.stack(u, axis=1)
    ref = np.zeros_like(w)
    use_z = np.abs(w[:, 2]) < 0.9
    ref[use_z, 2] = 1.0
    ref[~use_z, 0] = 1.0
    e1 = np.cross(ref, w)
    e1 /= np.linalg.norm(e1, axis=1)[:, None]
    e2 = np.cross(w, e1)
    s = np.sqrt(np.maximum(0.0, 1.0 - mu_s * mu_s))
    out = mu_s[:, None] * w + (s * np.cos(chi))[:, None] * e1 + (s * np.sin(chi))[:, None] * e2
    out /= np.linalg.norm(out, axis=1)[:, None]
    return out


class TestRotate:
    def test_bit_identical_to_the_cross_product_form(self):
        rng = np.random.default_rng(4)
        v = rng.normal(size=(40_000, 3))
        v[::2, 2] *= 4.0  # more rows with |u_z| >= 0.9
        v /= np.linalg.norm(v, axis=1)[:, None]
        # the poles, the equator and the frame threshold |u_z| = 0.9 itself
        v[:6] = [[0, 0, 1], [0, 0, -1], [1, 0, 0], [0, -1, 0],
                 [math.sqrt(1 - 0.81), 0, 0.9], [0, math.sqrt(1 - 0.81), -0.9]]
        mu_s = rng.uniform(-1.0, 1.0, v.shape[0])
        mu_s[6:10] = [1.0, -1.0, 0.0, 1.0]
        chi = rng.uniform(0.0, 2.0 * math.pi, v.shape[0])
        u = [np.ascontiguousarray(v[:, c]) for c in range(3)]
        use_z = np.abs(v[:, 2]) < 0.9
        assert 0.2 < use_z.mean() < 0.8 and not use_z[4] and not use_z[5]
        got = mc_module._rotate(u, mu_s, chi)
        want = rotate_with_cross(u, mu_s, chi)
        for c in range(3):
            assert np.array_equal(got[c], want[:, c])
        length = np.sqrt(got[0] * got[0] + got[1] * got[1] + got[2] * got[2])
        assert np.max(np.abs(length - 1.0)) <= 2.0 * np.finfo(float).eps


class TestAgainstKineticSolution:
    def test_free_streaming_within_family_wise_bound(self):
        # 16-batch standard errors are t-distributed with 15 degrees of freedom:
        # 5.3 of them bound all 100 (bin, snapshot) pairs at about 1% family-wise
        # (the t_15 quantile at 1 - 0.01/200 is 5.24).  A tally 5% too large or
        # one bin off breaks the bound by far.
        sc = free_streaming_1d()
        mc = simulate(sc, 1_000_000, seed=42)
        for snap, want in zip(mc.snapshots, u00_free_streaming(sc, mc.grid.edges[0]), strict=True):
            assert np.all(np.abs(snap.u00 - want) <= 5.3 * snap.stderr)
            assert not np.all(np.abs(1.05 * snap.u00 - want) <= 5.3 * 1.05 * snap.stderr)
            assert not np.all(np.abs(snap.u00[1:] - want[:-1]) <= 5.3 * snap.stderr[1:])

    def test_bulk_tail_outside_the_domain_is_not_sampled(self):
        # a Gaussian centred near x_high: its tail beyond the box is no initial data, so
        # u00 is the moving-window average of the pdf restricted to [-1, 1]
        doc = free_streaming_1d(snaps=(0.5,), t_end=0.5).to_dict()
        doc["initial"].update(mu=[0.9], sigma=[0.3])
        mc = simulate(scenario_from_dict(doc), 400_000, seed=7)
        snap = mc.snapshots[0]
        want = exact.u00(mc.centers[0], 0.5, 0.3, mu=0.9)
        # 16-batch standard errors are t-distributed with 15 degrees of freedom: 5 of them
        # bound all 50 bins at about 1% family-wise.  The 1e-4 floor covers the far-left
        # bins, where the exact value is below 1e-4 and no particle arrives.  Sampling the
        # whole Gaussian puts the bins near x = 1 about 40 standard errors too high.
        assert np.all(np.abs(snap.u00 - want) <= 5.0 * snap.stderr + 1e-4)

    def test_variance_scales_inversely_with_n(self):
        sc = free_streaming_1d()
        ns = [20_000, 40_000, 80_000, 160_000, 320_000]
        variances = [float(np.mean(simulate(sc, n, seed=3).snapshots[0].stderr ** 2)) for n in ns]
        slope = np.polyfit(np.log(ns), np.log(variances), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.15)


class TestConservation:
    def test_pure_scattering_conserves_mass(self):
        # big domain: nothing escapes before t_end; isotropic conservative kernel
        sc = scenario_from_dict({
            "name": "mc_cons",
            "model": {"N": 3, "scattering": {"kind": "isotropic", "sigma_s": 2.0},
                      "stopping": {"mode": "time"}},
            "domain": {"axes": ["x"], "extents": [[-4.0, 4.0]], "cells": [40]},
            "boundaries": {
                "x_low": {"type": "onsager", "alpha": 1.0, "psi_in": {"kind": "none"}},
                "x_high": {"type": "onsager", "alpha": 1.0, "psi_in": {"kind": "none"}},
            },
            "initial": {"kind": "gaussian_bulk", "mu": [0.0], "sigma": [0.2],
                        "normalize": "pdf", "direction": {"kind": "isotropic"}},
            "integration": {"cfl": 0.5, "t_end": 1.0},
            "outputs": {"snapshot_times": [0.5, 1.0]},
        })
        mc = simulate(sc, 200_000, seed=5)
        bin_w = 8.0 / 40
        # integral of u00 equals 1 for the pdf-normalized initial bulk
        for snap in mc.snapshots:
            mass = snap.u00.sum() * bin_w
            stderr = math.sqrt(float(np.sum(snap.stderr**2))) * bin_w
            assert mass == pytest.approx(1.0, abs=max(4 * stderr, 1e-3))


class TestSamplers:
    def test_affine_direction_moments(self):
        # a + b*mu sampling: first moment of mu is b/(3a) * ... E[mu] = b/(3a)
        sc = scenario_from_dict({
            "name": "mc_affine",
            "model": {"N": 1, "scattering": {"kind": "none"}, "stopping": {"mode": "time"}},
            "domain": {"axes": ["x"], "extents": [[-4.0, 4.0]], "cells": [8]},
            "boundaries": {
                "x_low": {"type": "onsager", "alpha": 1.0, "psi_in": {"kind": "none"}},
                "x_high": {"type": "onsager", "alpha": 1.0, "psi_in": {"kind": "none"}},
            },
            "initial": {"kind": "gaussian_bulk", "mu": [0.0], "sigma": [0.3],
                        "normalize": "peak", "direction": {"kind": "affine_mu", "a": 0.1, "b": 0.1}},
            "integration": {"cfl": 0.5, "t_end": 0.1},
            "outputs": {"snapshot_times": [0.05]},
        })
        from pnsat.mc import _sample_initial

        rng = np.random.default_rng(0)
        pos, dirs, birth, w = _sample_initial(sc, 200_000, rng)
        # E[mu] for pdf (a + b mu)/(2a): integral mu(a+b mu)/(2a) = b/(3a)
        assert dirs[:, 2].mean() == pytest.approx(0.1 / (3 * 0.1), abs=0.01)
        assert np.abs(np.linalg.norm(dirs, axis=1) - 1.0).max() < 1e-12
        # total mass: 4 pi a times the spatial integral of the peak-one Gaussian
        want = 4.0 * math.pi * 0.1 * (0.3 * math.sqrt(2.0 * math.pi))
        assert w * 200_000 == pytest.approx(want, rel=1e-12)

    def test_hg_deflection_mean(self):
        rng = np.random.default_rng(1)
        g = 0.6
        spec = ScatteringSpectrum.henyey_greenstein(1.0, g, 8)
        mu = mc_module._sample_deflection(spec, 400_000, rng)
        assert mu.mean() == pytest.approx(g, abs=0.005)
        assert np.all(np.abs(mu) <= 1.0 + 1e-12)

    def test_table_kernel_rejection(self):
        rng = np.random.default_rng(2)
        g = 0.4
        spec = ScatteringSpectrum(1.0, ScatteringSpectrum.henyey_greenstein(1.0, g, 16).moments)  # a table
        mu = mc_module._sample_deflection(spec, 200_000, rng)
        assert mu.mean() == pytest.approx(g, abs=0.01)

    def test_unsampleable_kernel_raises(self):
        rng = np.random.default_rng(3)
        spec = ScatteringSpectrum(1.0, np.array([1.0, 0.0, 1.0]))  # a table, negative at c = 0
        with pytest.raises(NumericalError, match="not sampleable"):
            mc_module._sample_deflection(spec, 10, rng)

    def test_oracle_samples_the_spectrum_the_solver_reads(self):
        # scattering_dict is only the document's echo: editing it changes no tally
        sc = scattering_1d({"kind": "henyey_greenstein", "sigma_s": 2.0, "g": 0.6, "sigma_t": 2.5})
        edited = dataclasses.replace(sc, scattering_dict={"kind": "isotropic", "sigma_s": 2.0})
        a, b = simulate(sc, 20_000, seed=5), simulate(edited, 20_000, seed=5)
        for sa, sb in zip(a.snapshots, b.snapshots, strict=True):
            np.testing.assert_array_equal(sa.u00, sb.u00)

    @pytest.mark.parametrize("case", ["free_1d", "tc3", "tc4"])
    def test_unread_direction_components_change_nothing(self, case, monkeypatch):
        # without scattering a flight reads only the active axes' components: skipping the
        # others leaves tallies, standard errors and counts bit-identical to computing all three
        if case == "free_1d":
            sc = free_streaming_1d()
        else:
            doc = bundled_doc({"tc3": "tc3_vacuum", "tc4": "tc4_beam"}[case])
            doc["model"]["scattering"] = {"kind": "none"}
            sc = scenario_from_dict(doc)
        read = mc_module._read_components(sc)
        assert read == tuple(ax - 1 for ax in sc.axes) and len(read) < 3
        dirs = mc_module._source_sampler(sc)(sc, 10, np.random.default_rng(0), read)[1]
        # the active axes' components are computed, and the unread azimuthal one is skipped
        assert not np.isnan(dirs[:, read]).any() and np.isnan(dirs).all(axis=0).any()
        got = simulate(sc, 20_000, seed=7)
        monkeypatch.setattr(mc_module, "_read_components", lambda sc: (0, 1, 2))
        full = simulate(sc, 20_000, seed=7)
        for a, b in zip(got.snapshots, full.snapshots, strict=True):
            assert np.array_equal(a.u00, b.u00) and np.array_equal(a.stderr, b.stderr)
        assert (got.meta["flights"], got.meta["deposits"]) == (full.meta["flights"], full.meta["deposits"])
        assert got.meta["deposits"] > 0

    def test_rejects_unsupported_initial(self):
        doc = bundled_doc("tc2_unstable")
        sc = scenario_from_dict(doc)
        with pytest.raises(ValidationError):
            simulate(sc, 1000, seed=0)


class TestSupportedSources:
    """Unsupported sources fail in the caller, before any batch is sampled."""

    @pytest.fixture(autouse=True)
    def no_batches(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("batches started")

        monkeypatch.setattr(mc_module, "_run_batches", refuse)

    def test_bulk_with_inflow_face_rejected(self):
        # an isotropic psi_in face beside bulk data would be dropped from the tally
        doc = bundled_doc("tc_inflow_1d")
        doc["initial"] = {"kind": "gaussian_bulk", "mu": [0.5], "sigma": [0.1]}
        with pytest.raises(ValidationError, match="need every face inflow 'none', got inflow on x_low"):
            simulate(scenario_from_dict(doc), 1000, seed=0)

    def test_beam_with_bulk_initial_rejected(self):
        doc = bundled_doc("tc4_beam")
        doc["initial"] = {"kind": "gaussian_bulk", "mu": [0.0, -90.0], "sigma": [10.0, 10.0]}
        with pytest.raises(ValidationError, match="got inflow on z_high"):
            simulate(scenario_from_dict(doc), 1000, seed=0)

    def test_isotropic_inflow_rejected_before_workers(self):
        sc = scenario_from_dict(bundled_doc("tc_inflow_1d"))
        with pytest.raises(ValidationError, match="only 'beam' inflow, got 'isotropic' on x_low"):
            simulate(sc, 1000, seed=0)
        assert multiprocessing.active_children() == []

    def test_two_beams_rejected(self):
        doc = bundled_doc("tc4_beam")
        doc["boundaries"]["z_low"]["psi_in"] = doc["boundaries"]["z_high"]["psi_in"]
        with pytest.raises(ValidationError, match="exactly one inflow face, got 2"):
            simulate(scenario_from_dict(doc), 1000, seed=0)

    def test_multi_axis_beam_needs_sigma_x(self):
        doc = bundled_doc("tc4_beam")
        del doc["boundaries"]["z_high"]["psi_in"]["sigma_x"]
        with pytest.raises(ValidationError, match="need sigma_x on z_high"):
            simulate(scenario_from_dict(doc), 1000, seed=0)

    @pytest.mark.parametrize("n, seed, message", [
        (1000, -1, "seed must be a non-negative integer, got -1"),
        (1000, 1.5, "seed must be a non-negative integer, got 1.5"),
        (1000, True, "seed must be a non-negative integer, got True"),
        (1000.0, 0, "n_particles must be a non-negative integer, got 1000.0"),
    ], ids=["negative_seed", "float_seed", "bool_seed", "float_count"])
    def test_bad_seed_or_count_rejected(self, n, seed, message):
        sc = scenario_from_dict(bundled_doc("tc1"))
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            simulate(sc, n, seed=seed)

    def test_oracle_negative_seed_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "tc1.json"
        cfg.write_text(json.dumps(bundled_doc("tc1")))
        assert main(["oracle", str(cfg), "--n", "1000", "--seed", "-1", "-o", str(tmp_path / "mc")]) == 1
        assert capsys.readouterr().err == "validation error: seed must be a non-negative integer, got -1\n"
        assert not (tmp_path / "mc").exists()

    def test_oracle_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "inflow.json"
        cfg.write_text(json.dumps(bundled_doc("tc_inflow_1d")))
        assert main(["oracle", str(cfg), "--n", "1000", "-o", str(tmp_path / "mc")]) == 1
        assert "validation error: Monte Carlo supports only 'beam' inflow" in capsys.readouterr().err
        assert not (tmp_path / "mc").exists()


def _session_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


class TestRejectionCap:
    """A source that rejection cannot sample fails in seconds and leaves no worker behind."""

    @pytest.mark.parametrize("key, value, sampler", [
        ("eps_center", 100.0, "beam birth time"),  # every birth time falls outside [0, t_end]
        ("sigma_omega", 1e6, "beam direction"),  # almost every proposal leaves [-1, 0)
    ])
    def test_oracle_exits_2(self, tmp_path, key, value, sampler):
        doc = bundled_doc("tc4_beam")
        doc["boundaries"]["z_high"]["psi_in"][key] = value
        cfg = tmp_path / "beam.json"
        cfg.write_text(json.dumps(doc))
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        # a session of its own, so the oracle and every worker it forks share one process group
        proc = subprocess.Popen(
            [sys.executable, "-m", "pnsat", "oracle", str(cfg), "--n", "20000", "-o", str(tmp_path / "mc")],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            _, err = proc.communicate(timeout=60)
            left = _session_alive(proc.pid)
        finally:
            if _session_alive(proc.pid):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        assert proc.returncode == 2, err
        assert err.startswith(f"numerical failure: Monte Carlo {sampler} sampler accepted ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not left
        assert not (tmp_path / "mc").exists()

    def test_cap_is_a_thousand_proposals_per_draw(self):
        proposed = []

        def propose(m):
            proposed.append(m)
            return np.empty(0)

        with pytest.raises(NumericalError, match="^Monte Carlo probe sampler accepted 0 of "):
            mc_module._accepted(100, propose, "probe")
        assert 1000 * 100 + 10_000 < sum(proposed) <= 1000 * 100 + 10_000 + 216


class TestBeamSource:
    def test_total_injected_mass(self):
        doc = bundled_doc("tc4_beam")
        sc = scenario_from_dict(doc)
        rng = np.random.default_rng(4)
        n = 50_000
        pos, dirs, birth, w = mc_module._source_sampler(sc)(sc, n, rng)
        # oracle: product of 1-d quadratures for the influx integral
        from scipy.integrate import quad

        inflow = sc.faces[(1, "high")].inflow
        time_int = quad(
            lambda tau: math.exp(
                -(((sc.eps_max - sc.s_rho * tau - inflow.eps_center) / (math.sqrt(2) * inflow.sigma_eps)) ** 2)
            ),
            0.0, sc.t_end,
        )[0]
        space_int = quad(
            lambda x: math.exp(-((x / (math.sqrt(2) * inflow.sigma_x)) ** 2)), -np.inf, np.inf
        )[0]
        dir_int = 2 * math.pi * quad(
            lambda mu: abs(mu) * math.exp(-(((mu + 1.0) / (math.sqrt(2) * inflow.sigma_omega)) ** 2)),
            -1.0, 0.0,
        )[0]
        assert w * n == pytest.approx(time_int * space_int * dir_int, rel=1e-3)
        # every sampled particle enters through the face, moving inward
        assert np.all(pos[:, 1] == 0.0)
        assert np.all(dirs[:, 2] < 0.0)
        assert np.all((birth >= 0.0) & (birth <= sc.t_end))
