"""``pnsat.exact`` against the benchmark's own closed forms.

``bench/checks.py`` writes the free-streaming solution out independently of
pnsat; it is loaded here by path, as the benchmark runs it.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from pnsat import exact

_SPEC = importlib.util.spec_from_file_location(
    "bench_checks", Path(__file__).resolve().parents[1] / "bench" / "checks.py")
bench_checks = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_checks)


def test_energy_fraction_matches_the_benchmark_oracle():
    t = np.linspace(0.0, 15.0, 601)
    got = exact.energy_fraction(t, 0.2, 13)
    # one ulp of 1: the benchmark sums the packet pairs, exact every node at half weight
    assert np.abs(got - bench_checks.free_stream_energy_fraction(t, 0.2)).max() <= np.finfo(float).eps


@pytest.mark.parametrize("t", [0.4, 0.8, 2.0])
def test_bin_averages_match_the_benchmark_tally(t):
    # the benchmark's pulse is not clipped to [-1, 1]: the two differ by the
    # initial mass beyond the faces, 5.7e-7 of the maximum at t = 2
    edges = np.linspace(-1.0, 1.0, 51)
    want = bench_checks.free_stream_tally(edges, t, 0.2, 0.0)
    assert np.abs(exact.u00_bins(edges, t, 0.2) - want).max() <= 1e-6 * np.abs(want).max()
