"""The package API that the benchmark's span hooks (``bench/spans.py``) rely on.

The benchmark wraps the functions and methods listed in ``spans.FUNCTIONS``
and ``spans.METHODS`` and, after each traced solver run, ``spans._run_counts``
reads the run's set-up.  These tests load that file read-only (its source is
compiled, never imported, so nothing is written next to it) and check both,
so that renaming or deleting what it reads fails here rather than in the
benchmark.
"""

import importlib
import types
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from conftest import bundled_doc
from pnsat.config import scenario_from_dict
from pnsat.solver import run

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    module = types.ModuleType("bench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def test_wrapped_functions_and_methods_exist(spans):
    assert spans.FUNCTIONS and spans.METHODS
    for module, attr, _ in spans.FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), attr)), f"{module}.{attr}"
    for module, cls, attr, _ in spans.METHODS:
        assert attr in vars(getattr(importlib.import_module(module), cls)), f"{module}.{cls}.{attr}"


@pytest.mark.parametrize("name, cells", [("tc1", [20]), ("tc3_vacuum", [6, 6])])
def test_run_exposes_what_run_counts_reads(spans, name, cells):
    doc = bundled_doc(name)
    doc["model"].update({"N": 3, "stopping": {"mode": "time"}})
    doc["domain"]["cells"] = cells
    doc["integration"] = {"cfl": 0.5, "t_end": 0.05}
    doc["outputs"] = {"snapshot_times": []}
    result = run(scenario_from_dict(doc))
    setup = result.setup
    dof = 0
    for a in setup.families:
        nodes = int(np.prod(setup.tensor.family_shape(a)))
        assert isinstance(setup.comps[a].size, int)
        dof += nodes * setup.comps[a].size
        for d in range(setup.tensor.ndim):
            assert len(setup.a_blocks[(a, d)].shape) == 2
    counts = defaultdict(float)
    spans._run_counts(counts, (), result)
    assert counts["solver.steps"] == result.metadata["steps"] > 0
    assert counts["solver.dof"] == dof > 0
    assert counts["solver.coupling_flops"] > 0
