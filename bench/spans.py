"""Timing hooks that wrap pnsat's public functions from outside the package.

``Tracer`` records one span (name, start, end, parent) per call of a wrapped
function, keeps them in memory and derives self times and counters for the
per-layer metrics.  ``SetupClock`` is the only hook of an untraced run: it
notes when a solver run reaches its first energy evaluation (right before
the first time step) or when a Monte Carlo run has built its tally grid
(right before the first particle batch).  Both patch every binding of a
function across the loaded ``pnsat`` modules and restore them on exit.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

# (module, attribute, span name): module-level functions
FUNCTIONS = [
    ("pnsat.config", "load_scenario", "config.load"),
    ("pnsat.sphharm", "build_quadrature", "sphharm.quadrature"),
    ("pnsat.sphharm", "eval_basis", "sphharm.eval_basis"),
    ("pnsat.moments", "assemble_transport", "moments.assemble"),
    ("pnsat.moments", "scattering_diagonal", "moments.assemble"),
    ("pnsat.boundary", "onsager_L", "boundary.assemble"),
    ("pnsat.boundary", "marshak_matrix", "boundary.assemble"),
    ("pnsat.boundary", "boundary_source", "boundary.inflow_projection"),
    ("pnsat.sbp", "build_sbp_pair", "sbp.build"),
    ("pnsat.sbp", "sat_penalties", "sbp.penalty"),
    ("pnsat.solver", "run", "solver.run"),
    ("pnsat.solver", "build_setup", "solver.setup"),
    ("pnsat.solver", "initial_state", "solver.initial_state"),
    ("pnsat.solver", "energy", "solver.energy"),
    ("pnsat.solver", "face_source_norm_sq", "solver.source_norm"),
    ("pnsat.io", "write_run", "io.write"),
    ("pnsat.io", "write_mc", "io.write"),
    ("pnsat.mc", "simulate", "mc.simulate"),
]
# (module, class, attribute, span name): methods and classmethods
METHODS = [
    ("pnsat.moments", "MomentBasis", "build", "moments.assemble"),
    ("pnsat.mc", "TallyGrid", "deposit", "mc.deposit"),
]


class Patches:
    """Replace objects in pnsat modules and classes; ``restore`` undoes it."""

    def __init__(self):
        self._undo = []

    def function(self, module: str, name: str, make):
        old = getattr(sys.modules[module], name)
        new = make(old)
        for modname, mod in list(sys.modules.items()):
            if modname == "pnsat" or modname.startswith("pnsat."):
                for attr, val in list(vars(mod).items()):
                    if val is old:
                        self._undo.append((mod, attr, old))
                        setattr(mod, attr, new)

    def method(self, module: str, cls_name: str, name: str, make):
        cls = getattr(sys.modules[module], cls_name)
        old = cls.__dict__[name]
        if isinstance(old, classmethod):
            new = classmethod(make(old.__func__))
        else:
            new = make(old)
        self._undo.append((cls, name, old))
        setattr(cls, name, new)

    def restore(self):
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()


# ---------------------------------------------------------------------------
# untraced runs


class SetupDone(Exception):
    """Raised by a probing SetupClock to stop a run once set-up is over."""


class SetupClock:
    """Marks the end of set-up: first solver energy call, or tally grid built."""

    def __init__(self):
        self.first: float | None = None
        self.probe = False

    def reset(self, probe: bool = False):
        self.first = None
        self.probe = probe

    def _mark(self):
        if self.first is None:
            self.first = time.perf_counter()
            if self.probe:
                raise SetupDone

    @contextmanager
    def installed(self):
        patches = Patches()

        def before(fn):
            @functools.wraps(fn)
            def hooked(*args, **kwargs):
                self._mark()
                return fn(*args, **kwargs)
            return hooked

        def after(fn):
            @functools.wraps(fn)
            def hooked(*args, **kwargs):
                out = fn(*args, **kwargs)
                self._mark()
                return out
            return hooked

        try:
            patches.function("pnsat.solver", "energy", before)
            patches.method("pnsat.mc", "TallyGrid", "from_scenario", after)
            yield self
        finally:
            patches.restore()


# ---------------------------------------------------------------------------
# traced runs


def _run_counts(counts, args, result):
    setup = result.setup
    steps = result.metadata["steps"]
    dof = 0
    flops = 0
    for a in setup.families:
        nodes = 1
        for n in setup.tensor.family_shape(a):
            nodes *= n
        dof += nodes * setup.comps[a].size
        for d in range(setup.tensor.ndim):
            m_c, m_a = setup.a_blocks[(a, d)].shape
            flops += 2 * nodes * m_c * m_a
    counts["solver.steps"] += steps
    counts["solver.dof"] += dof
    counts["solver.dof_steps"] += dof * steps
    counts["solver.coupling_flops"] += 4 * steps * flops  # four RK4 stages per step


def _cells(counts, args, out):
    counts["sbp.cells_built"] += args[0].n_cells


def _bytes(counts, args, out):
    counts["io.bytes_written"] += sum(p.stat().st_size for p in Path(args[1]).iterdir())


def _particles(counts, args, out):
    counts["mc.particles"] += out.n_particles


# counters updated after a span ends, from the call's arguments and result
AFTER = {
    "sbp.build": _cells,
    "solver.run": _run_counts,
    "io.write": _bytes,
    "mc.simulate": _particles,
}


class Tracer:
    """In-memory span recorder over the wrapped pnsat functions."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        after = AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if after is not None:
                after(self.counts, args, out)
            return out
        return traced

    @contextmanager
    def installed(self):
        patches = Patches()
        try:
            for module, attr, name in FUNCTIONS:
                patches.function(module, attr, functools.partial(self._wrap, name))
            for module, cls, attr, name in METHODS:
                patches.method(module, cls, attr, functools.partial(self._wrap, name))
            yield self
        finally:
            patches.restore()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for (name, start, end, _), inner in zip(self.spans, child):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - inner
        return dict(out)

    def layer_metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per round, as (value, unit)."""
        s = self.summary()
        c = self.counts

        def self_s(*names):
            return sum(s[n]["self_s"] for n in names if n in s) / rounds

        def calls(name):
            return s[name]["calls"] / rounds if name in s else 0.0

        step_s = self_s("solver.run")
        mc_total = s["mc.simulate"]["total_s"] if "mc.simulate" in s else 0.0
        return {
            "sphharm.quadrature_s": (self_s("sphharm.quadrature"), "s"),
            "sphharm.eval_basis_s": (self_s("sphharm.eval_basis"), "s"),
            "sphharm.eval_basis_calls": (calls("sphharm.eval_basis"), "count"),
            "moments.assemble_s": (self_s("moments.assemble"), "s"),
            "boundary.assemble_s": (self_s("boundary.assemble"), "s"),
            "boundary.inflow_projection_s": (self_s("boundary.inflow_projection"), "s"),
            "sbp.build_s": (self_s("sbp.build"), "s"),
            "sbp.cells_built": (c["sbp.cells_built"] / rounds, "count"),
            "sbp.penalty_s": (self_s("sbp.penalty"), "s"),
            "solver.setup_self_s": (self_s("solver.setup"), "s"),
            "solver.initial_state_s": (self_s("solver.initial_state"), "s"),
            "solver.step_s": (step_s, "s"),
            "solver.steps": (c["solver.steps"] / rounds, "count"),
            "solver.dof": (c["solver.dof"] / rounds, "count"),
            "solver.ns_per_dof_step": (
                1e9 * step_s * rounds / c["solver.dof_steps"] if c["solver.dof_steps"] else 0.0, "ns"),
            "solver.coupling_flops": (c["solver.coupling_flops"] / rounds, "flop"),
            "solver.energy_s": (self_s("solver.energy"), "s"),
            "solver.energy_calls": (calls("solver.energy"), "count"),
            "solver.source_norm_s": (self_s("solver.source_norm"), "s"),
            "io.write_s": (self_s("io.write"), "s"),
            "io.bytes_written": (c["io.bytes_written"] / rounds, "bytes"),
            "config.load_s": (self_s("config.load"), "s"),
            "mc.simulate_s": (self_s("mc.simulate"), "s"),
            "mc.deposit_s": (self_s("mc.deposit"), "s"),
            "mc.deposit_calls": (calls("mc.deposit"), "count"),
            "mc.particles_per_s": (c["mc.particles"] / mc_total if mc_total else 0.0, "1/s"),
        }
