"""Benchmark entry point: run one workload for a fixed time and print its metrics.

    python3 bench/run.py --workload bundled_1d --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory, never from an installed copy.  The run does
whole rounds of the workload's operations (see ``workloads.py``) until
``--seconds`` would be exceeded by one more round, always at least one.

``--trace 0`` times each operation as ``pnsat run`` / ``pnsat oracle`` would
run it (load, solve, write artifacts, bound report) and prints the
end-to-end metrics: ``wall_s`` (each operation's fastest time, summed over
the operations), ``setup_s`` (the same over set-up times; set-up-only passes
of all operations fill the end of the run and add samples) and
``peak_rss_mb``.  ``--trace 1`` wraps the package's public functions in
spans (``spans.py``), writes the spans to ``.bench_out/trace_<workload>.json``
and prints per-layer metrics per round.
Checks run outside the timed region.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread, set before numpy loads: the dense products here are small,
# and a second thread on a shared 2-core machine adds more run-to-run spread
# than it saves.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from spans import SetupClock, SetupDone, Tracer  # noqa: E402
from workloads import MC_PARTICLES, WORKLOADS  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def _import_package():
    if not (SRC / "pnsat" / "__init__.py").is_file():
        raise SystemExit(f"error: no pnsat sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import pnsat

    if Path(pnsat.__file__).resolve().parent != (SRC / "pnsat").resolve():
        raise SystemExit(f"error: imported pnsat from {pnsat.__file__}, not from {SRC}")
    from pnsat import config, io, mc, solver

    return config, io, mc, solver


def execute(op, scenario_path: Path, outdir: Path, pkg):
    """The timed part of one operation: what ``pnsat run`` / ``pnsat oracle`` do."""
    config, io, mc, solver = pkg
    sc = config.load_scenario(scenario_path)
    if op.kind == "run":
        result = solver.run(sc)
        io.write_run(result, outdir)
        return result, solver.energy_bound_check(result)
    result = mc.simulate(sc, n_particles=MC_PARTICLES, seed=op.mc_seed)
    io.write_mc(result, outdir)
    return result


class Runner:
    """Runs rounds of a workload's operations and keeps each operation's times."""

    def __init__(self, workload, workdir: Path, pkg, clock: SetupClock, tracer: Tracer | None):
        self.workload = workload
        self.workdir = workdir
        self.pkg = pkg
        self.clock = clock
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.walls: dict[str, list[float]] = {op.name: [] for op in workload.ops}
        self.setups: dict[str, list[float]] = {op.name: [] for op in workload.ops}
        self.paths = {}
        for op in workload.ops:
            path = workdir / "scenarios" / f"{op.name}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(op.doc, indent=2))
            self.paths[op.name] = path

    def round(self) -> None:
        results = {}
        for op in self.workload.ops:
            self.attempted += 1
            outdir = self.workdir / op.name
            self.clock.reset()
            t0 = time.perf_counter()
            try:
                if self.tracer is not None:
                    with self.tracer.span(f"op.{op.name}"):
                        out = execute(op, self.paths[op.name], outdir, self.pkg)
                else:
                    out = execute(op, self.paths[op.name], outdir, self.pkg)
            except Exception:
                self.failed += 1
                print(f"FAILED {op.name}:\n{traceback.format_exc()}", file=sys.stderr)
                continue
            t1 = time.perf_counter()
            self.walls[op.name].append(t1 - t0)
            if self.clock.first is None:
                raise SystemExit(f"error: {op.name} never reached its first time step or batch")
            self.setups[op.name].append(self.clock.first - t0)
            results[op.name] = out
            self.problems += [f"{op.name}: {p}" for p in op.check(out, outdir)]
            print(f"  {op.name}: {t1 - t0:.3f} s", flush=True)
        if len(results) == len(self.workload.ops):
            self.problems += [f"round: {p}" for p in self.workload.round_check(results)]

    def probe_setup(self) -> None:
        """One more set-up sample of every operation, each stopped before its first step or batch."""
        for op in self.workload.ops:
            self.clock.reset(probe=True)
            t0 = time.perf_counter()
            try:
                execute(op, self.paths[op.name], self.workdir / op.name, self.pkg)
            except SetupDone:
                self.setups[op.name].append(self.clock.first - t0)
            except Exception:
                pass  # the operation's own run in the round reports the failure
            else:
                raise SystemExit(f"error: set-up probe of {op.name} ran to completion")

    def probe_for(self, budget: float) -> None:
        """Set-up-only passes for about ``budget`` seconds, at least one."""
        start = time.perf_counter()
        passes = 0
        while True:
            self.probe_setup()
            passes += 1
            spent = time.perf_counter() - start
            if spent + spent / passes > budget:
                return

    def run(self, seconds: float) -> int:
        """Whole rounds until one more would pass ``seconds``; returns the round count.

        Untraced, set-up-only passes fill the rest of ``seconds``.
        """
        start = time.perf_counter()
        rounds = 0
        while True:
            self.round()
            rounds += 1
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / rounds > seconds:
                break
        if self.tracer is None:
            self.probe_for(seconds - (time.perf_counter() - start))
        return rounds


def fastest(samples: dict[str, list[float]]) -> float | None:
    """Sum over operations of each operation's fastest sample; None if one has none."""
    if not all(samples.values()):
        return None
    return sum(min(v) for v in samples.values())


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    pkg = _import_package()
    workload = WORKLOADS[args.workload](args.seed, SRC / "pnsat" / "scenarios")
    print(f"workload {args.workload}, seed {args.seed}", flush=True)
    clock = SetupClock()
    tracer = Tracer() if args.trace else None
    runner = Runner(workload, OUT / args.workload, pkg, clock, tracer)
    with clock.installed():
        # One set-up pass warms lazy imports and caches; its samples are dropped.
        runner.probe_setup()
        for samples in runner.setups.values():
            samples.clear()
        if tracer is None:
            rounds = runner.run(args.seconds)
        else:
            with tracer.installed():
                rounds = runner.run(args.seconds)

    if tracer is None:
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "wall_s": (fastest(runner.walls), "s"),
            "setup_s": (fastest(runner.setups), "s"),
            "peak_rss_mb": (peak_rss, "MiB"),
        }
        n_setup = min(len(v) for v in runner.setups.values())
        print(f"{rounds} rounds; {n_setup} set-up samples per operation, at least")
    else:
        metrics = tracer.layer_metrics(rounds)
        metrics["trace.wall_s"] = (fastest(runner.walls), "s")
        trace_path = OUT / f"trace_{args.workload}.json"
        with open(trace_path, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "rounds": rounds,
                       "spans": [{"name": n, "start": s, "end": e, "parent": par}
                                 for n, s, e, par in tracer.spans]}, fh)
        print(f"{'span':<28}{'calls':>10}{'total s':>12}{'self s':>12}")
        for name, row in sorted(tracer.summary().items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"{name:<28}{row['calls']:>10}{row['total_s']:>12.4f}{row['self_s']:>12.4f}")
        print(f"{rounds} rounds; wrote {len(tracer.spans)} spans to {trace_path}")

    for msg in runner.problems:
        print(f"CHECK FAILED {msg}")
    print(json.dumps({
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if runner.problems or runner.failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
