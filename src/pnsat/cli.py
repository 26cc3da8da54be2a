"""Command-line front end.

Subcommands: verify | run <cfg> | oracle <cfg> --n --seed | assemble <N>.
Exit codes: 0 ok, 1 validation error, 2 numerical failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import boundary as bnd
from .checks import run_all
from .config import load_scenario
from .errors import NumericalError, ValidationError
from .io import diff_against_run, run_metadata, write_mc, write_run
from .mc import simulate
from .moments import MomentBasis, assemble_transport
from .solver import energy_bound_check, run
from .sphharm import classify_parity

EXIT_OK, EXIT_VALIDATION, EXIT_NUMERICAL, EXIT_IO = 0, 1, 2, 3


def cmd_verify(args) -> int:
    results = run_all()
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return EXIT_OK if not failed else EXIT_NUMERICAL


def cmd_run(args) -> int:
    scenario = load_scenario(args.config)
    result = run(scenario)
    outdir = Path(args.output) if args.output else Path(f"{scenario.name}_out")
    write_run(result, outdir)
    report = energy_bound_check(result)
    print(f"wrote {outdir}/ ({len(result.snapshots)} snapshots, "
          f"{result.metadata['steps']} steps, {result.metadata['wall_seconds']:.1f}s)")
    print(report.describe())
    if report.applicable and not report.ok:
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_oracle(args) -> int:
    scenario = load_scenario(args.config)
    if args.diff:
        run_metadata(args.diff, scenario)  # a run on another grid fails before the simulation
    result = simulate(scenario, n_particles=args.n, seed=args.seed)
    outdir = Path(args.output) if args.output else Path(f"{scenario.name}_mc")
    write_mc(result, outdir)
    print(f"wrote {outdir}/ ({len(result.snapshots)} tallies, n={args.n}, seed={args.seed})")
    if args.diff:
        summary = diff_against_run(result, args.diff)
        with open(outdir / "diff.json", "w") as fh:
            json.dump(summary, fh, indent=2)
        for entry in summary["snapshots"]:
            print(
                f"  t={entry['time']:.6g}: max|diff|={entry['max_abs_diff']:.4e} "
                f"(rel {entry['max_rel_diff']:.3%}, mc stderr <= {entry['mc_stderr_max']:.2e})"
            )
    return EXIT_OK


def cmd_assemble(args) -> int:
    basis = MomentBasis.build(args.N)
    system = assemble_transport(basis)
    outdir = Path(args.output) if args.output else Path(f"pn_matrices_N{args.N}")
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "basis.csv", "w") as fh:
        fh.write("position,l,k,parity_x,parity_y,parity_z\n")
        for i in basis.indices:
            fh.write(f"{i.flat},{i.l},{i.k}," + ",".join(classify_parity(ax, i) for ax in (1, 2, 3)) + "\n")
    for axis, name in ((1, "x"), (2, "y"), (3, "z")):
        np.savetxt(outdir / f"a_{name}.csv", system.a_full[axis - 1], delimiter=",")
        np.savetxt(outdir / f"ahat_{name}.csv", system.a_hat[axis - 1], delimiter=",")
        hi = bnd.Face(axis, "high")
        bc = bnd.onsager_bc(basis, hi, system)
        np.savetxt(outdir / f"l_{name}.csv", bc.l_matrix, delimiter=",")
        np.savetxt(outdir / f"mtilde_{name}_high.csv", bnd.marshak_matrix(basis, hi), delimiter=",")
        np.savetxt(outdir / f"m_{name}_high.csv", bc.m_matrix, delimiter=",")
    print(f"wrote {outdir}/ (basis table, A, Ahat, L, Mtilde, M per axis)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="pnsat", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("verify", help="run the property-check suite").set_defaults(fn=cmd_verify)

    pr = sub.add_parser("run", help="integrate a scenario and write artifacts")
    pr.add_argument("config", help="scenario JSON path")
    pr.add_argument("-o", "--output", help="output directory")
    pr.set_defaults(fn=cmd_run)

    po = sub.add_parser("oracle", help="Monte Carlo tallies for a scenario")
    po.add_argument("config", help="scenario JSON path")
    po.add_argument("--n", type=int, default=100_000, help="number of particles")
    po.add_argument("--seed", type=int, default=0, help="random seed")
    po.add_argument("-o", "--output", help="output directory")
    po.add_argument("--diff", help="solver run directory to diff against")
    po.set_defaults(fn=cmd_oracle)

    pa = sub.add_parser("assemble", help="dump system matrices as CSV")
    pa.add_argument("N", type=int, help="basis truncation degree")
    pa.add_argument("-o", "--output", help="output directory")
    pa.set_defaults(fn=cmd_assemble)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except json.JSONDecodeError as exc:
        print(f"validation error: malformed JSON ({exc})", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
