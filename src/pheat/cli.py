"""Command line front end.

Subcommands:
  run <experiment> --config FILE     run a study, write CSV/manifest
  eoc CSV --field NAME [--against X] print per-level and least-squares slopes
  dump-mesh --domain D --level K --out FILE
  dump-solution --config FILE --out DIR

Exit codes: 0 success, 1 invariant or solver failure (running out of memory
included), 2 bad configuration or unwritable output.  The subcommands raise,
and `main` maps each failure to one stderr line: ConfigError to "config
error", NonConvergence and MemoryError to "solver failure", and a write
OSError to "output error".
Diagnostics go to stderr; data goes to files.
"""

import argparse
import os
import sys

from . import experiments
from .error_metrics import empirical_order, read_csv
from .experiments import ConfigError, default_config, parse_config_file
from .fespace import build_space
from .mesh import refine_to_level
from .timestepper import NonConvergence, TimeGrid, solve_evolution


def _log(msg):
    print(msg, file=sys.stderr)


def cmd_run(args):
    cfg = default_config(args.experiment)
    if args.config:
        cfg = parse_config_file(args.config, base=cfg)
    reports = experiments.run_experiment(cfg)
    _log(f"wrote {cfg.output_path} ({len(reports)} rows)")
    _log(experiments.eoc_summary(reports))
    return 0


def cmd_eoc(args):
    try:
        rows = read_csv(args.csv)
        fit = empirical_order(rows, args.field, against=args.against)
    except Exception as exc:
        _log(f"error: {exc}")
        return 2
    for i, s in enumerate(fit.slopes):
        _log(f"level {i} -> {i + 1}: slope {s:+.4f}")
    _log(f"least-squares slope: {fit.ls_slope:+.4f}")
    print(f"{fit.ls_slope:.6f}")
    return 0


def cmd_dump_mesh(args):
    try:
        mesh = refine_to_level(args.domain, args.level)
    except ValueError as exc:  # an unknown domain or a level outside [0, MAX_LEVEL]
        raise ConfigError(str(exc)) from exc
    with open(args.out, "w") as fh:
        mesh.dump(fh)
    _log(f"wrote {args.out}: {mesh.num_vertices} vertices, "
         f"{mesh.num_triangles} triangles")
    return 0


def cmd_dump_solution(args):
    cfg = parse_config_file(args.config)
    spec, _ = experiments.build_spec(cfg)
    os.makedirs(args.out, exist_ok=True)  # fail before the solve, not after
    # solve the first schedule row and dump its trajectory
    level, M = cfg.levels[0]
    t0, t_end = experiments.STUDIES[cfg.experiment].interval
    space = build_space(refine_to_level(spec.domain, level), cfg.r)
    traj = solve_evolution(spec, space, TimeGrid(t0, t_end, M), tol=cfg.tol)
    traj.dump(args.out)
    _log(f"wrote trajectory ({M + 1} snapshots) to {args.out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="pheat",
                                     description="p-Laplacian evolution studies")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment")
    p_run.add_argument("experiment", choices=experiments.STUDIES)
    p_run.add_argument("--config", default=None)
    p_run.set_defaults(fn=cmd_run)

    p_eoc = sub.add_parser("eoc", help="empirical orders from a results CSV")
    p_eoc.add_argument("csv")
    p_eoc.add_argument("--field", required=True)
    p_eoc.add_argument("--against", default="ndof", choices=("ndof", "h", "tau"))
    p_eoc.set_defaults(fn=cmd_eoc)

    p_dm = sub.add_parser("dump-mesh", help="write a mesh in the plain-text format")
    p_dm.add_argument("--domain", required=True)
    p_dm.add_argument("--level", type=int, default=0)
    p_dm.add_argument("--out", required=True)
    p_dm.set_defaults(fn=cmd_dump_mesh)

    p_ds = sub.add_parser("dump-solution", help="solve one schedule row and dump it")
    p_ds.add_argument("--config", required=True)
    p_ds.add_argument("--out", required=True)
    p_ds.set_defaults(fn=cmd_dump_solution)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        _log(f"config error: {exc}")
        return 2
    except NonConvergence as exc:
        _log(f"solver failure: {exc}")
        return 1
    except MemoryError:
        _log("solver failure: out of memory")
        return 1
    except OSError as exc:
        _log(f"output error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
