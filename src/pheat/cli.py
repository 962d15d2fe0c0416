"""Command line front end.

Subcommands:
  run <experiment> --config FILE     run a study, write CSV/manifest
  eoc CSV --field NAME [--against X] print per-level and least-squares slopes
  verify                             run the fast cross-module property suites
  dump-mesh --domain D --level K --out FILE
  dump-solution --config FILE --out DIR

Exit codes: 0 success, 1 invariant or solver failure, 2 bad configuration.
Diagnostics go to stderr; data goes to files.
"""

import argparse
import sys

import numpy as np

from . import experiments
from .error_metrics import empirical_order, read_csv
from .experiments import ConfigError, default_config, parse_config_file
from .mesh import make_initial_mesh, refine_to_level
from .timestepper import NonConvergence


def _log(msg):
    print(msg, file=sys.stderr)


def cmd_run(args):
    try:
        cfg = default_config(args.experiment)
        if args.config:
            cfg = parse_config_file(args.config, base=cfg)
        if cfg.experiment != args.experiment:
            raise ConfigError(f"config names experiment {cfg.experiment!r}, "
                              f"command line says {args.experiment!r}")
    except (ConfigError, OSError) as exc:
        _log(f"config error: {exc}")
        return 2
    try:
        reports = experiments.run_experiment(cfg)
    except ConfigError as exc:
        _log(f"config error: {exc}")
        return 2
    except NonConvergence as exc:
        _log(f"solver failure: {exc}")
        return 1
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
    except ValueError as exc:
        _log(f"config error: {exc}")
        return 2
    with open(args.out, "w") as fh:
        mesh.dump(fh)
    _log(f"wrote {args.out}: {mesh.num_vertices} vertices, "
         f"{mesh.num_triangles} triangles")
    return 0


def cmd_dump_solution(args):
    from .fespace import build_space
    from .timestepper import TimeGrid, solve_evolution

    try:
        cfg = parse_config_file(args.config)
    except (ConfigError, OSError) as exc:
        _log(f"config error: {exc}")
        return 2
    # solve the first schedule row and dump its trajectory
    level, M = cfg.levels[0]
    interval = experiments._INTERVALS[cfg.experiment]
    if cfg.experiment == "known_solution":
        exact, force = experiments.known_solution_fields(cfg.params)
        domain = experiments._DOMAIN_VARIANTS[cfg.domain_variant]
        spec = experiments.ProblemSpec(params=cfg.params, domain=domain, force=force,
                                       initial="exact_at_t0",
                                       boundary_mode="averaged_nodal",
                                       force_mode=cfg.force_mode,
                                       exact_solution=exact.u)
    elif cfg.experiment == "rough_in_time":
        spec = experiments.ProblemSpec(params=cfg.params, domain="unit_square",
                                       force=experiments.PowerTimeForce(cfg.beta))
    elif cfg.experiment == "p2_validation":
        exact, force = experiments.manufactured_p2_fields()
        spec = experiments.ProblemSpec(params=cfg.params, domain="unit_square",
                                       force=force, initial="exact_at_t0",
                                       exact_solution=exact.u)
    else:
        spec = experiments.ProblemSpec(params=cfg.params, domain="slit",
                                       force=experiments.ConstantForce(2.0))
    try:
        traj = solve_evolution(spec, level, cfg.r, TimeGrid(interval[0], interval[1], M),
                               tol=cfg.tol)
    except NonConvergence as exc:
        _log(f"solver failure: {exc}")
        return 1
    traj.dump(args.out)
    _log(f"wrote trajectory ({M + 1} snapshots) to {args.out}")
    return 0


# ----------------------------------------------------------------------
# verify: quick property suites across all modules
# ----------------------------------------------------------------------

def _verify_checks():
    from math import factorial

    from . import assembly, projection
    from .constitutive import PLaplaceParams, s_flux, v_transform
    from .fespace import FeFunction, build_space, quadrature
    from .mesh import mesh_quality
    from .timestepper import (ConstantForce, ProblemSpec, TimeGrid, theta_density,
                              theta_pieces, solve_evolution)

    def mesh_suite():
        for domain, area in (("unit_square", 1.0), ("centered_square", 4.0),
                             ("shifted_square", 4.0), ("slit", 4.0)):
            m = make_initial_mesh(domain)
            for _ in range(3):
                assert m.is_conforming(), domain
                assert np.all(m.signed_areas() > 0)
                assert abs(m.signed_areas().sum() - area) < 1e-12 * max(area, 1)
                from .mesh import refine_uniform
                m = refine_uniform(m)
            q = mesh_quality(m)
            assert q.gamma > 2 and q.quasi_uniformity_ratio >= 1

    def quadrature_suite():
        for d in (1, 4, 8, 14, 20):
            rule = quadrature(d)
            assert np.all(rule.weights > 0)
            assert abs(rule.weights.sum() - 1) < 1e-13
            for a in range(0, d + 1, max(1, d // 3)):
                for b in range(0, d + 1 - a, max(1, d // 3)):
                    exact = 2 * factorial(a) * factorial(b) / factorial(a + b + 2)
                    got = np.sum(rule.weights * rule.points[:, 1] ** a
                                 * rule.points[:, 2] ** b)
                    assert abs(got - exact) < 1e-13

    def constitutive_suite():
        rng = np.random.default_rng(0)
        q = rng.standard_normal((2000, 2)) * 10.0 ** rng.uniform(-2, 2, (2000, 1))
        for p in (1.2, 1.5, 2.0, 3.0, 4.5):
            for kappa in (0.0, 1e-3, 1.0):
                params = PLaplaceParams(p=p, kappa=kappa)
                v2 = np.sum(v_transform(q, params) ** 2, axis=-1)
                sq = np.sum(s_flux(q, params) * q, axis=-1)
                assert np.max(np.abs(v2 - sq) / np.maximum(np.abs(sq), 1e-300)) < 1e-12

    def fespace_suite():
        mesh = refine_to_level("unit_square", 2)
        rule = quadrature(6)
        for r in (1, 2, 3):
            space = build_space(mesh, r)
            coeffs = space.dof_coords[:, 0] ** r
            f = FeFunction(space, coeffs)
            pts = space.physical_points(rule)
            assert np.max(np.abs(space.eval_at(rule, f.coeffs) - pts[..., 0] ** r)) < 1e-11

    def assembly_suite():
        mesh = refine_to_level("unit_square", 2)
        space = build_space(mesh, 1)
        M = assembly.assemble_mass(space)
        assert abs(M - M.T).max() == 0.0
        ones = np.ones(space.ndof)
        assert abs(ones @ (M @ ones) - 1.0) < 1e-12

    def projection_suite():
        mesh = refine_to_level("unit_square", 3)
        space = build_space(mesh, 1)
        g = lambda pts: np.sin(np.pi * pts[:, 0]) * pts[:, 1]
        pr = projection.l2_project(space, g)
        # idempotence, algebraically: the load of Pi_2 g is exactly M c
        M = assembly.assemble_mass(space)
        again, _ = assembly.solve_spd(M, M @ pr.coeffs)
        assert np.max(np.abs(again - pr.coeffs)) < 1e-10

    def theta_suite():
        grid = TimeGrid(-0.1, 0.1, 10)
        for m in range(1, 11):
            mass = 0.0
            for a, b, A, B in theta_pieces(m, grid):
                mass += A * (b - a) + B * (b * b - a * a) / 2.0
            assert abs(mass - 1.0) < 1e-13
            assert theta_density(m, grid.t(m) - 1.5 * grid.tau, grid) >= 0

    def evolution_suite():
        params = PLaplaceParams(p=2.0, kappa=0.0)
        spec = ProblemSpec(params=params, domain="unit_square",
                           force=ConstantForce(1.0))
        traj = solve_evolution(spec, 2, 1, TimeGrid(0.0, 0.25, 4))
        assert all(rep.converged for rep in traj.newton_reports)
        assert all(rep.iterations <= 2 for rep in traj.newton_reports)

    return [("mesh: conformity/areas/quality", mesh_suite),
            ("fespace: quadrature exactness", quadrature_suite),
            ("constitutive: |V|^2 = S.xi", constitutive_suite),
            ("fespace: polynomial reproduction", fespace_suite),
            ("assembly: mass symmetry/partition", assembly_suite),
            ("projection: idempotence", projection_suite),
            ("timestepper: theta mass one", theta_suite),
            ("timestepper: linear evolution", evolution_suite)]


def cmd_verify(_args):
    failures = 0
    for name, check in _verify_checks():
        try:
            check()
        except AssertionError as exc:
            _log(f"FAIL {name}: {exc}")
            failures += 1
        else:
            _log(f"ok   {name}")
    if failures:
        _log(f"{failures} suite(s) failed")
        return 1
    _log("all property suites passed")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="pheat",
                                     description="p-Laplacian evolution studies")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment")
    p_run.add_argument("experiment", choices=experiments.EXPERIMENTS)
    p_run.add_argument("--config", default=None)
    p_run.set_defaults(fn=cmd_run)

    p_eoc = sub.add_parser("eoc", help="empirical orders from a results CSV")
    p_eoc.add_argument("csv")
    p_eoc.add_argument("--field", required=True)
    p_eoc.add_argument("--against", default="ndof", choices=("ndof", "h", "tau"))
    p_eoc.set_defaults(fn=cmd_eoc)

    p_ver = sub.add_parser("verify", help="run the module property suites")
    p_ver.set_defaults(fn=cmd_verify)

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
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
