"""Convergence studies: configuration, schedules, reference solutions, CSV.

Four experiments are wired up:

  slit_constant_force   constant force 2 on the slit domain, discrete reference
  rough_in_time         power-law-in-time force sgn(t)|t|^(-beta) on the unit
                        square over (-0.1, 0.1), discrete reference
  known_solution        closed-form singular solution on the centered or the
                        shifted square over (-1, 1), exact reference,
                        time-averaged nodal boundary data
  p2_validation         linear regression anchor with a smooth manufactured
                        solution (spatial or temporal sweep)

Every run writes the results CSV (columns ndof,M,h,tau,sqVerr,sqVerr1,
sqLinftyError,sqAerr), a flat-text manifest of all parameters including the
initial-datum choice, and optionally a gnuplot .dat copy.  Runs are
deterministic: identical configs produce bitwise identical CSVs.
"""

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .constitutive import PLaplaceParams, magnitude
from .error_metrics import (DiscreteReference, ExactSolution, InsufficientData,
                            compute_error_report, empirical_order, write_csv,
                            write_dat, write_manifest)
from .fespace import build_space
from .mesh import make_initial_mesh, refine_uniform
from .timestepper import (CallableForce, ConstantForce, PowerTimeForce,
                          SeparableForce, ProblemSpec, TimeGrid, solve_evolution)

EXPERIMENTS = ("slit_constant_force", "rough_in_time", "known_solution",
               "p2_validation", "custom")

_DOMAIN_VARIANTS = {"omega1": "centered_square", "omega2": "shifted_square"}
_FORCE_MODES = ("theta_average", "point_value")


class ConfigError(Exception):
    """Malformed or inconsistent experiment configuration."""


@dataclass
class ExperimentConfig:
    experiment: str
    p: float = 1.5
    kappa: float = 0.0
    beta: float = 0.5
    domain_variant: str = "omega2"
    r: int = 1
    levels: tuple = ()                # ((mesh level, M), ...)
    reference: tuple = None           # (mesh level, M_ref, degree) or None
    force_mode: str = "theta_average"
    output_path: str = "results.csv"
    tol: float = 1e-10
    quad_degree: int = 8
    sweep: str = "spatial"            # p2_validation only
    emit_dat: bool = False

    @property
    def params(self):
        return PLaplaceParams(p=self.p, kappa=self.kappa)


_DEFAULT_LEVELS = {
    "slit_constant_force": (((1, 8), (2, 16), (3, 32), (4, 64)), (5, 128, None)),
    "rough_in_time": (((2, 8), (3, 16), (4, 32)), (5, 64, 2)),
    "known_solution": (((1, 4), (2, 8), (3, 16), (4, 32), (5, 64)), None),
    "p2_validation": (((2, 4), (3, 16), (4, 64), (5, 256)), None),
}

_INTERVALS = {
    # the slit experiment's interval is not prescribed by the source problem;
    # (0, 4) reaches the quasi-steady regime where the re-entrant corner
    # singularity is fully developed (recorded in every manifest)
    "slit_constant_force": (0.0, 4.0),
    "rough_in_time": (-0.1, 0.1),
    "known_solution": (-1.0, 1.0),
    "p2_validation": (0.0, 1.0),
    "custom": (0.0, 1.0),
}


def default_config(experiment):
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}")
    cfg = ExperimentConfig(experiment=experiment)
    if experiment in _DEFAULT_LEVELS:
        levels, ref = _DEFAULT_LEVELS[experiment]
        cfg.levels = levels
        if ref is not None:
            cfg.reference = (ref[0], ref[1], ref[2] if ref[2] else cfg.r + 1)
    if experiment == "p2_validation":
        cfg.p = 2.0
    return cfg


_BOOL = {"true": True, "false": False, "1": True, "0": False,
         "yes": True, "no": False}


def _parse_levels(text):
    pairs = []
    for chunk in text.replace(",", " ").split():
        lvl, m = chunk.split(":")
        pairs.append((int(lvl), int(m)))
    return tuple(pairs)


def _parse_reference(text):
    lvl, m, deg = text.split(":")
    return (int(lvl), int(m), int(deg))


_KEY_PARSERS = {
    "experiment": str,
    "p": float,
    "kappa": float,
    "beta": float,
    "domain_variant": str,
    "r": int,
    "force_mode": str,
    "output_path": str,
    "tol": float,
    "quad_degree": int,
    "sweep": str,
    "emit_dat": lambda s: _BOOL[s.lower()],
    "levels": _parse_levels,
    "reference": _parse_reference,
}


def parse_config(text, base=None):
    """Parse the flat `key = value` config format; unknown keys are rejected."""
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        entries[key] = value

    experiment = entries.pop("experiment", None) or (base.experiment if base else None)
    if experiment is None:
        raise ConfigError("config must name an experiment")
    cfg = base if base is not None else default_config(experiment)
    cfg = replace(cfg, experiment=experiment)

    for key, value in entries.items():
        if key not in _KEY_PARSERS:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            setattr(cfg, key, _KEY_PARSERS[key](value))
        except (ValueError, KeyError) as exc:
            raise ConfigError(f"bad value for {key}: {value!r}") from exc
    validate_config(cfg)
    return cfg


def parse_config_file(path, base=None):
    with open(path) as fh:
        return parse_config(fh.read(), base=base)


def validate_config(cfg):
    if cfg.experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {cfg.experiment!r}")
    if not cfg.p > 1.0:
        raise ConfigError(f"p must exceed 1, got {cfg.p}")
    if cfg.kappa < 0:
        raise ConfigError(f"kappa must be nonnegative, got {cfg.kappa}")
    if cfg.experiment == "rough_in_time" and cfg.beta >= 1.0:
        raise ConfigError(f"beta must be < 1 (integrability), got {cfg.beta}")
    if cfg.experiment == "known_solution":
        if cfg.domain_variant not in _DOMAIN_VARIANTS:
            raise ConfigError(f"domain_variant must be omega1 or omega2, got {cfg.domain_variant!r}")
        if cfg.kappa != 0.0:
            raise ConfigError("known_solution requires kappa = 0 (the closed forms "
                              "hold only for the unshifted flux)")
    if cfg.r not in (1, 2, 3):
        raise ConfigError(f"r must be 1, 2 or 3, got {cfg.r}")
    if cfg.force_mode not in _FORCE_MODES:
        raise ConfigError(f"force_mode must be one of {_FORCE_MODES}, got {cfg.force_mode!r}")
    if not cfg.levels:
        raise ConfigError("empty level schedule")
    schedule = list(cfg.levels) + ([cfg.reference[:2]] if cfg.reference is not None else [])
    for lvl, m in schedule:
        if lvl < 0 or m < 1:
            raise ConfigError(f"need mesh level >= 0 and M >= 1, got {lvl}:{m}")
    if cfg.reference is not None:
        ref_level, ref_m, ref_deg = cfg.reference
        if ref_deg not in (1, 2, 3):
            raise ConfigError(f"reference degree must be 1, 2 or 3, got {ref_deg}")
        for lvl, m in cfg.levels:
            if lvl >= ref_level:
                raise ConfigError(f"compared level {lvl} must be below the "
                                  f"reference level {ref_level}")
            if ref_m % m != 0:
                raise ConfigError(f"M = {m} does not divide the reference M = {ref_m}")
    if cfg.sweep not in ("spatial", "temporal"):
        raise ConfigError(f"sweep must be spatial or temporal, got {cfg.sweep!r}")


# ----------------------------------------------------------------------
# closed-form data
# ----------------------------------------------------------------------

def _latest_array_memo():
    """memo(pts, key, fn) returns fn(pts), cached for the latest point array.

    The error quadrature evaluates a closed form at one point array for every
    window and time node; its spatial factors are computed once per array,
    and only the latest array's are kept, so arrays of past steps are released.
    """
    latest = [None, {}]

    def memo(pts, key, fn):
        if latest[0] is not pts:
            latest[:] = [pts, {}]
        if key not in latest[1]:
            latest[1][key] = fn(pts)
        return latest[1][key]

    return memo


def known_solution_fields(params):
    """The singular solution u = p'|t|^(1/2)|x|^(1/p') and its derived data.

    The force splits into two time-power terms,

        f = (p'/2) sgn(t)|t|^(-1/2) |x|^(1/p')
            - (1/p) |t|^((p-1)/2) |x|^(-1-1/p'),

    so theta averages are computed from exact antiderivatives.
    """
    p = params.p
    pp = params.p_conjugate
    memo = _latest_array_memo()

    def radial_power(pts, exponent):
        return memo(pts, exponent, lambda x: memo(x, "r", magnitude) ** exponent)

    def u(pts, t):
        return pp * abs(t) ** 0.5 * radial_power(pts, 1.0 / pp)

    def grad_u(pts, t):
        mag = abs(t) ** 0.5 * radial_power(pts, -1.0 / p - 1.0)
        return mag[:, None] * pts

    def v_of_grad(pts, t):
        mag = abs(t) ** (p / 4.0) * radial_power(pts, -1.5)
        return mag[:, None] * pts

    def s_of_grad(pts, t):
        mag = abs(t) ** ((p - 1.0) / 2.0) * radial_power(pts, -1.0 / pp - 1.0)
        return mag[:, None] * pts

    force = SeparableForce(terms=(
        (lambda pts: (pp / 2.0) * radial_power(pts, 1.0 / pp), -0.5, True),
        (lambda pts: -(1.0 / p) * radial_power(pts, -1.0 - 1.0 / pp), (p - 1.0) / 2.0, False),
    ))
    exact = ExactSolution(u=u, grad_u=grad_u, v_of_grad=v_of_grad,
                          s_of_grad=s_of_grad, t_singular=0.0)
    return exact, force


def manufactured_p2_fields():
    """Smooth linear-case benchmark: u = sin(pi x) sin(pi y) e^(-t)."""
    memo = _latest_array_memo()

    def trig(x):
        sx, cx = np.sin(np.pi * x[:, 0]), np.cos(np.pi * x[:, 0])
        sy, cy = np.sin(np.pi * x[:, 1]), np.cos(np.pi * x[:, 1])
        return sx * sy, np.stack([cx * sy, sx * cy], axis=-1)

    def u(pts, t):
        return memo(pts, "trig", trig)[0] * math.exp(-t)

    def grad_u(pts, t):
        return math.exp(-t) * np.pi * memo(pts, "trig", trig)[1]

    def f(pts, t):
        return (2.0 * np.pi ** 2 - 1.0) * u(pts, t)

    exact = ExactSolution(u=u, grad_u=grad_u)
    return exact, CallableForce(f)


# ----------------------------------------------------------------------
# the runners
# ----------------------------------------------------------------------

def _mesh_hierarchy(domain, max_level):
    meshes = [make_initial_mesh(domain)]
    for _ in range(max_level):
        meshes.append(refine_uniform(meshes[-1]))
    return meshes


def _manifest(cfg, domain, interval, extra=None):
    entries = {
        "experiment": cfg.experiment,
        "domain": domain,
        "p": cfg.p,
        "kappa": cfg.kappa,
        "beta": cfg.beta if cfg.experiment == "rough_in_time" else "n/a",
        "r": cfg.r,
        "t0": interval[0],
        "t_end": interval[1],
        "levels": " ".join(f"{l}:{m}" for l, m in cfg.levels),
        "reference": "exact" if cfg.reference is None else
                     ":".join(map(str, cfg.reference)),
        "force_mode": cfg.force_mode,
        "newton_tol": cfg.tol,
        "error_quadrature_degree": cfg.quad_degree,
    }
    if extra:
        entries.update(extra)
    return entries


def _write_outputs(cfg, reports, manifest):
    write_csv(reports, cfg.output_path)
    write_manifest(manifest, cfg.output_path + ".manifest")
    if cfg.emit_dat:
        root, _ = os.path.splitext(cfg.output_path)
        write_dat(reports, root + ".dat")


def _run_schedule(cfg, domain, interval, spec, reference_for):
    """Solve every (level, M) row of the schedule and collect error reports."""
    max_level = max(lvl for lvl, _ in cfg.levels)
    if cfg.reference is not None:
        max_level = max(max_level, cfg.reference[0])
    meshes = _mesh_hierarchy(domain, max_level)
    spaces = {}
    reports = []
    for lvl, M in cfg.levels:
        if (lvl, cfg.r) not in spaces:
            spaces[(lvl, cfg.r)] = build_space(meshes[lvl], cfg.r)
        grid = TimeGrid(interval[0], interval[1], M)
        traj = solve_evolution(spec, lvl, cfg.r, grid, tol=cfg.tol,
                               space=spaces[(lvl, cfg.r)])
        ref = reference_for(meshes, grid)
        reports.append(compute_error_report(traj, ref, grid, cfg.params,
                                            quad_degree=cfg.quad_degree))
    return reports


def _discrete_reference_factory(cfg, interval, spec):
    """Solve the reference run once and wrap it per compared grid."""
    ref_level, ref_m, ref_deg = cfg.reference
    holder = {}

    def factory(meshes, grid):
        if "traj" not in holder:
            space = build_space(meshes[ref_level], ref_deg)
            ref_grid = TimeGrid(interval[0], interval[1], ref_m)
            holder["traj"] = solve_evolution(spec, ref_level, ref_deg, ref_grid,
                                             tol=cfg.tol, space=space)
        return DiscreteReference(holder["traj"])

    return factory


def build_spec(cfg):
    """The ProblemSpec that `pheat run` solves for cfg, and the closed-form
    reference of the exact-reference studies (None for the others)."""
    params, mode = cfg.params, cfg.force_mode
    if cfg.experiment == "slit_constant_force":
        return ProblemSpec(params=params, domain="slit", force=ConstantForce(2.0),
                           force_mode=mode), None
    if cfg.experiment == "rough_in_time":
        return ProblemSpec(params=params, domain="unit_square",
                           force=PowerTimeForce(cfg.beta), force_mode=mode), None
    if cfg.experiment == "known_solution":
        exact, force = known_solution_fields(params)
        domain, boundary = _DOMAIN_VARIANTS[cfg.domain_variant], "averaged_nodal"
    elif cfg.experiment == "p2_validation":
        if cfg.p != 2.0:
            raise ConfigError("p2_validation requires p = 2")
        exact, force = manufactured_p2_fields()
        domain, boundary = "unit_square", "homogeneous"
    else:
        raise ConfigError(f"experiment {cfg.experiment!r} has no problem specification")
    return ProblemSpec(params=params, domain=domain, force=force, initial="exact_at_t0",
                       boundary_mode=boundary, force_mode=mode,
                       exact_solution=exact.u), exact


def _run_study(cfg, extra):
    """Solve the schedule of cfg against its reference and write the outputs."""
    interval = _INTERVALS[cfg.experiment]
    spec, exact = build_spec(cfg)
    reference_for = ((lambda meshes, grid: exact) if exact is not None
                     else _discrete_reference_factory(cfg, interval, spec))
    reports = _run_schedule(cfg, spec.domain, interval, spec, reference_for)
    _write_outputs(cfg, reports, _manifest(cfg, spec.domain, interval, extra))
    return reports


def run_slit(cfg):
    """Constant force 2 on the slit domain against a finer discrete reference."""
    return _run_study(cfg, {"force": "constant 2", "initial": "zero"})


def run_rough_in_time(cfg):
    """Force sgn(t)|t|^(-beta) on the unit square over (-0.1, 0.1)."""
    return _run_study(cfg, {"force": f"sgn(t)|t|^-{cfg.beta}", "initial": "zero"})


def run_known_solution(cfg):
    """Exact-reference study of the singular closed-form solution."""
    return _run_study(cfg, {"force": "derived from the closed form",
                            "initial": "L2 projection of u(., t0)"})


def run_p2_validation(cfg):
    """Linear-case anchor: smooth manufactured solution, exact reference."""
    return _run_study(cfg, {"force": "manufactured, smooth",
                            "initial": "L2 projection of u(., t0)", "sweep": cfg.sweep})


_RUNNERS = {
    "slit_constant_force": run_slit,
    "rough_in_time": run_rough_in_time,
    "known_solution": run_known_solution,
    "p2_validation": run_p2_validation,
}


def run_experiment(cfg):
    validate_config(cfg)
    if cfg.experiment not in _RUNNERS:
        raise ConfigError(f"experiment {cfg.experiment!r} has no runner")
    return _RUNNERS[cfg.experiment](cfg)


def eoc_summary(reports, fields=("sq_l2_v", "sq_l2_v_avg", "sq_linfty_l2", "sq_lp_s"),
                against="ndof"):
    lines = []
    for f in fields:
        try:
            fit = empirical_order(reports, f, against)
        except InsufficientData:
            lines.append(f"{f:>16}: n/a")
            continue
        steps = " ".join(f"{s:+.3f}" for s in fit.slopes)
        lines.append(f"{f:>16}: per-level [{steps}]  LS {fit.ls_slope:+.3f}")
    return "\n".join(lines)
