"""Convergence studies: configuration, schedules, reference solutions, CSV.

Four experiments are wired up, one record each in `STUDIES`; `run_experiment`
runs any of them:

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
from .error_metrics import (ExactSolution, InsufficientData, compute_error_report,
                            empirical_order, write_csv, write_dat, write_manifest)
from .fespace import MAX_QUADRATURE_DEGREE, build_space
from .mesh import make_initial_mesh, refine_uniform
from .timestepper import (ConstantForce, PowerTimeForce, SeparableForce, ProblemSpec,
                          TimeGrid, solve_evolution)

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


@dataclass(frozen=True)
class Study:
    """One experiment of the paper: its time interval, its default schedule
    and reference, and the manifest's description of its data."""

    interval: tuple                   # (t0, t_end)
    levels: tuple                     # default ((mesh level, M), ...)
    reference: tuple                  # default (mesh level, M_ref, degree), or None: exact
    force: str                        # manifest text; {beta} is the config's beta
    initial: str                      # manifest text
    p: float = 1.5                    # default exponent


_PROJECTED = "L2 projection of u(., t0)"

STUDIES = {
    # the slit experiment's interval is not prescribed by the source problem;
    # (0, 4) reaches the quasi-steady regime where the re-entrant corner
    # singularity is fully developed (recorded in every manifest)
    "slit_constant_force": Study((0.0, 4.0), ((1, 8), (2, 16), (3, 32), (4, 64)),
                                 (5, 128, 2), "constant 2", "zero"),
    "rough_in_time": Study((-0.1, 0.1), ((2, 8), (3, 16), (4, 32)), (5, 64, 2),
                           "sgn(t)|t|^-{beta}", "zero"),
    "known_solution": Study((-1.0, 1.0), ((1, 4), (2, 8), (3, 16), (4, 32), (5, 64)), None,
                            "derived from the closed form", _PROJECTED),
    "p2_validation": Study((0.0, 1.0), ((2, 4), (3, 16), (4, 64), (5, 256)), None,
                           "manufactured, smooth", _PROJECTED, p=2.0),
}


def default_config(experiment):
    if experiment not in STUDIES:
        raise ConfigError(f"unknown experiment {experiment!r}")
    study = STUDIES[experiment]
    return ExperimentConfig(experiment=experiment, p=study.p, levels=study.levels,
                            reference=study.reference)


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
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_config(fh.read(), base=base)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not valid UTF-8: {exc}") from exc


def validate_config(cfg):
    if cfg.experiment not in STUDIES:
        raise ConfigError(f"unknown experiment {cfg.experiment!r}")
    # comparisons written so that nan fails them
    if not 1.0 < cfg.p < math.inf:
        raise ConfigError(f"p must be finite and exceed 1, got {cfg.p}")
    if not 0.0 <= cfg.kappa < math.inf:
        raise ConfigError(f"kappa must be finite and nonnegative, got {cfg.kappa}")
    if cfg.experiment == "rough_in_time" and not -math.inf < cfg.beta < 1.0:
        raise ConfigError(f"beta must be finite and < 1 (integrability), got {cfg.beta}")
    if not 0.0 < cfg.tol < math.inf:
        raise ConfigError(f"tol must be finite and positive, got {cfg.tol}")
    if not 1 <= cfg.quad_degree <= MAX_QUADRATURE_DEGREE:
        raise ConfigError(f"quad_degree must be in [1, {MAX_QUADRATURE_DEGREE}], "
                          f"got {cfg.quad_degree}")
    if cfg.experiment == "known_solution":
        if cfg.domain_variant not in _DOMAIN_VARIANTS:
            raise ConfigError(f"domain_variant must be omega1 or omega2, got {cfg.domain_variant!r}")
        if cfg.kappa != 0.0:
            raise ConfigError("known_solution requires kappa = 0 (the closed forms "
                              "hold only for the unshifted flux)")
    if cfg.experiment == "p2_validation" and cfg.p != 2.0:
        raise ConfigError(f"p2_validation requires p = 2, got {cfg.p}")
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
        if STUDIES[cfg.experiment].reference is None:
            raise ConfigError(f"{cfg.experiment} has an exact reference; drop `reference`")
        ref_level, ref_m, ref_deg = cfg.reference
        if not cfg.r <= ref_deg <= 3:
            raise ConfigError(f"reference degree must be at least r = {cfg.r} and at "
                              f"most 3, got {ref_deg}")
        for lvl, m in cfg.levels:
            if lvl >= ref_level:
                raise ConfigError(f"compared level {lvl} must be below the "
                                  f"reference level {ref_level}")
            if ref_m % m != 0:
                raise ConfigError(f"M = {m} does not divide the reference M = {ref_m}")
    if cfg.sweep not in ("spatial", "temporal"):
        raise ConfigError(f"sweep must be spatial or temporal, got {cfg.sweep!r}")
    if cfg.emit_dat and os.path.splitext(cfg.output_path)[1] == ".dat":
        raise ConfigError(f"the .dat copy would overwrite output_path {cfg.output_path!r}")


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

    return ExactSolution(u=u, grad_u=grad_u), f


# ----------------------------------------------------------------------
# the study
# ----------------------------------------------------------------------

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
    t0 = STUDIES[cfg.experiment].interval[0]
    if cfg.experiment == "known_solution":
        exact, force = known_solution_fields(params)
        domain, boundary = _DOMAIN_VARIANTS[cfg.domain_variant], exact.u
    else:
        exact, force = manufactured_p2_fields()
        domain, boundary = "unit_square", None
    return ProblemSpec(params=params, domain=domain, force=force,
                       initial=lambda pts: exact.u(pts, t0), boundary=boundary,
                       force_mode=mode), exact


def _manifest(cfg, domain):
    study = STUDIES[cfg.experiment]
    entries = {
        "experiment": cfg.experiment,
        "domain": domain,
        "p": cfg.p,
        "kappa": cfg.kappa,
        "beta": cfg.beta if cfg.experiment == "rough_in_time" else "n/a",
        "r": cfg.r,
        "t0": study.interval[0],
        "t_end": study.interval[1],
        "levels": " ".join(f"{l}:{m}" for l, m in cfg.levels),
        "reference": "exact" if cfg.reference is None else
                     ":".join(map(str, cfg.reference)),
        "force_mode": cfg.force_mode,
        "newton_tol": cfg.tol,
        "error_quadrature_degree": cfg.quad_degree,
        "force": study.force.format(beta=cfg.beta),
        "initial": study.initial,
    }
    if cfg.experiment == "p2_validation":
        entries["sweep"] = cfg.sweep
    return entries


def run_experiment(cfg):
    """Solve every (level, M) row of cfg's schedule, compare it with the
    study's reference and write the CSV, the manifest and the .dat copy.

    A discrete reference is solved once, after the first row; the rows of
    one mesh level share one space.
    """
    validate_config(cfg)
    out_dir = os.path.dirname(cfg.output_path) or "."
    if not os.path.isdir(out_dir):
        raise ConfigError(f"output directory {out_dir!r} does not exist")
    t0, t_end = STUDIES[cfg.experiment].interval
    spec, reference = build_spec(cfg)
    max_level = max(lvl for lvl, _ in cfg.levels)
    if cfg.reference is not None:
        max_level = max(max_level, cfg.reference[0])
    meshes = [make_initial_mesh(spec.domain)]
    for _ in range(max_level):
        meshes.append(refine_uniform(meshes[-1]))
    spaces = {}
    reports = []
    for lvl, M in cfg.levels:
        if lvl not in spaces:
            spaces[lvl] = build_space(meshes[lvl], cfg.r)
        grid = TimeGrid(t0, t_end, M)
        traj = solve_evolution(spec, lvl, cfg.r, grid, tol=cfg.tol, space=spaces[lvl])
        if reference is None:
            ref_level, ref_m, ref_deg = cfg.reference
            reference = solve_evolution(
                spec, ref_level, ref_deg, TimeGrid(t0, t_end, ref_m), tol=cfg.tol,
                space=build_space(meshes[ref_level], ref_deg))
        reports.append(compute_error_report(traj, reference, grid, cfg.params,
                                            quad_degree=cfg.quad_degree))
    write_csv(reports, cfg.output_path)
    write_manifest(_manifest(cfg, spec.domain), cfg.output_path + ".manifest")
    if cfg.emit_dat:
        write_dat(reports, os.path.splitext(cfg.output_path)[0] + ".dat")
    return reports


def eoc_summary(reports, fields=("sq_l2_v", "sq_l2_v_avg", "sq_linfty_l2", "sq_lp_s"),
                against=None):
    """Per-level and least-squares slopes of each field, one line per field.

    By default the slopes are fitted against ndof, or against tau when every
    report has the same ndof (a temporal sweep on one mesh).
    """
    if against is None:
        against = "tau" if len({r.ndof for r in reports}) == 1 else "ndof"
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
