import math
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pheat.experiments import (STUDIES, ConfigError, default_config, eoc_summary,
                               known_solution_fields, manufactured_p2_fields,
                               parse_config, run_experiment, validate_config)
from pheat import assembly, experiments
from pheat.constitutive import PLaplaceParams, s_flux
from pheat.error_metrics import read_csv
from pheat.fespace import build_space
from pheat.mesh import refine_to_level


def test_default_configs_valid():
    for exp in ("slit_constant_force", "rough_in_time", "known_solution",
                "p2_validation"):
        validate_config(default_config(exp))


def test_parse_roundtrip_and_comments():
    cfg = parse_config("""
        # a comment
        experiment = known_solution
        p = 3.0
        domain_variant = omega1   # trailing comment
        levels = 1:4, 2:8
        output_path = /tmp/x.csv
        emit_dat = true
    """)
    assert cfg.experiment == "known_solution"
    assert cfg.p == 3.0
    assert cfg.domain_variant == "omega1"
    assert cfg.levels == ((1, 4), (2, 8))
    assert cfg.emit_dat is True


def test_unknown_key_rejected():
    for key in ("whatever", "seed"):
        with pytest.raises(ConfigError):
            parse_config(f"experiment = known_solution\n{key} = 3\n")


def test_bad_values_rejected():
    with pytest.raises(ConfigError):
        parse_config("experiment = known_solution\np = one\n")
    with pytest.raises(ConfigError):
        parse_config("experiment = rough_in_time\nbeta = 1.0\n")
    with pytest.raises(ConfigError):
        parse_config("experiment = known_solution\nkappa = 0.5\n")
    with pytest.raises(ConfigError):
        parse_config("experiment = known_solution\np = 0.9\n")
    with pytest.raises(ConfigError):
        parse_config("experiment = nonsense\n")
    with pytest.raises(ConfigError):
        parse_config("experiment = known_solution\nnot a pair\n")
    # accepted before, then a traceback or a silent failure in the run
    for bad in ("tol = -1", "tol = nan", "quad_degree = 0", "quad_degree = 99",
                "kappa = nan", "p = inf", "p = nan"):
        with pytest.raises(ConfigError):
            parse_config(f"experiment = slit_constant_force\n{bad}\n")
    for beta in ("nan", "-inf"):  # -inf ran and wrote a row of zeros
        with pytest.raises(ConfigError):
            parse_config(f"experiment = rough_in_time\nbeta = {beta}\n")
    with pytest.raises(ConfigError):
        parse_config("experiment = p2_validation\np = 3\n")
    # an exact-reference study would refine up to L for nothing and record
    # a reference it never used in the manifest
    for exp in ("known_solution", "p2_validation"):
        with pytest.raises(ConfigError):
            parse_config(f"experiment = {exp}\nlevels = 1:4\nreference = 6:4:2\n")


def test_schedule_constraints():
    with pytest.raises(ConfigError):  # compared level above reference level
        parse_config("experiment = slit_constant_force\nlevels = 3:4\n"
                     "reference = 2:8:2\n")
    with pytest.raises(ConfigError):  # M does not divide M_ref
        parse_config("experiment = slit_constant_force\nlevels = 1:3\n"
                     "reference = 2:8:2\n")


def test_reference_degree_below_r_rejected():
    # a coarse function of degree r is exact on the reference space only if
    # the reference degree is at least r
    with pytest.raises(ConfigError):
        parse_config("experiment = slit_constant_force\nr = 3\nlevels = 1:4\n"
                     "reference = 2:8:2\n")
    cfg = parse_config("experiment = slit_constant_force\nr = 2\nlevels = 1:4\n"
                       "reference = 2:8:2\n")
    assert cfg.reference == (2, 8, 2)


def test_levels_parse_error_is_config_error():
    with pytest.raises(ConfigError):
        parse_config("experiment = known_solution\nlevels = 1-4\n")


def test_reference_parse_error_is_config_error():
    with pytest.raises(ConfigError):
        parse_config("experiment = slit_constant_force\nreference = 5:128\n")


@pytest.mark.parametrize("schedule", ["levels = 1:0", "levels = -1:4", "levels = 1:4, 2:-8",
                                      "levels = 1:4\nreference = 3:0:2"])
def test_schedule_needs_positive_m_and_nonnegative_levels(schedule):
    with pytest.raises(ConfigError):
        parse_config(f"experiment = slit_constant_force\n{schedule}\n")


def test_force_mode_validated():
    with pytest.raises(ConfigError):
        parse_config("experiment = known_solution\nforce_mode = pointvalue\n")
    cfg = parse_config("experiment = known_solution\nforce_mode = point_value\n")
    assert cfg.force_mode == "point_value"


_JUNK = st.text(max_size=12)
_VALUES = st.one_of(
    _JUNK,
    st.integers(-10 ** 6, 10 ** 6).map(str),
    st.floats().map(repr),
    st.sampled_from(["", "0", "1", "2", "3", "1.5", "nan", "inf", "-inf", "1e400", "yes",
                     "true", "1:4", "1:4, 2:8", "0:1 1:2", "1-4", "1:0", "-1:4", "1:4:",
                     "5:128", "5:32:2", "5:128:9", "2:8:2", "0:4:1", ":", "::",
                     "omega1", "omega2", "spatial", "temporal", "theta_average",
                     "point_value", *STUDIES]),
)
_LINES = st.one_of(
    st.tuples(st.one_of(st.sampled_from(sorted(experiments._KEY_PARSERS)), _JUNK),
              _VALUES).map(lambda kv: f"{kv[0]} = {kv[1]}"),
    _JUNK,
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.lists(_LINES, max_size=8).map("\n".join),
       st.sampled_from((None, *STUDIES)))
def test_config_fuzz_gives_config_or_config_error(text, base):
    # any config text either parses to a valid config or raises ConfigError
    try:
        cfg = parse_config(text, base=None if base is None else default_config(base))
        validate_config(cfg)
    except ConfigError:
        pass


def test_known_solution_cache_keeps_latest_array_only(rng):
    # both closed forms cache their spatial factors for the latest point
    # array only, and recompute them for every new array
    import weakref

    closed_forms = [
        (known_solution_fields(PLaplaceParams(p=1.5)),
         lambda pts: 3.0 * 0.5 * np.linalg.norm(pts, axis=-1) ** (1.0 / 3.0)),
        (manufactured_p2_fields(),
         lambda pts: np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1]) * np.exp(-0.25)),
    ]
    for (exact, force), expected_u in closed_forms:
        refs = []
        for k in range(40):
            pts = rng.uniform(0.1, 1.0, (16, 2))
            assert np.allclose(exact.u(pts, 0.25), expected_u(pts))
            exact.grad_u(pts, 0.25)
            force(pts, 0.25)
            refs.append(weakref.ref(pts))
            del pts
        assert sum(ref() is not None for ref in refs) == 1


def test_closed_form_memo_is_thread_safe(rng):
    # two threads evaluate one closed form on two point arrays and get the
    # serial values.  Thread A is held inside its memoized computation while
    # thread B evaluates on its own array; a memo that then stored A's
    # factors in B's entry would hand them to B's next evaluation
    import threading

    inside, b_done = threading.Event(), threading.Event()

    class Held(np.ndarray):
        # indexing A's points, inside the memoized computation, waits for B
        def __getitem__(self, index):
            inside.set()
            b_done.wait(timeout=60.0)
            return np.asarray(self)[index]

    exact, force = manufactured_p2_fields()
    pts_a, pts_b = rng.uniform(0.0, 1.0, (48, 2)), rng.uniform(0.0, 1.0, (80, 2))
    serial = {"a": exact.u(pts_a, 0.5), "b": exact.u(pts_b, 0.5),
              "b again": force(pts_b, 0.5)}
    got = {}

    def run(name, evaluate, pts):
        thread = threading.Thread(target=lambda: got.update({name: evaluate(pts, 0.5)}))
        thread.start()
        return thread

    a = run("a", exact.u, pts_a.view(Held))
    assert inside.wait(timeout=60.0)
    b = run("b", exact.u, pts_b)
    b.join(timeout=60.0)
    b_done.set()
    a.join(timeout=60.0)
    b_again = run("b again", force, pts_b)
    b_again.join(timeout=60.0)
    assert not any(t.is_alive() for t in (a, b, b_again))
    assert sorted(got) == sorted(serial)
    for name, values in serial.items():
        assert np.array_equal(got[name], values), name


def test_known_solution_force_divergence_oracle(rng):
    # f = du/dt - div S(grad u) checked by central finite differences at
    # random space-time points, for both exponents used in the studies
    for p in (1.5, 3.0):
        params = PLaplaceParams(p=p, kappa=0.0)
        exact, force = known_solution_fields(params)
        h = 1e-6
        for _ in range(100):
            x = rng.uniform(1.2, 2.8), rng.uniform(-0.8, 0.8)
            t = float(rng.uniform(0.2, 0.9) * rng.choice([-1.0, 1.0]))
            pt = np.array([x])

            def S(xx, yy):
                return s_flux(exact.grad_u(np.array([[xx, yy]]), t), params)[0]

            div_s = ((S(x[0] + h, x[1])[0] - S(x[0] - h, x[1])[0])
                     + (S(x[0], x[1] + h)[1] - S(x[0], x[1] - h)[1])) / (2 * h)
            dudt = float(exact.u(pt, t + h)[0] - exact.u(pt, t - h)[0]) / (2 * h)
            fd = dudt - div_s
            val = float(force(pt, t)[0])
            assert val == pytest.approx(fd, rel=1e-5)


def _smooth_fields(p):
    """u = e^(-t) (sin(pi x/2) + 2y) on the unit square, kappa = 0: grad u =
    e^(-t) (a, 2) with a = (pi/2) cos(pi x/2), so |grad u| >= 2/e and S is
    smooth for every p; f = du/dt - div S(grad u), the two separable terms
    -e^(-t) U(x) and e^(-(p-1)t) times -div S(grad U)."""
    from pheat.error_metrics import ExactSolution
    from pheat.timestepper import SeparableForce

    def grad_profile(pts):
        a = 0.5 * np.pi * np.cos(0.5 * np.pi * pts[:, 0])
        return np.stack([a, np.full_like(a, 2.0)], axis=-1)

    def profile(pts):
        return np.sin(0.5 * np.pi * pts[:, 0]) + 2.0 * pts[:, 1]

    def minus_div_s(pts):
        a = 0.5 * np.pi * np.cos(0.5 * np.pi * pts[:, 0])
        da = -(0.5 * np.pi) ** 2 * np.sin(0.5 * np.pi * pts[:, 0])
        g2 = a ** 2 + 4.0
        return -da * g2 ** (0.5 * p - 2.0) * (g2 + (p - 2.0) * a ** 2)

    exact = ExactSolution(profile=profile, profile_grad=grad_profile,
                          amplitude=lambda t: math.exp(-t))
    force = SeparableForce(terms=((lambda pts: -profile(pts), lambda t: math.exp(-t)),
                                  (minus_div_s, lambda t: math.exp(-(p - 1.0) * t))))
    return exact, force


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_smooth_nonlinear_solution_converges_at_the_optimal_rate(p, rng):
    # the V-errors of a smooth p != 2 solution fall like h + tau (squared:
    # like ndof^-1 with tau ~ h); the max-in-time error is not asserted, as
    # its last step, with time-dependent Dirichlet data, falls at half order
    from pheat.error_metrics import compute_error_report, empirical_order
    from pheat.timestepper import ProblemSpec, TimeGrid, solve_evolution

    params = PLaplaceParams(p=p, kappa=0.0)
    exact, force = _smooth_fields(p)
    pts, t, h = rng.uniform(0.1, 0.9, (20, 2)), 0.3, 1e-5
    flux = [s_flux(exact.grad_u(pts + d, t), params)
            for d in ([h, 0], [-h, 0], [0, h], [0, -h])]
    div_s = (flux[0][:, 0] - flux[1][:, 0] + flux[2][:, 1] - flux[3][:, 1]) / (2 * h)
    dudt = (exact.u(pts, t + h) - exact.u(pts, t - h)) / (2 * h)
    assert np.allclose(force(pts, t), dudt - div_s, rtol=1e-6, atol=1e-6)

    spec = ProblemSpec(params=params, domain="unit_square", force=force,
                       initial=lambda x: exact.u(x, 0.0), boundary=exact.u)
    reports, reused = [], 0
    for level, M in ((2, 4), (3, 8), (4, 16), (5, 32)):
        traj = solve_evolution(spec, build_space(refine_to_level("unit_square", level), 1),
                               TimeGrid(0.0, 1.0, M))
        assert all(rep.converged for rep in traj.newton_reports)
        reused += sum(rep.reused_moves for rep in traj.newton_reports)
        reports.append(compute_error_report(traj, exact, params))
    assert reused > 0
    for field in ("sq_l2_v", "sq_l2_v_avg", "sq_lp_s"):
        assert -1.25 <= empirical_order(reports, field).ls_slope <= -0.75, field


def test_known_solution_gradient_consistency(rng):
    for p in (1.5, 3.0):
        params = PLaplaceParams(p=p, kappa=0.0)
        exact, _ = known_solution_fields(params)
        pts = np.column_stack([rng.uniform(1.2, 2.8, 50), rng.uniform(-0.8, 0.8, 50)])
        t = 0.7
        h = 1e-6
        gx = (exact.u(pts + [h, 0], t) - exact.u(pts - [h, 0], t)) / (2 * h)
        gy = (exact.u(pts + [0, h], t) - exact.u(pts - [0, h], t)) / (2 * h)
        grad = exact.grad_u(pts, t)
        assert np.allclose(grad[:, 0], gx, rtol=1e-6)
        assert np.allclose(grad[:, 1], gy, rtol=1e-6)
        # V and S of a(t) grad U are scalar multiples of V(grad U) and
        # S(grad U), which the exact error pass relies on
        from pheat.constitutive import v_transform
        a, grad_profile = exact.amplitude(t), exact.profile_grad(pts)
        assert np.allclose(v_transform(grad, params), abs(a) ** (0.5 * p - 1.0) * a
                           * v_transform(grad_profile, params), rtol=1e-12)
        assert np.allclose(s_flux(grad, params), abs(a) ** (p - 2.0) * a
                           * s_flux(grad_profile, params), rtol=1e-12)


def test_manufactured_p2_force(rng):
    exact, force = manufactured_p2_fields()
    h = 1e-6
    pts = np.column_stack([rng.uniform(0.1, 0.9, 20), rng.uniform(0.1, 0.9, 20)])
    t = 0.4
    dudt = (exact.u(pts, t + h) - exact.u(pts, t - h)) / (2 * h)
    lap = (exact.u(pts + [h, 0], t) + exact.u(pts - [h, 0], t)
           + exact.u(pts + [0, h], t) + exact.u(pts - [0, h], t)
           - 4 * exact.u(pts, t)) / h ** 2
    assert np.allclose(force(pts, t), dudt - lap, rtol=1e-3)


def _tiny_known_solution_cfg(tmp_path, name="run.csv"):
    cfg = default_config("known_solution")
    cfg.levels = ((1, 4), (2, 8))
    cfg.output_path = str(tmp_path / name)
    return cfg


def test_bitwise_deterministic_csv(tmp_path):
    cfg1 = _tiny_known_solution_cfg(tmp_path, "a.csv")
    run_experiment(cfg1)
    cfg2 = _tiny_known_solution_cfg(tmp_path, "b.csv")
    run_experiment(cfg2)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_rows_of_one_level_share_the_projection_and_exact_fields(tmp_path, monkeypatch):
    # the rows of one level project the initial datum once and evaluate the
    # closed-form profile fields once, with reports bitwise equal to rows
    # solved and compared one by one
    from dataclasses import replace

    from pheat import timestepper
    from pheat.error_metrics import compute_error_report
    from pheat.timestepper import TimeGrid, solve_evolution

    cfg = parse_config(f"experiment = p2_validation\nlevels = 3:4, 3:8\n"
                       f"output_path = {tmp_path / 'r.csv'}\n")
    projections, profiles, gradients = [], [], []
    project, fields = timestepper.l2_project, experiments.manufactured_p2_fields

    def counted_fields():
        exact, force = fields()
        return replace(exact, profile=lambda pts: profiles.append(1) or exact.profile(pts),
                       profile_grad=lambda pts: gradients.append(1) or exact.profile_grad(pts)
                       ), force

    monkeypatch.setattr(timestepper, "l2_project",
                        lambda *a, **k: projections.append(1) or project(*a, **k))
    monkeypatch.setattr(experiments, "manufactured_p2_fields", counted_fields)
    reports = run_experiment(cfg)
    # U: once by the projected initial datum, once on the error rule
    assert (len(projections), len(profiles), len(gradients)) == (1, 2, 1)
    monkeypatch.undo()

    spec, exact = experiments.build_spec(cfg)
    t0, t_end = STUDIES[cfg.experiment].interval
    rows = []
    for lvl, M in cfg.levels:
        traj = solve_evolution(spec, build_space(refine_to_level(spec.domain, lvl), cfg.r),
                               TimeGrid(t0, t_end, M), tol=cfg.tol)
        rows.append(compute_error_report(traj, exact, cfg.params))
    assert [repr(r) for r in reports] == [repr(r) for r in rows]


def test_manifest_written(tmp_path):
    cfg = _tiny_known_solution_cfg(tmp_path)
    run_experiment(cfg)
    manifest = (tmp_path / "run.csv.manifest").read_text()
    for key in ("experiment", "p", "kappa", "r", "levels", "initial", "newton_tol"):
        assert f"{key} = " in manifest
    # the point count tells the symmetric degree-8 rule from the 25-point one
    assert "error_quadrature_degree = 8\n" in manifest
    assert "error_quadrature_points = 16\n" in manifest
    rows = read_csv(tmp_path / "run.csv")
    assert len(rows) == 2
    assert rows[0]["ndof"] < rows[1]["ndof"]


def test_emit_dat(tmp_path):
    cfg = _tiny_known_solution_cfg(tmp_path)
    cfg.emit_dat = True
    run_experiment(cfg)
    assert (tmp_path / "run.dat").exists()


def test_emit_dat_onto_the_csv_rejected(tmp_path):
    # the .dat copy of out.dat is out.dat itself: it replaced the CSV
    text = ("experiment = p2_validation\nlevels = 1:2, 2:4\n"
            f"output_path = {tmp_path / 'out.dat'}\nemit_dat = true\n")
    with pytest.raises(ConfigError):
        parse_config(text)
    cfgfile = tmp_path / "dat.cfg"
    cfgfile.write_text(text)
    r = _cli("run", "p2_validation", "--config", str(cfgfile))
    assert r.returncode == 2 and "config error" in r.stderr
    assert not (tmp_path / "out.dat").exists()


def test_known_solution_point_value_finite_at_t0(tmp_path):
    # an even M puts a grid node on t = 0, where the force's signed term
    # sgn(t)|t|^(-1/2) takes its odd value 0 and the other term vanishes
    _, force = known_solution_fields(PLaplaceParams(p=1.5))
    pts = np.array([[1.5, 0.5], [2.0, -0.5]])
    assert np.array_equal(force(pts, 0.0), [0.0, 0.0])
    cfg = _tiny_known_solution_cfg(tmp_path)
    cfg.force_mode = "point_value"
    cfg.levels = ((1, 2),)
    run_experiment(cfg)
    row = read_csv(tmp_path / "run.csv")[0]
    assert all(math.isfinite(v) for v in row.values())


def test_eoc_summary_format(tmp_path):
    cfg = _tiny_known_solution_cfg(tmp_path)
    reports = run_experiment(cfg)
    text = eoc_summary(reports)
    assert "sq_l2_v" in text and "LS" in text


def test_every_step_converges_across_the_solver_matrix(monkeypatch):
    # P1 rows of the default schedules up to level 3, without the discrete
    # references, and a decay towards zero gradients: the implicit Euler step
    # is solved for every p > 1 in the matrix, and every line-search move it
    # accepts lowers the step energy
    from pheat import timestepper
    from pheat.timestepper import (ConstantForce, NonConvergence, ProblemSpec, TimeGrid,
                                   solve_evolution)

    armijo, pcg_attempt, changes, pcg = timestepper._armijo, assembly.pcg_attempt, [], []

    def line_search(*args):
        move = armijo(*args)
        if move is not None:
            changes.append(move[1])
        return move

    def pcg_solve(A, b, lu, rtol, maxiter):  # records each PCG direction's report
        x, rep = pcg_attempt(A, b, lu, rtol, maxiter)
        if x is not None:
            pcg.append((rep, rtol, maxiter))
        return x, rep

    monkeypatch.setattr(timestepper, "_armijo", line_search)
    monkeypatch.setattr(assembly, "pcg_attempt", pcg_solve)
    runs = []
    for p in (1.1, 1.2, 1.5, 3.0, 4.5):
        for name, variant in (("slit_constant_force", ""), ("rough_in_time", ""),
                              ("known_solution", "omega1"), ("known_solution", "omega2")):
            cfg = default_config(name)
            cfg.p, cfg.domain_variant = p, variant or cfg.domain_variant
            spec, _ = experiments.build_spec(cfg)
            t0, t_end = STUDIES[name].interval
            runs += [(f"p = {p}, {name} {variant}, L{level} M{M}", spec, level, t0, t_end, M)
                     for level, M in cfg.levels if level <= 3]
    decay = ProblemSpec(params=PLaplaceParams(p=1.5), domain="unit_square",
                        force=ConstantForce(0.0),
                        initial=lambda pts: np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1]))
    runs.append(("decay, p = 1.5", decay, 2, 0.0, 0.5, 4))
    for label, spec, level, t0, t_end, M in runs:
        try:
            traj = solve_evolution(spec, build_space(refine_to_level(spec.domain, level), 1),
                                   TimeGrid(t0, t_end, M))
        except NonConvergence as exc:
            pytest.fail(f"{label}: {exc}")
        # each accepted move books one energy, and the energy sequence never rises
        for m, rep in enumerate(traj.newton_reports, 1):
            energies = rep.energy_values
            assert len(energies) - 1 <= rep.iterations, (label, m)
            assert rep.reused_moves <= rep.iterations, (label, m)
            assert all(b <= a for a, b in zip(energies, energies[1:])), (label, m)
    assert changes and all(change < 0.0 for change in changes)
    # every PCG direction met its tolerance within its iteration cap
    assert pcg and all(rep.relative_residual <= rtol and 1 <= rep.iterations <= cap
                       for rep, rtol, cap in pcg)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def _cli(*args):
    return subprocess.run([sys.executable, "-m", "pheat.cli", *args],
                          capture_output=True, text=True)


def test_cli_run_and_eoc(tmp_path):
    cfgfile = tmp_path / "omega2.cfg"
    out = tmp_path / "res.csv"
    cfgfile.write_text("experiment = known_solution\n"
                       "p = 3.0\n"
                       "levels = 1:4, 2:8, 3:16\n"
                       f"output_path = {out}\n")
    r = _cli("run", "known_solution", "--config", str(cfgfile))
    assert r.returncode == 0, r.stderr
    rows = read_csv(out)
    assert len(rows) == 3

    r = _cli("eoc", str(out), "--field", "sqVerr")
    assert r.returncode == 0
    assert "least-squares" in r.stderr
    float(r.stdout.strip())  # machine-readable slope on stdout


def test_cli_run_temporal_sweep_prints_finite_slopes(tmp_path, capsys):
    # every row has the same mesh, so the printed slopes are fitted against tau
    from pheat.cli import main

    cfgfile = tmp_path / "temporal.cfg"
    cfgfile.write_text("experiment = p2_validation\nsweep = temporal\n"
                       f"levels = 2:2, 2:4, 2:8\noutput_path = {tmp_path / 't.csv'}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "p2_validation", "--config", str(cfgfile)]) == 0
    fits = [line for line in capsys.readouterr().err.splitlines() if "per-level" in line]
    assert len(fits) == 4
    for line in fits:
        slopes = line.split(":", 1)[1]
        values = [float(v) for v in re.findall(r"[-+]?(?:\d+\.\d+|inf|nan)", slopes)]
        assert len(values) == 3 and all(math.isfinite(v) for v in values), line


def test_cli_run_known_solution_at_p_1_2(tmp_path):
    from pheat.cli import main

    cfgfile = tmp_path / "p12.cfg"
    cfgfile.write_text("experiment = known_solution\np = 1.2\nlevels = 1:4, 2:8\n"
                       f"output_path = {tmp_path / 'p12.csv'}\n")
    assert main(["run", "known_solution", "--config", str(cfgfile)]) == 0
    assert len(read_csv(tmp_path / "p12.csv")) == 2


def test_cli_out_of_memory_is_one_line_exit_1(tmp_path, monkeypatch, capsys):
    # a schedule row too large for memory (levels = 1:1000000000000 fails on
    # the boundary data), or a mesh too fine, is reported like a solver
    # failure, not a traceback; the solves and the refinement are replaced, so
    # nothing large is allocated here
    from pheat import cli

    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(experiments, "run_experiment", out_of_memory)
    monkeypatch.setattr(cli, "solve_evolution", out_of_memory)
    monkeypatch.setattr(cli, "refine_to_level", out_of_memory)
    cfgfile = tmp_path / "p2.cfg"
    cfgfile.write_text(f"experiment = p2_validation\nlevels = 1:2\n"
                       f"output_path = {tmp_path / 'p2.csv'}\n")
    mesh = tmp_path / "m.txt"
    for args in (["run", "p2_validation", "--config", str(cfgfile)],
                 ["dump-solution", "--out", str(tmp_path / "t"), "--config", str(cfgfile)],
                 ["dump-mesh", "--domain", "slit", "--level", "10", "--out", str(mesh)]):
        assert cli.main(args) == 1, args
        assert capsys.readouterr().err == "solver failure: out of memory\n", args
    assert not mesh.exists()


def test_cli_run_out_of_memory_in_the_factorization_is_one_line_exit_1(tmp_path, monkeypatch,
                                                                       capsys):
    # every SPD solve factors with SuperLU, at any size: a system too large
    # to factor ends in the MemoryError SciPy's SuperLU raises, which a real
    # run reports as one line
    from pheat import assembly, cli

    def out_of_memory(*args, **kwargs):
        raise MemoryError("Not enough memory to perform factorization.")

    monkeypatch.setattr(assembly.spla, "splu", out_of_memory)
    out = tmp_path / "slit.csv"
    cfgfile = tmp_path / "slit.cfg"
    cfgfile.write_text(f"experiment = slit_constant_force\nlevels = 1:2\n"
                       f"reference = 2:4:1\noutput_path = {out}\n")
    assert cli.main(["run", "slit_constant_force", "--config", str(cfgfile)]) == 1
    assert capsys.readouterr().err == "solver failure: out of memory\n"
    assert not out.exists()


def test_cli_bad_config_exit_2(tmp_path):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("experiment = known_solution\nbogus = 1\n")
    r = _cli("run", "known_solution", "--config", str(cfgfile))
    assert r.returncode == 2
    r = _cli("run", "known_solution", "--config", str(tmp_path / "missing.cfg"))
    assert r.returncode == 2


def test_cli_non_utf8_config_exit_2(tmp_path):
    cfgfile = tmp_path / "latin.cfg"
    cfgfile.write_bytes(b"experiment = known_solution\n\xff\xfe = 1\n")
    for args in (("run", "known_solution"), ("dump-solution", "--out", str(tmp_path / "t"))):
        r = _cli(*args, "--config", str(cfgfile))
        assert r.returncode == 2, args
        assert "config error" in r.stderr and "Traceback" not in r.stderr, args


def test_cli_run_reports_an_experiment_mismatch_first(tmp_path, capsys):
    # a config naming another experiment than the command line is reported as
    # such, before the merged config (the command line's study defaults plus
    # the file) is validated, for every pair of experiments
    from pheat.cli import main

    cfgfile = tmp_path / "other.cfg"
    for named in STUDIES:
        cfgfile.write_text(f"experiment = {named}\n")
        for run in STUDIES:
            if run != named:
                assert main(["run", run, "--config", str(cfgfile)]) == 2
                err = capsys.readouterr().err
                assert f"config names experiment {named!r}, expected {run!r}" in err
    cfgfile.write_text("experiment = known_solution\n")
    r = _cli("run", "slit_constant_force", "--config", str(cfgfile))
    assert r.returncode == 2 and "Traceback" not in r.stderr
    assert "names experiment 'known_solution'" in r.stderr and "reference" not in r.stderr


def test_cli_unwritable_output_exit_2_before_any_solve(tmp_path, monkeypatch, capsys):
    from pheat.cli import main

    solves = []
    real_solve = experiments.solve_evolution
    monkeypatch.setattr(experiments, "solve_evolution",
                        lambda *a, **k: solves.append(1) or real_solve(*a, **k))
    cfgfile = tmp_path / "p2.cfg"
    cfgfile.write_text("experiment = p2_validation\nlevels = 1:2\n"
                       f"output_path = {tmp_path / 'missing' / 'x.csv'}\n")
    assert main(["run", "p2_validation", "--config", str(cfgfile)]) == 2
    assert solves == [] and "config error" in capsys.readouterr().err
    r = _cli("run", "p2_validation", "--config", str(cfgfile))
    assert r.returncode == 2 and "Traceback" not in r.stderr

    # a directory exists but the CSV itself cannot be written
    (tmp_path / "taken.csv").mkdir()
    cfgfile.write_text("experiment = p2_validation\nlevels = 1:2\n"
                       f"output_path = {tmp_path / 'taken.csv'}\n")
    assert main(["run", "p2_validation", "--config", str(cfgfile)]) == 2
    assert solves and "output error" in capsys.readouterr().err


def test_cli_run_without_schedule_exit_2(tmp_path):
    # an unknown experiment is a config error, not a traceback
    r = _cli("run", "custom")
    assert r.returncode == 2
    assert "invalid choice" in r.stderr and "Traceback" not in r.stderr
    cfgfile = tmp_path / "custom.cfg"
    cfgfile.write_text("experiment = custom\nlevels = 1:2\n")
    r = _cli("dump-solution", "--config", str(cfgfile), "--out", str(tmp_path / "traj"))
    assert r.returncode == 2
    assert "config error" in r.stderr and "Traceback" not in r.stderr


def test_cli_dump_mesh(tmp_path):
    out = tmp_path / "mesh.txt"
    r = _cli("dump-mesh", "--domain", "slit", "--level", "1", "--out", str(out))
    assert r.returncode == 0
    header = out.read_text().splitlines()[0]
    assert header.startswith("vertices ") and "triangles" in header
    r = _cli("dump-mesh", "--domain", "dodecahedron", "--out", str(out))
    assert r.returncode == 2


def test_cli_dump_mesh_unwritable_out_exit_2(tmp_path):
    out = tmp_path / "missing" / "m.txt"
    r = _cli("dump-mesh", "--domain", "slit", "--out", str(out))
    assert r.returncode == 2
    assert "output error" in r.stderr and "Traceback" not in r.stderr


def test_mesh_level_above_the_bound_is_a_config_error(tmp_path, monkeypatch, capsys):
    # a level past MAX_LEVEL is refused before any refinement, in a config and
    # on the command line; refinement is replaced, so a missing bound fails
    # here by refining instead of growing a mesh until memory runs out
    from pheat import cli, mesh

    def refined(*args):
        raise AssertionError("a mesh was refined")

    monkeypatch.setattr(experiments, "refine_uniform", refined)
    monkeypatch.setattr(mesh, "refine_uniform", refined)
    cfg = default_config("p2_validation")
    cfg.levels = ((mesh.MAX_LEVEL, 2),)
    validate_config(cfg)
    cfg.levels = ((mesh.MAX_LEVEL + 1, 2),)
    with pytest.raises(ConfigError, match=r"need mesh level in \[0, 10\]"):
        run_experiment(cfg)
    cfgfile = tmp_path / "deep.cfg"
    for level in (mesh.MAX_LEVEL + 1, 99999999999999999999):
        cfgfile.write_text(f"experiment = p2_validation\nlevels = {level}:2\n"
                           f"output_path = {tmp_path / 'deep.csv'}\n")
        assert cli.main(["run", "p2_validation", "--config", str(cfgfile)]) == 2
        assert capsys.readouterr().err == ("config error: need mesh level in [0, 10] and "
                                           f"M >= 1, got {level}:2\n")
        out = tmp_path / "m.txt"
        assert cli.main(["dump-mesh", "--domain", "slit", "--level", str(level),
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: level must be in [0, 10], got {level}\n"
        assert not out.exists()


def test_cli_dump_mesh_negative_level_exit_2(tmp_path):
    out = tmp_path / "m.txt"
    r = _cli("dump-mesh", "--domain", "slit", "--level", "-1", "--out", str(out))
    assert r.returncode == 2
    assert "config error" in r.stderr and not out.exists()


def test_cli_dump_solution_out_is_a_file_exit_2_before_any_solve(tmp_path, monkeypatch,
                                                                  capsys):
    from pheat import cli

    solves = []
    monkeypatch.setattr(cli, "solve_evolution", lambda *a, **k: solves.append(1))
    cfgfile = tmp_path / "p2.cfg"
    cfgfile.write_text("experiment = p2_validation\nlevels = 1:2\n")
    taken = tmp_path / "taken"
    taken.write_text("")
    assert cli.main(["dump-solution", "--config", str(cfgfile), "--out", str(taken)]) == 2
    assert solves == [] and "output error" in capsys.readouterr().err
    r = _cli("dump-solution", "--config", str(cfgfile), "--out", str(taken))
    assert r.returncode == 2 and "Traceback" not in r.stderr


def test_cli_dump_solution(tmp_path):
    cfgfile = tmp_path / "p2.cfg"
    cfgfile.write_text("experiment = p2_validation\nlevels = 1:2\n")
    outdir = tmp_path / "traj"
    r = _cli("dump-solution", "--config", str(cfgfile), "--out", str(outdir))
    assert r.returncode == 0, r.stderr
    assert (outdir / "trajectory.manifest").exists()
    assert (outdir / "snapshot_00002.txt").exists()


def test_cli_dump_solution_clears_earlier_snapshots(tmp_path):
    from pheat.cli import main

    outdir = tmp_path / "traj"
    for levels in ("1:4", "1:2"):
        cfgfile = tmp_path / "p2.cfg"
        cfgfile.write_text(f"experiment = p2_validation\nlevels = {levels}\n")
        assert main(["dump-solution", "--config", str(cfgfile), "--out", str(outdir)]) == 0
    snapshots = sorted(p.name for p in outdir.glob("snapshot_*.txt"))
    assert snapshots == [f"snapshot_{m:05d}.txt" for m in range(3)]
    assert len((outdir / "trajectory.manifest").read_text().splitlines()) == 3


def test_cli_dump_solution_solves_the_runner_spec(tmp_path):
    # dump-solution must solve the problem `pheat run` solves, force_mode included
    from pheat.cli import main
    from pheat.experiments import build_spec
    from pheat.timestepper import TimeGrid, solve_evolution

    text = ("experiment = rough_in_time\nforce_mode = point_value\n"
            "levels = 1:4\nreference = 2:8:2\n")
    cfgfile = tmp_path / "rough.cfg"
    cfgfile.write_text(text)
    outdir = tmp_path / "traj"
    assert main(["dump-solution", "--config", str(cfgfile), "--out", str(outdir)]) == 0

    spec, exact = build_spec(parse_config(text))
    assert spec.force_mode == "point_value" and exact is None
    traj = solve_evolution(spec, build_space(refine_to_level(spec.domain, 1), 1),
                           TimeGrid(-0.1, 0.1, 4))
    for m, snap in enumerate(traj.snapshots):
        dumped = np.loadtxt(outdir / f"snapshot_{m:05d}.txt", skiprows=1)
        assert np.array_equal(dumped, snap.coeffs), m

