import numpy as np
import pytest

from pheat.constitutive import PLaplaceParams, s_flux
from pheat.error_metrics import (CSV_HEADER, ErrorReport, ExactSolution,
                                 IncompatibleHierarchy, InsufficientData,
                                 compute_error_report, empirical_order, read_csv,
                                 v_error_breakdown, write_csv, write_dat)
from pheat.fespace import FeFunction, build_space, gauss_segments, quadrature
from pheat.mesh import make_initial_mesh, refine_to_level
from pheat.timestepper import (ConstantForce, ProblemSpec, TimeGrid, Trajectory,
                               solve_evolution)


def _zero_traj(level, M, degree=1, domain="unit_square"):
    params = PLaplaceParams(p=1.5, kappa=0.0)
    spec = ProblemSpec(params=params, domain=domain, force=ConstantForce(0.0))
    return solve_evolution(spec, level, degree, TimeGrid(0.0, 1.0, M)), params


def test_reference_equals_run_degenerate_config():
    # zero force, zero data: the trajectory is identically zero; comparing the
    # run against itself as a discrete reference gives zero for every metric
    traj, params = _zero_traj(1, 4)
    rep = compute_error_report(traj, traj, traj.grid, params)
    assert rep.sq_linfty_l2 == 0.0
    assert rep.sq_l2_v == 0.0 and rep.sq_l2_v_avg == 0.0
    assert rep.sq_lp_s == 0.0


def test_exact_constant_reference_zero_error():
    params = PLaplaceParams(p=2.0, kappa=0.0)
    space = build_space(refine_to_level("unit_square", 1), 1)
    grid = TimeGrid(0.0, 1.0, 3)
    snaps = [FeFunction(space, np.full(space.ndof, 2.5)) for _ in range(4)]
    traj = Trajectory(space=space, grid=grid, snapshots=snaps, newton_reports=[])
    ref = ExactSolution(u=lambda pts, t: np.full(len(pts), 2.5),
                        grad_u=lambda pts, t: np.zeros((len(pts), 2)))
    rep = compute_error_report(traj, ref, grid, params)
    assert rep.sq_linfty_l2 < 1e-24
    assert rep.sq_l2_v < 1e-24 and rep.sq_l2_v_avg < 1e-24


def test_one_versus_zero_unit_square():
    params = PLaplaceParams(p=2.0, kappa=0.0)
    space = build_space(refine_to_level("unit_square", 0), 1)
    grid = TimeGrid(0.0, 1.0, 2)
    snaps = [FeFunction(space, np.ones(space.ndof)) for _ in range(3)]
    traj = Trajectory(space=space, grid=grid, snapshots=snaps, newton_reports=[])
    ref = ExactSolution(u=lambda pts, t: np.zeros(len(pts)),
                        grad_u=lambda pts, t: np.zeros((len(pts), 2)))
    assert compute_error_report(traj, ref, grid, params).sq_linfty_l2 == pytest.approx(
        1.0, abs=1e-13)


def _smooth_run(level=2, M=4):
    from pheat.experiments import manufactured_p2_fields

    exact, force = manufactured_p2_fields()
    params = PLaplaceParams(p=2.0, kappa=0.0)
    spec = ProblemSpec(params=params, domain="unit_square", force=force,
                       initial=lambda pts: exact.u(pts, 0.0))
    grid = TimeGrid(0.0, 1.0, M)
    return solve_evolution(spec, level, 1, grid), exact, grid, params


def test_p2_v_error_equals_gradient_error():
    # V = identity at p = 2, kappa = 0: cross-check against an independently
    # coded H1-seminorm error accumulation
    traj, exact, grid, params = _smooth_run()
    space = traj.space
    v = compute_error_report(traj, exact, grid, params).sq_l2_v

    rule = quadrature(8)
    pts = space.physical_points(rule)
    flat = pts.reshape(-1, 2)
    total = 0.0
    for m in range(1, grid.M + 1):
        grad_h = space.grad_at(rule, traj.snapshots[m].coeffs)
        nodes, weights = gauss_segments(grid.window_subintervals(m))
        for s, w in zip(nodes, weights):
            d = grad_h - np.asarray(exact.grad_u(flat, s)).reshape(grad_h.shape)
            total += w * space.integrate(rule, np.sum(d * d, axis=-1))
    assert v == pytest.approx(total, rel=1e-10)


def _per_node_errors(traj, exact, grid, params):
    """The four CSV quantities from a plain loop over windows and 5-point
    Gauss time nodes, with the time axis split at exact.t_singular."""
    from numpy.polynomial.legendre import leggauss

    from pheat.constitutive import v_transform

    space = traj.space
    rule = quadrature(8)
    flat = space.physical_points(rule).reshape(-1, 2)
    weights = (space.areas[:, None] * rule.weights).reshape(-1)
    xg, wg = leggauss(5)
    pp = params.p_conjugate

    def integral(values):
        return float(np.sum(weights * values))

    def sq(vectors):
        return np.sum(vectors ** 2, axis=-1)

    def v_s(s):
        grad = exact.grad_u(flat, s)
        v = exact.v_of_grad(flat, s) if exact.v_of_grad else v_transform(grad, params)
        return v, (exact.s_of_grad(flat, s) if exact.s_of_grad else s_flux(grad, params))

    linfty = sq_v = sq_v_avg = raw = 0.0
    for m in range(1, grid.M + 1):
        coeffs = traj.snapshots[m].coeffs
        uh = space.eval_at(rule, coeffs).reshape(-1)
        gh = space.grad_at(rule, coeffs).reshape(-1, 2)
        vh, sh = v_transform(gh, params), s_flux(gh, params)
        u_int, v_int, s_int = 0.0, 0.0, 0.0
        for lo, hi in grid.window_subintervals(m):
            cuts = [lo, hi]
            if exact.t_singular is not None and lo < exact.t_singular < hi:
                cuts = [lo, exact.t_singular, hi]
            for a, b in zip(cuts, cuts[1:]):
                for x, w in zip(xg, wg):
                    s, w = 0.5 * (a + b) + 0.5 * (b - a) * x, 0.5 * (b - a) * w
                    v, S = v_s(s)
                    sq_v += w * integral(sq(vh - v))
                    u_int, v_int, s_int = u_int + w * exact.u(flat, s), v_int + w * v, s_int + w * S
        length = grid.window_length(m)
        linfty = max(linfty, integral((uh - u_int / length) ** 2))
        sq_v_avg += grid.tau * integral(sq(vh - v_int / length))
        raw += grid.tau * integral(sq(sh - s_int / length) ** (pp / 2.0))
    return dict(sq_linfty_l2=linfty, sq_l2_v=sq_v, sq_l2_v_avg=sq_v_avg, raw_lp_sum=raw)


@pytest.mark.parametrize("experiment, grid, closed_forms", [
    ("known_solution", TimeGrid(-1.0, 1.0, 5), True),    # windows straddle t = 0
    ("known_solution", TimeGrid(-1.0, 1.0, 5), False),   # V, S derived from grad u
    ("p2_validation", TimeGrid(0.0, 1.0, 4), False),
])
def test_exact_pass_matches_per_node_loop(experiment, grid, closed_forms):
    from dataclasses import replace

    from pheat.experiments import build_spec, default_config

    cfg = default_config(experiment)
    spec, exact = build_spec(cfg)
    if not closed_forms:
        exact = replace(exact, v_of_grad=None, s_of_grad=None)
    traj = solve_evolution(spec, 2, 1, grid)
    report = compute_error_report(traj, exact, grid, cfg.params)
    expected = _per_node_errors(traj, exact, grid, cfg.params)
    for field, value in expected.items():
        assert getattr(report, field) == pytest.approx(value, rel=1e-12, abs=0.0), field


def test_orthogonal_window_decomposition():
    traj, exact, grid, params = _smooth_run(level=2, M=5)
    br = v_error_breakdown(traj, exact, grid, params)
    recomposed = float(np.sum(br.window_lengths * br.per_window_avg_sq) + br.fluctuation)
    assert br.sq_l2_v == pytest.approx(recomposed, rel=1e-8)
    assert br.sq_l2_v >= br.sq_l2_v_avg
    assert br.fluctuation >= 0.0
    # the averaged variant uses the printed tau weights
    assert br.sq_l2_v_avg == pytest.approx(grid.tau * br.per_window_avg_sq.sum(),
                                           rel=1e-13)


def test_lp_s_reduces_to_v_avg_at_p2():
    traj, exact, grid, params = _smooth_run()
    rep = compute_error_report(traj, exact, grid, params)
    assert rep.sq_lp_s == pytest.approx(rep.sq_l2_v_avg, rel=1e-10)


def test_lp_s_constant_field_closed_form():
    # single-element constant gradients: the integrand is |S(P) - S(Q)|^p' |Omega|
    params = PLaplaceParams(p=1.5, kappa=0.0)
    pprime = params.p_conjugate
    mesh = make_initial_mesh("unit_square")
    space = build_space(mesh, 1)
    grid = TimeGrid(0.0, 1.0, 2)
    # u_h = P . x (gradient P), exact u = Q . x (gradient Q), both steady
    P = np.array([1.2, -0.4])
    Q = np.array([0.3, 0.9])
    f = FeFunction(space, space.dof_coords @ P)
    traj = Trajectory(space=space, grid=grid, snapshots=[f, f, f], newton_reports=[])
    ref = ExactSolution(u=lambda pts, t: pts @ Q,
                        grad_u=lambda pts, t: np.broadcast_to(Q, (len(pts), 2)))
    raw_expected = 0.0
    dS = np.linalg.norm(s_flux(P, params) - s_flux(Q, params)) ** pprime  # |Omega| = 1
    raw_expected = grid.tau * grid.M * dS
    got = compute_error_report(traj, ref, grid, params).sq_lp_s
    assert got == pytest.approx(raw_expected ** (2.0 / pprime), rel=1e-12)


def test_incompatible_hierarchy_raises():
    traj, params = _zero_traj(2, 4)
    other, _ = _zero_traj(1, 8, domain="centered_square")
    with pytest.raises(IncompatibleHierarchy):
        compute_error_report(traj, other, traj.grid, params)
    bad_m, _ = _zero_traj(3, 3)  # 3 not a multiple of 4
    with pytest.raises(IncompatibleHierarchy):
        compute_error_report(traj, bad_m, traj.grid, params)
    # nested, but the run's degree is above the reference's
    p2_space = build_space(traj.space.mesh, 2)
    p2 = Trajectory(space=p2_space, grid=traj.grid, newton_reports=[],
                    snapshots=[FeFunction(p2_space, np.zeros(p2_space.ndof))] * 5)
    with pytest.raises(IncompatibleHierarchy):
        compute_error_report(p2, traj, traj.grid, params)


def test_discrete_reference_nested_consistency():
    # coarse run against a strictly finer discrete reference: errors are finite
    # and the coarse-on-fine evaluation path is exercised
    params = PLaplaceParams(p=2.0, kappa=0.0)
    spec = ProblemSpec(params=params, domain="unit_square", force=ConstantForce(1.0))
    coarse = solve_evolution(spec, 1, 1, TimeGrid(0.0, 1.0, 2))
    # reference shares the coarse mesh's hierarchy
    from pheat.fespace import build_space as bs
    from pheat.mesh import refine_uniform
    fine_mesh = refine_uniform(refine_uniform(coarse.space.mesh))
    fine = solve_evolution(spec, 3, 2, TimeGrid(0.0, 1.0, 8),
                           space=bs(fine_mesh, 2))
    rep = compute_error_report(coarse, fine, coarse.grid, params)
    assert rep.sq_linfty_l2 > 0 and np.isfinite(rep.sq_linfty_l2)
    assert rep.sq_l2_v == rep.sq_l2_v_avg  # single averaged variant


def test_empirical_order_examples():
    def rep(h, e):
        return ErrorReport(ndof=1, M=1, h=h, tau=1.0, sq_linfty_l2=e, sq_l2_v=e,
                           sq_l2_v_avg=e, sq_lp_s=e, raw_lp_sum=e)

    fit = empirical_order([rep(0.1, 1e-2), rep(0.05, 2.5e-3)], "sq_l2_v", against="h")
    assert fit.slopes[0] == pytest.approx(2.0, abs=1e-12)
    assert fit.ls_slope == pytest.approx(2.0, abs=1e-12)

    fit = empirical_order([rep(0.1, 3.0), rep(0.05, 3.0), rep(0.025, 3.0)],
                          "sq_l2_v", against="h")
    assert np.allclose(fit.slopes, 0.0)
    assert fit.ls_slope == pytest.approx(0.0, abs=1e-13)

    with pytest.raises(InsufficientData):
        empirical_order([rep(0.1, 1.0)], "sq_l2_v", against="h")
    with pytest.raises(InsufficientData):  # one mesh: no slope against ndof
        empirical_order([rep(0.1, 1.0), rep(0.05, 0.5)], "sq_l2_v", against="ndof")


def test_empirical_order_synthetic_noise(rng):
    hs = 0.5 ** np.arange(6)
    reports = []
    for h in hs:
        e = h * (1.0 + 0.01 * rng.standard_normal())
        reports.append(ErrorReport(ndof=1, M=1, h=h, tau=1.0, sq_linfty_l2=e,
                                   sq_l2_v=e, sq_l2_v_avg=e, sq_lp_s=e, raw_lp_sum=e))
    fit = empirical_order(reports, "sq_l2_v", against="h")
    assert 0.95 <= fit.ls_slope <= 1.05


def test_csv_roundtrip(tmp_path):
    reports = [ErrorReport(ndof=25, M=4, h=0.75, tau=0.25,
                           sq_linfty_l2=1.2345678901234567e-3,
                           sq_l2_v=np.pi * 1e-2, sq_l2_v_avg=2e-2, sq_lp_s=3e-2,
                           raw_lp_sum=0.1234567890123456789)]
    path = tmp_path / "out.csv"
    write_csv(reports, path)
    text = path.read_text().splitlines()
    assert text[0] == CSV_HEADER == "ndof,M,h,tau,sqVerr,sqVerr1,sqLinftyError,sqAerr"
    rows = read_csv(path)
    assert rows[0]["ndof"] == 25 and rows[0]["M"] == 4
    assert rows[0]["sqVerr"] == np.pi * 1e-2      # 17 significant digits round-trip
    assert rows[0]["sqAerr"] == 0.1234567890123456789

    dat = tmp_path / "out.dat"
    write_dat(reports, dat)
    dat_rows = dat.read_text().splitlines()
    assert dat_rows[1].split() == text[1].split(",")

    # dict rows (as read back from CSV) work for the EOC fit too
    second = dict(rows[0])
    second["ndof"], second["sqVerr"] = 100, rows[0]["sqVerr"] / 4.0
    fit = empirical_order([rows[0], second], "sqVerr")
    assert fit.ls_slope == pytest.approx(-1.0, abs=1e-12)


def test_quadrature_robustness_omega2():
    # raising the error quadrature degree from 8 to 12 moves the reported
    # errors by under 1% (known-solution study, shifted square, level 3)
    from pheat.experiments import known_solution_fields

    params = PLaplaceParams(p=1.5, kappa=0.0)
    exact, force = known_solution_fields(params)
    spec = ProblemSpec(params=params, domain="shifted_square", force=force,
                       initial=lambda pts: exact.u(pts, -1.0), boundary=exact.u)
    grid = TimeGrid(-1.0, 1.0, 8)
    traj = solve_evolution(spec, 3, 1, grid)
    r8 = compute_error_report(traj, exact, grid, params, quad_degree=8)
    r12 = compute_error_report(traj, exact, grid, params, quad_degree=12)
    for field in ("sq_linfty_l2", "sq_l2_v", "sq_l2_v_avg", "sq_lp_s"):
        a, b = getattr(r8, field), getattr(r12, field)
        assert abs(a - b) / b < 0.01, field
