"""Acceptance criteria, one test per criterion.

Each test prints a single `ACCEPT-xx ... PASS` line (visible with -s) with
the measured quantities and its wall time, and asserts the stated bounds at
the stated tolerances.  The convergence studies run at the desk-scale
schedules documented in the experiment defaults.
"""

import time

import numpy as np
from numpy.polynomial.legendre import leggauss

from pheat import assembly
from pheat.constitutive import PLaplaceParams, equivalence_ratios, s_flux, v_transform
from pheat.error_metrics import empirical_order
from pheat.experiments import default_config, known_solution_fields, run_experiment
from pheat.fespace import FeFunction, build_space, quadrature
from pheat.mesh import refine_to_level
from pheat.projection import l2_project, verify_l2_decay
from pheat.timestepper import (ConstantForce, ProblemSpec, TimeGrid, kacanov_matrix,
                               solve_evolution, step, theta_pieces)

from test_constitutive import RATIO_BRACKETS, sample_vectors

P_SET = (1.2, 1.5, 2.0, 3.0, 4.5)
KAPPAS = (0.0, 1e-3, 1.0)


def _report(tag, ok, detail, t0, budget):
    wall = time.perf_counter() - t0
    print(f"\n{tag}: {'PASS' if ok and wall < budget else 'FAIL'} "
          f"({detail}; {wall:.1f}s < {budget:.0f}s)")
    assert ok, f"{tag}: {detail}"
    assert wall < budget, f"{tag}: runtime {wall:.1f}s over budget {budget}s"


def _tail_slope(reports, field):
    return empirical_order(reports[-3:], field, "ndof").ls_slope


def test_accept_01_orlicz_identity_suite(rng):
    t0 = time.perf_counter()
    worst_id, worst_hom = 0.0, 0.0
    Q = sample_vectors(rng, 10_000)
    lam = 10.0 ** rng.uniform(-2, 2, (10_000, 1))
    for p in P_SET:
        for kappa in KAPPAS:
            params = PLaplaceParams(p=p, kappa=kappa)
            v2 = np.sum(v_transform(Q, params) ** 2, axis=-1)
            sq = np.sum(s_flux(Q, params) * Q, axis=-1)
            worst_id = max(worst_id, np.max(np.abs(v2 - sq) / sq))
        params = PLaplaceParams(p=p, kappa=0.0)
        v_scaled = v_transform(lam * Q, params)
        v_ref = lam ** (p / 2.0) * v_transform(Q, params)
        s_scaled = s_flux(lam * Q, params)
        s_ref = lam ** (p - 1.0) * s_flux(Q, params)
        worst_hom = max(worst_hom,
                        np.max(np.abs(v_scaled - v_ref) / np.abs(v_ref).max()),
                        np.max(np.abs(s_scaled - s_ref) / np.abs(s_ref).max()))
    ok = worst_id < 1e-12 and worst_hom < 1e-12
    _report("ACCEPT-01 Orlicz identities", ok,
            f"|V|^2=S.Q dev {worst_id:.2e}, homogeneity dev {worst_hom:.2e}", t0, 1.0)


def test_accept_02_equivalence_boundedness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(12345)
    violations = 0
    worst = {}
    for p in P_SET:
        lo, hi = RATIO_BRACKETS[p]
        P = sample_vectors(rng, 100_000)
        Q = sample_vectors(rng, 100_000)
        q = equivalence_ratios(P, Q, PLaplaceParams(p=p, kappa=0.0))
        violations += int(np.sum(q[:, 0] <= 0))
        rmin, rmax = np.inf, 0.0
        for i in range(4):
            for j in range(4):
                if i != j:
                    r = q[:, i] / q[:, j]
                    rmin, rmax = min(rmin, r.min()), max(rmax, r.max())
        worst[p] = (rmin, rmax)
        assert lo <= rmin and rmax <= hi, (p, rmin, rmax, lo, hi)
    ok = violations == 0
    spread = ", ".join(f"p={p}:[{a:.3g},{b:.3g}]" for p, (a, b) in worst.items())
    _report("ACCEPT-02 equivalence lemma brackets", ok,
            f"monotonicity violations {violations}; ratios {spread}", t0, 5.0)


def test_accept_03_projection_suite(rng):
    t0 = time.perf_counter()
    worst = 0.0
    for level in (2, 3, 4):
        mesh = refine_to_level("unit_square", level)
        for r in (1, 2):
            space = build_space(mesh, r)
            rule = quadrature(8)
            pts = space.physical_points(rule)
            flat = pts.reshape(-1, 2)

            # reproduction of space members (global polynomials of degree <= r)
            exps = [(i, j) for i in range(r + 1) for j in range(r + 1 - i)]
            coeffs = rng.standard_normal(len(exps))
            member = lambda q: sum(c * q[:, 0] ** i * q[:, 1] ** j
                                   for c, (i, j) in zip(coeffs, exps))
            pr = l2_project(space, member)
            worst = max(worst, np.max(np.abs(pr.coeffs - member(space.dof_coords))))

            # idempotence (algebraic: the load vector of Pi g is exactly M c)
            g = lambda q: np.sin(np.pi * q[:, 0]) * np.exp(q[:, 1])
            pg = l2_project(space, g)
            M = assembly.assemble_mass(space)
            again, _ = assembly.solve_spd(M, M @ pg.coeffs)
            worst = max(worst, np.max(np.abs(again - pg.coeffs)))

            # self-adjoint bilinear identity on cubic fields (quadrature exact)
            w = lambda q: q[:, 0] ** 3 - 2.0 * q[:, 0] * q[:, 1] ** 2 + 0.5
            pgv = space.eval_at(rule, pg.coeffs)
            pwv = space.eval_at(rule, l2_project(space, w).coeffs)
            gv = g(flat).reshape(pgv.shape)
            wv = w(flat).reshape(pwv.shape)
            worst = max(worst, abs(space.integrate(rule, pgv * wv)
                                   - space.integrate(rule, gv * pwv)))
            worst = max(worst, abs(space.integrate(rule, pgv * pgv)
                                   - space.integrate(rule, gv * pgv)))
    decay = verify_l2_decay(build_space(refine_to_level("unit_square", 4), 1))
    ok = worst <= 1e-10 and 0.0 < decay.q_fit <= 0.9
    _report("ACCEPT-03 projection suite", ok,
            f"worst identity dev {worst:.2e}, decay q_fit {decay.q_fit:.3f}", t0, 30.0)


def test_accept_04_newton_oracle_equivalence(rng):
    t0 = time.perf_counter()
    space = build_space(refine_to_level("unit_square", 2), 1)
    assert space.ndof <= 100
    grid = TimeGrid(0.0, 1.0, 4)
    worst_coeff = 0.0
    for p in (1.5, 3.0):
        params = PLaplaceParams(p=p, kappa=0.0)
        spec = ProblemSpec(params=params, domain="unit_square", force=ConstantForce(1.0))
        zero = FeFunction(space, np.zeros(space.ndof))
        u, _ = step(space, zero, 1, grid, spec)

        rule = assembly.step_rule(space)
        f_quad = np.ones((space.mesh.num_triangles, rule.num_points))
        rhs = assembly.assemble_load(space, f_quad, rule)
        g = np.zeros(space.boundary_dofs.size)
        v = np.zeros(space.ndof)
        for _ in range(500):
            mat = kacanov_matrix(space, v, grid.tau, params, clamp=1e-10)
            A, b = assembly.apply_dirichlet(mat, rhs.copy(), space.boundary_dofs, g)
            v_new, _ = assembly.solve_spd(A, b)
            if np.max(np.abs(v_new - v)) < 1e-13:
                v = v_new
                break
            v = v_new
        worst_coeff = max(worst_coeff, np.max(np.abs(u.coeffs - v)))

    # residual = finite-difference gradient of the step energy
    params = PLaplaceParams(p=3.0, kappa=0.0)
    rule = assembly.step_rule(space)
    f_quad = np.full((space.mesh.num_triangles, rule.num_points), 0.5)
    u = FeFunction(space, 0.3 + 0.2 * rng.standard_normal(space.ndof))
    u_prev = FeFunction(space, np.zeros(space.ndof))
    res = assembly.assemble_step_residual(space, u, u_prev, grid.tau, f_quad, params)
    worst_fd = 0.0
    h = 1e-6
    for i in space.interior_dofs:
        up, dn = u.coeffs.copy(), u.coeffs.copy()
        up[i] += h
        dn[i] -= h
        fd = (assembly.step_energy(space, FeFunction(space, up), u_prev, grid.tau, f_quad, params)
              - assembly.step_energy(space, FeFunction(space, dn), u_prev, grid.tau, f_quad, params)) / (2 * h)
        worst_fd = max(worst_fd, abs(fd - res[i]) / max(abs(res[i]), 1e-12))
    ok = worst_coeff < 1e-8 and worst_fd < 1e-4
    _report("ACCEPT-04 Newton vs Kacanov oracle", ok,
            f"coeff dev {worst_coeff:.2e}, FD-gradient dev {worst_fd:.2e}", t0, 30.0)


def test_accept_05_discrete_energy_identities(rng):
    t0 = time.perf_counter()
    # eq-dtaa to machine identity on random sequences
    tau = 0.43
    a = rng.standard_normal(200)
    worst_dtaa = 0.0
    for m in range(1, 200):
        dt = (a[m] - a[m - 1]) / tau
        lhs = dt * a[m]
        rhs = 0.5 * (a[m] ** 2 - a[m - 1] ** 2) / tau + 0.5 * tau * dt * dt
        worst_dtaa = max(worst_dtaa,
                         abs(lhs - rhs) / max(1.0, (a[m] ** 2 + a[m - 1] ** 2) / tau))
    assert worst_dtaa <= 1e-15

    # theta weights have total mass one (10-point Gauss per piece)
    xg, wg = leggauss(10)
    worst_mass = 0.0
    for grid in (TimeGrid(0.0, 1.0, 7), TimeGrid(-0.1, 0.1, 12), TimeGrid(-1.0, 1.0, 1)):
        for m in range(1, grid.M + 1):
            mass = 0.0
            for lo, hi, A, B in theta_pieces(m, grid):
                mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
                mass += float(np.sum(half * wg * (A + B * (mid + half * xg))))
            worst_mass = max(worst_mass, abs(mass - 1.0))
    assert worst_mass <= 1e-13

    # f = 0 evolution: tau sum int S(grad u_m).grad u_m <= 1/2 ||u_0||^2
    space = build_space(refine_to_level("unit_square", 3), 1)
    rule = quadrature(8)
    margin = np.inf
    for p, T in ((1.5, 0.2), (3.0, 0.5)):
        params = PLaplaceParams(p=p, kappa=0.0)
        spec = ProblemSpec(params=params, domain="unit_square", force=ConstantForce(0.0),
                           initial=lambda pts: np.sin(np.pi * pts[:, 0])
                           * np.sin(np.pi * pts[:, 1]))
        traj = solve_evolution(spec, 3, 1, TimeGrid(0.0, T, 8), space=space)
        u0sq = space.integrate(rule, space.eval_at(rule, traj.snapshots[0].coeffs) ** 2)
        dissip = 0.0
        for snap in traj.snapshots[1:]:
            grad = space.grad_at(rule, snap.coeffs)
            dissip += traj.grid.tau * space.integrate(
                rule, np.sum(s_flux(grad, params) * grad, axis=-1))
        assert dissip <= 0.5 * u0sq + 1e-8
        margin = min(margin, 0.5 * u0sq + 1e-8 - dissip)
    _report("ACCEPT-05 discrete energy identities", True,
            f"dtaa dev {worst_dtaa:.1e}, theta mass dev {worst_mass:.1e}, "
            f"dissipation margin {margin:.2e}", t0, 60.0)


def test_accept_06_linear_regression_anchor(tmp_path):
    t0 = time.perf_counter()
    cfg = default_config("p2_validation")
    cfg.levels = ((2, 4), (3, 16), (4, 64), (5, 256))
    cfg.output_path = str(tmp_path / "p2_spatial.csv")
    spatial = run_experiment(cfg)
    h = np.log([r.h for r in spatial[-3:]])
    e = 0.5 * np.log([r.sq_l2_v for r in spatial[-3:]])  # unsquared H1-type error
    s_spatial = float(np.polyfit(h, e, 1)[0])

    cfg = default_config("p2_validation")
    cfg.sweep = "temporal"
    cfg.levels = ((5, 4), (5, 8), (5, 16), (5, 32))
    cfg.output_path = str(tmp_path / "p2_temporal.csv")
    temporal = run_experiment(cfg)
    taus = np.log([r.tau for r in temporal])
    e = 0.5 * np.log([r.sq_linfty_l2 for r in temporal])  # unsquared LinfL2 error
    s_temporal = float(np.polyfit(taus, e, 1)[0])

    ok = 0.9 <= s_spatial <= 1.1 and 0.85 <= s_temporal <= 1.15
    _report("ACCEPT-06 p=2 anchor", ok,
            f"spatial order {s_spatial:.3f} in [0.9,1.1], "
            f"temporal order {s_temporal:.3f} in [0.85,1.15]", t0, 120.0)


def test_accept_07_omega2_optimal_averaged_rate(tmp_path):
    t0 = time.perf_counter()
    slopes = {}
    for p in (1.5, 3.0):
        cfg = default_config("known_solution")
        cfg.p = p
        cfg.domain_variant = "omega2"
        cfg.output_path = str(tmp_path / f"omega2_p{p}.csv")
        reports = run_experiment(cfg)
        x = np.log([r.ndof for r in reports[-3:]])
        y = np.log([r.sq_linfty_l2 + r.sq_l2_v_avg for r in reports[-3:]])
        slopes[p] = float(np.polyfit(x, y, 1)[0])

    # uncoupled extremes: finest mesh with M = 4 and coarsest with M = 512
    params = PLaplaceParams(p=1.5, kappa=0.0)
    exact, force = known_solution_fields(params)
    spec = ProblemSpec(params=params, domain="shifted_square", force=force,
                       initial=lambda pts: exact.u(pts, -1.0), boundary=exact.u)
    fine_few = solve_evolution(spec, 5, 1, TimeGrid(-1.0, 1.0, 4))
    coarse_many = solve_evolution(spec, 1, 1, TimeGrid(-1.0, 1.0, 512))
    extremes_ok = (all(r.converged for r in fine_few.newton_reports)
                   and all(r.converged for r in coarse_many.newton_reports))

    ok = extremes_ok and all(-1.25 <= s <= -0.75 for s in slopes.values())
    _report("ACCEPT-07 omega2 optimal averaged rate", ok,
            f"combined slopes p=1.5: {slopes[1.5]:.3f}, p=3: {slopes[3.0]:.3f} "
            f"in [-1.25,-0.75]; extreme h/tau ratios solved: {extremes_ok}", t0, 600.0)


def test_accept_08_omega1_reduced_rates(tmp_path):
    t0 = time.perf_counter()
    cfg = default_config("known_solution")
    cfg.p = 1.5
    cfg.domain_variant = "omega1"
    cfg.output_path = str(tmp_path / "omega1.csv")
    reports = run_experiment(cfg)
    s_v = _tail_slope(reports, "sq_l2_v")
    s_s = _tail_slope(reports, "sq_lp_s")
    ok = -0.7 <= s_v <= -0.3 and -0.48 <= s_s <= -0.18
    _report("ACCEPT-08 omega1 reduced rates", ok,
            f"sq errL2V slope {s_v:.3f} in [-0.7,-0.3], "
            f"sq errLp'<S> slope {s_s:.3f} in [-0.48,-0.18]", t0, 600.0)


def test_accept_09_slit_rates(tmp_path):
    t0 = time.perf_counter()
    slopes = {}
    for p in (1.5, 3.0):
        cfg = default_config("slit_constant_force")
        cfg.p = p
        cfg.output_path = str(tmp_path / f"slit_p{p}.csv")
        reports = run_experiment(cfg)
        slopes[p] = (_tail_slope(reports, "sq_l2_v"),
                     _tail_slope(reports, "sq_linfty_l2"))
    ok = all(-0.8 <= sv <= -0.2 and sl <= -0.65 for sv, sl in slopes.values())
    detail = "; ".join(f"p={p}: sqV {sv:.3f} in [-0.8,-0.2], sqLinf {sl:.3f} <= -0.65"
                       for p, (sv, sl) in slopes.items())
    _report("ACCEPT-09 slit rates", ok, detail, t0, 900.0)


def test_accept_10_rough_in_time_qualitative(tmp_path):
    t0 = time.perf_counter()
    results = {}
    for beta in (0.1, 0.5, 0.9):
        cfg = default_config("rough_in_time")
        cfg.p = 1.5
        cfg.beta = beta
        cfg.output_path = str(tmp_path / f"rough_b{beta}.csv")
        results[beta] = run_experiment(cfg)
    slopes = {b: empirical_order(r, "sq_l2_v", "ndof").ls_slope
              for b, r in results.items()}
    converging = all(s < 0 for s in slopes.values())
    ordered = all(r9.sq_l2_v >= r5.sq_l2_v >= r1.sq_l2_v
                  for r9, r5, r1 in zip(results[0.9], results[0.5], results[0.1]))
    ok = converging and ordered
    _report("ACCEPT-10 rough-in-time qualitative", ok,
            f"LS slopes {', '.join(f'b={b}: {s:.3f}' for b, s in slopes.items())}; "
            f"level-by-level ordering err(0.9)>=err(0.5)>=err(0.1): {ordered}", t0, 900.0)
