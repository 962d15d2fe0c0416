import functools

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad

from pheat import assembly, timestepper
from pheat.assembly import apply_dirichlet, assemble_step_residual, solve_spd, step_energy
from pheat.constitutive import PLaplaceParams, s_flux
from pheat.fespace import FeFunction, build_space, quadrature
from pheat.mesh import refine_to_level
from pheat.projection import averaged_boundary_values, build_boundary_data
from pheat.timestepper import (ConstantForce, NonConvergence, NonIntegrableForce,
                               PowerTimeForce, ProblemSpec, SeparableForce,
                               TimeGrid, average_force, kacanov_matrix,
                               solve_evolution, step, theta_average_power,
                               theta_density, theta_pieces)


# ----------------------------------------------------------------------
# time grid and theta weights
# ----------------------------------------------------------------------

def test_grid_basics():
    grid = TimeGrid(-1.0, 1.0, 8)
    assert grid.tau == pytest.approx(0.25)
    assert grid.t(0) == -1.0 and grid.t(8) == 1.0
    assert grid.window_subintervals(3) == [(grid.t(2), grid.t(3)), (grid.t(3), grid.t(4))]
    assert grid.window_subintervals(8) == [(grid.t(7), grid.t(8))]
    for m in (0, 9):
        with pytest.raises(ValueError):
            grid.window_subintervals(m)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, 0)


def test_window_length_identity():
    # sum of |J_m| = 2T - 2 tau + tau with the truncated last window, exactly
    for M in (1, 2, 5, 16):
        grid = TimeGrid(0.0, 1.0, M)
        total = sum(hi - lo for m in range(1, M + 1) for lo, hi in grid.window_subintervals(m))
        T = grid.t_end - grid.t0
        assert total == pytest.approx(2 * T - 2 * grid.tau + grid.tau, abs=1e-15)


def test_theta_plateau_and_endpoints():
    grid = TimeGrid(0.0, 1.0, 10)
    tau = grid.tau
    for m in (2, 5, 9):
        sigma = grid.t(m) - 0.5 * tau  # interior of I_m
        assert theta_density(m, sigma, grid) == pytest.approx(1 / (2 * tau), rel=1e-14)
    assert theta_density(1, 0.0, grid) == pytest.approx(1 / tau, rel=1e-14)
    assert theta_density(1, 2 * tau, grid) == pytest.approx(0.0, abs=1e-14)
    assert theta_density(1, 2 * tau + 1e-9, grid) == 0.0


@pytest.mark.parametrize("t0", [0.0, -0.1, -1.0])
def test_theta_mass_one_ten_point_gauss(t0):
    grid = TimeGrid(t0, t0 + 2.0, 9)
    xg, wg = leggauss(10)
    for m in range(1, grid.M + 1):
        mass = 0.0
        for a, b, A, B in theta_pieces(m, grid):
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            s = mid + half * xg
            mass += float(np.sum(half * wg * (A + B * s)))
        assert abs(mass - 1.0) <= 1e-13


def test_theta_nonnegative_and_supported():
    grid = TimeGrid(-0.1, 0.1, 7)
    sigmas = np.linspace(-0.2, 0.2, 1001)
    for m in range(1, 8):
        vals = theta_density(m, sigmas, grid)
        assert np.all(vals >= 0)
        lo, hi = theta_pieces(m, grid)[0][0], theta_pieces(m, grid)[-1][1]
        outside = (sigmas < lo - 1e-12) | (sigmas > hi + 1e-12)
        assert np.all(vals[outside] == 0)


def test_theta_first_moments():
    grid = TimeGrid(-1.0, 1.0, 10)
    tau = grid.tau
    # f(t) = t: interior windows average to t_m - tau/2 (symmetric trapezoid)
    for m in (2, 5, 9):
        assert theta_average_power(m, grid, 1.0, signed=True) == pytest.approx(
            grid.t(m) - tau / 2, rel=1e-13)
    assert theta_average_power(1, grid, 1.0, signed=True) == pytest.approx(
        grid.t0 + 2 * tau / 3, rel=1e-13)
    assert theta_average_power(grid.M, grid, 1.0, signed=True) == pytest.approx(
        grid.t(grid.M - 1), rel=1e-13)


def test_theta_average_power_vs_quadrature_oracle():
    grid = TimeGrid(-0.1, 0.1, 8)
    for beta in (0.1, 0.5, 0.9):
        for m in (1, 3, 4, 5, 8):
            exact = theta_average_power(m, grid, -beta, signed=True)
            num = 0.0
            for a, b, A, B in theta_pieces(m, grid):
                for lo, hi in (((a, 0.0), (0.0, b)) if a < 0 < b else ((a, b),)):
                    val, _ = quad(lambda s: (A + B * s) * np.sign(s) * abs(s) ** -beta,
                                  lo, hi, points=[0.0] if lo < 0 < hi else None,
                                  limit=300, epsabs=1e-13, epsrel=1e-11)
                    num += val
            assert exact == pytest.approx(num, rel=1e-8, abs=1e-12)


def test_nonintegrable_force_rejected():
    for beta in (1.0, -np.inf, np.nan):
        with pytest.raises(NonIntegrableForce):
            PowerTimeForce(beta=beta)
    grid = TimeGrid(-0.1, 0.1, 4)
    with pytest.raises(NonIntegrableForce):
        theta_average_power(2, grid, -1.5, signed=True)


# ----------------------------------------------------------------------
# force averaging
# ----------------------------------------------------------------------

def test_average_force_constant_mass_one():
    space = build_space(refine_to_level("unit_square", 1), 1)
    grid = TimeGrid(0.0, 1.0, 5)
    for m in (1, 3, 5):
        vals = average_force(ConstantForce(2.0), m, grid, space)
        assert np.all(vals == 2.0)


def test_average_force_odd_symmetry():
    # grid chosen so an interior window weight is even about t = 0 (M odd)
    space = build_space(refine_to_level("unit_square", 1), 1)
    grid = TimeGrid(-0.1, 0.1, 5)
    m = 3  # theta_3 is the symmetric trapezoid centered at t_3 - tau/2 = 0
    assert grid.t(m) - grid.tau / 2 == pytest.approx(0.0, abs=1e-15)
    vals = average_force(PowerTimeForce(0.5), m, grid, space)
    assert np.max(np.abs(vals)) < 1e-12


def test_average_force_point_value_mode():
    space = build_space(refine_to_level("unit_square", 1), 1)
    grid = TimeGrid(0.0, 1.0, 4)
    f = lambda pts, t: (1.0 + pts[:, 0]) * t
    vals = average_force(f, 2, grid, space, force_mode="point_value")
    rule = assembly.step_rule(space)
    pts = space.physical_points(rule).reshape(-1, 2)
    assert np.allclose(vals.ravel(), (1.0 + pts[:, 0]) * grid.t(2))


def test_average_force_point_value_at_power_singularity():
    # an even M puts the grid node t_2 = 0 on the singularity of sgn(t)|t|^(-beta);
    # the odd force takes its symmetric value sgn(0) = 0 there
    space = build_space(refine_to_level("unit_square", 1), 1)
    grid = TimeGrid(-0.1, 0.1, 4)
    f = average_force(PowerTimeForce(0.5), 2, grid, space, "point_value")
    assert grid.t(2) == 0.0 and np.all(f == 0.0)
    f1 = average_force(PowerTimeForce(0.5), 1, grid, space, "point_value")
    assert np.allclose(f1, -(0.05 ** -0.5))


def test_average_force_separable_matches_callable():
    space = build_space(refine_to_level("unit_square", 1), 1)
    grid = TimeGrid(0.5, 1.5, 4)  # away from 0: the callable path uses plain Gauss
    sep = SeparableForce(terms=((lambda pts: 1.0 + pts[:, 1], 2.0, False),))
    gen = lambda pts, t: (1.0 + pts[:, 1]) * t * t
    for m in (1, 2, 4):
        a = average_force(sep, m, grid, space)
        b = average_force(gen, m, grid, space)
        assert np.max(np.abs(a - b)) < 1e-12


# ----------------------------------------------------------------------
# stepping
# ----------------------------------------------------------------------

def test_dtaa_identity(rng):
    # d_t a_m . a_m = 1/2 d_t a_m^2 + tau/2 (d_t a_m)^2, exactly
    tau = 0.37
    a = rng.standard_normal(50)
    for m in range(1, 50):
        dt = (a[m] - a[m - 1]) / tau
        lhs = dt * a[m]
        rhs = 0.5 * (a[m] ** 2 - a[m - 1] ** 2) / tau + 0.5 * tau * dt * dt
        # roundoff scale of the squared-difference term
        scale = max(1.0, (a[m] ** 2 + a[m - 1] ** 2) / tau)
        assert abs(lhs - rhs) <= 1e-15 * scale


def test_p2_step_single_newton_matches_direct():
    space = build_space(refine_to_level("unit_square", 3), 1)
    params = PLaplaceParams(p=2.0, kappa=0.0)
    spec = ProblemSpec(params=params, domain="unit_square", force=ConstantForce(1.0))
    grid = TimeGrid(0.0, 1.0, 4)
    zero = FeFunction(space, np.zeros(space.ndof))
    u, rep = step(space, zero, 1, grid, spec)
    assert rep.iterations == 1
    assert rep.converged and not rep.fallback_used
    traj = solve_evolution(spec, 2, 1, TimeGrid(0.0, 0.25, 4))
    assert all(r.converged and r.iterations <= 2 for r in traj.newton_reports)

    rule = assembly.step_rule(space)
    sys = (assembly.assemble_mass(space, rule) / grid.tau
           + assembly.assemble_stiffness(space)).tocsr()
    b = assembly.assemble_load(space, np.ones((space.mesh.num_triangles,
                                               rule.num_points)), rule)
    sys, b = apply_dirichlet(sys, b, space.boundary_dofs,
                             np.zeros(space.boundary_dofs.size))
    x, _ = solve_spd(sys, b)
    assert np.max(np.abs(u.coeffs - x)) < 1e-11


def test_zero_data_zero_solution():
    space = build_space(refine_to_level("unit_square", 2), 1)
    params = PLaplaceParams(p=3.0, kappa=0.0)
    spec = ProblemSpec(params=params, domain="unit_square", force=ConstantForce(0.0))
    grid = TimeGrid(0.0, 1.0, 2)
    zero = FeFunction(space, np.zeros(space.ndof))
    u, rep = step(space, zero, 1, grid, spec)
    assert np.max(np.abs(u.coeffs)) == 0.0
    assert rep.iterations == 0


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_newton_matches_kacanov_oracle(p):
    # coarse instance, ndof <= 100
    space = build_space(refine_to_level("unit_square", 2), 1)
    assert space.ndof <= 100
    params = PLaplaceParams(p=p, kappa=0.0)
    spec = ProblemSpec(params=params, domain="unit_square", force=ConstantForce(1.0))
    grid = TimeGrid(0.0, 1.0, 4)
    zero = FeFunction(space, np.zeros(space.ndof))
    u, _ = step(space, zero, 1, grid, spec)

    # pure Kacanov fixed point, iterated to stagnation
    rule = assembly.step_rule(space)
    f_quad = np.ones((space.mesh.num_triangles, rule.num_points))
    rhs = assembly.assemble_load(space, f_quad, rule)
    bdofs = space.boundary_dofs
    g = np.zeros(bdofs.size)
    v = np.zeros(space.ndof)
    for _ in range(400):
        mat = kacanov_matrix(space, v, grid.tau, params, clamp=1e-10)
        A, b = apply_dirichlet(mat, rhs.copy(), bdofs, g)
        v_new, _ = solve_spd(A, b)
        if np.max(np.abs(v_new - v)) < 1e-13:
            v = v_new
            break
        v = v_new
    assert np.max(np.abs(u.coeffs - v)) < 1e-8


def test_energy_monotone_and_not_above_start(rng):
    space = build_space(refine_to_level("unit_square", 2), 1)
    params = PLaplaceParams(p=3.0, kappa=0.0)
    spec = ProblemSpec(params=params, domain="unit_square", force=ConstantForce(1.0))
    grid = TimeGrid(0.0, 1.0, 4)
    u_prev = FeFunction(space, rng.standard_normal(space.ndof) * 0.1)
    u_prev.coeffs[space.boundary_dofs] = 0.0
    u, rep = step(space, u_prev, 1, grid, spec)
    e = np.array(rep.energy_values)
    assert np.all(np.diff(e) <= 1e-14)

    rule = assembly.step_rule(space)
    f_quad = np.ones((space.mesh.num_triangles, rule.num_points))
    e_final = step_energy(space, u, u_prev, grid.tau, f_quad, params)
    e_start = step_energy(space, u_prev, u_prev, grid.tau, f_quad, params)
    assert e_final <= e_start + 1e-14


def test_converged_step_satisfies_weak_form(monkeypatch):
    space = build_space(refine_to_level("unit_square", 2), 1)
    params = PLaplaceParams(p=1.5, kappa=0.0)
    spec = ProblemSpec(params=params, domain="unit_square", force=ConstantForce(2.0))
    grid = TimeGrid(0.0, 0.5, 4)
    zero = FeFunction(space, np.zeros(space.ndof))
    tol = 1e-10
    states = []
    assemble = assembly.assemble_step_residual

    def recording(space, u, *args, **kwargs):
        states.append(u.coeffs.tobytes())
        return assemble(space, u, *args, **kwargs)

    monkeypatch.setattr(assembly, "assemble_step_residual", recording)
    u, rep = step(space, zero, 1, grid, spec, tol=tol)
    monkeypatch.undo()
    # this step takes chord moves; a chord move's trial residual is handed to
    # the next iteration, so no state is assembled twice
    assert rep.converged and rep.reused_moves >= 1
    assert len(set(states)) == len(states)
    # independent residual assembly
    rule = assembly.step_rule(space)
    f_quad = average_force(spec.force, 1, grid, space)
    res = assemble_step_residual(space, u, zero, grid.tau, f_quad, params)
    rhs = assembly.assemble_load(space, f_quad + space.eval_at(rule, zero.coeffs) / grid.tau, rule)
    rhs[space.boundary_dofs] = 0.0
    assert np.linalg.norm(res) <= tol * (1.0 + np.linalg.norm(rhs))


def test_report_counts_kacanov_iterations(monkeypatch):
    # fast decay with p = 1.5: near zero gradients Newton moves stall, and
    # each stalled one is followed by one Kacanov move, then Newton again
    space = build_space(refine_to_level("unit_square", 2), 1)
    spec = ProblemSpec(params=PLaplaceParams(p=1.5, kappa=0.0), domain="unit_square",
                       force=ConstantForce(0.0),
                       initial=lambda pts: np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1]))
    calls, events = [], []  # events: "|" a step, "K"/"N" a direction, "D" a dead end
    matrix, armijo, solve, one_step = (timestepper.kacanov_matrix, timestepper._armijo,
                                       assembly.solve_spd, timestepper.step)

    def counting(*args, **kwargs):
        calls.append(1)
        events.append("K")
        return matrix(*args, **kwargs)

    def newton_solve(A, b, **kwargs):
        if kwargs.get("lu") is not None:
            events.append("N")
        return solve(A, b, **kwargs)

    def line_search(*args):
        accepted = armijo(*args)
        if accepted is None:
            events.append("D")
        return accepted

    monkeypatch.setattr(timestepper, "kacanov_matrix", counting)
    monkeypatch.setattr(timestepper, "_armijo", line_search)
    monkeypatch.setattr(assembly, "solve_spd", newton_solve)
    monkeypatch.setattr(timestepper, "step",
                        lambda *a, **k: events.append("|") or one_step(*a, **k))
    traj = solve_evolution(spec, 2, 1, TimeGrid(0.0, 0.5, 4), space=space)
    reports = traj.newton_reports
    assert sum(r.kacanov_iterations for r in reports) == len(calls) > 0
    for r in reports:
        assert r.fallback_used == (r.kacanov_iterations > 0)
        assert max(r.kacanov_iterations, r.reused_moves) <= r.iterations
    # no Kacanov direction follows an accepted Kacanov move
    steps = "".join(events).split("|")[1:]
    assert len(steps) == 4 and "K" in "".join(steps)
    assert all("KK" not in directions for directions in steps)


def test_force_factors_computed_once_per_trajectory(monkeypatch):
    # every step hands the force the space's one read-only point array, so
    # the closed form's spatial factors are computed once, not once per step
    from pheat import experiments

    computed = []
    memo = experiments._latest_array_memo

    def counting_memo():
        inner = memo()
        return lambda pts, key, fn: inner(pts, key, lambda x: computed.append(key) or fn(x))

    monkeypatch.setattr(experiments, "_latest_array_memo", counting_memo)
    _, force = experiments.manufactured_p2_fields()
    space = build_space(refine_to_level("unit_square", 2), 1)
    spec = ProblemSpec(params=PLaplaceParams(p=2.0, kappa=0.0), domain="unit_square",
                       force=force)
    grid = TimeGrid(0.0, 1.0, 4)
    u = FeFunction(space, np.zeros(space.ndof))
    for m in range(1, grid.M + 1):
        u, _ = step(space, u, m, grid, spec)
    assert computed == ["trig"]
    assert not space.step_points.flags.writeable


def test_evolution_stationary_fixed_point():
    space = build_space(refine_to_level("unit_square", 2), 1)
    params = PLaplaceParams(p=3.0, kappa=0.0)
    spec = ProblemSpec(params=params, domain="unit_square", force=ConstantForce(1.0))
    # long horizon with large tau reaches the discrete steady state
    warm = solve_evolution(spec, 2, 1, TimeGrid(0.0, 80.0, 10), space=space)
    steady = warm.snapshots[-1].coeffs
    assert np.max(np.abs(steady - warm.snapshots[-2].coeffs)) < 1e-9

    spec2 = ProblemSpec(params=params, domain="unit_square", force=ConstantForce(1.0),
                        initial=None)
    traj = solve_evolution(spec2, 2, 1, TimeGrid(0.0, 0.5, 3), space=space)
    # restart from the steady state: snapshots stay constant
    from pheat.timestepper import Trajectory
    start = FeFunction(space, steady.copy())
    t2 = Trajectory(space=space, grid=TimeGrid(0.0, 0.5, 3), snapshots=[start],
                    newton_reports=[])
    for m in range(1, 4):
        u, rep = step(space, t2.snapshots[-1], m, t2.grid, spec)
        t2.snapshots.append(u)
    for snap in t2.snapshots[1:]:
        assert np.max(np.abs(snap.coeffs - steady)) < 1e-7


def test_evolution_energy_dissipation_f_zero():
    space = build_space(refine_to_level("unit_square", 3), 1)
    rule = quadrature(8)
    for p, T in ((1.5, 0.2), (3.0, 0.5)):
        params = PLaplaceParams(p=p, kappa=0.0)
        spec = ProblemSpec(params=params, domain="unit_square", force=ConstantForce(0.0),
                           initial=lambda pts: np.sin(np.pi * pts[:, 0])
                           * np.sin(np.pi * pts[:, 1]))
        traj = solve_evolution(spec, 3, 1, TimeGrid(0.0, T, 8), space=space)
        l2 = [space.integrate(rule, space.eval_at(rule, s.coeffs) ** 2)
              for s in traj.snapshots]
        assert np.all(np.diff(l2) <= 1e-12)
        dissip = 0.0
        for snap in traj.snapshots[1:]:
            grad = space.grad_at(rule, snap.coeffs)
            dissip += traj.grid.tau * space.integrate(
                rule, np.sum(s_flux(grad, params) * grad, axis=-1))
        assert dissip <= 0.5 * l2[0] + 1e-8


def test_evolution_p2_manufactured_error_decreases():
    from pheat.error_metrics import compute_error_report
    from pheat.experiments import manufactured_p2_fields

    exact, force = manufactured_p2_fields()
    params = PLaplaceParams(p=2.0, kappa=0.0)
    spec = ProblemSpec(params=params, domain="unit_square", force=force,
                       initial=lambda pts: exact.u(pts, 0.0))
    errs = []
    for level, M in ((1, 2), (2, 4), (3, 8)):
        grid = TimeGrid(0.0, 1.0, M)
        traj = solve_evolution(spec, level, 1, grid)
        errs.append(compute_error_report(traj, exact, grid, params).sq_linfty_l2)
    assert errs[2] < errs[1] < errs[0]


def test_nonconvergence_carries_step_index():
    # a decay whose force turns NaN on (t_6, t_7): of the steps solved, only
    # the window J_6 = [t_5, t_7] reaches there, so steps 1-5 converge and
    # step 6 cannot
    space = build_space(refine_to_level("unit_square", 3), 1)
    params = PLaplaceParams(p=1.5, kappa=0.0)
    grid = TimeGrid(0.0, 1.0, 16)

    def force(pts, t):
        return np.full(pts.shape[0], np.nan if grid.t(6) < t < grid.t(7) else 0.0)

    spec = ProblemSpec(params=params, domain="unit_square", force=force,
                       initial=lambda pts: np.sin(np.pi * pts[:, 0])
                       * np.sin(np.pi * pts[:, 1]))
    with pytest.raises(NonConvergence) as exc:
        solve_evolution(spec, 3, 1, grid, space=space)
    rep = exc.value.report
    assert exc.value.m == 6 and "step 6" in str(exc.value)
    assert not rep.converged and not rep.at_floor
    assert rep.iterations < timestepper.MAX_COMBINED_ITERATIONS // 10


def test_boundary_data_paths():
    # boundary = None: every snapshot is exactly zero on the boundary DOFs;
    # a callable: snapshot m carries the J_m averages of step m, and the
    # initial snapshot those of step 1
    from pheat.experiments import known_solution_fields

    params = PLaplaceParams(p=1.5, kappa=0.0)
    exact, force = known_solution_fields(params)
    grid = TimeGrid(-1.0, 1.0, 4)
    space = build_space(refine_to_level("shifted_square", 2), 1)
    bdofs = space.boundary_dofs
    zero = ProblemSpec(params=params, domain="shifted_square", force=force,
                       initial=lambda pts: exact.u(pts, grid.t0))
    for snap in solve_evolution(zero, 2, 1, grid, space=space).snapshots:
        assert np.all(snap.coeffs[bdofs] == 0.0)
    spec = ProblemSpec(params=params, domain="shifted_square", force=force,
                       initial=zero.initial, boundary=exact.u)
    traj = solve_evolution(spec, 2, 1, grid, space=space)
    for m, snap in enumerate(traj.snapshots):
        want = averaged_boundary_values(space, exact.u, max(m, 1), grid)
        assert np.any(want != 0.0) and np.array_equal(snap.coeffs[bdofs], want), m


@functools.lru_cache(maxsize=None)
def _known_trajectory(p):
    from pheat.experiments import build_spec, default_config

    cfg = default_config("known_solution")
    cfg.p = p
    spec, _ = build_spec(cfg)
    grid = TimeGrid(-1.0, 1.0, 16)
    traj = solve_evolution(spec, 3, 1, grid)
    bdata = build_boundary_data(traj.space, grid, spec.boundary)
    return spec, traj, bdata


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_start_energy_not_above_previous_snapshot(p):
    # oracle: every step starts at or below the energy of u_(m-1) with the
    # step's boundary data, the start used before extrapolation existed
    spec, traj, bdata = _known_trajectory(p)
    space, grid = traj.space, traj.grid
    for m, rep in enumerate(traj.newton_reports, start=1):
        prev = traj.snapshots[m - 1]
        start = prev.coeffs.copy()
        start[space.boundary_dofs] = bdata[m - 1]
        f_quad = average_force(spec.force, m, grid, space, spec.force_mode)
        e_prev = step_energy(space, FeFunction(space, start), prev, grid.tau, f_quad,
                             spec.params)
        assert rep.energy_values[0] <= e_prev, m
        assert rep.energy_values[0] < e_prev or rep.start == "previous", m


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_extrapolated_starts_taken(p):
    _, traj, _ = _known_trajectory(p)
    starts = [rep.start for rep in traj.newton_reports]
    assert starts[0] == "previous"  # no earlier snapshot to extrapolate from
    assert starts[1] in ("previous", "linear")
    assert {"linear", "quadratic"} <= set(starts)


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_extrapolated_start_converges_to_the_same_step(p):
    spec, traj, bdata = _known_trajectory(p)
    iterations = 0
    for m in range(1, traj.grid.M + 1):
        u, rep = step(traj.space, traj.snapshots[m - 1], m, traj.grid, spec,
                      bc_values=bdata[m - 1])
        assert rep.start == "previous"
        iterations += rep.iterations
        ref = np.max(np.abs(u.coeffs))
        assert np.max(np.abs(traj.snapshots[m].coeffs - u.coeffs)) <= 1e-8 * ref, m
    assert sum(rep.iterations for rep in traj.newton_reports) < iterations


def test_steady_state_keeps_the_previous_start():
    # at the discrete steady state the extrapolations tie with u_(m-1) up to
    # roundoff; a start chosen by that noise would cost a Newton iteration
    space = build_space(refine_to_level("unit_square", 2), 1)
    spec = ProblemSpec(params=PLaplaceParams(p=1.5, kappa=0.0), domain="unit_square",
                       force=ConstantForce(1.0))
    traj = solve_evolution(spec, 2, 1, TimeGrid(0.0, 80.0, 10), space=space)
    late = traj.newton_reports[4:]
    assert [rep.start for rep in late] == ["previous"] * len(late)
    assert sum(rep.iterations for rep in late) == 0


def test_p2_step_ignores_history(monkeypatch):
    # the p = 2 step is linear: no candidate start is evaluated
    from pheat.experiments import manufactured_p2_fields

    exact, force = manufactured_p2_fields()
    space = build_space(refine_to_level("unit_square", 2), 1)
    spec = ProblemSpec(params=PLaplaceParams(p=2.0, kappa=0.0), domain="unit_square",
                       force=force, initial=lambda pts: exact.u(pts, 0.0))
    grid = TimeGrid(0.0, 1.0, 4)
    calls = []
    energy = assembly.step_energy
    monkeypatch.setattr(assembly, "step_energy",
                        lambda *a, **k: calls.append(1) or energy(*a, **k))
    traj = solve_evolution(spec, 2, 1, grid, space=space)
    with_history = len(calls)
    calls.clear()
    u = traj.snapshots[0]
    for m in range(1, grid.M + 1):
        u, _ = step(space, u, m, grid, spec)
    assert with_history == len(calls)
    assert all(rep.start == "previous" for rep in traj.newton_reports)


def test_p2_row_factors_its_step_matrix_once(monkeypatch):
    # DS is the identity at p = 2: one pinned M/tau + K and one factorization,
    # made on the row's first step, serve every Newton solve of the row, and
    # the matrix is bitwise the Jacobian assembled at the iterate each solve
    # starts from
    from pheat.experiments import manufactured_p2_fields

    exact, force = manufactured_p2_fields()
    space = build_space(refine_to_level("unit_square", 3), 1)
    params = PLaplaceParams(p=2.0, kappa=0.0)
    # no initial datum, so no L2 projection factors a mass matrix
    spec = ProblemSpec(params=params, domain="unit_square", force=force, boundary=exact.u)
    grid = TimeGrid(0.0, 1.0, 6)
    factored, iterates, solved = [], [], []
    factor, residual, solve = assembly.factor_spd, assembly.assemble_step_residual, \
        assembly.solve_spd
    monkeypatch.setattr(assembly, "factor_spd", lambda A: factored.append(A) or factor(A))

    def record_residual(space, u, *args, **kwargs):
        iterates.append(u.coeffs.copy())
        return residual(space, u, *args, **kwargs)

    def check_solve(A, b, **kwargs):
        if kwargs.get("lu") is not None:  # a Newton solve, not the L2 projection
            J = assembly.assemble_step_jacobian(space, FeFunction(space, iterates[-1]),
                                                grid.tau, params)
            solved.append(np.array_equal(A.indptr, J.indptr)
                          and np.array_equal(A.indices, J.indices)
                          and np.array_equal(A.data, J.data))
        return solve(A, b, **kwargs)

    monkeypatch.setattr(assembly, "assemble_step_residual", record_residual)
    monkeypatch.setattr(assembly, "solve_spd", check_solve)
    traj = solve_evolution(spec, 3, 1, grid, space=space)
    assert len(factored) == 1
    assert [rep.factorizations for rep in traj.newton_reports] == [1] + [0] * (grid.M - 1)
    assert len(solved) == sum(rep.iterations for rep in traj.newton_reports) >= grid.M
    assert all(solved)


def test_nonlinear_row_reuses_its_last_factorization(monkeypatch):
    # p != 2: near convergence a chord move first goes along the factorization
    # held from an earlier iterate and is kept only if it halves the residual norm; the
    # held factor is released before the next one is made
    import weakref

    space = build_space(refine_to_level("slit", 3), 1)
    params = PLaplaceParams(p=3.0, kappa=0.0)
    spec = ProblemSpec(params=params, domain="slit", force=ConstantForce(2.0))
    grid = TimeGrid(0.0, 4.0, 32)
    factor, solve, residual = assembly.factor_spd, assembly.solve_spd, \
        assembly.assemble_step_residual
    alive, alive_at_factor, events, fresh = [0], [], [], [lambda: None]

    class Factor:  # SuperLU objects take no weak reference
        def __init__(self, lu):
            self.solve = lu.solve

    def counted_factor(A):
        alive_at_factor.append(alive[0])
        lu = Factor(factor(A))
        fresh[0] = weakref.ref(lu)
        alive[0] += 1
        weakref.finalize(lu, lambda: alive.__setitem__(0, alive[0] - 1))
        return lu

    def tagged_solve(A, b, **kwargs):
        lu = kwargs.get("lu")
        if lu is not None:  # "chord": along a factor an earlier solve used
            events.append(("fresh" if lu is fresh[0]() else "chord", np.linalg.norm(b)))
            fresh[0] = lambda: None
        return solve(A, b, **kwargs)

    def recorded_residual(*args, **kwargs):
        r = residual(*args, **kwargs)
        events.append(("residual", np.linalg.norm(r)))
        return r

    monkeypatch.setattr(assembly, "factor_spd", counted_factor)
    monkeypatch.setattr(assembly, "solve_spd", tagged_solve)
    monkeypatch.setattr(assembly, "assemble_step_residual", recorded_residual)
    traj = solve_evolution(spec, 3, 1, grid, space=space)
    reports = traj.newton_reports
    assert all(rep.converged for rep in reports)
    assert sum(rep.factorizations for rep in reports) < sum(rep.iterations for rep in reports)
    reused = sum(rep.reused_moves for rep in reports)
    assert reused > 0 and all(rep.reused_moves <= rep.iterations for rep in reports)
    # a chord move's trial residual follows its solve; the halving ones are the
    # moves taken, and no other
    halving = [kind == "chord" and nxt[0] == "residual" and nxt[1] <= 0.5 * norm
               for (kind, norm), nxt in zip(events, events[1:])]
    assert sum(halving) == reused
    assert alive_at_factor and max(alive_at_factor) == 0 and alive[0] <= 1


def test_nonconvergence_reports_iterations_done(monkeypatch):
    space = build_space(refine_to_level("unit_square", 2), 1)
    params = PLaplaceParams(p=1.5, kappa=0.0)
    spec = ProblemSpec(params=params, domain="unit_square", force=ConstantForce(1.0))
    grid = TimeGrid(0.0, 1.0, 4)
    zero = FeFunction(space, np.zeros(space.ndof))
    # a non-finite residual ends the step before any iteration
    nan_force = np.full((space.mesh.num_triangles, assembly.step_rule(space).num_points),
                        np.nan)
    with pytest.raises(NonConvergence) as exc:
        step(space, zero, 1, grid, spec, f_quad=nan_force)
    rep = exc.value.report
    assert rep.iterations == 0 and not rep.converged and np.isnan(rep.final_residual_norm)
    # a line-search dead end along Newton, then along Kacanov, ends it after two
    monkeypatch.setattr(timestepper, "_armijo", lambda *args: None)
    with pytest.raises(NonConvergence) as exc:
        step(space, zero, 1, grid, spec)
    rep = exc.value.report
    assert (rep.iterations, rep.kacanov_iterations, rep.converged) == (2, 1, False)


def test_trajectory_dump(tmp_path):
    space = build_space(refine_to_level("unit_square", 1), 1)
    params = PLaplaceParams(p=2.0, kappa=0.0)
    spec = ProblemSpec(params=params, domain="unit_square", force=ConstantForce(1.0))
    traj = solve_evolution(spec, 1, 1, TimeGrid(0.0, 0.5, 2), space=space)
    traj.dump(tmp_path / "out")
    manifest = (tmp_path / "out" / "trajectory.manifest").read_text().splitlines()
    assert len(manifest) == 3
    cols = manifest[1].split()
    assert cols[0] == "1" and int(cols[2]) >= 1 and float(cols[3]) >= 0.0
    snap0 = (tmp_path / "out" / "snapshot_00000.txt").read_text().splitlines()
    assert snap0[0].startswith("ndof")
