import numpy as np
import pytest
import scipy.sparse as sparse

from pheat import assembly
from pheat.assembly import (SpaceMismatch, apply_dirichlet, assemble_load, assemble_mass,
                            assemble_step_jacobian, assemble_step_residual,
                            assemble_stiffness, pcg_attempt, solve_spd, step_energy,
                            step_energy_line)
from pheat.constitutive import PLaplaceParams
from pheat.fespace import FeFunction, build_space, quadrature
from pheat.mesh import Mesh, refine_to_level


def reference_triangle_space(degree=1):
    mesh = Mesh("unit_square", np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                np.array([[0, 1, 2]]), np.array([[0, 1], [1, 2], [2, 0]]))
    return build_space(mesh, degree)


def test_p1_mass_closed_form():
    space = reference_triangle_space()
    M = assemble_mass(space).toarray()
    area = 0.5
    exact = area / 12.0 * np.array([[2.0, 1, 1], [1, 2, 1], [1, 1, 2]])
    assert np.max(np.abs(M - exact)) < 1e-16


@pytest.mark.parametrize("degree", [1, 2])
def test_mass_row_sums_and_total(degree):
    space = build_space(refine_to_level("unit_square", 2), degree)
    M = assemble_mass(space)
    rule = quadrature(2 * degree)
    loads = assemble_load(space, np.ones((space.mesh.num_triangles, rule.num_points)),
                          rule)
    row_sums = np.asarray(M.sum(axis=1)).ravel()
    assert np.max(np.abs(row_sums - loads)) < 1e-14
    assert abs(M.sum() - 1.0) < 1e-12  # |Omega| = 1


def test_mass_exact_symmetry_and_determinism():
    space = build_space(refine_to_level("centered_square", 2), 2)
    M1 = assemble_mass(space)
    M2 = assemble_mass(space)
    assert abs(M1 - M1.T).max() == 0.0
    assert np.array_equal(M1.data, M2.data)
    assert np.array_equal(M1.indices, M2.indices)


def test_space_mismatch():
    s1 = build_space(refine_to_level("unit_square", 1), 1)
    s2 = build_space(refine_to_level("unit_square", 1), 1)
    u = FeFunction(s2, np.zeros(s2.ndof))
    params = PLaplaceParams(p=2.0)
    with pytest.raises(SpaceMismatch):
        assemble_step_jacobian(s1, u, 0.1, params)


def test_zero_state_zero_residual():
    space = build_space(refine_to_level("unit_square", 2), 1)
    params = PLaplaceParams(p=2.0)
    zero = FeFunction(space, np.zeros(space.ndof))
    rule = assembly.step_rule(space)
    f = np.zeros((space.mesh.num_triangles, rule.num_points))
    res = assemble_step_residual(space, zero, zero, 0.25, f, params)
    assert np.max(np.abs(res)) == 0.0


def test_p2_residual_matches_linear_system(rng):
    space = build_space(refine_to_level("unit_square", 2), 1)
    params = PLaplaceParams(p=2.0, kappa=0.0)
    tau = 0.125
    rule = assembly.step_rule(space)
    u = FeFunction(space, rng.standard_normal(space.ndof))
    u_prev = FeFunction(space, rng.standard_normal(space.ndof))
    f_quad = np.ones((space.mesh.num_triangles, rule.num_points)) * 2.0

    res = assemble_step_residual(space, u, u_prev, tau, f_quad, params)

    M = assemble_mass(space, rule)
    A = assemble_stiffness(space)
    F = assemble_load(space, f_quad, rule)
    expected = M @ (u.coeffs - u_prev.coeffs) / tau + A @ u.coeffs - F
    interior = space.interior_dofs
    scale = np.abs(expected[interior]).max()
    assert np.max(np.abs(res[interior] - expected[interior])) < 1e-12 * max(scale, 1)
    b = space.boundary_dofs
    assert np.allclose(res[b], u.coeffs[b])


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_residual_is_energy_gradient(p, rng):
    space = build_space(refine_to_level("unit_square", 1), 1)
    params = PLaplaceParams(p=p, kappa=0.0)
    tau = 0.2
    rule = assembly.step_rule(space)
    f_quad = np.full((space.mesh.num_triangles, rule.num_points), 0.7)
    u = FeFunction(space, 0.5 + rng.standard_normal(space.ndof))
    u_prev = FeFunction(space, rng.standard_normal(space.ndof))
    res = assemble_step_residual(space, u, u_prev, tau, f_quad, params)
    h = 1e-6
    for i in space.interior_dofs:
        up = u.coeffs.copy()
        up[i] += h
        dn = u.coeffs.copy()
        dn[i] -= h
        fd = (step_energy(space, FeFunction(space, up), u_prev, tau, f_quad, params)
              - step_energy(space, FeFunction(space, dn), u_prev, tau, f_quad, params)) / (2 * h)
        assert fd == pytest.approx(res[i], rel=1e-5, abs=1e-9)


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("p", [1.2, 1.5, 2.0, 3.0])
def test_step_energy_line_matches_energy_difference(degree, p, rng):
    space = build_space(refine_to_level("unit_square", 1), degree)
    rule = assembly.step_rule(space)
    f_quad = rng.standard_normal((space.mesh.num_triangles, rule.num_points))
    u, u_prev, delta = (FeFunction(space, rng.standard_normal(space.ndof)) for _ in range(3))
    for kappa in (0.0, 0.1, 0.3):
        params = PLaplaceParams(p=p, kappa=kappa)
        change = step_energy_line(space, u, delta, u_prev, 0.2, f_quad, params)
        base = step_energy(space, u, u_prev, 0.2, f_quad, params)
        for s in (1.0, 0.3, -0.7):
            moved = FeFunction(space, u.coeffs + s * delta.coeffs)
            plain = step_energy(space, moved, u_prev, 0.2, f_quad, params) - base
            assert change(s) == pytest.approx(plain, rel=1e-12)


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_step_energy_line_slope_is_residual_along_the_line(p, rng):
    # change(s)/s -> r . delta as s -> 0, for delta zero on the boundary DOFs;
    # at s = 1e-12 a difference of two energies would keep about 4 digits
    space = build_space(refine_to_level("unit_square", 2), 1)
    params = PLaplaceParams(p=p, kappa=0.0)
    rule = assembly.step_rule(space)
    f_quad = np.full((space.mesh.num_triangles, rule.num_points), 0.7)
    u = FeFunction(space, 0.5 + rng.standard_normal(space.ndof))
    u_prev = FeFunction(space, rng.standard_normal(space.ndof))
    direction = rng.standard_normal(space.ndof)
    direction[space.boundary_dofs] = 0.0
    slope = assemble_step_residual(space, u, u_prev, 0.2, f_quad, params) @ direction
    change = step_energy_line(space, u, FeFunction(space, direction), u_prev, 0.2, f_quad,
                              params)
    for s in (1e-10, 1e-12, -1e-12):
        assert change(s) / s == pytest.approx(slope, rel=1e-7)


def test_p2_jacobian_is_mass_plus_stiffness():
    space = build_space(refine_to_level("unit_square", 2), 1)
    params = PLaplaceParams(p=2.0, kappa=0.0)
    tau = 0.25
    rule = assembly.step_rule(space)
    u = FeFunction(space, np.zeros(space.ndof))
    J = assemble_step_jacobian(space, u, tau, params)
    expected = assembly.pin_rows_cols(
        (assemble_mass(space, rule) / tau + assemble_stiffness(space)).tocsr(),
        space.boundary_dofs)
    assert abs(J - expected).max() < 1e-12


def _same_csr(A, B):
    return (np.array_equal(A.indptr, B.indptr) and np.array_equal(A.indices, B.indices)
            and np.array_equal(A.data, B.data))


@pytest.mark.parametrize("domain, degree", [("unit_square", 1), ("slit", 2), ("slit", 3)])
def test_pinned_write_equals_pin_rows_cols(domain, degree, rng):
    # integer-valued element matrices make many entries sum to exactly zero;
    # pin_rows_cols drops those, and so must the direct pinned write
    space = build_space(refine_to_level(domain, 1), degree)
    nt, nloc = space.cell_dofs.shape
    ints = rng.integers(-1, 2, size=(nt, nloc, nloc)).astype(float)
    mass = assembly._local_mass(space, quadrature(2 * degree))
    for local in (ints + ints.swapaxes(1, 2), mass, np.zeros_like(mass)):
        expected = assembly.pin_rows_cols(assembly._sum_into_pattern(space, local),
                                          space.boundary_dofs)
        for _ in range(2):  # the cached pattern is not changed by a write
            assert _same_csr(assembly._sum_pinned(space, [local]), expected)
    u = FeFunction(space, rng.standard_normal(space.ndof))
    J = assemble_step_jacobian(space, u, 0.1, PLaplaceParams(p=3.0))
    assert _same_csr(J, assembly.pin_rows_cols(J, space.boundary_dofs))


def test_jacobian_directional_consistency(rng):
    space = build_space(refine_to_level("unit_square", 1), 1)
    params = PLaplaceParams(p=3.0, kappa=0.0)
    tau = 0.3
    rule = assembly.step_rule(space)
    f_quad = np.zeros((space.mesh.num_triangles, rule.num_points))
    u = FeFunction(space, 1.0 + rng.standard_normal(space.ndof))
    u_prev = FeFunction(space, np.zeros(space.ndof))
    J = assemble_step_jacobian(space, u, tau, params)
    delta = 1e-6
    w = rng.standard_normal(space.ndof)
    w[space.boundary_dofs] = 0.0
    up = FeFunction(space, u.coeffs + delta * w)
    dn = FeFunction(space, u.coeffs - delta * w)
    fd = (assemble_step_residual(space, up, u_prev, tau, f_quad, params)
          - assemble_step_residual(space, dn, u_prev, tau, f_quad, params)) / (2 * delta)
    jw = J @ w
    interior = space.interior_dofs
    assert np.max(np.abs(fd[interior] - jw[interior])) < 1e-4 * max(1.0, np.abs(jw).max())


def test_jacobian_spd_dense_check(rng):
    space = build_space(refine_to_level("unit_square", 1), 2)  # ndof = 25 <= 50
    assert space.ndof <= 50
    params = PLaplaceParams(p=1.5, kappa=0.0)
    u = FeFunction(space, rng.standard_normal(space.ndof))
    J = assemble_step_jacobian(space, u, 0.1, params).toarray()
    eig = np.linalg.eigvalsh(0.5 * (J + J.T))
    assert eig.min() > 0


def test_solve_mass_times_ones():
    space = build_space(refine_to_level("unit_square", 2), 2)
    M = assemble_mass(space)
    ones = np.ones(space.ndof)
    x, rep = solve_spd(M, M @ ones)
    assert np.max(np.abs(x - ones)) < 1e-10
    assert rep.iterations == 1 and rep.relative_residual <= 1e-11


@pytest.fixture
def factorizations(monkeypatch):
    """Wrap the factorizations solve_spd makes; the wrapper counts the
    triangular solves and scales the first result and the later ones."""
    made = []
    splu = assembly.spla.splu

    class Scaled:
        def __init__(self, lu, first, later):
            self.lu, self.first, self.later, self.calls = lu, first, later, 0

        def solve(self, rhs):
            self.calls += 1
            return self.lu.solve(rhs) * (self.first if self.calls == 1 else self.later)

    def install(first=1.0, later=1.0):
        monkeypatch.setattr(assembly.spla, "splu", lambda *a, **k: made.append(
            Scaled(splu(*a, **k), first, later)) or made[-1])
        return made

    return install


@pytest.mark.parametrize("later, solves", [(1.0, None), (1e3, 2)])
def test_solve_reports_residual_of_returned_x(later, solves, rng, factorizations):
    # the first solve is off by 1e-8 relative, which triggers refinement;
    # exact corrections repair it, while corrections blown up 1000-fold make
    # the first pass raise the residual, so it is discarded and refinement
    # stops.  Either way the residual reported is that of the returned x.
    space = build_space(refine_to_level("unit_square", 3), 1)
    A = (assemble_mass(space) + assemble_stiffness(space)).tocsr()
    b = rng.standard_normal(space.ndof)
    first = (1.0 + 1e-8) * assembly.spla.splu(A.tocsc()).solve(b)
    first_rel = np.linalg.norm(A @ first - b) / np.linalg.norm(b)
    made = factorizations(first=1.0 + 1e-8, later=later)
    x, rep = solve_spd(A, b)
    if solves is None:
        assert made[0].calls > 1 and rep.relative_residual < 1e-13
    else:
        assert made[0].calls == solves and rep.relative_residual == pytest.approx(first_rel)
    assert rep.relative_residual == np.linalg.norm(A @ x - b) / np.linalg.norm(b)


def test_solve_well_conditioned_mass_takes_no_refinement(factorizations):
    space = build_space(refine_to_level("unit_square", 3), 2)
    M = assemble_mass(space)
    b = M @ np.ones(space.ndof)
    made = factorizations()
    x, rep = solve_spd(M, b)
    assert [lu.calls for lu in made] == [1]
    assert rep.relative_residual <= assembly.REFINE_TARGET
    assert rep.relative_residual == np.linalg.norm(M @ x - b) / np.linalg.norm(b)


@pytest.mark.parametrize("degree", [1, 2])
def test_solve_degenerate_p15_jacobian_vs_dense(degree, rng):
    # zero gradient on the left half: DS is regularized to eps_reg^(p-2) there,
    # which puts the condition number near 1e6..1e7
    space = build_space(refine_to_level("unit_square", 3), degree)
    u = FeFunction(space, np.maximum(space.dof_coords[:, 0] - 0.5, 0.0))
    J = assemble_step_jacobian(space, u, 100.0, PLaplaceParams(p=1.5, kappa=0.0))
    assert np.linalg.cond(J.toarray()) > 1e5
    b = rng.standard_normal(space.ndof)
    x, _ = solve_spd(J, b)
    expected = np.linalg.solve(J.toarray(), b)
    assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)


def test_solve_random_spd_vs_dense_oracle(rng):
    B = rng.standard_normal((50, 50))
    A = B @ B.T + 50 * np.eye(50)
    b = rng.standard_normal(50)
    expected = np.linalg.solve(A, b)
    x, rep = solve_spd(sparse.csr_matrix(A), b)
    assert rep.iterations == 1
    assert np.max(np.abs(x - expected)) < 1e-10


def test_slit_l6_p2_warm_start_is_solved_directly():
    # the zero-gradient warm start of an L6 P2 slit reference step, M/tau + K
    # with 66 177 unknowns, is factored like every smaller system
    space = build_space(refine_to_level("slit", 6), 2)
    assert space.ndof > 40000
    rule = assembly.step_rule(space)
    tau = 0.5
    mat = (assemble_mass(space, rule) / tau + assemble_stiffness(space)).tocsr()
    load = assemble_load(space, np.full((space.areas.shape[0], rule.weights.shape[0]), 2.0),
                         rule)
    bdofs = space.boundary_dofs
    A, b = apply_dirichlet(mat, load, bdofs, np.zeros(bdofs.shape[0]))
    x, rep = solve_spd(A, b)
    assert rep.iterations == 1 and rep.relative_residual <= 1e-12
    assert rep.relative_residual == np.linalg.norm(A @ x - b) / np.linalg.norm(b)


def _smooth_state_jacobians(space, params, tau, amplitudes):
    x = space.dof_coords
    shape = np.sin(2.0 * x[:, 0]) * np.cos(1.5 * x[:, 1]) + x[:, 0] ** 2
    return [assemble_step_jacobian(space, FeFunction(space, a * shape), tau, params)
            for a in amplitudes]


def test_pcg_on_its_own_factorization_is_the_direct_solve(rng):
    space = build_space(refine_to_level("slit", 2), 2)
    (J,) = _smooth_state_jacobians(space, PLaplaceParams(p=3.0), 0.1, [1.0])
    b = rng.standard_normal(space.ndof)
    lu = assembly.factor_spd(J)
    direct, _ = solve_spd(J, b, lu=lu)
    x, rep = pcg_attempt(J, b, lu, 1e-12, 5)
    assert x is not None and 1 <= rep.iterations <= 2
    assert np.linalg.norm(x - direct) <= 1e-12 * np.linalg.norm(direct)


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_pcg_along_a_nearby_factorization_meets_its_tolerance(p):
    # a Newton direction J delta = -r, preconditioned by the LU of the
    # Jacobian at a state 2 % away: the residual on the true J is within
    # rtol, and delta is a descent direction
    space = build_space(refine_to_level("slit", 3), 2)
    params = PLaplaceParams(p=p, kappa=0.0)
    J_near, J = _smooth_state_jacobians(space, params, 0.1, [1.0, 1.02])
    x = space.dof_coords
    u = FeFunction(space, 1.02 * (np.sin(2.0 * x[:, 0]) * np.cos(1.5 * x[:, 1]) + x[:, 0] ** 2))
    rule = assembly.step_rule(space)
    f_quad = np.ones((space.mesh.num_triangles, rule.num_points))
    r = assemble_step_residual(space, u, FeFunction(space, np.zeros(space.ndof)), 0.1,
                               f_quad, params)
    rtol = 1e-4
    delta, rep = pcg_attempt(J, -r, assembly.factor_spd(J_near), rtol, 5)
    assert delta is not None and 1 <= rep.iterations <= 5
    true_rel = np.linalg.norm(J @ delta + r) / np.linalg.norm(r)
    assert true_rel <= rtol and rep.relative_residual == pytest.approx(true_rel, rel=1e-12)
    assert float(r @ delta) < 0.0


def test_pcg_that_misses_returns_no_direction(rng):
    # the LU of the Jacobian at rest (about M/tau) preconditions the Jacobian
    # at a steep state poorly: within one iteration, or two, no 1e-10
    space = build_space(refine_to_level("slit", 2), 2)
    J_rest, J = _smooth_state_jacobians(space, PLaplaceParams(p=3.0), 10.0, [0.0, 30.0])
    lu = assembly.factor_spd(J_rest)
    b = rng.standard_normal(space.ndof)
    for maxiter in (1, 2):
        x, rep = pcg_attempt(J, b, lu, 1e-10, maxiter)
        assert x is None and 1 <= rep.iterations <= maxiter and rep.relative_residual > 1e-10
    # a contraction that cannot reach the tolerance within maxiter ends the
    # attempt early: after one iteration the residual norm kept falling at
    # its first rate would still miss it at iteration 5
    first = pcg_attempt(J, b, lu, 1e-10, 1)[1].relative_residual
    assert first ** 5 > 1e-10
    x, rep = pcg_attempt(J, b, lu, 1e-10, 5)
    assert x is None and rep.iterations == 1


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("block", [assembly.JACOBIAN_BLOCK, 100])
def test_blocked_step_jacobian_equals_the_unblocked_sum(degree, block, rng, monkeypatch):
    # the step Jacobian is summed into the pinned pattern block by block (100
    # cells: several blocks and a short last one); the element matrices of
    # all cells at once, summed in one go, give the same pinned matrix
    monkeypatch.setattr(assembly, "JACOBIAN_BLOCK", block)
    space = build_space(refine_to_level("slit", 3), degree)
    params, tau = PLaplaceParams(p=1.5, kappa=0.0), 0.05
    u = FeFunction(space, rng.standard_normal(space.ndof))
    gops = space.operators(assembly.grad_rule(space))
    iso, rank, d = assembly.ds_split(gops.grad(u.coeffs), params,
                                     eps_reg=assembly.JACOBIAN_EPS_REG)
    local = (assembly._local_stiffness(gops, iso, (rank, d))
             + assembly._local_mass(space, assembly.step_rule(space), 1.0 / tau))
    expected = assembly._sum_pinned(space, [local])
    J = assemble_step_jacobian(space, u, tau, params)
    assert np.array_equal(J.indptr, expected.indptr)
    assert np.array_equal(J.indices, expected.indices)
    assert np.allclose(J.data, expected.data, rtol=1e-14, atol=0.0)
