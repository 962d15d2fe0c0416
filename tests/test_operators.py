"""The quadrature-point operator layer against plain per-element loops.

Each kernel is recomputed here one triangle and one quadrature point at a
time, from the reference basis and the triangle's Jacobian, and scattered
into dense arrays; the vectorized kernels must agree to 1e-13 relative.  The
P1 kernels, which take their gradient terms from the one-point gradient
rule, must also agree with the same terms evaluated on the step rule.
"""

import numpy as np
import pytest
import scipy.sparse as sparse

from pheat.assembly import (assemble_load, assemble_step_jacobian,
                            assemble_step_residual, pin_rows_cols, step_energy,
                            step_rule)
from pheat.constitutive import PLaplaceParams, ds_jacobian, magnitude, phi, s_flux
from pheat.experiments import parse_config, run_experiment
from pheat.fespace import (FeFunction, _reference_bases, build_space, eval_function,
                           eval_gradient, grad_rule, prolongation, quadrature)
from pheat.mesh import refine_to_level, refine_uniform
from pheat.timestepper import kacanov_matrix

TOL = 1e-13
TAU = 0.3

# (domain, level, degree): every space has Dirichlet DOFs, the slit ones on
# both sides of the cut
CASES = [("unit_square", 2, 1), ("slit", 1, 2), ("shifted_square", 1, 3)]


def _close(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return np.max(np.abs(a - b)) <= TOL * max(np.max(np.abs(b)), 1.0)


def _per_point(space, rule):
    """Yield (t, q, weight, phi (nloc,), grad phi (nloc, 2)) for every point."""
    ref = _reference_bases[space.degree]
    vals = ref.values(rule.points)
    grads = ref.gradients(rule.points)
    for t in range(space.mesh.num_triangles):
        for q in range(rule.num_points):
            yield (t, q, space.areas[t] * rule.weights[q], vals[q],
                   (space.inv_jac_t[t] @ grads[q]).T)


def _setup(domain, level, degree, p, rng):
    space = build_space(refine_to_level(domain, level), degree)
    rule = step_rule(space)
    params = PLaplaceParams(p=p)
    u = FeFunction(space, 0.3 + rng.standard_normal(space.ndof))
    u_prev = FeFunction(space, rng.standard_normal(space.ndof))
    f = rng.standard_normal((space.mesh.num_triangles, rule.num_points))
    return space, rule, params, u, u_prev, f


@pytest.mark.parametrize("p", [1.5, 3.0])
@pytest.mark.parametrize("domain,level,degree", CASES)
def test_step_kernels_match_per_element_loops(domain, level, degree, p, rng):
    space, rule, params, u, u_prev, f = _setup(domain, level, degree, p, rng)
    n = space.ndof
    res = np.zeros(n)
    jac = np.zeros((n, n))
    load = np.zeros(n)
    energy = 0.0
    for t, q, w, ph, gr in _per_point(space, rule):
        dofs = space.cell_dofs[t]
        cu, cp = u.coeffs[dofs], u_prev.coeffs[dofs]
        fq = f[t, q]
        diff = ph @ (cu - cp)
        grad = gr.T @ cu
        res[dofs] += w * ((diff / TAU - fq) * ph + gr @ s_flux(grad, params))
        jac[np.ix_(dofs, dofs)] += w * (np.outer(ph, ph) / TAU
                                        + gr @ ds_jacobian(grad, params) @ gr.T)
        load[dofs] += w * fq * ph
        energy += w * (diff * diff / (2 * TAU) + phi(np.linalg.norm(grad), params)
                       - fq * (ph @ cu))
    b = space.boundary_dofs
    res[b] = u.coeffs[b]
    jac[b, :] = 0.0
    jac[:, b] = 0.0
    jac[b, b] = 1.0

    assert _close(assemble_step_residual(space, u, u_prev, TAU, f, params), res)
    assert _close(assemble_step_jacobian(space, u, TAU, params).toarray(), jac)
    assert _close(assemble_load(space, f, rule), load)
    assert abs(step_energy(space, u, u_prev, TAU, f, params) - energy) <= TOL * abs(energy)


@pytest.mark.parametrize("domain,level,degree", CASES)
def test_jacobian_exactly_symmetric_with_unit_pinned_rows(domain, level, degree, rng):
    space, _, params, u, _, _ = _setup(domain, level, degree, 3.0, rng)
    J = assemble_step_jacobian(space, u, TAU, params)
    assert (J != J.T).nnz == 0
    b = space.boundary_dofs
    pinned = J[b]
    assert pinned.nnz == b.shape[0]
    assert np.array_equal(pinned.toarray(), np.eye(space.ndof)[b])
    assert np.array_equal(J[:, b].toarray(), np.eye(space.ndof)[:, b])
    assert not np.any(J.data == 0.0)  # pinned couplings are dropped, not stored as zeros


def _coarse_at_fine_points(f, fine, rule):
    """Values and gradients of the coarse function f at the quadrature points
    of a nested finer space, one point at a time in the coarse ancestor."""
    anc = fine.mesh.ancestor_triangles(f.space.mesh)
    pts = fine.physical_points(rule)
    corners = f.space.mesh.triangle_coords()
    vals = np.empty(pts.shape[:2])
    grads = np.empty(pts.shape)
    for t in range(pts.shape[0]):
        a = anc[t]
        jac = np.column_stack([corners[a, 1] - corners[a, 0], corners[a, 2] - corners[a, 0]])
        for q in range(pts.shape[1]):
            lam = np.linalg.solve(jac, pts[t, q] - corners[a, 0])
            bary = np.array([1.0 - lam.sum(), lam[0], lam[1]])
            vals[t, q] = eval_function(f, a, bary)
            grads[t, q] = eval_gradient(f, a, bary)
    return vals, grads


@pytest.mark.parametrize("coarse_degree,fine_degree,refinements", [
    (1, 2, 2), (2, 2, 2), (3, 3, 2),      # across the slit's cut
    (1, 1, 0), (1, 3, 0), (2, 3, 0),      # degree elevation on one mesh
])
def test_prolongation_matches_pointwise_evaluation(coarse_degree, fine_degree,
                                                   refinements, rng):
    coarse = build_space(refine_to_level("slit", 1), coarse_degree)
    fine_mesh = coarse.mesh
    for _ in range(refinements):
        fine_mesh = refine_uniform(fine_mesh)
    fine = build_space(fine_mesh, fine_degree)
    rule = quadrature(4)
    f = FeFunction(coarse, rng.standard_normal(coarse.ndof))
    P = prolongation(coarse, fine)
    assert P.shape == (fine.ndof, coarse.ndof)
    vals, grads = _coarse_at_fine_points(f, fine, rule)
    ops = fine.operators(rule)
    assert _close(ops.eval(P @ f.coeffs), vals)
    assert _close(ops.grad(P @ f.coeffs), grads)
    if refinements == 0 and fine_degree == coarse_degree:
        assert _close(P.toarray(), np.eye(coarse.ndof))


def test_prolongation_rejects_unnested_meshes_and_degree_drop():
    coarse = build_space(refine_to_level("slit", 1), 1)
    with pytest.raises(ValueError):  # same level, but not on coarse's parent chain
        prolongation(build_space(refine_to_level("slit", 1), 1),
                     build_space(refine_to_level("slit", 2), 1))
    with pytest.raises(ValueError):  # coarse and fine swapped
        prolongation(build_space(refine_uniform(coarse.mesh), 1), coarse)
    with pytest.raises(ValueError):
        prolongation(build_space(coarse.mesh, 2), build_space(refine_uniform(coarse.mesh), 1))


def test_pin_rows_cols_general_matrix(rng):
    # a matrix with a missing diagonal entry on a pinned DOF and explicit
    # duplicates: pinning must match the dense definition
    n = 7
    rows = rng.integers(0, n, 30)
    cols = rng.integers(0, n, 30)
    keep = ~((rows == 2) & (cols == 2))
    A = sparse.coo_matrix((rng.standard_normal(30)[keep], (rows[keep], cols[keep])),
                          shape=(n, n))
    dofs = np.array([2, 5])
    dense = A.toarray()
    dense[dofs, :] = 0.0
    dense[:, dofs] = 0.0
    dense[dofs, dofs] = 1.0
    assert np.array_equal(pin_rows_cols(A, dofs).toarray(), dense)


def _summed(space, local):
    """Element matrices (nt, nloc, nloc) summed into one sparse matrix."""
    cd = space.cell_dofs
    rows = np.repeat(cd, cd.shape[1], axis=1).ravel()
    cols = np.tile(cd, (1, cd.shape[1])).ravel()
    return sparse.coo_matrix((local.ravel(), (rows, cols)), shape=(space.ndof, space.ndof))


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_p1_gradient_rule_matches_step_rule(p, rng):
    # for r = 1 the gradient is constant per cell, so the one-point gradient
    # rule and the six-point step rule give the same S, DS and phi terms
    space, rule, params, u, u_prev, f = _setup("shifted_square", 3, 1, p, rng)
    assert grad_rule(space).num_points == 1 and rule.num_points == 6
    ops = space.operators(rule)                 # the step rule's set
    diff = ops.eval(u.coeffs - u_prev.coeffs)
    grad = ops.grad(u.coeffs)
    G = ops.inv_jac_t[:, None] @ ops.ref_grads.reshape(6, 2, 3)  # (nt, 6, 2, 3)
    mass = np.einsum("tq,qi,qj->tij", ops.w, ops.values, ops.values)

    res = ops.load(diff / TAU - f, s_flux(grad, params))
    res[space.boundary_dofs] = u.coeffs[space.boundary_dofs]
    assert _close(assemble_step_residual(space, u, u_prev, TAU, f, params), res)

    ds = ds_jacobian(grad, params)
    local = mass / TAU + np.einsum("tq,tqai,tqab,tqbj->tij", ops.w, G, ds, G)
    assert _close(assemble_step_jacobian(space, u, TAU, params).toarray(),
                  pin_rows_cols(_summed(space, local), space.boundary_dofs).toarray())

    energy = float(np.vdot(ops.w, diff * diff / (2 * TAU) + phi(magnitude(grad), params)
                           - f * ops.eval(u.coeffs)))
    assert abs(step_energy(space, u, u_prev, TAU, f, params) - energy) <= TOL * abs(energy)

    clamp = 1e-3
    coeff = (params.kappa + np.maximum(magnitude(grad), clamp)) ** (p - 2.0)
    local = mass / TAU + np.einsum("tq,tqai,tqaj->tij", ops.w * coeff, G, G)
    assert _close(kacanov_matrix(space, u.coeffs, TAU, params, clamp=clamp).toarray(),
                  _summed(space, local).toarray())


@pytest.mark.parametrize("degree", [2, 3])
def test_gradient_rule_is_step_rule_above_p1(degree):
    space = build_space(refine_to_level("slit", 1), degree)
    assert grad_rule(space) is step_rule(space)
    assert space.operators(grad_rule(space)) is space.operators(step_rule(space))


def test_build_space_builds_no_operator(rng):
    params = PLaplaceParams(p=3.0)
    for degree in (1, 2):
        space = build_space(refine_to_level("slit", 2), degree)
        assert space._operators == {} and space._pattern is None
        u = FeFunction(space, rng.standard_normal(space.ndof))
        f = np.zeros((space.mesh.num_triangles, step_rule(space).num_points))
        assemble_step_residual(space, u, u, TAU, f, params)
        assemble_step_jacobian(space, u, TAU, params)
        kacanov_matrix(space, u.coeffs, TAU, params)
        # the step and gradient rules' sets are kept, one set for r >= 2
        rules = (step_rule(space), grad_rule(space))
        kept = [space.operators(rule) for rule in rules]
        assert len(space._operators) == (2 if degree == 1 else 1)
        assert all(any(k is ops for ops in space._operators.values()) for k in kept)
        if degree == 1:  # the matrices contract P1 gradients at the centroid only
            assert "gradient_products" not in kept[0].__dict__
        # operators of any other rule are never kept on the space
        error_rule = quadrature(8)
        space.eval_at(error_rule, u.coeffs)
        assert space.operators(error_rule) is not space.operators(error_rule)
        assert all(space.operators(rule) is k for rule, k in zip(rules, kept))


def test_identical_configs_give_identical_csvs(tmp_path):
    # discrete reference: Jacobian pattern, pinning and the prolongation all run
    def run(name):
        cfg = parse_config("experiment = slit_constant_force\np = 3.0\nlevels = 1:2, 2:4\n"
                           f"reference = 3:4:2\noutput_path = {tmp_path / name}\n")
        run_experiment(cfg)
        return (tmp_path / name).read_bytes()

    assert run("a.csv") == run("b.csv")
