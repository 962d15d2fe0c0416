import numpy as np
import pytest

from conftest import eval_at_points, random_points_in
from pheat import assembly
from pheat.constitutive import PLaplaceParams
from pheat.fespace import build_space, quadrature
from pheat.mesh import DOMAINS, make_initial_mesh, refine_to_level, refine_uniform
from pheat.projection import (NonFiniteValue, averaged_boundary_values, l2_project,
                              nodal_interpolate, verify_l2_decay, verify_v_stability)
from pheat.timestepper import TimeGrid


def test_constant_projection():
    space = build_space(refine_to_level("unit_square", 2), 1)
    pr = l2_project(space, 4.25)
    assert np.max(np.abs(pr.coeffs - 4.25)) < 1e-10


@pytest.mark.parametrize("degree", [1, 2])
def test_projection_reproduces_space_members(degree, rng):
    # global polynomials of degree <= r lie in V_h and must be reproduced
    space = build_space(refine_to_level("unit_square", 2), degree)
    coeffs = rng.standard_normal(6)[: (degree + 1) * (degree + 2) // 2]
    exps = [(i, j) for i in range(degree + 1) for j in range(degree + 1 - i)]

    def g(pts):
        return sum(c * pts[:, 0] ** i * pts[:, 1] ** j
                   for c, (i, j) in zip(coeffs, exps))

    pr = l2_project(space, g)
    assert np.max(np.abs(pr.coeffs - g(space.dof_coords))) < 1e-10


def test_projection_linearity(rng):
    space = build_space(refine_to_level("unit_square", 2), 1)
    g = lambda pts: np.sin(np.pi * pts[:, 0]) * pts[:, 1]
    w = lambda pts: np.cos(pts[:, 0] + pts[:, 1])
    a, b = rng.standard_normal(2)
    combo = l2_project(space, lambda pts: a * g(pts) + b * w(pts))
    parts = a * l2_project(space, g).coeffs + b * l2_project(space, w).coeffs
    assert np.max(np.abs(combo.coeffs - parts)) < 1e-10


def test_projection_idempotent():
    space = build_space(refine_to_level("unit_square", 3), 1)
    g = lambda pts: np.exp(pts[:, 0]) * np.sin(2 * pts[:, 1])
    pr = l2_project(space, g)
    M = assembly.assemble_mass(space)
    twice, _ = assembly.solve_spd(M, M @ pr.coeffs)
    rule = quadrature(4)
    diff = space.eval_at(rule, twice - pr.coeffs)
    assert np.sqrt(space.integrate(rule, diff * diff)) <= 1e-10


@pytest.mark.parametrize("degree", [1, 2])
def test_self_adjointness_bilinear_identity(degree, rng):
    # (Pi g, w) = (g, Pi w) and (Pi v, Pi v) = (v, Pi v) on cubic fields:
    # every integrand is polynomial, so degree-8 quadrature is exact
    space = build_space(refine_to_level("unit_square", 2), degree)
    rule = quadrature(8)
    pts = space.physical_points(rule)
    flat = pts.reshape(-1, 2)

    def rand_cubic():
        c = rng.standard_normal(10)
        exps = [(i, j) for i in range(4) for j in range(4 - i)]
        return lambda q: sum(ck * q[:, 0] ** i * q[:, 1] ** j
                             for ck, (i, j) in zip(c, exps))

    g, w = rand_cubic(), rand_cubic()
    pg = space.eval_at(rule, l2_project(space, g).coeffs)
    pw = space.eval_at(rule, l2_project(space, w).coeffs)
    gv = g(flat).reshape(pg.shape)
    wv = w(flat).reshape(pw.shape)
    lhs = space.integrate(rule, pg * wv)
    rhs = space.integrate(rule, gv * pw)
    assert lhs == pytest.approx(rhs, abs=1e-10)
    assert space.integrate(rule, pg * pg) == pytest.approx(
        space.integrate(rule, gv * pg), abs=1e-10)


def test_mass_conservation():
    space = build_space(refine_to_level("unit_square", 3), 1)
    g = lambda pts: np.cosh(pts[:, 0] - 0.3) * pts[:, 1] ** 2
    rule = quadrature(8)
    pts = space.physical_points(rule)
    gv = g(pts.reshape(-1, 2)).reshape(pts.shape[:2])
    pr = l2_project(space, g, quad_degree=8)
    assert space.integrate(rule, space.eval_at(rule, pr.coeffs)) == pytest.approx(
        space.integrate(rule, gv), abs=1e-10)


@pytest.mark.parametrize("degree", [1, 2])
def test_nodal_interpolation_polynomials(degree, rng):
    space = build_space(refine_to_level("unit_square", 2), degree)

    def poly(pts):
        return 1.0 + pts[:, 0] ** degree - 0.5 * pts[:, 1] ** degree

    f = nodal_interpolate(space, poly)
    pts = random_points_in(space.mesh, 50, rng)
    assert np.max(np.abs(eval_at_points(f, pts) - poly(pts))) < 1e-11


def test_nodal_interpolation_abs_on_omega2():
    space = build_space(refine_to_level("shifted_square", 1), 1)
    g = lambda pts: np.linalg.norm(pts, axis=-1)
    f = nodal_interpolate(space, g)
    for i in range(space.ndof):
        assert f.coeffs[i] == np.linalg.norm(space.dof_coords[i])


def test_nodal_interpolation_nonfinite():
    space = build_space(refine_to_level("unit_square", 1), 1)

    def singular(pts):
        with np.errstate(divide="ignore"):
            return 1.0 / (pts[:, 0] - 0.5)

    with pytest.raises(NonFiniteValue):
        nodal_interpolate(space, singular)


def test_interpolation_error_ratio_quarter():
    g = lambda pts: np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])
    rule = quadrature(8)
    errs = []
    mesh = refine_to_level("unit_square", 3)
    for _ in range(3):
        space = build_space(mesh, 1)
        f = nodal_interpolate(space, g)
        pts = space.physical_points(rule)
        diff = space.eval_at(rule, f.coeffs) - g(pts.reshape(-1, 2)).reshape(pts.shape[:2])
        errs.append(np.sqrt(space.integrate(rule, diff * diff)))
        mesh = refine_uniform(mesh)
    for e0, e1 in zip(errs, errs[1:]):
        assert 0.25 * 0.85 < e1 / e0 < 0.25 * 1.15


def test_interpolation_vs_projection_both_converge():
    g = lambda pts: np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])
    rule = quadrature(8)
    for op in (nodal_interpolate, l2_project):
        errs = []
        mesh = refine_to_level("unit_square", 2)
        for _ in range(3):
            space = build_space(mesh, 1)
            f = op(space, g)
            pts = space.physical_points(rule)
            diff = space.eval_at(rule, f.coeffs) - g(pts.reshape(-1, 2)).reshape(pts.shape[:2])
            errs.append(np.sqrt(space.integrate(rule, diff * diff)))
            mesh = refine_uniform(mesh)
        assert errs[2] < errs[1] < errs[0]


def test_averaged_boundary_values_closed_forms():
    space = build_space(refine_to_level("unit_square", 1), 1)
    nb = space.boundary_dofs.size

    grid = TimeGrid(0.0, 1.0, 4)
    const = averaged_boundary_values(space, lambda pts, t: np.full(len(pts), 3.5), 2, grid)
    assert np.allclose(const, 3.5, atol=1e-13)

    # u(x,t) = t over J_1 = [0, 2 tau] averages to tau
    lin = averaged_boundary_values(space, lambda pts, t: np.full(len(pts), t), 1, grid)
    assert np.allclose(lin, grid.tau, atol=1e-13)

    # |t|^(1/2) over [-tau, tau]: mean (2/3) tau^(1/2); 5-pt Gauss with the
    # split at zero resolves the kink to ~1e-3 relative
    grid2 = TimeGrid(-0.25, 0.25, 2)
    kink = averaged_boundary_values(space, lambda pts, t: np.full(len(pts), abs(t) ** 0.5),
                                    1, grid2)
    exact = (2.0 / 3.0) * 0.25 ** 0.5
    assert np.allclose(kink, exact, rtol=2e-3)
    assert kink.shape == (nb,)


def test_l2_decay_level4():
    space = build_space(refine_to_level("unit_square", 4), 1)
    rep = verify_l2_decay(space)
    assert 0.0 < rep.q_fit <= 0.9


def test_l2_decay_stable_across_levels():
    fits = []
    for level in (3, 4, 5):
        space = build_space(refine_to_level("unit_square", level), 1)
        fits.append(verify_l2_decay(space).q_fit)
    assert max(fits) - min(fits) <= 0.2  # +-0.1 about the common value


@pytest.mark.parametrize("domain", DOMAINS)
def test_l2_decay_needs_two_layers_beyond_the_source(domain):
    # every level-0 template lies within one patch hop of its source triangle
    with pytest.raises(ValueError, match="layer"):
        verify_l2_decay(build_space(refine_to_level(domain, 0), 1))


def test_l2_decay_constant_flag():
    space = build_space(refine_to_level("unit_square", 3), 1)
    rep = verify_l2_decay(space, g=2.0)
    assert rep.q_fit == 0.0


class _Field:
    def __init__(self, fn, grad):
        self.fn = fn
        self.grad = grad

    def __call__(self, pts):
        return self.fn(pts)

    def gradient(self, pts):
        return self.grad(pts)


def _sinsin():
    return _Field(
        lambda pts: np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1]),
        lambda pts: np.pi * np.stack(
            [np.cos(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1]),
             np.sin(np.pi * pts[:, 0]) * np.cos(np.pi * pts[:, 1])], axis=-1))


def test_v_stability_member_is_exact():
    mesh = refine_to_level("unit_square", 2)
    space = build_space(mesh, 1)
    lin = _Field(lambda pts: 2.0 * pts[:, 0] - pts[:, 1],
                 lambda pts: np.broadcast_to([2.0, -1.0], (len(pts), 2)))
    params = PLaplaceParams(p=1.5, kappa=0.0)
    rep = verify_v_stability(space, lin, params)
    assert rep.errors[-1] <= 1e-9


@pytest.mark.parametrize("p", [1.5, 2.0])
def test_v_stability_order_near_one(p):
    mesh = make_initial_mesh("unit_square")
    for _ in range(4):
        mesh = refine_uniform(mesh)
    space = build_space(mesh, 1)
    params = PLaplaceParams(p=p, kappa=0.0)
    rep = verify_v_stability(space, _sinsin(), params)
    assert rep.order >= 0.9
    assert len(rep.csv_rows()) == len(rep.errors)
    assert rep.h[0] > rep.h[-1]
