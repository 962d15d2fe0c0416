import io
from itertools import permutations
from math import factorial

import numpy as np
import pytest

from conftest import eval_at_points, random_points_in
from pheat.fespace import (FeFunction, UnsupportedDegree, build_space, eval_function,
                           eval_gradient, quadrature)
from pheat.mesh import locate_point, make_initial_mesh, refine_to_level


def test_ndof_counts():
    mesh = make_initial_mesh("unit_square")
    assert build_space(mesh, 1).ndof == 4
    assert build_space(mesh, 2).ndof == 4 + 5   # four boundary edges + diagonal
    assert build_space(mesh, 3).ndof == 4 + 2 * 5 + 2


def test_unsupported_degree():
    mesh = make_initial_mesh("unit_square")
    with pytest.raises(UnsupportedDegree):
        build_space(mesh, 4)
    with pytest.raises(UnsupportedDegree):
        quadrature(0)
    with pytest.raises(UnsupportedDegree):
        quadrature(21)


def test_slit_duplicated_dofs_are_distinct():
    mesh = refine_to_level("slit", 1)
    space = build_space(mesh, 1)
    assert space.ndof == mesh.num_vertices  # duplicated vertices kept separate
    coords = [tuple(c) for c in space.dof_coords]
    assert coords.count((-0.5, 0.0)) == 2


def test_centroid_rule():
    rule = quadrature(1)
    assert rule.num_points == 1
    assert np.allclose(rule.points, [[1 / 3, 1 / 3, 1 / 3]])
    assert np.allclose(rule.weights, [1.0])


@pytest.mark.parametrize("degree", [1, 2, 3, 5, 8, 11, 14, 17, 20])
def test_quadrature_monomial_exactness(degree):
    rule = quadrature(degree)
    assert np.all(rule.weights > 0)
    assert abs(rule.weights.sum() - 1.0) < 1e-13
    x, y = rule.points[:, 1], rule.points[:, 2]
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            # int_T x^a y^b over the reference triangle = a! b! / (a+b+2)!,
            # divided by the area 1/2 for the normalized weights
            exact = 2.0 * factorial(a) * factorial(b) / factorial(a + b + 2)
            got = float(np.sum(rule.weights * x ** a * y ** b))
            assert abs(got - exact) < 5e-15, (a, b)


def _monomial_errors(rule, degree):
    """|quadrature - exact| of every monomial x^a y^b with a + b == degree."""
    x, y = rule.points[:, 1], rule.points[:, 2]
    return [abs(float(np.sum(rule.weights * x ** a * y ** (degree - a)))
                - 2.0 * factorial(a) * factorial(degree - a) / factorial(degree + 2))
            for a in range(degree + 1)]


@pytest.mark.parametrize("degree, npoints", [(2, 3), (4, 6), (6, 12), (8, 16)])
def test_symmetric_rules(degree, npoints):
    rule = quadrature(degree)
    assert rule.num_points == npoints
    assert max(max(_monomial_errors(rule, k)) for k in range(degree + 1)) <= 1e-15
    # the claimed degree is the rule's exact degree
    assert max(_monomial_errors(rule, degree + 1)) > 1e-6
    assert np.all(rule.weights > 0)
    assert np.all(rule.points > 0) and np.allclose(rule.points.sum(axis=1), 1.0, atol=1e-15)
    # each vertex permutation maps the rule onto itself
    key = sorted(zip(map(tuple, rule.points.round(14)), rule.weights.round(14)))
    for perm in permutations(range(3)):
        permuted = rule.points[:, perm].round(14)
        assert sorted(zip(map(tuple, permuted), rule.weights.round(14))) == key


@pytest.mark.parametrize("degree", [3, 5, 10])
def test_untabled_degrees_keep_the_product_rule(degree):
    assert quadrature(degree).num_points == ((degree + 2) // 2) ** 2


@pytest.mark.parametrize("n", range(1, 12))
def test_gauss_jacobi_matches_scipy(n):
    # the product rules' (1 - x)-weighted Gauss rule, by Golub-Welsch, against
    # scipy's; n = 1 (the P1 gradient rule, the centroid) is bitwise the same
    from scipy.special import roots_jacobi

    from pheat.fespace import _gauss_jacobi_10

    nodes, weights = _gauss_jacobi_10(n)
    ref_nodes, ref_weights = roots_jacobi(n, 1.0, 0.0)
    if n == 1:
        assert (nodes[0], weights[0]) == (ref_nodes[0], ref_weights[0])
    assert np.max(np.abs(nodes - ref_nodes)) <= 1e-14
    assert np.max(np.abs(weights - ref_weights)) <= 1e-14


def test_import_pheat_leaves_scipy_special_unloaded():
    # scipy.special costs start-up time and pheat needs nothing from it
    import os
    import subprocess
    import sys
    from pathlib import Path

    import pheat

    env = {**os.environ, "PYTHONPATH": str(Path(pheat.__file__).resolve().parents[1])}
    code = "import sys, pheat; print('scipy.special' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "False"


def test_cached_rules_are_read_only():
    rule = quadrature(8)
    assert quadrature(8) is rule
    with pytest.raises(ValueError):
        rule.points[0, 0] = 0.0
    with pytest.raises(ValueError):
        rule.weights[0] = 0.0


def test_eval_constant_and_hat():
    mesh = refine_to_level("unit_square", 1)
    space = build_space(mesh, 1)
    const = FeFunction(space, np.full(space.ndof, 7.25))
    for tri in range(mesh.num_triangles):
        assert eval_function(const, tri, [1 / 3, 1 / 3, 1 / 3]) == pytest.approx(7.25)

    hat = FeFunction(space, np.zeros(space.ndof))
    node = space.interior_dofs[0] if space.interior_dofs.size else 0
    hat.coeffs[node] = 1.0
    for i in range(space.ndof):
        tri, lam = locate_point(mesh, space.dof_coords[i])
        val = eval_function(hat, tri, lam)
        assert val == pytest.approx(1.0 if i == node else 0.0, abs=1e-13)


def test_linear_reproduction_at_centroids():
    mesh = refine_to_level("unit_square", 2)
    space = build_space(mesh, 1)
    f = FeFunction(space, space.dof_coords[:, 0])
    for tri in range(mesh.num_triangles):
        centroid = mesh.vertices[mesh.triangles[tri]].mean(axis=0)
        assert abs(eval_function(f, tri, [1 / 3, 1 / 3, 1 / 3]) - centroid[0]) < 1e-14


def test_gradients():
    mesh = refine_to_level("unit_square", 2)
    s1 = build_space(mesh, 1)
    f = FeFunction(s1, s1.dof_coords[:, 0])
    for tri in (0, 5, 11):
        g = eval_gradient(f, tri, [1 / 3, 1 / 3, 1 / 3])
        assert np.allclose(g, [1.0, 0.0], atol=1e-13)
    zero = FeFunction(s1, np.full(s1.ndof, 3.0))
    assert np.allclose(eval_gradient(zero, 2, [0.2, 0.3, 0.5]), 0.0, atol=1e-13)

    s2 = build_space(mesh, 2)
    f2 = FeFunction(s2, s2.dof_coords[:, 0] ** 2)
    rule = quadrature(4)
    grads = s2.grad_at(rule, f2.coeffs)
    pts = s2.physical_points(rule)
    assert np.max(np.abs(grads[..., 0] - 2 * pts[..., 0])) < 1e-12
    assert np.max(np.abs(grads[..., 1])) < 1e-12


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_lagrange_reproduction_random_polynomials(degree, rng):
    mesh = refine_to_level("unit_square", 2)
    space = build_space(mesh, degree)

    exps = [(i, j) for i in range(degree + 1) for j in range(degree + 1 - i)]
    coeffs = rng.standard_normal(len(exps))

    def poly(pts):
        return sum(c * pts[:, 0] ** i * pts[:, 1] ** j
                   for c, (i, j) in zip(coeffs, exps))

    f = FeFunction(space, poly(space.dof_coords))
    pts = random_points_in(mesh, 50, rng)
    vals = eval_at_points(f, pts)
    expected = poly(pts)
    scale = np.abs(expected).max()
    assert np.max(np.abs(vals - expected)) < 1e-11 * max(scale, 1.0)
    # and at quadrature points, through the point operators
    rule = quadrature(6)
    qpts = space.physical_points(rule)
    expected = poly(qpts.reshape(-1, 2)).reshape(qpts.shape[:2])
    assert np.max(np.abs(space.eval_at(rule, f.coeffs) - expected)) < 1e-11 * max(scale, 1.0)


def test_gradient_matches_finite_differences(rng):
    mesh = refine_to_level("unit_square", 3)
    for degree in (1, 2):
        space = build_space(mesh, degree)
        f = FeFunction(space, rng.standard_normal(space.ndof))
        h = 1e-6
        for x in random_points_in(mesh, 10, rng, margin=0.01):
            tri, lam = locate_point(mesh, x)
            g = eval_gradient(f, tri, lam)
            for axis in (0, 1):
                e = np.zeros(2)
                e[axis] = h
                tp, lp = locate_point(mesh, x + e)
                tm, lm = locate_point(mesh, x - e)
                fd = (eval_function(f, tp, lp) - eval_function(f, tm, lm)) / (2 * h)
                # only compare when the stencil stays inside one triangle
                if tp == tri == tm:
                    assert abs(fd - g[axis]) < 1e-5 * max(1.0, abs(g[axis]))


def test_single_valued_on_shared_edges(rng):
    mesh = refine_to_level("unit_square", 2)
    space = build_space(mesh, 2)
    f = FeFunction(space, rng.standard_normal(space.ndof))
    edges, tri_edges = mesh.edges
    shared = edges[np.bincount(tri_edges.ravel()) == 2][:10]
    for i, j in shared:
        x = 0.5 * (mesh.vertices[i] + mesh.vertices[j])
        owners = [t for t in range(mesh.num_triangles)
                  if i in mesh.triangles[t] and j in mesh.triangles[t]]
        vals = []
        for t in owners:
            from pheat.mesh import barycentric_coordinates
            lam = barycentric_coordinates(mesh, t, x)
            vals.append(eval_function(f, t, lam))
        assert abs(vals[0] - vals[1]) < 1e-13 * max(1.0, abs(vals[0]))


def test_jump_across_slit(rng):
    mesh = refine_to_level("slit", 2)
    space = build_space(mesh, 1)
    f = FeFunction(space, rng.standard_normal(space.ndof))
    x = np.array([-0.5, 0.0])
    up = eval_at_points(f, [x], slit_side="above")[0]
    dn = eval_at_points(f, [x], slit_side="below")[0]
    assert abs(up - dn) > 1e-6  # generic coefficients jump across the cut


def test_function_dump_format():
    mesh = refine_to_level("unit_square", 1)
    space = build_space(mesh, 2)
    f = FeFunction(space, np.arange(space.ndof, dtype=float))
    buf = io.StringIO()
    f.dump(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == f"ndof {space.ndof} degree 2 level 1"
    assert len(lines) == 1 + space.ndof
    assert float(lines[1]) == 0.0
