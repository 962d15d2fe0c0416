import io
import math

import numpy as np
import pytest

from pheat.mesh import (DOMAINS, Mesh, PointOutsideDomain, barycentric_coordinates,
                        locate_point, make_initial_mesh, mesh_quality, refine_to_level,
                        refine_uniform)

DOMAIN_AREAS = {"unit_square": 1.0, "centered_square": 4.0,
                "shifted_square": 4.0, "slit": 4.0}


@pytest.mark.parametrize("domain", list(DOMAIN_AREAS))
def test_templates_conforming_oriented_area(domain):
    mesh = make_initial_mesh(domain)
    for _ in range(4):
        assert mesh.is_conforming()
        areas = mesh.signed_areas()
        assert np.all(areas > 0)
        assert abs(areas.sum() - DOMAIN_AREAS[domain]) < 1e-12 * DOMAIN_AREAS[domain]
        mesh = refine_uniform(mesh)


def _refine_by_dict(mesh):
    """Red refinement with one midpoint per edge, numbered as a per-triangle
    walk first meets it; the oracle for the array version."""
    verts = [tuple(v) for v in mesh.vertices]
    midpoint = {}

    def mid(i, j):
        key = (min(i, j), max(i, j))
        if key not in midpoint:
            midpoint[key] = len(verts)
            verts.append(((verts[i][0] + verts[j][0]) / 2.0,
                          (verts[i][1] + verts[j][1]) / 2.0))
        return midpoint[key]

    tris = np.empty((4 * mesh.num_triangles, 3), dtype=np.int64)
    for t, (a, b, c) in enumerate(mesh.triangles):
        mab, mbc, mca = mid(a, b), mid(b, c), mid(c, a)
        tris[4 * t:4 * t + 4] = ((a, mab, mca), (b, mbc, mab), (c, mca, mbc), (mab, mbc, mca))
    bnd, tags = [], []
    for (i, j), tag in zip(mesh.boundary_edges, mesh.boundary_tags):
        m = mid(i, j)
        bnd += [(i, m), (m, j)]
        tags += [tag, tag]
    return np.array(verts), tris, np.array(bnd, dtype=np.int64), tuple(tags)


@pytest.mark.parametrize("domain", DOMAINS)
def test_refinement_matches_dict_oracle(domain):
    mesh = make_initial_mesh(domain)
    for _ in range(5):
        verts, tris, bnd, tags = _refine_by_dict(mesh)
        mesh = refine_uniform(mesh)
        for got, want in ((mesh.vertices, verts), (mesh.triangles, tris),
                          (mesh.boundary_edges, bnd)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert mesh.boundary_tags == tags


def test_ancestors_chain_geometric_parents():
    # one-level parent: the coarse triangle that contains the child's centroid
    meshes = [make_initial_mesh("slit")]
    for _ in range(3):
        meshes.append(refine_uniform(meshes[-1]))
    idx = np.arange(meshes[-1].num_triangles)
    for fine, coarse in zip(meshes[:0:-1], meshes[-2::-1]):
        centroids = fine.triangle_coords().mean(axis=1)
        parent = np.array([next(t for t in range(coarse.num_triangles)
                                if barycentric_coordinates(coarse, t, x).min() > 0)
                           for x in centroids])
        idx = parent[idx]
        assert np.array_equal(meshes[-1].ancestor_triangles(coarse), idx)


def _two_triangles(boundary):
    return Mesh("unit_square", np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
                np.array([[0, 1, 2], [0, 2, 3]]), np.array(boundary))


def test_is_conforming_rejects_broken_meshes():
    ring = [[0, 1], [1, 2], [2, 3], [3, 0]]
    assert _two_triangles(ring).is_conforming()
    assert not _two_triangles(ring[:3]).is_conforming()                # boundary edge missing
    assert not _two_triangles(ring + [[2, 0]]).is_conforming()         # interior edge listed
    assert not _two_triangles(ring + [[1, 0]]).is_conforming()         # listed twice
    assert not _two_triangles(ring + [[1, 3]]).is_conforming()         # no triangle has it
    with pytest.raises(ValueError):
        refine_uniform(_two_triangles(ring + [[1, 3]]))
    # hanging node: vertex 4 splits the diagonal on one side only
    hanging = Mesh("unit_square",
                   np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.5, 0.5]]),
                   np.array([[0, 1, 4], [4, 1, 2], [0, 2, 3]]), np.array(ring))
    assert np.all(hanging.signed_areas() > 0)
    assert not hanging.is_conforming()


def test_unit_square_template():
    mesh = make_initial_mesh("unit_square")
    assert mesh.num_triangles == 2
    assert mesh.num_vertices == 4
    # Euler: V - E + F = 1 for a disk (F counts triangles)
    edges = len(mesh.edges[0])
    assert mesh.num_vertices - edges + mesh.num_triangles == 1


def test_shifted_square_bounding_box():
    mesh = refine_to_level("shifted_square", 2)
    assert np.all(mesh.vertices[:, 0] >= 1.0 - 1e-15)
    assert np.all(mesh.vertices[:, 0] <= 3.0 + 1e-15)
    assert np.all(np.abs(mesh.vertices[:, 1]) <= 1.0 + 1e-15)


def test_origin_is_vertex():
    for domain in ("centered_square", "slit"):
        mesh = make_initial_mesh(domain)
        assert np.any(np.all(mesh.vertices == 0.0, axis=1)), domain


def test_slit_duplication():
    mesh = make_initial_mesh("slit")
    coords = [tuple(v) for v in mesh.vertices]
    assert coords.count((0.0, 0.0)) == 1          # tip stays single
    assert coords.count((-1.0, 0.0)) == 2         # on-cut vertex duplicated
    fine = refine_uniform(refine_uniform(mesh))
    cf = [tuple(v) for v in fine.vertices]
    for x in (-1.0, -0.75, -0.5, -0.25):
        assert cf.count((x, 0.0)) == 2, x
    assert cf.count((0.25, 0.0)) == 1             # right of the tip: interior
    assert cf.count((0.0, 0.0)) == 1


def test_slit_interior_dof_counts_documented():
    # the template hierarchy has interior vertex counts 0, 7, 45, ...
    from pheat.fespace import build_space

    counts = []
    mesh = make_initial_mesh("slit")
    for _ in range(3):
        counts.append(build_space(mesh, 1).interior_dofs.size)
        mesh = refine_uniform(mesh)
    assert counts == [0, 7, 45]


def test_refinement_counts_and_similarity():
    mesh = make_initial_mesh("unit_square")
    child = refine_uniform(mesh)
    assert child.num_triangles == 4 * mesh.num_triangles
    assert child.level == mesh.level + 1
    q0, q1 = mesh_quality(mesh), mesh_quality(child)
    assert abs(q1.gamma - q0.gamma) < 1e-12 * q0.gamma
    assert abs(q1.h_max - q0.h_max / 2) < 1e-12 * q0.h_max
    assert abs(q1.quasi_uniformity_ratio - q0.quasi_uniformity_ratio) < 1e-12


def test_boundary_edge_count_doubles():
    mesh = make_initial_mesh("slit")
    counts = []
    for _ in range(3):
        counts.append(len(mesh.boundary_edges))
        mesh = refine_uniform(mesh)
    assert counts[1] == 2 * counts[0] and counts[2] == 2 * counts[1]


def test_quality_closed_forms():
    tri = Mesh("unit_square", np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
               np.array([[0, 1, 2]]), np.array([[0, 1], [1, 2], [2, 0]]))
    q = mesh_quality(tri)
    assert abs(q.h_max - math.sqrt(2)) < 1e-14
    r = (2 - math.sqrt(2)) / 2
    assert abs(q.gamma - math.sqrt(2) / (2 * r)) < 1e-12

    eq = Mesh("unit_square", np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]]),
              np.array([[0, 1, 2]]), np.array([[0, 1], [1, 2], [2, 0]]))
    assert abs(mesh_quality(eq).gamma - math.sqrt(3)) < 1e-12


def test_gamma_above_two_on_templates():
    for domain in DOMAIN_AREAS:
        q = mesh_quality(refine_to_level(domain, 2))
        assert q.gamma > 2.0
        assert q.quasi_uniformity_ratio >= 1.0


def test_locate_centroid_and_vertex():
    mesh = refine_to_level("unit_square", 1)
    tri = 3
    centroid = mesh.vertices[mesh.triangles[tri]].mean(axis=0)
    t, lam = locate_point(mesh, centroid)
    assert t == tri
    assert np.allclose(lam, 1.0 / 3.0, atol=1e-12)
    vertex = mesh.vertices[mesh.triangles[tri][1]]
    t, lam = locate_point(mesh, vertex)
    assert np.isclose(lam.max(), 1.0) and np.isclose(lam.min(), 0.0)
    assert abs(lam.sum() - 1.0) < 1e-12


def test_locate_shared_edge_consistent():
    mesh = refine_to_level("unit_square", 1)
    # midpoint of the main diagonal lies on shared edges
    x = np.array([0.5, 0.5])
    t, lam = locate_point(mesh, x)
    verts = mesh.vertices[mesh.triangles[t]]
    rec = lam @ verts
    assert np.allclose(rec, x, atol=1e-12)
    assert np.isclose(lam.min(), 0.0, atol=1e-12)


def test_locate_outside_raises():
    mesh = refine_to_level("unit_square", 1)
    with pytest.raises(PointOutsideDomain):
        locate_point(mesh, np.array([1.5, 0.5]))


def test_locate_slit_needs_hint():
    mesh = refine_to_level("slit", 2)
    on_cut = np.array([-0.4, 0.0])
    with pytest.raises(ValueError):
        locate_point(mesh, on_cut)
    t_up, _ = locate_point(mesh, on_cut, slit_side="above")
    t_dn, _ = locate_point(mesh, on_cut, slit_side="below")
    assert t_up != t_dn
    cy_up = mesh.vertices[mesh.triangles[t_up]].mean(axis=0)[1]
    cy_dn = mesh.vertices[mesh.triangles[t_dn]].mean(axis=0)[1]
    assert cy_up > 0 > cy_dn


def test_nesting_hundred_points(rng):
    coarse = refine_to_level("centered_square", 2)
    fine = refine_uniform(coarse)
    anc = fine.ancestor_triangles(coarse)
    for _ in range(100):
        x = rng.uniform(-1, 1, 2)
        tc, _ = locate_point(coarse, x)
        tf, _ = locate_point(fine, x)
        assert anc[tf] == tc


def test_ancestor_of_non_descendant_raises():
    a = refine_to_level("unit_square", 1)
    b = refine_to_level("centered_square", 1)
    with pytest.raises(ValueError):
        a.ancestor_triangles(b)


def test_dump_format():
    mesh = make_initial_mesh("unit_square")
    buf = io.StringIO()
    mesh.dump(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "vertices 4 triangles 2"
    assert len(lines) == 1 + 4 + 2
    x, y = map(float, lines[1].split())
    assert (x, y) == (0.0, 0.0)
    assert all(len(line.split()) == 3 for line in lines[5:])
