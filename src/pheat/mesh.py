"""Conforming triangulations of the study domains with uniform red refinement.

Each domain starts from a fixed coarse template written out as literal
vertex, triangle and boundary-edge tables (`make_initial_mesh`); every
triangle of a template is positively oriented as listed.  Meshes are
immutable after construction.  Refinement returns a new mesh that
keeps a reference to its parent.  The hierarchy is an index rule, not a stored
map: the children of parent triangle t are triangles 4t..4t+3 of the refined
mesh, so point location descends it by index and coarse functions are
evaluated exactly on descendant meshes.  `Mesh.edges` is the one edge table:
refinement, the conformity check and the edge DOFs of `fespace` number by it.

The slit domain (-1,1)^2 \\ (-1,0]x{0} is represented by duplicating every
vertex that lies on the open cut.  Triangles above and below the cut then
share no degrees of freedom across it, which is exactly the conformity the
continuous problem requires.  Every listed boundary edge, the two sides of
the cut included, is a Dirichlet edge.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

DOMAINS = ("unit_square", "centered_square", "shifted_square", "slit")
# the finest level `refine_to_level` makes and a config may name: the CSR
# patterns of `assembly` store int32 indices, and a P3 space on an
# 8-triangle template has about 6.5e8 pattern entries at level 10 and 2.6e9,
# past 2^31, at level 11
MAX_LEVEL = 10

_EPS_ON_CUT = 1e-12


class PointOutsideDomain(Exception):
    """Raised when locate_point finds no containing triangle."""


@dataclass(frozen=True)
class MeshQuality:
    """Shape diagnostics of a triangulation.

    gamma is max_T h_T / rho_T where h_T is the triangle diameter (longest
    edge) and rho_T = 2 r_T the inscribed-circle diameter, r_T = 2 area / perimeter.
    """

    h_max: float
    h_min: float
    gamma: float
    quasi_uniformity_ratio: float


@dataclass(frozen=True, eq=False)
class Mesh:
    """Triangulation of a polygonal (possibly slit) domain.

    Attributes
    ----------
    domain : str
        One of DOMAINS.
    vertices : (nv, 2) float array
    triangles : (nt, 3) int array, positively oriented
    boundary_edges : (nb, 2) int array
        Vertex index pairs lying on the boundary (slit cut edges included,
        once per side).
    level : int, refinement depth
    parent : Mesh or None
        The mesh this one refines.  The children of parent triangle t are
        triangles 4t..4t+3 here: three corner children, then the center child.
    """

    domain: str
    vertices: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    level: int = 0
    parent: "Mesh | None" = None

    def __post_init__(self):
        object.__setattr__(self, "vertices", np.asarray(self.vertices, dtype=float))
        object.__setattr__(self, "triangles", np.asarray(self.triangles, dtype=np.int64))
        object.__setattr__(self, "boundary_edges", np.asarray(self.boundary_edges, dtype=np.int64))

    # ------------------------------------------------------------------
    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_triangles(self):
        return self.triangles.shape[0]

    def triangle_coords(self, indices=None):
        """Vertex coordinates per triangle, shape (nt, 3, 2)."""
        tris = self.triangles if indices is None else self.triangles[indices]
        return self.vertices[tris]

    def signed_areas(self):
        xy = self.triangle_coords()
        d1 = xy[:, 1] - xy[:, 0]
        d2 = xy[:, 2] - xy[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    @cached_property
    def edges(self):
        """(edges, tri_edges): the distinct edges as sorted vertex pairs in
        lexicographic order, shape (ne, 2), and the edge number of each
        triangle's local edges ab, bc, ca, shape (nt, 3)."""
        nv = self.num_vertices
        pairs = np.sort(self.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 3, 2), axis=2)
        keys, tri_edges = np.unique(pairs @ np.array([nv, 1]), return_inverse=True)
        return np.stack(np.divmod(keys, nv), axis=1), tri_edges.reshape(-1, 3)

    @cached_property
    def boundary_edge_ids(self):
        """Edge number of each listed boundary edge, -1 where no triangle has it."""
        weights = np.array([self.num_vertices, 1])
        keys = self.edges[0] @ weights
        bkeys = np.sort(self.boundary_edges, axis=1) @ weights
        idx = np.minimum(np.searchsorted(keys, bkeys), len(keys) - 1)
        return np.where(keys[idx] == bkeys, idx, -1)

    def ancestor_triangles(self, ancestor):
        """Map each triangle to its containing triangle of `ancestor`.

        `ancestor` must lie on this mesh's parent chain (or be this mesh).
        """
        m, depth = self, 0
        while m is not ancestor:
            if m.parent is None:
                raise ValueError("mesh does not descend from the given ancestor")
            m, depth = m.parent, depth + 1
        return np.arange(self.num_triangles) // 4 ** depth

    def is_conforming(self):
        """Every edge belongs to two triangles, or to one triangle and is
        listed once as a boundary edge."""
        edges, tri_edges = self.edges
        ids = np.concatenate([tri_edges.ravel(), self.boundary_edge_ids]) + 1  # 0: no edge
        uses = np.bincount(ids, minlength=len(edges) + 1)
        return bool(uses[0] == 0 and np.all(uses[1:] == 2))

    # ------------------------------------------------------------------
    def dump(self, fh):
        """Plain-text dump: header, one vertex per line, one triangle per line."""
        fh.write(f"vertices {self.num_vertices} triangles {self.num_triangles}\n")
        for x, y in self.vertices:
            fh.write(f"{float(x)!r} {float(y)!r}\n")
        for i, j, k in self.triangles:
            fh.write(f"{i} {j} {k}\n")


# ----------------------------------------------------------------------
# coarse templates
# ----------------------------------------------------------------------

_GRID = [(x, y) for y in (-1.0, 0.0, 1.0) for x in (-1.0, 0.0, 1.0)]  # centre: vertex 4
_GRID_TRIANGLES = [(4, 3, 0), (4, 0, 1), (4, 2, 5), (4, 1, 2),
                   (4, 5, 8), (4, 8, 7), (4, 6, 3), (4, 7, 6)]
_GRID_RING = [(0, 1), (1, 2), (2, 5), (5, 8), (8, 7), (7, 6), (6, 3), (3, 0)]


def make_initial_mesh(domain):
    """Fixed, documented coarse template for each supported domain.

    unit_square     : (0,1)^2, two triangles split by the (0,0)-(1,1) diagonal.
    centered_square : (-1,1)^2, four axis-aligned unit squares, each split by
                      its diagonal through the origin (8 triangles); the origin
                      is a mesh vertex.
    shifted_square  : (1,3)x(-1,1), same 8-triangle pattern around (2,0).
    slit            : centered_square template with the vertices on the open
                      cut (-1,0]x{0} duplicated; the tip (0,0) stays single.
                      Vertex 9 is the copy of (-1,0) used by the triangle
                      above the cut, and both sides of the cut are boundary.
    """
    if domain not in DOMAINS:
        raise ValueError(f"unknown domain {domain!r}, expected one of {DOMAINS}")
    if domain == "unit_square":
        return Mesh(domain, [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)],
                    [(0, 1, 2), (0, 2, 3)], [(0, 1), (1, 2), (2, 3), (3, 0)])
    if domain == "centered_square":
        return Mesh(domain, _GRID, _GRID_TRIANGLES, _GRID_RING)
    if domain == "shifted_square":
        return Mesh(domain, [(x + 2.0, y) for x, y in _GRID], _GRID_TRIANGLES, _GRID_RING)
    tris = _GRID_TRIANGLES[:6] + [(4, 6, 9)] + _GRID_TRIANGLES[7:]
    ring = _GRID_RING[:6] + [(6, 9), (3, 0), (3, 4), (9, 4)]
    return Mesh(domain, _GRID + [(-1.0, 0.0)], tris, ring)


# ----------------------------------------------------------------------
# refinement
# ----------------------------------------------------------------------

def refine_uniform(mesh):
    """Red refinement: each triangle is split into 4 via edge midpoints.

    One midpoint per edge of `Mesh.edges`, so the duplicated slit edges get
    duplicated midpoints and the cut stays open.  Midpoints are numbered after
    the vertices in the order their edges are first met, triangle by triangle
    and ab, bc, ca within one.  Children of triangle t occupy slots 4t..4t+3.
    """
    edges, tri_edges = mesh.edges
    if np.any(mesh.boundary_edge_ids < 0):
        raise ValueError("a listed boundary edge belongs to no triangle")
    nv, ne = mesh.num_vertices, len(edges)
    order = np.argsort(np.unique(tri_edges, return_index=True)[1])
    mid = np.empty(ne, dtype=np.int64)
    mid[order] = nv + np.arange(ne)
    ends = mesh.vertices[edges[order]]
    verts = np.vstack([mesh.vertices, (ends[:, 0] + ends[:, 1]) / 2.0])

    a, b, c = mesh.triangles.T
    mab, mbc, mca = mid[tri_edges].T
    tris = np.stack([a, mab, mca, b, mbc, mab, c, mca, mbc, mab, mbc, mca],
                    axis=1).reshape(-1, 3)

    i, j = mesh.boundary_edges.T
    m = mid[mesh.boundary_edge_ids]
    bnd = np.stack([i, m, m, j], axis=1).reshape(-1, 2)
    return Mesh(mesh.domain, verts, tris, bnd, level=mesh.level + 1, parent=mesh)


def refine_to_level(domain, level):
    """Coarse template refined `level` times (hierarchy retained), for
    0 <= level <= MAX_LEVEL; ValueError otherwise."""
    if not 0 <= level <= MAX_LEVEL:
        raise ValueError(f"level must be in [0, {MAX_LEVEL}], got {level}")
    m = make_initial_mesh(domain)
    for _ in range(level):
        m = refine_uniform(m)
    return m


# ----------------------------------------------------------------------
# diagnostics and queries
# ----------------------------------------------------------------------

def mesh_quality(mesh):
    xy = mesh.triangle_coords()
    e0 = np.linalg.norm(xy[:, 1] - xy[:, 0], axis=1)
    e1 = np.linalg.norm(xy[:, 2] - xy[:, 1], axis=1)
    e2 = np.linalg.norm(xy[:, 0] - xy[:, 2], axis=1)
    h = np.maximum(np.maximum(e0, e1), e2)
    perim = e0 + e1 + e2
    area = np.abs(mesh.signed_areas())
    inradius = 2.0 * area / perim
    rho = 2.0 * inradius
    return MeshQuality(h_max=float(h.max()), h_min=float(h.min()),
                       gamma=float((h / rho).max()),
                       quasi_uniformity_ratio=float(h.max() / h.min()))


def barycentric_coordinates(mesh, tri_index, x):
    """Barycentric coordinates of point x in the given triangle."""
    a, b, c = mesh.vertices[mesh.triangles[tri_index]]
    T = np.array([[b[0] - a[0], c[0] - a[0]], [b[1] - a[1], c[1] - a[1]]])
    lam12 = np.linalg.solve(T, np.asarray(x, dtype=float) - a)
    return np.array([1.0 - lam12[0] - lam12[1], lam12[0], lam12[1]])


def _contains(mesh, tri_index, x, tol):
    lam = barycentric_coordinates(mesh, tri_index, x)
    return (lam.min() >= -tol), lam


def _on_cut(mesh, x):
    return (mesh.domain == "slit" and abs(x[1]) <= _EPS_ON_CUT
            and -1.0 <= x[0] < -_EPS_ON_CUT)


def locate_point(mesh, x, slit_side=None, tol=1e-10):
    """Find (triangle index, barycentric coordinates) containing x.

    Descends the refinement hierarchy from the root template, so lookup
    costs O(level).  For slit meshes, points on the open cut are ambiguous
    and require slit_side in {"above", "below"}.
    """
    x = np.asarray(x, dtype=float)
    if _on_cut(mesh, x) and slit_side not in ("above", "below"):
        raise ValueError("point lies on the slit cut; pass slit_side='above' or 'below'")

    def side_ok(m, t):
        if slit_side is None or not _on_cut(mesh, x):
            return True
        cy = m.vertices[m.triangles[t]].mean(axis=0)[1]
        return cy > 0 if slit_side == "above" else cy < 0

    chain = [mesh]
    while chain[-1].parent is not None:
        chain.append(chain[-1].parent)
    chain.reverse()

    root = chain[0]
    found = None
    for t in range(root.num_triangles):
        ok, lam = _contains(root, t, x, tol)
        if ok and side_ok(root, t):
            found = t
            break
    if found is None:
        raise PointOutsideDomain(f"point {x} not inside the level-0 mesh")

    for child_mesh in chain[1:]:
        nxt = None
        for t in range(4 * found, 4 * found + 4):
            ok, lam = _contains(child_mesh, t, x, tol)
            if ok and side_ok(child_mesh, t):
                nxt = t
                break
        if nxt is None:
            raise PointOutsideDomain(f"point {x} lost during hierarchy descent")
        found = nxt

    lam = barycentric_coordinates(mesh, found, x)
    lam = np.clip(lam, 0.0, None)
    lam = lam / lam.sum()
    return found, lam
