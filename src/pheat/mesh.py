"""Conforming triangulations of the study domains with uniform red refinement.

Meshes are immutable after construction.  Refinement returns a new mesh that
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

def _oriented(vertices, triangles):
    """Flip triangles with negative signed area."""
    tris = np.array(triangles, dtype=np.int64)
    verts = np.asarray(vertices, dtype=float)
    xy = verts[tris]
    d1 = xy[:, 1] - xy[:, 0]
    d2 = xy[:, 2] - xy[:, 0]
    area2 = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    tris[area2 < 0] = tris[area2 < 0][:, [0, 2, 1]]
    return verts, tris


def _quadrant_split(corners, origin_index):
    """Split a square into two triangles by the diagonal through `origin_index`."""
    o = origin_index
    a, b, c, d = corners[o], corners[(o + 1) % 4], corners[(o + 2) % 4], corners[(o + 3) % 4]
    return [(a, b, c), (a, c, d)]


def make_initial_mesh(domain):
    """Fixed, documented coarse template for each supported domain.

    unit_square     : (0,1)^2, two triangles split by the (0,0)-(1,1) diagonal.
    centered_square : (-1,1)^2, four axis-aligned unit squares, each split by
                      its diagonal through the origin (8 triangles); the origin
                      is a mesh vertex.
    shifted_square  : (1,3)x(-1,1), same 8-triangle pattern around (2,0).
    slit            : centered_square template with the vertices on the open
                      cut (-1,0]x{0} duplicated; the tip (0,0) stays single.
    """
    if domain not in DOMAINS:
        raise ValueError(f"unknown domain {domain!r}, expected one of {DOMAINS}")

    if domain == "unit_square":
        verts = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        tris = [(0, 1, 2), (0, 2, 3)]
        bnd = [(0, 1), (1, 2), (2, 3), (3, 0)]
        v, t = _oriented(verts, tris)
        return Mesh(domain, v, t, np.array(bnd))

    cx, cy = (2.0, 0.0) if domain == "shifted_square" else (0.0, 0.0)
    # 3x3 grid of vertices around the center
    coords = [(cx + dx, cy + dy) for dy in (-1.0, 0.0, 1.0) for dx in (-1.0, 0.0, 1.0)]
    index = {c: i for i, c in enumerate(coords)}
    center = index[(cx, cy)]

    tris = []
    for sx, sy in ((-1, -1), (1, -1), (1, 1), (-1, 1)):
        sq = [(cx, cy), (cx + sx, cy), (cx + sx, cy + sy), (cx, cy + sy)]
        for tri in _quadrant_split([index[c] for c in sq], 0):
            tris.append(tri)
    bnd = []
    ring = [(cx - 1, cy - 1), (cx, cy - 1), (cx + 1, cy - 1), (cx + 1, cy),
            (cx + 1, cy + 1), (cx, cy + 1), (cx - 1, cy + 1), (cx - 1, cy)]
    for a, b in zip(ring, ring[1:] + ring[:1]):
        bnd.append((index[a], index[b]))

    if domain != "slit":
        v, t = _oriented(coords, tris)
        return Mesh(domain, v, t, np.array(bnd))

    # duplicate cut vertices: y == 0 and -1 <= x < 0 (the tip x = 0 stays single)
    verts = [list(c) for c in coords]
    cut = [i for i, (x, y) in enumerate(coords) if y == 0.0 and -1.0 <= x < 0.0]
    upper_copy = {}
    for i in cut:
        upper_copy[i] = len(verts)
        verts.append(list(coords[i]))

    def relabel(tri):
        # triangles strictly above the cut use the duplicated (upper) copies
        ys = [verts[i][1] for i in tri]
        xs = [verts[i][0] for i in tri]
        above = sum(ys) > 0 and min(xs) < 0
        return tuple(upper_copy.get(i, i) if above and i in upper_copy else i for i in tri)

    tris = [relabel(t) for t in tris]
    # outer boundary edges along x = -1 above the cut attach to the upper copy of (-1,0)
    relabeled_bnd = []
    for a, b in bnd:
        (xa, ya), (xb, yb) = verts[a], verts[b]
        if xa == -1.0 and xb == -1.0 and max(ya, yb) > 0:
            a = upper_copy.get(a, a) if ya == 0.0 else a
            b = upper_copy.get(b, b) if yb == 0.0 else b
        relabeled_bnd.append((a, b))
    bnd = relabeled_bnd
    # both sides of the cut are boundary
    lower_left = index[(-1.0, 0.0)]
    for i, j in [(lower_left, center)]:
        bnd.append((i, j))                                # lower side keeps originals
        bnd.append((upper_copy[lower_left], center))      # upper side uses the copies
    v, t = _oriented(verts, tris)
    return Mesh(domain, v, t, np.array(bnd))


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
    """Coarse template refined `level` times (hierarchy retained)."""
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
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
