"""L2-projection, nodal interpolation, and time-averaged boundary data.

Also contains two numerical verification routines: the exponential decay of
the L2-projection away from a localized source, and the empirical order of
the nonlinear stability ||V(grad v) - V(grad Pi_2 v)||_L2 ~ h^alpha under
refinement.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse
from scipy.sparse.csgraph import shortest_path

from . import assembly
from .constitutive import v_transform
from .fespace import FeFunction, build_space, gauss_segments, quadrature

LOAD_QUADRATURE_DEGREE = 8   # >= 2r + 2 for all supported degrees


class NonFiniteValue(Exception):
    """Nodal interpolation hit a non-finite value at a DOF node."""


def l2_project(space, g, quad_degree=LOAD_QUADRATURE_DEGREE):
    """Best L2 approximation of g in the (unconstrained) space.

    Solves M c = b with b_i = int g phi_i dx; g is a callable field on
    (n, 2) point arrays or a constant.
    """
    rule = quadrature(max(quad_degree, 2 * space.degree + 2))
    pts = space.physical_points(rule)
    vals = _field_values(g, pts)
    b = assembly.assemble_load(space, vals, rule)
    M = assembly.assemble_mass(space)
    c, _ = assembly.solve_spd(M, b)
    return FeFunction(space, c)


def _field_values(g, pts):
    if np.isscalar(g):
        return np.full(pts.shape[:-1], float(g))
    flat = pts.reshape(-1, 2)
    return np.asarray(g(flat), dtype=float).reshape(pts.shape[:-1])


def nodal_interpolate(space, g):
    """FeFunction with coefficients g(x_i) at the DOF nodes."""
    vals = np.asarray(g(space.dof_coords), dtype=float) if not np.isscalar(g) \
        else np.full(space.ndof, float(g))
    if not np.all(np.isfinite(vals)):
        raise NonFiniteValue("field is not finite at some DOF node")
    return FeFunction(space, vals)


def averaged_boundary_values(space, u_exact, m, grid):
    """Boundary-DOF values (1/|J_m|) int_{J_m} u(x_b, s) ds.

    Uses 5-point Gauss per half-interval of J_m, splitting additionally at
    s = 0 (the |t|^(1/2) kink of the known solution).
    """
    xb = space.dof_coords[space.boundary_dofs]
    total = np.zeros(xb.shape[0])
    subs = grid.window_subintervals(m)
    for sk, wk in zip(*gauss_segments(subs, split=0.0)):
        total += wk * np.asarray(u_exact(xb, sk), dtype=float)
    return total / sum(hi - lo for lo, hi in subs)


def build_boundary_data(space, grid, u=None):
    """Dirichlet values of steps 1..M, one array per step aligned with
    space.boundary_dofs: zero for u = None, else the J_m averages of u(pts, t)."""
    if u is None:
        return [np.zeros(space.boundary_dofs.shape[0])] * grid.M
    return [averaged_boundary_values(space, u, m, grid) for m in range(1, grid.M + 1)]


# ----------------------------------------------------------------------
# verification routines
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DecayReport:
    q_fit: float
    c_fit: float
    layer_max: np.ndarray

    def csv_rows(self, h):
        return [f"{k},{h!r},{v!r}" for k, v in enumerate(self.layer_max)]


def verify_l2_decay(space, g=None, source_tri=None):
    """Exponential decay of Pi_2 applied to a localized source.

    Projects the indicator of one interior triangle (default: the triangle
    whose centroid is closest to the domain's barycenter), takes the maximum
    of |Pi_2 v| per triangle, bins by graph distance from the source, and
    least-squares fits log(max) against the distance.  Returns the per-layer
    decay factor q_fit = exp(slope); a projection that reproduces its input
    (e.g. a constant) yields the degenerate report q_fit = 0.  Raises
    ValueError when fewer than two layers lie beyond the source (every
    level-0 template), where no slope can be fitted.
    """
    mesh = space.mesh
    rule = quadrature(max(2 * space.degree, 2))

    if g is None:
        centroids = mesh.triangle_coords().mean(axis=1)
        target = mesh.vertices.mean(axis=0)
        source = int(np.argmin(np.linalg.norm(centroids - target, axis=1))) \
            if source_tri is None else source_tri
        vals = np.zeros((mesh.num_triangles, rule.num_points))
        vals[source] = 1.0
        b = assembly.assemble_load(space, vals, rule)
        M = assembly.assemble_mass(space)
        c, _ = assembly.solve_spd(M, b)
        proj = FeFunction(space, c)
        exact_in_space = False
    else:
        source = source_tri if source_tri is not None else 0
        proj = l2_project(space, g)
        pts = space.physical_points(rule)
        resid = space.eval_at(rule, proj.coeffs) - _field_values(g, pts)
        exact_in_space = np.sqrt(space.integrate(rule, resid * resid)) < 1e-10

    if exact_in_space:
        return DecayReport(q_fit=0.0, c_fit=0.0, layer_max=np.array([]))

    # max |Pi_2 v| per triangle over its local DOF values
    tri_max = np.max(np.abs(proj.coeffs[space.cell_dofs]), axis=1)

    # graph distance through shared vertices (the omega_T patches)
    tris = mesh.triangles.ravel()
    incidence = sparse.csr_matrix((np.ones(tris.size), tris, np.arange(0, tris.size + 1, 3)))
    hops = shortest_path(incidence @ incidence.T, unweighted=True, indices=source)
    dist = np.where(np.isfinite(hops), hops, -1).astype(int)
    kmax = dist.max()
    if kmax < 2:
        raise ValueError(f"{kmax} layer(s) beyond the source; the decay fit needs two")
    layer_max = np.array([tri_max[dist == k].max() for k in range(kmax + 1)])

    ks = np.arange(1, kmax + 1)          # skip the source layer
    logs = np.log(np.maximum(layer_max[1:], 1e-300))
    slope, intercept = np.polyfit(ks, logs, 1)
    return DecayReport(q_fit=float(np.exp(slope)), c_fit=float(np.exp(intercept)),
                       layer_max=layer_max)


@dataclass(frozen=True)
class VStabilityReport:
    levels: np.ndarray
    h: np.ndarray
    errors: np.ndarray
    order: float

    def csv_rows(self):
        return [f"{int(l)},{h!r},{e!r}" for l, h, e in zip(self.levels, self.h, self.errors)]


def verify_v_stability(space, v, params, quad_degree=8):
    """Empirical order of ||V(grad v) - V(grad Pi_2 v)||_L2 in h.

    Walks the mesh hierarchy from the root up to `space`'s mesh, projects v
    on each level, and fits the error against h.  The order, not any
    smoothness constant, is the reported quantity.
    """
    from .mesh import mesh_quality

    meshes = [space.mesh]
    while meshes[-1].parent is not None:
        meshes.append(meshes[-1].parent)
    meshes.reverse()

    levels, hs, errs = [], [], []
    for m in meshes:
        sp = space if m is space.mesh else build_space(m, space.degree)
        proj = l2_project(sp, v, quad_degree=quad_degree)
        rule = quadrature(quad_degree)
        pts = sp.physical_points(rule)
        flat = pts.reshape(-1, 2)
        grad_exact = np.asarray(v.gradient(flat), dtype=float).reshape(pts.shape)
        diff = v_transform(grad_exact, params) - v_transform(sp.grad_at(rule, proj.coeffs), params)
        err = np.sqrt(sp.integrate(rule, np.sum(diff * diff, axis=-1)))
        levels.append(m.level)
        hs.append(mesh_quality(m).h_max)
        errs.append(err)

    levels, hs, errs = map(np.array, (levels, hs, errs))
    # fit over the last three levels, past the pre-asymptotic templates
    tail = slice(-3, None) if len(hs) >= 3 else slice(None)
    if len(hs) >= 2 and np.all(errs[tail] > 0):
        order = float(np.polyfit(np.log(hs[tail]), np.log(errs[tail]), 1)[0])
    else:
        order = float("nan") if len(hs) < 2 else float("inf")
    return VStabilityReport(levels=levels, h=hs, errors=errs, order=order)
