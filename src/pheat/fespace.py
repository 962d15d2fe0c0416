"""Lagrange finite element spaces of degree 1, 2, 3 on triangle meshes.

DOF ordering is hierarchical and deterministic: vertex DOFs first (numbered
like the mesh vertices), then edge DOFs (edges sorted lexicographically by
their endpoint indices; for cubics two DOFs per edge ordered from the lower
endpoint), then one interior DOF per triangle for cubics.  Slit-duplicated
vertices produce duplicated edges and hence independent DOFs on either side
of the cut.

Quadrature rules are collapsed Gauss(-Jacobi) product rules on the reference
triangle: positive weights, exact for all polynomials up to the requested
degree, and the degree-1 rule degenerates to the centroid rule.  Weights are
normalized to the reference measure, so integrals scale with the physical
triangle area.  `gauss_segments` is the one 5-point Gauss rule in time.

Every evaluation at quadrature points goes through `PointOperators`: the
value operator P (nt*nq x ndof), the gradient operator B (2*nt*nq x ndof)
and the weights w, applied matrix-free from the reference basis and the cell
Jacobians.  The step kernels take values from the step rule and gradient
terms from the gradient rule (`grad_rule`): for r = 1 the gradient is
constant on each cell and the centroid alone integrates S, DS and phi
exactly; for r >= 2 the two rules are one.  `FeSpace.operators` keeps the
sets of these two rules, and `FeSpace.step_points` the step rule's point
coordinates; other rules' sets are transient, so no per-point data of the
error quadrature stays cached.  `prolongation` is the one coarse-to-fine
map, a sparse matrix onto a nested finer space.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sparse
from numpy.polynomial.legendre import leggauss
from scipy.special import roots_jacobi

from .mesh import locate_point


class UnsupportedDegree(Exception):
    """Polynomial or quadrature degree outside the supported range."""


SUPPORTED_DEGREES = (1, 2, 3)
MAX_QUADRATURE_DEGREE = 20


@dataclass(frozen=True)
class QuadratureRule:
    """Points in barycentric coordinates; weights sum to one."""

    points: np.ndarray
    weights: np.ndarray
    exactness_degree: int

    @property
    def num_points(self):
        return self.weights.shape[0]


_rule_cache = {}


def quadrature(exactness_degree):
    """Quadrature on the reference triangle, exact up to `exactness_degree`."""
    d = int(exactness_degree)
    if not 1 <= d <= MAX_QUADRATURE_DEGREE:
        raise UnsupportedDegree(f"quadrature degree must be in [1, {MAX_QUADRATURE_DEGREE}], got {d}")
    if d in _rule_cache:
        return _rule_cache[d]
    n = (d + 2) // 2  # 2n - 1 >= d
    gx, gw = leggauss(n)
    xi = 0.5 * (gx + 1.0)          # Gauss-Legendre on [0,1]
    wxi = 0.5 * gw
    jx, jw = roots_jacobi(n, 1.0, 0.0)
    eta = 0.5 * (jx + 1.0)         # Gauss-Jacobi, weight (1 - eta), on [0,1]
    weta = 0.25 * jw
    X = np.outer(xi, 1.0 - eta)    # collapsed map (xi, eta) -> (x, y)
    Y = np.broadcast_to(eta, X.shape)
    W = np.outer(wxi, weta)
    x, y, w = X.ravel(), Y.ravel(), W.ravel()
    bary = np.column_stack([1.0 - x - y, x, y])
    # product weights sum to the reference area 1/2; normalize to mass one
    rule = QuadratureRule(points=bary, weights=2.0 * w, exactness_degree=d)
    _rule_cache[d] = rule
    return rule


_gauss5 = leggauss(5)


def gauss_segments(intervals, split=None):
    """5-point Gauss nodes and weights in time over the intervals (a, b),
    each split at `split` where it lies strictly inside."""
    nodes, weights = [], []
    for a, b in intervals:
        cuts = [a, split, b] if split is not None and a < split < b else [a, b]
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            nodes.append(mid + half * _gauss5[0])
            weights.append(half * _gauss5[1])
    return np.concatenate(nodes), np.concatenate(weights)


# ----------------------------------------------------------------------
# reference Lagrange basis via monomial coefficients
# ----------------------------------------------------------------------

_LOCAL_EDGES = ((0, 1), (1, 2), (2, 0))


def _local_nodes(degree):
    """Barycentric coordinates of the local DOF nodes."""
    v = [np.array(b, dtype=float) for b in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    nodes = list(v)
    if degree >= 2:
        for a, b in _LOCAL_EDGES:
            if degree == 2:
                nodes.append((v[a] + v[b]) / 2.0)
            else:
                nodes.append((2.0 * v[a] + v[b]) / 3.0)
                nodes.append((v[a] + 2.0 * v[b]) / 3.0)
    if degree == 3:
        nodes.append(np.array([1.0, 1.0, 1.0]) / 3.0)
    return np.array(nodes)


def _monomial_exponents(degree):
    return [(i, j) for total in range(degree + 1) for i in range(total + 1)
            for j in [total - i]]


class _ReferenceBasis:
    """Lagrange basis as monomial expansions in (xi, eta) = (lambda_1, lambda_2)."""

    def __init__(self, degree):
        self.degree = degree
        self.exponents = _monomial_exponents(degree)
        nodes = _local_nodes(degree)
        xi, eta = nodes[:, 1], nodes[:, 2]
        vand = np.column_stack([xi ** i * eta ** j for i, j in self.exponents])
        self.coeffs = np.linalg.inv(vand)  # column k = monomial coeffs of phi_k

    def values(self, bary):
        bary = np.atleast_2d(bary)
        xi, eta = bary[:, 1], bary[:, 2]
        mono = np.column_stack([xi ** i * eta ** j for i, j in self.exponents])
        return mono @ self.coeffs

    def gradients(self, bary):
        """d/d(xi), d/d(eta) of each basis function, shape (nq, 2, nloc)."""
        bary = np.atleast_2d(bary)
        xi, eta = bary[:, 1], bary[:, 2]
        dxi = np.column_stack([i * xi ** max(i - 1, 0) * eta ** j if i else np.zeros_like(xi)
                               for i, j in self.exponents])
        deta = np.column_stack([j * xi ** i * eta ** max(j - 1, 0) if j else np.zeros_like(eta)
                                for i, j in self.exponents])
        return np.stack([dxi @ self.coeffs, deta @ self.coeffs], axis=1)


_reference_bases = {r: _ReferenceBasis(r) for r in SUPPORTED_DEGREES}


def step_rule(space):
    """Quadrature of the step kernels (residual, Jacobian, energy): exactness 2r + 2."""
    return quadrature(2 * space.degree + 2)


def grad_rule(space):
    """Quadrature of the step kernels' gradient terms (S, DS, phi): the
    centroid for r = 1, where the gradient is constant on each cell, and the
    step rule for r >= 2."""
    return quadrature(1) if space.degree == 1 else step_rule(space)


# ----------------------------------------------------------------------
# quadrature-point operators
# ----------------------------------------------------------------------

class PointOperators:
    """Values and gradients at all quadrature points of one rule on one space.

    At point q of cell t a function with coefficients c has

        value     (P c)[t, q]    = values[q] . c[cell_dofs[t]]
        gradient  (B c)[t, q, :] = inv_jac_t[t] @ ref_grads[q] @ c[cell_dofs[t]]

    with values (nq, nloc) and ref_grads (nq, 2, nloc) the reference basis at
    the rule's points, shared by all cells.  w (nt, nq) holds rule weights
    times cell areas.
    """

    def __init__(self, space, rule):
        ref = _reference_bases[space.degree]
        self.cell_dofs, self.ndof = space.cell_dofs, space.ndof
        self.w = space.areas[:, None] * rule.weights
        self.nt, self.nloc = space.cell_dofs.shape
        self.nq = rule.num_points
        self.values = ref.values(rule.points)
        self.ref_grads = ref.gradients(rule.points).reshape(2 * self.nq, self.nloc)
        self.inv_jac_t = space.inv_jac_t
        self._inv_jac = np.ascontiguousarray(space.inv_jac_t.swapaxes(1, 2))

    def eval(self, coeffs):
        """P c: values at every point, shape (nt, nq)."""
        return coeffs[self.cell_dofs] @ self.values.T

    def grad(self, coeffs):
        """B c: gradients at every point, shape (nt, nq, 2)."""
        ref = coeffs[self.cell_dofs] @ self.ref_grads.T
        return ref.reshape(self.nt, self.nq, 2) @ self._inv_jac

    def load(self, values=None, vectors=None):
        """P^T (w f) + B^T (w g): the vector of int f phi_i + g . grad phi_i dx
        for per-point values f (nt, nq) and vectors g (nt, nq, 2), either
        one optional."""
        if values is None:
            local = np.zeros((self.nt, self.nloc))
        else:
            local = (self.w * values) @ self.values
        if vectors is not None:
            ref = (self.w[:, :, None] * vectors) @ self.inv_jac_t
            local += ref.reshape(self.nt, 2 * self.nq) @ self.ref_grads
        return np.bincount(self.cell_dofs.reshape(-1), weights=local.reshape(-1),
                           minlength=self.ndof)

    @cached_property
    def gradient_products(self):
        """Products of reference basis gradients at each point, shape
        (3 nq, nloc * nloc): the blocks d_0 phi_i d_0 phi_j,
        d_0 phi_i d_1 phi_j + d_1 phi_i d_0 phi_j and d_1 phi_i d_1 phi_j."""
        g = self.ref_grads.reshape(self.nq, 2, self.nloc)
        prod = g[:, :, None, :, None] * g[:, None, :, None, :]   # (nq, 2, 2, nloc, nloc)
        blocks = [prod[:, 0, 0], prod[:, 0, 1] + prod[:, 1, 0], prod[:, 1, 1]]
        return np.stack(blocks).reshape(3 * self.nq, self.nloc * self.nloc)


# ----------------------------------------------------------------------
# the space
# ----------------------------------------------------------------------

@dataclass(eq=False)
class FeSpace:
    """Continuous Lagrange space of the given degree over a mesh."""

    mesh: object
    degree: int
    ndof: int
    cell_dofs: np.ndarray            # (nt, nloc)
    dof_coords: np.ndarray           # (ndof, 2)
    boundary_dofs: np.ndarray        # sorted DOF indices on Dirichlet edges
    inv_jac_t: np.ndarray = field(repr=False, default=None)  # (nt, 2, 2), J^-T per cell
    areas: np.ndarray = field(repr=False, default=None)      # (nt,)
    _operators: dict = field(default_factory=dict, repr=False)  # exactness -> PointOperators
    _pattern: tuple = field(default=None, repr=False)  # matrix pattern, see assembly

    @property
    def interior_dofs(self):
        mask = np.ones(self.ndof, dtype=bool)
        mask[self.boundary_dofs] = False
        return np.flatnonzero(mask)

    # -- vectorized evaluation over all triangles ------------------------
    def operators(self, rule):
        """PointOperators of `rule`; only the step and gradient rules' sets are
        kept on the space (one set for r >= 2, where the rules are one), any
        other rule gets a fresh set that lives as long as its caller holds it."""
        if rule is not step_rule(self) and rule is not grad_rule(self):
            return PointOperators(self, rule)
        ops = self._operators.get(rule.exactness_degree)
        if ops is None:
            ops = self._operators[rule.exactness_degree] = PointOperators(self, rule)
        return ops

    def eval_at(self, rule, coeffs):
        """Function values at all quadrature points, shape (nt, nq)."""
        return self.operators(rule).eval(coeffs)

    def grad_at(self, rule, coeffs):
        """Gradients at all quadrature points, shape (nt, nq, 2)."""
        return self.operators(rule).grad(coeffs)

    def physical_points(self, rule):
        """Quadrature point coordinates, shape (nt, nq, 2)."""
        corners = self.mesh.triangle_coords()
        return np.einsum("qi,tia->tqa", rule.points, corners)

    @cached_property
    def step_points(self):
        """The step rule's points flattened to (nt * nq, 2), built once and
        read-only: every step hands the same array to a space-time force,
        so a closed form's per-array memo computes its spatial factors once."""
        pts = self.physical_points(step_rule(self)).reshape(-1, 2)
        pts.flags.writeable = False
        return pts

    def integrate(self, rule, values):
        """Integral over the domain of per-point values, shape (nt, nq)."""
        return float(np.dot(values @ rule.weights, self.areas))


@dataclass(eq=False)
class FeFunction:
    """Coefficient vector over a space; the discrete unknown."""

    space: FeSpace
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != (self.space.ndof,):
            raise ValueError(f"expected {self.space.ndof} coefficients, got {self.coeffs.shape}")

    def __call__(self, x, slit_side=None):
        tri, lam = locate_point(self.space.mesh, x, slit_side=slit_side)
        return eval_function(self, tri, lam)

    def dump(self, fh):
        fh.write(f"ndof {self.space.ndof} degree {self.space.degree} "
                 f"level {self.space.mesh.level}\n")
        for c in self.coeffs:
            fh.write(f"{float(c)!r}\n")


def build_space(mesh, degree):
    """Enumerate DOFs for the continuous degree-r Lagrange space."""
    if degree not in SUPPORTED_DEGREES:
        raise UnsupportedDegree(f"degree must be one of {SUPPORTED_DEGREES}, got {degree}")
    t = mesh.triangles
    nt, nv = mesh.num_triangles, mesh.num_vertices

    edges, eid = mesh.edges                 # eid: edge number of each local edge
    ne = edges.shape[0]

    nloc = {1: 3, 2: 6, 3: 10}[degree]
    cell_dofs = np.empty((nt, nloc), dtype=np.int64)
    cell_dofs[:, :3] = t
    if degree == 2:
        cell_dofs[:, 3:] = nv + eid
    elif degree == 3:
        # the local first node of an edge is the one closer to its first vertex
        fwd = t < t[:, [1, 2, 0]]
        cell_dofs[:, 3:9:2] = nv + 2 * eid + np.where(fwd, 0, 1)
        cell_dofs[:, 4:9:2] = nv + 2 * eid + np.where(fwd, 1, 0)
        cell_dofs[:, 9] = nv + 2 * ne + np.arange(nt)

    if degree == 1:
        ndof = nv
        dof_coords = mesh.vertices.copy()
    elif degree == 2:
        ndof = nv + ne
        dof_coords = np.vstack([mesh.vertices,
                                0.5 * (mesh.vertices[edges[:, 0]] + mesh.vertices[edges[:, 1]])])
    else:
        ndof = nv + 2 * ne + nt
        lo = mesh.vertices[edges[:, 0]]
        hi = mesh.vertices[edges[:, 1]]
        centroids = mesh.triangle_coords().mean(axis=1)
        dof_coords = np.vstack([mesh.vertices,
                                np.stack([(2 * lo + hi) / 3.0, (lo + 2 * hi) / 3.0], axis=1
                                         ).reshape(-1, 2),
                                centroids])

    beid = mesh.boundary_edge_ids
    bdofs = [mesh.boundary_edges.ravel()]
    if degree == 2:
        bdofs.append(nv + beid)
    elif degree == 3:
        bdofs += [nv + 2 * beid, nv + 2 * beid + 1]
    boundary_dofs = np.unique(np.concatenate(bdofs)).astype(np.int64)

    corners = mesh.triangle_coords()
    jac = np.stack([corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0]], axis=-1)
    det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
    inv_jac_t = np.stack([jac[:, 1, 1], -jac[:, 1, 0], -jac[:, 0, 1], jac[:, 0, 0]],
                         axis=-1).reshape(-1, 2, 2) / det[:, None, None]
    areas = 0.5 * det  # positive by mesh orientation

    return FeSpace(mesh=mesh, degree=degree, ndof=ndof, cell_dofs=cell_dofs,
                   dof_coords=dof_coords, boundary_dofs=boundary_dofs,
                   inv_jac_t=inv_jac_t, areas=areas)


def prolongation(coarse, fine):
    """Sparse (fine.ndof, coarse.ndof) matrix taking the coefficients of a
    coarse function to the fine coefficients of the same function.

    Row i holds the coarse ancestor's basis at fine DOF node i, so the map is
    exact when `fine`'s mesh descends from `coarse`'s and
    `fine.degree >= coarse.degree`; otherwise it raises ValueError.
    """
    if fine.degree < coarse.degree:
        raise ValueError(f"fine degree {fine.degree} is below coarse degree {coarse.degree}")
    # the coarse ancestor of the first fine cell that has each fine DOF
    _, first = np.unique(fine.cell_dofs, return_index=True)
    a = fine.mesh.ancestor_triangles(coarse.mesh)[first // fine.cell_dofs.shape[1]]
    origin = coarse.mesh.triangle_coords()[a, 0]
    lam = np.einsum("nba,nb->na", coarse.inv_jac_t[a], fine.dof_coords - origin)  # J^-1 (x - a0)
    vals = _reference_bases[coarse.degree].values(np.column_stack([1.0 - lam.sum(axis=1), lam]))
    nloc = coarse.cell_dofs.shape[1]
    return sparse.csr_matrix((vals.ravel(), coarse.cell_dofs[a].ravel(),
                              np.arange(0, nloc * fine.ndof + 1, nloc)),
                             shape=(fine.ndof, coarse.ndof))


def eval_function(f, tri_index, bary):
    """Value of the FE function at one barycentric point of one triangle."""
    ref = _reference_bases[f.space.degree]
    phi = ref.values(np.asarray(bary, dtype=float))[0]
    return float(phi @ f.coeffs[f.space.cell_dofs[tri_index]])


def eval_gradient(f, tri_index, bary):
    """Gradient of the FE function at one barycentric point of one triangle."""
    ref = _reference_bases[f.space.degree]
    gref = ref.gradients(np.asarray(bary, dtype=float))[0]
    local = f.coeffs[f.space.cell_dofs[tri_index]]
    return f.space.inv_jac_t[tri_index] @ (gref @ local)
