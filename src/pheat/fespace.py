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
Jacobians.  `FeSpace.operators` keeps only the step rule's set, whose dense
gradient tensor the matrix kernels contract; other rules' sets are
transient, so no per-point data of the error quadrature stays cached.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
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


# ----------------------------------------------------------------------
# quadrature-point operators
# ----------------------------------------------------------------------

class PointOperators:
    """Values and gradients at all quadrature points of one rule.

    At point q of cell t a function with coefficients c has

        value     (P c)[t, q]    = values[t, q] . c[cell_dofs[t]]
        gradient  (B c)[t, q, :] = inv_jac_t[t] @ ref_grads[t, q] @ c[cell_dofs[t]]

    with values (nt | 1, nq, nloc) and ref_grads (nt | 1, nq, 2, nloc) the
    reference basis: shared by all cells of a space, or one set per cell for
    the coarse-to-fine transfer of error_metrics.  w (nt, nq) holds rule
    weights times cell areas.
    """

    def __init__(self, cell_dofs, ndof, w, values, ref_grads, inv_jac_t):
        self.cell_dofs, self.ndof, self.w = cell_dofs, ndof, w
        self.nt, self.nloc = cell_dofs.shape
        self.nq = w.shape[1]
        self.values = values
        self.ref_grads = ref_grads.reshape(ref_grads.shape[0], 2 * self.nq, self.nloc)
        self.inv_jac_t = inv_jac_t
        self._inv_jac = np.ascontiguousarray(inv_jac_t.swapaxes(1, 2))

    def _apply(self, basis, coeffs):
        """basis[t] @ coeffs[cell_dofs[t]] for every cell, (nt, k); one GEMM if shared."""
        local = coeffs[self.cell_dofs]
        return local @ basis[0].T if basis.shape[0] == 1 else (basis @ local[:, :, None])[..., 0]

    def _apply_t(self, basis, values):
        """values[t] @ basis[t] for every cell, (nt, nloc)."""
        return values @ basis[0] if basis.shape[0] == 1 else (values[:, None] @ basis)[:, 0]

    def eval(self, coeffs):
        """P c: values at every point, shape (nt, nq)."""
        return self._apply(self.values, coeffs)

    def grad(self, coeffs):
        """B c: gradients at every point, shape (nt, nq, 2)."""
        return self._apply(self.ref_grads, coeffs).reshape(self.nt, self.nq, 2) @ self._inv_jac

    def load(self, values, vectors=None):
        """P^T (w f) + B^T (w g): the vector of int f phi_i + g . grad phi_i dx
        for per-point values f (nt, nq) and optional vectors g (nt, nq, 2)."""
        local = self._apply_t(self.values, self.w * values)
        if vectors is not None:
            ref = (self.w[:, :, None] * vectors) @ self.inv_jac_t
            local += self._apply_t(self.ref_grads, ref.reshape(self.nt, 2 * self.nq))
        return np.bincount(self.cell_dofs.reshape(-1), weights=local.reshape(-1),
                           minlength=self.ndof)

    @cached_property
    def gradient_tensor(self):
        """Physical basis gradients, shape (nt, nq, 2, nloc)."""
        ref = self.ref_grads.reshape(-1, self.nq, 2, self.nloc)
        return self.inv_jac_t[:, None] @ ref


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
    edges: np.ndarray                # (ne, 2) sorted vertex pairs, lexicographic
    inv_jac_t: np.ndarray = field(repr=False, default=None)  # (nt, 2, 2), J^-T per cell
    areas: np.ndarray = field(repr=False, default=None)      # (nt,)
    _basis_cache: dict = field(default_factory=dict, repr=False)
    _step_operators: PointOperators = field(default=None, repr=False)
    _pattern: tuple = field(default=None, repr=False)  # matrix pattern, see assembly

    # -- cached reference basis data per quadrature rule -----------------
    def basis_at(self, rule):
        key = id(rule)
        if key not in self._basis_cache:
            ref = _reference_bases[self.degree]
            self._basis_cache[key] = (ref.values(rule.points), ref.gradients(rule.points))
        return self._basis_cache[key]

    @property
    def interior_dofs(self):
        mask = np.ones(self.ndof, dtype=bool)
        mask[self.boundary_dofs] = False
        return np.flatnonzero(mask)

    # -- vectorized evaluation over all triangles ------------------------
    def operators(self, rule):
        """PointOperators of `rule`; only the step rule's set is kept on the space,
        any other rule gets a fresh set that lives as long as its caller holds it."""
        keep = rule is step_rule(self)
        if keep and self._step_operators is not None:
            return self._step_operators
        phi, gref = self.basis_at(rule)
        ops = PointOperators(self.cell_dofs, self.ndof, self.areas[:, None] * rule.weights,
                             phi[None], gref[None], self.inv_jac_t)
        if keep:
            self._step_operators = ops
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

    local_edges = np.concatenate([t[:, [a, b]] for a, b in _LOCAL_EDGES])  # (3 nt, 2)
    edges, eid = np.unique(np.sort(local_edges, axis=1), axis=0, return_inverse=True)
    eid = eid.reshape(3, nt).T              # edge number of each local edge
    ne = edges.shape[0]

    nloc = {1: 3, 2: 6, 3: 10}[degree]
    cell_dofs = np.empty((nt, nloc), dtype=np.int64)
    cell_dofs[:, :3] = t
    if degree == 2:
        cell_dofs[:, 3:] = nv + eid
    elif degree == 3:
        # the local first node of an edge is the one closer to its first vertex
        fwd = (local_edges[:, 0] < local_edges[:, 1]).reshape(3, nt).T
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

    bedges = np.sort(mesh.boundary_edges, axis=1)
    beid = np.searchsorted(edges[:, 0] * nv + edges[:, 1], bedges[:, 0] * nv + bedges[:, 1])
    bdofs = [bedges.reshape(-1)]
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
                   dof_coords=dof_coords, boundary_dofs=boundary_dofs, edges=edges,
                   inv_jac_t=inv_jac_t, areas=areas)


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
