"""Sparse assembly of the per-step systems and an SPD solver front end.

The kernels work through the space's quadrature-point operators
(`FeSpace.operators`): vectors are products with P, B and their transposes;
matrices contract the per-point coefficient, pulled back to the reference
cell, with the reference gradient products in one matmul and are summed
into a CSR pattern built once per space.  DS enters as an isotropic plus a
rank-one part (`ds_split`), so no 2 x 2 matrix per point is formed.  The
step kernels integrate their value terms (mass, load, force) with the step
rule and their gradient terms (S, DS, phi) with the gradient rule, one point
per cell for r = 1; all of them move together, so the interior residual
stays the exact gradient of the step energy.

Element matrices are made exactly symmetric and `np.bincount` adds them in
element order, so every assembled matrix is exactly symmetric and repeated
assembly of identical inputs is bitwise reproducible.  Dirichlet conditions
are imposed by symmetric elimination (rows and columns zeroed, unit
diagonal), which keeps mass and Jacobian matrices symmetric positive
definite.  The step Jacobian is written pinned: the slots that survive
pinning and the pinned pattern are computed once per space, next to the
full pattern, and the result is bitwise what `pin_rows_cols` makes of the
unpinned matrix.  `pin_rows_cols` and `apply_dirichlet` pin any other matrix.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from .constitutive import s_flux, ds_split, phi, magnitude
# not called here: re-exported because perfbench/tracer.py wraps it at this name
from .constitutive import ds_jacobian  # noqa: F401
from .fespace import grad_rule, quadrature, step_rule

DIRECT_SOLVE_LIMIT = 40000  # unknowns; above this solve_spd falls back to CG
CG_TOL_DEFAULT = 1e-11
# relative residual below which the direct solve is not refined; the
# roundoff floor of b - A x lies between 1e-16 and 1e-13 on the step Jacobians
REFINE_TARGET = 5e-15
REFINE_PASSES = 2
JACOBIAN_EPS_REG = 1e-10


class SpaceMismatch(Exception):
    """Operands built on different finite element spaces."""


class MaxIterations(Exception):
    """CG failed to reach the requested tolerance; carries the report."""

    def __init__(self, report):
        super().__init__(f"CG exceeded {report.iterations} iterations, "
                         f"relative residual {report.relative_residual:.3e}")
        self.report = report


@dataclass(frozen=True)
class LinearSolveReport:
    iterations: int
    relative_residual: float
    method: str


def _pattern(space):
    """The space's CSR pattern (indptr, indices) and the slot of every local
    entry (t, i, j) in its data array, computed once per space."""
    if space._pattern is None:
        cd = space.cell_dofs
        n, nloc = space.ndof, cd.shape[1]
        keys = (np.repeat(cd, nloc, axis=1) * n + np.tile(cd, (1, nloc))).reshape(-1)
        keys, scatter = np.unique(keys, return_inverse=True)
        rows, cols = np.divmod(keys, n)
        indptr = np.searchsorted(rows, np.arange(n + 1))
        space._pattern = (indptr.astype(np.int32), cols.astype(np.int32), scatter)
    return space._pattern


def _pinned_pattern(space):
    """The pattern with the Dirichlet rows and columns pinned, computed once
    per space: (indptr, indices, kept, diagonal).  `kept` masks the slots of
    the full pattern that survive pinning, the entries of unpinned rows and
    columns and the pinned diagonal; `diagonal` are the pinned diagonal's
    slots in the pinned data array."""
    if space._pinned_pattern is None:
        indptr, indices, _ = _pattern(space)
        pinned = np.zeros(space.ndof, dtype=bool)
        pinned[space.boundary_dofs] = True
        rows = np.repeat(np.arange(space.ndof), np.diff(indptr))
        diagonal = pinned[rows] & (indices == rows)
        kept = ~(pinned[rows] | pinned[indices]) | diagonal
        pinned_indptr = np.zeros(space.ndof + 1, dtype=np.int32)
        np.cumsum(np.bincount(rows[kept], minlength=space.ndof), out=pinned_indptr[1:])
        space._pinned_pattern = (pinned_indptr, indices[kept], kept,
                                 np.flatnonzero(diagonal[kept]))
    return space._pinned_pattern


def _sum_into_pattern(space, local, pinned=False):
    """Sum element matrices (nt, nloc, nloc) into the space's CSR pattern.

    With `pinned` the Dirichlet rows and columns are written pinned, exactly
    as `pin_rows_cols` leaves them: zeroed and dropped, with a unit diagonal,
    and every other entry that sums to zero dropped too.
    """
    indptr, indices, scatter = _pattern(space)
    data = np.bincount(scatter, weights=local.reshape(-1), minlength=indices.shape[0])
    if pinned:
        indptr, indices, kept, diagonal = _pinned_pattern(space)
        data = data[kept]
        data[diagonal] = 1.0
        if not data.all():
            A = sparse.csr_matrix((data, indices.copy(), indptr.copy()),
                                  shape=(space.ndof, space.ndof))
            A.eliminate_zeros()
            return A
    return sparse.csr_matrix((data, indices, indptr), shape=(space.ndof, space.ndof))


def _local_mass(space, rule, scale=1.0):
    """Element matrices scale * int phi_i phi_j dx, (nt, nloc, nloc)."""
    phi_vals = space.operators(rule).values
    ref = (rule.weights[:, None] * phi_vals).T @ phi_vals
    return (scale * space.areas)[:, None, None] * (0.5 * (ref + ref.T))


def _local_stiffness(ops, coeff=None, rank_one=None):
    """Element matrices int grad phi_i . C grad phi_j dx, (nt, nloc, nloc).

    C = c I + b (d ox d) per point: c is None (one) or (nt, nq), and
    rank_one is None or the pair (b (nt, nq), d (nt, nq, 2)).  The physical
    gradients are J^-T times the reference ones, with J^-T constant on a
    cell, so the integrand is the reference gradients contracted with
    K = J^-1 (w C) J^-T; the three entries of this symmetric 2 x 2 matrix per
    point meet the reference gradient products in one matmul, and no
    per-point gradient or 2 x 2 array is formed.
    """
    jt = ops.inv_jac_t[:, None]                       # J^-T, (nt, 1, 2, 2)
    w = ops.w if coeff is None else ops.w * coeff
    k = np.empty((ops.nt, 3, ops.nq))
    k[:, 0] = w * (jt[..., 0, 0] ** 2 + jt[..., 1, 0] ** 2)
    k[:, 1] = w * (jt[..., 0, 0] * jt[..., 0, 1] + jt[..., 1, 0] * jt[..., 1, 1])
    k[:, 2] = w * (jt[..., 0, 1] ** 2 + jt[..., 1, 1] ** 2)
    if rank_one is not None:
        b, d = rank_one
        wb = ops.w * b
        e0 = d[..., 0] * jt[..., 0, 0] + d[..., 1] * jt[..., 1, 0]   # J^-1 d
        e1 = d[..., 0] * jt[..., 0, 1] + d[..., 1] * jt[..., 1, 1]
        k[:, 0] += wb * e0 * e0
        k[:, 1] += wb * e0 * e1
        k[:, 2] += wb * e1 * e1
    local = (k.reshape(ops.nt, -1) @ ops.gradient_products).reshape(ops.nt, ops.nloc, ops.nloc)
    return 0.5 * (local + local.swapaxes(1, 2))


def assemble_mass(space, rule=None):
    """Gram matrix M_ij = int phi_i phi_j dx, exact up to roundoff."""
    return _sum_into_pattern(space, _local_mass(space, rule or quadrature(2 * space.degree)))


def assemble_stiffness(space, coeff=None):
    """K_ij = int c(x) grad phi_i . grad phi_j dx with scalar coefficient c.

    coeff is an array (nt, nq) at the gradient rule's points or None for c = 1.
    """
    ops = space.operators(grad_rule(space))
    return _sum_into_pattern(space, _local_stiffness(ops, coeff))


def assemble_load(space, values, rule=None):
    """Load vector b_i = int f phi_i dx from per-quadrature-point values."""
    return space.operators(rule or step_rule(space)).load(values)


def _check_same_space(space, *functions):
    for f in functions:
        if f.space is not space:
            raise SpaceMismatch("FeFunction does not live on the given space")


def assemble_step_residual(space, u, u_prev, tau, f_quad, params, bc_values=None):
    """Residual of the implicit Euler step at state u.

    R_i = (1/tau) int (u - u_prev) phi_i + int S(grad u) . grad phi_i
          - int f phi_i              for interior DOFs,
    R_b = u_b - g_b                  for Dirichlet DOFs.
    """
    _check_same_space(space, u, u_prev)
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    ops, gops = space.operators(step_rule(space)), space.operators(grad_rule(space))
    diff = ops.eval(u.coeffs - u_prev.coeffs)
    res = ops.load(diff / tau - f_quad) + gops.load(vectors=s_flux(gops.grad(u.coeffs), params))

    b = space.boundary_dofs
    g = np.zeros(b.shape[0]) if bc_values is None else np.asarray(bc_values, dtype=float)
    res[b] = u.coeffs[b] - g
    return res


def assemble_step_jacobian(space, u, tau, params):
    """J = M/tau + K(u), K_ij = int grad phi_i . DS(grad u) grad phi_j dx.

    Dirichlet rows and columns are pinned (unit diagonal).  SPD for p > 1.
    """
    _check_same_space(space, u)
    gops = space.operators(grad_rule(space))
    iso, rank, d = ds_split(gops.grad(u.coeffs), params, eps_reg=JACOBIAN_EPS_REG)
    local = _local_stiffness(gops, iso, (rank, d))
    local += _local_mass(space, step_rule(space), 1.0 / tau)
    return _sum_into_pattern(space, local, pinned=True)


def pin_rows_cols(A, dofs):
    """Zero the given rows and columns, put 1 on their diagonal.

    The entries are zeroed through a mask on the CSR data; adding the unit
    diagonal then drops them from the pattern.
    """
    A = sparse.csr_matrix(A, copy=True)
    pinned = np.zeros(A.shape[0], dtype=bool)
    pinned[dofs] = True
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    A.data[pinned[rows] | pinned[A.indices]] = 0.0
    return (A + sparse.diags(pinned.astype(float))).tocsr()


def apply_dirichlet(A, b, dofs, values):
    """Symmetric elimination: returns (A_pinned, b_adjusted) for u[dofs] = values."""
    n = A.shape[0]
    full = np.zeros(n)
    full[dofs] = values
    b = b - A @ full
    b[dofs] = values
    A = pin_rows_cols(A, dofs)
    return A, b


def step_energy(space, v, u_prev, tau, f_quad, params):
    """Implicit Euler step energy

    E(v) = 1/(2 tau) ||v - u_prev||_L2^2 + int phi(|grad v|) dx - int f v dx

    evaluated with the step rule and, for the phi term, the gradient rule
    (consistent with the residual: the interior residual is the exact
    gradient of this function).
    """
    ops, gops = space.operators(step_rule(space)), space.operators(grad_rule(space))
    diff = ops.eval(v.coeffs - u_prev.coeffs)
    density = diff * diff / (2.0 * tau) - f_quad * ops.eval(v.coeffs)
    return float(np.vdot(ops.w, density)
                 + np.vdot(gops.w, phi(magnitude(gops.grad(v.coeffs)), params)))


def factor_spd(A):
    """Sparse LU of an SPD matrix, as the direct path of `solve_spd` makes it.

    SuperLU in symmetric mode: a minimum-degree ordering of A + A^T and
    pivots taken from the diagonal (threshold 0), which is stable for an SPD
    matrix and roughly halves the fill of the general COLAMD ordering with
    partial pivoting.  Supernodes are not relaxed and panels are one column
    wide: with SuperLU's defaults (relax 5, panel 10) this ordering factors
    P1 step Jacobians of 4k DOFs 2.5x and of 16k DOFs 20-30x slower than
    COLAMD; with these settings it is faster than COLAMD on every step
    Jacobian measured (slit, shifted and unit square, P1 to P3, 289 to
    16 705 DOFs).
    """
    return spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                     relax=1, panel_size=1, options=dict(SymmetricMode=True))


def solve_spd(A, b, tol=CG_TOL_DEFAULT, lu=None):
    """Solve SPD system: sparse direct below DIRECT_SOLVE_LIMIT, else Jacobi-CG.

    The direct path factors A with `factor_spd`, or uses `lu`, a factorization
    of A from it, which a caller solving many systems with one matrix passes.
    At most REFINE_PASSES passes of iterative refinement follow, taken only
    while the relative residual exceeds REFINE_TARGET and each pass lowers
    it.  The reported relative residual is that of the returned x.

    Returns (x, LinearSolveReport).  Raises MaxIterations if CG does not reach
    the tolerance within 10 n iterations.
    """
    n = A.shape[0]
    b = np.asarray(b, dtype=float)
    bnorm = np.linalg.norm(b)
    if lu is not None or n <= DIRECT_SOLVE_LIMIT:
        if lu is None:
            lu = factor_spd(A)
        scale = bnorm if bnorm > 0 else 1.0
        x = lu.solve(b)
        r = b - A @ x
        rel = np.linalg.norm(r) / scale
        # the step Jacobians can be very ill-conditioned (degenerate gradients
        # next to the slit tip); refinement keeps Newton directions usable
        # down to tiny residuals.  A pass that does not lower the residual
        # has met the roundoff floor of b - A x and is discarded.
        for _ in range(REFINE_PASSES):
            if rel <= REFINE_TARGET:
                break
            x_new = x + lu.solve(r)
            r_new = b - A @ x_new
            rel_new = np.linalg.norm(r_new) / scale
            if rel_new >= rel:
                break
            x, r, rel = x_new, r_new, rel_new
        return x, LinearSolveReport(iterations=1, relative_residual=float(rel),
                                    method="direct")
    diag = A.diagonal()
    M = sparse.diags(np.where(diag > 0, 1.0 / np.where(diag > 0, diag, 1.0), 1.0))
    count = [0]

    def cb(_):
        count[0] += 1

    x, info = spla.cg(A, b, rtol=tol, atol=0.0, maxiter=10 * n, M=M, callback=cb)
    rel = np.linalg.norm(A @ x - b) / (bnorm if bnorm > 0 else 1.0)
    report = LinearSolveReport(iterations=count[0], relative_residual=float(rel),
                               method="cg")
    if info > 0:
        raise MaxIterations(report)
    return x, report
