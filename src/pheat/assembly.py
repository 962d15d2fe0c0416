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

Element matrices are made exactly symmetric and added in element order, so
every assembled matrix is exactly symmetric and repeated assembly of
identical inputs is bitwise reproducible.  Dirichlet conditions are imposed
by symmetric elimination (rows and columns zeroed, unit diagonal), which
keeps mass and Jacobian matrices symmetric positive definite.  The step
Jacobian is written pinned, JACOBIAN_BLOCK cells at a time: the slot of
every full-pattern entry in the pinned pattern is computed once per space,
and the result is bitwise what `pin_rows_cols` makes of the unpinned matrix.
`pin_rows_cols` and `apply_dirichlet` pin any other matrix.

`solve_spd` solves directly with a sparse LU (`factor_spd`) at every size;
`pcg_attempt` tries preconditioned conjugate gradients along a given
factorization, which may be that of a nearby matrix.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from .constitutive import s_flux, ds_split, phi, phi_change, magnitude, sq_magnitude
# not called here: re-exported because perfbench/tracer.py wraps it at this name
from .constitutive import ds_jacobian  # noqa: F401
from .fespace import grad_rule, quadrature, step_rule

# relative residual below which the direct solve is not refined; the
# roundoff floor of b - A x lies between 1e-16 and 1e-13 on the step Jacobians
REFINE_TARGET = 5e-15
REFINE_PASSES = 2
JACOBIAN_EPS_REG = 1e-10
JACOBIAN_BLOCK = 1024  # cells per block of the step Jacobian's element matrices


class SpaceMismatch(Exception):
    """Operands built on different finite element spaces."""


@dataclass(frozen=True)
class LinearSolveReport:
    iterations: int
    relative_residual: float


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
    per space: (indptr, indices, slots, diagonal).  `slots` maps each slot of
    the full pattern to its slot in the pinned data array, and the slots that
    pinning drops (entries in a pinned row or column off the diagonal) to one
    past its end; `diagonal` are the pinned diagonal's slots in the pinned
    data array."""
    if space._pinned_pattern is None:
        indptr, indices, _ = _pattern(space)
        pinned = np.zeros(space.ndof, dtype=bool)
        pinned[space.boundary_dofs] = True
        rows = np.repeat(np.arange(space.ndof), np.diff(indptr))
        diagonal = pinned[rows] & (indices == rows)
        kept = ~(pinned[rows] | pinned[indices]) | diagonal
        pinned_indptr = np.zeros(space.ndof + 1, dtype=np.int32)
        np.cumsum(np.bincount(rows[kept], minlength=space.ndof), out=pinned_indptr[1:])
        slots = np.where(kept, np.cumsum(kept) - 1, pinned_indptr[-1]).astype(np.int32)
        space._pinned_pattern = (pinned_indptr, indices[kept], slots,
                                 np.flatnonzero(diagonal[kept]))
    return space._pinned_pattern


def _sum_into_pattern(space, local):
    """Sum element matrices (nt, nloc, nloc) into the space's CSR pattern."""
    indptr, indices, scatter = _pattern(space)
    data = np.bincount(scatter, weights=local.reshape(-1), minlength=indices.shape[0])
    return sparse.csr_matrix((data, indices, indptr), shape=(space.ndof, space.ndof))


def _sum_pinned(space, blocks):
    """Sum element matrices into the space's CSR pattern with the Dirichlet
    rows and columns pinned, exactly as `pin_rows_cols` leaves them: zeroed
    and dropped, with a unit diagonal, and every other entry that sums to
    zero dropped too.

    `blocks` yields the element matrices (nb, nloc, nloc) of consecutive
    cells, from the first cell on.  Each entry is added where it lands in
    element order, as `np.bincount` adds them, so the sum is bitwise that of
    all cells at once.
    """
    _, _, scatter = _pattern(space)
    indptr, indices, slots, diagonal = _pinned_pattern(space)
    data = np.zeros(indices.shape[0] + 1)  # the last slot takes the dropped entries
    start = 0
    for local in blocks:
        np.add.at(data, slots[scatter[start:start + local.size]], local.reshape(-1))
        start += local.size
    data = data[:-1]
    data[diagonal] = 1.0
    if not data.all():
        A = sparse.csr_matrix((data, indices.copy(), indptr.copy()),
                              shape=(space.ndof, space.ndof))
        A.eliminate_zeros()
        return A
    return sparse.csr_matrix((data, indices, indptr), shape=(space.ndof, space.ndof))


def _local_mass(space, rule, scale=1.0, cells=slice(None)):
    """Element matrices scale * int phi_i phi_j dx of the given cells,
    (nt, nloc, nloc)."""
    phi_vals = space.operators(rule).values
    ref = (rule.weights[:, None] * phi_vals).T @ phi_vals
    return (scale * space.areas[cells])[:, None, None] * (0.5 * (ref + ref.T))


def _local_stiffness(ops, coeff=None, rank_one=None, cells=slice(None)):
    """Element matrices int grad phi_i . C grad phi_j dx of the given cells,
    (nt, nloc, nloc).

    C = c I + b (d ox d) per point: c is None (one) or (nt, nq), and
    rank_one is None or the pair (b (nt, nq), d (nt, nq, 2)), on those
    cells.  The physical gradients are J^-T times the reference ones, with
    J^-T constant on a cell, so the integrand is the reference gradients
    contracted with K = J^-1 (w C) J^-T; the three entries of this symmetric
    2 x 2 matrix per point meet the reference gradient products in one
    matmul, and no per-point gradient or 2 x 2 array is formed.
    """
    jt = ops.inv_jac_t[cells, None]                   # J^-T, (nt, 1, 2, 2)
    w = ops.w[cells] if coeff is None else ops.w[cells] * coeff
    nt = jt.shape[0]
    k = np.empty((nt, 3, ops.nq))
    k[:, 0] = w * (jt[..., 0, 0] ** 2 + jt[..., 1, 0] ** 2)
    k[:, 1] = w * (jt[..., 0, 0] * jt[..., 0, 1] + jt[..., 1, 0] * jt[..., 1, 1])
    k[:, 2] = w * (jt[..., 0, 1] ** 2 + jt[..., 1, 1] ** 2)
    if rank_one is not None:
        b, d = rank_one
        wb = ops.w[cells] * b
        e0 = d[..., 0] * jt[..., 0, 0] + d[..., 1] * jt[..., 1, 0]   # J^-1 d
        e1 = d[..., 0] * jt[..., 0, 1] + d[..., 1] * jt[..., 1, 1]
        k[:, 0] += wb * e0 * e0
        k[:, 1] += wb * e0 * e1
        k[:, 2] += wb * e1 * e1
    local = (k.reshape(nt, -1) @ ops.gradient_products).reshape(nt, ops.nloc, ops.nloc)
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
    The element matrices are made and summed into the pinned pattern
    JACOBIAN_BLOCK cells at a time, so no array of all of them is held; the
    result is bitwise that of summing them all at once.
    """
    _check_same_space(space, u)
    gops, rule = space.operators(grad_rule(space)), step_rule(space)
    grad = gops.grad(u.coeffs)

    def blocks():
        for first in range(0, gops.nt, JACOBIAN_BLOCK):
            cells = slice(first, first + JACOBIAN_BLOCK)
            iso, rank, d = ds_split(grad[cells], params, eps_reg=JACOBIAN_EPS_REG)
            local = _local_stiffness(gops, iso, (rank, d), cells)
            local += _local_mass(space, rule, 1.0 / tau, cells)
            yield local

    return _sum_pinned(space, blocks())


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


def step_energy_line(space, u, delta, u_prev, tau, f_quad, params):
    """s -> E(u + s delta) - E(u), without the cancellation of a difference of
    two step energies.  The value terms make (c2 s + c1) s, with c2 = (P delta,
    P delta)_w / (2 tau) and c1 = (P delta, (u - u_prev)/tau - f)_w.  At a
    gradient point, with g = grad u and e = grad delta, phi goes from a = |g|
    to a + d, d = (2 s g.e + s^2 |e|^2) / (|g| + |g + s e|).  Only a, 2 g.e and
    |e|^2 are held per point, and a trial makes two arrays besides phi_change's."""
    _check_same_space(space, u, delta, u_prev)
    ops, gops = space.operators(step_rule(space)), space.operators(grad_rule(space))
    vals = ops.eval(delta.coeffs)
    c2 = np.vdot(ops.w, vals * vals) / (2.0 * tau)
    c1 = np.vdot(ops.w, vals * (ops.eval(u.coeffs - u_prev.coeffs) / tau - f_quad))
    g, e = gops.grad(u.coeffs), gops.grad(delta.coeffs)
    a, ee = magnitude(g), sq_magnitude(e)
    ge = 2.0 * (g[..., 0] * e[..., 0] + g[..., 1] * e[..., 1])
    phi_diff = phi_change(a, params)

    def change(s):
        d = s * ge
        d += s * s * ee  # |g + s e|^2 - |g|^2
        b = a * a
        b += d
        np.sqrt(np.maximum(b, 0.0, out=b), out=b)
        b += a  # |g| + |g + s e|
        np.divide(d, b, where=b > 0.0, out=d)
        return float((c2 * s + c1) * s + np.vdot(gops.w, phi_diff(np.maximum(d, -a, out=d))))

    return change


def factor_spd(A):
    """Sparse LU of an SPD matrix, as `solve_spd` makes it.

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


def pcg_credit(lu, A):
    """PCG iterations on A along `lu`, a `factor_spd` factorization of a
    matrix with A's pattern, that cost about as much as making `lu`, in
    structural units.  An iteration applies L, U and A once, nnz(L + U) +
    nnz(A) multiply-adds.  The factorization's work is the sum of the
    squared column counts of L, at least nnz(L)^2 / n by Cauchy-Schwarz; the
    bound is taken, because SuperLU hands out L only as a copy of both
    factors, which it keeps as long as `lu`."""
    nnz_l = 0.5 * lu.nnz  # symmetric mode: L and U share one structure
    return int(nnz_l * nnz_l / A.shape[0]) // (lu.nnz + A.nnz)


def solve_spd(A, b, lu=None):
    """Solve the SPD system A x = b directly; returns (x, LinearSolveReport).

    The solve goes along `lu`, a `factor_spd` factorization of A or, for a
    chord solve, of a matrix near it, or else along one of A made here at
    any size (a system too large to factor ends in SciPy's MemoryError):
    one solve, then at most REFINE_PASSES passes of iterative refinement on
    A, taken only while the relative residual exceeds REFINE_TARGET and each
    pass lowers it.  The report gives the relative residual ||b - A x|| /
    ||b|| of x and one iteration.
    """
    b = np.asarray(b, dtype=float)
    bnorm = np.linalg.norm(b)
    scale = bnorm if bnorm > 0 else 1.0
    lu = factor_spd(A) if lu is None else lu
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
    return x, LinearSolveReport(iterations=1, relative_residual=float(rel))


def pcg_attempt(A, b, lu, rtol, maxiter):
    """Attempt A x = b by conjugate gradients from x = 0, preconditioned by
    `lu`, a `factor_spd` factorization that may be of another matrix such
    as the Jacobian at a nearby state; returns (x or None, LinearSolveReport).

    The attempt succeeds once the relative residual ||b - A x|| / ||b|| is
    at most `rtol` by the recursive residual r, confirmed on the true one.
    It misses, returning None, after `maxiter` iterations, at a curvature
    d.Ad <= 0, or as soon as the mean contraction of ||r|| so far, kept up
    to `maxiter`, would not reach `rtol`.  Every iterate x has b . x > 0,
    since it lowers x.Ax/2 - b.x below its value 0 at x = 0.  The report
    gives the iterations and the relative residual of x (for a miss, the
    recursive one of the last iterate).
    """
    b = np.asarray(b, dtype=float)
    x, r = np.zeros_like(b), b.copy()
    rnorm = r0 = np.linalg.norm(r)
    scale = r0 if r0 > 0 else 1.0
    target = rtol * scale
    iterations = 0
    if r0 > target:
        z = lu.solve(r)
        d, rz = z, float(r @ z)
        for k in range(1, maxiter + 1):
            q = A @ d
            curvature = float(d @ q)
            if not curvature > 0.0:
                break
            iterations = k
            alpha = rz / curvature
            x += alpha * d
            r -= alpha * q
            rnorm = np.linalg.norm(r)
            if rnorm <= target or r0 * (rnorm / r0) ** (maxiter / k) > target:
                break
            z = lu.solve(r)
            rz, rz_old = float(r @ z), rz
            d = z + (rz / rz_old) * d
    if rnorm <= target:  # met by the recursion: confirmed on the true residual
        rnorm = np.linalg.norm(b - A @ x)
    report = LinearSolveReport(iterations=iterations, relative_residual=float(rnorm / scale))
    return (x if report.relative_residual <= rtol else None), report
