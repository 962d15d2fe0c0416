"""A fixed calibration kernel that times the machine, not pheat.

The machine this benchmark was sized on is shared, and its speed drifts by
up to 40 % over tens of minutes: a study, its CPU time and its set-up all
slow down together.  run.py therefore times this kernel in the benchmark's
own process right before and right after each round's studies, and divides
the round's times by the kernel's times.  The kernel mixes the kinds of work
a study does, in about the proportions a study does them: small-array NumPy
calls whose cost is interpreter overhead, element-wise powers and gathers
over quadrature-sized arrays, sparse assembly through COO to CSR, and sparse
LU factorizations and solves of about 17 000 unknowns.  It uses only NumPy
and SciPy, never pheat, so a change to pheat cannot move it.
"""

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

GRID = 129              # 129 x 129 = 16 641 unknowns, close to slit L5 P2
SMALL_CALLS = 18000     # small-array iterations (interpreter-bound part)
PASSES = 6              # timed passes of one measurement, each about 0.6 s


def _element_triplets(n):
    """COO triplets, duplicates included, of a P1 stiffness-like matrix
    assembled element by element over the 2 (n-1)^2 triangles of an n x n grid."""
    idx = np.arange(n * n).reshape(n, n)
    a, b = idx[:-1, :-1].ravel(), idx[:-1, 1:].ravel()
    c, d = idx[1:, :-1].ravel(), idx[1:, 1:].ravel()
    tri = np.concatenate([np.stack([a, b, d], 1), np.stack([a, d, c], 1)])
    local = np.array([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]])
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    vals = np.tile(local.ravel(), tri.shape[0]) + 1e-3
    return rows, cols, vals


def kernel():
    """One pass of the mixed work; returns a checksum so nothing is skipped."""
    rng = np.random.default_rng(12345)
    acc = 0.0
    # interpreter-bound: many calls on 3x2 arrays, like per-element gradients
    g = rng.standard_normal((3, 2))
    for k in range(SMALL_CALLS):
        m = g.T @ g + k * 1e-6
        acc += float(np.linalg.det(m)) + float(np.sqrt((g * g).sum()))
    # element-wise: |grad|^(p-2) grad over quadrature points, plus gathers
    grads = rng.standard_normal((400_000, 2))
    conn = rng.integers(0, 100_000, size=(400_000, 3))
    u = rng.standard_normal(100_000)
    for p in (1.5, 3.0, 1.5, 3.0):
        norm = np.sqrt(np.einsum("qi,qi->q", grads, grads))
        flux = np.power(norm, p - 2.0)[:, None] * grads
        acc += float(flux.sum()) + float(u[conn].sum())
        acc += float(np.bincount(conn[:, 0], weights=flux[:, 0], minlength=100_000).sum())
    # sparse assembly and direct solves
    rows, cols, vals = _element_triplets(GRID)
    b = np.ones(GRID * GRID)
    for shift in (1e-3, 1e-2):
        A = sp.coo_matrix((vals + shift, (rows, cols)), shape=(GRID * GRID,) * 2).tocsr()
        lu = spla.splu(A.tocsc())
        x = lu.solve(b)
        acc += float(x.sum()) + float((A @ x - b).dot(A @ x - b))
    return acc


def measure():
    """(wall seconds, CPU seconds) of one kernel pass, averaged over PASSES."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for _ in range(PASSES):
        kernel()
    return (time.perf_counter() - wall0) / PASSES, (time.process_time() - cpu0) / PASSES
