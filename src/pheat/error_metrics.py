"""Squared error quantities between trajectories and reference solutions.

Against an exact (closed-form) reference:

    sq_linfty_l2 = max_m || u_(h,m) - <u>_(J_m) ||_L2^2
    sq_l2_v      = sum_m int_(J_m) || V(grad u_(h,m)) - V(grad u(s)) ||_L2^2 ds
    sq_l2_v_avg  = tau sum_m || V(grad u_(h,m)) - <V(grad u)>_(J_m) ||_L2^2
    sq_lp_s      = ( tau sum_m || S(grad u_(h,m)) - <S(grad u)>_(J_m) ||_Lp'^p' )^(2/p')

Against a discrete reference, which is the reference's own Trajectory (on a
refinement of the run's mesh, at a degree at least the run's, on a finer
grid), the time average acts on the reference snapshots (trapezoidal rule),
the run is prolongated to the reference space (`fespace.prolongation`), and
the V / S errors compare against the transformed gradient of the averaged
reference; the two V columns then coincide.

`compute_error_report` computes every quantity in one pass: over the
subintervals I_k = [t_(k-1), t_k] for an exact reference, whose time nodes
each serve the one or two windows that contain them, and over the steps for
a discrete reference.

The raw p'-power sum (before the 2/p' exponent) is kept alongside, because
the CSV files store it under the column sqAerr.
"""

from dataclasses import dataclass, fields

import numpy as np

from .constitutive import magnitude, s_flux, sq_magnitude, v_transform
from .fespace import gauss_segments, prolongation, quadrature
from .mesh import mesh_quality
from .timestepper import Trajectory

ERROR_QUADRATURE_DEGREE = 8

CSV_HEADER = "ndof,M,h,tau,sqVerr,sqVerr1,sqLinftyError,sqAerr"

_CSV_FIELDS = {"sqVerr": "sq_l2_v", "sqVerr1": "sq_l2_v_avg",
               "sqLinftyError": "sq_linfty_l2", "sqAerr": "raw_lp_sum"}


class IncompatibleHierarchy(Exception):
    """Reference mesh/grid does not nest the compared run."""


class InsufficientData(Exception):
    """Need at least two refinement levels to fit an order."""


@dataclass(frozen=True)
class ExactSolution:
    """Closed-form reference: u, grad u and optionally V(grad u), S(grad u).

    t_singular marks a time (e.g. 0) where quadrature intervals are split.
    """

    u: object
    grad_u: object
    v_of_grad: object = None
    s_of_grad: object = None
    t_singular: float = None

    def v_and_s(self, pts, t, params):
        """V(grad u) and S(grad u) at (pts, t); grad u is evaluated once, and
        only when a closed form for V or S is missing."""
        grad = None
        if self.v_of_grad is None or self.s_of_grad is None:
            grad = np.asarray(self.grad_u(pts, t), dtype=float)
        v = (v_transform(grad, params) if self.v_of_grad is None
             else np.asarray(self.v_of_grad(pts, t), dtype=float))
        s = (s_flux(grad, params) if self.s_of_grad is None
             else np.asarray(self.s_of_grad(pts, t), dtype=float))
        return v, s


@dataclass(frozen=True)
class ErrorReport:
    ndof: int
    M: int
    h: float
    tau: float
    sq_linfty_l2: float
    sq_l2_v: float
    sq_l2_v_avg: float
    sq_lp_s: float
    raw_lp_sum: float


@dataclass(frozen=True)
class VErrorBreakdown:
    """Pieces of the orthogonal window decomposition (exact references).

    sq_l2_v equals sum(window_lengths * per_window_avg_sq) + fluctuation up
    to roundoff: the time average over each window is built from the same
    quadrature nodes as the integral, so the cross term cancels exactly.
    """

    sq_l2_v: float
    sq_l2_v_avg: float
    per_window_avg_sq: np.ndarray
    window_lengths: np.ndarray
    fluctuation: float


# ----------------------------------------------------------------------
# exact references
# ----------------------------------------------------------------------

class _Window:
    """The running sums of one open window J_m: its run-side V field, the
    weighted sums of the reference's u, V and S, its time weights, and its
    nodes' V-error terms, which enter sq_v when the window closes."""

    def __init__(self, m, vh):
        self.m, self.vh = m, vh
        self.acc = [np.zeros(vh.shape[:-1]), np.zeros_like(vh), np.zeros_like(vh)]
        self.weights, self.sq_v_terms = [], []
        self.int_vsq = 0.0        # int_(J_m) ||V(s)||^2 ds


def _exact_errors(traj, ref, grid, params, quad_degree):
    """Every windowed quantity in one sweep over the subintervals.

    The Gauss nodes of I_k = [t_(k-1), t_k] close window k - 1 and open
    window k, so the closed forms are evaluated once per node.  Each window
    adds its nodes in the order I_m, I_(m+1), and the flat sum sq_v takes a
    window's terms when it closes: every sum runs in the order of a loop
    over windows.  An open window keeps its V field and three running sums;
    u_h and S(grad u_h) are built from the snapshot when it closes.
    """
    space = traj.space
    rule = quadrature(quad_degree)
    ops = space.operators(rule)
    flat = space.physical_points(rule).reshape(-1, 2)
    pprime = params.p_conjugate
    linfty = sq_v = fluct = raw = 0.0
    per_window, lengths = [], []

    def close(win):
        # the sums become averages, and the differences are taken, in place,
        # so closing a window needs less memory than a node
        nonlocal linfty, sq_v, fluct, raw
        for term in win.sq_v_terms:
            sq_v += term
        length = np.concatenate(win.weights).sum()
        u_bar, v_bar, s_bar = win.acc
        for acc in win.acc:
            acc /= length
        u_m = traj.snapshots[win.m].coeffs
        du = ops.eval(u_m)
        du -= u_bar
        linfty = max(linfty, space.integrate(rule, du * du))
        del du
        fluct += win.int_vsq - length * space.integrate(rule, sq_magnitude(v_bar))
        win.vh -= v_bar
        per_window.append(space.integrate(rule, sq_magnitude(win.vh)))
        lengths.append(length)
        ds = s_flux(ops.grad(u_m), params)
        ds -= s_bar
        raw += grid.tau * space.integrate(rule, magnitude(ds) ** pprime)

    prev = None
    for k in range(1, grid.M + 1):
        win = _Window(k, v_transform(ops.grad(traj.snapshots[k].coeffs), params))
        open_windows = (win,) if prev is None else (prev, win)
        s_nodes, s_weights = gauss_segments([(grid.t(k - 1), grid.t(k))], ref.t_singular)
        for w in open_windows:
            w.weights.append(s_weights)
        for sk, wk in zip(s_nodes, s_weights):
            u_ex = np.asarray(ref.u(flat, sk), dtype=float).reshape(win.vh.shape[:-1])
            v_ex, s_ex = ref.v_and_s(flat, sk, params)
            v_ex, s_ex = v_ex.reshape(win.vh.shape), s_ex.reshape(win.vh.shape)
            vsq = wk * space.integrate(rule, sq_magnitude(v_ex))
            for w in open_windows:
                w.sq_v_terms.append(wk * space.integrate(rule, sq_magnitude(w.vh - v_ex)))
                w.int_vsq += vsq
            for i, field in enumerate((u_ex, v_ex, s_ex)):
                weighted = wk * field
                for w in open_windows:
                    w.acc[i] += weighted
            # release this node's fields before the next node builds its own
            del u_ex, v_ex, s_ex, weighted
        if prev is not None:
            close(prev)
        prev = win
    close(prev)

    per_window = np.array(per_window)
    return dict(sq_linfty_l2=linfty, sq_l2_v=sq_v,
                sq_l2_v_avg=grid.tau * per_window.sum(),
                raw_lp_sum=raw, per_window_avg_sq=per_window, window_lengths=np.array(lengths),
                fluctuation=fluct)


# ----------------------------------------------------------------------
# discrete references
# ----------------------------------------------------------------------

def _trapezoid_average(ref_traj, grid, m):
    """Trapezoidal average of reference snapshots over J_m of the coarse grid."""
    rg = ref_traj.grid
    ratio = rg.M // grid.M
    k0 = (m - 1) * ratio
    k1 = min((m + 1) * ratio, rg.M)
    weights = np.full(k1 - k0 + 1, rg.tau)
    weights[0] = weights[-1] = 0.5 * rg.tau
    coeffs = sum(w * ref_traj.snapshots[k].coeffs
                 for w, k in zip(weights, range(k0, k1 + 1)))
    return coeffs / weights.sum()


def _check_discrete_compat(traj, ref_traj, grid):
    """The run's prolongation to the reference space; IncompatibleHierarchy
    unless the reference refines the run's grid and mesh at no lower degree."""
    rg = ref_traj.grid
    if not (np.isclose(rg.t0, grid.t0) and np.isclose(rg.t_end, grid.t_end)):
        raise IncompatibleHierarchy("reference grid covers a different interval")
    if rg.M % grid.M != 0:
        raise IncompatibleHierarchy(f"reference M = {rg.M} is not a multiple of M = {grid.M}")
    try:
        return prolongation(traj.space, ref_traj.space)
    except ValueError as exc:
        raise IncompatibleHierarchy(str(exc)) from exc


def _discrete_errors(traj, ref_traj, grid, params, quad_degree):
    """The run, prolongated to the reference space, against the reference."""
    prolong = _check_discrete_compat(traj, ref_traj, grid)
    ref_space = ref_traj.space
    rule = quadrature(quad_degree)
    ops = ref_space.operators(rule)
    pprime = params.p_conjugate

    linfty = sq_v = raw = 0.0
    for m in range(1, grid.M + 1):
        avg = _trapezoid_average(ref_traj, grid, m)
        uh = prolong @ traj.snapshots[m].coeffs
        grad_h = ops.grad(uh)
        grad_ref = ops.grad(avg)

        du = ops.eval(uh - avg)
        linfty = max(linfty, ref_space.integrate(rule, du * du))
        dv = v_transform(grad_h, params) - v_transform(grad_ref, params)
        sq_v += grid.tau * ref_space.integrate(rule, sq_magnitude(dv))
        dsn = magnitude(s_flux(grad_h, params) - s_flux(grad_ref, params))
        raw += grid.tau * ref_space.integrate(rule, dsn ** pprime)

    return dict(sq_linfty_l2=linfty, sq_l2_v=sq_v, sq_l2_v_avg=sq_v, raw_lp_sum=raw)


# ----------------------------------------------------------------------
# public operations
# ----------------------------------------------------------------------

def v_error_breakdown(traj, ref, grid, params, quad_degree=ERROR_QUADRATURE_DEGREE):
    """Window decomposition of sq_l2_v (exact references only)."""
    if not isinstance(ref, ExactSolution):
        raise TypeError("breakdown requires an exact reference")
    d = _exact_errors(traj, ref, grid, params, quad_degree)
    return VErrorBreakdown(**{f.name: d[f.name] for f in fields(VErrorBreakdown)})


def compute_error_report(traj, ref, grid, params, quad_degree=ERROR_QUADRATURE_DEGREE):
    """Every error quantity of `traj` against an ExactSolution or a reference
    Trajectory on a nested finer mesh and grid, in one pass."""
    if isinstance(ref, ExactSolution):
        d = _exact_errors(traj, ref, grid, params, quad_degree)
    elif isinstance(ref, Trajectory):
        d = _discrete_errors(traj, ref, grid, params, quad_degree)
    else:
        raise TypeError(f"unknown reference type {type(ref)!r}")
    return ErrorReport(ndof=traj.space.ndof, M=grid.M,
                       h=mesh_quality(traj.space.mesh).h_max, tau=grid.tau,
                       sq_linfty_l2=d["sq_linfty_l2"], sq_l2_v=d["sq_l2_v"],
                       sq_l2_v_avg=d["sq_l2_v_avg"], raw_lp_sum=d["raw_lp_sum"],
                       sq_lp_s=d["raw_lp_sum"] ** (2.0 / params.p_conjugate))


# ----------------------------------------------------------------------
# empirical orders and output files
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class OrderFit:
    slopes: np.ndarray    # between consecutive levels
    ls_slope: float       # global least-squares fit


_FIELD_TO_CSV = {v: k for k, v in _CSV_FIELDS.items()}


def _report_field(report, name):
    if isinstance(report, dict):
        return report[name] if name in report else report[_FIELD_TO_CSV[name]]
    return getattr(report, _CSV_FIELDS.get(name, name))


def empirical_order(reports, field, against="ndof"):
    """Slopes of log(error) vs log(h | tau | ndof) between levels and by LS fit."""
    if len(reports) < 2:
        raise InsufficientData("need at least two reports")
    x = np.array([float(_report_field(r, against)) for r in reports])
    if np.unique(x).size < x.size:
        raise InsufficientData(f"repeated {against} values give no slope")
    y = np.array([float(_report_field(r, field)) for r in reports])
    if np.any(y <= 0):
        raise InsufficientData("errors must be positive to fit a log-log slope")
    lx, ly = np.log(x), np.log(y)
    slopes = np.diff(ly) / np.diff(lx)
    ls = float(np.polyfit(lx, ly, 1)[0])
    return OrderFit(slopes=slopes, ls_slope=ls)


def _fmt(x):
    return f"{x:.17g}"


def csv_lines(reports):
    lines = [CSV_HEADER]
    for r in reports:
        lines.append(",".join([str(r.ndof), str(r.M), _fmt(r.h), _fmt(r.tau),
                               _fmt(r.sq_l2_v), _fmt(r.sq_l2_v_avg),
                               _fmt(r.sq_linfty_l2), _fmt(r.raw_lp_sum)]))
    return lines


def write_csv(reports, path):
    with open(path, "w") as fh:
        fh.write("\n".join(csv_lines(reports)) + "\n")


def write_dat(reports, path):
    """gnuplot-friendly copy: same numbers, whitespace separated."""
    lines = [line.replace(",", " ") for line in csv_lines(reports)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_manifest(entries, path):
    with open(path, "w") as fh:
        for key, value in entries.items():
            fh.write(f"{key} = {value}\n")


def read_csv(path):
    """Rows of a results CSV as dicts of floats (ndof, M as ints)."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [dict(zip(header, map(float, line.split(",")))) for line in fh if line.strip()]
    for row in rows:
        row["ndof"], row["M"] = int(row["ndof"]), int(row["M"])
    return rows
