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

An exact reference is separable, u = a(t) U(x), with kappa = 0 or p = 2, so
V(grad u) and S(grad u) are scalar functions of a(t) times V(grad U) and
S(grad U).  `exact_fields` evaluates U, grad U, V(grad U) and S(grad U) on
one space's error rule; the rows on that space share them, and
`compute_error_report` evaluates them itself when given the ExactSolution.
It evaluates a(t) once per Gauss node of the subintervals
I_k = [t_(k-1), t_k]; each window average is then a scalar moment of a(t)
times one of those fields.  For a discrete reference it works over the
steps.

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
    """Separable closed-form reference u(x, t) = a(t) U(x).

    `profile` gives U and `profile_grad` grad U at an (n, 2) point array,
    `amplitude` gives the scalar a(t).  t_singular marks a time (e.g. 0)
    where quadrature intervals are split.
    """

    profile: object
    profile_grad: object
    amplitude: object
    t_singular: float = None

    def u(self, pts, t):
        return self.amplitude(t) * np.asarray(self.profile(pts), dtype=float)

    def grad_u(self, pts, t):
        return self.amplitude(t) * np.asarray(self.profile_grad(pts), dtype=float)


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

    sq_l2_v = sum(window_lengths * per_window_avg_sq) + fluctuation: the time
    average over each window is built from the same quadrature nodes as the
    integral, so the cross term vanishes, and the pass sums the two terms.
    """

    sq_l2_v: float
    sq_l2_v_avg: float
    per_window_avg_sq: np.ndarray
    window_lengths: np.ndarray
    fluctuation: float


# ----------------------------------------------------------------------
# exact references
# ----------------------------------------------------------------------

def _signed_power(a, k):
    """|a|^k a elementwise, 0 at a = 0: V(a xi) = _signed_power(a, (p-2)/2) V(xi)
    and S(a xi) = _signed_power(a, p-2) S(xi) when kappa = 0 or p = 2."""
    out = np.zeros_like(a)
    nonzero = a != 0.0
    out[nonzero] = np.abs(a[nonzero]) ** k * a[nonzero]
    return out


@dataclass(frozen=True, eq=False)
class ExactFields:
    """An ExactSolution evaluated on one space's degree-`quad_degree` error
    rule: U, V(grad U) and S(grad U) at the points, shapes (nt, nq) and
    (nt, nq, 2), and ||V(grad U)||_L2^2.  It is a reference for the rows on
    `space` with these params; it holds per-point data, so its holder drops
    it after those rows."""

    exact: ExactSolution
    space: object
    params: object
    quad_degree: int
    ops: object                     # PointOperators of the error rule
    profile: np.ndarray
    v_profile: np.ndarray
    s_profile: np.ndarray
    sq_v_profile: float


def exact_fields(exact, space, params, quad_degree=ERROR_QUADRATURE_DEGREE):
    """Evaluate `exact`'s profile fields on `space` (see ExactFields); needs
    kappa = 0 or p = 2, where V and S of a(t) grad U factor."""
    if params.kappa != 0.0 and params.p != 2.0:
        raise ValueError("an exact reference needs kappa = 0 or p = 2: V and S "
                         "of a(t) grad U do not factor otherwise")
    rule = quadrature(quad_degree)
    pts = space.physical_points(rule)
    flat = pts.reshape(-1, 2)
    prof = np.asarray(exact.profile(flat), dtype=float).reshape(pts.shape[:-1])
    prof_grad = np.asarray(exact.profile_grad(flat), dtype=float)
    v_prof = v_transform(prof_grad, params).reshape(pts.shape)
    s_prof = s_flux(prof_grad, params).reshape(pts.shape)
    return ExactFields(exact=exact, space=space, params=params, quad_degree=quad_degree,
                       ops=space.operators(rule), profile=prof, v_profile=v_prof,
                       s_profile=s_prof,
                       sq_v_profile=space.integrate(rule, sq_magnitude(v_prof)))


def _exact_errors(traj, fields):
    """Every windowed quantity from the separable form u = a(t) U(x).

    V(grad u) = b(t) V(grad U) and S(grad u) = c(t) S(grad U) with
    b = |a|^((p-2)/2) a and c = |a|^(p-2) a, so each window average is a
    Gauss-weighted mean of a, b or c times a field of `fields`, which does
    not depend on t.  a(t) is evaluated once per Gauss node of each
    subinterval I_k = [t_(k-1), t_k], which serves the one or two windows
    that contain it.  sq_l2_v is the orthogonal window decomposition
    |J_m| ||V_h - b_bar V(grad U)||^2 + ||V(grad U)||^2
    sum_j w_j (b_j - b_bar)^2, which has no cancelling terms.
    """
    space, grid, ops = traj.space, traj.grid, fields.ops
    ref, params = fields.exact, fields.params
    rule = quadrature(fields.quad_degree)
    pprime = params.p_conjugate
    prof, v_prof, s_prof = fields.profile, fields.v_profile, fields.s_profile
    # at p = 2 V = S = identity and b = c: the V error, formed in place on the
    # gradient, is also the S error
    linear = params.p == 2.0

    subintervals = [gauss_segments([(grid.t(k - 1), grid.t(k))], ref.t_singular)
                    for k in range(1, grid.M + 1)]
    amplitudes = [np.array([ref.amplitude(s) for s in nodes], dtype=float)
                  for nodes, _ in subintervals]
    linfty = raw = 0.0
    per_window, lengths, spread = [], [], []
    for m in range(1, grid.M + 1):
        ks = grid.window(m)
        weights = np.concatenate([subintervals[k - 1][1] for k in ks])
        a = np.concatenate([amplitudes[k - 1] for k in ks])
        b = _signed_power(a, 0.5 * (params.p - 2.0))
        c = _signed_power(a, params.p - 2.0)
        length = weights.sum()
        a_bar, b_bar, c_bar = (weights @ x / length for x in (a, b, c))
        spread.append(weights @ (b - b_bar) ** 2)
        lengths.append(length)

        coeffs = traj.snapshots[m].coeffs
        du = ops.eval(coeffs)
        du -= a_bar * prof
        linfty = max(linfty, space.integrate(rule, du * du))
        grad = ops.grad(coeffs)
        dv = grad if linear else v_transform(grad, params)
        dv -= b_bar * v_prof
        per_window.append(space.integrate(rule, sq_magnitude(dv)))
        if linear:
            ds = dv
        else:
            ds = s_flux(grad, params)
            ds -= c_bar * s_prof
        raw += grid.tau * space.integrate(rule, magnitude(ds) ** pprime)

    per_window, lengths = np.array(per_window), np.array(lengths)
    fluctuations = fields.sq_v_profile * np.array(spread)
    return dict(sq_linfty_l2=linfty, sq_l2_v=float(np.sum(lengths * per_window + fluctuations)),
                sq_l2_v_avg=grid.tau * per_window.sum(),
                raw_lp_sum=raw, per_window_avg_sq=per_window, window_lengths=lengths,
                fluctuation=float(fluctuations.sum()))


# ----------------------------------------------------------------------
# discrete references
# ----------------------------------------------------------------------

def _trapezoid_average(ref_traj, grid, m):
    """Trapezoidal average of reference snapshots over J_m of the coarse grid."""
    rg = ref_traj.grid
    ratio = rg.M // grid.M
    ks = grid.window(m)
    k0, k1 = (ks[0] - 1) * ratio, ks[-1] * ratio
    weights = np.full(k1 - k0 + 1, rg.tau)
    weights[0] = weights[-1] = 0.5 * rg.tau
    coeffs = sum(w * ref_traj.snapshots[k].coeffs
                 for w, k in zip(weights, range(k0, k1 + 1)))
    return coeffs / weights.sum()


def _check_discrete_compat(traj, ref_traj):
    """The run's prolongation to the reference space; IncompatibleHierarchy
    unless the reference refines the run's grid and mesh at no lower degree."""
    grid, rg = traj.grid, ref_traj.grid
    if not (np.isclose(rg.t0, grid.t0) and np.isclose(rg.t_end, grid.t_end)):
        raise IncompatibleHierarchy("reference grid covers a different interval")
    if rg.M % grid.M != 0:
        raise IncompatibleHierarchy(f"reference M = {rg.M} is not a multiple of M = {grid.M}")
    try:
        return prolongation(traj.space, ref_traj.space)
    except ValueError as exc:
        raise IncompatibleHierarchy(str(exc)) from exc


def _discrete_errors(traj, ref_traj, params, quad_degree):
    """The run, prolongated to the reference space, against the reference."""
    prolong = _check_discrete_compat(traj, ref_traj)
    grid, ref_space = traj.grid, ref_traj.space
    rule = quadrature(quad_degree)
    ops = ref_space.operators(rule)
    pprime = params.p_conjugate
    linear = params.p == 2.0  # V = S = identity: one error, formed in place

    linfty = sq_v = raw = 0.0
    for m in range(1, grid.M + 1):
        avg = _trapezoid_average(ref_traj, grid, m)
        uh = prolong @ traj.snapshots[m].coeffs
        grad_h = ops.grad(uh)
        grad_ref = ops.grad(avg)

        du = ops.eval(uh - avg)
        linfty = max(linfty, ref_space.integrate(rule, du * du))
        if linear:
            grad_h -= grad_ref
        dv = grad_h if linear else v_transform(grad_h, params) - v_transform(grad_ref, params)
        sq_v += grid.tau * ref_space.integrate(rule, sq_magnitude(dv))
        dsn = magnitude(dv if linear else s_flux(grad_h, params) - s_flux(grad_ref, params))
        raw += grid.tau * ref_space.integrate(rule, dsn ** pprime)

    return dict(sq_linfty_l2=linfty, sq_l2_v=sq_v, sq_l2_v_avg=sq_v, raw_lp_sum=raw)


# ----------------------------------------------------------------------
# public operations
# ----------------------------------------------------------------------

def _as_fields(traj, ref, params, quad_degree):
    """ExactFields for traj's space: `ref` itself if it is one, checked to be
    made for this space, params and degree, else `ref` evaluated there."""
    if isinstance(ref, ExactSolution):
        return exact_fields(ref, traj.space, params, quad_degree)
    if (ref.space, ref.params, ref.quad_degree) != (traj.space, params, quad_degree):
        raise ValueError("the exact fields were evaluated for another space, "
                         "params or quadrature degree")
    return ref


def v_error_breakdown(traj, ref, params, quad_degree=ERROR_QUADRATURE_DEGREE):
    """Window decomposition of sq_l2_v (exact references only)."""
    if not isinstance(ref, (ExactSolution, ExactFields)):
        raise TypeError("breakdown requires an exact reference")
    d = _exact_errors(traj, _as_fields(traj, ref, params, quad_degree))
    return VErrorBreakdown(**{f.name: d[f.name] for f in fields(VErrorBreakdown)})


def compute_error_report(traj, ref, params, quad_degree=ERROR_QUADRATURE_DEGREE):
    """Every error quantity of `traj`, on its own space and grid, against an
    ExactSolution (or its ExactFields on traj's space) or a reference
    Trajectory on a nested finer mesh and grid, in one pass."""
    if isinstance(ref, (ExactSolution, ExactFields)):
        d = _exact_errors(traj, _as_fields(traj, ref, params, quad_degree))
    elif isinstance(ref, Trajectory):
        d = _discrete_errors(traj, ref, params, quad_degree)
    else:
        raise TypeError(f"unknown reference type {type(ref)!r}")
    return ErrorReport(ndof=traj.space.ndof, M=traj.grid.M,
                       h=mesh_quality(traj.space.mesh).h_max, tau=traj.grid.tau,
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
