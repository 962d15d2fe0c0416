"""Implicit Euler evolution for the p-Laplace system.

Each step minimizes the strictly convex energy

    E_m(v) = 1/(2 tau) ||v - u_prev||_L2^2 + int phi(|grad v|) dx - int f_m v dx

over the affine set matching the Dirichlet data, via Newton directions with
Armijo backtracking; if Newton stalls, a lagged-coefficient (Kacanov) step is
taken (with the same energy safeguard) before Newton resumes.

For p != 2 the solve starts from the lowest-energy one of u_(m-1) and its
linear and quadratic extrapolations 2u_(m-1) - u_(m-2) and
3u_(m-1) - 3u_(m-2) + u_(m-3) (boundary DOFs set to the step's Dirichlet
data; an extrapolation must win by more than the energy's floating-point
resolution), so no step starts from a higher energy than u_(m-1).  Near the
solution the Armijo test is blind and the step accepts moves on residual
decrease; a run of such moves that each fail to halve the residual ends the
step with a stalled NonConvergence.

The discrete forces f_m are theta-weighted time averages.  The weights are
the piecewise linear densities obtained by averaging the running tau-mean of
the equation over the window J_m = [t_(m-1), t_(m+1)]; the last window is
truncated to [t_(M-1), t_M] and its weight renormalized to mass one.  Grids
may start at t0 != 0; all weight formulas act in grid-local coordinates.

A ProblemSpec holds plain callables: the force (a SeparableForce or any
f(pts, t)), the initial datum u0(pts) and the Dirichlet data u(pts, t), whose
J_m averages at the boundary DOFs are step m's values; a missing datum is zero.
"""

from dataclasses import dataclass, field

import numpy as np

from . import assembly
from .constitutive import magnitude
from .fespace import FeFunction, build_space, gauss_segments
from .mesh import refine_to_level
from .projection import build_boundary_data, l2_project

DEFAULT_TOL = 1e-10
MAX_COMBINED_ITERATIONS = 200
ARMIJO_SLOPE = 1e-4
ARMIJO_MAX_HALVINGS = 40
ENDGAME_HALVINGS = 10
# an endgame move makes progress when it cuts the residual norm by this
# factor; this many moves in a row without progress end the step as stalled
ENDGAME_PROGRESS = 0.5
ENDGAME_STALL_MOVES = 3
# candidate starts of a step: weights on (u_(m-1), u_(m-2), u_(m-3))
EXTRAPOLATIONS = (("linear", (2.0, -1.0)), ("quadratic", (3.0, -3.0, 1.0)))
KACANOV_CLAMP = 1e-12
# achieved/predicted energy decrease below these = stalled; Newton bails out
# eagerly (it crawls near degenerate gradients), the lagged-coefficient
# iteration is kept as long as it makes any headway
STALL_RATIO_NEWTON = 0.1
STALL_RATIO_KACANOV = 1e-3


class NonIntegrableForce(Exception):
    """Power-law force with beta >= 1 cannot be theta-averaged."""


class NonConvergence(Exception):
    """A step failed to converge; carries the report and the step index."""

    def __init__(self, report, m=None):
        stalled = "endgame stalled, " if report.stalled else ""
        super().__init__(f"step {m}: no convergence after {report.iterations} iterations, "
                         f"{stalled}residual {report.final_residual_norm:.3e}")
        self.report = report
        self.m = m


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_m = t0 + m tau, m = 0..M, tau = (t_end - t0)/M."""

    t0: float
    t_end: float
    M: int

    def __post_init__(self):
        if self.M < 1 or not self.t_end > self.t0:
            raise ValueError("need M >= 1 and t_end > t0")

    @property
    def tau(self):
        return (self.t_end - self.t0) / self.M

    def t(self, m):
        return self.t0 + m * self.tau

    def window(self, m):
        """J_m = [t_(m-1), t_(m+1)], truncated to the grid at m = M."""
        if not 1 <= m <= self.M:
            raise ValueError(f"step index {m} outside 1..{self.M}")
        return self.t(m - 1), min(self.t(m + 1), self.t_end)

    def window_length(self, m):
        a, b = self.window(m)
        return b - a

    def window_subintervals(self, m):
        """The I-subintervals composing J_m."""
        subs = [(self.t(m - 1), self.t(m))]
        if m < self.M:
            subs.append((self.t(m), self.t(m + 1)))
        return subs


# ----------------------------------------------------------------------
# theta weights
# ----------------------------------------------------------------------

def theta_pieces(m, grid):
    """Linear pieces (a, b, A, B) of theta_m: theta(s) = A + B s on [a, b].

    m = 1 uses the one-sided weight (2 tau - s')/(2 tau^2) on [t0, t0+2tau];
    2 <= m <= M-1 the mass-one trapezoid with plateau 1/(2 tau);
    m = M the symmetric triangle over the truncated window (mass one).
    """
    tau = grid.tau
    t = grid.t
    if not 1 <= m <= grid.M:
        raise ValueError(f"step index {m} outside 1..{grid.M}")
    if m == 1:
        if grid.M == 1:
            # truncated first window [t0, t1]; renormalized by 4/3
            c = 4.0 / (3.0 * 2.0 * tau ** 2)
            return [(t(0), t(1), c * (2.0 * tau + t(0)), -c)]
        c = 1.0 / (2.0 * tau ** 2)
        return [(t(0), t(2), c * (2.0 * tau + t(0)), -c)]
    if m == grid.M:
        c = 1.0 / tau ** 2
        return [(t(m - 2), t(m - 1), -c * t(m - 2), c),
                (t(m - 1), t(m), c * t(m), -c)]
    c = 1.0 / (2.0 * tau ** 2)
    return [(t(m - 2), t(m - 1), -c * t(m - 2), c),
            (t(m - 1), t(m), 1.0 / (2.0 * tau), 0.0),
            (t(m), t(m + 1), c * t(m + 1), -c)]


def theta_density(m, sigma, grid):
    """Pointwise value of the weight theta_m (vectorized in sigma)."""
    sigma = np.asarray(sigma, dtype=float)
    out = np.zeros_like(sigma)
    for a, b, A, B in theta_pieces(m, grid):
        inside = (sigma >= a) & (sigma <= b)
        out = np.where(inside, A + B * sigma, out)
    return out if out.shape else float(out)


def _split_at_zero(a, b):
    if a < 0.0 < b:
        return [(a, 0.0), (0.0, b)]
    return [(a, b)]


def _power_piece(a, b, A, B, gamma, signed):
    """int_a^b (A + B s) sgn(s)^signed |s|^gamma ds for [a,b] not straddling 0."""

    def F(s):
        if s == 0.0:
            return 0.0
        mag = abs(s)
        sg = np.sign(s)
        if signed:
            f1 = mag ** (gamma + 1.0) / (gamma + 1.0)
            f2 = sg * mag ** (gamma + 2.0) / (gamma + 2.0)
        else:
            f1 = sg * mag ** (gamma + 1.0) / (gamma + 1.0)
            f2 = mag ** (gamma + 2.0) / (gamma + 2.0)
        return A * f1 + B * f2

    return F(b) - F(a)


def theta_average_power(m, grid, gamma, signed):
    """Exact theta_m-average of t -> sgn(t)^signed |t|^gamma (gamma > -1).

    The constant (gamma = 0, unsigned) averages to 1 exactly: theta_m has mass one.
    """
    if gamma == 0 and not signed:
        return 1.0
    if gamma <= -1.0:
        raise NonIntegrableForce(f"|t|^{gamma} is not integrable across t = 0")
    total = 0.0
    for a, b, A, B in theta_pieces(m, grid):
        for lo, hi in _split_at_zero(a, b):
            total += _power_piece(lo, hi, A, B, gamma, signed)
    return total


# ----------------------------------------------------------------------
# forces
# ----------------------------------------------------------------------

def time_power(t, gamma, signed):
    """sgn(t)^signed |t|^gamma.  At t = 0 a signed (odd) term or gamma > 0
    takes the value 0, and gamma = 0 the value 1."""
    if t == 0.0:
        return 0.0 if signed or gamma > 0 else (1.0 if gamma == 0 else np.inf)
    tf = abs(t) ** gamma
    return tf * np.sign(t) if signed else tf


@dataclass(frozen=True)
class SeparableForce:
    """Sum of terms c_i(x) sgn(t)^(s_i) |t|^(gamma_i); time factors integrate exactly.

    A spatial factor c_i is a number or a callable on (n, 2) points.
    """

    terms: tuple  # of (spatial factor, gamma, signed)

    def combine(self, time_factors, points, shape):
        """sum_i c_i * time_factors[i] as an array of `shape`; points() gives
        the (n, 2) points and is called only if some c_i is a callable."""
        total = 0.0
        for (c, _, _), tf in zip(self.terms, time_factors):
            total = total + (np.asarray(c(points()), dtype=float) if callable(c) else c) * tf
        return np.full(shape, total) if np.ndim(total) == 0 else total.reshape(shape)

    def __call__(self, pts, t):
        return self.combine([time_power(t, gamma, signed) for _, gamma, signed in self.terms],
                            lambda: pts, pts.shape[0])


def ConstantForce(value):
    """f = value, constant in space and time."""
    return SeparableForce(terms=((value, 0.0, False),))


def PowerTimeForce(beta):
    """f(t) = sgn(t) |t|^(-beta), spatially constant; needs beta < 1."""
    if not -np.inf < beta < 1.0:
        raise NonIntegrableForce(f"beta must be finite and < 1, got {beta}")
    return SeparableForce(terms=((1.0, -beta, True),))


def average_force(force, m, grid, space, force_mode="theta_average"):
    """Discrete force f_m at the step quadrature points, shape (nt, nq).

    A force is a SeparableForce or any callable f(pts (n, 2), t) -> (n,).
    theta_average mode returns <f>_theta_m (mass-one window weights): the
    time factors of a SeparableForce are integrated analytically, any other
    callable by 5-point Gauss per theta piece split at t = 0.  point_value
    mode returns f(t_m).  Forces are evaluated at `space.step_points`, the
    same array at every step.
    """
    shape = (space.mesh.num_triangles, assembly.step_rule(space).num_points)
    if force_mode == "point_value":
        return np.asarray(force(space.step_points, grid.t(m)), dtype=float).reshape(shape)

    if isinstance(force, SeparableForce):
        factors = [theta_average_power(m, grid, gamma, signed)
                   for _, gamma, signed in force.terms]
        return force.combine(factors, lambda: space.step_points, shape)

    pts = space.step_points
    nodes, weights = gauss_segments([piece[:2] for piece in theta_pieces(m, grid)], split=0.0)
    # Gauss nodes lie strictly inside their piece, where theta is its A + B s
    weights = weights * theta_density(m, nodes, grid)
    total = np.zeros(pts.shape[0])
    for s, w in zip(nodes, weights):
        total += w * np.asarray(force(pts, s), dtype=float)
    return total.reshape(shape)


# ----------------------------------------------------------------------
# problem specification and trajectory
# ----------------------------------------------------------------------

@dataclass
class ProblemSpec:
    """Everything the evolution needs besides grid and space."""

    params: object                 # PLaplaceParams
    domain: str
    force: object                  # SeparableForce or callable f(pts, t)
    initial: object = None         # callable u0(pts), L2-projected; None: zero
    boundary: object = None        # callable u(pts, t), J_m-averaged; None: zero
    force_mode: str = "theta_average"


@dataclass(frozen=True)
class NewtonReport:
    iterations: int
    final_residual_norm: float
    energy_values: tuple
    converged: bool
    # iterations that solved for the lagged-coefficient (Kacanov) direction,
    # and moves, along either direction, accepted on residual decrease alone
    kacanov_iterations: int = 0
    endgame_iterations: int = 0
    start: str = "previous"  # "previous" | "linear" | "quadratic" initial guess
    stalled: bool = False    # ended by endgame moves that stopped halving the residual

    @property
    def fallback_used(self):
        return self.kacanov_iterations > 0


@dataclass
class Trajectory:
    space: object
    grid: TimeGrid
    snapshots: list = field(default_factory=list)
    newton_reports: list = field(default_factory=list)

    def dump(self, directory):
        """Per-snapshot coefficient dumps plus a manifest of step diagnostics;
        snapshots of an earlier dump into the same directory are removed."""
        import glob
        import os

        os.makedirs(directory, exist_ok=True)
        for stale in glob.glob(os.path.join(glob.escape(directory), "snapshot_*.txt")):
            os.remove(stale)
        with open(os.path.join(directory, "trajectory.manifest"), "w") as mf:
            for m, snap in enumerate(self.snapshots):
                fname = f"snapshot_{m:05d}.txt"
                with open(os.path.join(directory, fname), "w") as fh:
                    snap.dump(fh)
                if m == 0:
                    mf.write(f"0 {float(self.grid.t(0))!r} 0 0.0\n")
                else:
                    rep = self.newton_reports[m - 1]
                    mf.write(f"{m} {float(self.grid.t(m))!r} {rep.iterations} "
                             f"{float(rep.final_residual_norm)!r}\n")


# ----------------------------------------------------------------------
# the per-step solve
# ----------------------------------------------------------------------

def _armijo(space, u, u_prev_fn, tau, f_quad, params, delta, slope, energy):
    """Line search on the step energy; returns (new_coeffs, new_energy) or None.

    Armijo backtracking (factor 1/2, slope 1e-4, at most 40 halvings).  When
    the unit step already passes, the step is doubled while the energy keeps
    strictly decreasing: for p < 2 the regularized Jacobian overestimates the
    curvature near degenerate gradients and the Newton direction comes out
    orders of magnitude too short; the expansion recovers the scale while
    keeping the energy sequence monotone.
    """

    def energy_at(s):
        trial = u + s * delta
        return trial, assembly.step_energy(space, FeFunction(space, trial),
                                           u_prev_fn, tau, f_quad, params)

    trial, e_trial = energy_at(1.0)
    if e_trial <= energy + ARMIJO_SLOPE * slope:
        best, best_e, s = trial, e_trial, 2.0
        for _ in range(ARMIJO_MAX_HALVINGS):
            cand, e_cand = energy_at(s)
            if e_cand < best_e and e_cand <= energy + ARMIJO_SLOPE * s * slope:
                best, best_e, s = cand, e_cand, 2.0 * s
            else:
                break
        return best, best_e

    s = 0.5
    for _ in range(ARMIJO_MAX_HALVINGS):
        trial, e_trial = energy_at(s)
        if e_trial <= energy + ARMIJO_SLOPE * s * slope:
            return trial, e_trial
        s *= 0.5
    return None


def kacanov_matrix(space, u_coeffs, tau, params, clamp=None):
    """M/tau + lagged-coefficient stiffness (kappa + |grad u|)^(p-2), unpinned;
    the coefficient lives on the gradient rule, like the step Jacobian's DS.

    The lagged magnitude is clamped from below to keep the coefficient range
    bounded; the default clamp scales with the current gradient field so the
    iteration remains effective down to arbitrarily small (extinction-stage)
    states.
    """
    grad = space.grad_at(assembly.grad_rule(space), u_coeffs)
    mag = magnitude(grad)
    if clamp is None:
        clamp = max(1e-4 * float(mag.max()), KACANOV_CLAMP)
    a = params.kappa + np.maximum(mag, clamp)
    coeff = a ** (params.p - 2.0)
    mat = (assembly.assemble_mass(space, assembly.step_rule(space)) / tau
           + assembly.assemble_stiffness(space, coeff=coeff))
    return mat.tocsr()


def _energy_resolution(energy):
    """Energy differences below this are floating-point noise."""
    return 128.0 * np.finfo(float).eps * (1.0 + abs(energy))


def step(space, u_prev, m, grid, spec, tol=DEFAULT_TOL, bc_values=None, f_quad=None,
         history=()):
    """One implicit Euler step: returns (u_m, NewtonReport).

    `history` holds the snapshots before u_prev, newest first; for p != 2
    their extrapolations with u_prev are candidate starts, and the solve
    starts from the lowest-energy candidate.  Convergence when the Euclidean
    residual norm drops below tol * (1 + ||rhs||) with rhs the step load vector.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    params = spec.params
    tau = grid.tau
    rule = assembly.step_rule(space)
    if f_quad is None:
        f_quad = average_force(spec.force, m, grid, space, spec.force_mode)

    bdofs = space.boundary_dofs
    g = np.zeros(bdofs.shape[0]) if bc_values is None else np.asarray(bc_values, float)

    rhs = assembly.assemble_load(space, f_quad + space.eval_at(rule, u_prev.coeffs) / tau,
                                 rule)
    rhs[bdofs] = g
    scale = 1.0 + np.linalg.norm(rhs)

    u = u_prev.coeffs.copy()
    u[bdofs] = g
    energy = assembly.step_energy(space, FeFunction(space, u), u_prev, tau, f_quad, params)
    start = "previous"

    # Extrapolated starts (nonlinear case; the p = 2 step is one Newton step
    # from anywhere): each is kept only if it lowers the step energy by more
    # than its resolution.  In a quasi-steady regime the candidates tie with
    # u_(m-1) up to roundoff, and a start picked by noise can cost an iteration.
    if params.p != 2.0:
        snaps = [u_prev.coeffs] + [h.coeffs for h in history]
        for name, weights in EXTRAPOLATIONS:
            if len(weights) > len(snaps):
                break
            cand = sum(w * c for w, c in zip(weights, snaps))
            cand[bdofs] = g
            e_cand = assembly.step_energy(space, FeFunction(space, cand), u_prev, tau,
                                          f_quad, params)
            if e_cand < energy - _energy_resolution(energy):
                u, energy, start = cand, e_cand, name

    # Degenerate warm start (zero gradient field, nonlinear case): try one
    # linear-diffusion solve; kept only if it lowers the step energy.
    if params.p != 2.0 and np.max(np.abs(space.grad_at(assembly.grad_rule(space), u))) == 0.0:
        lin = assembly.assemble_mass(space, rule) / tau + assembly.assemble_stiffness(space)
        lin, b = assembly.apply_dirichlet(lin.tocsr(), rhs.copy(), bdofs, g)
        cand, _ = assembly.solve_spd(lin, b)
        e_cand = assembly.step_energy(space, FeFunction(space, cand), u_prev, tau,
                                      f_quad, params)
        if e_cand < energy:
            u, energy = cand, e_cand

    energies = [energy]
    use_fallback = False
    dead_ends = 0
    kacanov_iterations = endgame_iterations = 0
    creeping = 0  # endgame moves in a row that did not halve the residual
    residual = None  # residual at u; assembled again only after u moves
    rnorm = np.inf

    def report(iterations, converged, stalled=False):
        return NewtonReport(iterations=iterations, final_residual_norm=rnorm,
                            energy_values=tuple(energies), converged=converged,
                            kacanov_iterations=kacanov_iterations,
                            endgame_iterations=endgame_iterations, start=start,
                            stalled=stalled)

    for it in range(1, MAX_COMBINED_ITERATIONS + 1):
        if residual is None:
            residual = assembly.assemble_step_residual(space, FeFunction(space, u), u_prev,
                                                       tau, f_quad, params, bc_values=g)
        rnorm = float(np.linalg.norm(residual))
        if rnorm <= tol * scale:
            return FeFunction(space, u), report(it - 1, True)
        if not np.isfinite(rnorm):
            raise NonConvergence(report(it - 1, False), m=m)
        if creeping >= ENDGAME_STALL_MOVES:
            raise NonConvergence(report(it - 1, False, stalled=True), m=m)

        if use_fallback:
            kacanov_iterations += 1
            mat = kacanov_matrix(space, u, tau, params)
            A, b = assembly.apply_dirichlet(mat, rhs.copy(), bdofs, g)
            target, _ = assembly.solve_spd(A, b)
            delta = target - u
        else:
            jac = assembly.assemble_step_jacobian(space, FeFunction(space, u), tau, params)
            delta, _ = assembly.solve_spd(jac, -residual)

        slope = float(residual @ delta)

        # Endgame: once the predicted energy decrease is below the energy's
        # floating-point resolution the Armijo test is blind; accept steps on
        # residual decrease instead (Newton is locally contractive there):
        # the first candidate of the halving sequence that lowers the
        # residual norm, whose residual the next iteration starts from.
        # Moves that lower it by less than ENDGAME_PROGRESS are creeping.
        if abs(slope) < _energy_resolution(energies[-1]):
            s = 1.0
            for _ in range(ENDGAME_HALVINGS):
                trial = u + s * delta
                r_trial = assembly.assemble_step_residual(
                    space, FeFunction(space, trial), u_prev, tau, f_quad, params,
                    bc_values=g)
                r_trial_norm = float(np.linalg.norm(r_trial))
                if r_trial_norm < rnorm:
                    creeping = creeping + 1 if r_trial_norm > ENDGAME_PROGRESS * rnorm else 0
                    u, residual = trial, r_trial
                    energies.append(energies[-1])
                    endgame_iterations += 1
                    dead_ends = 0
                    break
                s *= 0.5
            else:
                dead_ends += 1
                if dead_ends >= 2:
                    break
                use_fallback = not use_fallback
            continue

        accepted = _armijo(space, u, u_prev, tau, f_quad, params, delta, slope, energies[-1])
        if accepted is None:
            dead_ends += 1
            if dead_ends >= 2:
                break  # both directions exhausted from this state: give up
            use_fallback = not use_fallback
            continue
        dead_ends = creeping = 0
        u, energy = accepted
        residual = None
        # For p < 2, toggle between Newton and the lagged-coefficient
        # direction whenever the achieved decrease collapses against the
        # linear model: Newton crawls near degenerate gradients while Kacanov
        # (monotone for p <= 2) grinds on; alternating rides whichever still
        # makes progress.  For p >= 2 Kacanov is not a contraction and Newton
        # with the line search is globally sound, so it stays in charge and
        # the fallback only serves line-search dead ends.
        ratio = (energy - energies[-1]) / slope if slope < 0.0 else 0.0
        energies.append(energy)
        if params.p < 2.0:
            stall = STALL_RATIO_KACANOV if use_fallback else STALL_RATIO_NEWTON
            if ratio < stall:
                use_fallback = not use_fallback
        elif use_fallback:
            use_fallback = False

    raise NonConvergence(report(it, False), m=m)


def solve_evolution(spec, level, degree, grid, tol=DEFAULT_TOL, space=None):
    """Run the implicit Euler scheme; returns the Trajectory.

    The initial snapshot is the L2-projection of the initial datum or zero,
    with the first step's Dirichlet data on the boundary DOFs; each later
    snapshot solves the discrete weak form to the Newton tolerance.
    """
    if space is None:
        space = build_space(refine_to_level(spec.domain, level), degree)

    boundary = build_boundary_data(space, grid, spec.boundary)
    u0 = np.zeros(space.ndof) if spec.initial is None else l2_project(space, spec.initial).coeffs
    u0[space.boundary_dofs] = boundary[0]

    traj = Trajectory(space=space, grid=grid, snapshots=[FeFunction(space, u0)],
                      newton_reports=[])
    for m in range(1, grid.M + 1):
        u, rep = step(space, traj.snapshots[-1], m, grid, spec, tol=tol,
                      bc_values=boundary[m - 1], history=traj.snapshots[-3:-1][::-1])
        traj.snapshots.append(u)
        traj.newton_reports.append(rep)
    return traj
