"""Implicit Euler evolution for the p-Laplace system.

Each step minimizes the strictly convex energy

    E_m(v) = 1/(2 tau) ||v - u_prev||_L2^2 + int phi(|grad v|) dx - int f_m v dx

over the affine set matching the Dirichlet data, via Newton directions with
Armijo backtracking; if Newton stalls, a lagged-coefficient (Kacanov) step is
taken (with the same energy safeguard) before Newton resumes.

The discrete forces f_m are theta-weighted time averages.  The weights are
the piecewise linear densities obtained by averaging the running tau-mean of
the equation over the window J_m = [t_(m-1), t_(m+1)]; the last window is
truncated to [t_(M-1), t_M] and its weight renormalized to mass one.  Grids
may start at t0 != 0; all weight formulas act in grid-local coordinates.
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
        super().__init__(f"step {m}: no convergence after {report.iterations} iterations, "
                         f"residual {report.final_residual_norm:.3e}")
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
    """Exact theta_m-average of t -> sgn(t)^signed |t|^gamma (gamma > -1)."""
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

@dataclass(frozen=True)
class ConstantForce:
    value: float


@dataclass(frozen=True)
class PowerTimeForce:
    """f(t) = sgn(t) |t|^(-beta), spatially constant; needs beta < 1."""

    beta: float

    def __post_init__(self):
        if self.beta >= 1.0:
            raise NonIntegrableForce(f"beta must be < 1, got {self.beta}")


@dataclass(frozen=True)
class SeparableForce:
    """Sum of terms c_i(x) sgn(t)^(s_i) |t|^(gamma_i); time factors integrate exactly."""

    terms: tuple  # of (spatial callable on (n,2) points, gamma, signed)

    def __call__(self, pts, t):
        total = np.zeros(pts.shape[0])
        for c, gamma, signed in self.terms:
            tf = abs(t) ** gamma if t != 0.0 else (0.0 if gamma > 0 else np.inf)
            if signed:
                tf *= np.sign(t)
            total += np.asarray(c(pts), dtype=float) * tf
        return total


@dataclass(frozen=True)
class CallableForce:
    fn: object  # callable (pts (n,2), t) -> (n,)

    def __call__(self, pts, t):
        return np.asarray(self.fn(pts, t), dtype=float)


def average_force(force, m, grid, space, force_mode="theta_average", rule=None):
    """Discrete force f_m at the step quadrature points, shape (nt, nq).

    theta_average mode returns <f>_theta_m (mass-one window weights); constant
    and pure power-law time profiles are integrated analytically, generic
    space-time callables by 5-point Gauss per theta piece split at t = 0.
    point_value mode returns f(t_m).
    """
    rule = rule or assembly.step_rule(space)
    shape = (space.mesh.num_triangles, rule.num_points)

    if isinstance(force, ConstantForce):
        return np.full(shape, force.value)

    if force_mode == "point_value":
        tm = grid.t(m)
        if isinstance(force, PowerTimeForce):
            # the force is odd in t, so its value at the singularity is sgn(0) = 0
            return np.full(shape, np.sign(tm) * abs(tm) ** (-force.beta) if tm else 0.0)
        pts = space.physical_points(rule).reshape(-1, 2)
        return force(pts, tm).reshape(shape)

    if isinstance(force, PowerTimeForce):
        val = theta_average_power(m, grid, -force.beta, signed=True)
        return np.full(shape, val)

    pts = space.physical_points(rule).reshape(-1, 2)
    if isinstance(force, SeparableForce):
        total = np.zeros(pts.shape[0])
        for c, gamma, signed in force.terms:
            tf = theta_average_power(m, grid, gamma, signed)
            total += np.asarray(c(pts), dtype=float) * tf
        return total.reshape(shape)

    nodes, weights = gauss_segments([piece[:2] for piece in theta_pieces(m, grid)], split=0.0)
    # Gauss nodes lie strictly inside their piece, where theta is its A + B s
    weights = weights * theta_density(m, nodes, grid)
    total = np.zeros(pts.shape[0])
    for s, w in zip(nodes, weights):
        total += w * force(pts, s)
    return total.reshape(shape)


# ----------------------------------------------------------------------
# problem specification and trajectory
# ----------------------------------------------------------------------

@dataclass
class ProblemSpec:
    """Everything the evolution needs besides grid and space."""

    params: object                 # PLaplaceParams
    domain: str
    force: object
    initial: object = "zero"       # "zero" | "exact_at_t0" | callable u0(pts)
    boundary_mode: str = "homogeneous"
    force_mode: str = "theta_average"
    exact_solution: object = None  # callable u(pts, t), for boundary/initial data


@dataclass(frozen=True)
class NewtonReport:
    iterations: int
    final_residual_norm: float
    energy_values: tuple
    fallback_used: bool
    converged: bool


@dataclass
class Trajectory:
    space: object
    grid: TimeGrid
    snapshots: list = field(default_factory=list)
    newton_reports: list = field(default_factory=list)

    def dump(self, directory):
        """Per-snapshot coefficient dumps plus a manifest of step diagnostics."""
        import os

        os.makedirs(directory, exist_ok=True)
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
    """M/tau + lagged-coefficient stiffness (kappa + |grad u|)^(p-2), unpinned.

    The lagged magnitude is clamped from below to keep the coefficient range
    bounded; the default clamp scales with the current gradient field so the
    iteration remains effective down to arbitrarily small (extinction-stage)
    states.
    """
    rule = assembly.step_rule(space)
    grad = space.grad_at(rule, u_coeffs)
    mag = magnitude(grad)
    if clamp is None:
        clamp = max(1e-4 * float(mag.max()), KACANOV_CLAMP)
    a = params.kappa + np.maximum(mag, clamp)
    coeff = a ** (params.p - 2.0)
    mat = assembly.assemble_mass(space, rule) / tau + assembly.assemble_stiffness(
        space, coeff=coeff, rule=rule)
    return mat.tocsr()


def step(space, u_prev, m, grid, spec, tol=DEFAULT_TOL, bc_values=None, f_quad=None):
    """One implicit Euler step: returns (u_m, NewtonReport).

    Convergence when the Euclidean residual norm drops below
    tol * (1 + ||rhs||) with rhs the step load vector.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    params = spec.params
    tau = grid.tau
    rule = assembly.step_rule(space)
    if f_quad is None:
        f_quad = average_force(spec.force, m, grid, space, spec.force_mode, rule)

    bdofs = space.boundary_dofs
    g = np.zeros(bdofs.shape[0]) if bc_values is None else np.asarray(bc_values, float)

    rhs = assembly.assemble_load(space, f_quad + space.eval_at(rule, u_prev.coeffs) / tau,
                                 rule)
    rhs[bdofs] = g
    scale = 1.0 + np.linalg.norm(rhs)

    u = u_prev.coeffs.copy()
    u[bdofs] = g
    energy = assembly.step_energy(space, FeFunction(space, u), u_prev, tau, f_quad, params)

    # Degenerate warm start (zero gradient field, nonlinear case): try one
    # linear-diffusion solve; kept only if it lowers the step energy.
    if params.p != 2.0 and np.max(np.abs(space.grad_at(rule, u))) == 0.0:
        lin = assembly.assemble_mass(space, rule) / tau + assembly.assemble_stiffness(
            space, rule=rule)
        lin, b = assembly.apply_dirichlet(lin.tocsr(), rhs.copy(), bdofs, g)
        cand, _ = assembly.solve_spd(lin, b)
        e_cand = assembly.step_energy(space, FeFunction(space, cand), u_prev, tau,
                                      f_quad, params)
        if e_cand < energy:
            u, energy = cand, e_cand

    energies = [energy]
    fallback_used = False
    use_fallback = False
    dead_ends = 0
    rnorm = np.inf

    for it in range(1, MAX_COMBINED_ITERATIONS + 1):
        residual = assembly.assemble_step_residual(space, FeFunction(space, u), u_prev,
                                                   tau, f_quad, params, bc_values=g)
        rnorm = float(np.linalg.norm(residual))
        if rnorm <= tol * scale:
            return FeFunction(space, u), NewtonReport(
                iterations=it - 1, final_residual_norm=rnorm,
                energy_values=tuple(energies), fallback_used=fallback_used,
                converged=True)

        if use_fallback:
            fallback_used = True
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
        # residual decrease instead (Newton is locally contractive there) and
        # take the best candidate along the halving sequence.
        if abs(slope) < 128.0 * np.finfo(float).eps * (1.0 + abs(energies[-1])):
            s = 1.0
            best_s, best_rn = None, rnorm
            for _ in range(10):
                trial = u + s * delta
                r_trial = assembly.assemble_step_residual(
                    space, FeFunction(space, trial), u_prev, tau, f_quad, params,
                    bc_values=g)
                rn_trial = float(np.linalg.norm(r_trial))
                if rn_trial < best_rn:
                    best_s, best_rn = s, rn_trial
                s *= 0.5
            if best_s is not None:
                u = u + best_s * delta
                energies.append(energies[-1])
                dead_ends = 0
                continue
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
        dead_ends = 0
        u, energy = accepted
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

    report = NewtonReport(iterations=MAX_COMBINED_ITERATIONS,
                          final_residual_norm=rnorm, energy_values=tuple(energies),
                          fallback_used=fallback_used, converged=False)
    raise NonConvergence(report, m=m)


def solve_evolution(spec, level, degree, grid, tol=DEFAULT_TOL, space=None):
    """Run the implicit Euler scheme; returns the Trajectory.

    The initial snapshot is the L2-projection of the initial datum (boundary
    DOFs overwritten with the first step's Dirichlet data); each subsequent
    snapshot solves the discrete weak form to the Newton tolerance.
    """
    if space is None:
        space = build_space(refine_to_level(spec.domain, level), degree)

    bdata = build_boundary_data(space, grid, spec.boundary_mode, spec.exact_solution)

    if spec.initial == "zero":
        u0 = np.zeros(space.ndof)
    else:
        if spec.initial == "exact_at_t0":
            if spec.exact_solution is None:
                raise ValueError("exact_at_t0 initial data needs exact_solution")
            g0 = lambda pts: spec.exact_solution(pts, grid.t0)
        else:
            g0 = spec.initial
        u0 = l2_project(space, g0).coeffs
    u0[space.boundary_dofs] = bdata.step_values(1)

    traj = Trajectory(space=space, grid=grid, snapshots=[FeFunction(space, u0)],
                      newton_reports=[])
    for m in range(1, grid.M + 1):
        u, rep = step(space, traj.snapshots[-1], m, grid, spec, tol=tol,
                      bc_values=bdata.step_values(m))
        traj.snapshots.append(u)
        traj.newton_reports.append(rep)
    return traj
