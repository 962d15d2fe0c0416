"""Implicit Euler evolution for the p-Laplace system.

Each step minimizes the strictly convex energy

    E_m(v) = 1/(2 tau) ||v - u_prev||_L2^2 + int phi(|grad v|) dx - int f_m v dx

over the affine set matching the Dirichlet data.  For p != 2 the solve starts
from the lowest-energy one of u_(m-1) and its linear and quadratic
extrapolations 2u_(m-1) - u_(m-2) and 3u_(m-1) - 3u_(m-2) + u_(m-3) (boundary
DOFs set to the step's Dirichlet data; an extrapolation must win by more than
the energy's floating-point resolution), so no step starts from a higher
energy than u_(m-1); a zero gradient field also tries one linear-diffusion
solve.

The solve is one move loop.  Each iteration picks a direction: Newton; one
lagged-coefficient (Kacanov) solve after a p < 2 Newton move that stalled
(achieved energy decrease below STALL_RATIO of the predicted one); or a chord
along the row's held step-Jacobian factorization, made at an earlier iterate,
once the slope along it is predicted below the energy's resolution.  The move
is an Armijo line search on E(u + s delta) - E(u), computed without
cancellation (`assembly.step_energy_line`), or a chord move that halves the
residual norm.  None found is a dead end, which switches direction; two in a
row end the step.  A step converges below tol * (1 + ||rhs||) or at the
residual's roundoff floor.

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
# a chord move is kept when it cuts the residual norm by this factor
CHORD_PROGRESS = 0.5
# candidate starts of a step: weights on (u_(m-1), u_(m-2), u_(m-3))
EXTRAPOLATIONS = (("linear", (2.0, -1.0)), ("quadratic", (3.0, -3.0, 1.0)))
KACANOV_CLAMP = 1e-12
# a p < 2 Newton move whose achieved/predicted energy decrease falls below
# this has stalled, and one lagged-coefficient (Kacanov) move follows it
STALL_RATIO = 0.1


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

    def window_subintervals(self, m):
        """The I-subintervals composing J_m = [t_(m-1), t_(m+1)], truncated to
        the grid at m = M."""
        if not 1 <= m <= self.M:
            raise ValueError(f"step index {m} outside 1..{self.M}")
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
    # iterations that solved for the lagged-coefficient (Kacanov) direction
    kacanov_iterations: int = 0
    start: str = "previous"  # "previous" | "linear" | "quadratic" initial guess
    # fresh Jacobian factorizations (a p = 2 row makes its one on its first
    # step); chord moves along an earlier one
    factorizations: int = 0
    reused_moves: int = 0
    at_floor: bool = False  # converged at the residual's roundoff floor, above tol

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

def _armijo(change, u, delta, slope):
    """Armijo backtracking (factor 1/2, slope 1e-4, at most 40 halvings) on
    change(s) = E(u + s delta) - E(u); returns (new_coeffs, change) or None.
    A direction with slope >= 0 is a dead end.  When the unit step passes, the
    step is doubled while the change keeps strictly decreasing: for p < 2 the
    regularized Jacobian overestimates the curvature near degenerate gradients
    and the Newton direction comes out orders of magnitude too short; the
    expansion recovers the scale while keeping the energy sequence monotone.
    """
    if not slope < 0.0:
        return None
    s, best = 1.0, change(1.0)
    if best <= ARMIJO_SLOPE * slope:
        for k in range(1, ARMIJO_MAX_HALVINGS + 1):
            c = change(2.0 ** k)
            if not (c < best and c <= ARMIJO_SLOPE * 2.0 ** k * slope):
                break
            s, best = 2.0 ** k, c
        return u + s * delta, best
    for k in range(1, ARMIJO_MAX_HALVINGS + 1):
        c = change(0.5 ** k)
        if c <= ARMIJO_SLOPE * 0.5 ** k * slope:
            return u + 0.5 ** k * delta, c
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
         history=(), factored=None):
    """One implicit Euler step: returns (u_m, NewtonReport).

    `history` holds the snapshots before u_prev, newest first; for p != 2
    their extrapolations with u_prev are candidate starts, and the solve
    starts from the lowest-energy candidate.  `factored` is the list a row
    carries from step to step (None: the step's own): empty, or [pinned step
    Jacobian, its `assembly.factor_spd` factorization, |r . delta| / |r|^2
    of its last solve].  At p = 2 the Jacobian holds at every state: the
    row's first step makes it and every Newton solve uses it; for p != 2
    each fresh factorization replaces it, the old one released first.
    Convergence when the Euclidean residual norm drops below
    tol * (1 + ||rhs||) with rhs the step load vector, or, with a held
    factorization J, below eps * ||abs(J) abs(u)|| (`NewtonReport.at_floor`).
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    params = spec.params
    exact = params.p == 2.0  # DS is the identity: the step Jacobian is one matrix
    factored = [] if factored is None else factored
    tau = grid.tau
    rule = assembly.step_rule(space)
    if f_quad is None:
        f_quad = average_force(spec.force, m, grid, space, spec.force_mode)
    bdofs = space.boundary_dofs
    g = np.zeros(bdofs.shape[0]) if bc_values is None else np.asarray(bc_values, float)
    rhs = assembly.assemble_load(space, f_quad + space.eval_at(rule, u_prev.coeffs) / tau, rule)
    rhs[bdofs] = g
    scale = 1.0 + np.linalg.norm(rhs)

    def energy_at(v):
        return assembly.step_energy(space, FeFunction(space, v), u_prev, tau, f_quad, params)

    def change_along(v, delta):
        return assembly.step_energy_line(space, FeFunction(space, v), FeFunction(space, delta),
                                         u_prev, tau, f_quad, params)

    def residual_at(v):
        return assembly.assemble_step_residual(space, FeFunction(space, v), u_prev, tau,
                                               f_quad, params, bc_values=g)

    def frozen_solve(mat):  # solve with a frozen-coefficient step matrix
        A, b = assembly.apply_dirichlet(mat, rhs.copy(), bdofs, g)
        factored.clear()  # one factorization alive per row
        return assembly.solve_spd(A, b)[0]

    def held_direction():  # Newton solve along the held factorization
        delta, _ = assembly.solve_spd(factored[0], -residual, lu=factored[1])
        factored[2] = abs(float(residual @ delta)) / rnorm ** 2
        return delta

    u = u_prev.coeffs.copy()
    u[bdofs] = g
    energy, start = energy_at(u), "previous"

    # Candidate starts (nonlinear case; the p = 2 step is one Newton step from
    # anywhere).  An extrapolation is kept only if it lowers the step energy
    # by more than its resolution: in a quasi-steady regime the candidates tie
    # with u_(m-1) up to roundoff, and a start picked by noise can cost an
    # iteration.  A zero gradient field tries one linear-diffusion solve, kept
    # only if it lowers the step energy.
    if not exact:
        snaps = [u_prev.coeffs] + [h.coeffs for h in history]
        for name, weights in EXTRAPOLATIONS:
            if len(weights) > len(snaps):
                break
            cand = sum(w * c for w, c in zip(weights, snaps))
            cand[bdofs] = g
            e_cand = energy_at(cand)
            if e_cand < energy - _energy_resolution(energy):
                u, energy, start = cand, e_cand, name
        if np.max(np.abs(space.grad_at(assembly.grad_rule(space), u))) == 0.0:
            cand = frozen_solve((assembly.assemble_mass(space, rule) / tau
                                 + assembly.assemble_stiffness(space)).tocsr())
            e_cand = energy_at(cand)
            if e_cand < energy:
                u, energy = cand, e_cand

    energies = [energy]
    use_fallback = False
    kacanov_iterations = factorizations = reused_moves = dead_ends = 0
    residual = None  # residual at u; assembled again only after u moves

    def report(iterations, converged, at_floor=False):
        return NewtonReport(iterations=iterations, final_residual_norm=rnorm,
                            energy_values=tuple(energies), converged=converged,
                            kacanov_iterations=kacanov_iterations, start=start,
                            factorizations=factorizations, reused_moves=reused_moves,
                            at_floor=at_floor)

    # Each iteration picks a direction (Kacanov, chord or Newton) and a move along
    # it: (coefficients, energy change), plus the residual for a chord move, or
    # None, a dead end.
    for it in range(1, MAX_COMBINED_ITERATIONS + 1):
        if residual is None:
            residual = residual_at(u)
        rnorm = float(np.linalg.norm(residual))
        if rnorm <= tol * scale:
            return FeFunction(space, u), report(it - 1, True)
        if factored and rnorm <= np.finfo(float).eps * np.linalg.norm(
                abs(factored[0]) @ np.abs(u)):  # the roundoff of J u, J held
            return FeFunction(space, u), report(it - 1, True, at_floor=True)
        if not np.isfinite(rnorm):
            raise NonConvergence(report(it - 1, False), m=m)

        move = None
        if use_fallback:
            kacanov_iterations += 1
            delta = frozen_solve(kacanov_matrix(space, u, tau, params)) - u
        else:
            # Chord move: the held factor's last |r . delta| / |r|^2 predicts the
            # slope along it; one predicted and found below the energy's resolution
            # keeps the move if the residual norm at least halves, else factor anew.
            resolution = _energy_resolution(energies[-1])
            if factored and not exact and factored[2] * rnorm ** 2 < resolution:
                delta = held_direction()
                if abs(float(residual @ delta)) < resolution:
                    trial = u + delta
                    r_trial = residual_at(trial)
                    if np.linalg.norm(r_trial) <= CHORD_PROGRESS * rnorm:
                        move = trial, 0.0, r_trial
                        reused_moves += 1
            if move is None and not (factored and exact):
                factored.clear()  # released before the next factor is made
                jac = assembly.assemble_step_jacobian(space, FeFunction(space, u), tau, params)
                if space.ndof <= assembly.DIRECT_SOLVE_LIMIT:
                    factored[:] = jac, assembly.factor_spd(jac), np.inf
                    factorizations += 1
            if move is None:
                delta = held_direction() if factored else assembly.solve_spd(jac, -residual)[0]

        if move is None:
            slope = float(residual @ delta)
            move = _armijo(change_along(u, delta), u, delta, slope)

        if move is None:  # a dead end switches direction; two in a row end the step
            dead_ends += 1
            if dead_ends >= 2:
                break
            use_fallback = not use_fallback
            continue
        u, change, *moved = move
        dead_ends = 0
        residual = moved[0] if moved else None
        # For p < 2 the Newton direction crawls near degenerate gradients: a
        # Newton move whose achieved decrease collapses against the linear model
        # is followed by one Kacanov move (monotone for p <= 2).  For p >= 2
        # Kacanov is not a contraction and only serves dead ends.  A chord move
        # hands the next move to Newton.
        use_fallback = (params.p < 2.0 and not moved and not use_fallback
                        and change / slope < STALL_RATIO)
        energies.append(energies[-1] + change)

    raise NonConvergence(report(it, False), m=m)


def solve_evolution(spec, level, degree, grid, tol=DEFAULT_TOL, space=None):
    """Run the implicit Euler scheme; returns the Trajectory.

    The initial snapshot is the L2-projection of the initial datum or zero,
    with the first step's Dirichlet data on the boundary DOFs; each later
    snapshot solves the discrete weak form to the Newton tolerance.  The
    steps share one factored step Jacobian (see `step`); at p = 2 it is made
    on the first step and serves every later one.
    """
    if space is None:
        space = build_space(refine_to_level(spec.domain, level), degree)

    boundary = build_boundary_data(space, grid, spec.boundary)
    u0 = np.zeros(space.ndof) if spec.initial is None else l2_project(space, spec.initial).coeffs
    u0[space.boundary_dofs] = boundary[0]

    traj = Trajectory(space=space, grid=grid, snapshots=[FeFunction(space, u0)],
                      newton_reports=[])
    factored = []
    for m in range(1, grid.M + 1):
        u, rep = step(space, traj.snapshots[-1], m, grid, spec, tol=tol,
                      bc_values=boundary[m - 1], history=traj.snapshots[-3:-1][::-1],
                      factored=factored)
        traj.snapshots.append(u)
        traj.newton_reports.append(rep)
    return traj
