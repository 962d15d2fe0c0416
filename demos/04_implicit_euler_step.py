"""One implicit Euler step under the hood: energy decrease, Newton counts,
and the theta-weighted force averaging.

Run:  python demos/04_implicit_euler_step.py
"""

import numpy as np

from pheat import (ConstantForce, PLaplaceParams, ProblemSpec, TimeGrid, build_space,
                   refine_to_level, solve_evolution, theta_density)
from pheat.timestepper import theta_average_power

grid = TimeGrid(-0.1, 0.1, 8)
tau = grid.tau
print(f"grid: t in (-0.1, 0.1), M = 8, tau = {tau}")
print("theta_4 weight sampled across its support (plateau = 1/(2 tau)):")
sigmas = np.linspace(grid.t(2) - tau, grid.t(5) + tau, 9)
print("  ", " ".join(f"{theta_density(4, s, grid):6.2f}" for s in sigmas))

print("\ntheta-averaged singular force sgn(t)|t|^(-1/2) per step (exact antiderivatives):")
vals = [theta_average_power(m, grid, -0.5, signed=True) for m in range(1, 9)]
print("  ", " ".join(f"{v:+8.3f}" for v in vals))

print("\np-heat evolution with f = 2 on the slit domain, p = 1.5:")
spec = ProblemSpec(params=PLaplaceParams(p=1.5, kappa=0.0), domain="slit",
                   force=ConstantForce(2.0))
space = build_space(refine_to_level("slit", 2), 1)
traj = solve_evolution(spec, space, TimeGrid(0.0, 1.0, 8))
for m, rep in enumerate(traj.newton_reports, start=1):
    drop = rep.energy_values[0] - rep.energy_values[-1]
    print(f"  step {m}: {rep.iterations:2d} Newton iterations, "
          f"residual {rep.final_residual_norm:.1e}, energy drop {drop:.3e}, "
          f"fallback: {rep.fallback_used}")
umax = np.abs(traj.snapshots[-1].coeffs).max()
print(f"  final max |u| = {umax:.4f}")
