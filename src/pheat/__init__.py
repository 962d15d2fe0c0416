"""Finite elements for the 2D parabolic p-Laplace system.

Implicit Euler in time, Lagrange elements in space, quasi-norm (V-function)
error measures, and a harness that runs the convergence studies without any
coupling between the mesh size h and the time step tau.
"""

from .mesh import (Mesh, MeshQuality, PointOutsideDomain, make_initial_mesh,
                   refine_uniform, refine_to_level, mesh_quality, locate_point)
from .constitutive import (PLaplaceParams, SingularJacobian, DegenerateInput,
                           s_flux, v_transform, ds_jacobian, ds_split, phi, phi_prime,
                           phi_second, phi_shifted, equivalence_ratios)
from .fespace import (FeSpace, FeFunction, QuadratureRule, UnsupportedDegree,
                      build_space, quadrature, prolongation, eval_function,
                      eval_gradient)
from .assembly import (LinearSolveReport, SpaceMismatch, MaxIterations,
                       assemble_mass, assemble_load, assemble_stiffness,
                       assemble_step_residual, assemble_step_jacobian,
                       step_energy, solve_spd)
from .projection import (NonFiniteValue, l2_project, nodal_interpolate,
                         averaged_boundary_values, verify_l2_decay, verify_v_stability)
from .timestepper import (TimeGrid, ProblemSpec, Trajectory, NewtonReport,
                          NonConvergence, NonIntegrableForce, ConstantForce,
                          PowerTimeForce, SeparableForce,
                          theta_density, theta_pieces, average_force,
                          step, solve_evolution)
from .error_metrics import (ErrorReport, ExactSolution, IncompatibleHierarchy,
                            InsufficientData,
                            compute_error_report, v_error_breakdown,
                            empirical_order, write_csv, write_manifest)
from .experiments import (ExperimentConfig, ConfigError, parse_config,
                          run_experiment)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
