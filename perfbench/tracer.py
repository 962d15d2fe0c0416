"""Spans and counts recorded around pheat's public functions, from outside.

Each traced function is replaced, at the attribute where its caller looks it
up, by a wrapper that records one span: name, start, end, the enclosing span
and a few attributes read from the arguments or the return value.  Spans stay
in memory and are written out once, when the study ends.  The program itself
is not modified, so an untraced study runs exactly the code users run.

`summarize` turns the spans of one study into the per-layer metrics that
BENCHMARK.json names, plus per-call kernel times grouped by problem size.
"""

import functools
import json
import time
from collections import defaultdict

STEP = "timestepper.step"

# kernels whose per-call time is reported per problem size (span attr "ndof")
KERNELS = ("assembly.residual", "assembly.jacobian", "assembly.solve",
           "assembly.energy", "fespace.eval_at", "fespace.grad_at")


class Tracer:
    """Span recorder; `install` wraps the layers of an imported pheat."""

    def __init__(self):
        self.spans = []     # [name, start, end, parent index or -1, attrs or None]
        self._stack = []

    def wrap(self, owner, attr, name, attrs=None):
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span[4] = attrs(args, result)
            return result

        setattr(owner, attr, traced)

    def install(self):
        from pheat import assembly, error_metrics, experiments, fespace, timestepper

        def ndof(args, _):
            return {"ndof": args[0].ndof}

        def trajectory(_, traj):
            return {"level": traj.space.mesh.level, "degree": traj.space.degree,
                    "M": traj.grid.M}

        def step_report(args, result):
            rep = result[1]
            energies = rep.energy_values
            return {"ndof": args[0].ndof, "iterations": rep.iterations,
                    "fallback": rep.fallback_used,
                    "energy_monotone": all(b <= a for a, b in zip(energies, energies[1:]))}

        def jacobian(args, mat):
            return {"ndof": args[0].ndof, "nnz": int(mat.nnz)}

        def solve(args, result):
            return {"ndof": args[0].shape[0], "rel": result[1].relative_residual}

        w = self.wrap
        # experiments: the two kinds of evolution, and the error pass
        w(experiments, "solve_evolution", "experiments.solve_evolution", trajectory)
        w(experiments, "compute_error_report", "error_metrics.compute_error_report",
          lambda _, rep: {"M": rep.M})
        w(experiments, "build_space", "fespace.build_space")
        w(experiments, "refine_uniform", "mesh.refine_uniform")
        # timestepper, as solve_evolution and step call it
        w(timestepper, "step", STEP, step_report)
        w(timestepper, "average_force", "timestepper.average_force")
        w(timestepper, "kacanov_matrix", "timestepper.kacanov_matrix")
        w(timestepper, "build_boundary_data", "projection.build_boundary_data")
        w(timestepper, "l2_project", "projection.l2_project")
        # assembly, looked up as `assembly.<name>` by timestepper and projection
        w(assembly, "assemble_step_residual", "assembly.residual", ndof)
        w(assembly, "assemble_step_jacobian", "assembly.jacobian", jacobian)
        w(assembly, "solve_spd", "assembly.solve", solve)
        w(assembly, "step_energy", "assembly.energy", ndof)
        w(assembly, "assemble_load", "assembly.load")
        w(assembly, "apply_dirichlet", "assembly.apply_dirichlet")
        w(assembly, "pin_rows_cols", "assembly.pin_rows_cols")
        # constitutive, where assembly and error_metrics imported it
        w(assembly, "s_flux", "constitutive.s_flux")
        w(assembly, "ds_jacobian", "constitutive.ds_jacobian")
        w(assembly, "phi", "constitutive.phi")
        w(error_metrics, "s_flux", "constitutive.s_flux")
        w(error_metrics, "v_transform", "constitutive.v_transform")
        # fespace evaluation, looked up on the class through every instance
        w(fespace.FeSpace, "eval_at", "fespace.eval_at", ndof)
        w(fespace.FeSpace, "grad_at", "fespace.grad_at", ndof)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)


def _per_call_ms(total_s, calls):
    return 1e3 * total_s / calls if calls else 0.0


def summarize(spans, reference):
    """Per-layer metrics of one traced study, and the per-size kernel table.

    `reference` is the study's (level, M, degree) reference triple or None;
    an evolution on exactly that level, degree and M is the reference solve.
    Returns (metrics, table, energy_monotone).
    """
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    in_step = [False] * n
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:  # a parent is always recorded before its children
            child[parent] += dur[i]
            in_step[i] = spans[parent][0] == STEP or in_step[parent]

    total = defaultdict(float)
    calls = defaultdict(int)
    step_calls = defaultdict(int)
    table = defaultdict(lambda: [0, 0.0])
    for i, (name, _, _, _, attrs) in enumerate(spans):
        total[name] += dur[i]
        calls[name] += 1
        if in_step[i]:
            step_calls[name] += 1
        if name in KERNELS:
            row = table[(name, attrs["ndof"])]
            row[0] += 1
            row[1] += dur[i]

    steps = [i for i in range(n) if spans[i][0] == STEP]
    reports = [spans[i][4] for i in steps]
    nsteps = len(steps)
    iterations = sum(r["iterations"] for r in reports)

    def per_step(name):
        return step_calls[name] / nsteps if nsteps else 0.0

    ref_key = None if reference is None else (reference[0], reference[2], reference[1])
    schedule_s = reference_s = 0.0
    for i in range(n):
        if spans[i][0] == "experiments.solve_evolution":
            a = spans[i][4]
            if (a["level"], a["degree"], a["M"]) == ref_key:
                reference_s += dur[i]
            else:
                schedule_s += dur[i]

    dirichlet_s = total["assembly.apply_dirichlet"] + sum(
        dur[i] for i in range(n) if spans[i][0] == "assembly.pin_rows_cols"
        and not (spans[i][3] >= 0 and spans[spans[i][3]][0] == "assembly.apply_dirichlet"))
    windows = sum(s[4]["M"] for s in spans if s[0] == "error_metrics.compute_error_report")
    solves = [s[4]["rel"] for s in spans if s[0] == "assembly.solve"]
    nnz = [s[4]["nnz"] for s in spans if s[0] == "assembly.jacobian"]

    metrics = {
        "experiments.schedule_solve_s": schedule_s,
        "experiments.reference_solve_s": reference_s,
        "timestepper.steps": nsteps,
        "timestepper.step_s": sum(dur[i] for i in steps),
        "timestepper.step_self_s": sum(dur[i] - child[i] for i in steps),
        "timestepper.newton_iters_per_step": iterations / nsteps if nsteps else 0.0,
        "timestepper.residual_evals_per_step": per_step("assembly.residual"),
        "timestepper.jacobian_evals_per_step": per_step("assembly.jacobian"),
        "timestepper.energy_evals_per_step": per_step("assembly.energy"),
        "timestepper.linear_solves_per_step": per_step("assembly.solve"),
        "timestepper.kacanov_per_step": per_step("timestepper.kacanov_matrix"),
        "timestepper.iters_per_residual":
            iterations / step_calls["assembly.residual"]
            if step_calls["assembly.residual"] else 0.0,
        "timestepper.fallback_steps": sum(1 for r in reports if r["fallback"]),
        "timestepper.force_avg_s": total["timestepper.average_force"],
        "timestepper.kacanov_s": total["timestepper.kacanov_matrix"],
    }
    for short, name in (("residual", "assembly.residual"), ("jacobian", "assembly.jacobian"),
                        ("solve", "assembly.solve"), ("energy", "assembly.energy")):
        metrics[f"assembly.{short}_s"] = total[name]
        metrics[f"assembly.{short}_ms"] = _per_call_ms(total[name], calls[name])
    metrics.update({
        "assembly.load_s": total["assembly.load"],
        "assembly.dirichlet_s": dirichlet_s,
        "assembly.solve_rel_residual_max": max(solves, default=0.0),
        "assembly.jacobian_nnz_max": max(nnz, default=0),
        "constitutive.s_flux_s": total["constitutive.s_flux"],
        "constitutive.ds_jacobian_s": total["constitutive.ds_jacobian"],
        "constitutive.v_transform_s": total["constitutive.v_transform"],
        "constitutive.phi_s": total["constitutive.phi"],
        "fespace.eval_s": total["fespace.eval_at"] + total["fespace.grad_at"],
        "fespace.eval_calls": calls["fespace.eval_at"] + calls["fespace.grad_at"],
        "fespace.build_s": total["fespace.build_space"],
        "projection.boundary_s": total["projection.build_boundary_data"],
        "projection.l2_project_s": total["projection.l2_project"],
        "error_metrics.report_s": total["error_metrics.compute_error_report"],
        "error_metrics.report_ms_per_window":
            _per_call_ms(total["error_metrics.compute_error_report"], windows),
        "mesh.refine_s": total["mesh.refine_uniform"],
    })
    rows = [{"kernel": name, "ndof": size, "calls": c, "total_s": t,
             "ms_per_call": _per_call_ms(t, c)}
            for (name, size), (c, t) in sorted(table.items())]
    monotone = all(r["energy_monotone"] for r in reports)
    return metrics, rows, monotone
