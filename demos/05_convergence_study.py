"""A small uncoupled-resolution convergence study against the known singular
solution on the shifted square: h and tau refined together, no coupling
condition, optimal averaged rates.

Run:  python demos/05_convergence_study.py        (about a minute)
"""

from pheat.experiments import default_config, eoc_summary, run_experiment

cfg = default_config("known_solution")
cfg.p = 1.5
cfg.domain_variant = "omega2"
cfg.levels = ((1, 4), (2, 8), (3, 16), (4, 32))
cfg.output_path = "demo_known_solution.csv"
cfg.emit_dat = True

reports = run_experiment(cfg)
print("level-by-level squared errors (see demo_known_solution.csv):")
for r in reports:
    print(f"  ndof={r.ndof:5d} M={r.M:3d}  errL2V={r.sq_l2_v:.4e}  "
          f"errL2<V>={r.sq_l2_v_avg:.4e}  errLinfL2={r.sq_linfty_l2:.4e}  "
          f"errLp'S={r.sq_lp_s:.4e}")
print("\nempirical orders against ndof (squared quantities; -1 means h^2 ~ tau^2):")
print(eoc_summary(reports))
print("\nwrote demo_known_solution.csv, .manifest and .dat")
