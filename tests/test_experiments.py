import subprocess
import sys

import numpy as np
import pytest

from pheat.experiments import (ConfigError, default_config, eoc_summary,
                               known_solution_fields, manufactured_p2_fields,
                               parse_config, run_experiment, run_known_solution,
                               validate_config)
from pheat.constitutive import PLaplaceParams
from pheat.error_metrics import read_csv


def test_default_configs_valid():
    for exp in ("slit_constant_force", "rough_in_time", "known_solution",
                "p2_validation"):
        validate_config(default_config(exp))


def test_parse_roundtrip_and_comments():
    cfg = parse_config("""
        # a comment
        experiment = known_solution
        p = 3.0
        domain_variant = omega1   # trailing comment
        levels = 1:4, 2:8
        output_path = /tmp/x.csv
        emit_dat = true
    """)
    assert cfg.experiment == "known_solution"
    assert cfg.p == 3.0
    assert cfg.domain_variant == "omega1"
    assert cfg.levels == ((1, 4), (2, 8))
    assert cfg.emit_dat is True


def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        parse_config("experiment = known_solution\nwhatever = 3\n")


def test_bad_values_rejected():
    with pytest.raises(ConfigError):
        parse_config("experiment = known_solution\np = one\n")
    with pytest.raises(ConfigError):
        parse_config("experiment = rough_in_time\nbeta = 1.0\n")
    with pytest.raises(ConfigError):
        parse_config("experiment = known_solution\nkappa = 0.5\n")
    with pytest.raises(ConfigError):
        parse_config("experiment = known_solution\np = 0.9\n")
    with pytest.raises(ConfigError):
        parse_config("experiment = nonsense\n")
    with pytest.raises(ConfigError):
        parse_config("experiment = known_solution\nnot a pair\n")


def test_schedule_constraints():
    with pytest.raises(ConfigError):  # compared level above reference level
        parse_config("experiment = slit_constant_force\nlevels = 3:4\n"
                     "reference = 2:8:2\n")
    with pytest.raises(ConfigError):  # M does not divide M_ref
        parse_config("experiment = slit_constant_force\nlevels = 1:3\n"
                     "reference = 2:8:2\n")


def test_levels_parse_error_is_config_error():
    with pytest.raises(ConfigError):
        parse_config("experiment = known_solution\nlevels = 1-4\n")


def test_reference_parse_error_is_config_error():
    with pytest.raises(ConfigError):
        parse_config("experiment = slit_constant_force\nreference = 5:128\n")


@pytest.mark.parametrize("schedule", ["levels = 1:0", "levels = -1:4", "levels = 1:4, 2:-8",
                                      "levels = 1:4\nreference = 3:0:2"])
def test_schedule_needs_positive_m_and_nonnegative_levels(schedule):
    with pytest.raises(ConfigError):
        parse_config(f"experiment = slit_constant_force\n{schedule}\n")


def test_force_mode_validated():
    with pytest.raises(ConfigError):
        parse_config("experiment = known_solution\nforce_mode = pointvalue\n")
    cfg = parse_config("experiment = known_solution\nforce_mode = point_value\n")
    assert cfg.force_mode == "point_value"


def test_known_solution_cache_keeps_latest_array_only(rng):
    import weakref

    exact, force = known_solution_fields(PLaplaceParams(p=1.5))
    refs = []
    for k in range(40):
        pts = rng.uniform(0.1, 1.0, (16, 2))
        r = np.linalg.norm(pts, axis=-1)
        assert np.allclose(exact.u(pts, 0.25), 3.0 * 0.5 * r ** (1.0 / 3.0))
        exact.v_of_grad(pts, 0.25)
        force(pts, 0.25)
        refs.append(weakref.ref(pts))
        del pts
    assert sum(ref() is not None for ref in refs) == 1


def test_known_solution_force_divergence_oracle(rng):
    # f = du/dt - div S(grad u) checked by central finite differences at
    # random space-time points, for both exponents used in the studies
    for p in (1.5, 3.0):
        params = PLaplaceParams(p=p, kappa=0.0)
        exact, force = known_solution_fields(params)
        h = 1e-6
        for _ in range(100):
            x = rng.uniform(1.2, 2.8), rng.uniform(-0.8, 0.8)
            t = float(rng.uniform(0.2, 0.9) * rng.choice([-1.0, 1.0]))
            pt = np.array([x])

            def S(xx, yy):
                return exact.s_field(np.array([[xx, yy]]), t, params)[0]

            div_s = ((S(x[0] + h, x[1])[0] - S(x[0] - h, x[1])[0])
                     + (S(x[0], x[1] + h)[1] - S(x[0], x[1] - h)[1])) / (2 * h)
            dudt = float(exact.u(pt, t + h)[0] - exact.u(pt, t - h)[0]) / (2 * h)
            fd = dudt - div_s
            val = float(force(pt, t)[0])
            assert val == pytest.approx(fd, rel=1e-5)


def test_known_solution_gradient_consistency(rng):
    for p in (1.5, 3.0):
        params = PLaplaceParams(p=p, kappa=0.0)
        exact, _ = known_solution_fields(params)
        pts = np.column_stack([rng.uniform(1.2, 2.8, 50), rng.uniform(-0.8, 0.8, 50)])
        t = 0.7
        h = 1e-6
        gx = (exact.u(pts + [h, 0], t) - exact.u(pts - [h, 0], t)) / (2 * h)
        gy = (exact.u(pts + [0, h], t) - exact.u(pts - [0, h], t)) / (2 * h)
        grad = exact.grad_u(pts, t)
        assert np.allclose(grad[:, 0], gx, rtol=1e-6)
        assert np.allclose(grad[:, 1], gy, rtol=1e-6)
        # V and S closed forms agree with the generic transforms of grad u
        from pheat.constitutive import s_flux, v_transform
        assert np.allclose(exact.v_field(pts, t, params), v_transform(grad, params),
                           rtol=1e-12)
        assert np.allclose(exact.s_field(pts, t, params), s_flux(grad, params),
                           rtol=1e-12)


def test_manufactured_p2_force(rng):
    exact, force = manufactured_p2_fields()
    h = 1e-6
    pts = np.column_stack([rng.uniform(0.1, 0.9, 20), rng.uniform(0.1, 0.9, 20)])
    t = 0.4
    dudt = (exact.u(pts, t + h) - exact.u(pts, t - h)) / (2 * h)
    lap = (exact.u(pts + [h, 0], t) + exact.u(pts - [h, 0], t)
           + exact.u(pts + [0, h], t) + exact.u(pts - [0, h], t)
           - 4 * exact.u(pts, t)) / h ** 2
    assert np.allclose(force(pts, t), dudt - lap, rtol=1e-3)


def _tiny_known_solution_cfg(tmp_path, name="run.csv"):
    cfg = default_config("known_solution")
    cfg.levels = ((1, 4), (2, 8))
    cfg.output_path = str(tmp_path / name)
    return cfg


def test_bitwise_deterministic_csv(tmp_path):
    cfg1 = _tiny_known_solution_cfg(tmp_path, "a.csv")
    run_known_solution(cfg1)
    cfg2 = _tiny_known_solution_cfg(tmp_path, "b.csv")
    run_known_solution(cfg2)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_manifest_written(tmp_path):
    cfg = _tiny_known_solution_cfg(tmp_path)
    run_experiment(cfg)
    manifest = (tmp_path / "run.csv.manifest").read_text()
    for key in ("experiment", "p", "kappa", "r", "levels", "initial", "newton_tol"):
        assert f"{key} = " in manifest
    rows = read_csv(tmp_path / "run.csv")
    assert len(rows) == 2
    assert rows[0]["ndof"] < rows[1]["ndof"]


def test_emit_dat(tmp_path):
    cfg = _tiny_known_solution_cfg(tmp_path)
    cfg.emit_dat = True
    run_experiment(cfg)
    assert (tmp_path / "run.dat").exists()


def test_eoc_summary_format(tmp_path):
    cfg = _tiny_known_solution_cfg(tmp_path)
    reports = run_experiment(cfg)
    text = eoc_summary(reports)
    assert "sq_l2_v" in text and "LS" in text


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def _cli(*args):
    return subprocess.run([sys.executable, "-m", "pheat.cli", *args],
                          capture_output=True, text=True)


def test_cli_run_and_eoc(tmp_path):
    cfgfile = tmp_path / "omega2.cfg"
    out = tmp_path / "res.csv"
    cfgfile.write_text("experiment = known_solution\n"
                       "p = 3.0\n"
                       "levels = 1:4, 2:8, 3:16\n"
                       f"output_path = {out}\n")
    r = _cli("run", "known_solution", "--config", str(cfgfile))
    assert r.returncode == 0, r.stderr
    rows = read_csv(out)
    assert len(rows) == 3

    r = _cli("eoc", str(out), "--field", "sqVerr")
    assert r.returncode == 0
    assert "least-squares" in r.stderr
    float(r.stdout.strip())  # machine-readable slope on stdout


def test_cli_bad_config_exit_2(tmp_path):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("experiment = known_solution\nbogus = 1\n")
    r = _cli("run", "known_solution", "--config", str(cfgfile))
    assert r.returncode == 2
    r = _cli("run", "known_solution", "--config", str(tmp_path / "missing.cfg"))
    assert r.returncode == 2


def test_cli_run_without_schedule_exit_2():
    # `custom` has no default schedule and no runner: a config error, not a traceback
    r = _cli("run", "custom")
    assert r.returncode == 2
    assert "config error" in r.stderr and "Traceback" not in r.stderr


def test_cli_dump_mesh(tmp_path):
    out = tmp_path / "mesh.txt"
    r = _cli("dump-mesh", "--domain", "slit", "--level", "1", "--out", str(out))
    assert r.returncode == 0
    header = out.read_text().splitlines()[0]
    assert header.startswith("vertices ") and "triangles" in header
    r = _cli("dump-mesh", "--domain", "dodecahedron", "--out", str(out))
    assert r.returncode == 2


def test_cli_dump_solution(tmp_path):
    cfgfile = tmp_path / "p2.cfg"
    cfgfile.write_text("experiment = p2_validation\nlevels = 1:2\n")
    outdir = tmp_path / "traj"
    r = _cli("dump-solution", "--config", str(cfgfile), "--out", str(outdir))
    assert r.returncode == 0, r.stderr
    assert (outdir / "trajectory.manifest").exists()
    assert (outdir / "snapshot_00002.txt").exists()


def test_cli_verify():
    r = _cli("verify")
    assert r.returncode == 0, r.stderr
    assert "all property suites passed" in r.stderr
