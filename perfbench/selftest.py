"""Fast self-test of the benchmark; it is not part of the tier-1 test suite.

    python3 perfbench/selftest.py

1. On tiny schedules of every workload, untraced and traced, the benchmark
   prints every metric BENCHMARK.json names, with its unit, and reports the
   run as correct.
2. The output checks accept a CSV that follows each workload's expected rate
   and reject corrupted copies of it: an error that grows under refinement, a
   wrong DOF count, a wrong time step, a missing row, a non-finite error and a
   wrong header.
3. A study whose output fails a check counts all its schedule rows as failed.
"""

import contextlib
import dataclasses
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from workloads import CSV_COLUMNS, WORKLOADS, check_study, mesh_ndof  # noqa: E402

TINY = {
    "slit_p3": dict(levels=((1, 2), (2, 4)), reference=(3, 4, 2)),
    "known_p15": dict(levels=((1, 2), (2, 4))),
    "p2_temporal": dict(levels=((2, 2), (2, 4))),
}

# error columns of a CSV that meets each workload's rate check
IDEAL = {
    "slit_p3": lambda ndof, tau: 1.0 / ndof,
    "known_p15": lambda ndof, tau: 1.0 / ndof,
    "p2_temporal": lambda ndof, tau: tau ** 2,
}


def run_tiny(name, trace):
    """(exit code, result line) of one run of a tiny schedule."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", name, "--seed", "0", "--seconds", "0",
                         "--trace", str(trace)])
    return code, json.loads(out.getvalue().splitlines()[-1])


def check_metrics_printed():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for name, changes in TINY.items():
        real = WORKLOADS[name]
        # tiny schedules are too coarse for the rate checks; the rest still apply
        WORKLOADS[name] = dataclasses.replace(real, rate=lambda rows: ([], ""), **changes)
        try:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                code, result = run_tiny(name, trace)
                assert code == 0 and result["correct"], (name, trace, result)
                assert result["failed"] == 0 and result["attempted"] > 0, result
                printed = {k: v["unit"] for k, v in result["metrics"].items()}
                assert printed == {m["name"]: m["unit"] for m in spec[kind]}, (name, kind)
        finally:
            WORKLOADS[name] = real
        print(f"ok   metrics printed: {name}")


def synthetic_csv(w, ndof, rows=None):
    t0, t_end = w.interval
    lines = [",".join(CSV_COLUMNS)]
    for level, M in w.levels:
        n, tau = ndof[(level, w.degree)], (t_end - t0) / M
        err = IDEAL[w.name](n, tau)
        lines.append(",".join(repr(v) for v in (n, M, 0.5 ** level, tau) + (err,) * 4))
    return "\n".join(lines if rows is None else rows(lines)) + "\n"


def _set(col, value_of):
    """Corruption replacing column `col` of the last row by value_of(old)."""
    k = CSV_COLUMNS.index(col)

    def corrupt(lines):
        last = lines[-1].split(",")
        last[k] = repr(value_of(float(last[k])))
        return lines[:-1] + [",".join(last)]

    return corrupt


CORRUPTIONS = {
    "error grows under refinement": _set("sqLinftyError", lambda v: 100.0 * v),
    "V error grows under refinement": _set("sqVerr", lambda v: 100.0 * v),
    "ndof off by one": _set("ndof", lambda v: v + 1),
    "tau of another M": _set("tau", lambda v: 0.5 * v),
    "non-finite error": _set("sqAerr", lambda v: float("nan")),
    "missing row": lambda lines: lines[:-1],
    "wrong header": lambda lines: [lines[0].replace("sqVerr1", "sqVerrX")] + lines[1:],
}


def check_checks():
    for name, w in WORKLOADS.items():
        ndof = mesh_ndof(w.domain, w.finest[0])
        manifest = f"t0 = {w.interval[0]}\nt_end = {w.interval[1]}\n"
        bad, _ = check_study(w, synthetic_csv(w, ndof), manifest, ndof)
        assert not bad, (name, bad)
        bad, _ = check_study(w, synthetic_csv(w, ndof), "t0 = 0.0\nt_end = 9.0\n", ndof)
        assert bad, (name, "wrong interval accepted")
        for what, corrupt in CORRUPTIONS.items():
            if what == "V error grows under refinement" and name != "slit_p3":
                continue  # only slit_p3 requires the V error itself to fall
            bad, _ = check_study(w, synthetic_csv(w, ndof, corrupt), manifest, ndof)
            assert bad, (name, what, "accepted")
        print(f"ok   checks reject corrupted output: {name}")


def check_failed_counted():
    name = "known_p15"
    real = WORKLOADS[name]
    WORKLOADS[name] = dataclasses.replace(real, rate=lambda rows: (["forced"], ""),
                                          **TINY[name])
    try:
        code, result = run_tiny(name, 0)
    finally:
        WORKLOADS[name] = real
    assert code != 0 and not result["correct"], result
    assert result["failed"] == result["attempted"] > 0, result
    print(f"ok   failed check counts its rows as failed: {name}")


if __name__ == "__main__":
    run.SETUP_PROBES = 1
    run.calibrate.PASSES = 1
    check_checks()
    check_metrics_printed()
    check_failed_counted()
    print("benchmark self-test passed")
