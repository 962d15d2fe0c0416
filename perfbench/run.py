"""Study-level benchmark for pheat.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs as many whole rounds of one workload as fit in S seconds, judged by the
mean round so far, and always at least one.  A round starts every study in a
fresh process (study.py) and checks its output (workloads.check_study).

--trace 0: a round is SETUP_PROBES set-up-only processes and one untraced
study.  The last stdout line reports the end-to-end metrics: set-up time
(median over every set-up of the run), and the study's wall time, CPU time and
peak resident memory (medians over the rounds).  The machine's speed drifts,
so every round also times a fixed calibration kernel (calibrate.py) before
and after its studies, and the three times are scaled by
CALIB_REF_S / (the round's kernel time): wall times by the kernel's wall
time, CPU time by its CPU time.  The unscaled figures go to stderr and to
the summary.

--trace 1: a round is one untraced and one traced study, between two
calibrations.  The traced CSV must be byte-identical to the untraced one, and
every Newton step's energy sequence must not increase.  The last line reports the per-layer metrics
(medians over the rounds); per-call kernel times by problem size go to
stderr and, with every metric, to perfbench/out/<workload>/summary.json.

The inputs have no random part: the seed is only recorded in the summary.
An operation is one schedule row of one study.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 3
# The end-to-end times are scaled to a machine on which one pass of the
# calibration kernel (calibrate.py) takes this long, wall and CPU: about the
# speed of the machine the benchmark was sized on (see README.md).
CALIB_REF_S = 0.6
# BLAS threads of every study process.  A second OpenBLAS thread leaves the
# wall time of every study unchanged and only adds spinning CPU time and
# sensitivity to other load on the machine (measured; see README.md).
BLAS_THREADS = 1

# set before NumPy is first imported, so that this process (which times the
# calibration kernel) and every study process it starts use BLAS_THREADS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
sys.path.insert(0, str(HERE))
import calibrate  # noqa: E402
from tracer import summarize  # noqa: E402
from workloads import OUTPUT, WORKLOADS, check_study, mesh_ndof  # noqa: E402


def _log(msg):
    print(msg, file=sys.stderr, flush=True)


def start_study(workload, directory, mode):
    """Run study.py once in `directory`; returns its result dict."""
    directory.mkdir(parents=True, exist_ok=True)
    config = directory / "study.cfg"
    config.write_text(workload.config)
    level, degree = workload.finest
    result = directory / "result.json"
    cmd = [sys.executable, str(HERE / "study.py"), "--config", str(config),
           "--experiment", workload.experiment, "--domain", workload.domain,
           "--level", str(level), "--degree", str(degree), "--mode", mode,
           "--result", str(result), "--start"]
    start = time.monotonic()
    proc = subprocess.run(cmd + [repr(start)], cwd=directory,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0 or not result.exists():
        _log(proc.stderr)
        raise RuntimeError(f"study process ({mode}) exited with {proc.returncode}")
    out = json.loads(result.read_text())
    out["stderr"] = proc.stderr
    return out


def run_round(workload, directory, trace, ndof):
    """One round; returns (samples, failures, rows attempted, rows failed)."""
    samples = {"setup_s": []}
    failures = []
    if not trace:
        for k in range(SETUP_PROBES):
            samples["setup_s"].append(
                start_study(workload, directory / f"probe{k}", "probe")["setup_s"])
    modes = ("run", "trace") if trace else ("run",)
    csvs = {}
    failed_modes = set()
    before = calibrate.measure()
    for mode in modes:
        sub = directory / mode
        try:
            res = start_study(workload, sub, mode)
        except RuntimeError as exc:
            res = {"exit_code": str(exc), "stderr": ""}
        if res["exit_code"] != 0:
            failed_modes.add(mode)
            failures.append(f"{mode}: pheat run failed ({res['exit_code']}):\n"
                            + res["stderr"])
            continue
        csvs[mode] = (sub / OUTPUT).read_bytes()
        manifest = (sub / (OUTPUT + ".manifest")).read_text()
        bad, note = check_study(workload, csvs[mode].decode(), manifest, ndof)
        if bad:
            failed_modes.add(mode)
        failures += [f"{mode}: {f}" for f in bad]
        _log(f"{workload.name} {mode}: study {res['study_s']:.3f} s, {note}")
        if mode == "run":
            samples["setup_s"].append(res["setup_s"])
            for key in ("study_s", "study_cpu_s", "peak_rss_mb"):
                samples[key] = [res[key]]
        else:
            spans = json.loads((sub / "result.json.spans").read_text())["spans"]
            metrics, table, monotone = summarize(spans, workload.reference)
            if not monotone:
                failed_modes.add(mode)
                failures.append("trace: a step's energy sequence increases")
            samples.update({k: [v] for k, v in metrics.items()})
            samples["traced_study_s"] = [res["study_s"]]
            samples["kernels_by_ndof"] = table
    after = calibrate.measure()
    if len(csvs) == 2 and csvs["run"] != csvs["trace"]:
        failed_modes.add("trace")
        failures.append("traced CSV differs from the untraced CSV")
    # scale the round's times to a machine on which the kernel takes CALIB_REF_S
    wall = (before[0] + after[0]) / 2
    cpu = (before[1] + after[1]) / 2
    samples["machine.calibration_s"] = [wall]
    if "study_s" in samples:
        samples["machine.study_unscaled_s"] = list(samples["study_s"])
        if not trace:
            samples["machine.setup_unscaled_s"] = samples["setup_s"]
            samples["machine.study_cpu_unscaled_s"] = samples["study_cpu_s"]
            samples["setup_s"] = [t * CALIB_REF_S / wall for t in samples["setup_s"]]
            samples["study_s"] = [samples["study_s"][0] * CALIB_REF_S / wall]
            samples["study_cpu_s"] = [samples["study_cpu_s"][0] * CALIB_REF_S / cpu]
    attempted = len(modes) * len(workload.levels)
    return samples, failures, attempted, len(failed_modes) * len(workload.levels)


def _print_table(table):
    _log(f"{'kernel':<20} {'ndof':>7} {'calls':>7} {'total s':>9} {'ms/call':>9}")
    for row in table:
        _log(f"{row['kernel']:<20} {row['ndof']:>7} {row['calls']:>7} "
             f"{row['total_s']:>9.3f} {row['ms_per_call']:>9.3f}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pheat" / "__init__.py").is_file():
        _log(f"no pheat sources under {ROOT / 'src'}")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    units = {m["name"]: m["unit"] for m in spec["per_layer"] + spec["end_to_end"]}

    directory = OUT / workload.name
    shutil.rmtree(directory, ignore_errors=True)
    ndof = mesh_ndof(workload.domain, workload.finest[0])
    calibrate.kernel()  # fault in the kernel's memory and code once
    collected = {}
    table = []
    failures = []
    attempted = failed = rounds = 0
    t0 = time.monotonic()
    # one more round only if a round of the mean length so far still fits
    while rounds == 0 or (time.monotonic() - t0) * (rounds + 1) / rounds <= args.seconds:
        samples, bad, a, f = run_round(workload, directory / f"round{rounds}",
                                       bool(args.trace), ndof)
        table = samples.pop("kernels_by_ndof", table)
        for key, vals in samples.items():
            collected.setdefault(key, []).extend(vals)
        failures += bad
        attempted += a
        failed += f
        rounds += 1

    for msg in failures:
        _log(f"CHECK FAILED: {msg}")
    missing = [name for name in names if name not in collected]
    if missing and not failures:
        failures.append(f"metrics not measured: {missing}")
    # a run with failures is reported as incorrect; unmeasured metrics read 0
    values = {name: statistics.median(collected.get(name, [0.0])) for name in names}
    summary = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
               "rounds": rounds, "blas_threads": BLAS_THREADS, "samples": collected,
               "metrics": values, "kernels_by_ndof": table, "failures": failures}
    if table:
        _print_table(table)
        overhead = (statistics.median(collected["traced_study_s"])
                    - statistics.median(collected["study_s"]))
        _log(f"tracing overhead (traced minus untraced study_s): {overhead:.3f} s")
    (directory / "summary.json").write_text(json.dumps(summary, indent=1))
    for name in names:
        _log(f"{name:<40} {values[name]:>14.6g} {units[name]}")
    for name in ("machine.calibration_s", "machine.setup_unscaled_s",
                 "machine.study_unscaled_s", "machine.study_cpu_unscaled_s"):
        if name in collected and name not in names:
            _log(f"{name:<40} {statistics.median(collected[name]):>14.6g} s")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": {n: {"value": values[n], "unit": units[n]} for n in names}}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
