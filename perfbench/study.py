"""One study process: set up, then run `pheat run` once, untraced or traced.

    python study.py --config FILE --experiment NAME --domain D --level L
                    --degree R --start T --mode probe|run|trace --result FILE

Set-up is what a user waits for before the first time step: interpreter start
(T is the parent's time.monotonic() just before it started this process),
`import pheat`, parsing the config, and building the study's finest mesh and
space.  `probe` stops there.  `run` then calls `pheat.cli.main` and records
its wall time, the process CPU time over the same span and the peak resident
memory; `trace` does the same with every layer wrapped by `tracer.Tracer`,
and writes the spans next to the result.
"""

import argparse
import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def peak_rss_mb():
    """Peak resident memory of this process since it started, in MB.

    Read as VmHWM, the high-water mark of this process's own address space.
    getrusage's ru_maxrss is not used: Linux carries it across exec, so it
    also holds the peak of the parent that started this process.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main():
    parser = argparse.ArgumentParser()
    for name in ("config", "experiment", "domain", "result"):
        parser.add_argument(f"--{name}", required=True)
    parser.add_argument("--level", type=int, required=True)
    parser.add_argument("--degree", type=int, required=True)
    parser.add_argument("--start", type=float, required=True)
    parser.add_argument("--mode", choices=("probe", "run", "trace"), required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import pheat
    from pheat import cli
    from pheat.experiments import default_config, parse_config_file

    if Path(pheat.__file__).resolve().parent != SRC / "pheat":
        sys.exit(f"pheat imported from {pheat.__file__}, not from {SRC}")
    parse_config_file(args.config, base=default_config(args.experiment))
    mesh = pheat.make_initial_mesh(args.domain)
    for _ in range(args.level):
        mesh = pheat.refine_uniform(mesh)
    pheat.build_space(mesh, args.degree)
    result = {"setup_s": time.monotonic() - args.start}

    if args.mode != "probe":
        tracer = None
        if args.mode == "trace":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        code = cli.main(["run", args.experiment, "--config", args.config])
        result.update(study_s=time.perf_counter() - wall0,
                      study_cpu_s=time.process_time() - cpu0,
                      peak_rss_mb=peak_rss_mb(),
                      exit_code=code)
        if tracer is not None:
            tracer.dump(args.result + ".spans")
    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
