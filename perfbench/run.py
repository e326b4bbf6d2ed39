"""Benchmark entry point.

    python3 perfbench/run.py --workload noise_mc --seed 0 --seconds 20 --trace 0

Run from the root of a checkout. ``--trace 0`` measures the end-to-end
metrics with no wrappers around the program, reporting times at nominal
machine speed (see calibrate.py); ``--trace 1`` runs a fixed amount of
the workload once untraced and once traced, repeatedly, and reports the
per-layer metrics. Either way every correctness check runs, a summary
is printed, and the last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Results, the
environment and (traced) every span are also written under
``perfbench/.out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / ".out"

END_TO_END = [
    ("setup_s", "s"),
    ("filter_steps_per_s", "steps/s"),
    ("trajectory_ms.p50", "ms"),
    ("trajectory_ms.p90", "ms"),
    ("oracle_cmds_per_s", "1/s"),
    ("fgf_win_frac", "fraction"),
    ("peak_rss_mb", "MB"),
]

SETUP_REPEATS = 5

# Fresh interpreter -> fgfilter imported and its CLI parser built (the
# public --help path builds and runs the whole parser).
_SETUP_CODE = """
import contextlib, io, sys
sys.path.insert(0, {src!r})
from fgfilter.cli import cli_main
with contextlib.redirect_stdout(io.StringIO()):
    cli_main(["--help"])
print("ready", flush=True)
"""

# A fresh interpreter that imports only numpy and scipy.linalg: the same
# kind of work as set-up, which the program cannot change. Spawned around
# every set-up probe, it normalises set-up time for the machine's speed.
_REFERENCE_CODE = 'import numpy, scipy.linalg\nprint("ready", flush=True)\n'
# The reference spawn on a shared 2-vCPU Intel Xeon VM in a quiet phase.
REFERENCE_NOMINAL_S = 0.40


def measure_setup(repeats: int) -> float:
    """Median seconds, at nominal machine speed, from spawn to a ready CLI."""
    code = _SETUP_CODE.format(src=str(SRC))
    before = _spawn_until_ready(_REFERENCE_CODE)
    times = []
    for _ in range(repeats):
        probe = _spawn_until_ready(code)
        after = _spawn_until_ready(_REFERENCE_CODE)
        times.append(probe * REFERENCE_NOMINAL_S / (0.5 * (before + after)))
        before = after
    return statistics.median(times)


def _spawn_until_ready(code: str) -> float:
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", code], stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT
    ) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        _, err = proc.communicate(timeout=120)
    if line.strip() != b"ready" or proc.returncode != 0:
        raise SystemExit(f"set-up probe failed: {err.decode(errors='replace')[-500:]}")
    return ready


def import_program():
    """Import fgfilter from this checkout's src/ and nowhere else."""
    if not (SRC / "fgfilter" / "__init__.py").is_file():
        raise SystemExit(f"no program to benchmark: {SRC / 'fgfilter'} is missing")
    sys.path.insert(0, str(SRC))
    import fgfilter

    if Path(fgfilter.__file__).resolve().parent != (SRC / "fgfilter").resolve():
        raise SystemExit(f"fgfilter imported from {fgfilter.__file__}, not {SRC}")


def run_untraced(wl, seconds: float, min_units: int):
    from perfbench.calibrate import NOMINAL_S, SampledClock
    from perfbench.workloads import drive

    wl.warmup()
    with SampledClock() as clock:
        wl.clock = clock
        results = drive(wl.unit, seconds, min_units=min_units)
    values, attempted, failed, diverged = wl.summarize(results)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values["diverged_frac"] = diverged
    values["slowdown"] = statistics.fmean(clock.samples) / NOMINAL_S
    values["wall_s"] = sum(r["wall"] for r in results)
    return values, attempted, failed


def run_traced(wl, seconds: float, spans_path: Path):
    from perfbench import layers
    from perfbench.tracer import Tracer
    from perfbench.workloads import drive

    wl.warmup()
    tracer = Tracer()
    units = wl.traced_units()
    reps, results = [], []

    def rep(_):
        untraced = drive(wl.unit, 0.0, fixed=units)
        lo, before = len(tracer.names), dict(tracer.counts)
        layers.install(tracer)
        wl.instrument(tracer)
        try:
            traced = drive(wl.unit, 0.0, fixed=units)
        finally:
            wl.instrument(None)
            tracer.restore()
        counts = {k: v - before.get(k, 0.0) for k, v in tracer.counts.items()}
        values = layers.layer_metrics(tracer, lo, len(tracer.names), counts)
        wall_u = sum(r["time"] for r in untraced)
        wall_t = sum(r["time"] for r in traced)
        values["trace.overhead_frac"] = wall_t / wall_u - 1.0
        reps.append(values)
        results.extend(untraced + traced)
        return {"wall": wall_u + wall_t, "time": wall_u + wall_t}

    drive(rep, seconds)
    outcome, attempted, failed, diverged = wl.summarize(results)
    values = layers.median_metrics(reps)
    values["diverged_frac"] = diverged
    values["rmse_fgf.median"] = outcome["rmse_fgf.median"]
    values["trace.absent_targets"] = len(set(tracer.absent))
    tracer.write(spans_path)
    return values, attempted, failed, sorted(set(tracer.absent)), len(reps)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    import_program()
    sys.path.insert(0, str(ROOT))
    from perfbench import envinfo, layers
    from perfbench.workloads import FULL, SMOKE, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    sizes = SMOKE if args.smoke else FULL
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    work_dir.mkdir()
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    wl = WORKLOADS[args.workload](args.seed, sizes, work_dir, traced=bool(args.trace))
    notes = []
    try:
        if args.trace:
            values, attempted, failed, absent, n_reps = run_traced(
                wl, args.seconds, OUT_DIR / f"spans_{args.workload}.csv.gz"
            )
            catalogue = layers.PER_LAYER
            notes.append(f"{n_reps} repetitions of a fixed traced unit set; medians reported")
            notes.append("absent wrap targets: " + (", ".join(absent) or "none"))
            notes.append("units ending in -computed are derived from array shapes and repeat exactly")
        else:
            setup = measure_setup(1 if args.smoke else SETUP_REPEATS)
            min_units = sizes.linear_min_trajectories if args.workload == "linear_sigma" else 1
            values, attempted, failed = run_untraced(wl, args.seconds, min_units)
            values["setup_s"] = setup
            catalogue = END_TO_END
            notes.append(
                f"times at nominal machine speed: {values['wall_s']:.3f} s of program wall time "
                f"ran at a mean slowdown of {values['slowdown']:.3f} (calibrate.py)"
            )
            notes.append(
                f"not gated: rmse_fgf.median={values['rmse_fgf.median']:.6g}, "
                f"diverged_frac={values['diverged_frac']:.6g}"
            )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    env = envinfo.environment()
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in catalogue}
    checks = wl.checks
    result = {
        "correct": checks.correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "checks": checks.names,
              "failed_checks": checks.failed, "notes": notes, **result}
    (OUT_DIR / f"result_{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"environment: {json.dumps(env)}")
    for name in checks.names:
        verdict = "FAIL " + checks.failed[name] if name in checks.failed else "PASS"
        print(f"check {name}: {verdict}")
    for note in notes:
        print(f"note: {note}")
    for name, entry in metrics.items():
        print(f"{name:36s} {entry['value']:>16.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
