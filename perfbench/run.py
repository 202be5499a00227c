"""Benchmark of the contact_index calculator: one seeded workload per run.

    python3 perfbench/run.py --workload ws3-torsion --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory.  The workload runs in this process on one thread; the only
other processes are the set-up children, one at a time.

With `--trace 0` the job list runs in passes until one more pass would
overrun `--seconds` (at least one pass), and the end-to-end metrics are
printed.  Times are corrected to the reference host speed by `speed.py`.
With `--trace 1` the job list runs once untraced and twice traced, and the
per-layer metrics are printed, their times corrected in the same way; the
two traced passes must give identical counts.  Every output is checked (see `workloads.py`) before any number
counts.  The last line of standard output is the JSON result.  The exit
code is 0 when every check passed, apart from the known-defect job, which
is counted in `failed` and in `ok_ratio`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
SETUP_REPEATS = 11
SETUP_TIMEOUT_S = 60
SETUP_CODE = """\
import time
import speed
speed.probe()
probes = [speed.probe_seconds() for _ in range(5)]
t0 = time.perf_counter()
import contact_index
contact_index.calibrate_conventions()
seconds = time.perf_counter() - t0
probes += [speed.probe_seconds() for _ in range(5)]
print(seconds * speed.speed_factor(probes), seconds)
"""


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package():
    """Import contact_index from this checkout's src/, or exit nonzero."""
    if not (SRC / "contact_index" / "__init__.py").is_file():
        sys.exit(f"error: no contact_index sources under {SRC}; "
                 f"run from the root of a source checkout")
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    import contact_index
    if Path(contact_index.__file__).resolve().parent != SRC / "contact_index":
        sys.exit(f"error: contact_index was imported from {contact_index.__file__}, "
                 f"not from {SRC}")
    return contact_index


def measure_setup(work):
    """Median over fresh interpreters of the corrected import-and-calibrate time."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))))
    corrected, raw = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-B", "-c", SETUP_CODE], cwd=work, env=env,
                              capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"set-up child exited {done.returncode}: {done.stderr}")
        c, r = map(float, done.stdout.split())
        corrected.append(c)
        raw.append(r)
    return statistics.median(corrected), raw


class JobRecord:
    __slots__ = ("key", "group", "start", "end", "seconds", "problems", "known_defect")

    def __init__(self, job, start, end, problems):
        self.key, self.group, self.known_defect = job.key, job.group, job.known_defect
        self.start, self.end, self.problems = start, end, problems
        self.seconds = end - start


def run_pass(jobs, ctx):
    records = []
    for job in jobs:
        start = time.perf_counter()
        try:
            with ctx.tracer.recording():
                out = job.run()
        except Exception as exc:  # a job that raises counts as failed; the run goes on
            end = time.perf_counter()
            problems = [f"{job.key}: raised {type(exc).__name__}: {exc}"]
        else:
            end = time.perf_counter()
            problems = job.problems(out)
        records.append(JobRecord(job, start, end, problems))
    return records


def pass_seconds(records):
    return sum(r.seconds for r in records)


def summary(values):
    values = sorted(values)
    out = {"n": len(values), "median": statistics.median(values),
           "min": values[0], "max": values[-1]}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def correct(passes, monitor):
    """Replace each job's measured seconds by its speed-corrected seconds."""
    for r in (r for p in passes for r in p):
        r.seconds = monitor.corrected(r.start, r.end)


def run_timed(jobs, ctx, seconds):
    """Passes until one more would overrun `seconds`; job times corrected for speed."""
    passes, longest = [], 0.0
    with speed.SpeedMonitor() as monitor:
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            passes.append(run_pass(jobs, ctx))
            longest = max(longest, time.perf_counter() - t0)
            if time.perf_counter() - start + longest > seconds:
                break
    raw = [pass_seconds(p) for p in passes]
    correct(passes, monitor)
    return passes, raw


def end_to_end(passes, setup_s):
    records = [r for p in passes for r in p]
    groups = {}
    for r in records:
        groups.setdefault(r.group, []).append(r.seconds)
    failed = sum(1 for r in records if r.problems)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(pass_seconds(p) for p in passes), "s"),
        "slowest_job_s": (max(statistics.median(v) for v in groups.values()), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_ratio": ((len(records) - failed) / len(records), "ratio"),
    }, groups


def run_traced(jobs, ctx):
    """One untraced pass, then two traced passes with identical counts.

    Span times are scaled by the speed correction of their pass, so that
    they compare across runs as the end-to-end times do.
    """
    from contact_index import engine

    tracer = tracing.Tracer()
    with speed.SpeedMonitor() as monitor:
        untraced = run_pass(jobs, ctx)
        tracer.install()
        try:
            ctx.tracer = tracer
            start = time.perf_counter()
            with tracer.recording():
                engine.calibrate_conventions()
            calibrate = (tracer.stats["engine.calibrate"]["s"], start, time.perf_counter())
            snapshots, traced = [], []
            for _ in range(2):
                tracer.reset()
                traced.append(run_pass(jobs, ctx))
                snapshots.append({name: read(tracer.stats)
                                  for name, (_, read) in tracing.LAYER_METRICS.items()})
        finally:
            tracer.uninstall()
            ctx.tracer = tracing.NullTracer()

    def factor(start, end):
        return monitor.corrected(start, end) / (end - start)

    problems = [f"trace count {name} differs between traced passes: "
                f"{snapshots[0][name]} != {snapshots[1][name]}"
                for name in tracing.COUNT_METRICS if snapshots[0][name] != snapshots[1][name]]
    factors = [factor(p[0].start, p[-1].end) for p in traced]
    metrics = {}
    for name, (unit, _) in tracing.LAYER_METRICS.items():
        if name in tracing.COUNT_METRICS:
            value = snapshots[0][name]
        elif unit == "s":
            value = statistics.median(s[name] * f for s, f in zip(snapshots, factors))
        else:
            value = statistics.median(s[name] for s in snapshots)
        metrics[name] = (value, unit)
    seconds, start, end = calibrate
    metrics["engine.calibrate.s"] = (seconds * factor(start, end), "s")
    passes = [untraced] + traced
    correct(passes, monitor)
    overhead = statistics.median(pass_seconds(p) for p in traced) - pass_seconds(untraced)
    metrics["trace.overhead_s"] = (overhead, "s")
    return passes, metrics, problems


def main(argv=None):
    package = import_package()
    import workloads

    args = parse_args(argv, workloads.WORKLOADS)
    draw, setup = workloads.WORKLOADS[args.workload]
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace == 0:
            setup_s, setup_raw = measure_setup(work)
        specs = draw(random.Random(args.seed))
        print(json.dumps({"provenance": {
            "workload": args.workload, "seed": args.seed, "jobs": specs,
            "package_version": package.__version__,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "seconds": args.seconds, "trace": args.trace,
        }}), flush=True)
        ctx = workloads.Context(work=work, tracer=tracing.NullTracer())
        setup(ctx, specs)
        jobs = workloads.build_jobs(specs, ctx, workloads.load_reference())
        if args.trace:
            passes, metrics, gate = run_traced(jobs, ctx)
        else:
            passes, raw = run_timed(jobs, ctx, args.seconds)
            metrics, groups = end_to_end(passes, setup_s)
            gate = []
            print(json.dumps({
                "corrected_jobs_s": {g: summary(v) for g, v in sorted(groups.items())},
                "corrected_passes_s": summary([pass_seconds(p) for p in passes]),
                "raw_passes_s": summary(raw), "raw_setup_s": summary(setup_raw),
            }), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run's directory is still there

    records = [r for p in passes for r in p]
    failed = [r for r in records if r.problems]
    for r in failed:
        tag = "known defect" if r.known_defect else "FAILED"
        print(f"{tag}: {r.problems[0]}", file=sys.stderr)
    gate += [p for r in failed if not r.known_defect for p in r.problems]
    for p in gate:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not gate,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not gate else 1


if __name__ == "__main__":
    sys.exit(main())
