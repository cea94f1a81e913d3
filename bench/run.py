"""xmodkit benchmark: one command for every workload and metric.

    python3 bench/run.py --workload law_scan [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from
``src/`` (nothing is installed). The run:

1. sets up ``SETUP_REPEATS`` times: drops every loaded ``xmodkit``
   module, imports the package afresh and generates the workload's job
   list from the seed. ``setup_s`` is the median of these set-ups.
2. ``--trace 0``: repeats passes over the job list for about
   ``--seconds`` and reports the end-to-end metrics. ``--trace 1``: runs
   every job twice in a row, untraced and traced, for about
   ``--seconds``, and reports the per-layer metrics.
3. checks every job's result against its known answer, and prints one
   JSON object as the last line of stdout. A summary goes to stderr.

Every job runs in this process, one at a time; ``cli_golden`` jobs each
start and wait for one ``python -m xmodkit`` child.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DEFAULT_SEED = 1
# Not used while the benchmark or a change is tuned; a claimed gain must
# also hold on it.
HELD_OUT_SEED = 1805
SETUP_REPEATS = 5
# A p90 needs at least ten latencies beyond it.
MIN_SAMPLES = 100
STARTUP_PROBES = 5

MODULES = (
    "errors", "report", "terms", "profiles", "structures", "morphisms", "actions",
    "xmod", "limits", "cat1", "pullbacks", "zoo", "io", "cli",
)

# Every end-to-end metric, with its unit.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def load_package() -> SimpleNamespace:
    """Import xmodkit afresh, so every set-up pays the import."""
    for name in [n for n in sys.modules if n == "xmodkit" or n.startswith("xmodkit.")]:
        del sys.modules[name]
    return SimpleNamespace(**{n: importlib.import_module(f"xmodkit.{n}") for n in MODULES})


@dataclass
class PassStats:
    wall: float
    cpu: float
    latencies: list[float]
    problems: list[tuple[str, str]] = field(default_factory=list)
    spans: list = field(default_factory=list)


def _cpu() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        r = resource.getrusage(who)
        total += r.ru_utime + r.ru_stime
    return total


def _run_job(job: workloads.Job, problems: list[tuple[str, str]]) -> float:
    """Run one job, check its result after the timer stops; returns its latency."""
    j0 = time.perf_counter()
    try:
        result = job.run()
    except Exception:  # a job that raises counts as failed; the pass goes on
        problems.append((job.name, traceback.format_exc()))
        return time.perf_counter() - j0
    latency = time.perf_counter() - j0
    try:
        problem = job.check(result)
    except Exception:
        problem = traceback.format_exc()
    if problem:
        problems.append((job.name, problem))
    # free the result here, or the next job's timer pays for it
    del result
    return latency


def run_pass(plan: workloads.Plan) -> PassStats:
    """One pass over the job list."""
    plan.prepare()
    stats = PassStats(0.0, 0.0, [])
    c0, t0 = _cpu(), time.perf_counter()
    for job in plan.jobs:
        stats.latencies.append(_run_job(job, stats.problems))
    stats.wall, stats.cpu = time.perf_counter() - t0, _cpu() - c0
    return stats


def run_paired_pass(plan: workloads.Plan, tracer: tracing.Tracer, flip: int = 0):
    """Each job twice in a row, untraced and traced.

    Pairing at the job level keeps the machine's drift out of the tracing
    overhead. Which side goes first alternates from job to job, and with
    `flip` from pass to pass, because a job's second run can be faster.
    The wall time of each side is the sum of its job latencies.
    """
    plan.prepare()
    plain, traced = PassStats(0.0, 0.0, []), PassStats(0.0, 0.0, [])
    for k, job in enumerate(plan.jobs):
        tracer.job = k
        for enabled in (False, True) if (k + flip) % 2 == 0 else (True, False):
            tracer.enabled = enabled
            side = traced if enabled else plain
            side.latencies.append(_run_job(job, side.problems))
    tracer.enabled = True
    plain.wall, traced.wall = sum(plain.latencies), sum(traced.latencies)
    traced.spans = tracer.take()
    return plain, traced


def measure(step, seconds: float, enough=lambda done: True) -> list:
    """Call `step` for about `seconds`, and until `enough` of its results.

    A step starts only while it is expected to end no more than half a
    step after the deadline, so a run lasts `seconds` give or take half
    a step.
    """
    done: list = []
    start, last = time.perf_counter(), 0.0
    while not done or time.perf_counter() - start + last / 2 < seconds or not enough(done):
        t0 = time.perf_counter()
        done.append(step())
        last = time.perf_counter() - t0
    return done


def peak_rss_mb(plan) -> float:
    who = resource.RUSAGE_CHILDREN if plan.child_processes else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(plan, passes: list[PassStats], setup_s: float) -> dict[str, float]:
    lat_ms = [x * 1000.0 for p in passes for x in p.latencies]
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.wall for p in passes),
        "cpu_s": statistics.median(p.cpu for p in passes),
        "job_p50_ms": statistics.median(lat_ms),
        "job_p90_ms": statistics.quantiles(lat_ms, n=10, method="inclusive")[8],
        "peak_rss_mb": peak_rss_mb(plan),
    }


def cli_startup_ms() -> list[float]:
    """Wall time of a no-work `python -m xmodkit --help`, per probe."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = []
    for _ in range(STARTUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "xmodkit", "--help"], cwd=ROOT, env=env,
                              capture_output=True, timeout=120)
        out.append((time.perf_counter() - t0) * 1000.0)
        if proc.returncode != 0:
            raise RuntimeError(f"xmodkit --help exited {proc.returncode}")
    return out


def traced(workload: str, m, plan, seconds: float, seed: int):
    """Paired untraced and traced passes; returns (per-layer metrics, all passes)."""
    layer: dict[str, float] = {"cli.startup_ms": 0.0, "cli.inproc_ms": 0.0}
    if workload == "cli_golden":
        layer["cli.startup_ms"] = statistics.median(cli_startup_ms())
        plan.close()
        plan = workloads.cli_inprocess(m, ROOT)
    tr = tracing.Tracer(m)
    tr.install()
    try:
        flips = itertools.count()
        pairs = measure(lambda: run_paired_pass(plan, tr, next(flips) % 2), seconds)
    finally:
        tr.uninstall()
        plan.close()
    rolls = [tracing.rollup(t.spans) for _, t in pairs]
    for name in rolls[0]:
        if name in tracing.COUNTERS:
            if any(r[name] != rolls[0][name] for r in rolls):
                raise RuntimeError(f"counter {name} differs between traced passes")
            layer[name] = rolls[0][name]
        else:
            layer[name] = statistics.median(r[name] for r in rolls)
    if workload == "cli_golden":
        plain_wall = statistics.median(p.wall for p, _ in pairs)
        layer["cli.inproc_ms"] = plain_wall / len(plan.jobs) * 1000.0
    layer["trace.overhead_s"] = statistics.median(t.wall - p.wall for p, t in pairs)
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    tracing.Tracer.dump([t.spans for _, t in pairs], work / f"spans-{workload}-{seed}.jsonl")
    return layer, [p for pair in pairs for p in pair]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=tuple(workloads.BUILDERS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup(workload: str, seed: int):
    """SETUP_REPEATS fresh set-ups; returns the last package, plan and the times."""
    build = workloads.BUILDERS[workload]
    times, m, plan = [], None, None
    for _ in range(SETUP_REPEATS):
        if plan is not None:
            plan.close()
        m = plan = None
        gc.collect()
        t0 = time.perf_counter()
        m = load_package()
        plan = build(m, seed, ROOT)
        times.append(time.perf_counter() - t0)
    return m, plan, times


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "xmodkit" / "__init__.py").is_file():
        print(f"ERROR no xmodkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    m, plan, setup_times = setup(args.workload, args.seed)
    digest = plan.digest()
    if args.trace:
        metrics, passes = traced(args.workload, m, plan, args.seconds, args.seed)
        units = tracing.METRICS
    else:
        try:
            passes = measure(
                lambda: run_pass(plan), args.seconds,
                lambda done: sum(len(p.latencies) for p in done) >= MIN_SAMPLES,
            )
        finally:
            plan.close()
        metrics = end_to_end(plan, passes, statistics.median(setup_times))
        units = END_TO_END
    attempted = sum(len(p.latencies) for p in passes)
    problems = [pr for p in passes for pr in p.problems]
    for name, problem in problems[:5]:
        print(f"FAILED {name}: {problem}", file=sys.stderr)
    print(
        f"{args.workload} seed={args.seed} inputs={digest[:16]} passes={len(passes)} "
        f"jobs/pass={len(plan.jobs)} samples={attempted} "
        f"setups={[round(t, 3) for t in setup_times]}",
        file=sys.stderr,
    )
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
