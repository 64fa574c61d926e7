#!/usr/bin/env python3
"""flowlab benchmark: one workload in one process with one worker thread.

Run from the repository root:

    python3 perfbench/run.py --workload scan-lorenz --seed 0 --seconds 32 --trace 0

Workloads: scan-lorenz, pipeline-lorenz, charts-planar (see workloads.py).
Each is a stream of independent jobs whose inputs come from --seed.  Job 0
runs once untimed first, so that lazy set-up finishes before timing and so
that its report.json can be compared byte for byte with the timed repeat.

--trace 0 runs jobs until --seconds have passed and prints the end-to-end
metrics.  --trace 1 runs a fixed number of jobs per workload (so that its
counts repeat exactly), each once traced and once untraced, and prints the
per-layer metrics; spans and the layer table go to
.bench_build/perfbench/trace-<workload>-seed<seed>.json.

Every job's output is checked (invariants on any seed, the stored reference
on the default seed, closed-form flows on charts-planar).  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.
"""

from __future__ import annotations

import os

# one worker thread: keep BLAS from starting its own pool
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"
REFERENCE = HERE / "reference.json"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120

sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from checks import compare_reports, compare_summary  # noqa: E402

#: (metric, unit) of an untraced run, in BENCHMARK.json order.
END_TO_END = (("setup_s", "s"), ("job_s.p50", "s"), ("items_per_s", "1/s"),
              ("peak_rss_mb", "MiB"))


def end_to_end_metrics(setup_times, job_times, items, peak_rss_kib):
    """The untraced run's metrics.  items_per_s is the median over jobs of
    items per second of job time: like job_s.p50, a job that a busy host
    slowed moves it less than it would move a mean."""
    if not job_times or min(job_times) <= 0:
        raise ValueError("no job time measured")
    values = {"setup_s": statistics.median(setup_times),
              "job_s.p50": statistics.median(job_times),
              "items_per_s": statistics.median(
                  n / t for n, t in zip(items, job_times)),
              "peak_rss_mb": peak_rss_kib / 1024.0}
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def _log(msg):
    sys.stderr.write(msg.rstrip("\n") + "\n")


def setup(name, seed):
    """Imports, workload construction and reference loading."""
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    if name not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; choose from "
                         f"{sorted(workloads.WORKLOADS)}")
    ref = json.loads(REFERENCE.read_text())
    summaries = ref["workloads"].get(name, []) \
        if seed == ref["default_seed"] else []
    return workloads.WORKLOADS[name](seed), summaries


def probe_setup(name, seed):
    """Seconds from spawning a fresh interpreter to its first job being
    ready; the child reports the monotonic time at which it was ready."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1]) - t0


class Run:
    """Executes and checks jobs; counts attempts and failures."""

    def __init__(self, workload, reference, work):
        self.wl = workload
        self.reference = reference
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.reports = {}
        self.oracle_worst = 0.0

    def job(self, i, tracer=None):
        """(JobResult, seconds) of job i, or None when it failed."""
        self.attempted += 1
        out = self.work / f"job-{i}"
        shutil.rmtree(out, ignore_errors=True)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                if tracer is None:
                    res = self.wl.run(i, out)
                else:
                    res = tracer.run_job(i, self.wl.run, i, out)
                seconds = time.perf_counter() - t0
            problems = self.check(i, res)
        except Exception:  # a job boundary: record the failure and go on
            problems = [traceback.format_exc()]
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if problems:
            self.failed += 1
            _log(f"job {i} of {self.wl.name} seed {self.wl.seed} FAILED:")
            for p in problems:
                _log(f"  {p}")
            return None
        return res, seconds

    def check(self, i, res):
        problems = list(self.wl.invariants(i, res))
        if i in self.reports:
            problems += compare_reports(self.reports[i], res.report)
        else:
            self.reports[i] = res.report
        if i < len(self.reference):
            problems += compare_summary(res.summary, self.reference[i])
        err = self.wl.oracle(i)
        if err is not None:
            self.oracle_worst = max(self.oracle_worst, err)
            if not err <= self.wl.TOL:
                problems.append(f"closed-form oracle: relative error "
                                f"{err:.3e} > tol {self.wl.TOL:g}")
        return problems


def run_untraced(run, seconds):
    times, items = [], []
    run.job(0)  # warm-up; its report is compared with the timed repeat
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        done = run.job(i)
        if done is not None:
            items.append(done[0].items)
            times.append(done[1])
        i += 1
    return times, items


def run_traced(run, tracer):
    """Each job once traced and once untraced, alternating which is first."""
    traced, plain = [], []
    run.job(0)
    for i in range(run.wl.trace_jobs):
        for with_trace in ((True, False) if i % 2 == 0 else (False, True)):
            done = run.job(i, tracer if with_trace else None)
            if done is not None:
                (traced if with_trace else plain).append(done[1])
    return traced, plain


def src_lines():
    return sum(len(p.read_text().splitlines())
               for p in sorted((ROOT / "src" / "flowlab").glob("*.py")))


def write_trace(tracer, path):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "span_fields": ["name", "start", "end", "parent", "job"],
        "spans": tracer.spans,
        "counters": dict(sorted(tracer.counters.items())),
        "spans_by_name": tracing.span_table(tracer.spans),
        "layers": tracing.layer_table(tracer.spans),
    }, indent=1))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: the reference seed)")
    ap.add_argument("--seconds", type=float, default=32.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed is None:
        args.seed = json.loads(REFERENCE.read_text())["default_seed"]

    if args.setup_probe:
        setup(args.workload, args.seed)
        print(repr(time.monotonic()))
        return 0

    if not (ROOT / "src" / "flowlab" / "__init__.py").is_file():
        _log(f"flowlab sources not found under {ROOT / 'src'}; run the "
             "benchmark from a checkout of the repository")
        return 2
    setup_times = [] if args.trace else [
        probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    workload, reference = setup(args.workload, args.seed)
    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    run = Run(workload, reference, work)
    try:
        if args.trace:
            tracer = tracing.Tracer()
            traced, plain = run_traced(run, tracer)
            if not traced or not plain:
                _log("no traced job completed")
                return 1
            supplied = {
                "fields.oracle_rel_err": run.oracle_worst,
                "trace.jobs": len(traced),
                "trace.overhead_ratio": (statistics.median(traced)
                                         / statistics.median(plain) - 1.0),
                "repo.src_lines": src_lines(),
            }
            metrics = tracing.per_layer_metrics(tracer, supplied)
            trace_path = WORK / (f"trace-{args.workload}-seed{args.seed}"
                                 ".json")
            write_trace(tracer, trace_path)
            print(f"{workload.name} seed {args.seed}: traced run of "
                  f"{len(traced)} jobs; spans in "
                  f"{trace_path.relative_to(ROOT)}")
            print(f"{'layer':<12}{'calls':>9}{'self_s':>11}{'share':>8}")
            for layer, row in sorted(tracing.layer_table(tracer.spans)
                                     .items()):
                print(f"{layer:<12}{row['calls']:>9}{row['self_s']:>11.4f}"
                      f"{row['share']:>8.1%}")
        else:
            times, items = run_untraced(run, args.seconds)
            if not times:
                _log("no job completed")
                return 1
            metrics = end_to_end_metrics(
                setup_times, times, items,
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
            print(f"{workload.name} seed {args.seed}: {len(times)} timed "
                  f"jobs, {len(setup_times)} set-ups; one item = "
                  f"{workload.item}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"fail_ratio = {run.failed}/{run.attempted} = "
          f"{run.failed / run.attempted:.4g}")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
