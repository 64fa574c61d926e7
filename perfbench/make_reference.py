#!/usr/bin/env python3
"""Regenerate reference.json: job summaries of the default seed.

Run from the repository root after a change that is meant to move results:

    python3 perfbench/make_reference.py

Each stored summary holds the exact part (verdicts, pass flags, exit
statuses) and the named scalars that run.py compares, within the relative
tolerances of checks.REL_TOL, against every job of a run on the default
seed.  A job that breaks a seed-independent invariant is not stored.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 0
#: Jobs stored per workload: more than one untraced run completes.
JOBS = {"scan-lorenz": 28, "pipeline-lorenz": 22, "charts-planar": 160}


def main():
    out = HERE.parent / ".bench_build" / "perfbench" / "reference-jobs"
    ref = {"default_seed": DEFAULT_SEED, "workloads": {}}
    for name, count in JOBS.items():
        wl = WORKLOADS[name](DEFAULT_SEED)
        summaries = []
        for i in range(count):
            with contextlib.redirect_stdout(io.StringIO()):
                res = wl.run(i, out / f"{name}-{i}")
            problems = wl.invariants(i, res)
            if problems:
                raise SystemExit(f"{name} job {i}: {problems}")
            summaries.append(res.summary)
            print(f"{name} job {i}: {json.dumps(res.summary)}")
        ref["workloads"][name] = summaries
    shutil.rmtree(out, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")


if __name__ == "__main__":
    main()
