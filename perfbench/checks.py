"""Output checks of benchmark jobs.

A job's summary has two parts: ``exact`` (verdicts, pass flags, exit
statuses, counts) must equal the reference exactly; ``scalars`` (margins,
measured constants) must agree within a relative tolerance, so that a later
numerics change may move digits but never a verdict.
"""

from __future__ import annotations

import math

#: Relative tolerance per scalar name.  Scalars that come from finite
#: differences of integrated states (chart derivative bounds, the sampled
#: Lipschitz constant behind kappa) carry integration error divided by a
#: small step, so they get a looser bound than direct margins.
REL_TOL = {
    "default": 1e-6,
    "max_dev": 1e-3,
    "min_mininorm": 1e-3,
    "max_norm": 1e-3,
    "kappa": 1e-3,
}


def _close(got, want, rel):
    if isinstance(got, bool) or not isinstance(got, (int, float)):
        return False
    if not (math.isfinite(got) and math.isfinite(want)):
        return got == want
    return abs(got - want) <= rel * max(abs(want), 1e-300)


def compare_summary(summary, reference):
    """Problems (empty when the summary matches the reference)."""
    problems = []
    if summary["exact"] != reference["exact"]:
        for key in sorted(set(summary["exact"]) | set(reference["exact"])):
            got = summary["exact"].get(key)
            want = reference["exact"].get(key)
            if got != want:
                problems.append(f"{key}: got {got!r}, reference {want!r}")
    for key, want in reference["scalars"].items():
        got = summary["scalars"].get(key)
        rel = REL_TOL.get(key.rsplit(".", 1)[-1], REL_TOL["default"])
        if got is None or not _close(got, want, rel):
            problems.append(f"{key}: got {got!r}, reference {want!r} "
                            f"(relative tolerance {rel:g})")
    return problems


def compare_reports(first, second):
    """Problems when two report.json byte strings differ (C10 invariant)."""
    if first == second:
        return []
    return [f"report.json differs between repeated runs of one job "
            f"({len(first)} vs {len(second)} bytes)"]
