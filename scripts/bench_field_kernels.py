#!/usr/bin/env python3
"""Micro-benchmark of the per-call field kernels the integrators call.

For every builtin field kind, prints microseconds per call of
`func` (one point), `jac` (one point), the variational right-hand side
`_augmented_rhs` and the domain event `_domain_event`, each the best of
five timed batches on one thread.  A second table times one flow layer:
one state-only and one variational solve over SPAN with the domain event,
through flowlab's DOP853 kernel (`fields.solve_ivp`) and through scipy's
`solve_ivp(method="DOP853")`, as microseconds per right-hand-side
evaluation (best of five solves; both make the same evaluations).  A
third table times one state-only stacked solve of the planar saddle over
a chart time, for 36, 432 and 1,800 points, against the same points solved
one chart (36 points) at a time: microseconds per member-RHS evaluation,
that is per right-hand-side evaluation and member (best of five).  Run
from the repository root:

    python3 scripts/bench_field_kernels.py
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import sys
import time
import timeit
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from scipy.integrate import solve_ivp as scipy_solve_ivp  # noqa: E402

from flowlab.fields import (  # noqa: E402
    _augmented_rhs, _batch_domain_event, _domain_event, ivp_options,
    make_field, solve_ivp)

FIELDS = (
    ("linear", [-3.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0, 2.0], [0.3, -0.2, 0.5]),
    ("rotation", (), [1.0, 0.5]),
    ("lorenz", (10.0, 28.0, 8.0 / 3.0), [1.0, 2.0, 20.0]),
    ("saddle_suspension", (1.0, 1.0, 1.0), [0.3, -0.2, 0.5]),
)
CALLS = 20000
REPEATS = 5
SPAN = 2.0
TOL = 1e-9
#: The stacked table: points per chart, stack sizes, and the solve span,
#: the chart radius 1/(10 L) of the saddle at L = 1.05.
CHART_POINTS = 36
STACKS = (36, 432, 1800)
CHART_SPAN = 1.0 / 10.5


def per_call_us(fn, *args):
    best = min(timeit.repeat(lambda: fn(*args), number=CALLS, repeat=REPEATS))
    return 1e6 * best / CALLS


def scipy_dop853(fun, t_span, y0, **kwargs):
    return scipy_solve_ivp(fun, t_span, y0, method="DOP853", **kwargs)


def per_eval_us(solver, rhs, y0, event):
    """(nfev, best microseconds per RHS evaluation) of one solve."""
    event.terminal = True  # scipy's flag; flowlab's event is terminal
    best, nfev = float("inf"), 0
    for _ in range(REPEATS):
        start = time.perf_counter()
        nfev = solver(rhs, (0.0, SPAN), y0, **ivp_options(TOL),
                      events=event).nfev
        best = min(best, time.perf_counter() - start)
    return nfev, 1e6 * best / nfev


def stack_nfev(field, points):
    """The RHS evaluations of one stacked state-only solve of the points
    (k, d) over CHART_SPAN, each point a member of the solve."""
    d = field.dimension
    return solve_ivp(lambda t, y: field.func(y.reshape(-1, d)).ravel(),
                     (0.0, CHART_SPAN), points, **ivp_options(TOL),
                     events=_batch_domain_event(field)).nfev


def per_member_eval_us(field, stacks):
    """(total nfev, best microseconds per member-RHS evaluation) of one
    solve per stack of points."""
    best, evals = float("inf"), 0
    for _ in range(REPEATS):
        start = time.perf_counter()
        nfevs = [stack_nfev(field, points) for points in stacks]
        best = min(best, time.perf_counter() - start)
        evals = sum(n * len(points) for n, points in zip(nfevs, stacks))
    return sum(nfevs), 1e6 * best / evals


def main():
    print(f"{'kind':<18} {'func':>8} {'jac':>8} {'aug_rhs':>8} {'event':>8}  (us/call)")
    for kind, params, point in FIELDS:
        field = make_field(kind, params)
        x = np.array(point)
        d = field.dimension
        y = np.concatenate([x, np.eye(d).ravel()])
        row = (per_call_us(field.func, x), per_call_us(field.jac, x),
               per_call_us(_augmented_rhs(field), 0.0, y),
               per_call_us(_domain_event(field), 0.0, x))
        print(f"{kind:<18} " + " ".join(f"{v:8.2f}" for v in row))
    print()
    print(f"{'kind':<18} {'solve':<12} {'nfev':>6} {'flowlab':>8} "
          f"{'scipy':>8}  (us/RHS evaluation)")
    for kind, params, point in FIELDS:
        field = make_field(kind, params)
        x = np.array(point)
        d = field.dimension
        for name, rhs, y0 in (
                ("state", lambda t, y: field.func(y), x),
                ("variational", _augmented_rhs(field),
                 np.concatenate([x, np.eye(d).ravel()]))):
            row = [per_eval_us(solver, rhs, y0, _domain_event(field))
                   for solver in (solve_ivp, scipy_dop853)]
            (nfev, mine), (_, ref) = row
            print(f"{kind:<18} {name:<12} {nfev:>6} {mine:8.2f} {ref:8.2f}")
    print()
    print(f"{'points':>6} {'nfev':>6} {'stacked':>8} {'nfev':>6} "
          f"{'charts':>8}  (us/member-RHS evaluation, saddle)")
    field = make_field("linear", (1.0, 0.0, 0.0, -1.0))
    rng = np.random.default_rng(0)
    for k in STACKS:
        points = rng.uniform([0.4, -1.5], [2.0, 1.5], size=(k, 2))
        charts = [points[i:i + CHART_POINTS]
                  for i in range(0, k, CHART_POINTS)]
        n_stack, stacked = per_member_eval_us(field, [points])
        n_charts, alone = per_member_eval_us(field, charts)
        print(f"{k:>6} {n_stack:>6} {stacked:8.3f} {n_charts:>6} "
              f"{alone:8.3f}")


if __name__ == "__main__":
    main()
