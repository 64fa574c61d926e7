#!/usr/bin/env python3
"""Micro-benchmark of the per-call field kernels the integrators call.

For every builtin field kind, prints microseconds per call of
`func` (one point), `jac` (one point), the variational right-hand side
`_augmented_rhs` and the domain event `_domain_event`, each the best of
five timed batches on one thread.  Run from the repository root:

    python3 scripts/bench_field_kernels.py
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import sys
import timeit
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from flowlab.fields import _augmented_rhs, _domain_event, make_field  # noqa: E402

FIELDS = (
    ("linear", [-3.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0, 2.0], [0.3, -0.2, 0.5]),
    ("rotation", (), [1.0, 0.5]),
    ("lorenz", (10.0, 28.0, 8.0 / 3.0), [1.0, 2.0, 20.0]),
    ("saddle_suspension", (1.0, 1.0, 1.0), [0.3, -0.2, 0.5]),
)
CALLS = 20000
REPEATS = 5


def per_call_us(fn, *args):
    best = min(timeit.repeat(lambda: fn(*args), number=CALLS, repeat=REPEATS))
    return 1e6 * best / CALLS


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


if __name__ == "__main__":
    main()
