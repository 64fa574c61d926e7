"""Brute-force reference implementations that the tests compare against.

Each one computes the same quantity as a flowlab function by exhaustive
search, with none of its algorithm: `brute_force_bottleneck` against
`reparam.lattice_bottleneck`, `angle_brute` against `blockseq.angle`.
"""

import numpy as np

from flowlab.errors import NoPathError
from flowlab.util import orthonormalize

_STEPS = ((1, 0), (0, 1), (1, 1))


def brute_force_bottleneck(cost):
    """Exhaustive enumeration of monotone staircase paths (oracle).

    Same path convention as `lattice_bottleneck`: every time row covered,
    free theta columns at both ends.
    """
    cost = np.asarray(cost, dtype=float)
    m, n = cost.shape
    best = [np.inf]

    def walk(i, j, cur):
        cur = max(cur, cost[i, j])
        if cur >= best[0]:
            return
        if i == m - 1:
            best[0] = cur
            # moving right inside the last row can only add cost; stop here
            return
        for di, dj in _STEPS:
            if i + di < m and j + dj < n:
                walk(i + di, j + dj, cur)

    for j0 in range(n):
        walk(0, j0, -np.inf)
    if not np.isfinite(best[0]):
        raise NoPathError("all monotone lattice paths are blocked")
    return float(best[0])


def angle_brute(S, U, n_grid=2000, seed=0):
    """Grid minimization of |u - v| over the unit spheres (oracle)."""
    S = orthonormalize(np.atleast_2d(np.asarray(S, dtype=float)))
    U = orthonormalize(np.atleast_2d(np.asarray(U, dtype=float)))
    rng = np.random.default_rng(seed)

    def side(A, B):
        # min over unit u in span(A) of distance to span(B)
        k = A.shape[1]
        if k == 1:
            dirs = np.array([[1.0], [-1.0]])
        elif k == 2:
            ts = np.linspace(0.0, 2.0 * np.pi, n_grid, endpoint=False)
            dirs = np.stack([np.cos(ts), np.sin(ts)], axis=1)
        else:
            dirs = rng.normal(size=(n_grid, k))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        best = np.inf
        for a in dirs:
            u = A @ a
            resid = u - B @ (B.T @ u)
            best = min(best, float(np.linalg.norm(resid)))
        return best

    return min(side(S, U), side(U, S))
