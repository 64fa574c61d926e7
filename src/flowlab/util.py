"""Small shared helpers: frames and deterministic serialization."""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np


def unit(v):
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return v / n


def random_normal(rng, e):
    """A random unit vector perpendicular to the unit vector e: a normal
    draw with its e-component removed, or None when that is below 1e-12."""
    u = rng.normal(size=e.size)
    u = u - np.dot(u, e) * e
    nu = np.linalg.norm(u)
    if nu < 1e-12:
        return None
    return u / nu


def orthonormal_complement(e):
    """Deterministic orthonormal basis of the hyperplane perpendicular to unit e.

    Columns of the returned (d, d-1) matrix are the non-mirror columns of the
    Householder reflection sending e to (-sign(e_0)) * e_1.
    """
    e = unit(e)
    d = e.size
    sign = 1.0 if e[0] >= 0.0 else -1.0
    w = e.copy()
    w[0] += sign
    H = np.eye(d) - 2.0 * np.outer(w, w) / np.dot(w, w)
    return H[:, 1:]


def orthonormalize(M):
    """QR orthonormalization with positive diagonal (deterministic signs)."""
    M = np.asarray(M, dtype=float)
    q, r = np.linalg.qr(M)
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    return q * signs


def mininorm(M):
    """Smallest singular value of a linear map."""
    return float(np.linalg.svd(np.asarray(M, dtype=float), compute_uv=False)[-1])


def opnorm(M):
    return float(np.linalg.norm(np.asarray(M, dtype=float), 2))


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def canonical_json(obj) -> str:
    """Deterministic JSON text: sorted keys, round-trip float repr."""
    return json.dumps(_jsonable(obj), sort_keys=True, indent=2)


def write_json(obj, path):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(canonical_json(obj) + "\n", encoding="utf-8")


def read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def write_csv(path, header, rows):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(header)
        for row in rows:
            w.writerow([_csv_cell(c) for c in row])


def _csv_cell(c):
    if isinstance(c, (float, np.floating)):
        return repr(float(c))
    if isinstance(c, (np.integer,)):
        return int(c)
    if isinstance(c, (np.bool_,)):
        return bool(c)
    return c
