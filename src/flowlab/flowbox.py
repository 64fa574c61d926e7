"""Rescaled tangent-box charts around regular points.

The chart at a regular point x maps the box
    { v + t*X(x) : v normal to X(x), |v| <= r0*|X(x)|, |t| <= r0 }
into the phase space by flowing the normal translate x+v for time t, with
the uniform relative radius r0 = 1/(10 L).  On Euclidean charts the map is
an embedding with |D F - id| <= 1/2, mininorm >= 1/2 and norm <= 2, and its
image contains no singularities; `verify_box_bounds` measures all of this
with finite differences, for all the charts of a run at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (BoxBoundsError, DomainError, EscapeError,
                     NotInBoxError, SingularityError)
from .fields import (effective_lipschitz, flow, flow_states_batch, speed,
                     speeds)
from .util import orthonormal_complement, unit


#: Allowance for finite-difference error on each verified chart bound.
FD_SLACK = 1e-3


def chart_radius(L: float) -> float:
    """Relative chart radius r0 = 1/(10 L_eff)."""
    return 1.0 / (10.0 * effective_lipschitz(L))


@dataclass(frozen=True)
class FlowboxChart:
    field: object
    base: np.ndarray
    L: float
    r0: float
    speed: float
    flow_dir: np.ndarray       # X(x)/|X(x)|
    frame: np.ndarray          # (d, d-1), orthonormal, perpendicular to flow_dir

    @property
    def v_radius(self):
        return self.r0 * self.speed


def make_chart(field, x, L) -> FlowboxChart:
    x = np.asarray(x, dtype=float)
    s = speed(field, x)
    if s <= field.singular_speed():
        raise SingularityError(f"chart base {x.tolist()} is singular")
    e = unit(np.asarray(field.func(x), dtype=float))
    return FlowboxChart(field=field, base=x, L=float(L), r0=chart_radius(L),
                        speed=s, flow_dir=e, frame=orthonormal_complement(e))


def _check_in_box(chart, v, t, slack=1e-9):
    v = np.asarray(v, dtype=float)
    nv = np.linalg.norm(v)
    if nv > chart.v_radius * (1.0 + slack):
        raise BoxBoundsError(
            f"|v|={nv:.3e} exceeds box radius {chart.v_radius:.3e}")
    if abs(t) > chart.r0 * (1.0 + slack):
        raise BoxBoundsError(f"|t|={abs(t):.3e} exceeds r0={chart.r0:.3e}")
    if nv > 0 and abs(np.dot(v, chart.flow_dir)) > 1e-9 * nv:
        raise BoxBoundsError("v is not perpendicular to the flow direction")
    return v


def flowbox_invert(chart: FlowboxChart, y, tol=1e-9):
    """Unique chart preimage (v, t) of y, by Newton iteration.

    The v component is the normal-section projection of y.  Points without a
    preimage in the box raise NotInBoxError (residual above 1e-10 |X(x)| after
    50 Newton steps, or a converged preimage outside the box bounds).
    """
    y = np.asarray(y, dtype=float)
    d = chart.field.dimension
    dy = y - chart.base
    c = chart.frame.T @ dy
    t = float(np.dot(dy, chart.flow_dir) / chart.speed)
    target = 1e-10 * chart.speed
    # generous iteration bounds; the box check below is the real gate
    c = np.clip(c, -2.0 * chart.v_radius, 2.0 * chart.v_radius)
    t = float(np.clip(t, -2.0 * chart.r0, 2.0 * chart.r0))
    for _ in range(50):
        point = chart.base + chart.frame @ c
        state, Phi = flow(chart.field, point, t, tol)
        r = state - y
        if np.linalg.norm(r) <= target:
            break
        J = np.empty((d, d))
        J[:, :d - 1] = Phi @ chart.frame
        J[:, d - 1] = np.asarray(chart.field.func(state), dtype=float)
        try:
            step = np.linalg.solve(J, r)
        except np.linalg.LinAlgError:
            raise NotInBoxError("Newton Jacobian is singular") from None
        c = c - step[:d - 1]
        t = float(t - step[d - 1])
    else:
        raise NotInBoxError(
            f"Newton did not converge in 50 steps (residual "
            f"{np.linalg.norm(r):.3e} > {target:.3e})")
    v = chart.frame @ c
    try:
        _check_in_box(chart, v, t)
    except BoxBoundsError as exc:
        raise NotInBoxError(f"converged preimage outside the box: {exc}") from None
    return v, t


# ---------------------------------------------------------------------------
# derivative-bound verification


@dataclass
class BoxBoundsReport:
    base: np.ndarray
    r0: float
    speed: float
    max_dev_from_id: float
    min_mininorm: float
    max_norm: float
    no_singularity: bool
    bounds_ok: bool
    fd_slack: float
    witnesses: list

    def to_json_dict(self):
        return {
            "base": self.base.tolist(),
            "r0": self.r0,
            "speed": self.speed,
            "max_dev": self.max_dev_from_id,
            "min_mininorm": self.min_mininorm,
            "max_norm": self.max_norm,
            "no_singularity": self.no_singularity,
            "bounds_ok": self.bounds_ok,
            "fd_slack": self.fd_slack,
            "witnesses": self.witnesses,
        }


def _ball_grid(chart, grid):
    """Grid over the tangent box: cube nodes with the normal part radially
    clamped into the ball |v| <= r0*|X(x)|."""
    d = chart.field.dimension
    axis = np.linspace(-1.0, 1.0, grid)
    vs = np.stack(np.meshgrid(*([axis] * (d - 1)), indexing="ij"),
                  axis=-1).reshape(-1, d - 1)
    norms = np.linalg.norm(vs, axis=1)
    scale = np.where(norms > 1.0, 1.0 / np.maximum(norms, 1e-300), 1.0)
    vs = vs * scale[:, None] * chart.v_radius
    ts = axis * chart.r0
    return vs, ts


def _time_frames(field, pts, ts, ht, tol):
    """States of the point stack at t - ht, t and t + ht for every t node,
    as (n_t, 3, n_pts, d).

    One `flow_states_batch` solve per time sign over the whole stack (the
    points of every chart of a check), whose `t_eval` holds every time of
    that sign ordered by |t| (the grid has nodes of both signs); time 0 is
    the stack itself.  Each point is a member of the solve, held to `tol`
    on its own.
    """
    times = ts[:, None] + np.array([-ht, 0.0, ht])
    frames = np.empty(times.shape + pts.shape)
    frames[times == 0.0] = pts
    for sign in (-1.0, 1.0):
        side = sign * times > 0.0
        mags, inv = np.unique(sign * times[side], return_inverse=True)
        tev = sign * mags
        frames[side] = flow_states_batch(field, pts, tev[-1], tol,
                                         t_eval=tev)[inv]
    return frames


def _grid_points(chart, vs):
    """For every v node the center point plus the 2(d-1) normal-step
    points, (n_v * (2d - 1), d)."""
    hv = 1e-5 * chart.v_radius
    pts = []
    for v in vs:
        p0 = chart.base + chart.frame @ v
        pts.append(p0)
        for k in range(chart.field.dimension - 1):
            step = hv * chart.frame[:, k]
            pts.append(p0 + step)
            pts.append(p0 - step)
    return np.asarray(pts)


def verify_box_bounds(charts, grid: int, tol=1e-9) -> list:
    """Finite-difference check of the chart derivative bounds on a grid,
    one BoxBoundsReport per chart, in order.

    Central differences with steps 1e-5 * r0 * |X(x)| (normal directions) and
    1e-5 * r0 (time direction); each bound is met within FD_SLACK.
    Violations are reported with their witness node, never raised.

    Charts that share their field and r0 (all the charts of one run) share
    the t nodes of their grids, so they form one stack: the points of all
    its charts are flowed in one solve per time sign to the frames at
    t - ht, t and t + ht of every t node, each point under its own error
    control.  Each chart's derivatives at all its nodes are then measured
    in one stacked pass: one norm, one SVD and one image-speed evaluation
    over its (n_t, n_v) node grid.  If a point leaves the domain,
    EscapeError names its chart by the index in `charts` (`row`), and no
    chart is reported.
    """
    if grid < 2:
        raise DomainError("grid must be >= 2")
    stacks = {}
    for i, chart in enumerate(charts):
        stacks.setdefault((id(chart.field), chart.r0), []).append(i)
    reports = [None] * len(charts)
    for rows in stacks.values():
        stack = [charts[i] for i in rows]
        field, r0 = stack[0].field, stack[0].r0
        grids = [_ball_grid(chart, grid) for chart in stack]
        ts, ht = grids[0][1], 1e-5 * r0
        pts = [_grid_points(chart, vs) for chart, (vs, _) in zip(stack, grids)]
        try:
            frames = _time_frames(field, np.concatenate(pts), ts, ht, tol)
        except EscapeError as exc:
            raise EscapeError(str(exc), exc.exit_time,
                              row=rows[exc.row // len(pts[0])]) from None
        frames = frames.reshape(ts.size, 3, len(stack), -1, field.dimension)
        for c, (i, (vs, _)) in enumerate(zip(rows, grids)):
            reports[i] = _measure(charts[i], vs, ts, ht, frames[:, :, c])
    return reports


def _measure(chart, vs, ts, ht, frames):
    """The report of one chart from its frames (n_t, 3, n_v * (2d - 1), d)."""
    field = chart.field
    d = field.dimension
    hv = 1e-5 * chart.v_radius
    Q = np.column_stack([chart.frame, chart.flow_dir])
    frames = frames.reshape(ts.size, 3, len(vs), 2 * (d - 1) + 1, d)
    M = np.empty((ts.size, len(vs), d, d))
    M[..., :d - 1] = ((frames[:, 1, :, 1::2] - frames[:, 1, :, 2::2])
                      / (2.0 * hv)).swapaxes(-2, -1)
    M[..., d - 1] = ((frames[:, 2, :, 0] - frames[:, 0, :, 0]) / (2.0 * ht)
                     / chart.speed)
    dev = np.linalg.norm(M - Q, 2, axis=(-2, -1))
    sv = np.linalg.svd(M, compute_uv=False)
    mini, norm = sv[..., -1], sv[..., 0]
    img_speed = speeds(field,
                       frames[:, 1, :, 0].reshape(-1, d)).reshape(dev.shape)
    # NaN-blind folds, like the builtin max and min over nodes
    max_dev = max(0.0, float(np.fmax.reduce(dev, axis=None)))
    min_mini = min(np.inf, float(np.fmin.reduce(mini, axis=None)))
    max_norm = max(0.0, float(np.fmax.reduce(norm, axis=None)))
    sing = img_speed <= field.singular_speed()
    no_sing = not np.any(sing)
    bad = ((dev > 0.5 + FD_SLACK) | (mini < 0.5 - FD_SLACK)
           | (norm > 2.0 + FD_SLACK) | sing)
    witnesses = [{"v": (chart.frame @ vs[m]).tolist(), "t": float(ts[i]),
                  "dev": float(dev[i, m]), "mininorm": float(mini[i, m]),
                  "norm": float(norm[i, m]),
                  "image_speed": float(img_speed[i, m])}
                 for i, m in zip(*np.nonzero(bad))]

    bounds_ok = (max_dev <= 0.5 + FD_SLACK and min_mini >= 0.5 - FD_SLACK
                 and max_norm <= 2.0 + FD_SLACK and no_sing)
    return BoxBoundsReport(base=chart.base, r0=chart.r0, speed=chart.speed,
                           max_dev_from_id=max_dev, min_mininorm=min_mini,
                           max_norm=max_norm, no_singularity=no_sing,
                           bounds_ok=bounds_ok, fd_slack=FD_SLACK,
                           witnesses=witnesses)
