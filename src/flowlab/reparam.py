"""Time reparametrizations, rescaled shadowing distances and drift bounds.

A reparametrization is a strictly increasing piecewise-linear time change
with unit slope beyond its knots.  The fitter searches monotone staircase
paths on a lattice of time pairs for the one minimizing the maximum
rescaled distance (a bottleneck objective), exactly for the discretization.
The drift check verifies that shadowing at the admissible level forces the
time change to be nearly a translation, interval by interval.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (CrossingError, DomainError, EscapeError, HypothesisError,
                     NoPathError, SingularityError)
from .fields import (Box, effective_lipschitz, estimate_lipschitz,
                     flow_points, speed, speeds)
from .flowbox import chart_radius, flowbox_invert, make_chart
from .poincare import section_radius, sectional_value, target_chart
from .util import random_normal, write_csv


@dataclass(frozen=True)
class Reparametrization:
    """Strictly increasing piecewise-linear time change, slope 1 outside."""

    knots: np.ndarray  # (k, 2): columns (t, theta)

    def __post_init__(self):
        k = np.atleast_2d(np.asarray(self.knots, dtype=float))
        object.__setattr__(self, "knots", k)
        if k.shape[1] != 2 or k.shape[0] < 1:
            raise DomainError("knots must be a (k, 2) array")
        if np.any(np.diff(k[:, 0]) <= 0) or np.any(np.diff(k[:, 1]) <= 0):
            raise DomainError("knots must be strictly increasing in both coordinates")

    @classmethod
    def identity(cls):
        return cls.shift(0.0)

    @classmethod
    def shift(cls, s):
        return cls(np.array([[0.0, s], [1.0, 1.0 + s]]))

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        ts, th = self.knots[:, 0], self.knots[:, 1]
        out = np.interp(t, ts, th)
        out = np.where(t < ts[0], th[0] + (t - ts[0]), out)
        out = np.where(t > ts[-1], th[-1] + (t - ts[-1]), out)
        return float(out) if out.ndim == 0 else out

    def inverse(self, value):
        value = np.asarray(value, dtype=float)
        ts, th = self.knots[:, 0], self.knots[:, 1]
        out = np.interp(value, th, ts)
        out = np.where(value < th[0], ts[0] + (value - th[0]), out)
        out = np.where(value > th[-1], ts[-1] + (value - th[-1]), out)
        return float(out) if out.ndim == 0 else out


def rescaled_sup_distance(field, x, y, theta, horizon, n_samples, tol=1e-9):
    """Max over a uniform grid of d(phi_t(x), phi_theta(t)(y)) / |X(phi_t(x))|."""
    lo, hi = float(horizon[0]), float(horizon[1])
    if n_samples < 2:
        raise DomainError("need at least two samples")
    grid = np.linspace(lo, hi, n_samples)
    xs = flow_points(field, x, grid, tol)
    ys = flow_points(field, y, theta(grid), tol)
    sx = speeds(field, xs)
    floor = field.singular_speed()
    if np.any(sx <= floor):
        t_bad = float(grid[int(np.argmin(sx))])
        raise SingularityError(f"base orbit is singular at t={t_bad}", time=t_bad)
    dist = np.linalg.norm(xs - ys, axis=1)
    return float(np.max(dist / sx))


# ---------------------------------------------------------------------------
# bottleneck lattice fitting


def lattice_bottleneck(cost):
    """DP over monotone staircase paths; returns (objective, path).

    A path takes steps (1,0), (0,1), (1,1), must visit every time row
    (start in row 0, end in row m-1) and may start and end at any theta
    column; the objective is the max cost along the path.  Exact for the
    lattice.
    """
    cost = np.asarray(cost, dtype=float)
    m, n = cost.shape
    val = np.full((m, n), np.inf)
    val[0, :] = cost[0, :]
    for i in range(1, m):
        for j in range(n):
            best = val[i - 1, j]
            if j > 0:
                best = min(best, val[i, j - 1], val[i - 1, j - 1])
            val[i, j] = max(best, cost[i, j])
    j_end = int(np.argmin(val[m - 1, :]))
    if not np.isfinite(val[m - 1, j_end]):
        raise NoPathError("all monotone lattice paths are blocked")
    # deterministic backtrack: prefer the diagonal, then down, then left
    path = [(m - 1, j_end)]
    i, j = m - 1, j_end
    while i > 0:
        cands = []
        if j > 0:
            cands.append((val[i - 1, j - 1], (i - 1, j - 1)))
        cands.append((val[i - 1, j], (i - 1, j)))
        if j > 0:
            cands.append((val[i, j - 1], (i, j - 1)))
        _, (i, j) = min(cands, key=lambda c: c[0])
        path.append((i, j))
    path.reverse()
    return float(val[m - 1, j_end]), path


def _monotone_knots(t_vals, theta_vals):
    """Strictly monotone knot subsequence through the path corners."""
    knots = [[t_vals[0], theta_vals[0]]]
    for t, th in zip(t_vals[1:], theta_vals[1:]):
        last = knots[-1]
        if t > last[0] and th > last[1]:
            knots.append([t, th])
        elif t == last[0] and th > last[1]:
            last[1] = th
        elif th == last[1] and t > last[0]:
            last[0] = t
    return np.asarray(knots)


def fit_reparametrization(field, x, y, t_nodes, theta_nodes, *,
                          rescale=True, tol=1e-9, x_states=None,
                          y_states=None):
    """Best piecewise-linear time change over a lattice of time pairs.

    The lattice pairs `t_nodes` (m,) with `theta_nodes` of shape (n,) (a
    rectangular grid) or (m, n); a sheared lattice
    `theta_nodes[i, j] = t_nodes[i] + offset_j` refines around the identity.

    `x_states` (m, d), when given, are the states of x at `t_nodes`, and
    `y_states` (m * n or (m, n), d) those of y at the lattice times; a
    caller that holds them saves the solves.

    Returns (Reparametrization, bottleneck objective).  The objective is the
    exact optimum over lattice paths; the returned theta interpolates the
    strictly monotone corners of the optimal path.
    """
    t_nodes = np.asarray(t_nodes, dtype=float)
    theta_nodes = np.asarray(theta_nodes, dtype=float)
    theta_mat = np.broadcast_to(theta_nodes,
                                (t_nodes.size, theta_nodes.shape[-1]))
    m, n = theta_mat.shape

    xs = flow_points(field, x, t_nodes, tol) if x_states is None else x_states
    ys = (flow_points(field, y, theta_mat.ravel(), tol) if y_states is None
          else y_states).reshape(m, n, -1)
    sx = speeds(field, xs)
    cost = np.linalg.norm(xs[:, None, :] - ys, axis=2)
    if rescale:
        floor = field.singular_speed()
        safe = sx > floor
        cost = np.where(safe[:, None], cost / np.maximum(sx, floor)[:, None], np.inf)

    value, path = lattice_bottleneck(cost)
    tv = np.array([t_nodes[i] for i, _ in path])
    thv = np.array([theta_mat[i, j] for i, j in path])
    knots = _monotone_knots(tv, thv)
    return Reparametrization(knots), value


# ---------------------------------------------------------------------------
# admissible shadowing level and drift bounds


def estimate_speed_ratio_constant(field, region: Box, seed=0) -> float:
    """Largest sampled relative distance c with |X| staying within a factor 2.

    Pairs (z, z') with d(z, z') < c |X(z)| must satisfy
    (1/2)|X(z)| < |X(z')| < 2|X(z)|, tested on 2048 sampled pairs.  The
    sampled estimate is halved; the analytic floor 1/(2 L_eff) (valid by the
    Lipschitz bound, from 256 Jacobian samples) is kept.
    """
    rng = np.random.default_rng(seed)
    L = estimate_lipschitz(field, region, 256, seed=seed)
    floor = 0.5 / effective_lipschitz(L)
    pts = region.sample(rng, 2048)
    rel_max = 50.0 * floor
    worst = rel_max
    sing = field.singular_speed()
    for z in pts:
        sz = speed(field, z)
        if sz <= sing:
            continue
        rho = np.exp(rng.uniform(np.log(0.1 * floor), np.log(rel_max)))
        u = rng.normal(size=field.dimension)
        z2 = z + rho * sz * u / np.linalg.norm(u)
        s2 = speed(field, z2)
        if not (0.5 * sz < s2 < 2.0 * sz):
            worst = min(worst, rho)
    return max(floor, 0.5 * worst)


def admissible_delta(epsilon, L, c) -> float:
    """Shadowing level at which the drift bound |theta(T)-theta(0)-T| <= eps*T holds."""
    Leff = effective_lipschitz(L)
    r0 = chart_radius(L)
    g = np.exp(2.0 * Leff * r0)
    return float(min(r0 / (6.0 * g), c / (18.0 * g),
                     epsilon * r0 / (12.0 * (3.0 + 18.0 * g))))


def _subdivision(T, r0):
    """Interval count with lengths in [r0/2, r0) when T >= r0, else 1."""
    if T < r0:
        return 1
    return max(2, int(np.floor(2.0 * T / r0)))


@dataclass
class DriftReport:
    T: float
    epsilon: float
    delta_used: float
    measured_sup: float
    drift: float
    prefix_drifts: list
    n_intervals: int
    bound_ok: bool
    surjectivity_ok: bool


def drift_bounds_check(field, x, y, theta, T, epsilon, L, c,
                       tol=1e-9) -> DriftReport:
    """Verify the near-translation property of theta under delta-shadowing.

    Checks the rescaled sup over 64 times of [0, T] against the admissible
    level delta(epsilon) of L and c (HypothesisError when exceeded), and
    verifies |theta(T_i) - theta(0) - T_i| <= eps * T_i at the subdivision
    points T_i (lengths in [r0/2, r0)) together with the surjectivity proxy
    theta(T) - theta(0) >= (1 - eps) T.
    """
    delta = admissible_delta(epsilon, L, c)
    sup = rescaled_sup_distance(field, x, y, theta, (0.0, T), 64, tol)
    if sup > delta:
        raise HypothesisError(
            f"measured rescaled sup {sup:.3e} exceeds delta(eps)={delta:.3e}",
            measured_sup=sup)
    r0 = chart_radius(L)
    n_int = _subdivision(T, r0)
    cuts = np.linspace(0.0, T, n_int + 1)[1:]
    th0 = theta(0.0)
    drifts = [float(abs(theta(ti) - th0 - ti)) for ti in cuts]
    bound_ok = all(dr <= epsilon * ti * (1.0 + 1e-12) + 1e-15
                   for dr, ti in zip(drifts, cuts))
    surj_ok = (theta(T) - th0) >= (1.0 - epsilon) * T - 1e-15
    return DriftReport(T=float(T), epsilon=float(epsilon), delta_used=delta,
                       measured_sup=sup, drift=drifts[-1],
                       prefix_drifts=drifts, n_intervals=n_int,
                       bound_ok=bool(bound_ok), surjectivity_ok=bool(surj_ok))


def identity_offsets(delta):
    """Sheared-lattice offset column: 17 offsets in [-2 delta, 2 delta]."""
    return np.linspace(-2.0 * delta, 2.0 * delta, 17)


@dataclass
class DriftTrial:
    index: int
    delta: float
    perturbation: float
    measured_sup: float
    drift: float
    bound_ok: bool


def drift_trials(field, region: Box, epsilon, T, n_trials, seed=0,
                 tol=1e-9, *, L):
    """Randomized shadowing pairs at the delta(eps) level with fitted theta.

    delta(eps) uses L and the speed ratio constant c estimated on the
    region.  y starts as a normal perturbation of x of rescaled size delta/2
    and is halved until theta, fitted on 9 time nodes x 17 offsets, certifies
    the shadowing hypothesis; the drift report of every trial is returned.
    """
    rng = np.random.default_rng(seed)
    c = estimate_speed_ratio_constant(field, region, seed=seed)
    delta = admissible_delta(epsilon, L, c)
    offsets = identity_offsets(delta)
    t_nodes = np.linspace(0.0, T, 9)
    trials = []
    made = 0
    attempts = 0
    while made < n_trials and attempts < 50 * n_trials:
        attempts += 1
        x = region.sample(rng, 1)[0]
        sx = speed(field, x)
        if sx <= 1e3 * field.singular_speed() or not field.domain.contains(x):
            continue
        u = random_normal(rng, np.asarray(field.func(x), dtype=float) / sx)
        if u is None:
            continue
        rho = 0.5 * delta
        result = None
        for _ in range(8):
            y = x + rho * sx * u
            # an x near a face can push y out; such a trial is dropped, as
            # when y's orbit leaves the domain
            if not field.domain.contains(y, slack=1e-12):
                break
            try:
                theta, _ = fit_reparametrization(
                    field, x, y, t_nodes=t_nodes,
                    theta_nodes=t_nodes[:, None] + offsets[None, :], tol=tol)
                rep = drift_bounds_check(field, x, y, theta, T, epsilon,
                                         L, c, tol=tol)
                result = (rho, rep)
                break
            except HypothesisError:
                rho *= 0.5
            except (EscapeError, SingularityError):
                break
        if result is None:
            continue
        rho, rep = result
        trials.append(DriftTrial(index=made, delta=delta, perturbation=rho,
                                 measured_sup=rep.measured_sup,
                                 drift=rep.drift, bound_ok=rep.bound_ok))
        made += 1
    if made < n_trials:
        raise DomainError("could not generate enough admissible shadowing pairs")
    return trials


def trials_to_csv(trials, path):
    write_csv(path, ["trial", "delta", "drift", "bound_ok"],
              [[t.index, t.delta, t.drift, t.bound_ok] for t in trials])


# ---------------------------------------------------------------------------
# section crossing sequences


@dataclass
class CrossingItem:
    k: int
    T_k: float
    u: np.ndarray
    t_offset: float
    node: np.ndarray


@dataclass
class CrossingSequenceResult:
    items: list
    delta: float
    bounds_ok: bool
    section_identity_ok: bool
    max_u_rel: float
    max_t_offset: float
    max_section_defect: float
    max_normal_residual: float   # how far phi_theta(T_k)(y) is from node + u_k


def crossing_sequence(field, x, y, theta, T, k_range, L,
                      tol=1e-9) -> CrossingSequenceResult:
    """Times T_k at which the shadowing orbit cuts the normal sections.

    delta, the pair's rescaled sup over 64 times of [min kT, max kT], must
    lie below r0/12 and r1(T)/3 (HypothesisError otherwise).  For each k,
    phi_theta(kT)(y) is chart-inverted at phi_kT(x) into (u_k, t_k); T_k
    solves theta(T_k) = theta(kT) - t_k on the piecewise-linear theta.  The
    result records the bounds |u_k| <= 3 delta |X(phi_kT(x))|,
    |t_k| <= 3 delta and the section-to-section identity
    P_{phi_kT(x),T}(u_k) = u_{k+1} (relative defect at most 1e-6).
    """
    ks = sorted(int(k) for k in k_range)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r0 = chart_radius(L)
    r1 = section_radius(T, L)
    lo_t, hi_t = min(ks) * T, max(ks) * T
    delta = rescaled_sup_distance(field, x, y, theta, (lo_t, hi_t), 64, tol)
    if not (delta < r0 / 12.0):
        raise HypothesisError(
            f"delta={delta:.3e} is not below r0/12={r0/12:.3e}",
            measured_sup=delta)
    if not (delta < r1 / 3.0):
        raise HypothesisError(
            f"delta={delta:.3e} is not below r1(T)/3={r1/3:.3e}",
            measured_sup=delta)

    nodes = flow_points(field, x, [k * T for k in ks], tol)
    y_pts = flow_points(field, y, [theta(k * T) for k in ks], tol)
    items = []
    max_u = 0.0
    max_t = 0.0
    for idx, k in enumerate(ks):
        chart = make_chart(field, nodes[idx], L)
        try:
            u, tk = flowbox_invert(chart, y_pts[idx], tol=tol)
        except Exception as exc:  # noqa: BLE001 - annotate the failing index
            raise CrossingError(f"chart inversion failed at k={k}: {exc}", k=k) from exc
        T_k = float(theta.inverse(theta(k * T) - tk))
        items.append(CrossingItem(k=k, T_k=T_k, u=u, t_offset=float(tk),
                                  node=nodes[idx]))
        max_u = max(max_u, np.linalg.norm(u) / chart.speed)
        max_t = max(max_t, abs(tk))
    # the shadowing orbit really cuts the sections: phi_theta(T_k)(y)
    # equals node + u_k up to integration error
    cut_pts = flow_points(field, y, [theta(it.T_k) for it in items], tol)
    max_resid = max(
        float(np.linalg.norm(cut - (it.node + it.u))
              / speed(field, it.node))
        for cut, it in zip(cut_pts, items))

    bounds_ok = max_u <= 3.0 * delta * (1.0 + 1e-9) and \
        max_t <= 3.0 * delta * (1.0 + 1e-9)
    max_defect = 0.0
    ok_sections = True
    for idx in range(len(ks) - 1):
        if ks[idx + 1] != ks[idx] + 1:
            continue
        it, it_next = items[idx], items[idx + 1]
        value, _ = sectional_value(field, it.node, T, it.u,
                                   target_chart(field, it.node, T, L, tol),
                                   tol)
        s_next = speed(field, it_next.node)
        defect = np.linalg.norm(value - it_next.u) / s_next
        max_defect = max(max_defect, float(defect))
        if defect > 1e-6:
            ok_sections = False
    return CrossingSequenceResult(items=items, delta=float(delta),
                                  bounds_ok=bool(bounds_ok),
                                  section_identity_ok=bool(ok_sections),
                                  max_u_rel=float(max_u),
                                  max_t_offset=float(max_t),
                                  max_section_defect=max_defect,
                                  max_normal_residual=max_resid)
