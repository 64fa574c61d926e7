"""Reference implementations and checks that only the tests use.

Brute-force oracles compute the same quantity as a flowlab function by
exhaustive search, with none of its algorithm: `brute_force_bottleneck`
against `reparam.lattice_bottleneck`, `angle_brute` against
`blockseq.angle`.  `verify_box_bounds_loop` is the per-node loop form of
`flowbox.verify_box_bounds`: the same arithmetic, one grid node at a time.
`estimate_lipschitz_loop` is the per-sample loop form of
`fields.estimate_lipschitz`.  `domination_entries_loop` is
`hyperbolic.check_domination`'s entries computed as two `psi_ambient` and
three `evaluate_cocycle` calls per (node, t), each with its own flow.
`evolve_direction` moves a direction with the variational flow, for the
cocycle identity h(x, s+t) = h(x, s) h(phi_s x, t).
`estimate_solve_norm` probes the sup-norm of `blockseq`'s (I - L)^{-1}
from below, against its closed-form bound, and `orbit_to_csv` writes an
orbit segment as CSV.

Forward maps whose inverse or special case flowlab computes:
`flowbox_map`, the chart embedding that `flowbox.flowbox_invert` inverts;
`apply_hyperbolic_operator`, the row map that
`blockseq.solve_hyperbolic_operator` inverts; `extended_linear_poincare`,
which equals `poincare.linear_poincare` over the flow direction.
`orbit_time_control_trials` runs acceptance check C2, and
`validate_orbit_segment`, `validate_normal_splitting` and
`validate_block_system` check the invariants of flowlab's records.
"""
import numpy as np

from flowlab.blockseq import angle, solve_linear_part
from flowlab.errors import (DomainError, EscapeError, NoPathError,
                            SingularityError)
from flowlab.fields import (LIPSCHITZ_SAFETY, estimate_lipschitz, flow,
                            flow_states_batch, speed, speeds)
from flowlab.flowbox import (BoxBoundsReport, _ball_grid, _check_in_box,
                             _time_frames, chart_radius)
from flowlab.hyperbolic import evaluate_cocycle
from flowlab.poincare import (NormalFrame, NormalMap, _transport_basis,
                              psi_ambient)
from flowlab.util import (mininorm, opnorm, orthonormal_complement,
                          orthonormalize, unit, write_csv)

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


def estimate_lipschitz_loop(field, region, samples, seed=0):
    """Per-sample loop form of `estimate_lipschitz` (oracle): one operator
    norm per sampled Jacobian, folded with the builtin max."""
    pts = region.sample(np.random.default_rng(seed), samples)
    worst = 0.0
    for p in pts:
        J = np.asarray(field.jac(p), dtype=float)
        worst = max(worst, float(np.linalg.norm(J, 2)))
    return LIPSCHITZ_SAFETY * worst


def verify_box_bounds_loop(chart, grid: int, tol=1e-9,
                           fd_slack=1e-3) -> BoxBoundsReport:
    """Per-node loop form of `verify_box_bounds` (oracle).

    Central differences with steps 1e-5 * r0 * |X(x)| (normal directions) and
    1e-5 * r0 (time direction). Violations are reported with their witness
    node, never raised.
    """
    if grid < 2:
        raise ValueError("grid must be >= 2")
    field = chart.field
    d = field.dimension
    vs, ts = _ball_grid(chart, grid)
    hv = 1e-5 * chart.v_radius
    ht = 1e-5 * chart.r0
    Q = np.column_stack([chart.frame, chart.flow_dir])
    sing_floor = field.singular_speed()

    max_dev = 0.0
    min_mini = np.inf
    max_norm = 0.0
    no_sing = True
    witnesses = []

    # for every v node the center point plus the 2(d-1) normal-step
    # points, flowed by the same per-sign solves as the array form; the
    # loop below measures one grid node at a time
    pts = []
    for v in vs:
        p0 = chart.base + chart.frame @ v
        pts.append(p0)
        for k in range(d - 1):
            step = hv * chart.frame[:, k]
            pts.append(p0 + step)
            pts.append(p0 - step)
    pts = np.asarray(pts)
    block = 2 * (d - 1) + 1
    all_frames = _time_frames(field, pts, ts, ht, tol)
    for t, frames in zip(ts, all_frames):
        for m, v in enumerate(vs):
            rows = frames[:, m * block:(m + 1) * block, :]
            center = rows[1, 0]
            M = np.empty((d, d))
            for k in range(d - 1):
                M[:, k] = (rows[1, 1 + 2 * k] - rows[1, 2 + 2 * k]) / (2.0 * hv)
            M[:, d - 1] = (rows[2, 0] - rows[0, 0]) / (2.0 * ht) / chart.speed
            dev = float(np.linalg.norm(M - Q, 2))
            sv = np.linalg.svd(M, compute_uv=False)
            mini, norm = float(sv[-1]), float(sv[0])
            # the row norm of `fields.speeds`, which `speed` can differ
            # from in the last bit
            img_speed = float(speeds(field, center[None])[0])
            max_dev = max(max_dev, dev)
            min_mini = min(min_mini, mini)
            max_norm = max(max_norm, norm)
            if img_speed <= sing_floor:
                no_sing = False
            bad = (dev > 0.5 + fd_slack or mini < 0.5 - fd_slack
                   or norm > 2.0 + fd_slack or img_speed <= sing_floor)
            if bad:
                witnesses.append({"v": (chart.frame @ v).tolist(),
                                  "t": float(t), "dev": dev,
                                  "mininorm": mini, "norm": norm,
                                  "image_speed": img_speed})

    bounds_ok = (max_dev <= 0.5 + fd_slack and min_mini >= 0.5 - fd_slack
                 and max_norm <= 2.0 + fd_slack and no_sing)
    return BoxBoundsReport(base=chart.base, r0=chart.r0, speed=chart.speed,
                           max_dev_from_id=max_dev, min_mininorm=min_mini,
                           max_norm=max_norm, no_singularity=no_sing,
                           bounds_ok=bounds_ok, fd_slack=fd_slack,
                           witnesses=witnesses)


def evolve_direction(field, x, e, t, tol=1e-9):
    """(phi_t(x), normalized variational image of e)."""
    state, Phi = flow(field, np.asarray(x, float), t, tol)
    return state, unit(Phi @ unit(np.asarray(e, float)))


def domination_entries_loop(field, splitting, cocycles, C, lam, T_grid, tol):
    """The per-(node, t) values of `check_domination`'s entries, with a new
    flow for every psi and cocycle evaluation."""
    h_s, h_u = cocycles
    orbit = splitting.orbit
    entries = []
    for t in T_grid:
        k = int(round(t / orbit.step()))
        bound = C * np.exp(-lam * t)
        for i in range(orbit.n_nodes - k):
            x, x_img = orbit.states[i], orbit.states[i + k]
            fwd, _ = psi_ambient(field, x, t, tol)
            bwd, _ = psi_ambient(field, x_img, -t, tol)
            ns = opnorm(fwd @ splitting.stable[i])
            nb = opnorm(bwd @ splitting.unstable[i + k])
            e0 = unit(np.asarray(field.func(x), dtype=float))
            e_img = unit(np.asarray(field.func(x_img), dtype=float))
            entries.append({
                "node": i, "t": float(t),
                "domination_product": ns * nb,
                "contraction": evaluate_cocycle(field, h_s, x, e0, t, tol) * ns,
                "expansion_backward":
                    evaluate_cocycle(field, h_u, x_img, e_img, -t, tol) * nb,
                "rescaled_expansion":
                    evaluate_cocycle(field, h_u, x, e0, t, tol)
                    * mininorm(fwd @ splitting.unstable[i]),
                "bound": float(bound)})
    return entries


def estimate_solve_norm(system, n_probes=32, seed=0):
    """Probing lower estimate of the sup-norm of (I - L)^{-1}."""
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(n_probes):
        rows_s = []
        rows_u = []
        for j in range(system.n_blocks):
            rows_s.append(rng.normal(size=system.bases_s[j].shape[1]))
            rows_u.append(rng.normal(size=system.bases_u[j].shape[1]))
        # normalize the row data as one sup-norm element of the block space
        w = [system.unsplit(j, rows_s[j], rows_u[j]) for j in range(system.n_blocks)]
        scale = system.sup_norm(w)
        w = [v / scale for v in w]
        sol = solve_linear_part(system, w)
        best = max(best, system.sup_norm(sol))
    return best


def orbit_to_csv(segment, path):
    """One row (t, x_1, ..., x_d, speed) per node of an orbit segment."""
    d = segment.states.shape[1]
    header = ["t"] + [f"x_{i+1}" for i in range(d)] + ["speed"]
    rows = [[segment.times[i], *segment.states[i], segment.speeds[i]]
            for i in range(segment.n_nodes)]
    write_csv(path, header, rows)


def flowbox_map(chart, v, t, tol=1e-9):
    """Chart embedding: flows the normal translate base+v for time t."""
    v = _check_in_box(chart, v, t)
    if t == 0.0:
        return chart.base + v
    state, _ = flow(chart.field, chart.base + v, t, tol)
    return state


def apply_hyperbolic_operator(system, v):
    """Row form of (I - L) with split boundary rows, in the row convention
    that `blockseq.solve_hyperbolic_operator` states and inverts exactly."""
    n = system.n_blocks
    rows_s = []
    rows_u = []
    coords = [system.split(j, v[j]) for j in range(n)]
    for j in range(n):
        a, b = coords[j]
        if j == 0:
            rows_s.append(a.copy())
        else:
            rows_s.append(a - system.A[j - 1] @ coords[j - 1][0])
        if j == n - 1:
            rows_u.append(b.copy())
        else:
            rows_u.append(coords[j + 1][1] - system.D[j] @ b)
    return rows_s, rows_u


def frame_for_direction(point, e) -> NormalFrame:
    e = unit(np.asarray(e, dtype=float))
    return NormalFrame(point=np.asarray(point, dtype=float), direction=e,
                       basis=orthonormal_complement(e))


def extended_linear_poincare(field, x, e, t, tol=1e-9):
    """Direction evolution and the projected variational flow over it.

    Returns (evolved unit direction, NormalMap).  Over the flow direction of
    a regular point this coincides with `linear_poincare`.
    """
    x = np.asarray(x, dtype=float)
    e = unit(np.asarray(e, dtype=float))
    src = frame_for_direction(x, e)
    if t == 0.0:
        return e, NormalMap(source=src, target=src,
                            matrix=np.eye(field.dimension - 1))
    state, Phi = flow(field, x, t, tol)
    moved = Phi @ e
    norm = np.linalg.norm(moved)
    if norm == 0.0:
        raise SingularityError("variational image of the direction vanished")
    e1 = moved / norm
    basis1 = _transport_basis(src.basis, Phi, e1)
    tgt = NormalFrame(point=state, direction=e1, basis=basis1)
    return e1, NormalMap(source=src, target=tgt,
                         matrix=basis1.T @ Phi @ src.basis)



def orbit_time_control_trials(field, region, n_trials, seed=0, L=None,
                              tol=1e-9):
    """Sampled check that d(x, phi_t(x)) <= delta |X(x)| forces |t| <= 3 delta.

    Trials draw (x, t) with |t| <= r0, compute the orbit displacement, draw
    delta between the measured rescaled displacement and r0/3 (hypothesis
    satisfied by construction) and count violations of |t| <= 3 delta.
    """
    rng = np.random.default_rng(seed)
    if L is None:
        L = estimate_lipschitz(field, region, 256, seed=seed)
    r0 = chart_radius(L)
    per_t = 64
    violations = 0
    performed = 0
    rounds = 0
    sing = field.singular_speed()
    while performed < n_trials and rounds < 200 * max(1, n_trials // per_t):
        rounds += 1
        tv = rng.uniform(-r0, r0)
        xs = []
        tries = 0
        while len(xs) < per_t and tries < 50:
            tries += 1
            cand = region.sample(rng, 4 * per_t)
            for p in cand:
                if speed(field, p) > 1e3 * sing and field.domain.contains(p):
                    xs.append(p)
                if len(xs) >= per_t:
                    break
        if not xs:
            continue
        xs = np.asarray(xs)
        try:
            imgs = flow_states_batch(field, xs, float(tv), tol)
        except EscapeError:
            continue
        for x, img in zip(xs, imgs):
            if performed >= n_trials:
                break
            sx = speed(field, x)
            rel = np.linalg.norm(img - x) / sx
            if rel >= r0 / 3.0:
                continue  # hypothesis not satisfiable for this draw
            delta = rng.uniform(rel, r0 / 3.0)
            performed += 1
            if abs(tv) > 3.0 * delta:
                violations += 1
    if performed < n_trials:
        raise DomainError("could not generate enough admissible trials")
    return performed, violations




def validate_orbit_segment(segment, field):
    """Check each stored speed against the field, to 1e-9 relative."""
    for i in range(segment.n_nodes):
        s = speed(field, segment.states[i])
        ref = max(abs(segment.speeds[i]), field.singular_speed())
        if abs(s - segment.speeds[i]) > 1e-9 * ref:
            raise DomainError(f"stored speed at node {i} off by more than 1e-9")
    return True


def validate_normal_splitting(splitting, field):
    """Orthonormal stable and unstable bases, normal to the flow at every
    node to 1e-9, with dimensions adding to d - 1."""
    d = splitting.orbit.states.shape[1]
    if splitting.stable.shape[2] + splitting.unstable.shape[2] != d - 1:
        raise DomainError("splitting dimensions must add to d-1")
    for i in range(splitting.orbit.n_nodes):
        e = unit(np.asarray(field.func(splitting.orbit.states[i]), dtype=float))
        for B in (splitting.stable[i], splitting.unstable[i]):
            if np.max(np.abs(B.T @ B - np.eye(B.shape[1]))) > 1e-9:
                raise DomainError(f"basis at node {i} not orthonormal")
            if np.max(np.abs(B.T @ e)) > 1e-9:
                raise DomainError(f"basis at node {i} not normal to the flow")
    return True


def validate_block_system(system):
    """n - 1 linear maps within eta, splitting angles at least alpha and
    phi_j(0) = 0."""
    n = system.n_blocks
    if len(system.A) != n - 1 or len(system.D) != n - 1:
        raise DomainError("need exactly n-1 linear maps")
    for j in range(n - 1):
        if opnorm(system.A[j]) > system.eta * (1 + 1e-9):
            raise DomainError(f"|A_{j}| exceeds eta")
        if opnorm(np.linalg.inv(system.D[j])) > system.eta * (1 + 1e-9):
            raise DomainError(f"|D_{j}^-1| exceeds eta")
    for j in range(n):
        if angle(system.bases_s[j], system.bases_u[j]) <= system.alpha * (1 - 1e-9):
            raise DomainError(f"splitting angle at block {j} below alpha")
    if system.phis is not None:
        for j, phi in enumerate(system.phis):
            z = phi(np.zeros(system.block_dim(j)))
            if np.linalg.norm(z) > 1e-9:
                raise DomainError(f"phi_{j}(0) != 0")
    return True
