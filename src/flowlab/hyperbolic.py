"""Splittings of the normal bundle, cocycles, domination checks, rebalancing.

Splittings are estimated by forward/backward power sweeps of the linear
Poincare flow along an orbit; domination and rescaled contraction/expansion
inequalities are then measured over a finite time grid.  All certificates
are finite-horizon: reports say "no violation found", never "hyperbolic".
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import (CrossingDetectionError, DegenerateProjectionError,
                     DomainError, EscapeError, FlowDirectionError,
                     NoDominationError, RebalanceInfeasibleError)
from .fields import (OrbitSegment, _check_start, _domain_event,
                     effective_lipschitz, flow, ivp_options, solve_ivp, speed)
from .poincare import linear_poincare_from_flow, psi_from_flow
from .util import mininorm, opnorm, orthonormalize, unit, write_csv


@dataclass(frozen=True)
class StepFlows:
    """`flow(field, orbit.states[i], time, tol)` from every node of an orbit
    but the last: the block-time flows that a splitting is estimated from."""

    time: float
    tol: float
    flows: tuple          # (state, Phi) per node

    def window(self, lo, n):
        """The flows of the n-node sub-orbit that starts at node lo."""
        return replace(self, flows=self.flows[lo:lo + n - 1])


def step_flows(field, orbit: OrbitSegment, T_block, tol) -> StepFlows:
    """One flow over T_block from every node but the last of an orbit whose
    nodes are T_block apart."""
    dt = orbit.step()
    if abs(dt - T_block) > 1e-9 * max(1.0, abs(T_block)):
        raise DomainError("orbit spacing must equal the block time")
    return StepFlows(time=T_block, tol=tol, flows=tuple(
        flow(field, x, T_block, tol) for x in orbit.states[:-1]))


@dataclass(frozen=True)
class NormalSplitting:
    """Per-node stable/unstable subspaces inside the normal spaces.

    `steps` holds the block-time flows of the orbit nodes, which
    `check_domination` and `blockseq.assemble_block_system` read through
    `node_flow` instead of flowing the nodes again.
    """

    orbit: OrbitSegment
    stable: np.ndarray    # (n, d, s) orthonormal columns
    unstable: np.ndarray  # (n, d, u)
    steps: StepFlows

    def __post_init__(self):
        if len(self.steps.flows) != self.orbit.n_nodes - 1:
            raise DomainError("step flows must start at every node but the last")

    def node_flow(self, field, i, t, tol):
        """`flow(field, orbit.states[i], t, tol)`: the carried step flow
        when (t, tol) are the steps' own, else a new flow."""
        if t == self.steps.time and tol == self.steps.tol:
            return self.steps.flows[i]
        return flow(field, self.orbit.states[i], t, tol)


@dataclass(frozen=True)
class TangentSplitting:
    """Per-node splitting of the full tangent space along an orbit."""

    orbit: OrbitSegment
    e_basis: np.ndarray  # (n, d, dim_e)
    f_basis: np.ndarray  # (n, d, dim_f)
    steps: StepFlows     # passed on to the induced NormalSplitting


@dataclass(frozen=True)
class CocycleSpec:
    """A positive multiplicative cocycle over the flow.

    kinds: 'trivial' (== 1), 'flow_speed' (norm growth of the flow
    direction), 'pragmatical' (norm growth of the evolved direction inside
    one isolating box, 1 outside), 'product' (pragmaticals with pairwise
    disjoint boxes).
    """

    kind: str
    box: Optional[object] = None       # fields.Box for 'pragmatical'
    factors: tuple = ()                # CocycleSpecs for 'product'

    def validate(self, field):
        if self.kind not in ("trivial", "flow_speed", "pragmatical", "product"):
            raise DomainError(f"unknown cocycle kind {self.kind!r}")
        if self.kind == "pragmatical":
            if self.box is None:
                raise DomainError("pragmatical cocycle needs an isolating box")
            inside = [s for s in field.known_singularities()
                      if self.box.contains(s)]
            if len(inside) != 1:
                raise DomainError(
                    f"isolating box must contain exactly one singularity, found {len(inside)}")
        if self.kind == "product":
            if not self.factors:
                raise DomainError("product cocycle needs factors")
            boxes = []
            for f in self.factors:
                if f.kind != "pragmatical":
                    raise DomainError("product factors must be pragmatical")
                f.validate(field)
                boxes.append(f.box)
            for i in range(len(boxes)):
                for j in range(i + 1, len(boxes)):
                    overlap_lo = np.maximum(boxes[i].lo, boxes[j].lo)
                    overlap_hi = np.minimum(boxes[i].hi, boxes[j].hi)
                    if np.all(overlap_hi > overlap_lo):
                        raise DomainError("pragmatical boxes must be disjoint")
        return True


def trivial_cocycle():
    return CocycleSpec(kind="trivial")


def flow_speed_cocycle():
    return CocycleSpec(kind="flow_speed")


def pragmatical_cocycle(box):
    return CocycleSpec(kind="pragmatical", box=box)


# ---------------------------------------------------------------------------
# cocycle evaluation

#: Points of the grid on which the dense orbit is scanned for box crossings.
CROSSING_GRID = 128


def _inside(box, x):
    return bool(np.all(x >= box.lo) and np.all(x <= box.hi))


def _box_gap(box, x):
    """Positive inside, negative outside, zero on the boundary; one value
    per row of a stack of points."""
    return np.minimum(np.min(x - box.lo, axis=-1), np.min(box.hi - x, axis=-1))


def _find_crossings(box, sol, ts, gaps, diam):
    """Boundary crossing times of the dense orbit interpolant on [0, t],
    from its box gaps on the grid ts = linspace(0, t)."""
    t = ts[-1]
    crossings = []
    for i in range(ts.size - 1):
        a, b = ts[i], ts[i + 1]
        ga, gb = gaps[i], gaps[i + 1]
        if ga == 0.0:
            crossings.append(a)
            continue
        if ga * gb < 0.0:
            for _ in range(80):
                mid = 0.5 * (a + b)
                gm = _box_gap(box, sol(mid))
                if gm == 0.0 or (b - a) < 1e-14 * max(1.0, abs(t)):
                    break
                if ga * gm < 0.0:
                    b, gb = mid, gm
                else:
                    a, ga = mid, gm
            crossings.append(0.5 * (a + b))
        elif (0 < i < ts.size - 2 and gaps[i - 1] * gaps[i] > 0
              and gaps[i] * gaps[i + 1] > 0):
            # tangency guard: a local minimum of |gap| grazing the boundary
            # with no sign change anywhere in the bracket
            if abs(gaps[i]) < abs(gaps[i - 1]) and abs(gaps[i]) < abs(gaps[i + 1]):
                lo_s, hi_s = ts[i - 1], ts[i + 1]
                for _ in range(60):
                    m1 = lo_s + (hi_s - lo_s) / 3.0
                    m2 = hi_s - (hi_s - lo_s) / 3.0
                    if abs(_box_gap(box, sol(m1))) < abs(_box_gap(box, sol(m2))):
                        hi_s = m2
                    else:
                        lo_s = m1
                g_min = abs(_box_gap(box, sol(0.5 * (lo_s + hi_s))))
                if g_min < 1e-10 * diam:
                    raise CrossingDetectionError(
                        f"tangential boundary contact near t={0.5 * (lo_s + hi_s):.6f}")
    return crossings


def _pragmatical_value(field, box, sol, crossings, x, e, t, tol):
    """Product of direction-norm growth over the maximal inside intervals.

    The direction is transported segment by segment between crossings, and
    only up to the last segment inside the box: the segments after it do
    not change the value.
    """
    d = field.dimension
    cuts = [0.0] + sorted(crossings, reverse=bool(t < 0)) + [t]
    segments = [(a, b) for a, b in zip(cuts[:-1], cuts[1:])
                if abs(b - a) >= 1e-14]
    inside = [_inside(box, sol(0.5 * (a + b))) for a, b in segments]
    value = 1.0
    cur_x = x
    cur_e = unit(e)

    def rhs(s, y):
        xx = y[:d]
        w = y[d:]
        J = np.asarray(field.jac(xx), dtype=float)
        return np.concatenate([np.asarray(field.func(xx), dtype=float), J @ w])

    n_used = max((k + 1 for k, ins in enumerate(inside) if ins), default=0)
    opts = ivp_options(tol)
    for (a, b), ins in zip(segments[:n_used], inside):
        seg = solve_ivp(rhs, (0.0, b - a), np.concatenate([cur_x, cur_e]),
                        rtol=opts["rtol"], atol=opts["atol"])
        if seg.status != 0:
            raise DomainError(f"direction transport failed: {seg.message}")
        yend = seg.y[:, -1]
        cur_x = yend[:d]
        w = yend[d:]
        growth = float(np.linalg.norm(w))
        if ins:
            value *= growth
        cur_e = w / growth
    return value


def _pragmatical_product(field, boxes, x, e, t, tol):
    """Product of the pragmatical values of `boxes` at (x, e, t), all read
    from one dense state solve and one interpolant call on the crossing
    grid.  The solve stops where the orbit leaves the domain, so the
    transports, which follow pieces of the same orbit, stay inside it.  A
    start outside the domain raises DomainError, as in `flow`."""
    _check_start(field, x)
    opts = ivp_options(tol)
    res = solve_ivp(lambda s, y: np.asarray(field.func(y), dtype=float),
                    (0.0, t), x, rtol=opts["rtol"], atol=opts["atol"],
                    events=_domain_event(field), dense_output=True)
    if res.status == 1:
        raise EscapeError("orbit left the domain during a pragmatical "
                          "cocycle", exit_time=float(res.t_events[0][0]))
    if res.status != 0:
        raise DomainError(f"orbit integration failed: {res.message}")
    sol = res.sol
    ts = np.linspace(0.0, t, CROSSING_GRID)
    grid = sol(ts).T
    value = 1.0
    for box in boxes:
        crossings = _find_crossings(box, sol, ts, _box_gap(box, grid),
                                    field.domain.diameter)
        value *= _pragmatical_value(field, box, sol, crossings, x, e, t, tol)
    return value


def _flow_speed_value(field, x, end):
    """Flow-speed cocycle of a flow from x that ends at `end`."""
    s0 = speed(field, x)
    if s0 <= field.singular_speed():
        raise DomainError("flow-speed cocycle is undefined at a singularity")
    return float(speed(field, end) / s0)


def evaluate_cocycle(field, spec: CocycleSpec, x, e, t, tol=1e-9):
    """Value h_t at the direction e over x; satisfies the cocycle identity.

    A pragmatical cocycle, or a product of them, costs one dense state
    solve for all its boxes, plus one direction transport per segment
    between box crossings up to the last segment inside a box; an orbit
    that stays outside every box is not transported.  Crossings are
    scanned on a grid of `CROSSING_GRID` points.
    """
    x = np.asarray(x, dtype=float)
    e = unit(np.asarray(e, dtype=float))
    if t == 0.0:
        return 1.0
    if spec.kind == "trivial":
        return 1.0
    if spec.kind == "flow_speed":
        state, _ = flow(field, x, t, tol)
        return _flow_speed_value(field, x, state)
    if spec.kind == "pragmatical":
        return _pragmatical_product(field, (spec.box,), x, e, t, tol)
    if spec.kind == "product":
        if any(f.kind != "pragmatical" for f in spec.factors):
            raise DomainError("product factors must be pragmatical")
        # unit(e) once more: the direction each factor's own evaluation
        # normalized, which keeps the transported bits
        return _pragmatical_product(field, [f.box for f in spec.factors],
                                    x, unit(e), t, tol)
    raise DomainError(f"unknown cocycle kind {spec.kind!r}")


def _cocycle_with_flow(field, spec, x, e, t, tol, end):
    """`evaluate_cocycle`, with the flow-speed value read from `end`, the
    endpoint of `flow(field, x, t, tol)` that the caller already made."""
    if spec.kind == "flow_speed":
        return _flow_speed_value(field, x, end)
    return evaluate_cocycle(field, spec, x, e, t, tol)


# ---------------------------------------------------------------------------
# splitting estimation


def _aligned_matrices(maps):
    """Step matrices re-expressed so node frames chain consistently."""
    mats = []
    frames = [maps[0].source]
    for m in maps:
        R = m.source.basis.T @ frames[-1].basis
        mats.append(m.matrix @ R)
        frames.append(m.target)
    return mats, frames


def _require_gap(mats, split_at):
    """Raise unless the ratio of adjacent per-step growth factors around the
    split index reaches 1.05."""
    d = mats[0].shape[0]
    Q = np.eye(d)
    logs = np.zeros(d)
    for M in mats:
        Z = M @ Q
        Q, R = np.linalg.qr(Z)
        diag = np.abs(np.diag(R))
        logs += np.log(np.maximum(diag, 1e-300))
    rates = np.sort(logs / len(mats))[::-1]
    gap = float(np.exp(rates[split_at - 1] - rates[split_at]))
    if gap < 1.05:
        raise NoDominationError(f"per-step singular value gap {gap:.4f} < 1.05")


def _power_sweeps(orbit, mats, fast, slow, warmup):
    """Bases at every node: `fast` pushed forward by the step maps, `slow`
    pulled back by their inverses.  Returns (window, keep, fwd, bwd); the
    orbit window and the node slice keep drop `warmup` nodes at both ends."""
    fwd = [fast]
    for M in mats:
        fwd.append(orthonormalize(M @ fwd[-1]))
    bwd = [slow]
    for M in reversed(mats):
        bwd.append(orthonormalize(np.linalg.solve(M, bwd[-1])))
    bwd.reverse()
    n = orbit.n_nodes
    if not warmup:
        return orbit, slice(None), fwd, bwd
    if 2 * warmup >= n:
        raise DomainError("warmup leaves no nodes")
    return orbit.slice(warmup, n - warmup), slice(warmup, n - warmup), fwd, bwd


def estimate_normal_splitting(field, orbit: OrbitSegment, dim_s: int,
                              T_block: float, tol=1e-9,
                              warmup=0) -> NormalSplitting:
    """Power-sweep estimate of the dominated splitting along an orbit.

    A forward sweep of the step maps extracts the fast (unstable) subspace
    per node, a backward sweep with the inverse maps extracts the slow
    (stable) one.  Nodes near the sweep starts carry warm-up error; pass
    `warmup` to drop that many nodes from both ends of the result.  Raises
    NoDominationError when the per-step singular-value gap is below 1.05.
    """
    d = field.dimension
    nd = d - 1
    dim_u = nd - dim_s
    if nd < 2 or dim_s < 1 or dim_u < 1:
        raise NoDominationError(
            "normal bundle admits no nontrivial splitting in this dimension")
    steps = step_flows(field, orbit, T_block, tol)
    maps = [linear_poincare_from_flow(field, x, T_block, state, Phi)
            for x, (state, Phi) in zip(orbit.states, steps.flows)]
    mats, frames = _aligned_matrices(maps)
    _require_gap(mats, dim_u)

    n = orbit.n_nodes
    # generic deterministic seeds; axis-aligned ones can be invariant
    gen = np.random.default_rng(0x5EED)
    U = orthonormalize(gen.normal(size=(nd, dim_u)))
    S_end = orthonormalize(gen.normal(size=(nd, dim_s)))

    window, keep, unstable_coords, stable_coords = _power_sweeps(
        orbit, mats, U, S_end, warmup)
    stable = np.stack([frames[i].basis @ stable_coords[i] for i in range(n)])
    unstable = np.stack([frames[i].basis @ unstable_coords[i] for i in range(n)])
    return NormalSplitting(orbit=window, stable=stable[keep],
                           unstable=unstable[keep],
                           steps=steps.window(warmup, window.n_nodes))


def estimate_tangent_splitting(field, orbit: OrbitSegment, dim_e: int,
                               T_block: float, tol=1e-9,
                               warmup=0) -> TangentSplitting:
    """Power-sweep dominated splitting of the tangent flow (step gap >= 1.05)."""
    d = field.dimension
    dim_f = d - dim_e
    if dim_e < 1 or dim_f < 1:
        raise NoDominationError("tangent splitting dimensions out of range")
    steps = step_flows(field, orbit, T_block, tol)
    mats = [Phi for _, Phi in steps.flows]
    _require_gap(mats, dim_f)
    gen = np.random.default_rng(0x5EED)
    F = orthonormalize(gen.normal(size=(d, dim_f)))
    E = orthonormalize(gen.normal(size=(d, dim_e)))
    window, keep, f_list, e_list = _power_sweeps(orbit, mats, F, E, warmup)
    return TangentSplitting(orbit=window, e_basis=np.stack(e_list)[keep],
                            f_basis=np.stack(f_list)[keep],
                            steps=steps.window(warmup, window.n_nodes))


# ---------------------------------------------------------------------------
# domination and rescaled contraction/expansion checks


@dataclass
class DominationReport:
    C: float
    lam: float
    T_grid: list
    entries: list          # dicts per (node, t)
    worst_domination_margin: float
    worst_contraction_margin: float
    worst_expansion_margin: float
    min_principal_angle: float
    domination_ok: bool
    contraction_ok: bool
    expansion_ok: bool

    @property
    def all_ok(self):
        return self.domination_ok and self.contraction_ok and self.expansion_ok

    def to_json_dict(self):
        return {
            "C": self.C, "lambda": self.lam, "T_grid": list(self.T_grid),
            "entries": self.entries,
            "worst_domination_margin": self.worst_domination_margin,
            "worst_contraction_margin": self.worst_contraction_margin,
            "worst_expansion_margin": self.worst_expansion_margin,
            "min_principal_angle": self.min_principal_angle,
            "domination_ok": self.domination_ok,
            "contraction_ok": self.contraction_ok,
            "expansion_ok": self.expansion_ok,
        }

    def to_csv(self, path):
        rows = []
        for e in self.entries:
            rows.append([e["node"], e["t"], e["domination_product"],
                         e["bound"], e["pass"]])
        write_csv(path, ["node", "t", "product", "bound", "pass"], rows)


def check_domination(field, splitting: NormalSplitting, cocycles, C, lam,
                     T_grid, tol=1e-9) -> DominationReport:
    """Measure domination and rescaled contraction/expansion margins.

    `cocycles` is the pair (h_s, h_u).  Each t of the grid must be a
    multiple of the orbit spacing so image nodes carry splitting data, and
    shorter than the orbit window, so that some node pair is measured.
    Margins are bound/value ratios (>= 1 passes); nothing is raised.

    Each (node, t) takes one forward and one backward flow, and a
    flow-speed cocycle reads its speed ratio from their endpoints.  At the
    splitting's own (T_block, tol) the forward flow is the carried step
    flow, so only the backward one is integrated.
    """
    h_s, h_u = cocycles
    orbit = splitting.orbit
    dt = orbit.step()
    n = orbit.n_nodes
    entries = []
    worst_dom = np.inf
    worst_con = np.inf
    worst_exp = np.inf
    min_angle = np.inf
    for i in range(n):
        sv = np.linalg.svd(splitting.stable[i].T @ splitting.unstable[i],
                           compute_uv=False)
        min_angle = min(min_angle, float(np.sqrt(max(0.0, 1.0 - sv[0] ** 2))))
    for t in T_grid:
        k = int(round(t / dt))
        if abs(k * dt - t) > 1e-9 * max(1.0, abs(t)) or k <= 0:
            raise DomainError(f"t={t} is not a positive multiple of the orbit step")
        if k >= n:
            raise DomainError(f"t={t} leaves no node pair in the {n}-node "
                              "orbit window")
        bound = C * np.exp(-lam * t)
        for i in range(n - k):
            x = orbit.states[i]
            x_img = orbit.states[i + k]
            end, Phi = splitting.node_flow(field, i, t, tol)
            end_back, Phi_back = flow(field, x_img, -t, tol)
            fwd = psi_from_flow(field, end, Phi)
            bwd = psi_from_flow(field, end_back, Phi_back)
            ns = opnorm(fwd @ splitting.stable[i])
            mu = mininorm(fwd @ splitting.unstable[i])
            nb = opnorm(bwd @ splitting.unstable[i + k])
            product = ns * nb
            e0 = unit(np.asarray(field.func(x), dtype=float))
            e_img = unit(np.asarray(field.func(x_img), dtype=float))
            hs_val = _cocycle_with_flow(field, h_s, x, e0, t, tol, end)
            hu_back = _cocycle_with_flow(field, h_u, x_img, e_img, -t, tol,
                                         end_back)
            hu_fwd = _cocycle_with_flow(field, h_u, x, e0, t, tol, end)
            contraction = hs_val * ns
            expansion_back = hu_back * nb
            dom_margin = bound / max(product, 1e-300)
            con_margin = bound / max(contraction, 1e-300)
            exp_margin = bound / max(expansion_back, 1e-300)
            entries.append({
                "node": i, "t": float(t),
                "domination_product": product,
                "contraction": contraction,
                "expansion_backward": expansion_back,
                "rescaled_expansion": hu_fwd * mu,
                "bound": float(bound),
                "pass": bool(dom_margin > 1 and con_margin > 1 and exp_margin > 1),
            })
            worst_dom = min(worst_dom, dom_margin)
            worst_con = min(worst_con, con_margin)
            worst_exp = min(worst_exp, exp_margin)
    return DominationReport(
        C=float(C), lam=float(lam), T_grid=list(map(float, T_grid)),
        entries=entries,
        worst_domination_margin=float(worst_dom),
        worst_contraction_margin=float(worst_con),
        worst_expansion_margin=float(worst_exp),
        min_principal_angle=float(min_angle),
        domination_ok=bool(worst_dom > 1.0),
        contraction_ok=bool(worst_con > 1.0),
        expansion_ok=bool(worst_exp > 1.0))


def induce_from_tangent_splitting(field, tangent: TangentSplitting,
                                  angle_tol=1e-6):
    """Normal splitting induced by a tangent one, with the flow-speed cocycle.

    Stable part: orthogonal projection of E into the normal space.  Unstable
    part: intersection of the normal space with F (the orthogonal complement
    of the flow direction inside F).  Requires X in F at every node.
    """
    orbit = tangent.orbit
    n = orbit.n_nodes
    stable = []
    unstable = []
    for i in range(n):
        x = orbit.states[i]
        fx = np.asarray(field.func(x), dtype=float)
        e = unit(fx)
        F = tangent.f_basis[i]
        resid = np.linalg.norm(fx - F @ (F.T @ fx)) / np.linalg.norm(fx)
        if resid > angle_tol:
            raise FlowDirectionError(
                f"flow direction leaves F at node {i} (residual {resid:.2e})")
        E = tangent.e_basis[i]
        proj_E = E - np.outer(e, e @ E)
        sv = np.linalg.svd(proj_E, compute_uv=False)
        if sv[-1] < 1e-8:
            raise DegenerateProjectionError(
                f"projection of E collapses at node {i}")
        stable.append(orthonormalize(proj_E))
        # complement of the flow direction inside F
        c = F.T @ e
        c = c / np.linalg.norm(c)
        comp = np.linalg.svd(np.eye(c.size) - np.outer(c, c))[0][:, :c.size - 1]
        unstable.append(orthonormalize(F @ comp))
    split = NormalSplitting(orbit=orbit, stable=np.stack(stable),
                            unstable=np.stack(unstable), steps=tangent.steps)
    return split, flow_speed_cocycle()


# ---------------------------------------------------------------------------
# rebalancing sequences


@dataclass
class RebalanceResult:
    c: np.ndarray          # per-map scales, indices i_start .. i_start+n-1
    b: np.ndarray          # cumulative products, indices i_start .. i_start+n
    i_start: int
    sup_b: float
    bounded_ok: bool

    def to_json_dict(self):
        return {"c": self.c.tolist(), "b": self.b.tolist(),
                "i_start": self.i_start, "sup_b": self.sup_b,
                "bounded_ok": self.bounded_ok}


def rebalance_sequence(psi_norms, eta, i_start=0, L=None, T=None) -> RebalanceResult:
    """Per-block scales making the stable part eta-contracting and the
    unstable part eta^-1-expanding simultaneously.

    `psi_norms[j]` is the pair (|psi_T| on the stable part, mininorm of
    psi_T on the unstable part) of the map with source index i_start + j.
    Scales are eta^-1 / m_u for indices >= 0 and eta / n_s for indices < 0;
    cumulative products b start from b_0 = 1.  Raises
    RebalanceInfeasibleError when a scale breaks the complementary
    inequality; when (L, T) metadata is given the scales are checked against
    [eta e^{-LT}, eta^-1 e^{LT}].
    """
    if not (0.0 < eta < 1.0):
        raise DomainError("eta must lie in (0, 1)")
    norms = [(float(a), float(b)) for a, b in psi_norms]
    if any(a <= 0 or b <= 0 for a, b in norms):
        raise DomainError("psi norms must be positive")
    n = len(norms)
    idx = np.arange(i_start, i_start + n)
    if i_start > 0 or i_start + n < 0:
        raise DomainError("the index range must contain 0 (b_0 = 1 anchor)")
    c = np.empty(n)
    for j, i in enumerate(idx):
        ns, mu = norms[j]
        if i >= 0:
            c[j] = (1.0 / eta) / mu
            if c[j] * ns > eta * (1.0 + 1e-12):
                raise RebalanceInfeasibleError(
                    f"c_{i} * |psi_s| = {c[j] * ns:.4f} > eta = {eta}")
        else:
            c[j] = eta / ns
            if c[j] * mu < (1.0 / eta) * (1.0 - 1e-12):
                raise RebalanceInfeasibleError(
                    f"c_{i} * m(psi_u) = {c[j] * mu:.4f} < 1/eta = {1.0 / eta}")
    if L is not None and T is not None:
        lo = eta * np.exp(-effective_lipschitz(L) * T)
        hi = (1.0 / eta) * np.exp(effective_lipschitz(L) * T)
        if np.any(c < lo * (1 - 1e-9)) or np.any(c > hi * (1 + 1e-9)):
            raise RebalanceInfeasibleError(
                "scales leave the [eta e^{-LT}, eta^{-1} e^{LT}] band")
    # b is indexed on nodes i_start .. i_start + n, with b_0 = 1
    b = np.empty(n + 1)
    zero_pos = -i_start
    b[zero_pos] = 1.0
    for j in range(zero_pos, n):
        b[j + 1] = b[j] * c[j]
    for j in range(zero_pos - 1, -1, -1):
        b[j] = b[j + 1] / c[j]
    sup_b = float(np.max(np.abs(b)))
    return RebalanceResult(c=c, b=b, i_start=int(i_start), sup_b=sup_b,
                           bounded_ok=bool(np.isfinite(sup_b)))
