"""Empirical expansiveness scanners and the admissible-epsilon estimate.

Scans search candidate pairs (x, y) and time changes theta for violations:
pairs that shadow at level delta (in the mode's metric) yet fail the mode's
conclusion that the shadowing orbit stays on a short orbit arc.  Scans are
negative-evidence tools: a clean scan reports "no violation found" with its
budget and truncated horizon, never a certificate.

Modes: 'rescaled' (distance divided by the local flow speed, the conclusion
must hold at every grid time), 'bowen_walters' (plain distance, conclusion
at time 0), 'komuro' (plain distance, conclusion at some grid time).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (DomainError, FlowLabError, HorizonError, NotInBoxError,
                     SingularityError, StiffnessError, WitnessError)
from .fields import (DenseOrbit, estimate_lipschitz, field_from_json,
                     flow_points, orbit_states, speed)
from .flowbox import chart_radius, flowbox_invert, make_chart
from .poincare import section_radius
from .reparam import (Reparametrization, admissible_delta,
                      fit_reparametrization)
from .util import random_normal, read_json

MODES = ("rescaled", "komuro", "bowen_walters")
ARC_TOL = 1e-6  # on an orbit arc: normal offset <= ARC_TOL * |X|


@dataclass(frozen=True)
class ScanConfig:
    field: object
    base_points: tuple
    horizon: tuple                  # (T_minus, T_plus)
    epsilons: tuple
    deltas: tuple
    lattice: tuple = (9, 17)        # (time nodes, theta offsets)
    budget: int = 200
    seed: int = 0
    grid_n: int = 64
    tol: float = 1e-9
    lipschitz: float = None

    def validate(self):
        """The chart Lipschitz constant: `lipschitz`, or else an estimate over
        the domain; a DomainError unless the grids, the budget and the
        horizon are usable and the epsilon grid fits in the chart radius."""
        if not self.epsilons or not self.deltas:
            raise DomainError("epsilon and delta grids must be nonempty")
        if self.budget <= 0:
            raise DomainError("budget must be positive")
        if self.horizon[0] >= self.horizon[1]:
            raise DomainError("horizon must be a nonempty interval")
        if self.grid_n < 2:
            raise DomainError("the conclusion grid needs at least 2 times")
        L = self.lipschitz
        if L is None:
            L = estimate_lipschitz(self.field, self.field.domain, 512,
                                   seed=self.seed)
        r0 = chart_radius(L)
        if max(self.epsilons) > r0:
            raise DomainError(
                f"epsilon grid must stay within the chart radius r0={r0:.3e}")
        return L


@dataclass
class ScanReport:
    mode: str
    verdicts: dict                  # (eps, delta) -> "no-violation-found" | "violation"
    witnesses: list                 # JSON records, keys as in _WITNESS_KEYS
    budget: int
    budget_used: int
    horizon: tuple
    n_pairs: int

    def verdict(self, eps, delta):
        return self.verdicts[(float(eps), float(delta))]

    def to_json_dict(self):
        return {
            "mode": self.mode,
            "verdicts": [{"epsilon": k[0], "delta": k[1], "verdict": v}
                         for k, v in sorted(self.verdicts.items())],
            "witnesses": self.witnesses,
            "budget": self.budget, "budget_used": self.budget_used,
            "horizon": list(self.horizon), "n_pairs": self.n_pairs,
        }


class _BaseOrbit:
    """A base point's orbit at the fit nodes, the conclusion grid and the
    recurrence times, with the speeds and the flow-box charts along the grid.

    One forward solve over (0, max(hi, hi - lo)] serves all three and is
    made when the orbit is built; the backward half over [lo, 0) is solved
    on first use of `base`, so a base that no pair within the budget reads
    costs no backward solve.  An exit breaks the orbit only within [lo, hi],
    and the recurrence pair only within (0, hi - lo].  A state differs from
    the one of a solve over the horizon alone only in that solve's last step.
    """

    def __init__(self, config, x, L):
        lo, hi = config.horizon
        self.config, self.x, self.L = config, x, L
        self._t_nodes = np.linspace(lo, hi, max(2, int(config.lattice[0])))
        self._grid = np.linspace(lo, hi, config.grid_n)
        t_rec = np.linspace(max(1.0, 0.05 * (hi - lo)), hi - lo, 48)
        self._times = np.concatenate([self._t_nodes, self._grid])
        states = np.full((self._times.size, config.field.dimension), np.nan)
        states[self._times == 0] = x
        fwd = self._times > 0
        fwd_states, exit_time = _orbit_states(
            config, x, np.concatenate([self._times[fwd], t_rec]))
        n_fwd = int(fwd.sum())
        states[fwd] = fwd_states[:n_fwd]
        #: states at the recurrence times, None if they leave the domain
        self.recurrence = (fwd_states[n_fwd:] if exit_time is None
                           or exit_time > hi - lo else None)
        # None once the orbit leaves the domain within [0, hi]
        self._states = (None if exit_time is not None and exit_time <= hi
                        else states)

    @cached_property
    def base(self):
        """(t_nodes, states at t_nodes, grid, states at grid), None when
        the orbit leaves the domain within the horizon."""
        states, back = self._states, self._times < 0
        if states is None:
            return None
        if np.any(back):
            states[back], exit_time = _orbit_states(self.config, self.x,
                                                    self._times[back])
            if exit_time is not None:
                return None
        n = self._t_nodes.size
        return self._t_nodes, states[:n], self._grid, states[n:]

    @cached_property
    def speeds(self):
        """|X| at the grid states."""
        return np.array([speed(self.config.field, s) for s in self.base[3]])

    @cached_property
    def charts(self):
        """`_charts` of the grid states."""
        return _charts(self.config.field, self.base[3], self.L)


def _orbit_states(config, x, times):
    """`orbit_states`, with a solver failure counted as an exit at time 0."""
    try:
        return orbit_states(config.field, x, times, config.tol)
    except StiffnessError:
        return np.full((len(times), config.field.dimension), np.nan), 0.0


def _charts(field, xs, L):
    """The flow-box chart at each state, None where the state is singular."""
    charts = []
    for bx in xs:
        try:
            charts.append(make_chart(field, bx, L))
        except SingularityError:
            charts.append(None)
    return charts


def _arc_times(charts, ys, arc_tol):
    """Chart time s of each y_theta(t) on the orbit arc of x_t, per grid time.

    NaN where y_theta(t) is off the arc (normal offset above arc_tol |X|),
    has no preimage in the chart box, or the chart base is singular.
    """
    out = np.full(len(ys), np.nan)
    for i, (chart, yy) in enumerate(zip(charts, ys)):
        if chart is None:
            continue
        try:
            v, s = flowbox_invert(chart, yy)
        except NotInBoxError:
            continue
        if np.linalg.norm(v) <= arc_tol * chart.speed:
            out[i] = s
    return out


def _conclusion_failures(grid, arc_times, eps):
    """Grid times where y_theta(t) is off the orbit arc phi_[-eps, eps] of x_t."""
    return [float(t) for t, s in zip(grid, arc_times)
            if not abs(s) <= eps * (1.0 + 1e-9)]


def _evaluate_pair(field, x, y, config, orbit, metrics):
    """{rescale: [(theta, sup, ys), ...]} for each rescale flag in
    `metrics`: the time changes of y that stay in the domain over the grid,
    best first in that metric; `orbit` is the `_BaseOrbit` of x.

    The candidates of a metric are the theta fitted in it on the sheared
    lattice around the identity, and the identity.  y gets one dense solve
    per time sign over the lattice span, which serves the lattice, the
    identity and every fitted theta; when y starts outside the domain or
    leaves it before the horizon start, no forward solve is made and no
    candidate is left.
    """
    t_nodes, x_nodes, grid, xs = orbit.base
    if True in metrics and np.any(orbit.speeds <= field.singular_speed()):
        raise SingularityError("base orbit hits a singular sample")
    width = max(config.deltas) * 3.0 + 1e-12
    offsets = np.linspace(-width, width, max(3, int(config.lattice[1])))
    theta_nodes = t_nodes[:, None] + offsets[None, :]
    out = {rescale: [] for rescale in metrics}
    if not field.domain.contains(y, slack=1e-12):
        return out
    dense = DenseOrbit(field, y, (theta_nodes.min(), theta_nodes.max()),
                       config.tol)
    try:
        if not dense.reaches(grid[[0, -1]]):
            return out
        fit_nodes = dense.reaches(theta_nodes)
        for rescale, cands in out.items():
            thetas = [Reparametrization.identity()]
            if fit_nodes:
                try:
                    fitted, _ = fit_reparametrization(
                        field, x, y, t_nodes=t_nodes, theta_nodes=theta_nodes,
                        rescale=rescale, tol=config.tol, x_states=x_nodes,
                        y_states=dense(theta_nodes.ravel()))
                    thetas.insert(0, fitted)
                except FlowLabError:
                    pass
            for theta in thetas:
                times = theta(grid)
                if dense.reaches(times):
                    ys = dense(times)
                    cands.append((theta, _sup(xs, ys, orbit.speeds, rescale),
                                  ys))
            cands.sort(key=lambda p: p[1])
    except StiffnessError:
        return {rescale: [] for rescale in out}
    return out


def _sup(xs, ys, speeds, rescale):
    """Grid sup of d(x_t, y_theta(t)), over |X(x_t)| when rescaled."""
    dist = np.linalg.norm(xs - ys, axis=1)
    return float(np.max(dist / speeds)) if rescale else float(np.max(dist))


def _violated(mode, grid, fails):
    """The mode's rule for a violated conclusion, given the failing times."""
    if mode == "komuro":
        return len(fails) == len(grid)
    if mode == "bowen_walters":
        return float(grid[int(np.argmin(np.abs(grid)))]) in fails
    return len(fails) > 0


def _candidate_pairs(config, orbits):
    """Deterministic candidate stream: perturbations, orbit pairs, returns.

    The recurrence pairs read the base orbits' recurrence states."""
    field = config.field
    rng = np.random.default_rng(config.seed)
    bases = [np.asarray(p, dtype=float) for p in config.base_points]
    pairs = []
    # (i) normal perturbations at rescaled sizes delta/2 and delta
    for bp in bases:
        sx = speed(field, bp)
        if sx <= field.singular_speed():
            continue
        u = random_normal(rng, np.asarray(field.func(bp), dtype=float) / sx)
        if u is None:
            continue
        for delta in config.deltas:
            for size in (0.5 * delta, delta):
                pairs.append((bp, bp + size * sx * u))
    # (ii) pairs of distinct sampled orbits
    for i in range(len(bases)):
        for j in range(i + 1, len(bases)):
            pairs.append((bases[i], bases[j]))
    # (iii) recurrence pairs: closest return of the base orbit to itself
    for bp in bases:
        states = orbits[tuple(bp)].recurrence
        if states is None:
            continue
        dists = np.linalg.norm(states - bp, axis=1)
        best = int(np.argmin(dists))
        pairs.append((bp, states[best]))
    return pairs


def _scan_inputs(config):
    """(L, candidate pairs, base orbits by point): the part of a scan that
    no mode changes."""
    L = config.validate()
    orbits = {}
    for p in config.base_points:
        x = np.asarray(p, dtype=float)
        if tuple(x) not in orbits:
            orbits[tuple(x)] = _BaseOrbit(config, x, L)
    return L, _candidate_pairs(config, orbits), orbits


def _scan(config, modes):
    """One `ScanReport` per mode of `modes`, from one pass over the
    candidate pairs.

    A pair's y is solved once, its theta is fitted once per metric (komuro
    and bowen_walters share the plain one), and the arc test of a theta
    runs once and serves every mode and (epsilon, delta) cell.
    """
    field = config.field
    L, pairs, orbits = _scan_inputs(config)
    horizon = (float(config.horizon[0]), float(config.horizon[1]))
    cells = [(float(e), float(d)) for e in config.epsilons
             for d in config.deltas]
    verdicts = {m: dict.fromkeys(cells, "no-violation-found") for m in modes}
    witnesses = {m: [] for m in modes}
    used = min(config.budget, len(pairs))
    for x, y in pairs[:used]:
        orbit = orbits[tuple(x)]
        if orbit.base is None:
            continue
        grid = orbit.base[2]
        candidates = _evaluate_pair(field, x, y, config, orbit,
                                    {m == "rescaled" for m in modes})
        arcs = {}  # theta knots -> arc times
        for mode in modes:
            for eps, delta in verdicts[mode]:
                if verdicts[mode][(eps, delta)] == "violation":
                    continue
                for theta, sup, ys in candidates[mode == "rescaled"]:
                    if sup > delta:
                        break  # candidates are sorted; none shadows
                    key = theta.knots.tobytes()
                    if key not in arcs:
                        arcs[key] = _arc_times(orbit.charts, ys, ARC_TOL)
                    fails = _conclusion_failures(grid, arcs[key], eps)
                    if _violated(mode, grid, fails):
                        verdicts[mode][(eps, delta)] = "violation"
                        witnesses[mode].append({
                            "mode": mode, "epsilon": eps, "delta": delta,
                            "x": np.asarray(x).tolist(),
                            "y": np.asarray(y).tolist(),
                            "theta_knots": theta.knots.tolist(),
                            "horizon": list(horizon), "grid_n": config.grid_n,
                            "arc_tol": ARC_TOL, "lipschitz": float(L),
                            "tol": config.tol, "measured_sup": float(sup),
                            "failing_times": fails,
                            "field": field.to_json_dict()})
                        break
    return [ScanReport(mode=m, verdicts=verdicts[m], witnesses=witnesses[m],
                       budget=config.budget, budget_used=used,
                       horizon=horizon, n_pairs=len(pairs)) for m in modes]


def expansiveness_scan(config: ScanConfig, mode: str) -> ScanReport:
    """Budgeted search for shadowing pairs breaking the mode's conclusion."""
    if mode not in MODES:
        raise DomainError(f"unknown mode {mode!r}; choose from {MODES}")
    return _scan(config, (mode,))[0]


# ---------------------------------------------------------------------------
# witness replay


@dataclass
class ReplayResult:
    reproduced: bool
    measured_sup: float
    failing_times: list


#: The keys of a witness record that a replay reads, with their JSON types;
#: a scan's witness also records "measured_sup" and "failing_times".
_WITNESS_KEYS = {"mode": str, "epsilon": (int, float), "delta": (int, float),
                 "x": list, "y": list, "theta_knots": list, "horizon": list,
                 "grid_n": int, "arc_tol": (int, float),
                 "lipschitz": (int, float), "tol": (int, float), "field": dict}


def replay_witness(source) -> ReplayResult:
    """Re-verify a stored violation from its serialized data alone; a
    WitnessError if the data cannot be read or lacks a key of its type."""
    try:
        d = source if isinstance(source, dict) else read_json(source)
    except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise WitnessError(f"cannot read the witness: {exc}") from exc
    for key, kind in _WITNESS_KEYS.items():
        if not isinstance(d, dict) or not isinstance(d.get(key), kind):
            raise WitnessError(f"the witness has no {key!r} of its type")
    if not isinstance(d["field"].get("kind"), str):
        raise WitnessError("the witness's field has no 'kind'")
    field = field_from_json(d["field"])
    theta = Reparametrization(np.asarray(d["theta_knots"], dtype=float))
    x = np.asarray(d["x"], dtype=float)
    y = np.asarray(d["y"], dtype=float)
    grid = np.linspace(d["horizon"][0], d["horizon"][1], d["grid_n"])
    xs = flow_points(field, x, grid, d["tol"])
    ys = flow_points(field, y, theta(grid), d["tol"])
    speeds = np.array([speed(field, s) for s in xs])
    sup = _sup(xs, ys, speeds, d["mode"] == "rescaled")
    fails = _conclusion_failures(
        grid, _arc_times(_charts(field, xs, d["lipschitz"]), ys,
                         d["arc_tol"]), d["epsilon"])
    reproduced = bool(_violated(d["mode"], grid, fails)
                      and sup <= d["delta"] * (1.0 + 1e-9))
    return ReplayResult(reproduced=reproduced, measured_sup=sup,
                        failing_times=fails)


# ---------------------------------------------------------------------------
# admissible epsilon for the shadowing-implies-arc statement


def epsilon0_estimate(T, L, c):
    """Admissible epsilon min(r1/3, 3 delta_T) for a horizon T > r0.

    r0 = 1/(10 L_eff), r1 = r1(T), and delta_T = min(r0/12, r1/3, delta(eps_T))
    with eps_T = r0/(2T) and delta = `admissible_delta`(., L, c) collects the
    crossing-sequence requirements.  Monotone non-increasing in L_eff.
    """
    r0 = chart_radius(L)
    if T <= r0:
        raise HorizonError(f"T={T} must exceed the chart radius r0={r0:.3e}")
    r1 = section_radius(T, L)
    eps_T = r0 / (2.0 * T)
    delta_T = min(r0 / 12.0, r1 / 3.0, admissible_delta(eps_T, L, c))
    return float(min(r1 / 3.0, 3.0 * delta_T))


# ---------------------------------------------------------------------------
# nonsingular equivalence probe


@dataclass
class ProbeReport:
    epsilons: list
    thresholds: dict                # mode -> {eps: largest clean delta or None}
    speed_ratio: float
    consistent: bool
    reports: dict

    def to_json_dict(self):
        return {
            "epsilons": self.epsilons,
            "thresholds": {m: {str(e): v for e, v in d.items()}
                           for m, d in self.thresholds.items()},
            "speed_ratio": self.speed_ratio,
            "consistent": self.consistent,
            "reports": {m: r.to_json_dict() for m, r in self.reports.items()},
        }


def nonsingular_equivalence_probe(config: ScanConfig) -> ProbeReport:
    """Run all three scan modes on the same samples and compare thresholds.

    The modes share one pass over the candidate pairs (see `_scan`).

    For each epsilon the largest grid delta with no violation is reported
    per mode; consistency means each pair of thresholds differs by at most
    the speed-ratio factor of the scanned region (with one-grid-step slack).
    Requires a singularity-free sample region.
    """
    field = config.field
    speeds = [speed(field, p) for p in config.base_points]
    if min(speeds) <= 1e3 * field.singular_speed():
        raise DomainError("scan region contains (near-)singular samples")
    ratio = max(speeds) / min(speeds)
    reports = dict(zip(MODES, _scan(config, MODES)))
    deltas = sorted(float(d) for d in config.deltas)
    grid_slack = max((deltas[i + 1] / deltas[i]
                      for i in range(len(deltas) - 1)), default=1.0)
    thresholds = {m: {} for m in MODES}
    for m in MODES:
        for eps in config.epsilons:
            # every delta below the first violated level is clean
            lim = min((d for d in deltas
                       if reports[m].verdict(eps, d) == "violation"),
                      default=np.inf)
            thresholds[m][float(eps)] = max(
                (d for d in deltas if d < lim), default=None)
    consistent = True
    factor = ratio * grid_slack * (1.0 + 1e-9)
    for eps in config.epsilons:
        vals = [thresholds[m][float(eps)] for m in MODES]
        if any(v is None for v in vals):
            if not all(v is None for v in vals):
                consistent = False
            continue
        for a in vals:
            for bb in vals:
                if a > bb * factor:
                    consistent = False
    return ProbeReport(epsilons=[float(e) for e in config.epsilons],
                       thresholds=thresholds, speed_ratio=float(ratio),
                       consistent=bool(consistent), reports=reports)
