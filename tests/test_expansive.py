import numpy as np
import pytest

from flowlab.errors import DomainError, HorizonError
from flowlab.expansive import (ScanConfig, epsilon0_estimate,
                               expansiveness_scan,
                               nonsingular_equivalence_probe, replay_witness)
from flowlab.fields import Box, sample_regular_points
from flowlab.flowbox import chart_radius
from flowlab.util import write_json


def _rotation_config(rotation, **kw):
    defaults = dict(
        field=rotation,
        base_points=((1.0, 0.0), (1.1, 0.0), (0.8, 0.3)),
        horizon=(-3.0, 3.0),
        epsilons=(0.01, 0.05),
        deltas=(0.05, 0.2),
        budget=60,
        seed=1,
        lipschitz=1.05,
    )
    defaults.update(kw)
    return ScanConfig(**defaults)


def test_rotation_violations_all_modes(rotation):
    cfg = _rotation_config(rotation)
    for mode in ("rescaled", "komuro", "bowen_walters"):
        rep = expansiveness_scan(cfg, mode)
        assert all(v == "violation" for v in rep.verdicts.values()), mode
        assert rep.witnesses


def test_witness_replay_round_trip(tmp_path, rotation):
    rep = expansiveness_scan(_rotation_config(rotation), "rescaled")
    w = rep.witnesses[0]
    path = tmp_path / "w.json"
    write_json(w, path)
    res = replay_witness(path)
    assert res.reproduced
    assert res.measured_sup <= w["delta"] * (1 + 1e-9)


def test_komuro_violation_implies_bowen_walters(rotation):
    cfg = _rotation_config(rotation)
    rep_k = expansiveness_scan(cfg, "komuro")
    for w in rep_k.witnesses:
        d = dict(w, mode="bowen_walters")
        assert replay_witness(d).reproduced


def test_shift_pairs_never_violate(rotation):
    # pairs (x, phi_s(x)) with |s| <= eps satisfy the conclusion in all modes
    eps = 0.05
    xs = [np.array([1.0, 0.0]), np.array([0.7, 0.4])]
    pts = []
    for x in xs:
        pts.append(tuple(x))
    cfg = ScanConfig(field=rotation, base_points=tuple(pts),
                     horizon=(-2.0, 2.0), epsilons=(eps,), deltas=(0.1,),
                     budget=40, seed=2, lipschitz=1.05)
    import flowlab.expansive as E
    for x in xs:
        s = 0.6 * eps
        from flowlab.fields import flow_points
        y = flow_points(rotation, x, [s], 1e-10)[0]
        orbit = E._BaseOrbit(cfg, x, 1.05)
        grid = orbit.base[2]
        for mode in ("rescaled", "komuro", "bowen_walters"):
            rescale = mode == "rescaled"
            for theta, sup, ys in E._evaluate_pair(rotation, x, y, cfg, orbit,
                                                   (rescale,))[rescale]:
                if sup > 0.1:
                    continue
                fails = E._conclusion_failures(
                    grid, E._arc_times(orbit.charts, ys, E.ARC_TOL), eps)
                if mode == "komuro":
                    assert len(fails) < grid.size
                elif mode == "bowen_walters":
                    t0 = float(grid[int(np.argmin(np.abs(grid)))])
                    assert t0 not in fails
                else:
                    assert not fails


def _record_solves(monkeypatch):
    """Record every integration of flowlab.fields as (start point, end
    time, whether `_candidate_pairs` is on the stack)."""
    import sys
    import flowlab.fields as F
    calls = []
    inner = F.solve_ivp

    def recording(rhs, t_span, y0, **kw):
        frame, in_pairs = sys._getframe(1), False
        while frame is not None:
            in_pairs |= frame.f_code.co_name == "_candidate_pairs"
            frame = frame.f_back
        calls.append((tuple(np.asarray(y0, dtype=float)), t_span[1],
                      in_pairs))
        return inner(rhs, t_span, y0, **kw)

    monkeypatch.setattr(F, "solve_ivp", recording)
    return calls


def _assert_one_solve_per_sign(calls, bases, horizon):
    # per base point one forward integration over (0, max(hi, hi - lo)]
    # serves the fit nodes, the grid and the recurrence times; the
    # backward one over [lo, 0) is made at most once
    lo, hi = horizon
    assert not any(in_pairs for _, _, in_pairs in calls)
    for bp in bases:
        ends = [end for x, end, _ in calls if x == tuple(map(float, bp))]
        assert ends.count(max(hi, hi - lo)) == 1, bp
        assert ends.count(lo) <= 1, bp
        assert len(ends) == ends.count(max(hi, hi - lo)) + ends.count(lo)
    # and every y at most one dense solve per time sign, for all modes
    for y in {x for x, _, _ in calls} - {tuple(map(float, b))
                                         for b in bases}:
        ends = [end for x, end, _ in calls if x == y]
        assert sum(e < 0 for e in ends) <= 1
        assert sum(e > 0 for e in ends) <= 1


def test_one_base_orbit_solve_per_point(rotation, monkeypatch):
    # the fit nodes, the conclusion grid and the recurrence times share one
    # forward solve per base point, and _candidate_pairs solves nothing
    # budget 12 covers the 12 perturbation pairs; no y starts at a base point
    cfg = _rotation_config(rotation, budget=12,
                           base_points=((1.0, 0.0), (0.0, 1.3), (-0.8, 0.3)))
    calls = _record_solves(monkeypatch)
    rep = expansiveness_scan(cfg, "rescaled")
    assert rep.budget_used == 12
    _assert_one_solve_per_sign(calls, cfg.base_points, cfg.horizon)
    for bp in cfg.base_points:
        assert (tuple(map(float, bp)), -3.0, False) in calls


def test_shared_solves_match_separate_solves(rotation):
    # the recurrence states and the base-orbit states are bitwise those of
    # separate solves over the recurrence times and over the horizon, except
    # in the last step of the horizon solve: it ended at t = hi, the shared
    # one goes on to hi - lo
    import flowlab.expansive as E
    from scipy.integrate import solve_ivp
    from flowlab.fields import flow_points, ivp_options
    cfg = _rotation_config(rotation)
    lo, hi = cfg.horizon
    _, _, orbits = E._scan_inputs(cfg)
    for bp in cfg.base_points:
        orbit = orbits[tuple(map(float, bp))]
        t_nodes, x_nodes, grid, xs = orbit.base
        times = np.concatenate([t_nodes, grid])
        got = np.concatenate([x_nodes, xs])
        want = flow_points(rotation, bp, times, cfg.tol)
        steps = solve_ivp(lambda t, y: rotation.func(y), (0.0, hi), bp,
                          method="DOP853", **ivp_options(cfg.tol)).t
        inner = times <= steps[-2]
        assert got[inner].tobytes() == want[inner].tobytes()
        assert times[~inner].size < 4 and hi in times[~inner]
        assert np.allclose(got[~inner], want[~inner], rtol=0, atol=1e-9)
        t_rec = np.linspace(max(1.0, 0.05 * (hi - lo)), hi - lo, 48)
        assert orbit.recurrence.tobytes() == \
            flow_points(rotation, bp, t_rec, cfg.tol).tobytes()


def test_base_orbit_kept_when_only_recurrence_exits():
    # x(t) = x0 e^t leaves [-10, 10]^2 at t = 2.5: inside (hi, hi - lo] of
    # the horizon (-1, 2), so the base orbit stays and its recurrence pair
    # is dropped
    import flowlab.expansive as E
    from flowlab.errors import EscapeError
    from flowlab.fields import flow_points, make_field
    saddle = make_field("linear", [1.0, 0.0, 0.0, -1.0],
                        domain=Box([-10.0, -10.0], [10.0, 10.0]))
    x = (10.0 * np.exp(-2.5), 0.5)
    cfg = ScanConfig(field=saddle, base_points=(x,), horizon=(-1.0, 2.0),
                     epsilons=(0.01,), deltas=(0.05,), budget=2, seed=0,
                     lipschitz=1.05)
    _, pairs, orbits = E._scan_inputs(cfg)
    orbit = orbits[x]
    assert orbit.recurrence is None
    assert len(pairs) == 2  # the two perturbation pairs only
    t_nodes, x_nodes, grid, xs = orbit.base
    assert np.allclose(xs[-1], [x[0] * np.exp(2.0), x[1] * np.exp(-2.0)])
    # the separate solves break exactly the same way
    flow_points(saddle, x, grid, cfg.tol)
    with pytest.raises(EscapeError):
        flow_points(saddle, x, np.linspace(1.0, 3.0, 48), cfg.tol)
    assert expansiveness_scan(cfg, "rescaled").budget_used == 2


def test_y_exit_before_horizon_keeps_identity(monkeypatch):
    # y's second coordinate 2.75 e^{-t} leaves [-10, 10]^2 at t = -1.29:
    # after the lattice start -1.6 but before the horizon start -1, so the
    # fit is lost and the identity theta is kept
    import flowlab.expansive as E
    from flowlab.errors import EscapeError
    from flowlab.fields import flow_points, make_field
    from flowlab.reparam import Reparametrization
    saddle = make_field("linear", [1.0, 0.0, 0.0, -1.0],
                        domain=Box([-10.0, -10.0], [10.0, 10.0]))
    x, y = (0.5, 2.7), np.array([0.5, 2.75])
    cfg = ScanConfig(field=saddle, base_points=(x,), horizon=(-1.0, 1.0),
                     epsilons=(0.01,), deltas=(0.2,), seed=0, lipschitz=1.05)
    _, _, orbits = E._scan_inputs(cfg)
    orbit = orbits[x]
    t_nodes, _, grid, xs = orbit.base
    with pytest.raises(EscapeError):
        flow_points(saddle, y, t_nodes - 0.6, cfg.tol)
    cands = E._evaluate_pair(saddle, np.array(x), y, cfg, orbit,
                             (True,))[True]
    assert [c[0].knots.tolist() for c in cands] == \
        [Reparametrization.identity().knots.tolist()]
    ys = flow_points(saddle, y, grid, cfg.tol)
    assert np.allclose(cands[0][2], ys, rtol=0, atol=1e-9)
    assert cands[0][1] == pytest.approx(E._sup(xs, ys, np.linalg.norm(
        saddle.func(xs), axis=1), True), rel=1e-9)
    # leaving before the horizon start (at t = -ln 2) leaves no candidate,
    # after one backward solve and no forward one
    y_out = np.array([0.5, 5.0])
    calls = _record_solves(monkeypatch)
    assert E._evaluate_pair(saddle, np.array(x), y_out, cfg, orbit,
                            (True,)) == {True: []}
    assert [end for _, end, _ in calls] == [pytest.approx(-1.6)]
    # a y that starts outside the domain leaves no candidate, and no solve
    calls.clear()
    assert E._evaluate_pair(saddle, np.array(x), np.array([0.5, 10.5]), cfg,
                            orbit, (True,)) == {True: []}
    assert calls == []


def test_budget_monotonicity(rotation):
    cfg_small = _rotation_config(rotation, budget=6)
    cfg_large = _rotation_config(rotation, budget=60)
    rep_small = expansiveness_scan(cfg_small, "rescaled")
    rep_large = expansiveness_scan(cfg_large, "rescaled")
    for key, verdict in rep_small.verdicts.items():
        if verdict == "violation":
            assert rep_large.verdicts[key] == "violation"


def test_epsilon_grid_must_fit_chart(rotation):
    cfg = _rotation_config(rotation, epsilons=(0.5,))
    with pytest.raises(DomainError):
        expansiveness_scan(cfg, "rescaled")


# ----------------------------------------------------------------- epsilon0


def test_epsilon0_formula_high_precision():
    import mpmath
    mpmath.mp.dps = 40
    L, c, T = 1.05, 0.4, 1.0
    got = epsilon0_estimate(T, L, c)
    Lm = mpmath.mpf("1.05")
    r0 = 1 / (10 * Lm)
    r1 = mpmath.e ** (-2 * Lm * T) * r0 / 3
    eps_T = r0 / (2 * T)
    g = mpmath.e ** (2 * Lm * r0)
    delta_drift = min(r0 / (6 * g), mpmath.mpf("0.4") / (18 * g),
                      eps_T * r0 / (12 * (3 + 18 * g)))
    delta_T = min(r0 / 12, r1 / 3, delta_drift)
    expected = min(r1 / 3, 3 * delta_T)
    assert got == pytest.approx(float(expected), rel=1e-12)


def test_epsilon0_decreases_with_lipschitz():
    a = epsilon0_estimate(1.0, L=1.05, c=0.4)
    b = epsilon0_estimate(1.0, L=2.10, c=0.4)
    assert b < a


def test_epsilon0_constant_field_floor():
    # a constant field has L = 0; the floor 1e-2 keeps everything finite
    val = epsilon0_estimate(11.0, L=0.0, c=0.5)
    assert np.isfinite(val) and val > 0
    r0 = chart_radius(0.0)
    assert r0 == pytest.approx(10.0)


def test_epsilon0_horizon_error():
    with pytest.raises(HorizonError):
        epsilon0_estimate(0.01, L=1.05, c=0.4)


# -------------------------------------------------------- equivalence probe


def test_probe_rejects_singular_region(rotation):
    cfg = ScanConfig(field=rotation, base_points=((0.0, 1e-13),),
                     horizon=(-1, 1), epsilons=(0.01,), deltas=(0.05,),
                     budget=5, seed=0, lipschitz=1.05)
    with pytest.raises(DomainError):
        nonsingular_equivalence_probe(cfg)


def test_probe_saddle_suspension(saddle_susp):
    pts = sample_regular_points(saddle_susp, Box([-1, -1, -1], [1, 1, 1]), 6,
                                seed=3)
    deltas = tuple(0.01 * 1.3 ** k for k in range(12))
    cfg = ScanConfig(field=saddle_susp, base_points=tuple(map(tuple, pts)),
                     horizon=(-3.0, 3.0), epsilons=(0.02,), deltas=deltas,
                     budget=80, seed=3, lipschitz=1.05, lattice=(9, 9))
    probe = nonsingular_equivalence_probe(cfg)
    assert probe.consistent
    assert probe.speed_ratio >= 1.0


def test_probe_unit_speed_region_coincides(rotation):
    # all bases on the unit circle: the rescaled and plain metrics agree
    angles = np.linspace(0, 2 * np.pi, 7)[:-1]
    pts = tuple((float(np.cos(a)), float(np.sin(a))) for a in angles)
    deltas = (0.02, 0.05, 0.1, 0.2)
    cfg = ScanConfig(field=rotation, base_points=pts, horizon=(-3.0, 3.0),
                     epsilons=(0.02,), deltas=deltas, budget=60, seed=4,
                     lipschitz=1.05)
    probe = nonsingular_equivalence_probe(cfg)
    # base speeds are exactly 1: rescaled and komuro thresholds coincide
    assert probe.thresholds["rescaled"] == probe.thresholds["komuro"]


def test_probe_shares_pairs_and_base_orbits(rotation, monkeypatch):
    # the base orbits (with their recurrence times) and the y orbits do not
    # depend on the mode: the probe solves each once, and its reports are
    # the three scans'
    import flowlab.expansive as E
    pts = ((1.0, 0.0), (0.0, 1.3), (-0.8, 0.3), (0.6, -0.9))
    cfg = ScanConfig(field=rotation, base_points=pts, horizon=(-2.0, 2.0),
                     epsilons=(0.02,), deltas=(0.05, 0.2), budget=16, seed=4,
                     lipschitz=1.05)
    want = {m: expansiveness_scan(cfg, m).to_json_dict() for m in E.MODES}
    calls = _record_solves(monkeypatch)
    probe = nonsingular_equivalence_probe(cfg)
    assert {m: r.to_json_dict() for m, r in probe.reports.items()} == want
    _assert_one_solve_per_sign(calls, pts, cfg.horizon)
    # the 16 pairs used start at all four bases
    for bp in pts:
        assert (tuple(map(float, bp)), -2.0, False) in calls
