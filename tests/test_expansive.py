import numpy as np
import pytest

from flowlab.errors import DomainError, HorizonError
from flowlab.expansive import (ScanConfig, epsilon0_estimate,
                               expansiveness_scan,
                               nonsingular_equivalence_probe, replay_witness,
                               save_witness)
from flowlab.fields import Box, sample_regular_points
from flowlab.flowbox import chart_radius


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
    save_witness(w, path)
    res = replay_witness(path)
    assert res.reproduced
    assert res.measured_sup <= w.delta * (1 + 1e-9)


def test_komuro_violation_implies_bowen_walters(rotation):
    cfg = _rotation_config(rotation)
    rep_k = expansiveness_scan(cfg, "komuro")
    for w in rep_k.witnesses:
        d = w.to_json_dict()
        d["mode"] = "bowen_walters"
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
        for mode in ("rescaled", "komuro", "bowen_walters"):
            t_nodes, x_nodes, grid, x_grid = E._base_orbit(rotation, x, cfg)
            thetas = E._candidate_thetas(rotation, x, y, cfg, mode, t_nodes,
                                         x_nodes)
            for theta, sup, ys in E._evaluate_pair(rotation, y, cfg, mode,
                                                   thetas, grid, x_grid):
                if sup > 0.1:
                    continue
                fails = E._conclusion_failures(rotation, grid, x_grid, ys,
                                               eps, 1.05, E.ARC_TOL)
                if mode == "komuro":
                    assert len(fails) < grid.size
                elif mode == "bowen_walters":
                    t0 = float(grid[int(np.argmin(np.abs(grid)))])
                    assert t0 not in fails
                else:
                    assert not fails


def test_one_base_orbit_solve_per_point(rotation, monkeypatch):
    # the fit nodes and the conclusion grid share one solve per base point
    import flowlab.expansive as E
    # budget 12 covers the 12 perturbation pairs; no y starts at a base point
    cfg = _rotation_config(rotation, budget=12,
                           base_points=((1.0, 0.0), (0.0, 1.3), (-0.8, 0.3)))
    calls = []
    inner = E.flow_points

    def recording(field, x, times, tol=1e-9):
        times = np.asarray(times, dtype=float)
        calls.append((tuple(np.asarray(x, dtype=float)), times.min(),
                      times.max()))
        return inner(field, x, times, tol)

    monkeypatch.setattr(E, "flow_points", recording)
    rep = expansiveness_scan(cfg, "rescaled")
    assert rep.budget_used == 12
    for bp in cfg.base_points:
        spans = [c for c in calls if c == (tuple(map(float, bp)), -3.0, 3.0)]
        assert len(spans) == 1, bp


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
        nonsingular_equivalence_probe(rotation, cfg)


def test_probe_saddle_suspension(saddle_susp):
    pts = sample_regular_points(saddle_susp, Box([-1, -1, -1], [1, 1, 1]), 6,
                                seed=3)
    deltas = tuple(0.01 * 1.3 ** k for k in range(12))
    cfg = ScanConfig(field=saddle_susp, base_points=tuple(map(tuple, pts)),
                     horizon=(-3.0, 3.0), epsilons=(0.02,), deltas=deltas,
                     budget=80, seed=3, lipschitz=1.05, lattice=(9, 9))
    probe = nonsingular_equivalence_probe(saddle_susp, cfg)
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
    probe = nonsingular_equivalence_probe(rotation, cfg)
    # base speeds are exactly 1: rescaled and komuro thresholds coincide
    assert probe.thresholds["rescaled"] == probe.thresholds["komuro"]


def test_probe_shares_pairs_and_base_orbits(rotation, monkeypatch):
    # the recurrence flows and the base-orbit solves do not depend on the
    # mode: the probe makes each once, and its reports are the three scans'
    import sys
    import flowlab.expansive as E
    pts = ((1.0, 0.0), (0.0, 1.3), (-0.8, 0.3), (0.6, -0.9))
    cfg = ScanConfig(field=rotation, base_points=pts, horizon=(-2.0, 2.0),
                     epsilons=(0.02,), deltas=(0.05, 0.2), budget=16, seed=4,
                     lipschitz=1.05)
    want = {m: expansiveness_scan(cfg, m).to_json_dict() for m in E.MODES}
    callers = []
    inner = E.flow_points

    def recording(field, x, times, tol=1e-9):
        callers.append(sys._getframe(1).f_code.co_name)
        return inner(field, x, times, tol)

    monkeypatch.setattr(E, "flow_points", recording)
    probe = nonsingular_equivalence_probe(rotation, cfg)
    assert {m: r.to_json_dict() for m, r in probe.reports.items()} == want
    assert callers.count("_candidate_pairs") == len(pts)
    # the 16 pairs used start at all four bases
    assert callers.count("_base_orbit") == len(pts)
