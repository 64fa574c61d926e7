import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowlab.errors import (DomainError, HypothesisError, NoPathError,
                            SingularityError)
from flowlab.fields import Box
from flowlab.flowbox import chart_radius
from flowlab.reparam import (Reparametrization, admissible_delta,
                             crossing_sequence, drift_bounds_check,
                             drift_trials, estimate_speed_ratio_constant,
                             fit_reparametrization, lattice_bottleneck,
                             rescaled_sup_distance)
from oracles import brute_force_bottleneck, orbit_time_control_trials


# --------------------------------------------------------------------- theta


def test_theta_requires_strict_monotonicity():
    with pytest.raises(DomainError):
        Reparametrization(np.array([[0.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(DomainError):
        Reparametrization(np.array([[0.0, 0.0], [0.0, 1.0]]))


def test_theta_identity_and_shift():
    th = Reparametrization.shift(0.25)
    assert th(0.0) == pytest.approx(0.25)
    assert th(3.0) == pytest.approx(3.25)
    assert th(-2.0) == pytest.approx(-1.75)


def test_theta_slope_one_extension():
    th = Reparametrization(np.array([[0.0, 0.0], [1.0, 2.0]]))
    assert th(2.0) == pytest.approx(3.0)   # 2 + (2 - 1)
    assert th(-1.0) == pytest.approx(-1.0)
    assert th(0.5) == pytest.approx(1.0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=2, max_size=6, unique=True),
       st.floats(-8, 8))
def test_theta_inverse_round_trip(ts, q):
    ts = np.sort(np.asarray(ts))
    if np.min(np.diff(ts)) < 1e-3:
        return
    knots = np.column_stack([ts, np.cumsum(np.abs(ts) + 0.5)])
    th = Reparametrization(knots)
    assert th.inverse(th(q)) == pytest.approx(q, abs=1e-9)


# ----------------------------------------------------- rescaled sup distance


def test_sup_concentric_circles(rotation):
    d = rescaled_sup_distance(rotation, [1, 0], [1.1, 0],
                              Reparametrization.identity(), (0, 6.0), 50)
    assert d == pytest.approx(0.1, abs=1e-6)


def test_sup_identity_pair(rotation):
    d = rescaled_sup_distance(rotation, [1, 0], [1, 0],
                              Reparametrization.identity(), (0, 5.0), 30)
    assert d == 0.0


def test_sup_orbit_shift_absorbed(rotation):
    s = 0.4
    y = np.array([np.cos(s), np.sin(s)])
    d = rescaled_sup_distance(rotation, [1, 0], y,
                              Reparametrization.shift(-s), (0, 5.0), 30)
    assert d <= 1e-8


def test_sup_singular_base_reports_time(saddle2d):
    with pytest.raises(SingularityError):
        rescaled_sup_distance(saddle2d, [0, 0], [0.1, 0],
                              Reparametrization.identity(), (0, 1), 8)


# ------------------------------------------------------------- lattice fits


def test_dp_equals_oracle_random():
    rng = np.random.default_rng(12)
    for _ in range(30):
        m, n = rng.integers(2, 9, size=2)
        cost = rng.random((m, n))
        v_dp, _ = lattice_bottleneck(cost)
        assert v_dp == brute_force_bottleneck(cost)


def test_dp_blocked_paths():
    cost = np.full((3, 3), np.inf)
    with pytest.raises(NoPathError):
        lattice_bottleneck(cost)


def test_fit_shifted_orbit_on_lattice(rotation):
    # the shift is on the offset lattice: the fit matches it to rounding
    s = 0.3
    y = np.array([np.cos(s), np.sin(s)])
    tn = np.linspace(0.0, 2.0, 11)
    offs = np.linspace(-0.5, 0.5, 21)  # contains -0.3 exactly
    theta, val = fit_reparametrization(
        rotation, np.array([1.0, 0.0]), y, t_nodes=tn,
        theta_nodes=tn[:, None] + offs[None, :], tol=1e-11)
    ref = rescaled_sup_distance(rotation, np.array([1.0, 0.0]), y,
                                Reparametrization.shift(-s), (0, 2.0), 11)
    assert val <= ref + 1e-12
    assert theta(1.0) == pytest.approx(0.7, abs=1e-12)


def test_fit_rectangular_matches_oracle(rotation):
    x = np.array([1.0, 0.0])
    y = np.array([1.1, 0.0])
    theta, val = fit_reparametrization(rotation, x, y,
                                       np.linspace(0.0, 2.0, 6),
                                       np.linspace(0.0, 2.0, 6), tol=1e-10)
    # rebuild the cost matrix and compare against enumeration
    from flowlab.fields import flow_points, speed
    tn = np.linspace(0.0, 2.0, 6)
    xs = flow_points(rotation, x, tn, 1e-10)
    ys = flow_points(rotation, y, tn, 1e-10)
    speeds = np.array([speed(rotation, p) for p in xs])
    cost = np.linalg.norm(xs[:, None, :] - ys[None, :, :], axis=2) / speeds[:, None]
    assert val == pytest.approx(brute_force_bottleneck(cost), abs=1e-15)


def test_fit_degenerate_2x2(rotation):
    x = np.array([1.0, 0.0])
    y = np.array([1.05, 0.0])
    theta, val = fit_reparametrization(rotation, x, y,
                                       np.linspace(0.0, 0.5, 2),
                                       np.linspace(0.0, 0.5, 2), tol=1e-10)
    from flowlab.fields import flow_points, speed
    tn = np.array([0.0, 0.5])
    xs = flow_points(rotation, x, tn, 1e-10)
    ys = flow_points(rotation, y, tn, 1e-10)
    speeds = np.array([speed(rotation, p) for p in xs])
    cost = np.linalg.norm(xs[:, None, :] - ys[None, :, :], axis=2) / speeds[:, None]
    # the diagonal path dominates; objective is the max of its node costs
    assert val == pytest.approx(max(cost[0, 0], cost[1, 1]), abs=1e-15)


def test_fit_no_path_when_base_singular(saddle2d):
    with pytest.raises(NoPathError):
        fit_reparametrization(saddle2d, np.zeros(2), np.array([0.1, 0.0]),
                              np.linspace(0.0, 1.0, 4),
                              np.linspace(0.0, 1.0, 4))


# --------------------------------------------------------- admissible delta


def test_admissible_delta_against_high_precision():
    import mpmath
    mpmath.mp.dps = 50
    L, c, eps = 1.05, 0.4, 0.3
    r0 = mpmath.mpf(1) / (10 * mpmath.mpf("1.05"))
    g = mpmath.e ** (2 * mpmath.mpf("1.05") * r0)
    expected = min(r0 / (6 * g), mpmath.mpf("0.4") / (18 * g),
                   mpmath.mpf("0.3") * r0 / (12 * (3 + 18 * g)))
    got = admissible_delta(eps, L, c)
    assert got == pytest.approx(float(expected), rel=1e-14)


def test_speed_ratio_constant_floor(rotation):
    c = estimate_speed_ratio_constant(rotation, Box([0.5, -0.5], [1.5, 0.5]),
                                      seed=3)
    assert c >= 0.5 / 1.05 * 0.999  # analytic floor 1/(2 L)


# ------------------------------------------------------------- drift bounds


def test_drift_identity_trivial(rotation):
    r0 = chart_radius(1.05)
    rep = drift_bounds_check(rotation, np.array([1.0, 0.0]),
                             np.array([1.0, 0.0]),
                             Reparametrization.identity(), r0, 0.3,
                             L=1.05, c=0.4)
    assert rep.drift == 0.0
    assert rep.bound_ok and rep.surjectivity_ok


def test_drift_hypothesis_error(rotation):
    r0 = chart_radius(1.05)
    with pytest.raises(HypothesisError) as exc:
        drift_bounds_check(rotation, np.array([1.0, 0.0]),
                           np.array([1.5, 0.0]),
                           Reparametrization.identity(), r0, 0.3,
                           L=1.05, c=0.4)
    assert exc.value.measured_sup > 0.0


def test_drift_subdivision_lengths(rotation):
    # T = 5 r0 subdivides into intervals within [r0/2, r0)
    L = 1.05
    r0 = chart_radius(L)
    T = 5 * r0
    rep = drift_bounds_check(rotation, np.array([1.0, 0.0]),
                             np.array([1.0, 0.0]),
                             Reparametrization.identity(), T, 0.1,
                             L=L, c=0.4)
    h = T / rep.n_intervals
    assert r0 / 2 <= h < r0
    assert len(rep.prefix_drifts) == rep.n_intervals


def test_drift_trials_rotation(rotation):
    trials = drift_trials(rotation, Box([0.5, -0.5], [1.5, 0.5]), 0.3,
                          5 * chart_radius(1.05), 10, seed=2, L=1.05)
    assert len(trials) == 10
    assert all(t.bound_ok for t in trials)
    assert all(t.measured_sup <= t.delta for t in trials)


def test_drift_trials_on_a_region_at_the_domain_face(rotation):
    # x within rho |X(x)| ~ 4.8e-4 of the face x1 = 10 pushes some y out of
    # [-10, 10]^2; those trials are dropped, and the call still makes all
    trials = drift_trials(rotation, Box([9.9999, -0.1], [10.0, 0.1]), 0.3,
                          chart_radius(1.05), 3, seed=0, L=1.05)
    assert len(trials) == 3
    assert all(t.bound_ok for t in trials)


# ------------------------------------------------------ orbit time control


def test_time_control_small_run(rotation):
    n, viol = orbit_time_control_trials(rotation, Box([0.5, -0.5], [1.5, 0.5]),
                                        500, seed=5, L=1.05)
    assert n == 500 and viol == 0


def test_time_control_arc_variant(rotation):
    # arcs staying inside the delta-ball force |t| <= 3 delta
    from flowlab.fields import flow_points, speed
    L = 1.05
    r0 = chart_radius(L)
    rng = np.random.default_rng(6)
    for _ in range(25):
        x = np.array([rng.uniform(0.6, 1.4), rng.uniform(-0.3, 0.3)])
        t = rng.uniform(-r0, r0)
        arc = flow_points(rotation, x, np.linspace(0, t, 12), 1e-10)
        sx = speed(rotation, x)
        reach = np.max(np.linalg.norm(arc - x, axis=1)) / sx
        if reach >= r0 / 3:
            continue
        delta = rng.uniform(reach, r0 / 3)
        assert abs(t) <= 3 * delta


# --------------------------------------------------------- crossing sequence


def test_crossing_self_shadowing(saddle2d):
    x = np.array([1.0, 0.0])
    res = crossing_sequence(saddle2d, x, x, Reparametrization.identity(),
                            1.0, range(0, 3), L=1.05, tol=1e-11)
    assert res.max_u_rel == 0.0 and res.max_t_offset == 0.0
    assert [it.T_k for it in res.items] == pytest.approx([0.0, 1.0, 2.0])


def test_crossing_shift_absorbed(rotation):
    s = 0.005
    x = np.array([1.0, 0.0])
    y = np.array([np.cos(s), np.sin(s)])
    res = crossing_sequence(rotation, x, y, Reparametrization.shift(-s),
                            1.0, range(0, 3), L=1.05, tol=1e-11)
    assert res.max_u_rel <= 1e-9
    assert [it.T_k for it in res.items] == pytest.approx([0.0, 1.0, 2.0],
                                                         abs=1e-9)


def test_crossing_linear_closed_form(saddle2d):
    x = np.array([1.0, 0.0])
    y = x + np.array([0.0, 1e-4])
    res = crossing_sequence(saddle2d, x, y, Reparametrization.identity(),
                            1.0, range(0, 4), L=1.05, tol=1e-11)
    for it in res.items:
        assert it.u[1] == pytest.approx(1e-4 * np.exp(-it.k), abs=1e-8)
    assert res.bounds_ok
    assert res.section_identity_ok
    assert res.max_section_defect <= 1e-6
    assert res.max_normal_residual <= 1e-9


def test_crossing_radius_preconditions(saddle2d):
    x = np.array([1.0, 0.0])
    # (offset, T, violated bound): delta ~ 0.05 > r0/12; and
    # r1(3)/3 ~ 1.9e-5 < delta ~ 1e-3 < r0/12 ~ 7.9e-3
    for offset, T, bound in ((0.05, 1.0, "r0/12"), (1e-3, 3.0, "r1(T)/3")):
        y = x + np.array([0.0, offset])
        with pytest.raises(HypothesisError, match=re.escape(bound)):
            crossing_sequence(saddle2d, x, y, Reparametrization.identity(),
                              T, range(0, 2), L=1.05)


def test_trials_csv_columns(tmp_path, rotation):
    from flowlab.reparam import trials_to_csv
    trials = drift_trials(rotation, Box([0.5, -0.5], [1.5, 0.5]), 0.3,
                          chart_radius(1.05), 3, seed=8, L=1.05)
    trials_to_csv(trials, tmp_path / "t.csv")
    header = (tmp_path / "t.csv").read_text().splitlines()[0]
    assert header == "trial,delta,drift,bound_ok"
