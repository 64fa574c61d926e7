import sys

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from flowlab import fields, hyperbolic
from flowlab.errors import (CrossingDetectionError, DomainError,
                            EscapeError, FlowDirectionError,
                            NoDominationError, RebalanceInfeasibleError)
from flowlab.fields import Box, flow_points, ivp_options, make_field, \
    sample_orbit
from flowlab.hyperbolic import (CocycleSpec, NormalSplitting, TangentSplitting,
                                check_domination, estimate_normal_splitting,
                                estimate_tangent_splitting, evaluate_cocycle,
                                flow_speed_cocycle,
                                induce_from_tangent_splitting,
                                pragmatical_cocycle, rebalance_sequence,
                                step_flows, trivial_cocycle)
from flowlab.poincare import psi_ambient
from flowlab.util import mininorm
from oracles import (domination_entries_loop, evolve_direction,
                     validate_normal_splitting)

#: Isolating boxes of acceptance check C5, around the origin and around C+.
C5_BOXES = (Box([-6, -6, -2], [6, 6, 12]), Box([4, 4, 20], [13, 13, 34]))


def _eigen_splitting(field, orbit, tol, stable_axis=0, unstable_axis=1):
    n = orbit.n_nodes
    s = np.zeros((n, 3, 1))
    u = np.zeros((n, 3, 1))
    s[:, stable_axis, 0] = 1.0
    u[:, unstable_axis, 0] = 1.0
    return NormalSplitting(orbit=orbit, stable=s, unstable=u,
                           steps=step_flows(field, orbit, orbit.step(), tol))


# ----------------------------------------------------- splitting estimation


def test_splitting_recovers_eigenbasis(diag_mixed):
    orbit = sample_orbit(diag_mixed, np.array([0.0, 0.0, np.exp(-4.0)]),
                         np.arange(13) * 2.0, tol=1e-12)
    sp = estimate_normal_splitting(diag_mixed, orbit, dim_s=1, T_block=2.0,
                                   tol=1e-12)
    # the stable sweep runs backward, the unstable one forward: measure each
    # where it has accumulated at least 7 blocks
    ang_s = np.sqrt(1 - min(1, abs(float(sp.stable[5][:, 0] @ [1, 0, 0]))) ** 2)
    ang_u = np.sqrt(1 - min(1, abs(float(sp.unstable[7][:, 0] @ [0, 1, 0]))) ** 2)
    assert ang_s <= 1e-6
    assert ang_u <= 1e-6
    validate_normal_splitting(sp, diag_mixed)


def test_splitting_psi_invariance(diag_mixed):
    orbit = sample_orbit(diag_mixed, np.array([0.0, 0.0, np.exp(-4.0)]),
                         np.arange(13) * 2.0, tol=1e-12)
    sp = estimate_normal_splitting(diag_mixed, orbit, 1, 2.0, tol=1e-12,
                                   warmup=4)
    for i in range(sp.orbit.n_nodes - 1):
        amb, _ = psi_ambient(diag_mixed, sp.orbit.states[i], 2.0, 1e-12)
        moved = amb @ sp.unstable[i][:, 0]
        moved /= np.linalg.norm(moved)
        ang = np.sqrt(max(0.0, 1 - float(moved @ sp.unstable[i + 1][:, 0]) ** 2))
        assert ang <= 1e-4


def test_rotation_has_no_domination(rotation):
    orbit = sample_orbit(rotation, np.array([1.0, 0.0]), np.arange(4) * 0.5)
    with pytest.raises(NoDominationError):
        estimate_normal_splitting(rotation, orbit, 1, 0.5)


def test_isometric_normal_cocycle_rejected(saddle_susp):
    # the suspension with a = b has normal rates +1/-1: gap exists; with
    # a = b = 0 the normal cocycle is isometric and must be rejected
    f = make_field("saddle_suspension", (0.0, 0.0, 1.0))
    orbit = sample_orbit(f, np.array([0.3, 0.2, 0.0]), np.arange(5) * 0.5)
    with pytest.raises(NoDominationError):
        estimate_normal_splitting(f, orbit, 1, 0.5)


# ------------------------------------------------------------- domination


def test_domination_flow_speed_cocycle(diag_mixed):
    orbit = sample_orbit(diag_mixed, np.array([0.0, 0.0, 1.0]),
                         np.arange(5) * 0.5, tol=1e-12)
    spl = _eigen_splitting(diag_mixed, orbit, 1e-12)
    rep = check_domination(diag_mixed, spl,
                           (trivial_cocycle(), flow_speed_cocycle()),
                           1.05, 0.4, [0.5, 1.0, 2.0], tol=1e-12)
    assert rep.domination_ok and rep.contraction_ok and rep.expansion_ok
    assert rep.min_principal_angle == pytest.approx(1.0)
    # closed form: domination product e^{-1.5 t}, rescaled expansion e^{0.5 t}
    e = [x for x in rep.entries if x["node"] == 0 and x["t"] == 1.0][0]
    assert e["domination_product"] == pytest.approx(np.exp(-1.5), rel=1e-9)
    assert e["rescaled_expansion"] == pytest.approx(np.exp(0.5), rel=1e-9)


def test_domination_trivial_cocycle_fails_expansion(diag_mixed):
    orbit = sample_orbit(diag_mixed, np.array([0.0, 0.0, 1.0]),
                         np.arange(5) * 0.5, tol=1e-12)
    spl = _eigen_splitting(diag_mixed, orbit, 1e-12)
    rep = check_domination(diag_mixed, spl,
                           (trivial_cocycle(), trivial_cocycle()),
                           1.05, 1.4, [0.5, 1.0], tol=1e-12)
    assert rep.domination_ok       # rate 1.5 beats lambda = 1.4
    assert not rep.expansion_ok    # e^{-0.5 t} contracts without the cocycle


def test_domination_requires_grid_on_nodes(diag_mixed):
    orbit = sample_orbit(diag_mixed, np.array([0.0, 0.0, 1.0]),
                         np.arange(4) * 0.5, tol=1e-11)
    spl = _eigen_splitting(diag_mixed, orbit, 1e-9)
    # 0.7 is off the node spacing; 2.0 spans the whole 4-node window
    for t_grid in ([0.7], [2.0]):
        with pytest.raises(DomainError):
            check_domination(diag_mixed, spl,
                             (trivial_cocycle(), flow_speed_cocycle()),
                             1.05, 0.4, t_grid)


def _lorenz_splitting(lorenz, burn, tol=1e-10):
    """A 3-node splitting window (T_block 0.5, warmup 1) of a burnt-in
    Lorenz orbit."""
    x0 = flow_points(lorenz, np.array([1.0, 1.0, 1.0]), [burn], tol)[0]
    orbit = sample_orbit(lorenz, x0, np.arange(5) * 0.5, tol=tol)
    return estimate_normal_splitting(lorenz, orbit, 1, 0.5, tol=tol, warmup=1)


def _c5_product():
    return CocycleSpec(kind="product", factors=tuple(
        pragmatical_cocycle(b) for b in C5_BOXES))


class _Calls:
    """Every `fields.flow` call, by (start, t), and every solve_ivp call of
    `hyperbolic`, by (t_span, dense)."""

    def __init__(self, monkeypatch):
        self.flows = []
        self.solves = []
        inner_flow, inner_solve = fields.flow, hyperbolic.solve_ivp

        def flow(field, x, t, tol=1e-9):
            self.flows.append((np.asarray(x, dtype=float).tobytes(), float(t)))
            return inner_flow(field, x, t, tol)

        def solve(fun, t_span, y0, **kwargs):
            self.solves.append((tuple(map(float, t_span)),
                                bool(kwargs.get("dense_output"))))
            return inner_solve(fun, t_span, y0, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name.startswith("flowlab") and getattr(mod, "flow", None) is inner_flow:
                monkeypatch.setattr(mod, "flow", flow)
        monkeypatch.setattr(hyperbolic, "solve_ivp", solve)


def test_domination_flows_once_per_node_and_time(lorenz, monkeypatch):
    # burn 8: the window and its images over |t| <= 1 stay outside both C5
    # boxes, so the product is 1 and needs no direction transport
    tol = 1e-10
    spl = _lorenz_splitting(lorenz, 8.0, tol)
    product = _c5_product()
    states = spl.orbit.states
    for i in range(3):
        for t in (0.5, 1.0, -0.5, -1.0):
            assert evaluate_cocycle(lorenz, product, states[i], [1, 0, 0], t,
                                    tol) == 1.0
    pairs = [(i, 0.5) for i in range(2)] + [(0, 1.0)]
    expected = sorted([(states[i + int(t / 0.5)].tobytes(), -t)
                       for i, t in pairs] + [(states[0].tobytes(), 1.0)])
    for h_u, dense in ((flow_speed_cocycle(), 0), (product, 2 * len(pairs))):
        calls = _Calls(monkeypatch)
        check_domination(lorenz, spl, (trivial_cocycle(), h_u), 8.0, 0.05,
                         [0.5, 1.0], tol)
        # no forward flow at T_block; one backward flow per (node, t); one
        # forward flow per node at t = 1.0, shared by psi and the cocycle
        assert sorted(calls.flows) == expected
        # one dense solve per product evaluation, and no transport
        assert len(calls.solves) == dense
        assert all(is_dense for _, is_dense in calls.solves)
        monkeypatch.undo()


def test_transport_stops_at_the_last_inside_segment(diag3, monkeypatch):
    # enter the box at t = ln(4)/3, leave at ln(500)/2 < 3.5: the segment
    # after the exit is not transported
    box = Box([-0.5, -0.5, -0.5], [0.5, 0.5, 0.5])
    calls = _Calls(monkeypatch)
    v = evaluate_cocycle(diag3, pragmatical_cocycle(box), [2.0, 0.0, 1e-3],
                         [0, 0, 1], 3.5, tol=1e-11)
    assert v == pytest.approx(np.exp(np.log(500.0) - 2 * np.log(4.0) / 3.0),
                              rel=1e-6)
    assert [is_dense for _, is_dense in calls.solves] == [True, False, False]


@pytest.mark.parametrize("burn", [8.0, 13.0])
def test_domination_entries_match_per_flow_loop(lorenz, burn):
    # burn 13 crosses the C5 boxes, so the product leg transports
    tol = 1e-10
    spl = _lorenz_splitting(lorenz, burn, tol)
    for h_u in (flow_speed_cocycle(), _c5_product()):
        cocycles = (trivial_cocycle(), h_u)
        rep = check_domination(lorenz, spl, cocycles, 8.0, 0.05, [0.5, 1.0],
                               tol)
        loop = domination_entries_loop(lorenz, spl, cocycles, 8.0, 0.05,
                                       [0.5, 1.0], tol)
        assert len(rep.entries) == len(loop) == 3
        for got, want in zip(rep.entries, loop):
            for key, value in want.items():
                assert repr(got[key]) == repr(value), key


def test_crossing_grid_is_bitwise_per_point(lorenz, lorenz_attractor_point):
    # one interpolant call on the whole grid against one call per point
    for t in (1.2, -0.4):
        sol = solve_ivp(lambda s, y: lorenz.func(y), (0.0, t),
                        lorenz_attractor_point, method="DOP853",
                        **ivp_options(1e-10), dense_output=True).sol
        ts = np.linspace(0.0, t, hyperbolic.CROSSING_GRID)
        for box in C5_BOXES:
            grid = hyperbolic._box_gap(box, sol(ts).T)
            loop = np.array([hyperbolic._box_gap(box, sol(s)) for s in ts])
            assert grid.tobytes() == loop.tobytes()


# ------------------------------------------------------- induced splitting


def test_induce_diagonal_model(diag3):
    orbit = sample_orbit(diag3, np.array([0.0, 0.0, 1.0]),
                         np.arange(4) * 0.5, tol=1e-12)
    n = orbit.n_nodes
    e_basis = np.zeros((n, 3, 1))
    e_basis[:, 0, 0] = 1.0
    f_basis = np.zeros((n, 3, 2))
    f_basis[:, 1, 0] = 1.0
    f_basis[:, 2, 1] = 1.0
    tangent = TangentSplitting(orbit=orbit, e_basis=e_basis, f_basis=f_basis,
                               steps=step_flows(diag3, orbit, 0.5, 1e-12))
    split, h_u = induce_from_tangent_splitting(diag3, tangent)
    assert h_u.kind == "flow_speed"
    assert abs(split.stable[0][0, 0]) == pytest.approx(1.0)
    assert abs(split.unstable[0][1, 0]) == pytest.approx(1.0)
    # rescaled normal expansion equals the area expansion rate exactly
    for T in (0.5, 1.0, 2.0):
        amb, _ = psi_ambient(diag3, orbit.states[0], T, tol=1e-12)
        mu = mininorm(amb @ split.unstable[0])
        hu = evaluate_cocycle(diag3, h_u, orbit.states[0], [0, 0, 1], T,
                              tol=1e-12)
        assert hu * mu == pytest.approx(np.exp(T), rel=1e-10)


def test_induce_orthogonal_projection_is_identity(diag3):
    orbit = sample_orbit(diag3, np.array([0.0, 0.0, 1.0]),
                         np.arange(3) * 0.5, tol=1e-12)
    n = orbit.n_nodes
    e_basis = np.zeros((n, 3, 1))
    e_basis[:, 0, 0] = 1.0   # E = e1, orthogonal to F = span(e2, e3)
    f_basis = np.zeros((n, 3, 2))
    f_basis[:, 1, 0] = 1.0
    f_basis[:, 2, 1] = 1.0
    tangent = TangentSplitting(orbit=orbit, e_basis=e_basis, f_basis=f_basis,
                               steps=step_flows(diag3, orbit, 0.5, 1e-12))
    split, _ = induce_from_tangent_splitting(diag3, tangent)
    for i in range(n):
        assert np.allclose(np.abs(split.stable[i]), e_basis[i], atol=1e-12)


def test_induce_rejects_flow_outside_f(diag3):
    orbit = sample_orbit(diag3, np.array([0.0, 0.0, 1.0]),
                         np.arange(3) * 0.5, tol=1e-12)
    n = orbit.n_nodes
    e_basis = np.zeros((n, 3, 1))
    e_basis[:, 2, 0] = 1.0
    f_basis = np.zeros((n, 3, 2))
    f_basis[:, 0, 0] = 1.0
    f_basis[:, 1, 1] = 1.0   # flow direction e3 not in F
    tangent = TangentSplitting(orbit=orbit, e_basis=e_basis, f_basis=f_basis,
                               steps=step_flows(diag3, orbit, 0.5, 1e-12))
    with pytest.raises(FlowDirectionError):
        induce_from_tangent_splitting(diag3, tangent)


def test_tangent_estimation_feeds_induce(diag3):
    orbit = sample_orbit(diag3, np.array([0.0, 0.0, 0.01]),
                         np.arange(9) * 1.0, tol=1e-12)
    tangent = estimate_tangent_splitting(diag3, orbit, dim_e=1, T_block=1.0,
                                         tol=1e-12, warmup=3)
    split, h_u = induce_from_tangent_splitting(diag3, tangent, angle_tol=1e-4)
    rep = check_domination(diag3, split,
                           (trivial_cocycle(), h_u), 1.05, 0.4, [1.0],
                           tol=1e-12)
    assert rep.domination_ok and rep.expansion_ok


# ------------------------------------------------------------------ cocycles


def test_cocycle_zero_time(diag3):
    for spec in (trivial_cocycle(), flow_speed_cocycle(),
                 pragmatical_cocycle(Box([-1, -1, -1], [1, 1, 1]))):
        assert evaluate_cocycle(diag3, spec, [0, 0, 0.5], [0, 0, 1], 0.0) == 1.0


def test_flow_speed_closed_form(diag3):
    v = evaluate_cocycle(diag3, flow_speed_cocycle(), [0, 0, 0.5], [0, 0, 1],
                         0.7, tol=1e-12)
    assert v == pytest.approx(np.exp(2 * 0.7), rel=1e-10)


def test_pragmatical_outside_box_is_one(diag3):
    spec = pragmatical_cocycle(Box([-0.1, -0.1, -0.1], [0.1, 0.1, 0.1]))
    v = evaluate_cocycle(diag3, spec, [0, 0, 1.0], [0, 0, 1], 0.5, tol=1e-11)
    assert v == pytest.approx(1.0, abs=1e-12)


def test_pragmatical_saddle_passage(diag3):
    # orbit enters and leaves the box around the origin: two transverse
    # crossings; inside, the e3 direction grows like e^{2 dt}
    box = Box([-0.5, -0.5, -0.5], [0.5, 0.5, 0.5])
    spec = pragmatical_cocycle(box)
    spec.validate(diag3)
    x = np.array([2.0, 0.0, 1e-3])
    # closed-form crossing times: enter when 2 e^{-3s} = 0.5, leave when
    # 1e-3 e^{2s} = 0.5
    t_in = np.log(4.0) / 3.0
    t_out = np.log(500.0) / 2.0
    v_inside = evaluate_cocycle(diag3, spec, x, [0, 0, 1], 1.5, tol=1e-11)
    assert t_in < 1.5 < t_out
    assert v_inside == pytest.approx(np.exp(2 * (1.5 - t_in)), rel=1e-6)
    v_through = evaluate_cocycle(diag3, spec, x, [0, 0, 1], 3.5, tol=1e-11)
    assert v_through == pytest.approx(np.exp(2 * (t_out - t_in)), rel=1e-6)


def test_pragmatical_orbit_that_leaves_the_domain_escapes():
    # the orbit of x leaves [-10, 10]^3 along the first axis at t = ln(20)/2
    # forward (and along the other two at t = -ln(20) backward): the
    # cocycle raises EscapeError at flow's exit time, not a value
    field = make_field("linear", [2, 0, 0, 0, -1, 0, 0, 0, -1],
                       domain=Box(np.full(3, -10.0), np.full(3, 10.0)))
    spec = pragmatical_cocycle(Box([-1, -1, -1], [1, 1, 1]))
    x = np.array([0.5, 0.5, 0.5])
    for t, exit_time in ((3.0, np.log(20) / 2), (-3.0, -np.log(20))):
        with pytest.raises(EscapeError) as flowed:
            fields.flow(field, x, t)
        with pytest.raises(EscapeError) as exc:
            evaluate_cocycle(field, spec, x, [1, 0, 0], t)
        assert exc.value.exit_time == pytest.approx(exit_time, rel=1e-6)
        assert flowed.value.exit_time == pytest.approx(exit_time, rel=1e-6)


def test_pragmatical_from_outside_the_domain_raises():
    # a start outside [-10, 10]^3 is refused as in flow, for a pragmatical
    # cocycle and a product alike, instead of flowing to a value
    field = make_field("linear", [2, 0, 0, 0, -1, 0, 0, 0, -1],
                       domain=Box(np.full(3, -10.0), np.full(3, 10.0)))
    spec = pragmatical_cocycle(Box([-1, -1, -1], [1, 1, 1]))
    x = np.array([20.0, 0.5, 0.5])
    with pytest.raises(DomainError):
        fields.flow(field, x, 0.5)
    for cocycle in (spec, CocycleSpec(kind="product", factors=(spec,))):
        with pytest.raises(DomainError):
            evaluate_cocycle(field, cocycle, x, [1, 0, 0], 0.5)


def test_cocycle_identity_with_crossings(diag3):
    box = Box([-0.5, -0.5, -0.5], [0.5, 0.5, 0.5])
    spec = pragmatical_cocycle(box)
    x = np.array([2.0, 0.1, 1e-3])
    e = np.array([0.3, 0.1, 0.9])
    e /= np.linalg.norm(e)
    s, t = 0.8, 1.7
    lhs = evaluate_cocycle(diag3, spec, x, e, s + t, tol=1e-11)
    xs, es = evolve_direction(diag3, x, e, s, tol=1e-11)
    rhs = evaluate_cocycle(diag3, spec, x, e, s, tol=1e-11) * \
        evaluate_cocycle(diag3, spec, xs, es, t, tol=1e-11)
    assert abs(lhs - rhs) <= 1e-6 * abs(lhs)


def test_cocycle_identity_negative_time(diag3):
    spec = flow_speed_cocycle()
    x = np.array([0.0, 0.0, 1.0])
    e = np.array([0.0, 0.0, 1.0])
    v_fwd = evaluate_cocycle(diag3, spec, x, e, 0.6, tol=1e-12)
    xs, es = evolve_direction(diag3, x, e, 0.6, tol=1e-12)
    v_back = evaluate_cocycle(diag3, spec, xs, es, -0.6, tol=1e-12)
    assert v_fwd * v_back == pytest.approx(1.0, rel=1e-9)


def test_tangential_crossing_detected(rotation, monkeypatch):
    # unit circle grazes the box face x = 1 at (1, 0)
    monkeypatch.setattr(hyperbolic, "CROSSING_GRID", 512)
    spec = pragmatical_cocycle(Box([-2.0, -2.0], [1.0, 2.0]))
    with pytest.raises(CrossingDetectionError):
        evaluate_cocycle(rotation, spec, [0.0, -1.0], [1.0, 0.0], 3.0,
                         tol=1e-11)


def test_product_requires_disjoint_boxes(lorenz):
    a = pragmatical_cocycle(Box([-1, -1, -1], [1, 1, 1]))
    b = pragmatical_cocycle(Box([0, 0, 0], [2, 2, 2]))
    with pytest.raises(DomainError):
        CocycleSpec(kind="product", factors=(a, b)).validate(lorenz)


def test_pragmatical_box_must_isolate_one_singularity(lorenz):
    spec = pragmatical_cocycle(Box([-20, -20, -5], [20, 20, 50]))
    with pytest.raises(DomainError):
        spec.validate(lorenz)  # contains all three zeros
    ok = pragmatical_cocycle(Box([-5, -5, -5], [5, 5, 5]))
    ok.validate(lorenz)


# ----------------------------------------------------------------- rebalance


def test_rebalance_constant_blocks():
    res = rebalance_sequence([(0.5, 2.0)] * 11, eta=0.8, i_start=0)
    assert np.allclose(res.c, 0.625)
    assert res.c[0] * 0.5 <= 0.8
    assert res.c[0] * 2.0 == pytest.approx(1.25)
    assert np.allclose(res.b, 0.625 ** np.arange(12))
    assert res.sup_b == pytest.approx(1.0)


def test_rebalance_infeasible():
    with pytest.raises(RebalanceInfeasibleError):
        rebalance_sequence([(0.9, 1.1)] * 5, eta=0.5, i_start=0)


def test_rebalance_two_sided_band():
    norms = [(0.4, 2.2), (0.5, 2.0), (0.45, 2.4), (0.5, 2.0)]
    res = rebalance_sequence(norms, eta=0.8, i_start=-2, L=1.0, T=1.0)
    assert res.b[2] == pytest.approx(1.0)  # b_0 anchor
    # negative indices use the stable formula
    assert res.c[0] == pytest.approx(0.8 / 0.4)
    assert res.c[2] == pytest.approx(1.25 / 2.4)
    lo = 0.8 * np.exp(-1.0)
    hi = 1.25 * np.exp(1.0)
    assert np.all(res.c >= lo) and np.all(res.c <= hi)


def test_rebalance_requires_zero_anchor():
    with pytest.raises(DomainError):
        rebalance_sequence([(0.5, 2.0)] * 3, eta=0.8, i_start=2)
