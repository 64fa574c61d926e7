import contextlib
import inspect
import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from flowlab import _dop853
from flowlab.errors import DomainError, EscapeError
from flowlab.fields import (Box, DenseOrbit, _augmented_rhs, _brentq,
                            _domain_event, _fd_jacobian, custom_field,
                            estimate_lipschitz, evaluate, flow, flow_points,
                            flow_states_batch, ivp_options, make_field,
                            orbit_states, sample_orbit, solve_ivp, speeds)
from oracles import (estimate_lipschitz_loop, orbit_to_csv,
                     validate_orbit_segment)

BUILTIN_KINDS = [
    ("linear", [-3.0, 0.5, 0.0, 0.2, -1.0, 0.0, 0.0, 0.7, 2.0]),
    ("rotation", ()),
    ("lorenz", (10.0, 28.0, 8.0 / 3.0)),
    ("saddle_suspension", (1.3, 0.7, -2.0)),
]


def test_evaluate_linear(saddle2d):
    x, J = evaluate(saddle2d, [1.0, 0.0])
    assert np.allclose(x, [1.0, 0.0])
    assert np.allclose(J, np.diag([1.0, -1.0]))


def test_evaluate_rotation(rotation):
    x, J = evaluate(rotation, [1.0, 0.0])
    assert np.allclose(x, [0.0, 1.0])
    assert np.allclose(J, [[0.0, -1.0], [1.0, 0.0]])


def test_evaluate_lorenz_origin_singular(lorenz):
    x, _ = evaluate(lorenz, [0.0, 0.0, 0.0])
    assert np.allclose(x, 0.0)


def test_evaluate_outside_domain(rotation):
    with pytest.raises(DomainError):
        evaluate(rotation, [100.0, 0.0])


def test_lorenz_requires_params():
    with pytest.raises(DomainError):
        make_field("lorenz")


def test_unknown_kind_lists_registry():
    with pytest.raises(DomainError, match="registry"):
        make_field("nosuch")


def test_flow_linear_closed_form(saddle2d):
    p, M = flow(saddle2d, [1.0, 0.0], np.log(2.0), tol=1e-12)
    assert np.allclose(p, [2.0, 0.0], atol=1e-10)
    assert np.allclose(M, np.diag([2.0, 0.5]), atol=1e-10)


def test_flow_zero_time_is_identity(lorenz):
    p, M = flow(lorenz, [1.0, 2.0, 3.0], 0.0)
    assert np.allclose(p, [1.0, 2.0, 3.0])
    assert np.allclose(M, np.eye(3))


def test_flow_step_halving_oracle(lorenz):
    # self-consistency: tighten the tolerance and compare
    tol = 1e-9
    p1, M1 = flow(lorenz, [1.0, 1.0, 1.0], 1.0, tol=tol)
    p2, M2 = flow(lorenz, [1.0, 1.0, 1.0], 1.0, tol=tol / 2)
    assert np.linalg.norm(p1 - p2) <= 10 * tol * max(1.0, np.linalg.norm(p2))
    assert np.linalg.norm(M1 - M2) <= 10 * tol * np.linalg.norm(M2)


def test_flow_escape_reports_exit_time(saddle2d):
    with pytest.raises(EscapeError) as exc:
        flow(saddle2d, [1.0, 0.0], 10.0)
    assert exc.value.exit_time is not None
    # e^t = 100 at t = ln 100
    assert exc.value.exit_time == pytest.approx(np.log(100.0), rel=1e-3)


def test_orbit_states_keeps_what_was_reached(saddle2d):
    # (e^t, 0.5 e^-t) leaves [-100, 100]^2 forward at t = ln 100 and
    # backward at t = -ln 200
    x = np.array([1.0, 0.5])
    times = [6.0, -1.0, 1.0, 4.0, 5.0]
    states, exit_time = orbit_states(saddle2d, x, times, 1e-10)
    assert exit_time == pytest.approx(np.log(100.0), rel=1e-6)
    assert np.all(np.isnan(states[[0, 4]]))
    exact = np.stack([np.exp(times[1:4]), 0.5 * np.exp(-np.array(times[1:4]))],
                     axis=1)
    assert np.allclose(states[1:4], exact, rtol=1e-8, atol=0)
    # a backward exit ends the call: the forward sign is not solved
    states, exit_time = orbit_states(saddle2d, x, [-6.0, -1.0, 1.0], 1e-10)
    assert exit_time == pytest.approx(-np.log(200.0), rel=1e-6)
    assert np.all(np.isnan(states[[0, 2]])) and not np.any(np.isnan(states[1]))
    with pytest.raises(EscapeError) as exc:
        flow_points(saddle2d, x, times, 1e-10)
    assert exc.value.exit_time == pytest.approx(np.log(100.0), rel=1e-6)


def test_dense_orbit_is_bitwise_flow_points(lorenz, saddle2d):
    # over the same span, the dense states are the t_eval states bit for bit
    x = np.array([-5.76, -8.93, 17.36])
    times = np.concatenate([np.linspace(-0.5, 1.5, 17), [0.3, -0.21, 0.0]])
    orbit = DenseOrbit(lorenz, x, (-0.5, 1.5), 1e-9)
    assert orbit.reaches(times)
    assert orbit(times).tobytes() == \
        flow_points(lorenz, x, times, 1e-9).tobytes()
    # a time past the exit, or outside the span, is not reached
    orbit = DenseOrbit(saddle2d, [1.0, 0.5], (-1.0, 6.0), 1e-10)
    assert orbit.reaches([-1.0, 4.0]) and not orbit.reaches([5.0])
    assert not orbit.reaches([-1.5])
    assert orbit([4.0])[0] == pytest.approx([np.exp(4.0), 0.5 * np.exp(-4.0)],
                                            rel=1e-8)
    with pytest.raises(DomainError):
        orbit([5.0])


def test_state_only_paths_reject_a_start_outside_the_domain(saddle_susp):
    # (12 e^t, 0, t) and (0, 12 e^-t, t) cross no face of [-10, 10]^3, so
    # the domain event never changes sign: the start is checked, as in `flow`
    with pytest.raises(DomainError):
        flow_points(saddle_susp, [12.0, 0.0, 0.0], [0.5])    # x = 19.78
    with pytest.raises(DomainError):
        flow_points(saddle_susp, [0.0, 12.0, 0.0], [0.05])   # y = 11.41
    with pytest.raises(DomainError):
        orbit_states(saddle_susp, [12.0, 0.0, 0.0], [0.5])
    with pytest.raises(DomainError):
        DenseOrbit(saddle_susp, [12.0, 0.0, 0.0], (0.0, 0.5), 1e-9).reaches(
            [0.5])
    with pytest.raises(DomainError):
        flow(saddle_susp, [12.0, 0.0, 0.0], 0.5)
    # a start on the face is inside
    assert orbit_states(saddle_susp, [10.0, 0.0, 0.0], [0.5])[1] is not None


def test_variational_exact_on_linear_fields():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(3, 3)) * 0.5
    f = make_field("linear", A.ravel())
    t = 0.8
    _, M = flow(f, [0.1, -0.2, 0.3], t, tol=1e-12)
    exact = expm(t * A)
    assert np.linalg.norm(M - exact) <= 1e-8 * np.linalg.norm(exact)


def test_flow_group_property(lorenz):
    tol = 1e-9
    x = np.array([1.0, 1.0, 1.0])
    s, t = 0.4, 0.7
    pt, Phi_t = flow(lorenz, x, t, tol)
    p1, Phi_s = flow(lorenz, pt, s, tol)
    p2, Phi_st = flow(lorenz, x, s + t, tol)
    assert np.linalg.norm(p2 - p1) <= 10 * tol * (abs(s) + abs(t)) * 100
    # the chain rule Phi_{s+t}(x) = Phi_s(phi_t x) Phi_t(x), within 10x the
    # integration tolerance (relative)
    defect = np.linalg.norm(Phi_st - Phi_s @ Phi_t, 2)
    assert defect <= 10 * tol * np.linalg.norm(Phi_st, 2)


@pytest.mark.parametrize("kind,params", [
    ("linear", [1.0, 0.0, 0.0, -1.0]),
    ("rotation", ()),
])
def test_speed_ratio_bound(kind, params):
    field = make_field(kind, params)
    L = estimate_lipschitz(field, Box([-2, -2], [2, 2]), 64, seed=1)
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.uniform(0.3, 1.5, size=2)
        t = rng.uniform(-1.0, 1.0)
        p, _ = flow(field, x, t, 1e-10)
        s0 = np.linalg.norm(field.func(x))
        s1 = np.linalg.norm(field.func(p))
        ratio = s1 / s0
        assert np.exp(-L * abs(t)) * (1 - 1e-6) <= ratio <= np.exp(L * abs(t)) * (1 + 1e-6)


def test_two_orbit_growth(rotation):
    L = 1.05
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.uniform(0.3, 1.5, size=2)
        y = x + rng.normal(size=2) * 0.05
        t = rng.uniform(-1.0, 1.0)
        px, _ = flow(rotation, x, t, 1e-10)
        py, _ = flow(rotation, y, t, 1e-10)
        assert np.linalg.norm(px - py) <= np.exp(L * abs(t)) * np.linalg.norm(x - y) * (1 + 1e-6)


def test_estimate_lipschitz_linear(saddle2d):
    assert estimate_lipschitz(saddle2d, Box([-1, -1], [1, 1]), 32) == pytest.approx(1.05)


def test_estimate_lipschitz_rotation(rotation):
    assert estimate_lipschitz(rotation, Box([-1, -1], [1, 1]), 32) == pytest.approx(1.05)


def test_estimate_lipschitz_lorenz_refinement_oracle(lorenz):
    box = Box([-25, -30, 0], [25, 30, 55])
    coarse = estimate_lipschitz(lorenz, box, 2000, seed=5)
    fine = estimate_lipschitz(lorenz, box, 20000, seed=6)
    assert abs(coarse - fine) <= 0.05 * fine


@pytest.mark.parametrize("kind,params", BUILTIN_KINDS + [("custom", ())])
def test_estimate_lipschitz_stacked_is_bitwise_the_loop(kind, params):
    if kind == "custom":   # per-point func, central-difference Jacobian
        field = custom_field("cubic", 2, lambda x: np.array(
            [x[1] ** 3 - x[0], np.sin(x[0]) * x[1]]),
            Box([-2.0, -2.0], [2.0, 2.0]))
    else:
        field = make_field(kind, params)
    for samples, seed in ((1, 0), (7, 3), (90, 11)):
        got = estimate_lipschitz(field, field.domain, samples, seed=seed)
        want = estimate_lipschitz_loop(field, field.domain, samples, seed=seed)
        assert repr(got) == repr(want)


def test_estimate_lipschitz_empty_region(lorenz):
    with pytest.raises(DomainError):
        Box([1, 1, 1], [1, 1, 1])


def test_orbit_segment_invariants(lorenz):
    times = np.linspace(0.0, 1.0, 6)
    x = np.array([1.0, 1.0, 1.0])
    seg = sample_orbit(lorenz, x, times, tol=1e-10)
    assert validate_orbit_segment(seg, lorenz)
    assert seg.step() == pytest.approx(0.2, rel=1e-12)
    sub = seg.slice(1, 4)
    assert sub.base is seg.base and sub.n_nodes == 3
    assert sub.states.tobytes() == seg.states[1:4].tobytes()
    # a stored speed off by more than 1e-9 (relative) is caught
    off = seg.speeds.copy()
    off[2] *= 1.0 + 1e-8
    with pytest.raises(DomainError):
        validate_orbit_segment(replace(seg, speeds=off), lorenz)
    with pytest.raises(DomainError):
        sample_orbit(lorenz, x, times[::-1])


def test_orbit_serialization_round_trip(tmp_path, rotation):
    seg = sample_orbit(rotation, np.array([1.0, 0.0]), np.linspace(0, 1, 4))
    assert seg.speeds[0] == pytest.approx(1.0)
    orbit_to_csv(seg, tmp_path / "orbit.csv")
    header = (tmp_path / "orbit.csv").read_text().splitlines()[0]
    assert header == "t,x_1,x_2,speed"
    # the cells are float reprs: every value reads back bit for bit
    rows = np.loadtxt(tmp_path / "orbit.csv", delimiter=",", skiprows=1)
    assert rows.tobytes() == np.column_stack(
        [seg.times, seg.states, seg.speeds]).tobytes()


def test_custom_field_fd_jacobian_flagged():
    f = custom_field("mine", 2, lambda x: np.array([x[1], -x[0]]),
                     Box([-2, -2], [2, 2]))
    assert not f.analytic_jacobian
    _, J = evaluate(f, [0.5, 0.5])
    assert np.allclose(J, [[0, 1], [-1, 0]], atol=1e-6)


@settings(max_examples=20, deadline=None)
@given(st.floats(-0.9, 0.9), st.floats(-0.9, 0.9))
def test_flow_points_matches_flow(a, b):
    field = make_field("rotation")
    x = np.array([1.0 + 0.1 * a, 0.1 * b])
    ts = np.array([-0.5, 0.0, 0.7])
    pts = flow_points(field, x, ts, 1e-10)
    for t, p in zip(ts, pts):
        q, _ = flow(field, x, float(t), 1e-10)
        assert np.allclose(p, q, atol=1e-8)


@pytest.mark.parametrize("kind,params", BUILTIN_KINDS)
def test_builtin_func_point_matches_stack_bitwise(kind, params):
    field = make_field(kind, params)
    X = np.random.default_rng(4).uniform(-5.0, 5.0, size=(16, field.dimension))
    X[0] = 0.0
    X[1] = -0.0
    stack = field.func(X)
    assert stack.shape == X.shape
    for row, expected in zip(X, stack):
        value = field.func(row)
        assert value.shape == expected.shape
        if kind == "linear":
            # x @ A.T: BLAS matrix-vector and matrix-matrix kernels may
            # sum in a different order, so only the last bits may differ
            assert np.allclose(value, expected, rtol=0.0, atol=1e-14)
        else:
            assert value.tobytes() == expected.tobytes()


@pytest.mark.parametrize("kind,params", BUILTIN_KINDS)
def test_builtin_jac_matches_finite_differences(kind, params):
    field = make_field(kind, params)
    rng = np.random.default_rng(5)
    for x in rng.uniform(-5.0, 5.0, size=(8, field.dimension)):
        J = field.jac(x)
        assert J.shape == (field.dimension, field.dimension)
        assert np.max(np.abs(J - _fd_jacobian(field.func, x))) <= 1e-6


@pytest.mark.parametrize("kind,params", BUILTIN_KINDS)
def test_domain_event_matches_array_formula(kind, params):
    field = make_field(kind, params)
    lo, hi = field.domain.lo, field.domain.hi
    inside = lo + 0.3 * (hi - lo)
    on_face = inside.copy()
    on_face[0] = hi[0]
    outside = inside.copy()
    outside[-1] = lo[-1] - 0.5
    event = _domain_event(field)
    for x in (inside, on_face, outside):
        expected = float(min(np.min(x - lo), np.min(hi - x)))
        # the augmented state carries the variational matrix after x
        for y in (x, np.concatenate([x, np.eye(field.dimension).ravel()])):
            value = event(0.0, y)
            assert type(value) is float and value == expected


def test_flow_states_batch_checks_every_frame(rotation):
    # the orbit of (9.9, 9.9) passes (0, 14.0) at pi/4, outside [-10, 10]^2,
    # and is back inside at pi/2: every accepted step is range-checked, so
    # the exit is found without a frame outside, at y = 10 (+ the slack)
    with pytest.raises(EscapeError):
        flow_states_batch(rotation, [[9.9, 9.9]], np.pi / 2,
                          t_eval=[np.pi / 4, np.pi / 2])
    with pytest.raises(EscapeError) as exc:
        flow_states_batch(rotation, [[9.9, 9.9]], np.pi / 2)
    t_exit = np.arcsin(10.0 / (9.9 * np.sqrt(2.0))) - np.pi / 4
    assert exc.value.exit_time == pytest.approx(t_exit, rel=1e-6)


def test_flow_states_batch_escape_slack():
    # x(t) = e^t x(0); the box diameter 2 sqrt(2) gives a pad of 2.8e-9
    field = make_field("linear", [1.0, 0.0, 0.0, -1.0],
                       domain=Box([-1.0, -1.0], [1.0, 1.0]))
    t = 1.0
    for overshoot, escapes in ((1e-9, False), (1e-6, True)):
        pts = np.array([[0.1, 0.5], [(1.0 + overshoot) / np.e, 0.2]])
        if escapes:
            with pytest.raises(EscapeError):
                flow_states_batch(field, pts, t, tol=1e-12)
        else:
            out = flow_states_batch(field, pts, t, tol=1e-12)
            assert out[1, 0] == pytest.approx(1.0 + overshoot, abs=1e-11)


def test_stack_members_keep_their_own_error(lorenz, lorenz_attractor_point):
    # the fastest point of an attractor orbit stacked with 63 copies of its
    # slowest: an RMS norm over the whole stack would let the fast member's
    # error grow with the slow ones' weight; per-member norms hold it to
    # what it gets solved alone
    orbit = flow_points(lorenz, lorenz_attractor_point,
                        np.linspace(0.0, 10.0, 2001)[1:], 1e-10)
    v = speeds(lorenz, orbit)
    fast, slow = orbit[np.argmax(v)], orbit[np.argmin(v)]
    assert v.max() > 250.0 and v.min() < 40.0
    T, tol = 1.0, 1e-6
    ref = flow_points(lorenz, fast, [T], 1e-13)[0]
    solo = np.linalg.norm(flow_points(lorenz, fast, [T], tol)[0] - ref)
    stack = np.vstack([fast, np.repeat(slow[None], 63, axis=0)])
    got = np.linalg.norm(flow_states_batch(lorenz, stack, T, tol)[0] - ref)
    assert got <= 2.0 * solo
    # a stack of one is the lone solve, bit for bit
    frames = [0.25, 0.5, T]
    one = flow_states_batch(lorenz, [fast], T, tol, t_eval=frames)
    assert one[:, 0].tobytes() == flow_points(lorenz, fast, frames,
                                              tol).tobytes()


def test_flow_states_batch_names_the_row_that_left(rotation):
    # the member started at (9.9, 9.9) leaves between steps (the terminal
    # event) or is outside at the start (the final range check)
    inside = [[1.0, 0.5], [0.2, -0.3]]
    with pytest.raises(EscapeError) as exc:
        flow_states_batch(rotation, [inside[0], [9.9, 9.9], inside[1]],
                          np.pi / 2)
    assert exc.value.row == 1 and exc.value.exit_time is not None
    with pytest.raises(EscapeError) as exc:
        flow_states_batch(rotation, [*inside, [10.5, 0.0]], 0.1,
                          t_eval=[0.05, 0.1])
    assert exc.value.row == 2 and exc.value.exit_time is None


# ------------------------------------------------- the kernel against scipy


def _same_solve(fun, t, y0, tol, event=None, grid=None, **kw):
    """flowlab's DOP853 kernel and scipy's `solve_ivp(method="DOP853")` on
    the same problem: the same output bytes, event roots and nfev, and the
    same dense output on `grid`, one stacked call and one call per time.
    Returns flowlab's result."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp
    if event is not None:
        event.terminal = True  # scipy's flag; flowlab's event is terminal
    mine = solve_ivp(fun, (0.0, t), y0, **ivp_options(tol), events=event, **kw)
    ref = scipy_solve_ivp(fun, (0.0, t), y0, method="DOP853",
                          **ivp_options(tol), events=event, **kw)
    assert (mine.status, mine.nfev) == (ref.status, ref.nfev)
    assert np.asarray(mine.t).tobytes() == np.asarray(ref.t).tobytes()
    assert np.asarray(mine.y).tobytes() == np.asarray(ref.y).tobytes()
    if event is not None:
        assert mine.t_events[0].tobytes() == ref.t_events[0].tobytes()
    if grid is not None:
        assert mine.sol(grid).tobytes() == ref.sol(grid).tobytes()
        for s in grid:
            assert mine.sol(s).tobytes() == ref.sol(s).tobytes()
    return mine


def test_kernel_is_bitwise_scipy(lorenz, saddle2d, lorenz_attractor_point):
    x = lorenz_attractor_point
    state = lambda s, y: lorenz.func(y)  # noqa: E731
    for t in (3.0, -0.5):
        frames = np.linspace(0.0, t, 41)[1:]
        _same_solve(state, t, x, 1e-9, _domain_event(lorenz), t_eval=frames)
        _same_solve(state, t, x, 1e-10, _domain_event(lorenz),
                    np.linspace(-0.1 * t, 1.1 * t, 301), dense_output=True)
    # the 12-dimensional variational equation
    y0 = np.concatenate([x, np.eye(3).ravel()])
    _same_solve(_augmented_rhs(lorenz), 0.7, y0, 1e-9, _domain_event(lorenz))
    # a stacked batch of 16 members
    pts = x + np.random.default_rng(3).normal(scale=0.5, size=(16, 3))
    _same_solve(lambda s, y: lorenz.func(y.reshape(16, 3)).ravel(), 1.0,
                pts.ravel(), 1e-9, t_eval=[0.25, 0.5, 1.0])
    # (e^t, 0.5 e^-t) leaves [-100, 100]^2 at t = ln 100: the root, and the
    # states up to it
    line = lambda s, y: saddle2d.func(y)  # noqa: E731
    for kw in ({"t_eval": np.linspace(0.0, 6.0, 25)[1:]},
               {"dense_output": True}, {}):
        sol = _same_solve(line, 6.0, np.array([1.0, 0.5]), 1e-10,
                          _domain_event(saddle2d), **kw)
        assert sol.status == 1
        assert sol.t_events[0][0] == pytest.approx(np.log(100.0), rel=1e-9)
        assert np.all(sol.t <= sol.t_events[0][0])
    # a span shorter than the first step: one step, clipped to the span
    sol = _same_solve(state, 1e-5, x, 1e-9, _domain_event(lorenz),
                      np.linspace(0.0, 1e-5, 7), dense_output=True)
    assert sol.t.tolist() == [0.0, 1e-5]


def test_dense_output_scalar_path_is_the_array_path(lorenz,
                                                    lorenz_attractor_point):
    # one time on Python floats against a stack of times, at the step ends,
    # between them and past both ends of the span
    for t in (1.5, -0.8):
        sol = solve_ivp(lambda s, y: lorenz.func(y), (0.0, t),
                        lorenz_attractor_point, **ivp_options(1e-10),
                        dense_output=True).sol
        times = np.concatenate([sol.ts, np.linspace(-0.1 * t, 1.1 * t, 995)])
        stacked = sol(times)
        for i, s in enumerate(times):
            assert sol(s).tobytes() == stacked[:, i].tobytes()


def test_tableau_is_bitwise_scipy():
    from scipy.integrate._ivp import dop853_coefficients as ref
    assert ((_dop853.N_STAGES, _dop853.N_STAGES_EXTENDED)
            == (ref.N_STAGES, ref.N_STAGES_EXTENDED))
    for name in ("C", "A", "B", "E3", "E5", "D"):
        a, b = getattr(_dop853, name), getattr(ref, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name


@contextlib.contextmanager
def _lines_run(fun):
    """Collects the source lines of `fun` that run inside the block."""
    ran, code, before = set(), fun.__code__, sys.gettrace()

    def trace(frame, event, arg):
        if frame.f_code is not code:
            return None
        if event == "line":
            ran.add(frame.f_lineno)
        return trace

    sys.settrace(trace)
    try:
        yield ran
    finally:
        sys.settrace(before)


def _evaluations(solver, f, a, b):
    """What solver(f, a, b) returns, or the ValueError or RuntimeError it
    raises, and the points at which it evaluated f."""
    xs = []

    def g(x):
        xs.append(x)
        return f(x)

    try:
        return solver(g, a, b), xs
    except (ValueError, RuntimeError) as exc:
        return exc, xs


def test_brentq_is_bitwise_scipy(saddle2d):
    from scipy.optimize import brentq
    tol = 4 * sys.float_info.epsilon
    # the domain event of the saddle on the dense step that leaves the box
    sol = solve_ivp(lambda s, y: saddle2d.func(y), (0.0, 6.0), [1.0, 0.5],
                    **ivp_options(1e-10), dense_output=True).sol
    event = _domain_event(saddle2d)
    i = next(i for i in range(sol.ts.size - 1)
             if event(0, sol(sol.ts[i + 1])) < 0)
    brackets = [
        (lambda x: x - 0.3, 0.0, 1.0),
        (lambda x: math.atan(x - 0.3) ** 3, 0.0, 1.0),
        (lambda x: math.exp(7.0 * (x - 0.61)) - 1.0, 2.0, -1.0),
        (lambda x: math.tanh(40.0 * (x - 0.2)) + 1e-3 * math.sin(50 * x),
         -3.0, 4.0),
        (lambda x: math.copysign(abs(x - 0.37) ** 4.5, x - 0.37), 0.0, 1.0),
        (lambda x: x - 1.0, 1.0, 2.0),  # the root at a
        (lambda x: x - 1.0, 0.0, 1.0),  # the root at b
        (lambda s: event(s, sol(s)), float(sol.ts[i]), float(sol.ts[i + 1])),
        # errors: one sign (also where the product underflows), a NaN at b
        # and inside, no convergence
        (lambda x: x * x + 1.0, -1.0, 1.0),
        (lambda x: 1e-200, 0.0, 1.0),
        (lambda x: math.nan if x > 0.5 else -1.0, 0.0, 1.0),
        (lambda x: -1.0 if x < 0.25 else math.nan if x < 0.75 else 1.0,
         0.0, 1.0),
        (lambda x: -1.0 if x < 1e-200 else 1.0, 0.0, 1e300),
    ]
    with _lines_run(_brentq) as ran:
        mine = [_evaluations(lambda g, a, b: _brentq(g, a, b, tol, tol), *c)
                for c in brackets]
    for c, (got, xs) in zip(brackets, mine):
        ref, ref_xs = _evaluations(
            lambda g, a, b: brentq(g, a, b, xtol=tol, rtol=tol), *c)
        assert [x.hex() for x in xs] == [x.hex() for x in ref_xs]
        if isinstance(ref, float):
            assert type(got) is float and got.hex() == ref.hex()
        else:
            assert (type(got), str(got)) == (type(ref), str(ref))
    roots = [r for r, _ in mine]
    assert sol.ts[i] < roots[7] <= sol.ts[i + 1]
    assert [type(r) for r in roots[8:]] == [ValueError] * 4 + [RuntimeError]
    # every branch of the iteration ran
    lines, first = inspect.getsourcelines(_brentq)
    for mark in ("# interpolate", "# extrapolate", "# a good short step",
                 "# bisect: the trial", "# bisect: the last"):
        n = next(k for k, line in enumerate(lines) if mark in line)
        assert first + n in ran, mark


ORACLE_CASES = [
    # kind, params, domain (None = default), start point
    ("linear", BUILTIN_KINDS[0][1], None, [0.3, -0.2, 0.5]),
    ("rotation", (), Box([-0.5, -1.0], [1.0, 1.0]), [0.6, 0.3]),
    ("saddle_suspension", (1.3, 0.7, -2.0), None, [0.3, -0.2, 0.5]),
]


def _exact_flow(field, x, t):
    """Closed-form state and variational matrix at time t."""
    if field.kind == "saddle_suspension":
        a, b, omega = field.params
        M = np.diag([np.exp(a * t), np.exp(-b * t), 1.0])
        return M @ x + [0.0, 0.0, omega * t], M
    M = expm(field.jac(x) * t)  # constant Jacobian A: phi_t = exp(A t)
    return M @ x, M


@pytest.mark.parametrize("kind,params,domain,x0", ORACLE_CASES)
def test_integration_modes_match_closed_form(kind, params, domain, x0):
    field = make_field(kind, params, domain)
    x = np.array(x0)
    tol = 1e-11

    def close(value, exact):
        return np.max(np.abs(value - exact)) <= 1e-8 * max(1.0, np.max(np.abs(exact)))

    # unsorted times of both signs, with 0 and a repeated time
    times = [0.7, -0.4, 0.0, 0.7, -1.0, 0.25]
    pts = flow_points(field, x, times, tol)
    assert pts[2].tobytes() == x.tobytes()
    assert pts[0].tobytes() == pts[3].tobytes()
    for t, p in zip(times, pts):
        assert close(p, _exact_flow(field, x, t)[0])

    for t in np.linspace(-1.0, 1.0, 9):
        state, Phi = flow(field, x, t, tol)
        exact, exact_Phi = _exact_flow(field, x, t)
        assert close(state, exact) and close(Phi, exact_Phi)

    # stacks of 1 and 3 members of sizes 1, 1e-2 and 1e-4, at frames of
    # both signs: each member within its own size
    for k in (1, 3):
        stack = x * np.array([1.0, 1e-2, 1e-4])[:k, None]
        for frames in ([0.25, 0.5, 0.7], [-0.3, -1.0]):
            got = flow_states_batch(field, stack, frames[-1], tol,
                                    t_eval=frames)
            for frame, t in zip(got, frames):
                for member, p in zip(frame, stack):
                    exact = _exact_flow(field, p, t)[0]
                    assert np.max(np.abs(member - exact)) <= \
                        1e-8 * np.max(np.abs(exact))

    # the dense orbit's states
    orbit = DenseOrbit(field, x, (-1.0, 0.7), tol)
    for t, state in zip(times, orbit(times)):
        assert close(state, _exact_flow(field, x, t)[0])

    # each sign branch reports its exit time: the exact orbit is on the
    # boundary of the box there
    lo, hi = field.domain.lo, field.domain.hi
    center = 0.5 * (lo + hi)
    for T in (20.0, -20.0):
        with pytest.raises(EscapeError) as exc:
            flow_points(field, x, [T], tol)
        t_exit = exc.value.exit_time
        assert t_exit is not None and 0.0 < t_exit / T < 1.0
        exact, _ = _exact_flow(field, x, t_exit)
        assert abs(min(np.min(exact - lo), np.min(hi - exact))) <= 1e-6
        # in a batch with the domain's center, which stays inside longer,
        # x escapes between two frames: the step check reports its exit
        with pytest.raises(EscapeError) as exc:
            flow_states_batch(field, [center, x], T, tol,
                              t_eval=[0.5 * t_exit, T])
        assert exc.value.exit_time == pytest.approx(t_exit, rel=1e-6)
