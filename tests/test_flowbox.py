import numpy as np
import pytest
from scipy.linalg import expm

from flowlab.errors import (BoxBoundsError, EscapeError, NotInBoxError,
                            SingularityError)
from flowlab.fields import speed
from flowlab.flowbox import (_ball_grid, chart_radius, flowbox_invert,
                             make_chart, verify_box_bounds)
from oracles import flowbox_map, verify_box_bounds_loop


@pytest.fixture(scope="module")
def saddle_chart(saddle2d):
    return make_chart(saddle2d, [1.0, 0.0], 1.05)


def test_chart_radius_formula(saddle_chart):
    assert saddle_chart.r0 == pytest.approx(1.0 / 10.5)
    # Lipschitz floor: near-constant fields keep a finite radius
    assert chart_radius(0.0) == pytest.approx(1.0 / 0.1)


def test_chart_frame_orthonormal(saddle_chart):
    e = saddle_chart.flow_dir
    B = saddle_chart.frame
    assert np.allclose(B.T @ B, np.eye(1), atol=1e-12)
    assert np.max(np.abs(B.T @ e)) < 1e-12


def test_chart_at_singularity_rejected(rotation):
    with pytest.raises(SingularityError):
        make_chart(rotation, [0.0, 0.0], 1.05)


def test_map_translation_at_zero_time(saddle_chart):
    y = flowbox_map(saddle_chart, [0.0, 0.05], 0.0)
    assert np.allclose(y, [1.0, 0.05])


def test_map_closed_form(saddle_chart):
    y = flowbox_map(saddle_chart, [0.0, 0.05], 0.09, tol=1e-12)
    assert np.allclose(y, [np.exp(0.09), 0.05 * np.exp(-0.09)], atol=1e-10)


def test_map_axis_is_orbit(saddle2d, saddle_chart):
    from flowlab.fields import flow
    y = flowbox_map(saddle_chart, [0.0, 0.0], 0.05, tol=1e-12)
    p, _ = flow(saddle2d, [1.0, 0.0], 0.05, tol=1e-12)
    assert np.allclose(y, p, atol=1e-12)


def test_map_rejects_out_of_box(saddle_chart):
    with pytest.raises(BoxBoundsError):
        flowbox_map(saddle_chart, [0.0, 0.2], 0.0)
    with pytest.raises(BoxBoundsError):
        flowbox_map(saddle_chart, [0.0, 0.01], 0.2)
    with pytest.raises(BoxBoundsError):
        flowbox_map(saddle_chart, [0.05, 0.0], 0.0)  # not normal


def test_invert_center(saddle_chart):
    v, t = flowbox_invert(saddle_chart, [1.0, 0.0])
    assert np.linalg.norm(v) < 1e-12 and abs(t) < 1e-12


def test_invert_zero_time_case(saddle_chart):
    v, t = flowbox_invert(saddle_chart, [1.0, 0.05])
    assert np.allclose(v, [0.0, 0.05], atol=1e-10)
    assert abs(t) < 1e-10


def test_invert_round_trip(saddle_chart):
    y = np.array([np.exp(0.09), 0.05 * np.exp(-0.09)])
    v, t = flowbox_invert(saddle_chart, y, tol=1e-12)
    assert np.allclose(v, [0.0, 0.05], atol=1e-9)
    assert t == pytest.approx(0.09, abs=1e-9)


def test_invert_rejects_far_point(saddle_chart):
    with pytest.raises(NotInBoxError):
        flowbox_invert(saddle_chart, [3.0, 0.0])


def test_round_trip_property(saddle2d):
    chart = make_chart(saddle2d, [1.0, 0.3], 1.05)
    rng = np.random.default_rng(4)
    for _ in range(25):
        c = rng.uniform(-1, 1) * chart.v_radius
        t = rng.uniform(-1, 1) * chart.r0
        v = chart.frame[:, 0] * c
        y = flowbox_map(chart, v, t, tol=1e-11)
        v2, t2 = flowbox_invert(chart, y, tol=1e-11)
        assert np.linalg.norm(v2 - v) <= 1e-8 * max(1.0, chart.speed)
        assert abs(t2 - t) <= 1e-8


def test_bounds_saddle_grid5(saddle_chart):
    rep = verify_box_bounds([saddle_chart], 5, tol=1e-10)[0]
    assert rep.no_singularity
    assert rep.bounds_ok
    assert rep.max_dev_from_id <= 0.5
    assert rep.min_mininorm >= 0.5
    assert rep.max_norm <= 2.0


def test_bounds_rotation_grid5(rotation):
    chart = make_chart(rotation, [1.0, 0.0], 1.05)
    rep = verify_box_bounds([chart], 5, tol=1e-10)[0]
    assert rep.bounds_ok and not rep.witnesses


def test_bounds_grid2_matches_closed_form(saddle2d):
    chart = make_chart(saddle2d, [1.0, 0.0], 1.05)
    rep = verify_box_bounds([chart], 2, tol=1e-11)[0]
    # closed form: F(v, t) = e^{tA}(x + v); columns in box coordinates
    A = np.diag([1.0, -1.0])
    Q = np.column_stack([chart.frame, chart.flow_dir[:, None]])
    worst = 0.0
    for c in (-chart.v_radius, chart.v_radius):
        for t in (-chart.r0, chart.r0):
            E = expm(t * A)
            p = np.array([1.0, 0.0]) + chart.frame[:, 0] * c
            M = np.empty((2, 2))
            M[:, 0] = E @ chart.frame[:, 0]
            M[:, 1] = (A @ E @ p) / chart.speed
            worst = max(worst, np.linalg.norm(M - Q, 2))
    assert rep.max_dev_from_id == pytest.approx(worst, abs=5e-4)
    assert rep.bounds_ok


@pytest.mark.parametrize("name, base, L, grids", [
    ("rotation", [0.3, -0.7], 1.05, (2, 3, 12)),
    ("saddle2d", [0.5, 0.4], 1.05, (2, 3, 12)),
    ("lorenz", [-5.0, -6.0, 20.0], 30.0, (2, 3)),
    ("saddle_susp", [0.5, -0.3, 1.0], 1.05, (2, 3)),
    ("rotation", [1.0, 0.0], 0.3, (12,)),     # radius large enough to fail
])
def test_bounds_array_form_is_bitwise_the_loop(request, name, base, L, grids):
    chart = make_chart(request.getfixturevalue(name), base, L)
    for grid in grids:
        got = verify_box_bounds([chart], grid, tol=1e-9)[0].to_json_dict()
        want = verify_box_bounds_loop(chart, grid, tol=1e-9).to_json_dict()
        assert repr(got) == repr(want)
        if L == 0.3:
            assert want["witnesses"]


def _closed_form_bounds(chart, A, grid):
    """(max dev, min mininorm, max norm) of DF(v, t) = [e^{tA} B, A e^{tA}
    (x + v) / |X(x)|] over the nodes of the verified grid."""
    vs, ts = _ball_grid(chart, grid)
    d = A.shape[0]
    Q = np.column_stack([chart.frame, chart.flow_dir])
    devs, minis, norms = [], [], []
    for t in ts:
        E = expm(t * A)
        for v in vs:
            M = np.empty((d, d))
            M[:, :d - 1] = E @ chart.frame
            M[:, d - 1] = A @ E @ (chart.base + chart.frame @ v) / chart.speed
            devs.append(np.linalg.norm(M - Q, 2))
            sv = np.linalg.svd(M, compute_uv=False)
            minis.append(sv[-1])
            norms.append(sv[0])
    return max(devs), min(minis), max(norms)


@pytest.mark.parametrize("name, A, base", [
    ("saddle2d", np.diag([1.0, -1.0]), [1.0, 0.0]),
    ("saddle2d", np.diag([1.0, -1.0]), [0.5, 0.4]),
    ("rotation", np.array([[0.0, -1.0], [1.0, 0.0]]), [1.0, 0.0]),
    ("rotation", np.array([[0.0, -1.0], [1.0, 0.0]]), [0.3, -0.7]),
])
@pytest.mark.parametrize("L", [1.05, 0.3])
def test_bounds_match_closed_form_on_grid(request, name, A, base, L):
    chart = make_chart(request.getfixturevalue(name), base, L)
    for grid in (5, 12):
        rep = verify_box_bounds([chart], grid, tol=1e-10)[0]
        want = _closed_form_bounds(chart, A, grid)
        got = (rep.max_dev_from_id, rep.min_mininorm, rep.max_norm)
        assert got == pytest.approx(want, rel=0, abs=1e-9), grid


def test_bounds_array_form_escapes_like_the_loop(saddle_susp):
    chart = make_chart(saddle_susp, [0.5, -0.3, 1.0], 0.05)
    with pytest.raises(EscapeError) as want:
        verify_box_bounds_loop(chart, 3)
    with pytest.raises(EscapeError) as got:
        verify_box_bounds([chart], 3)
    assert str(got.value) == str(want.value)


#: the charts of `test_bounds_array_form_is_bitwise_the_loop`
LOOP_CHARTS = [("rotation", [0.3, -0.7], 1.05), ("saddle2d", [0.5, 0.4], 1.05),
               ("lorenz", [-5.0, -6.0, 20.0], 30.0),
               ("saddle_susp", [0.5, -0.3, 1.0], 1.05),
               ("rotation", [1.0, 0.0], 0.3)]


def _assert_same_report(got, want):
    """The stacked report of a chart against its single-chart one: the
    same verdict and witness nodes, the bounds within 1e-9."""
    assert got.bounds_ok == want.bounds_ok
    assert ([(w["v"], w["t"]) for w in got.witnesses]
            == [(w["v"], w["t"]) for w in want.witnesses])
    for key in ("max_dev_from_id", "min_mininorm", "max_norm"):
        assert getattr(got, key) == pytest.approx(getattr(want, key),
                                                  rel=0, abs=1e-9), key


def test_stacked_charts_match_single_charts(request):
    # each chart shares its stack with a second base of its field and r0,
    # and the charts of other fields or radii make stacks of their own
    charts = []
    for name, base, L in LOOP_CHARTS:
        field = request.getfixturevalue(name)
        charts += [make_chart(field, base, L),
                   make_chart(field, 1.1 * np.asarray(base), L)]
    reports = verify_box_bounds(charts, 6, tol=1e-9)
    for chart, got in zip(charts, reports):
        _assert_same_report(got, verify_box_bounds([chart], 6, tol=1e-9)[0])
    assert not reports[-2].bounds_ok and reports[-2].witnesses


def test_escape_inside_a_stack_skips_that_chart(saddle_susp):
    from flowlab.cli import _verified_charts
    inside = make_chart(saddle_susp, [0.5, -0.3, 1.0], 1.05)
    charts = [make_chart(saddle_susp, [0.5, -0.3, 1.0], 0.05),  # r0 = 2
              inside,
              make_chart(saddle_susp, [9.5, 0.0, 0.0], 1.05)]   # inside's r0
    with pytest.raises(EscapeError) as exc:
        verify_box_bounds(charts, 3)
    assert exc.value.row in (0, 2)
    verified = _verified_charts(charts, 3, 1e-9)
    assert list(verified) == [1]
    _assert_same_report(verified[1], verify_box_bounds([inside], 3)[0])


def test_report_json_shape(saddle_chart):
    rep = verify_box_bounds([saddle_chart], 3, tol=1e-9)[0]
    d = rep.to_json_dict()
    for key in ("base", "r0", "max_dev", "min_mininorm", "max_norm",
                "witnesses"):
        assert key in d


def test_nearby_orbit_stays_close(saddle2d):
    # points started within |X(x)|/(8L) of x stay within |X(x)|/(4L)
    # over chart times
    L = 1.05
    x = np.array([1.0, 0.2])
    sx = speed(saddle2d, x)
    rng = np.random.default_rng(9)
    from flowlab.fields import flow
    for _ in range(30):
        u = rng.normal(size=2)
        y = x + u / np.linalg.norm(u) * rng.uniform(0, 1) * sx / (8 * L)
        t = rng.uniform(-1, 1) / (10 * L)
        p, _ = flow(saddle2d, y, t, 1e-10)
        assert np.linalg.norm(p - x) <= sx / (4 * L) * (1 + 1e-6)


def test_field_increment_lipschitz(saddle2d):
    # |X(y) - X(x)| <= L |x - y| on sampled pairs within the box
    chart = make_chart(saddle2d, [1.0, 0.0], 1.05)
    rng = np.random.default_rng(11)
    fx = saddle2d.func(chart.base)
    for _ in range(30):
        u = rng.normal(size=2)
        y = chart.base + u / np.linalg.norm(u) * rng.uniform(0, chart.v_radius)
        fy = saddle2d.func(y)
        assert np.linalg.norm(fy - fx) <= 1.05 * np.linalg.norm(y - chart.base) + 1e-12


def test_no_singularity_in_image(rotation):
    chart = make_chart(rotation, [0.5, 0.0], 1.05)
    rep = verify_box_bounds([chart], 4, tol=1e-9)[0]
    assert rep.no_singularity
