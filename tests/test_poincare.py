import numpy as np
import pytest

from flowlab.errors import RadiusError, SingularityError
from flowlab.fields import estimate_lipschitz, make_field, speed, Box
from flowlab.poincare import (frame_at, linear_poincare, section_radius,
                              sectional_poincare, sectional_value,
                              target_chart)
from oracles import extended_linear_poincare


def test_linear_poincare_saddle_norm(saddle2d):
    m = linear_poincare(saddle2d, [1.0, 0.0], 1.0, tol=1e-12)
    # flow direction e1, normal e2 contracts at rate 1
    assert np.linalg.norm(m.matrix) == pytest.approx(np.exp(-1.0), rel=1e-9)


def test_linear_poincare_rotation_isometry(rotation):
    for t in (0.3, 1.0, 2.5):
        m = linear_poincare(rotation, [1.0, 0.0], t, tol=1e-12)
        assert np.linalg.norm(m.matrix) == pytest.approx(1.0, abs=1e-9)


def test_linear_poincare_zero_time(lorenz):
    m = linear_poincare(lorenz, [1.0, 1.0, 1.0], 0.0)
    assert np.allclose(m.matrix, np.eye(2))


def test_linear_poincare_singular_endpoint(saddle2d):
    with pytest.raises(SingularityError):
        linear_poincare(saddle2d, [0.0, 0.0], 1.0)


def test_cocycle_composition(lorenz):
    x = np.array([1.0, 1.0, 1.0])
    tol = 1e-11
    s, t = 0.4, 0.3
    m_t = linear_poincare(lorenz, x, t, tol)
    from flowlab.fields import flow
    xt, _ = flow(lorenz, x, t, tol)
    m_s = linear_poincare(lorenz, xt, s, tol)
    m_st = linear_poincare(lorenz, x, s + t, tol)
    comp = m_s.compose(m_t)
    aligned = comp.in_frames(m_st.source, m_st.target)
    assert np.linalg.norm(aligned - m_st.matrix) <= 1e-8


def test_extended_identifies_with_linear(lorenz):
    x = np.array([0.4, -0.3, 0.8])
    e = np.asarray(lorenz.func(x), dtype=float)
    e /= np.linalg.norm(e)
    for t in (0.3, 0.6):
        ml = linear_poincare(lorenz, x, t, tol=1e-11)
        _, me = extended_linear_poincare(lorenz, x, e, t, tol=1e-11)
        diff = np.linalg.norm(me.ambient_operator() - ml.ambient_operator(), 2)
        assert diff <= 1e-8 * (1.0 + np.linalg.norm(ml.matrix, 2))


def test_extended_at_linear_singularity(diag3):
    # eigen-direction e3 at the origin of diag(-3,-1,2)
    e1, m = extended_linear_poincare(diag3, [0.0, 0.0, 0.0], [0, 0, 1], 0.5,
                                     tol=1e-12)
    assert np.allclose(e1, [0, 0, 1], atol=1e-12)
    sv = np.sort(np.linalg.svd(m.matrix, compute_uv=False))
    assert np.allclose(sv, np.sort([np.exp(-1.5), np.exp(-0.5)]), atol=1e-9)


def test_extended_zero_time(diag3):
    e1, m = extended_linear_poincare(diag3, [0.0, 0.0, 1.0], [1, 0, 0], 0.0)
    assert np.allclose(e1, [1, 0, 0])
    assert np.allclose(m.matrix, np.eye(2))


def test_sectional_closed_form(saddle2d):
    sm = sectional_poincare(saddle2d, [1.0, 0.0], 1.0, np.array([0.0, 0.003]),
                            L=1.05, tol=1e-12)
    assert np.allclose(sm.value, [0.0, 0.003 * np.exp(-1.0)], atol=1e-11)
    assert sm.derivative[0, 0] == pytest.approx(np.exp(-1.0), rel=1e-8)


def test_sectional_derivative_identity_linear(saddle2d):
    sm = sectional_poincare(saddle2d, [1.0, 0.0], 1.0, np.zeros(2), L=1.05,
                            tol=1e-12)
    psi = linear_poincare(saddle2d, [1.0, 0.0], 1.0, tol=1e-12)
    M = psi.in_frames(sm.source, sm.target)
    assert np.linalg.norm(sm.derivative - M) <= 1e-6 * np.linalg.norm(M)


def test_sectional_radius_error(saddle2d):
    r1 = section_radius(1.0, 1.05)
    with pytest.raises(RadiusError):
        sectional_poincare(saddle2d, [1.0, 0.0], 1.0,
                           np.array([0.0, 2 * r1]), L=1.05)


def test_sectional_rejects_non_normal(saddle2d):
    with pytest.raises(RadiusError):
        sectional_poincare(saddle2d, [1.0, 0.0], 1.0,
                           np.array([1e-3, 0.0]), L=1.05)


def test_sectional_value_is_bitwise_sectional_poincare(
        saddle2d, lorenz, lorenz_attractor_point):
    # one landing on a chart built once gives exactly the value and the
    # time offset of the full map, on a closed form and on Lorenz
    x = lorenz_attractor_point
    sx = speed(lorenz, x)
    n = frame_at(lorenz, x).basis
    cases = [(saddle2d, np.array([1.0, 0.0]), 1.0, 1.05, 1e-12,
              [np.array([0.0, 0.003]), np.array([0.0, -0.01]), np.zeros(2)]),
             (lorenz, x, 0.5, 2.0, 1e-9,
              [n @ [1e-3, 0.0] * sx, n @ [-2e-3, 5e-3] * sx, np.zeros(3)])]
    for field, p, T, L, tol, vs in cases:
        chart1 = target_chart(field, p, T, L, tol)
        for v in vs:
            sm = sectional_poincare(field, p, T, v, L, tol=tol,
                                    max_radius=np.inf)
            value, s = sectional_value(field, p, T, v, chart1, tol)
            assert value.tobytes() == sm.value.tobytes()
            assert s == sm.time_offset


def test_sectional_value_checks(saddle2d):
    chart1 = target_chart(saddle2d, [1.0, 0.0], 1.0, 1.05)
    with pytest.raises(RadiusError):
        sectional_value(saddle2d, [1.0, 0.0], 1.0, np.array([1e-3, 0.0]),
                        chart1)
    with pytest.raises(SingularityError):
        sectional_value(saddle2d, [0.0, 0.0], 1.0, np.zeros(2), chart1)


def test_sectional_lorenz_derivative_shrinks_to_psi(lorenz,
                                                    lorenz_attractor_point):
    # |D_v P - psi_T| decreases monotonically as |v| -> 0.  Probe sizes this
    # large need working charts (L=2) beyond the guaranteed section radius.
    x = lorenz_attractor_point
    T = 0.5
    tol = 1e-9
    psi = linear_poincare(lorenz, x, T, tol)
    sx = speed(lorenz, x)
    base = frame_at(lorenz, x)
    diffs = []
    for scale in (1e-2, 1e-3, 1e-4):
        v = base.basis[:, 0] * scale * sx
        sm = sectional_poincare(lorenz, x, T, v, L=2.0, tol=tol,
                                max_radius=np.inf)
        M = psi.in_frames(sm.source, sm.target)
        diffs.append(np.linalg.norm(sm.derivative - M))
    assert diffs[0] > diffs[1] > diffs[2] - 1e-12


@pytest.mark.parametrize("kind,params,box,T", [
    ("linear", (1.0, 0.0, 0.0, -1.0), ([0.4, -1.5], [2.0, 1.5]), 0.5),
    ("rotation", (), ([0.4, -1.5], [2.0, 1.5]), 0.5),
    ("lorenz", (10.0, 28.0, 8.0 / 3.0), ([-15, -20, 10], [15, 20, 40]), 0.1),
    ("saddle_suspension", (1.0, 1.0, 1.0), ([-2, -2, -2], [2, 2, 2]), 0.5),
])
def test_sectional_derivative_uniform_bound(kind, params, box, T):
    # |D_v P_{x,T}| <= (9/2) e^{L |T|} over sampled (x, v) pairs
    field = make_field(kind, params)
    region = Box(np.asarray(box[0], float), np.asarray(box[1], float))
    L = estimate_lipschitz(field, region, 256, seed=1)
    bound = 4.5 * np.exp(L * abs(T))
    rng = np.random.default_rng(8)
    from flowlab.fields import sample_regular_points
    pts = sample_regular_points(field, region, 30, seed=2, tol=1e-9)
    checked = 0
    for p in pts:
        sx = speed(field, p)
        base = frame_at(field, p)
        r1 = section_radius(T, L) * sx
        for _ in range(5):
            c = rng.normal(size=field.dimension - 1)
            v = base.basis @ (c / np.linalg.norm(c)) * rng.uniform(0, r1)
            try:
                sm = sectional_poincare(field, p, T, v, L=L, tol=1e-9)
            except Exception:
                continue
            assert np.linalg.norm(sm.derivative, 2) <= bound
            checked += 1
    assert checked >= 100
