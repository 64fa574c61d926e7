import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowlab.blockseq import (BlockSequenceSystem, angle,
                              assemble_block_system, bump, certify_window,
                              contraction_bound, make_random_system,
                              solve_fixed_point, solve_hyperbolic_operator)
from flowlab.errors import DivergenceError, DomainError, NoCertificateError
from flowlab.fields import Box, make_field, sample_orbit
from flowlab.hyperbolic import (NormalSplitting, rebalance_sequence,
                                step_flows)
from oracles import (angle_brute, apply_hyperbolic_operator,
                     estimate_solve_norm, validate_block_system)


# -------------------------------------------------------------------- angle


def test_angle_orthogonal_lines():
    assert angle(np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]])) == 1.0


def test_angle_planar_closed_form():
    g = 0.3
    S = np.array([[1.0], [0.0]])
    U = np.array([[np.cos(g)], [np.sin(g)]])
    assert angle(S, U) == pytest.approx(np.sin(g), rel=1e-12)


def test_angle_degenerate_flagged():
    S = np.array([[1.0], [0.0]])
    assert angle(S, S) == 0.0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_angle_matches_sphere_grid(seed):
    rng = np.random.default_rng(seed)
    S = rng.normal(size=(4, 2))
    U = rng.normal(size=(4, 1))
    assert angle(S, U) == pytest.approx(angle_brute(S, U, 4000), abs=1e-4)


# -------------------------------------------------------- contraction bound


def test_contraction_bound_values():
    sys_ = make_random_system(5, seed=0)
    sys_.eta, sys_.alpha, sys_.xi = 0.5, 1.0, 0.1
    assert contraction_bound(sys_) == pytest.approx(0.3)
    sys_.xi = 0.0
    assert contraction_bound(sys_) == 0.0
    sys_.eta, sys_.alpha, sys_.xi = 0.5, 0.5, 0.2
    assert contraction_bound(sys_) == pytest.approx(1.2)


# ----------------------------------------------------- operator and inverse


@pytest.mark.parametrize("n_blocks", [5, 41, 201])
def test_operator_inverse_exact(n_blocks):
    sys_ = make_random_system(n_blocks, dim_s=1, dim_u=2, kappa_target=0.5,
                              seed=n_blocks, skew=0.5)
    rng = np.random.default_rng(1)
    rows_s = [rng.normal(size=1) for _ in range(n_blocks)]
    rows_u = [rng.normal(size=2) for _ in range(n_blocks)]
    v = solve_hyperbolic_operator(sys_, rows_s, rows_u)
    rs, ru = apply_hyperbolic_operator(sys_, v)
    scale = max(max(np.abs(r).max() for r in rows_s),
                max(np.abs(r).max() for r in rows_u))
    err = max(max(np.abs(a - b).max() for a, b in zip(rs, rows_s)),
              max(np.abs(a - b).max() for a, b in zip(ru, rows_u)))
    assert err <= 1e-10 * scale


def test_solve_norm_within_bound():
    for seed in range(5):
        sys_ = make_random_system(31, kappa_target=0.7, seed=seed, skew=0.7)
        est = estimate_solve_norm(sys_, n_probes=16, seed=seed)
        bound = (1 + sys_.eta) / (sys_.alpha * (1 - sys_.eta))
        assert est <= bound + 1e-6


# -------------------------------------------------------------- fixed point


def test_linear_system_converges_in_one_step():
    sys_ = make_random_system(11, kappa_target=0.5, seed=2)
    sys_.phis = None
    sys_.xi = 0.0
    rng = np.random.default_rng(3)
    init = [rng.normal(size=sys_.block_dim(j)) for j in range(sys_.n_blocks)]
    res = solve_fixed_point(sys_, init, tol=1e-12)
    assert res.final_norm <= 1e-14
    assert res.iterations <= 2


def test_sine_perturbation_example():
    # blocks R^2 with A = 0.5, D = 2, alpha = 1, phi = 0.01 sin -> kappa 0.03
    n = 21
    bases_s = [np.array([[1.0], [0.0]])] * n
    bases_u = [np.array([[0.0], [1.0]])] * n
    A = [np.array([[0.5]])] * (n - 1)
    D = [np.array([[2.0]])] * (n - 1)
    phis = [lambda w: 0.01 * np.sin(np.asarray(w, dtype=float))] * (n - 1)
    sys_ = BlockSequenceSystem(i_start=-10, bases_s=bases_s, bases_u=bases_u,
                               A=A, D=D, eta=0.5, alpha=1.0, xi=0.01,
                               phis=phis)
    validate_block_system(sys_)
    kappa = contraction_bound(sys_)
    assert kappa == pytest.approx(0.03)
    rng = np.random.default_rng(4)
    init = [rng.normal(size=2) for _ in range(n)]
    nrm = max(np.linalg.norm(v) for v in init)
    init = [v / nrm for v in init]
    res = solve_fixed_point(sys_, init, tol=1e-11)
    assert res.final_norm <= 1e-10
    assert res.max_factor <= kappa * (1 + 1e-6)


def test_multi_start_uniqueness():
    rng = np.random.default_rng(7)
    for trial in range(10):
        sys_ = make_random_system(15, kappa_target=0.85, seed=100 + trial,
                                  skew=0.6)
        finals = []
        for _ in range(4):
            init = [rng.normal(size=sys_.block_dim(j))
                    for j in range(sys_.n_blocks)]
            res = solve_fixed_point(sys_, init, tol=5e-12)
            finals.append(res.sequence)
        for a in finals:
            for b in finals:
                assert max(np.linalg.norm(x - y) for x, y in zip(a, b)) <= 1e-11


def test_no_certificate_when_kappa_large():
    sys_ = make_random_system(9, kappa_target=0.5, seed=5)
    sys_.xi = 10.0
    with pytest.raises(NoCertificateError):
        solve_fixed_point(sys_, sys_.zero(), tol=1e-10)


def test_divergence_detected():
    sys_ = make_random_system(9, kappa_target=0.5, seed=6)
    # lie about the certified Lipschitz constant: the solver must notice
    sys_.phis = [lambda w: 5.0 * np.asarray(w, dtype=float) + 0.5
                 for _ in range(sys_.n_blocks - 1)]
    rng = np.random.default_rng(8)
    init = [rng.normal(size=sys_.block_dim(j)) for j in range(sys_.n_blocks)]
    with pytest.raises(DivergenceError):
        solve_fixed_point(sys_, init, tol=1e-10)


def test_validate_rejects_bad_linear_parts():
    sys_ = make_random_system(7, kappa_target=0.5, seed=9)
    sys_.A[0] = sys_.A[0] * 10.0
    with pytest.raises(DomainError):
        validate_block_system(sys_)


# --------------------------------------------------------------------- bump


def test_bump_support_properties():
    assert bump(0.0) == 1.0
    assert bump(1.0 / 3.0) == 1.0
    assert bump(2.0 / 3.0) == 0.0
    assert bump(5.0) == 0.0
    ts = np.linspace(0, 1, 101)
    vals = np.array([bump(t) for t in ts])
    slopes = np.diff(vals) / np.diff(ts)
    assert np.all(slopes <= 0.0) and np.all(slopes >= -4.0)


# ----------------------------------------------------------------- assembly


@pytest.fixture(scope="module")
def diag_assembly():
    g = make_field("linear", [-3, 0, 0, 0, -1, 0, 0, 0, 2],
                   domain=Box(np.full(3, -1e6), np.full(3, 1e6)))
    T = 1.0
    orbit = sample_orbit(g, np.array([0.0, 0.0, 0.01]), np.arange(6) * T,
                         tol=1e-12)
    n = orbit.n_nodes
    st_ = np.zeros((n, 3, 1))
    st_[:, 0, 0] = 1.0
    un = np.zeros((n, 3, 1))
    un[:, 1, 0] = 1.0
    spl = NormalSplitting(orbit=orbit, stable=st_, unstable=un,
                          steps=step_flows(g, orbit, T, 1e-11))
    rb = rebalance_sequence([(np.exp(-3.0), np.exp(-1.0))] * (n - 1),
                            eta=0.8, i_start=0)
    res = assemble_block_system(g, spl, rb, T, epsilon=1e-3, L=1.05,
                                tol=1e-11, lip_samples=60,
                                enforce_radius=False)
    return g, spl, rb, res


def test_assembly_linear_flow_kills_perturbation(diag_assembly):
    _, _, rb, res = diag_assembly
    # P_{x,T} is exactly linear: phi vanishes and L is the rescaled diagonal
    assert max(res.lip_measured) <= 1e-9
    assert res.system.A[0][0, 0] == pytest.approx(rb.c[0] * np.exp(-3.0),
                                                  rel=1e-9)
    assert res.system.D[0][0, 0] == pytest.approx(rb.c[0] * np.exp(-1.0),
                                                  rel=1e-9)
    assert res.off_diag <= 1e-9
    assert res.feasible


def test_assembly_rescaled_parts_meet_eta(diag_assembly):
    _, _, _, res = diag_assembly
    assert res.eta_measured <= 0.8 * (1 + 1e-9)
    assert res.system.D[0][0, 0] == pytest.approx(1.0 / 0.8)  # c m(psi|u)


def test_assembly_fixed_point_returns_zero(diag_assembly):
    _, spl, _, res = diag_assembly
    orbit = spl.orbit
    init = [1e-4 * orbit.speeds[j] * np.array([0.7, -0.6, 0.0])
            for j in range(orbit.n_nodes)]
    fp = solve_fixed_point(res.system, init, tol=1e-12)
    assert fp.converged
    assert fp.final_norm <= 1e-12


def test_assembly_never_differentiates_the_sectional_map(diag_assembly,
                                                        monkeypatch):
    # phi_j needs only the value of P_j; the derivative path must stay out
    g, spl, rb, _ = diag_assembly

    def no_derivative(*args, **kwargs):
        raise AssertionError("assembly called sectional_poincare")

    monkeypatch.setattr("flowlab.poincare.sectional_poincare", no_derivative)
    res = assemble_block_system(g, spl, rb, 1.0, epsilon=1e-3, L=1.05,
                                tol=1e-11, lip_samples=8,
                                enforce_radius=False)
    init = [1e-4 * s * np.array([0.7, -0.6, 0.0]) for s in spl.orbit.speeds]
    fp = solve_fixed_point(res.system, init, tol=1e-12)
    assert fp.converged and fp.final_norm <= 1e-12


def test_assembly_flows_each_node_once(diag_assembly, monkeypatch):
    # the splitting's step flow of (x_j, T) is psi_T's flow, made once; the
    # target chart is one state-only flow of (x_j, T), and every landing is
    # state-only: no variational flow of x_j + w over T
    import dataclasses

    import flowlab.flowbox as F
    import flowlab.hyperbolic as H
    import flowlab.poincare as P
    g, spl, rb, _ = diag_assembly
    variational, state_only = {}, {}
    inner_flow, inner_points = P.flow, P.flow_points

    def counting_flow(field, x, t, tol=1e-9):
        key = (tuple(np.asarray(x, dtype=float).tolist()), float(t))
        variational[key] = variational.get(key, 0) + 1
        return inner_flow(field, x, t, tol)

    def counting_points(field, x, times, tol=1e-9):
        key = (tuple(np.asarray(x, dtype=float).tolist()),
               tuple(np.asarray(times, dtype=float).tolist()))
        state_only[key] = state_only.get(key, 0) + 1
        return inner_points(field, x, times, tol)

    for module in (P, H, F):
        monkeypatch.setattr(module, "flow", counting_flow)
    monkeypatch.setattr(P, "flow_points", counting_points)
    spl = dataclasses.replace(spl, steps=step_flows(g, spl.orbit, 1.0, 1e-11))
    assemble_block_system(g, spl, rb, 1.0, epsilon=1e-3, L=1.05, tol=1e-11,
                          lip_samples=8, enforce_radius=False)
    nodes = [tuple(spl.orbit.states[j].tolist())
             for j in range(spl.orbit.n_nodes - 1)]
    for x in nodes:
        assert variational[(x, 1.0)] == 1      # the step flow
        assert state_only[(x, (1.0,))] == 1    # the chart
    assert max(variational.values()) == 1
    # every variational flow over T is a node's step flow
    assert {k for k in variational if k[1] == 1.0} == \
        {(x, 1.0) for x in nodes}
    # and the landings of x_j + w over T are state-only
    landings = [k for k in state_only if k[1] == (1.0,) and k[0] not in nodes]
    assert len(landings) >= len(nodes)
    # and no state-only flow, chart or landing, is made twice
    assert max(state_only.values()) == 1


@pytest.fixture(scope="module")
def lorenz_splitting(lorenz):
    # the Lorenz window of both pipeline tests: 13 nodes, 5 after warmup
    from flowlab.fields import flow_points
    from flowlab.hyperbolic import estimate_normal_splitting

    tol = 1e-10
    x0 = flow_points(lorenz, np.array([1.0, 1.0, 1.0]), [12.0], tol)[0]
    orbit = sample_orbit(lorenz, x0, np.arange(13) * 0.5, tol=tol)
    return estimate_normal_splitting(lorenz, orbit, dim_s=1, T_block=0.5,
                                     tol=tol, warmup=4)


def test_assembly_phi_vanishes_bitwise_on_lorenz(lorenz, lorenz_splitting):
    # the target chart is the state-only landing of w = 0, so phi_j(0) is
    # zero bytes on every block of a Lorenz window
    cert = certify_window(lorenz, lorenz_splitting, 4, 5)
    zero = np.zeros(3)
    for phi in cert.assembly.system.phis:
        assert phi(zero).tobytes() == zero.tobytes()


def _phi_from_sectional_poincare(g, spl, rb, system, j, T, epsilon, L, tol):
    """phi_j built on `sectional_poincare(...).value`: the reference that
    the assembled value-only phi_j must match bit for bit."""
    from flowlab.poincare import linear_poincare, sectional_poincare
    x_j, speed_j = spl.orbit.states[j], spl.orbit.speeds[j]
    m = linear_poincare(g, x_j, T, tol)
    psi = m.target.basis @ m.matrix @ m.source.basis.T
    e_j = np.asarray(g.func(x_j), dtype=float) / speed_j
    Bs, Bu = system.bases_s[j], system.bases_u[j]
    Mj_pinv = np.linalg.pinv(np.column_stack([Bs, Bu]))
    b = np.asarray(rb.b, dtype=float)

    def extended_section(w):
        w = w - np.dot(w, e_j) * e_j
        beta = bump(np.linalg.norm(w) / (3.0 * epsilon * speed_j))
        lin = psi @ w
        if beta == 0.0:
            return lin
        sm = sectional_poincare(g, x_j, T, w, L, tol=tol, max_radius=np.inf)
        return beta * sm.value + (1.0 - beta) * lin

    def block_linear(v):
        coords = Mj_pinv @ v
        s_dim = Bs.shape[1]
        return (system.bases_s[j + 1] @ (system.A[j] @ coords[:s_dim])
                + system.bases_u[j + 1] @ (system.D[j] @ coords[s_dim:]))

    offset = b[j + 1] * extended_section(np.zeros(g.dimension))
    return lambda v: (b[j + 1] * extended_section(v / b[j])
                      - block_linear(v) - offset)


def test_assembly_phi_is_bitwise_the_sectional_poincare_formula(
        diag_assembly):
    g, spl, rb, res = diag_assembly
    rng = np.random.default_rng(4)
    for j in (0, 3):
        old = _phi_from_sectional_poincare(g, spl, rb, res.system, j, 1.0,
                                           1e-3, 1.05, 1e-11)
        r = 3e-3 * spl.orbit.speeds[j] * rb.b[j]   # outer blend radius
        for frac in (0.0, 0.2, 0.5, 0.6):
            c = rng.normal(size=2)
            v = frac * r * np.array([c[0], c[1], 0.0]) / np.linalg.norm(c)
            assert res.system.phis[j](v).tobytes() == old(v).tobytes()


def test_assembly_radius_precondition(diag_assembly):
    g, spl, rb, _ = diag_assembly
    with pytest.raises(DomainError):
        assemble_block_system(g, spl, rb, 1.0, epsilon=1.0, L=1.05,
                              lip_samples=4)


def test_lorenz_pipeline_end_to_end(lorenz, lorenz_splitting):
    # orbit -> splitting -> rebalance -> assembly -> fixed point at zero,
    # with working charts (the certified section radii are unreachable at
    # the honest Lorenz Lipschitz constant)
    cert = certify_window(lorenz, lorenz_splitting, 40, 5)
    assert cert.assembly.feasible
    assert cert.kappa == contraction_bound(cert.assembly.system)
    assert cert.kappa < 1.0
    fp = cert.fixed_point
    assert fp.converged and fp.final_norm <= 1e-11
    assert cert.certified


def test_certify_window_reuses_the_step_flows(diag_assembly, monkeypatch):
    # psi_T's norms and blocks come from the splitting's carried step
    # flows: no node x_j is flowed over T again
    import flowlab.fields as fields_module
    import flowlab.flowbox as F
    import flowlab.hyperbolic as H
    import flowlab.poincare as P
    g, spl, _, _ = diag_assembly
    T = spl.steps.time
    flowed = []
    inner = fields_module.flow

    def spy(field, x, t, tol=1e-9):
        flowed.append((tuple(np.asarray(x, dtype=float).tolist()), float(t)))
        return inner(field, x, t, tol)

    for module in (fields_module, P, H, F):
        monkeypatch.setattr(module, "flow", spy)
    cert = certify_window(g, spl, 8, 0)
    assert cert.certified and cert.fixed_point.final_norm <= 1e-11
    nodes = {(tuple(x.tolist()), T) for x in spl.orbit.states[:-1]}
    assert not nodes & set(flowed)
