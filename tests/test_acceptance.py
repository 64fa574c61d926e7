"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

Scenario-driven criteria run the shipped files under scripts/scenarios/
twice into separate directories; the byte-identity of the reports doubles
as the determinism criterion.
"""

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from flowlab.blockseq import contraction_bound, make_random_system, \
    solve_fixed_point
from flowlab.cli import run_scenario
from flowlab.expansive import replay_witness
from flowlab.fields import (Box, estimate_lipschitz, make_field, sample_orbit,
                            speed)
from flowlab.flowbox import chart_radius
from flowlab.hyperbolic import (CocycleSpec, TangentSplitting,
                                evaluate_cocycle, flow_speed_cocycle,
                                induce_from_tangent_splitting,
                                pragmatical_cocycle, step_flows,
                                trivial_cocycle)
from flowlab.poincare import linear_poincare, psi_ambient, sectional_poincare
from flowlab.reparam import drift_trials, lattice_bottleneck
from flowlab.util import mininorm
from oracles import (brute_force_bottleneck, evolve_direction,
                     orbit_time_control_trials)

SCENARIOS = Path(__file__).resolve().parents[1] / "scripts" / "scenarios"

_FIELDS = {
    "linear": ((1.0, 0.0, 0.0, -1.0), Box([0.4, -1.5], [2.0, 1.5])),
    "rotation": ((), Box([0.5, -1.2], [1.8, 1.2])),
    "lorenz": ((10.0, 28.0, 8.0 / 3.0), Box([-15, -20, 10], [15, 20, 40])),
    "saddle_suspension": ((1.0, 1.0, 1.0), Box([-2, -2, -2], [2, 2, 2])),
}


def _report(criterion, ok, detail):
    line = f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def scenario_runs(tmp_path_factory):
    """Each shipped scenario executed twice; exit codes and report bytes."""
    base = tmp_path_factory.mktemp("acceptance")
    runs = {}
    for scn in sorted(SCENARIOS.glob("*.scn")):
        outcome = {"paths": [], "codes": [], "seconds": []}
        for tag in ("a", "b"):
            out = base / f"{scn.stem}-{tag}"
            t0 = time.monotonic()
            code = run_scenario(str(scn), out=str(out))
            outcome["seconds"].append(time.monotonic() - t0)
            outcome["codes"].append(code)
            outcome["paths"].append(out)
        runs[scn.stem] = outcome
    return runs


def test_c1_flowbox_bounds(scenario_runs):
    elapsed = 0.0
    worst = {"max_dev": 0.0, "min_mininorm": np.inf, "max_norm": 0.0}
    ok = True
    for name in ("flowbox-saddle", "flowbox-rotation"):
        run = scenario_runs[name]
        elapsed += run["seconds"][0]
        ok = ok and run["codes"][0] == 0
        rep = json.loads((run["paths"][0] / "report.json").read_text())
        assert rep["bases"] == 50
        worst["max_dev"] = max(worst["max_dev"], rep["max_dev"])
        worst["min_mininorm"] = min(worst["min_mininorm"], rep["min_mininorm"])
        worst["max_norm"] = max(worst["max_norm"], rep["max_norm"])
        for base_rep in rep["reports"]:
            ok = ok and base_rep["no_singularity"]
    ok = ok and worst["max_dev"] <= 0.5 + 1e-3
    ok = ok and worst["min_mininorm"] >= 0.5 - 1e-3
    ok = ok and worst["max_norm"] <= 2.0 + 1e-3
    ok = ok and elapsed < 30.0
    _report("C1 flowbox bounds",
            ok,
            f"max_dev={worst['max_dev']:.4f} min_m={worst['min_mininorm']:.4f} "
            f"max_norm={worst['max_norm']:.4f} runtime={elapsed:.1f}s")


def test_c2_orbit_time_control():
    results = []
    ok = True
    for kind, (params, region) in _FIELDS.items():
        field = make_field(kind, params)
        n, viol = orbit_time_control_trials(field, region, 10_000,
                                            seed=21, tol=1e-10)
        ok = ok and n == 10_000 and viol == 0
        results.append(f"{kind}:{viol}/{n}")
    _report("C2 orbit-time control |t| <= 3delta", ok,
            "violations " + " ".join(results))


def test_c3_drift_bounds():
    ok = True
    total = 0
    violations = 0
    for kind, (params, region) in _FIELDS.items():
        field = make_field(kind, params)
        tol = 1e-12 if kind == "lorenz" else 1e-10
        L = estimate_lipschitz(field, region, 256, seed=31)
        r0 = chart_radius(L)
        for eps in (0.1, 0.3):
            for t_factor in (0.5, 1.0, 5.0):
                trials = drift_trials(field, region, eps, t_factor * r0, 100,
                                      seed=37, tol=tol, L=L)
                total += len(trials)
                violations += sum(1 for t in trials if not t.bound_ok)
    ok = violations == 0 and total == 4 * 2 * 3 * 100
    _report("C3 drift bound |theta(T)-theta(0)-T| <= eps T", ok,
            f"{violations} violations in {total} trials")


def test_c4_sectional_derivative_identity():
    ok = True
    details = []
    # linear fields against the closed form
    for A in (np.diag([1.0, -1.0]),
              np.array([[0.2, 1.0], [0.0, -0.7]])):
        field = make_field("linear", A.ravel())
        L = estimate_lipschitz(field, Box([0.4, -1.5], [2.0, 1.5]), 128, seed=4)
        worst = 0.0
        for x in ([1.0, 0.0], [0.8, 0.5], [1.5, -0.8]):
            T = 1.0
            sm = sectional_poincare(field, np.asarray(x), T, np.zeros(2), L,
                                    tol=1e-12)
            E = expm(T * A)
            x1 = E @ np.asarray(x)
            f1 = A @ x1
            e1 = f1 / np.linalg.norm(f1)
            P = (np.eye(2) - np.outer(e1, e1)) @ E
            ref = sm.target.basis.T @ P @ sm.source.basis
            worst = max(worst, float(np.linalg.norm(sm.derivative - ref)
                                     / np.linalg.norm(ref)))
        ok = ok and worst <= 1e-6
        details.append(f"linear:{worst:.1e}")
    # lorenz at integration tolerance 1e-9
    lorenz = make_field("lorenz", (10.0, 28.0, 8.0 / 3.0))
    from flowlab.fields import flow_points
    worst = 0.0
    for burn in (25.0, 30.0, 35.0):
        x = flow_points(lorenz, np.array([1.0, 1.0, 1.0]), [burn], 1e-10)[0]
        sm = sectional_poincare(lorenz, x, 0.5, np.zeros(3), L=42.0, tol=1e-9,
                                max_radius=np.inf)
        psi = linear_poincare(lorenz, x, 0.5, tol=1e-11)
        ref = psi.in_frames(sm.source, sm.target)
        worst = max(worst, float(np.linalg.norm(sm.derivative - ref, 2)
                                 / np.linalg.norm(ref, 2)))
    ok = ok and worst <= 1e-3
    details.append(f"lorenz:{worst:.1e}")
    _report("C4 sectional derivative D0P = psi_T", ok, " ".join(details))


def test_c5_cocycle_identity():
    rng = np.random.default_rng(55)
    diag3 = make_field("linear", [-3, 0, 0, 0, -1, 0, 0, 0, 2],
                       domain=Box(np.full(3, -1e6), np.full(3, 1e6)))
    lorenz = make_field("lorenz", (10.0, 28.0, 8.0 / 3.0))
    from flowlab.fields import flow_points
    lor_x = flow_points(lorenz, np.array([1.0, 1.0, 1.0]), [28.0], 1e-10)[0]
    box_d = Box([-0.5, -0.5, -0.5], [0.5, 0.5, 0.5])
    box_l1 = Box([-6, -6, -2], [6, 6, 12])
    box_l2 = Box([4, 4, 20], [13, 13, 34])
    product = CocycleSpec(kind="product",
                          factors=(pragmatical_cocycle(box_l1),
                                   pragmatical_cocycle(box_l2)))
    product.validate(lorenz)

    def check(field, spec, x, tol, t_range):
        e = rng.normal(size=field.dimension)
        e /= np.linalg.norm(e)
        s, t = rng.uniform(*t_range, size=2)
        lhs = evaluate_cocycle(field, spec, x, e, s + t, tol=tol)
        xs, es = evolve_direction(field, x, e, s, tol=tol)
        rhs = evaluate_cocycle(field, spec, x, e, s, tol=tol) * \
            evaluate_cocycle(field, spec, xs, es, t, tol=tol)
        return abs(lhs - rhs) / abs(lhs)

    worst = 0.0
    n = 0
    for _ in range(250):
        x = np.array([rng.uniform(0.5, 2), rng.uniform(-1, 1),
                      rng.uniform(0.5, 2)])
        worst = max(worst, check(diag3, trivial_cocycle(), x, 1e-11,
                                 (0.1, 1.0)))
        n += 1
    for _ in range(250):
        x = np.array([rng.uniform(0.5, 2), rng.uniform(-1, 1),
                      rng.uniform(0.5, 2)])
        worst = max(worst, check(diag3, flow_speed_cocycle(), x, 1e-11,
                                 (0.1, 1.0)))
        n += 1
    saddle_box = pragmatical_cocycle(box_d)
    for _ in range(300):
        x = np.array([rng.uniform(1.5, 2.5), rng.uniform(-0.2, 0.2),
                      rng.uniform(5e-4, 5e-3)])
        worst = max(worst, check(diag3, saddle_box, x, 1e-11, (0.4, 1.4)))
        n += 1
    for _ in range(100):
        worst = max(worst, check(lorenz, pragmatical_cocycle(box_l2), lor_x,
                                 1e-10, (0.2, 1.2)))
        n += 1
    for _ in range(100):
        worst = max(worst, check(lorenz, product, lor_x, 1e-10, (0.2, 1.2)))
        n += 1
    ok = n == 1000 and worst <= 1e-6
    _report("C5 cocycle identity h(x,s+t)=h(x,s)h(phi_s x,t)", ok,
            f"worst rel defect {worst:.2e} over {n} triples")


def test_c6_induced_expansion_mechanism():
    diag3 = make_field("linear", [-3, 0, 0, 0, -1, 0, 0, 0, 2],
                       domain=Box(np.full(3, -1e6), np.full(3, 1e6)))
    orbit = sample_orbit(diag3, np.array([0.0, 0.0, 1.0]),
                         np.arange(3) * 0.5, tol=1e-12)
    e_basis = np.zeros((3, 3, 1))
    e_basis[:, 0, 0] = 1.0
    f_basis = np.zeros((3, 3, 2))
    f_basis[:, 1, 0] = 1.0
    f_basis[:, 2, 1] = 1.0
    split, h_u = induce_from_tangent_splitting(
        diag3, TangentSplitting(orbit=orbit, e_basis=e_basis, f_basis=f_basis,
                                steps=step_flows(diag3, orbit, 0.5, 1e-12)))
    worst = 0.0
    for T in (0.5, 1.0, 2.0):
        amb, _ = psi_ambient(diag3, orbit.states[0], T, tol=1e-13)
        mu = mininorm(amb @ split.unstable[0])
        hu = evaluate_cocycle(diag3, h_u, orbit.states[0], [0, 0, 1], T,
                              tol=1e-13)
        worst = max(worst, abs(hu * mu - np.exp(T)) / np.exp(T))
    ok = worst <= 1e-8
    _report("C6 rescaled expansion h^u m(psi|u) = e^T", ok,
            f"worst rel error {worst:.2e}")


def test_c7_fixed_point_solver():
    t0 = time.monotonic()
    rng = np.random.default_rng(77)
    ok = True
    worst_final = 0.0
    worst_agree = 0.0
    count = 0
    for m in (10, 50):
        for _ in range(50):
            kappa_t = float(rng.uniform(0.05, 0.9))
            system = make_random_system(2 * m + 1, 1, 1, kappa_t,
                                        seed=int(rng.integers(2 ** 31)),
                                        i_start=-m,
                                        skew=float(rng.uniform(0.0, 0.7)))
            kappa = contraction_bound(system)
            ok = ok and kappa <= 0.9 + 1e-12
            finals = []
            for _ in range(10):
                init = [rng.normal(size=system.block_dim(j))
                        for j in range(system.n_blocks)]
                nrm = system.sup_norm(init)
                init = [v / nrm for v in init]
                res = solve_fixed_point(system, init, tol=5e-11)
                ok = ok and res.converged
                ok = ok and res.max_factor <= kappa * (1 + 1e-6)
                worst_final = max(worst_final, res.final_norm)
                finals.append(res.sequence)
            agree = max(
                max(float(np.linalg.norm(a - b))
                    for a, b in zip(s1, s2))
                for s1 in finals for s2 in finals)
            worst_agree = max(worst_agree, agree)
            count += 1
    elapsed = time.monotonic() - t0
    ok = ok and count == 100
    ok = ok and worst_final <= 1e-10 and worst_agree <= 1e-10
    ok = ok and elapsed < 60.0
    _report("C7 fixed-point uniqueness", ok,
            f"final<= {worst_final:.1e} agree<= {worst_agree:.1e} "
            f"runtime={elapsed:.1f}s")


def test_c8_lattice_dp_oracle():
    rng = np.random.default_rng(88)
    rotation = make_field("rotation")
    from flowlab.fields import flow_points
    worst = 0.0
    checked = 0
    for inst in range(50):
        if inst % 2 == 0:
            cost8 = rng.random((8, 8))
        else:
            r1, r2 = rng.uniform(0.6, 1.4, size=2)
            x = np.array([r1, 0.0])
            y = np.array([r2 * np.cos(rng.uniform(0, 0.3)),
                          r2 * np.sin(rng.uniform(0, 0.3))])
            tn = np.linspace(0.0, 2.0, 8)
            xs = flow_points(rotation, x, tn, 1e-10)
            ys = flow_points(rotation, y, tn, 1e-10)
            speeds = np.linalg.norm(xs, axis=1)
            cost8 = np.linalg.norm(xs[:, None, :] - ys[None, :, :], axis=2) \
                / speeds[:, None]
        for m in range(2, 9):
            for n in range(2, 9):
                sub = cost8[:m, :n]
                v_dp, _ = lattice_bottleneck(sub)
                v_or = brute_force_bottleneck(sub)
                worst = max(worst, abs(v_dp - v_or))
                checked += 1
    ok = worst <= 1e-12 and checked == 50 * 49
    _report("C8 bottleneck DP equals path enumeration", ok,
            f"max diff {worst:.1e} over {checked} lattices")


def test_c9_expansiveness_scans(scenario_runs):
    ok = True
    details = []
    # (a) rotation: replayable violation at every eps <= 0.05
    run = scenario_runs["expansive-rotation"]
    ok = ok and run["codes"][0] == 1
    rep = json.loads((run["paths"][0] / "report.json").read_text())
    eps_seen = {}
    for entry in rep["verdicts"]:
        eps_seen.setdefault(entry["epsilon"], []).append(entry["verdict"])
    for eps, verdicts in eps_seen.items():
        ok = ok and ("violation" in verdicts)
    witnesses = sorted(run["paths"][0].glob("witness-*.json"))
    ok = ok and len(witnesses) > 0
    replayed = 0
    for w in witnesses:
        res = replay_witness(w)
        ok = ok and res.reproduced
        replayed += 1
    details.append(f"rotation: {replayed} witnesses replayed over "
                   f"eps {sorted(eps_seen)}")
    # (b) lorenz: no violation within budget at delta = eps/3
    run = scenario_runs["expansive-lorenz"]
    ok = ok and run["codes"][0] == 0
    rep = json.loads((run["paths"][0] / "report.json").read_text())
    ok = ok and all(e["verdict"] == "no-violation-found"
                    for e in rep["verdicts"])
    details.append(f"lorenz: {rep['budget_used']} pairs, no violation")
    # (c) nonsingular probe: per-mode thresholds within the speed ratio
    run = scenario_runs["probe-suspension"]
    ok = ok and run["codes"][0] == 0
    rep = json.loads((run["paths"][0] / "report.json").read_text())
    ok = ok and rep["consistent"]
    details.append(f"probe: ratio {rep['speed_ratio']:.2f} consistent")
    _report("C9 expansiveness scans", ok, "; ".join(details))


def test_pipeline_scenario_report(scenario_runs):
    # the certificate chain end to end: the keys of the report that
    # scripts/run_lorenz_pipeline.py wrote, and a converged fixed point
    run = scenario_runs["pipeline-lorenz"]
    rep = json.loads((run["paths"][0] / "report.json").read_text())
    keys = sorted(k for k in rep if k not in ("command", "scenario"))
    ok = run["codes"][0] == 0
    ok = ok and keys == ["L", "alpha", "domination", "eta", "feasible",
                         "fixed_point", "kappa", "lip", "rebalance",
                         "xi_required"]
    ok = ok and rep["fixed_point"]["converged"]
    _report("pipeline certificate chain", ok,
            f"kappa={rep['kappa']:.4f} "
            f"iterations={rep['fixed_point']['iterations']}")


def test_c10_determinism(scenario_runs):
    ok = True
    checked = []
    for name, run in sorted(scenario_runs.items()):
        a = (run["paths"][0] / "report.json").read_bytes()
        b = (run["paths"][1] / "report.json").read_bytes()
        same = a == b and run["codes"][0] == run["codes"][1]
        ok = ok and same
        checked.append(name)
    _report("C10 determinism (byte-identical reports)", ok,
            f"{len(checked)} scenarios x2 runs")
