"""Scenario-driven command line front end.

Subcommands: `run SCENARIO`, `replay WITNESS...`, `list-fields`.  Reports
are byte-deterministic for a fixed scenario and seed; volatile metadata
(timestamps, versions) goes to a separate run-meta.json.  Exit codes:
0 = all checks passed, 1 = a mathematical bound was violated (findings),
2 = software or validation error.
"""

from __future__ import annotations

import argparse
import datetime
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .blockseq import contraction_bound, make_random_system, solve_fixed_point
from .errors import FlowLabError, ScenarioError
from .expansive import (MODES, ScanConfig, epsilon0_estimate,
                        expansiveness_scan, nonsingular_equivalence_probe,
                        save_witness, replay_witness)
from .fields import (Box, estimate_lipschitz, flow_points, sample_orbit,
                     sample_regular_points, FIELD_KINDS)
from .flowbox import chart_radius, make_chart, verify_box_bounds
from .hyperbolic import (check_domination, estimate_normal_splitting,
                         flow_speed_cocycle, trivial_cocycle)
from .poincare import linear_poincare, section_radius, sectional_poincare
from .reparam import (admissible_delta, drift_trials,
                      estimate_speed_ratio_constant, trials_to_csv)
from .scenario import Scenario, load_scenario
from .util import write_csv, write_json


def _listify(v):
    return [v] if not isinstance(v, list) else v


def _numbers(sc, key, n, default=(), kind=float):
    """The n values of a scenario key; a ScenarioError for any other count."""
    vals = _listify(sc.options.get(key, list(default)))
    if len(vals) != n:
        raise ScenarioError(f"{key} needs {n} numbers, got {len(vals)}")
    return [kind(v) for v in vals]


def _sample_box(sc: Scenario, field):
    if "sample-box" not in sc.options:
        return field.domain
    vals = _numbers(sc, "sample-box", 2 * field.dimension)
    return Box(np.asarray(vals[0::2], float), np.asarray(vals[1::2], float))


def _print(line):
    sys.stdout.write(line + "\n")


# ---------------------------------------------------------------------------
# command handlers: each returns (report dict, findings count)


def _run_flowbox(sc, field, out):
    box = _sample_box(sc, field)
    n_bases = int(sc.options.get("bases", 10))
    grid = int(sc.options.get("grid", 5))
    burn = float(sc.options.get("burn", 0.0))
    L = estimate_lipschitz(field, box, int(sc.options.get("lipschitz-samples", 256)),
                           seed=sc.seed)
    pts = sample_regular_points(field, box, n_bases, seed=sc.seed, burn=burn,
                                tol=sc.tol)
    findings = 0
    per_base = []
    rows = []
    for p in pts:
        rep = verify_box_bounds(make_chart(field, p, L), grid, tol=sc.tol)
        per_base.append(rep.to_json_dict())
        rows.append([*p, rep.max_dev_from_id, rep.min_mininorm, rep.max_norm,
                     rep.bounds_ok])
        if not rep.bounds_ok:
            findings += 1
        _print(f"flowbox base={np.round(p, 4).tolist()} max_dev="
               f"{rep.max_dev_from_id:.4f} "
               f"{'PASS' if rep.bounds_ok else 'FAIL'}")
    write_csv(out / "series-flowbox.csv",
              [f"x_{i+1}" for i in range(field.dimension)]
              + ["max_dev", "min_mininorm", "max_norm", "bounds_ok"], rows)
    report = {"command": "flowbox", "L": L, "r0": chart_radius(L),
              "bases": len(per_base), "grid": grid, "reports": per_base,
              "max_dev": max(r["max_dev"] for r in per_base),
              "min_mininorm": min(r["min_mininorm"] for r in per_base),
              "max_norm": max(r["max_norm"] for r in per_base)}
    return report, findings


def _run_poincare(sc, field, out):
    box = _sample_box(sc, field)
    n_bases = int(sc.options.get("bases", 5))
    burn = float(sc.options.get("burn", 0.0))
    T = float(sc.options.get("t", 0.5))
    id_tol = float(sc.options.get("identity-tol", 1e-3))
    fd_rel = float(sc.options.get("fd-step-rel", 1e-4))
    L = estimate_lipschitz(field, box, 256, seed=sc.seed)
    pts = sample_regular_points(field, box, n_bases, seed=sc.seed, burn=burn,
                                tol=sc.tol)
    findings = 0
    entries = []
    rows = []
    for p in pts:
        sx = float(np.linalg.norm(field.func(p)))
        sm = sectional_poincare(field, p, T, np.zeros(field.dimension), L,
                                tol=sc.tol, fd_step=fd_rel * sx,
                                max_radius=np.inf)
        psi = linear_poincare(field, p, T, tol=sc.tol)
        M = psi.in_frames(sm.source, sm.target)
        err = float(np.linalg.norm(sm.derivative - M, 2)
                    / max(np.linalg.norm(M, 2), 1e-300))
        ok = err <= id_tol
        findings += 0 if ok else 1
        entries.append({"base": p.tolist(), "rel_error": err, "pass": ok})
        rows.append([*p, err, ok])
        _print(f"poincare base={np.round(p, 4).tolist()} D0P-vs-psi rel err="
               f"{err:.2e} {'PASS' if ok else 'FAIL'}")
    write_csv(out / "series-poincare.csv",
              [f"x_{i+1}" for i in range(field.dimension)]
              + ["rel_error", "pass"], rows)
    return {"command": "poincare", "T": T, "L": L, "identity_tol": id_tol,
            "entries": entries}, findings


def _run_shadow(sc, field, out):
    box = _sample_box(sc, field)
    pairs = int(sc.options.get("pairs", 20))
    epsilon = float(sc.options.get("epsilon", 0.3))
    L = estimate_lipschitz(field, box, 256, seed=sc.seed)
    r0 = chart_radius(L)
    T = float(sc.options.get("t-factor", 1.0)) * r0
    trials = drift_trials(field, box, epsilon, T, pairs, seed=sc.seed,
                          n_t_nodes=int(sc.options.get("t-nodes", 9)),
                          n_offsets=int(sc.options.get("offsets", 17)),
                          tol=sc.tol, L=L)
    trials_to_csv(trials, out / "series-shadow.csv")
    bad = [t for t in trials if not t.bound_ok]
    _print(f"shadow trials={len(trials)} violations={len(bad)} "
           f"{'PASS' if not bad else 'FAIL'}")
    return {"command": "shadow", "epsilon": epsilon, "T": T, "L": L,
            "delta": trials[0].delta if trials else None,
            "trials": len(trials), "violations": len(bad)}, len(bad)


def _run_split(sc, field, out):
    start = np.asarray(_numbers(sc, "start", field.dimension))
    burn = float(sc.options.get("burn", 0.0))
    t_block = float(sc.options.get("t-block", 0.5))
    blocks = int(sc.options.get("blocks", 20))
    dim_s = int(sc.options.get("dim-s", 1))
    warmup = int(sc.options.get("warmup", 3))
    C = float(sc.options.get("c", 1.05))
    lam = float(sc.options.get("lambda", 0.1))
    t_grid = [float(v) for v in _listify(sc.options.get("t-grid", t_block))]
    cocy = sc.options.get("cocycle-u", "flow-speed")
    if cocy not in ("flow-speed", "trivial"):
        raise ScenarioError(
            f"cocycle-u must be flow-speed or trivial, got {cocy!r}")
    h_u = flow_speed_cocycle() if cocy == "flow-speed" else trivial_cocycle()
    x0 = start
    if burn > 0:
        x0 = flow_points(field, start, [burn], sc.tol)[0]
    orbit = sample_orbit(field, x0, np.arange(blocks + 1) * t_block, tol=sc.tol)
    splitting = estimate_normal_splitting(
        field, orbit, dim_s, t_block, tol=sc.tol, warmup=warmup,
        gap_threshold=float(sc.options.get("gap-threshold", 1.05)))
    rep = check_domination(field, splitting, (trivial_cocycle(), h_u), C, lam,
                           t_grid, tol=sc.tol)
    rep.to_csv(out / "series-split.csv")
    ok = rep.all_ok
    _print(f"split nodes={splitting.orbit.n_nodes} domination="
           f"{rep.domination_ok} contraction={rep.contraction_ok} "
           f"expansion={rep.expansion_ok} {'PASS' if ok else 'FAIL'}")
    return {"command": "split", **rep.to_json_dict()}, 0 if ok else 1


def _run_fixedpoint(sc, field, out):
    n_sys = int(sc.options.get("systems", 20))
    n_starts = int(sc.options.get("starts", 5))
    blocks = int(sc.options.get("blocks", 10))
    kappa_max = float(sc.options.get("kappa-max", 0.9))
    dim_s = int(sc.options.get("dim-s", 1))
    dim_u = int(sc.options.get("dim-u", 1))
    solve_tol = float(sc.options.get("solve-tol", 5e-11))
    rng = np.random.default_rng(sc.seed)
    findings = 0
    rows = []
    first_trace = None
    for i in range(n_sys):
        kappa_t = float(rng.uniform(0.05, kappa_max))
        system = make_random_system(2 * blocks + 1, dim_s, dim_u, kappa_t,
                                    seed=int(rng.integers(2**31)),
                                    i_start=-blocks,
                                    skew=float(rng.uniform(0.0, 0.8)))
        kappa = contraction_bound(system)
        finals = []
        for s in range(n_starts):
            init = [rng.normal(size=system.block_dim(j))
                    for j in range(system.n_blocks)]
            nrm = system.sup_norm(init)
            init = [v / nrm for v in init]
            res = solve_fixed_point(system, init, tol=solve_tol)
            finals.append(res)
            if first_trace is None:
                first_trace = res
        worst_final = max(r.final_norm for r in finals)
        worst_factor = max(r.max_factor for r in finals)
        agree = max(
            max(float(np.linalg.norm(a - b)) for a, b in
                zip(r1.sequence, r2.sequence))
            for r1 in finals for r2 in finals)
        ok = (all(r.converged for r in finals) and worst_final <= 1e-10
              and worst_factor <= kappa * (1 + 1e-6) and agree <= 1e-10)
        findings += 0 if ok else 1
        rows.append([i, kappa, worst_final, worst_factor, agree, ok])
    write_csv(out / "series-fixedpoint.csv",
              ["system", "kappa", "final_norm", "max_factor",
               "pairwise_agreement", "pass"], rows)
    if first_trace is not None:
        first_trace.trace_to_csv(out / "series-fixedpoint-trace.csv")
    trunc = _truncation_convergence(blocks, dim_s, dim_u, sc.seed)
    _print(f"fixedpoint systems={n_sys} starts={n_starts} findings={findings} "
           f"truncation-diff={trunc['sup_diff']:.2e} "
           f"{'PASS' if findings == 0 else 'FAIL'}")
    return {"command": "fixedpoint", "systems": n_sys, "starts": n_starts,
            "blocks": blocks, "findings": findings,
            "truncation_check": trunc,
            "rows": [dict(zip(["system", "kappa", "final_norm", "max_factor",
                               "agreement", "pass"], r)) for r in rows]}, findings


def _truncation_convergence(m, dim_s, dim_u, seed):
    """Sup difference on the common window of (I-L)^{-1} w at widths m, 2m.

    With the dichotomic boundary rows the inverse is a one-sided chain sum
    per component, so for data supported inside the common window the
    difference is exactly zero (reported as evidence, not assumed).
    """
    from .blockseq import make_random_system, solve_linear_part
    rng = np.random.default_rng(seed + 1)
    wide = make_random_system(4 * m + 1, dim_s, dim_u, 0.5, seed=seed + 1,
                              i_start=-2 * m)
    narrow = make_random_system(2 * m + 1, dim_s, dim_u, 0.5, seed=seed + 1,
                                i_start=-m)
    # share the linear data on the common window
    narrow.bases_s = wide.bases_s[m:3 * m + 1]
    narrow.bases_u = wide.bases_u[m:3 * m + 1]
    narrow.A = wide.A[m:3 * m]
    narrow.D = wide.D[m:3 * m]
    narrow.meta.pop("_pinv_cache", None)
    w_narrow = [rng.normal(size=narrow.block_dim(j))
                for j in range(narrow.n_blocks)]
    w_wide = wide.zero()
    for j in range(narrow.n_blocks):
        w_wide[m + j] = w_narrow[j]
    v_wide = solve_linear_part(wide, w_wide)
    v_narrow = solve_linear_part(narrow, w_narrow)
    diff = max(float(np.linalg.norm(v_wide[m + j] - v_narrow[j]))
               for j in range(2 * m + 1))
    return {"m": m, "sup_diff": diff}


def _scan_config(sc, field):
    horizon = tuple(_numbers(sc, "horizon", 2, (-2.0, 2.0)))
    lattice = tuple(_numbers(sc, "lattice", 2, (9, 17), int))
    box = _sample_box(sc, field)
    burn = float(sc.options.get("burn", 0.0))
    if "points" in sc.options:
        vals = [float(v) for v in _listify(sc.options["points"])]
        d = field.dimension
        pts = [tuple(vals[i:i + d]) for i in range(0, len(vals), d)]
    else:
        n = int(sc.options.get("samples", 12))
        pts = [tuple(p) for p in sample_regular_points(
            field, box, n, seed=sc.seed, burn=burn, tol=sc.tol)]
    L = sc.options.get("lipschitz")
    return ScanConfig(
        field=field, base_points=tuple(pts),
        horizon=horizon,
        epsilons=tuple(float(v) for v in _listify(sc.options.get("epsilons", 0.01))),
        deltas=tuple(float(v) for v in _listify(sc.options.get("deltas", 0.05))),
        lattice=lattice,
        budget=int(sc.options.get("budget", 200)), seed=sc.seed,
        grid_n=int(sc.options.get("grid", 64)),
        arc_tol=float(sc.options.get("arc-tol", 1e-6)), tol=sc.tol,
        lipschitz=None if L is None else float(L))


def _run_expansive(sc, field, out):
    mode = str(sc.options.get("mode", "rescaled"))
    config = _scan_config(sc, field)
    if mode == "probe":
        probe = nonsingular_equivalence_probe(field, config)
        write_json(probe.to_json_dict(), out / "probe.json")
        n_viol = sum(len(r.witnesses) for r in probe.reports.values())
        for m, r in probe.reports.items():
            for i, w in enumerate(r.witnesses):
                save_witness(w, out / f"witness-{m}-{i:03d}.json")
        ok = probe.consistent
        _print(f"expansive probe speed_ratio={probe.speed_ratio:.3f} "
               f"consistent={probe.consistent} witnesses={n_viol} "
               f"{'PASS' if ok else 'FAIL'}")
        return {"command": "expansive", "mode": "probe",
                **probe.to_json_dict()}, 0 if ok else 1
    if mode not in MODES:
        raise ScenarioError(f"unknown scan mode {mode!r}")
    rep = expansiveness_scan(config, mode)
    for i, w in enumerate(rep.witnesses):
        save_witness(w, out / f"witness-{i:03d}.json")
    n_viol = sum(1 for v in rep.verdicts.values() if v == "violation")
    _print(f"expansive mode={mode} pairs={rep.n_pairs} "
           f"violations={n_viol} witnesses={len(rep.witnesses)}")
    return {"command": "expansive", **rep.to_json_dict()}, n_viol


def _run_constants(sc, field, out):
    box = _sample_box(sc, field)
    T = float(sc.options.get("t", 1.0))
    samples = int(sc.options.get("samples", 256))
    eps_list = [float(v) for v in _listify(sc.options.get("epsilons", 0.1))]
    L = estimate_lipschitz(field, box, samples, seed=sc.seed)
    c = estimate_speed_ratio_constant(field, box, seed=sc.seed)
    r0 = chart_radius(L)
    report = {
        "command": "constants", "L": L, "c": c, "r0": r0,
        "r1": section_radius(T, L), "T": T,
        "delta": {str(e): admissible_delta(e, L, c) for e in eps_list},
    }
    if T > r0:
        x0 = sample_regular_points(field, box, 1, seed=sc.seed, tol=sc.tol)[0]
        orbit = sample_orbit(field, x0, np.linspace(0.0, T, 8), tol=sc.tol)
        report["epsilon0"] = epsilon0_estimate(field, orbit, T, L=L, c=c,
                                               seed=sc.seed)
    _print(f"constants L={L:.4f} r0={r0:.5f} c={c:.5f}")
    return report, 0


_HANDLERS = {
    "flowbox": _run_flowbox,
    "poincare": _run_poincare,
    "shadow": _run_shadow,
    "split": _run_split,
    "fixedpoint": _run_fixedpoint,
    "expansive": _run_expansive,
    "constants": _run_constants,
}


def run_scenario(path, out=None, seed=None, tol=None) -> int:
    """Execute a scenario file; returns the process exit status."""
    try:
        sc = load_scenario(path)
        if out is not None:
            sc.out = out
        if seed is not None:
            sc.seed = seed
        if tol is not None:
            sc.tol = tol
        field = sc.build_field()
        out_dir = Path(sc.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        report, findings = _HANDLERS[sc.command](sc, field, out_dir)
        report["scenario"] = {
            "source": sc.source, "field": field.to_json_dict(),
            "command": sc.command, "seed": sc.seed, "tol": sc.tol,
            "findings": findings,
        }
        write_json(report, out_dir / "report.json")
        write_json({
            "timestamp": datetime.datetime.now(datetime.timezone.utc)
            .isoformat(),
            "version": __version__,
            "argv": list(sys.argv),
        }, out_dir / "run-meta.json")
        if findings:
            _print(f"{sc.command}: {findings} finding(s); reports in {out_dir}")
            return 1
        _print(f"{sc.command}: all checks passed; reports in {out_dir}")
        return 0
    except ScenarioError as exc:
        sys.stderr.write(f"scenario error: {exc}\n")
        return 2
    except FlowLabError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 2


def _cmd_replay(paths) -> int:
    status = 0
    for p in paths:
        try:
            res = replay_witness(p)
        except FlowLabError as exc:
            sys.stderr.write(f"replay error for {p}: {exc}\n")
            return 2
        _print(f"replay {p}: reproduced={res.reproduced} "
               f"sup={res.measured_sup:.6e}")
        if not res.reproduced:
            status = 1
    return status


def _cmd_list_fields() -> int:
    sigs = {
        "linear": "matrix a11 a12 ... (row-major square matrix)",
        "rotation": "(no parameters; planar)",
        "lorenz": "params sigma rho beta (all required)",
        "saddle_suspension": "params a b omega (defaults 1 1 1)",
    }
    for kind in sorted(FIELD_KINDS):
        _print(f"{kind}: {sigs.get(kind, '')}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="flowlab",
        description="Numerical laboratory for rescaled shadowing and "
                    "hyperbolicity diagnostics of smooth flows.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    p_run = sub.add_parser("run", help="execute a scenario file")
    p_run.add_argument("scenario")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--tol", type=float, default=None)
    p_replay = sub.add_parser("replay", help="re-verify witness files")
    p_replay.add_argument("witness", nargs="+")
    sub.add_parser("list-fields", help="print the builtin field registry")
    args = parser.parse_args(argv)
    if args.subcommand == "run":
        return run_scenario(args.scenario, out=args.out, seed=args.seed,
                            tol=args.tol)
    if args.subcommand == "replay":
        return _cmd_replay(args.witness)
    return _cmd_list_fields()


if __name__ == "__main__":
    sys.exit(main())
