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
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .blockseq import (LIP_SAMPLES, BlockSequenceSystem, certify_window,
                       contraction_bound, make_random_system,
                       solve_fixed_point, solve_linear_part)
from .errors import DomainError, EscapeError, FlowLabError, ScenarioError
from .expansive import (MODES, ScanConfig, epsilon0_estimate,
                        expansiveness_scan, nonsingular_equivalence_probe,
                        replay_witness)
from .fields import (Box, estimate_lipschitz, flow_points, sample_orbit,
                     sample_regular_points, FIELD_KINDS)
from .flowbox import chart_radius, make_chart, verify_box_bounds
from .hyperbolic import (check_domination, estimate_normal_splitting,
                         flow_speed_cocycle, trivial_cocycle)
from .poincare import linear_poincare, section_radius, sectional_poincare
from .reparam import (admissible_delta, drift_trials,
                      estimate_speed_ratio_constant, trials_to_csv)
from .scenario import load_scenario
from .util import write_csv, write_json


def _sample_box(sc, field):
    if "sample-box" not in sc.options:
        return field.domain
    vals = sc.numbers("sample-box", 2 * field.dimension)
    return Box(vals[0::2], vals[1::2])


def _print(line):
    sys.stdout.write(line + "\n")


# ---------------------------------------------------------------------------
# command handlers: each returns (report dict, findings count)


def _verified_charts(charts, grid, tol):
    """{index: report} of the charts whose grids stay in the domain: one
    stacked `verify_box_bounds`, run again without each chart that left."""
    live = list(range(len(charts)))
    while live:
        try:
            return dict(zip(live, verify_box_bounds(
                [charts[i] for i in live], grid, tol=tol)))
        except EscapeError as exc:
            del live[exc.row]
    return {}


def _run_flowbox(sc, field, out):
    box = _sample_box(sc, field)
    n_bases = sc.number("bases", 10, int)
    grid = sc.number("grid", 5, int)
    L = estimate_lipschitz(field, box, 256, seed=sc.seed)
    pts = sample_regular_points(field, box, n_bases, seed=sc.seed, tol=sc.tol)
    verified = _verified_charts([make_chart(field, p, L) for p in pts], grid,
                                sc.tol)
    findings = 0
    skipped = 0
    per_base = []
    rows = []
    for i, p in enumerate(pts):
        rep = verified.get(i)
        if rep is None:
            skipped += 1
            _print(f"flowbox base={np.round(p, 4).tolist()} SKIP "
                   f"(the chart grid leaves the domain)")
            continue
        per_base.append(rep.to_json_dict())
        rows.append([*p, rep.max_dev_from_id, rep.min_mininorm, rep.max_norm,
                     rep.bounds_ok])
        if not rep.bounds_ok:
            findings += 1
        _print(f"flowbox base={np.round(p, 4).tolist()} max_dev="
               f"{rep.max_dev_from_id:.4f} "
               f"{'PASS' if rep.bounds_ok else 'FAIL'}")
    if not per_base:
        raise DomainError(f"no base verified: the chart grids of all "
                          f"{skipped} bases leave the domain")
    write_csv(out / "series-flowbox.csv",
              [f"x_{i+1}" for i in range(field.dimension)]
              + ["max_dev", "min_mininorm", "max_norm", "bounds_ok"], rows)
    report = {"command": "flowbox", "L": L, "r0": chart_radius(L),
              "bases": len(per_base), "skipped_bases": skipped,
              "grid": grid, "reports": per_base,
              "max_dev": max(r["max_dev"] for r in per_base),
              "min_mininorm": min(r["min_mininorm"] for r in per_base),
              "max_norm": max(r["max_norm"] for r in per_base)}
    return report, findings


def _run_poincare(sc, field, out):
    box = _sample_box(sc, field)
    n_bases = sc.number("bases", 5, int)
    T = sc.number("t", 0.5)
    L = estimate_lipschitz(field, box, 256, seed=sc.seed)
    pts = sample_regular_points(field, box, n_bases, seed=sc.seed, tol=sc.tol)
    findings = 0
    entries = []
    rows = []
    for p in pts:
        sm = sectional_poincare(field, p, T, np.zeros(field.dimension), L,
                                tol=sc.tol, max_radius=np.inf)
        psi = linear_poincare(field, p, T, tol=sc.tol)
        M = psi.in_frames(sm.source, sm.target)
        err = float(np.linalg.norm(sm.derivative - M, 2)
                    / max(np.linalg.norm(M, 2), 1e-300))
        ok = err <= 1e-3
        findings += 0 if ok else 1
        entries.append({"base": p.tolist(), "rel_error": err, "pass": ok})
        rows.append([*p, err, ok])
        _print(f"poincare base={np.round(p, 4).tolist()} D0P-vs-psi rel err="
               f"{err:.2e} {'PASS' if ok else 'FAIL'}")
    write_csv(out / "series-poincare.csv",
              [f"x_{i+1}" for i in range(field.dimension)]
              + ["rel_error", "pass"], rows)
    return {"command": "poincare", "T": T, "L": L, "identity_tol": 1e-3,
            "entries": entries}, findings


def _run_shadow(sc, field, out):
    box = _sample_box(sc, field)
    pairs = sc.number("pairs", 20, int)
    epsilon = sc.number("epsilon", 0.3)
    t_factor = sc.number("t-factor", 1.0)
    L = estimate_lipschitz(field, box, 256, seed=sc.seed)
    T = t_factor * chart_radius(L)
    trials = drift_trials(field, box, epsilon, T, pairs, seed=sc.seed,
                          tol=sc.tol, L=L)
    trials_to_csv(trials, out / "series-shadow.csv")
    bad = [t for t in trials if not t.bound_ok]
    _print(f"shadow trials={len(trials)} violations={len(bad)} "
           f"{'PASS' if not bad else 'FAIL'}")
    return {"command": "shadow", "epsilon": epsilon, "T": T, "L": L,
            "delta": trials[0].delta if trials else None,
            "trials": len(trials), "violations": len(bad)}, len(bad)


def _split_window(sc, field, out):
    """(splitting, domination report) of a `split` or `pipeline` orbit."""
    start = np.asarray(sc.numbers("start", field.dimension))
    burn = sc.number("burn", 0.0)
    t_block = sc.number("t-block", 0.5)
    blocks = sc.number("blocks", 20, int)
    dim_s = sc.number("dim-s", 1, int)
    warmup = sc.number("warmup", 3, int)
    C = sc.number("c", 1.05)
    lam = sc.number("lambda", 0.1)
    t_grid = sc.numbers("t-grid", default=(t_block,))
    cocy = sc.word("cocycle-u", ("flow-speed", "trivial"), "flow-speed")
    h_u = flow_speed_cocycle() if cocy == "flow-speed" else trivial_cocycle()
    x0 = start
    if burn > 0:
        x0 = flow_points(field, start, [burn], sc.tol)[0]
    orbit = sample_orbit(field, x0, np.arange(blocks + 1) * t_block, tol=sc.tol)
    splitting = estimate_normal_splitting(field, orbit, dim_s, t_block,
                                          tol=sc.tol, warmup=warmup)
    rep = check_domination(field, splitting, (trivial_cocycle(), h_u), C, lam,
                           t_grid, tol=sc.tol)
    rep.to_csv(out / "series-split.csv")
    return splitting, rep


def _run_split(sc, field, out):
    splitting, rep = _split_window(sc, field, out)
    ok = rep.all_ok
    _print(f"split nodes={splitting.orbit.n_nodes} domination="
           f"{rep.domination_ok} contraction={rep.contraction_ok} "
           f"expansion={rep.expansion_ok} {'PASS' if ok else 'FAIL'}")
    return {"command": "split", **rep.to_json_dict()}, 0 if ok else 1


def _run_pipeline(sc, field, out):
    box = _sample_box(sc, field)
    splitting, dom = _split_window(sc, field, out)
    L = estimate_lipschitz(field, box, 256, seed=sc.seed)
    cert = certify_window(field, splitting, LIP_SAMPLES, sc.seed)
    res, fp = cert.assembly, cert.fixed_point
    ok = dom.all_ok and cert.certified
    _print(f"pipeline domination={dom.all_ok} feasible={res.feasible} kappa="
           f"{cert.kappa:.4f} {'PASS' if ok else 'FAIL'}")
    return {"command": "pipeline", "L": L, "eta": res.eta_measured,
            "alpha": res.alpha_measured, "lip": res.lip_measured,
            "xi_required": res.xi_required, "feasible": res.feasible,
            "kappa": cert.kappa, "domination": dom.to_json_dict(),
            "rebalance": cert.rebalance.to_json_dict(),
            "fixed_point": None if fp is None else {
                "iterations": fp.iterations, "final_norm": fp.final_norm,
                "converged": fp.converged}}, 0 if ok else 1


def _run_fixedpoint(sc, field, out):
    n_sys = sc.number("systems", 20, int)
    n_starts = sc.number("starts", 5, int)
    blocks = sc.number("blocks", 10, int)
    kappa_max = sc.number("kappa-max", 0.9)
    rng = np.random.default_rng(sc.seed)
    findings = 0
    rows = []
    first_trace = None
    for i in range(n_sys):
        kappa_t = float(rng.uniform(0.05, kappa_max))
        system = make_random_system(
            2 * blocks + 1, 1, 1, kappa_t, seed=int(rng.integers(2**31)),
            i_start=-blocks, skew=float(rng.uniform(0.0, 0.8)))
        kappa = contraction_bound(system)
        finals = []
        for s in range(n_starts):
            init = [rng.normal(size=system.block_dim(j))
                    for j in range(system.n_blocks)]
            nrm = system.sup_norm(init)
            init = [v / nrm for v in init]
            res = solve_fixed_point(system, init, tol=5e-11)
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
    trunc = _truncation_convergence(blocks, sc.seed)
    _print(f"fixedpoint systems={n_sys} starts={n_starts} findings={findings} "
           f"truncation-diff={trunc['sup_diff']:.2e} "
           f"{'PASS' if findings == 0 else 'FAIL'}")
    return {"command": "fixedpoint", "systems": n_sys, "starts": n_starts,
            "blocks": blocks, "findings": findings,
            "truncation_check": trunc,
            "rows": [dict(zip(["system", "kappa", "final_norm", "max_factor",
                               "agreement", "pass"], r)) for r in rows]}, findings


def _truncation_convergence(m, seed):
    """Sup difference on the common window of (I-L)^{-1} w at widths m, 2m.

    With the dichotomic boundary rows the inverse is a one-sided chain sum
    per component, so for data supported inside the common window the
    difference is exactly zero (reported as evidence, not assumed).
    """
    rng = np.random.default_rng(seed + 1)
    wide = make_random_system(4 * m + 1, 1, 1, 0.5, seed=seed + 1,
                              i_start=-2 * m)
    # the wide system's linear data on the common window
    narrow = BlockSequenceSystem(-m, wide.bases_s[m:3 * m + 1],
                                 wide.bases_u[m:3 * m + 1], wide.A[m:3 * m],
                                 wide.D[m:3 * m], wide.eta, wide.alpha, wide.xi)
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
    """The scan's configuration; every key is read, and the configuration
    validated, before a point is drawn."""
    config = ScanConfig(
        field=field, base_points=(), seed=sc.seed, tol=sc.tol,
        horizon=tuple(sc.numbers("horizon", 2, (-2.0, 2.0))),
        epsilons=tuple(sc.numbers("epsilons", default=(0.01,))),
        deltas=tuple(sc.numbers("deltas", default=(0.05,))),
        lattice=tuple(sc.numbers("lattice", 2, (9, 17), int)),
        budget=sc.number("budget", 200, int),
        grid_n=sc.number("grid", 64, int),
        lipschitz=sc.number("lipschitz", None))
    L = config.validate()
    if "points" in sc.options:
        for key in ("samples", "sample-box", "burn"):  # they draw points
            if key in sc.options:
                raise ScenarioError(f"{key} cannot be given with points")
        vals = sc.numbers("points")
        d = field.dimension
        if len(vals) % d:
            raise ScenarioError(
                f"points needs a multiple of {d} numbers, got {len(vals)}")
        pts = [tuple(vals[i:i + d]) for i in range(0, len(vals), d)]
    else:
        box = _sample_box(sc, field)
        burn = sc.number("burn", 0.0)
        n = sc.number("samples", 12, int)
        pts = [tuple(p) for p in sample_regular_points(
            field, box, n, seed=sc.seed, burn=burn, tol=sc.tol)]
    return replace(config, base_points=tuple(pts), lipschitz=L)


def _run_expansive(sc, field, out):
    mode = sc.word("mode", ("probe", *MODES), "rescaled")
    config = _scan_config(sc, field)
    if mode == "probe":
        probe = nonsingular_equivalence_probe(config)
        write_json(probe.to_json_dict(), out / "probe.json")
        n_viol = sum(len(r.witnesses) for r in probe.reports.values())
        for m, r in probe.reports.items():
            for i, w in enumerate(r.witnesses):
                write_json(w, out / f"witness-{m}-{i:03d}.json")
        ok = probe.consistent
        _print(f"expansive probe speed_ratio={probe.speed_ratio:.3f} "
               f"consistent={probe.consistent} witnesses={n_viol} "
               f"{'PASS' if ok else 'FAIL'}")
        return {"command": "expansive", "mode": "probe",
                **probe.to_json_dict()}, 0 if ok else 1
    rep = expansiveness_scan(config, mode)
    for i, w in enumerate(rep.witnesses):
        write_json(w, out / f"witness-{i:03d}.json")
    n_viol = sum(1 for v in rep.verdicts.values() if v == "violation")
    _print(f"expansive mode={mode} pairs={rep.n_pairs} "
           f"violations={n_viol} witnesses={len(rep.witnesses)}")
    return {"command": "expansive", **rep.to_json_dict()}, n_viol


def _run_constants(sc, field, out):
    box = _sample_box(sc, field)
    T = sc.number("t", 1.0)
    samples = sc.number("samples", 256, int)
    eps_list = sc.numbers("epsilons", default=(0.1,))
    L = estimate_lipschitz(field, box, samples, seed=sc.seed)
    c = estimate_speed_ratio_constant(field, box, seed=sc.seed)
    r0 = chart_radius(L)
    report = {
        "command": "constants", "L": L, "c": c, "r0": r0,
        "r1": section_radius(T, L), "T": T,
        "delta": {str(e): admissible_delta(e, L, c) for e in eps_list},
    }
    if T > r0:
        report["epsilon0"] = epsilon0_estimate(T, L, c)
    _print(f"constants L={L:.4f} r0={r0:.5f} c={c:.5f}")
    return report, 0


_HANDLERS = {
    "flowbox": _run_flowbox,
    "poincare": _run_poincare,
    "shadow": _run_shadow,
    "split": _run_split,
    "pipeline": _run_pipeline,
    "fixedpoint": _run_fixedpoint,
    "expansive": _run_expansive,
    "constants": _run_constants,
}


def run_scenario(path, out=None, seed=None, tol=None) -> int:
    """Execute a scenario file; returns the process exit status."""
    try:
        sc = load_scenario(path)
        for key, value in (("out", out), ("seed", seed), ("tol", tol)):
            if value is not None:  # a flag's token, typed like the file's
                sc.set_top(key, [str(value)])
        field = sc.build_field()
        out_dir = Path(sc.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        report, findings = _HANDLERS[sc.command](sc, field, out_dir)
        # relative to the working directory, so that the report does not
        # depend on where the checkout lives
        report["scenario"] = {
            "source": os.path.relpath(sc.source), "field": field.to_json_dict(),
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
    p_run.add_argument("--seed", default=None)
    p_run.add_argument("--tol", default=None)
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
