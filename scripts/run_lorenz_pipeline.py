#!/usr/bin/env python3
"""End-to-end pipeline on the Lorenz attractor.

Steps: sample an orbit, estimate the dominated normal splitting, check the
rescaled contraction/expansion margins, rebalance the block norms, assemble
the sequence-space system through the cutoff-extended sectional maps, and
drive the fixed-point iteration to zero.

The certified section radii are astronomically small at the honest
Lorenz Lipschitz constant, so the assembly runs with working charts
(enforce_radius off); the report states all measured quantities.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from flowlab.blockseq import assemble_block_system, contraction_bound, \
    solve_fixed_point
from flowlab.fields import Box, estimate_lipschitz, flow_points, make_field, \
    sample_orbit
from flowlab.hyperbolic import (check_domination, estimate_normal_splitting,
                                flow_speed_cocycle, rebalance_sequence,
                                trivial_cocycle)
from flowlab.poincare import psi_from_flow
from flowlab.util import mininorm, opnorm, write_json


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--blocks", type=int, default=16)
    ap.add_argument("--t-block", type=float, default=0.5)
    ap.add_argument("--eta", type=float, default=0.97)
    ap.add_argument("--epsilon", type=float, default=2e-4)
    ap.add_argument("--burn", type=float, default=12.0)
    ap.add_argument("--tol", type=float, default=1e-10)
    ap.add_argument("--lip-samples", type=int, default=120)
    ap.add_argument("--chart-l", type=float, default=2.0,
                    help="working chart scale for the sectional maps "
                         "(the honest Lipschitz constant makes the section "
                         "radii astronomically small on Lorenz)")
    ap.add_argument("--out", default="out/lorenz-pipeline")
    args = ap.parse_args()

    field = make_field("lorenz", (10.0, 28.0, 8.0 / 3.0))
    t0 = time.monotonic()
    x0 = flow_points(field, np.array([1.0, 1.0, 1.0]), [args.burn], args.tol)[0]
    orbit = sample_orbit(field, x0, np.arange(args.blocks + 1) * args.t_block,
                         tol=args.tol)
    region = Box([-20, -25, 5], [20, 25, 48])
    L = estimate_lipschitz(field, region, 256, seed=1)
    print(f"orbit of {orbit.n_nodes} nodes, L = {L:.2f}")

    splitting = estimate_normal_splitting(field, orbit, dim_s=1,
                                          T_block=args.t_block, tol=args.tol,
                                          warmup=4)
    print(f"splitting on {splitting.orbit.n_nodes} nodes after warmup")
    dom = check_domination(field, splitting,
                           (trivial_cocycle(), flow_speed_cocycle()),
                           C=8.0, lam=0.05, T_grid=[args.t_block],
                           tol=args.tol)
    print(f"domination: {dom.domination_ok}  contraction: "
          f"{dom.contraction_ok}  rescaled expansion: {dom.expansion_ok}  "
          f"min angle: {dom.min_principal_angle:.3f}")

    n = splitting.orbit.n_nodes
    norms = []
    for j in range(n - 1):
        # psi_T from the splitting's carried step flow of node j
        amb = psi_from_flow(field, *splitting.node_flow(field, j, args.t_block,
                                                        args.tol))
        norms.append((opnorm(amb @ splitting.stable[j]),
                      mininorm(amb @ splitting.unstable[j])))
    rb = rebalance_sequence(norms, eta=args.eta, i_start=0)
    print(f"rebalanced: sup b = {rb.sup_b:.3f}")

    res = assemble_block_system(field, splitting, rb, args.t_block,
                                epsilon=args.epsilon, L=args.chart_l,
                                tol=args.tol, lip_samples=args.lip_samples,
                                enforce_radius=False, seed=2)
    kappa = contraction_bound(res.system)
    print(f"assembled: eta = {res.eta_measured:.4f}  alpha = "
          f"{res.alpha_measured:.4f}  max Lip(phi) = {max(res.lip_measured):.3e}  "
          f"xi required = {res.xi_required:.3e}  feasible = {res.feasible}  "
          f"kappa = {kappa:.4f}")

    report = {
        "L": L, "eta": res.eta_measured, "alpha": res.alpha_measured,
        "lip": res.lip_measured, "xi_required": res.xi_required,
        "feasible": res.feasible, "kappa": kappa,
        "domination": dom.to_json_dict(), "rebalance": rb.to_json_dict(),
    }
    if res.feasible and kappa < 1.0:
        rng = np.random.default_rng(3)
        init = [1e-4 * splitting.orbit.speeds[j] * rng.normal(size=3)
                for j in range(n)]
        fp = solve_fixed_point(res.system, init, tol=1e-11)
        print(f"fixed point: iterations = {fp.iterations}  final norm = "
              f"{fp.final_norm:.3e}  converged = {fp.converged}")
        report["fixed_point"] = {"iterations": fp.iterations,
                                 "final_norm": fp.final_norm,
                                 "converged": fp.converged}
    else:
        print("no contraction certificate at these parameters; "
              "see the report for the measured gap")
    write_json(report, Path(args.out) / "pipeline.json")
    print(f"report written to {args.out}/pipeline.json "
          f"({time.monotonic() - t0:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
