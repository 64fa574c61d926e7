"""The benchmark's workloads: job inputs from a seed, job bodies, checks.

Every job calls flowlab through module attributes (``cli.run_scenario``,
``hyperbolic.check_domination``...), so that the tracer's wrappers see the
calls.  Job ``i`` of seed ``s`` draws its inputs from
``numpy.random.default_rng([s, i])`` and nothing else.

A job returns a JobResult: the items it completed (the unit of
``items_per_s``), the bytes of the report.json it wrote (compared across
repeats of the job) and a summary for the reference check.  Why each
workload exists is recorded in BENCHMARK.json and BASELINE.md.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import expm

from flowlab import blockseq, cli, fields, hyperbolic, poincare, util
from flowlab.errors import CrossingDetectionError

HERE = Path(__file__).resolve().parent
SCENARIOS = HERE / "scenarios"
LORENZ_PARAMS = (10.0, 28.0, 8.0 / 3.0)
#: Isolating boxes of acceptance check C5: around the origin and around
#: the equilibrium C+ of the Lorenz field.
C5_BOXES = (((-6.0, -6.0, -2.0), (6.0, 6.0, 12.0)),
            ((4.0, 4.0, 20.0), (13.0, 13.0, 34.0)))


@dataclass
class JobResult:
    items: int
    report: bytes
    summary: dict


def job_rng(seed, i):
    return np.random.default_rng([seed, i])


def job_seed(seed, i):
    return int(job_rng(seed, i).integers(2**31))


def _scenario_job(path, seed, out):
    status = cli.run_scenario(str(path), out=str(out), seed=seed)
    raw = (Path(out) / "report.json").read_bytes()
    return status, raw, json.loads(raw)


class Workload:
    name = ""
    #: What one unit of items_per_s is.
    item = ""
    #: Jobs in a traced run; fixed so that its counts repeat exactly.
    trace_jobs = 1

    def __init__(self, seed):
        self.seed = seed

    def run(self, i, out) -> JobResult:
        raise NotImplementedError

    def invariants(self, i, result):
        """Problems with a job's output that would be wrong for any seed."""
        return []

    def oracle(self, i):
        """Worst relative error against a closed form, or None."""
        return None


class ScanLorenz(Workload):
    name = "scan-lorenz"
    item = "candidate pair used (budget_used)"
    trace_jobs = 5

    def run(self, i, out):
        status, raw, rep = _scenario_job(SCENARIOS / "scan-lorenz.scn",
                                         job_seed(self.seed, i), out)
        summary = {"exact": {
            "status": status,
            "verdicts": [v["verdict"] for v in rep["verdicts"]],
            "budget_used": rep["budget_used"],
            "n_pairs": rep["n_pairs"],
            "witnesses": len(rep["witnesses"]),
        }, "scalars": {}}
        return JobResult(rep["budget_used"], raw, summary)

    def invariants(self, i, result):
        ex = result.summary["exact"]
        problems = []
        violated = "violation" in ex["verdicts"]
        if ex["status"] != (1 if violated else 0):
            problems.append(f"exit status {ex['status']} with verdicts "
                            f"{ex['verdicts']}")
        if ex["budget_used"] < 1:
            problems.append("the scan used no candidate pair")
        return problems


class ChartsPlanar(Workload):
    name = "charts-planar"
    item = "chart grid node verified"
    trace_jobs = 20
    #: Closed-form generators of the two planar linear flows.
    FIELDS = (("charts-saddle.scn", "linear", (1.0, 0.0, 0.0, -1.0),
               np.array([[1.0, 0.0], [0.0, -1.0]])),
              ("charts-rotation.scn", "rotation", (),
               np.array([[0.0, -1.0], [1.0, 0.0]])))
    #: The tol of both scenario files; the oracle holds the flows to it.
    TOL = 1e-10

    def __init__(self, seed):
        super().__init__(seed)
        self.fields = [fields.make_field(kind, params)
                       for _, kind, params, _ in self.FIELDS]

    def run(self, i, out):
        scn = self.FIELDS[i % 2][0]
        status, raw, rep = _scenario_job(SCENARIOS / scn,
                                         job_seed(self.seed, i), out)
        dim = len(rep["reports"][0]["base"])
        summary = {"exact": {
            "status": status,
            "bounds_ok": [r["bounds_ok"] for r in rep["reports"]],
        }, "scalars": {k: rep[k] for k in ("max_dev", "min_mininorm",
                                           "max_norm")}}
        return JobResult(rep["bases"] * rep["grid"] ** dim, raw, summary)

    def invariants(self, i, result):
        ex = result.summary["exact"]
        if ex["status"] == 0 and all(ex["bounds_ok"]):
            return []
        return [f"planar chart bounds failed: status {ex['status']}, "
                f"bounds_ok {ex['bounds_ok']}"]

    def oracle(self, i):
        """Flow, orbit sampling and batched flows against expm(A t).

        The batch mixes trajectories whose sizes differ by three decades, so
        an error norm shared across the stack shows up on the small ones.
        Errors are relative to max(|exact|, atol/rtol): below that size the
        solver's absolute error floor (fields.ivp_options) is the contract.
        """
        field = self.fields[i % 2]
        A = self.FIELDS[i % 2][3]
        rng = job_rng(self.seed, i)
        pts = rng.uniform(-1.5, 1.5, size=(6, 2))
        pts *= 10.0 ** rng.uniform(-3.0, 0.0, size=(6, 1))
        t = float(rng.uniform(0.2, 1.0) * rng.choice([-1.0, 1.0]))
        ts = np.sort(rng.uniform(-1.0, 1.0, size=4))
        tol = self.TOL
        opts = fields.ivp_options(tol)
        floor = opts["atol"] / opts["rtol"]

        def rel(got, want):
            return float(np.linalg.norm(got - want)
                         / max(np.linalg.norm(want), floor))

        E = expm(A * t)
        state, Phi = fields.flow(field, pts[0], t, tol)
        worst = max(rel(state, E @ pts[0]), rel(Phi, E))
        batch = fields.flow_states_batch(field, pts, t, tol)
        worst = max(worst, *(rel(b, E @ p) for b, p in zip(batch, pts)))
        tev = np.array([t / 3, 2 * t / 3, t])
        frames = fields.flow_states_batch(field, pts, t, tol, t_eval=tev)
        for frame, s in zip(frames, tev):
            Es = expm(A * s)
            worst = max(worst, *(rel(b, Es @ p) for b, p in zip(frame, pts)))
        for p in pts[:2]:
            orbit = fields.flow_points(field, p, ts, tol)
            worst = max(worst, *(rel(q, expm(A * s) @ p)
                                 for q, s in zip(orbit, ts)))
        return worst


def _lorenz_orbit(field, rng, blocks, tol):
    """Orbit of `blocks` steps of 0.5 from a seed-perturbed, burnt-in start."""
    start = np.array([1.0, 1.0, 1.0]) + rng.normal(scale=0.5, size=3)
    x0 = fields.flow_points(field, start, [12.0], tol)[0]
    return fields.sample_orbit(field, x0, np.arange(blocks + 1) * 0.5,
                               tol=tol)


def _margins(prefix, dom):
    return {f"{prefix}.{k}": getattr(dom, k) for k in (
        "worst_domination_margin", "worst_contraction_margin",
        "worst_expansion_margin")}


def _flags(dom):
    return [dom.domination_ok, dom.contraction_ok, dom.expansion_ok]


class PipelineLorenz(Workload):
    """The run_lorenz_pipeline.py chain, with domination checked under the
    flow-speed cocycle (as in the script) and under the C5 product of
    pragmatical cocycles (the hyperbolic solve_ivp call sites)."""

    name = "pipeline-lorenz"
    item = "assembled block"
    trace_jobs = 5
    TOL = 1e-10
    BLOCKS = 3
    WARMUP = 1
    T = 0.5

    def __init__(self, seed):
        super().__init__(seed)
        self.field = fields.make_field("lorenz", LORENZ_PARAMS)
        self.product = hyperbolic.CocycleSpec(
            kind="product", factors=tuple(
                hyperbolic.pragmatical_cocycle(fields.Box(np.array(lo),
                                                          np.array(hi)))
                for lo, hi in C5_BOXES))
        self.product.validate(self.field)

    def _domination(self, spl, report, exact, scalars):
        """Both cocycle legs, into the job's report and summary."""
        triv = hyperbolic.trivial_cocycle()
        for leg, h_u in (("flow_speed", hyperbolic.flow_speed_cocycle()),
                         ("pragmatical", self.product)):
            try:
                dom = hyperbolic.check_domination(
                    self.field, spl, (triv, h_u), C=8.0, lam=0.05,
                    T_grid=[self.T], tol=self.TOL)
            except CrossingDetectionError as exc:
                if leg == "flow_speed":
                    raise
                # the library declines orbits whose box crossings it cannot
                # bracket; the refusal is this leg's deterministic outcome
                report[leg] = {"refused": f"CrossingDetectionError: {exc}"}
                exact[leg] = "refused"
                continue
            report[leg] = dom.to_json_dict()
            exact[leg] = _flags(dom)
            scalars.update(_margins(leg, dom))

    def run(self, i, out):
        f, tol, T = self.field, self.TOL, self.T
        orbit = _lorenz_orbit(f, job_rng(self.seed, i), self.BLOCKS, tol)
        spl = hyperbolic.estimate_normal_splitting(
            f, orbit, dim_s=1, T_block=T, tol=tol, warmup=self.WARMUP)
        report, exact, scalars = {}, {}, {}
        self._domination(spl, report, exact, scalars)
        n = spl.orbit.n_nodes
        norms = []
        for j in range(n - 1):
            amb, _ = poincare.psi_ambient(f, spl.orbit.states[j], T, tol)
            norms.append((util.opnorm(amb @ spl.stable[j]),
                          util.mininorm(amb @ spl.unstable[j])))
        rb = hyperbolic.rebalance_sequence(norms, eta=0.97, i_start=0)
        # the sampling seeds stay fixed as in the script: the pattern of
        # sampled radii decides how many sectional maps a job evaluates
        res = blockseq.assemble_block_system(
            f, spl, rb, T, epsilon=2e-4, L=2.0, tol=tol, lip_samples=8,
            enforce_radius=False, seed=2)
        kappa = blockseq.contraction_bound(res.system)
        report.update({"eta": res.eta_measured, "alpha": res.alpha_measured,
                       "lip": res.lip_measured,
                       "xi_required": res.xi_required,
                       "feasible": res.feasible, "kappa": kappa,
                       "rebalance": rb.to_json_dict()})
        converged = None
        if res.feasible and kappa < 1.0:
            init_rng = np.random.default_rng(3)
            init = [1e-4 * spl.orbit.speeds[j] * init_rng.normal(size=3)
                    for j in range(n)]
            fp = blockseq.solve_fixed_point(res.system, init, tol=1e-11)
            converged = bool(fp.converged and fp.final_norm <= 1e-11)
            report["fixed_point"] = {"iterations": fp.iterations,
                                     "final_norm": fp.final_norm,
                                     "converged": fp.converged}
        util.write_json(report, Path(out) / "report.json")
        raw = (Path(out) / "report.json").read_bytes()
        exact.update({"feasible": res.feasible,
                      "kappa_below_1": bool(kappa < 1.0),
                      "converged": converged})
        scalars.update({"eta": res.eta_measured,
                        "alpha": res.alpha_measured, "kappa": kappa})
        return JobResult(res.system.n_blocks, raw,
                         {"exact": exact, "scalars": scalars})

    def invariants(self, i, result):
        ex = result.summary["exact"]
        if ex["feasible"] and ex["kappa_below_1"] and not ex["converged"]:
            return ["kappa < 1 but the fixed point did not converge"]
        return []


WORKLOADS = {w.name: w for w in (ScanLorenz, PipelineLorenz, ChartsPlanar)}
