"""Outside-in tracing of flowlab's layers for the benchmark.

The tracer replaces named public functions of flowlab with wrappers that
record a span (name, start, end, parent span, job id) per call.  A function
is replaced in every flowlab module namespace that holds it, so calls made
from inside the library (``expansive`` calling ``flow_points``) are traced
as well.  Spans stay in memory until the run writes them out.

Counts that do not depend on the machine are taken at the same boundaries:
right-hand-side evaluations (``nfev`` of every ``solve_ivp`` result), solver
calls, escapes, and failures of the wrapped calls.
"""

from __future__ import annotations

import collections
import functools
import importlib
import sys
import time

#: Public functions traced per layer (module of flowlab).  A missing name is
#: an error, so that an API change cannot silently empty a layer.
LAYER_FUNCTIONS = {
    "fields": ("flow", "flow_points", "flow_states_batch"),
    "flowbox": ("verify_box_bounds", "flowbox_invert"),
    "poincare": ("sectional_poincare", "linear_poincare", "psi_ambient"),
    "reparam": ("fit_reparametrization", "lattice_bottleneck"),
    "hyperbolic": ("estimate_normal_splitting", "check_domination",
                   "evaluate_cocycle"),
    "blockseq": ("assemble_block_system", "solve_fixed_point"),
    "expansive": ("expansiveness_scan",),
    "cli": ("run_scenario",),
}

#: Namespaces whose ``solve_ivp`` name is wrapped (the integrator call sites).
SOLVER_NAMESPACES = ("fields", "hyperbolic")

#: Root span of one benchmark job; its self time is the untraced part.
JOB_SPAN = "bench.job"

_FIELDS_INTEGRATORS = ("fields.flow", "fields.flow_points",
                       "fields.flow_states_batch")


class Tracer:
    """Span recorder plus counters; install() patches flowlab in place."""

    def __init__(self):
        self.spans = []            # [name, start, end, parent index, job id]
        self.counters = collections.Counter()
        self.job = None
        self._stack = []
        self._patches = []

    # -- spans -------------------------------------------------------------

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.job])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError("spans closed out of order")

    def run_job(self, job_id, fn, *args):
        """Call fn(*args) traced, under a root job span."""
        self.install()
        self.job = job_id
        idx = self.open(JOB_SPAN)
        try:
            return fn(*args)
        finally:
            self.close(idx)
            self.job = None
            self.uninstall()

    def wrap(self, fn, name, on_result=None, on_error=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.counters[name + ".fail"] += 1
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                self.close(idx)
            if on_result is not None:
                on_result(result)
            return result
        return traced

    # -- patching ----------------------------------------------------------

    def install(self):
        """Wrap every function of LAYER_FUNCTIONS and the solver names."""
        from flowlab.errors import (CrossingDetectionError, EscapeError,
                                    StiffnessError)

        def count_escape(exc):
            # counted once, by the innermost fields call it passes through
            if (isinstance(exc, (EscapeError, StiffnessError))
                    and not getattr(exc, "_bench_counted", False)):
                self.counters["fields.escapes"] += 1
                exc._bench_counted = True

        def count_crossing(exc):
            if isinstance(exc, CrossingDetectionError):
                self.counters["hyperbolic.crossing_refusals"] += 1

        def count_nfev(res):
            self.counters["fields.rhs_evals"] += int(res.nfev)

        def add(key, attr):
            def hook(res):
                self.counters[key] += int(getattr(res, attr))
            return hook

        hooks = {
            "expansive.expansiveness_scan":
                {"on_result": add("expansive.pairs_used", "budget_used")},
            "blockseq.solve_fixed_point":
                {"on_result": add("blockseq.solve_fixed_point.iterations",
                                  "iterations")},
            "hyperbolic.check_domination": {"on_error": count_crossing},
        }
        for name in _FIELDS_INTEGRATORS:
            hooks[name] = {"on_error": count_escape}

        importlib.import_module("flowlab")
        for layer in LAYER_FUNCTIONS:
            importlib.import_module(f"flowlab.{layer}")
        modules = [sys.modules[n] for n in sorted(sys.modules)
                   if n == "flowlab" or n.startswith("flowlab.")]
        try:
            for layer, names in LAYER_FUNCTIONS.items():
                home = sys.modules[f"flowlab.{layer}"]
                for fname in names:
                    orig = _required(home, fname)
                    span = f"{layer}.{fname}"
                    wrapper = self.wrap(orig, span, **hooks.get(span, {}))
                    for mod in modules:
                        if mod.__dict__.get(fname) is orig:
                            self._patch(mod, fname, wrapper)
            for ns in SOLVER_NAMESPACES:
                mod = sys.modules[f"flowlab.{ns}"]
                orig = _required(mod, "solve_ivp")
                self._patch(mod, "solve_ivp",
                            self.wrap(orig, f"{ns}.solve_ivp",
                                      on_result=count_nfev))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        while self._patches:
            mod, name, orig = self._patches.pop()
            setattr(mod, name, orig)

    def _patch(self, mod, name, value):
        self._patches.append((mod, name, getattr(mod, name)))
        setattr(mod, name, value)


def _required(mod, name):
    fn = getattr(mod, name, None)
    if not callable(fn):
        raise RuntimeError(f"{mod.__name__}.{name} is missing; the benchmark "
                           "cannot trace this layer")
    return fn


# ---------------------------------------------------------------------------
# span arithmetic


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Per span: duration minus the part of it that its child spans cover."""
    children = collections.defaultdict(list)
    for name, start, end, parent, _job in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (_name, start, end, _parent, _job) in enumerate(spans):
        covered = union_length([(max(lo, start), min(hi, end))
                                for lo, hi in children.get(idx, ())
                                if hi > start and lo < end])
        out.append((end - start) - covered)
    return out


def span_table(spans):
    """{name: {"calls", "total_s", "self_s"}} over all spans."""
    selfs = self_times(spans)
    table = {}
    for (name, start, end, _p, _j), own in zip(spans, selfs):
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0,
                                      "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += own
    return table


def descendants_per_call(spans, ancestor, name):
    """Mean number of `name` spans below each `ancestor` span."""
    calls = sum(1 for s in spans if s[0] == ancestor)
    if calls == 0:
        return 0.0
    count = 0
    for s in spans:
        if s[0] != name:
            continue
        p = s[3]
        while p >= 0:
            if spans[p][0] == ancestor:
                count += 1
                break
            p = spans[p][3]
    return count / calls


def layer_table(spans):
    """{layer: {"calls", "self_s", "share"}}: self time summed per module,
    as a share of the job wall time (the `bench` layer is the untraced
    remainder of each job)."""
    table = span_table(spans)
    job_wall = table.get(JOB_SPAN, {}).get("total_s", 0.0)
    layers = {}
    for name, row in table.items():
        layer = name.split(".", 1)[0]
        agg = layers.setdefault(layer, {"calls": 0, "self_s": 0.0})
        agg["calls"] += row["calls"]
        agg["self_s"] += row["self_s"]
    for agg in layers.values():
        agg["share"] = agg["self_s"] / job_wall if job_wall > 0 else 0.0
    return layers


# ---------------------------------------------------------------------------
# per-layer metrics of a traced run

#: (metric, unit) printed by a traced run, in BENCHMARK.json order.  Names
#: ending in .calls/.self_s/.total_s/.flows_per_call come from the spans;
#: the others are counters or values the run supplies.
PER_LAYER = (
    ("fields.flow_points.calls", "count"),
    ("fields.flow_points.self_s", "s"),
    ("fields.rhs_evals", "count"),
    ("fields.solve_ivp.calls", "count"),
    ("fields.solve_ivp.self_s", "s"),
    ("hyperbolic.solve_ivp.calls", "count"),
    ("hyperbolic.solve_ivp.self_s", "s"),
    ("fields.flow.calls", "count"),
    ("fields.flow.self_s", "s"),
    ("fields.flow.total_s", "s"),
    ("fields.flow_states_batch.calls", "count"),
    ("fields.flow_states_batch.self_s", "s"),
    ("fields.oracle_rel_err", "ratio"),
    ("fields.escapes", "count"),
    ("flowbox.verify_box_bounds.calls", "count"),
    ("flowbox.verify_box_bounds.self_s", "s"),
    ("flowbox.flowbox_invert.calls", "count"),
    ("flowbox.flowbox_invert.self_s", "s"),
    ("flowbox.flowbox_invert.fail", "count"),
    ("flowbox.flowbox_invert.flows_per_call", "count"),
    ("poincare.sectional_poincare.calls", "count"),
    ("poincare.sectional_poincare.self_s", "s"),
    ("poincare.sectional_poincare.total_s", "s"),
    ("poincare.sectional_poincare.flows_per_call", "count"),
    ("poincare.linear_poincare.total_s", "s"),
    ("poincare.psi_ambient.total_s", "s"),
    ("reparam.fit_reparametrization.calls", "count"),
    ("reparam.fit_reparametrization.self_s", "s"),
    ("reparam.fit_reparametrization.fail", "count"),
    ("reparam.lattice_bottleneck.self_s", "s"),
    ("hyperbolic.estimate_normal_splitting.total_s", "s"),
    ("hyperbolic.check_domination.total_s", "s"),
    ("hyperbolic.evaluate_cocycle.calls", "count"),
    ("hyperbolic.evaluate_cocycle.self_s", "s"),
    ("hyperbolic.crossing_refusals", "count"),
    ("blockseq.assemble_block_system.total_s", "s"),
    ("blockseq.assemble_block_system.self_s", "s"),
    ("blockseq.solve_fixed_point.total_s", "s"),
    ("blockseq.solve_fixed_point.iterations", "count"),
    ("expansive.expansiveness_scan.total_s", "s"),
    ("expansive.expansiveness_scan.self_s", "s"),
    ("expansive.pairs_used", "count"),
    ("expansive.fit_ok_ratio", "ratio"),
    ("cli.run_scenario.self_s", "s"),
    ("trace.jobs", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("repo.src_lines", "count"),
)

_SPAN_STATS = ("calls", "self_s", "total_s")


def per_layer_metrics(tracer, supplied):
    """{metric: {"value", "unit"}} for PER_LAYER; `supplied` holds the values
    that do not come from spans or counters."""
    table = span_table(tracer.spans)
    job = table.get(JOB_SPAN, {"total_s": 0.0, "self_s": 0.0})
    fits = table.get("reparam.fit_reparametrization", {}).get("calls", 0)
    derived = {
        "trace.coverage": (1.0 - job["self_s"] / job["total_s"]
                           if job["total_s"] > 0 else 0.0),
        "expansive.fit_ok_ratio": (
            1.0 - tracer.counters["reparam.fit_reparametrization.fail"] / fits
            if fits else 0.0),
    }
    out = {}
    for metric, unit in PER_LAYER:
        span, _, stat = metric.rpartition(".")
        if metric in supplied:
            value = supplied[metric]
        elif metric in derived:
            value = derived[metric]
        elif stat in _SPAN_STATS:
            value = table.get(span, {}).get(stat, 0)
        elif stat == "flows_per_call":
            value = descendants_per_call(tracer.spans, span, "fields.flow")
        else:
            value = tracer.counters[metric]
        out[metric] = {"value": value, "unit": unit}
    return out
