"""Self-tests of the benchmark harness (not of flowlab).

    python3 -m pytest perfbench/test_harness.py -q
"""

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def _spans():
    # job [0, 10] with children a [1, 5] and c [4.5, 7] (overlapping, so
    # the union is [1, 7]); a has child b [2, 3]; job 1 [10, 12] has one
    # more b [10.5, 11]
    return [
        ["bench.job", 0.0, 10.0, -1, 0],
        ["fields.a", 1.0, 5.0, 0, 0],
        ["fields.b", 2.0, 3.0, 1, 0],
        ["flowbox.c", 4.5, 7.0, 0, 0],
        ["bench.job", 10.0, 12.0, -1, 1],
        ["fields.b", 10.5, 11.0, 4, 1],
    ]


def test_self_time_of_nested_spans():
    assert tracing.self_times(_spans()) == pytest.approx(
        [4.0, 3.0, 1.0, 2.5, 1.5, 0.5])


def test_union_length_merges_overlaps():
    assert tracing.union_length([(0, 1), (0.5, 2), (3, 4)]) == 3.0
    assert tracing.union_length([]) == 0.0


def test_span_and_layer_tables():
    table = tracing.span_table(_spans())
    assert table["fields.b"] == {"calls": 2, "total_s": 1.5, "self_s": 1.5}
    assert table["bench.job"]["total_s"] == 12.0
    layers = tracing.layer_table(_spans())
    assert layers["fields"]["self_s"] == pytest.approx(4.5)
    assert layers["fields"]["share"] == pytest.approx(4.5 / 12.0)
    assert layers["bench"]["share"] == pytest.approx(5.5 / 12.0)


def test_descendants_per_call():
    spans = _spans()
    assert tracing.descendants_per_call(spans, "fields.a", "fields.b") == 1.0
    assert tracing.descendants_per_call(spans, "bench.job", "fields.b") == 1.0
    assert tracing.descendants_per_call(spans, "flowbox.c", "fields.b") == 0.0
    assert tracing.descendants_per_call(spans, "missing", "fields.b") == 0.0


def test_median_and_items_per_second():
    m = run.end_to_end_metrics([0.9, 1.5, 1.0], [3.0, 1.0, 2.0, 4.0],
                               [2, 1, 1, 1], 2048)
    assert m == {"setup_s": {"value": 1.0, "unit": "s"},
                 "job_s.p50": {"value": 2.5, "unit": "s"},
                 "items_per_s": {"value": (0.5 + 2 / 3) / 2, "unit": "1/s"},
                 "peak_rss_mb": {"value": 2.0, "unit": "MiB"}}
    with pytest.raises(ValueError):
        run.end_to_end_metrics([1.0], [], [], 0)


def _reference_summary(workload):
    ref = json.loads((HERE / "reference.json").read_text())
    return ref["workloads"][workload][0]


@pytest.mark.parametrize("workload", ["pipeline-lorenz", "charts-planar"])
def test_output_check_rejects_a_perturbed_scalar(workload):
    ref = _reference_summary(workload)
    same = copy.deepcopy(ref)
    assert checks.compare_summary(same, ref) == []
    for key in ref["scalars"]:
        near = copy.deepcopy(ref)
        near["scalars"][key] *= 1.0 + 1e-8
        assert checks.compare_summary(near, ref) == []
        far = copy.deepcopy(ref)
        far["scalars"][key] *= 1.01
        assert checks.compare_summary(far, ref), key


def test_output_check_rejects_a_changed_verdict():
    ref = _reference_summary("scan-lorenz")
    tampered = copy.deepcopy(ref)
    tampered["exact"]["verdicts"] = ["violation"]
    assert checks.compare_summary(tampered, ref)
    tampered = copy.deepcopy(ref)
    tampered["exact"]["budget_used"] += 1
    assert checks.compare_summary(tampered, ref)


def test_output_check_rejects_a_tampered_report():
    report = b'{"budget_used": 4, "verdicts": []}\n'
    assert checks.compare_reports(report, report) == []
    assert checks.compare_reports(report, report.replace(b"4", b"5"))


def test_tracer_wraps_every_namespace_and_restores_it():
    import flowlab.expansive
    import flowlab.fields
    orig = flowlab.fields.flow_points
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert flowlab.fields.flow_points is not orig
        assert flowlab.expansive.flow_points is flowlab.fields.flow_points
    finally:
        tracer.uninstall()
    assert flowlab.fields.flow_points is orig
    assert flowlab.expansive.flow_points is orig


def test_tracer_fails_loudly_on_a_missing_function(monkeypatch):
    import flowlab.fields
    orig = flowlab.fields.flow
    monkeypatch.setitem(tracing.LAYER_FUNCTIONS, "fields",
                        ("flow", "no_such_function"))
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError, match="no_such_function"):
        tracer.install()
    assert flowlab.fields.flow is orig


def test_benchmark_json_matches_the_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(tracing.PER_LAYER)
    import workloads
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
