"""Tests of the benchmark's own arithmetic, tracing and correctness gates.

Run from the repository root: ``python3 -m pytest -q cvbench``.
"""

import json
import math
from dataclasses import replace
from pathlib import Path

import pytest

import cvmc.estimators
from cvbench import layers, metrics, run, speed, workloads
from cvbench.formulas import efficiency_vs_plain, pooled_time_to_target_se_s, time_to_target_se_s
from cvbench.spans import EntryPoint, Span, Tracer, self_time_by_name, self_times
from cvbench.workloads import (
    MULTI,
    PLAIN,
    SINGLE,
    TRIALS,
    WORKLOADS,
    Call,
    Op,
    Pass,
    check_reproducible,
    execute,
    gate_large,
    gate_oracle,
    gate_replications,
    oracle_calls,
)
from cvmc.estimators import EstimatorReport
from cvmc.oracle import EXACT_TOLERANCE, InequalityTrialSummary

ROOT = Path(__file__).resolve().parent.parent


def _report(estimate=1.0, se=0.01, runs=10_000, ratio=1.0, predicted=None, pilot=0):
    return EstimatorReport(
        estimate=estimate,
        standard_error=se,
        runs_used=runs,
        empirical_variance_ratio=ratio,
        predicted_variance_ratio=ratio if predicted is None else predicted,
        pilot_runs_used=pilot,
    )


def _op(label, report, key=(1, 10_000), error=None):
    return Op(label, key, 10_000, 1, 1.0, report, error)


# ------------------------------------------------------------ self time


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span(0, "outer", 0.0, 10.0, None, 0),
        Span(1, "child", 1.0, 3.0, 0, 0),
        Span(2, "grandchild", 1.5, 2.0, 1, 0),
        Span(3, "child", 4.0, 8.0, 0, 0),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 2.0 - 4.0)
    assert own[1] == pytest.approx(1.5)
    assert own[2] == pytest.approx(0.5)
    assert own[3] == pytest.approx(4.0)
    totals = self_time_by_name(spans)
    assert totals["child"] == pytest.approx(1.5 + 4.0)


def test_self_times_of_a_flat_trace_sum_to_the_covered_wall_time():
    spans = [Span(0, "a", 0.0, 2.0, None, 0), Span(1, "b", 0.5, 1.0, 0, 0), Span(2, "a", 3.0, 4.0, None, 1)]
    assert sum(self_times(spans).values()) == pytest.approx(3.0)


# -------------------------------------------------------------- tracing


def test_tracer_records_nested_layer_spans_and_restores_the_originals():
    original = cvmc.estimators.plain_estimate
    tracer = Tracer(layers.ENTRY_POINTS)
    model = cvmc.MarketModel(100.0, 0.05, 0.2)
    spec = cvmc.ContractSpec("asian_fixed_strike", 5, 100.0)
    tracer.install()
    try:
        tracer.call = 7
        cvmc.estimators.plain_estimate(model, spec, 100, seed=1, batch_size=40)
    finally:
        tracer.uninstall()
    assert cvmc.estimators.plain_estimate is original
    assert not tracer.absent
    names = [span.name for span in tracer.spans]
    assert names[0] == "estimators.plain"
    assert names.count("model.stream") == 3
    assert all(span.parent == 0 and span.call == 7 for span in tracer.spans[1:])
    assert tracer.counters["model.normals"] == 500
    assert tracer.counters["estimators.moment_rows"] == 100
    assert tracer.counters["estimators.moment_madds"] == 100


def test_missing_entry_point_is_reported_absent_not_zero():
    tracer = Tracer([EntryPoint("cvmc.model:LogReturnSampler.no_such_method", "model.stream")])
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == {"model.stream"}
    reported = layers.layer_metrics([Pass(ops=[], seconds=1.0)], tracer.absent)
    assert reported["model.stream_s"] == {"value": None, "unit": "s", "absent": True}
    assert reported["model.prices_s"]["value"] == 0.0


# ------------------------------------------------------------- formulas


def test_time_to_target_scales_with_squared_standard_error():
    assert time_to_target_se_s(2.0, 0.003) == pytest.approx(18.0)
    assert time_to_target_se_s(2.0, 0.001) == pytest.approx(2.0)


def test_pooled_time_to_target_is_the_single_call_formula_on_one_call():
    one = _report(se=0.003, runs=9_000, pilot=1_000)
    assert pooled_time_to_target_se_s([(2.0, one)]) == pytest.approx(time_to_target_se_s(2.0, 0.003))
    assert pooled_time_to_target_se_s([]) is None


def test_pooled_time_to_target_weights_calls_by_their_paths():
    # Per-path variance 1 on 9000 paths and 4 on 1000: pooled 1.3.
    big = _report(se=math.sqrt(1 / 9_000), runs=9_000)
    small = _report(se=math.sqrt(4 / 1_000), runs=1_000)
    # 1.1 s over 10000 paths, 1.3 per path, target SE 0.001.
    assert pooled_time_to_target_se_s([(1.0, big), (0.1, small)]) == pytest.approx(1.1e-4 * 1.3 / 1e-6)


def test_efficiency_charges_pilot_paths_to_the_control_variate():
    plain = _report(se=0.01, runs=10_000)  # var Y = 1
    cv = _report(se=math.sqrt(0.25 / 9_000), runs=9_000, pilot=1_000)  # var W = 0.25
    # (1 * 1 s / 1e4 paths) / (0.25 * 2 s / 1e4 paths)
    assert efficiency_vs_plain(plain, 1.0, cv, 2.0) == pytest.approx(2.0)
    assert efficiency_vs_plain(plain, 1.0, plain, 1.0) == pytest.approx(1.0)


def test_median_over_run_counts_ignores_how_many_small_calls_survive():
    few = [(100, 1.0)] * 2 + [(1000, 10.0)] * 5 + [(4000, 40.0)] * 5
    many = [(100, 1.0)] * 5 + [(1000, 10.0)] * 5 + [(4000, 40.0)] * 5
    assert metrics.median_over_run_counts(few) == metrics.median_over_run_counts(many) == 10.0
    assert metrics.median_over_run_counts([(5, 1.0), (5, 3.0), (5, 2.0)]) == 2.0


# ---------------------------------------------------------------- gates


def _large_pass():
    return [
        _op(PLAIN, _report()),
        _op(SINGLE, _report(ratio=0.43)),
        _op(MULTI, _report(ratio=0.26, predicted=0.25)),
    ]


def test_gate_accepts_a_sound_pass():
    ops = _large_pass()
    assert gate_large(ops) == []
    assert all(op.ok for op in ops)


@pytest.mark.parametrize(
    "doctored",
    [
        _report(estimate=math.nan, ratio=0.26),
        _report(ratio=1.2),
        _report(ratio=0.26, predicted=0.4),
        _report(ratio=0.5),  # multi worse than single
    ],
    ids=["nan-estimate", "ratio-above-one", "prediction-disagrees", "dominance"],
)
def test_gate_rejects_a_doctored_estimate(doctored):
    ops = _large_pass()
    ops[2].result = doctored
    failures = gate_large(ops)
    assert failures
    assert not ops[2].ok


GUARD = "ValueError: predicted variance ratio 1.3 falls outside [-0.05, 1.05]; the control moments look inconsistent"


def test_gate_rejects_a_refusal_on_large_runs():
    ops = _large_pass()
    ops[2] = _op(MULTI, None, error=GUARD)
    assert gate_large(ops)
    assert ops[2].failed_units == 1


def _replication_ops():
    ops = []
    for seed in range(20):
        ops.append(_op(PLAIN, _report(estimate=1.0 + 0.01 * (seed % 3)), key=(seed, 100)))
        ops.append(_op(MULTI, _report(estimate=1.0 + 0.01 * (seed % 2), ratio=0.3), key=(seed, 100)))
    return ops


def test_replication_guard_refusals_at_small_runs_are_refusals_not_failures():
    ops = _replication_ops() + [_op(PLAIN, _report(), key=(99, 100)), _op(MULTI, None, key=(99, 100), error=GUARD)]
    assert gate_replications(ops) == []
    assert sum(op.failed_units for op in ops) == 0
    assert [op.key for op in ops if op.refused] == [(99, 100)]


@pytest.mark.parametrize(
    "label, error",
    [
        (MULTI, "ValueError: runs must be >= 4 for a control-variate estimate, got 2"),
        (MULTI, "LinAlgError: Singular matrix"),
        (PLAIN, GUARD),
        (MULTI, GUARD),
    ],
    ids=["foreign-message", "foreign-type", "plain-call", "guard-at-large-runs"],
)
def test_replication_gate_rejects_any_other_refusal(label, error):
    runs = 1000 if error == GUARD and label == MULTI else 100
    ops = _replication_ops() + [_op(label, None, key=(99, runs), error=error)]
    assert gate_replications(ops)
    assert ops[-1].failed_units == 1 and not ops[-1].refused


def test_execute_records_any_exception_with_its_type():
    def boom():
        raise ZeroDivisionError("no")

    op = execute(Call(MULTI, (1, 100), 100, 1, boom))
    assert op.error == "ZeroDivisionError: no"
    assert op.failed_units == 0  # the gate decides
    assert gate_large([op]) and op.failed_units == 1


def test_replication_gate_rejects_a_biased_control_variate():
    ops = []
    for seed in range(20):
        ops.append(_op(PLAIN, _report(estimate=1.0 + 0.01 * (seed % 3)), key=(seed, 100)))
        ops.append(_op(MULTI, _report(estimate=1.5 + 0.01 * (seed % 2)), key=(seed, 100)))
    assert gate_replications(ops)


def test_oracle_batch_of_a_pass_clears_its_gate():
    ops = [execute(call) for call in oracle_calls("short_paths", 1)]
    assert [op.label for op in ops] == [TRIALS, "identity"]
    assert gate_oracle(ops) == []
    assert sum(op.units for op in ops) == 350


def test_oracle_gate_rejects_a_violation():
    sound = Op(TRIALS, (1,), 0, 10, 0.1, InequalityTrialSummary(10, 10, -0.2))
    assert gate_oracle([sound]) == []
    violated = Op(TRIALS, (1,), 0, 10, 0.1, InequalityTrialSummary(10, 9, 0.01))
    assert gate_oracle([violated])
    assert violated.failed_units == 1
    slack = Op(TRIALS, (1,), 0, 10, 0.1, InequalityTrialSummary(10, 10, 10 * EXACT_TOLERANCE))
    assert gate_oracle([slack])


def test_a_pass_gives_each_call_the_speed_probes_around_it(tmp_path, monkeypatch):
    probes = iter([0.04, 0.06, 0.08])
    monkeypatch.setattr(workloads.speed, "probe", lambda: next(probes))
    monkeypatch.setattr(workloads.speed, "PROBE_INTERVAL_S", 0.0)
    monkeypatch.setattr(workloads, "oracle_calls", lambda name, seed: [])
    workload = replace(
        WORKLOADS["short_paths"],
        calls=lambda scenario, seed: [Call(PLAIN, (seed, 1), 1, 1, lambda: None) for seed in (1, 2)],
    )
    path = tmp_path / "scenario.yaml"
    path.write_text(workload.scenario_yaml(1))
    one = workload.run_pass(path, 1)
    assert [op.probe_s for op in one.ops] == pytest.approx([0.05, 0.07])
    assert one.probe_s == pytest.approx(0.06)
    # Seconds at reference speed: twice the nominal probe time halves them.
    op = Op(PLAIN, (1, 1), 1, 1, 1.0, probe_s=2 * speed.NOMINAL_S)
    assert op.reference_seconds == pytest.approx(0.5)


def test_reproducibility_check_compares_bits_not_timings():
    first = Pass(ops=_large_pass(), seconds=3.0)
    second = Pass(ops=_large_pass(), seconds=4.0)
    for op in second.ops:
        op.seconds *= 2
    assert check_reproducible([first, second]) == []
    second.ops[0].result = _report(estimate=math.nextafter(1.0, 2.0))
    assert check_reproducible([first, second])


# ------------------------------------------------------------- the run


def _doctored_run():
    """Two passes of short_paths whose cv-multi call returns a NaN estimate."""
    passes = []
    for _ in range(2):
        ops = _large_pass()
        ops[2].result = _report(estimate=math.nan, ratio=0.26, predicted=0.25)
        passes.append(Pass(ops=ops, seconds=3.5))
    return passes


def test_a_failed_gate_still_yields_a_result_marked_incorrect(capsys):
    summary = metrics.summarise(WORKLOADS["short_paths"], _doctored_run(), [], 1.0, 100.0)
    assert not summary["correct"]
    assert summary["failed"] == 2
    figures = summary["end_to_end"]
    assert figures["time_to_target_se_s"]["value"] is None
    assert figures["efficiency_vs_plain"]["value"] is None
    assert figures["wall_s"]["value"] == pytest.approx(3.5)

    run.emit({"provenance": {"workload": "short_paths"}, "why": "test", "trace": 0, **summary})
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("  FAILED cv-multi") for line in lines)
    last = json.loads(lines[-1])
    assert (last["correct"], last["attempted"], last["failed"]) == (False, 6, 2)
    assert set(last["metrics"]) == set(metrics.END_TO_END)


# ------------------------------------------------------ BENCHMARK.json


def test_benchmark_json_names_the_metrics_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [m["unit"] for m in spec["end_to_end"]] == list(metrics.END_TO_END.values())
    per_layer = {**{k: v[0] for k, v in layers.LAYER_METRICS.items()}, "trace.overhead_pct": "%"}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer
    listed = {w["name"]: w["why"] for w in spec["workloads"]}
    assert listed == {name: w.why for name, w in WORKLOADS.items()}
