"""The figures of a run: its gate verdict, the end-to-end metrics of its
untraced passes and the per-layer metrics of its traced ones."""

from __future__ import annotations

import statistics
from collections import Counter
from dataclasses import replace

from . import layers, speed
from .formulas import efficiency_vs_plain, median, pooled_time_to_target_se_s
from .workloads import ESTIMATOR_LABELS, MULTI, check_reproducible, paired

# name -> unit; the end-to-end metrics, in the order BENCHMARK.json lists them.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "paths_per_s": "1/s",
    "estimates_per_s": "1/s",
    "time_to_target_se_s": "s",
    "efficiency_vs_plain": "ratio",
    "estimate_ms_p50": "ms",
    "peak_rss_mb": "MB",
}


def call_medians(passes):
    """One operation per call of the workload, timed at reference speed
    (see ``speed``) by its median over the passes.

    Every pass makes the same calls in the same order, so the median of
    each call filters short bursts of interference on a shared machine
    better than the median of whole passes. The second value is the
    median time a pass spends outside its calls (loading the scenario).
    """
    calls = [
        replace(ops[0], seconds=median(op.reference_seconds for op in ops), probe_s=speed.NOMINAL_S)
        for ops in zip(*(p.ops for p in passes))
    ]
    outside = median(
        speed.at_reference_speed(p.seconds - sum(op.seconds for op in p.ops), p.probe_s) for p in passes
    )
    return calls, outside


def pass_wall(passes) -> float:
    """Wall time of one pass at reference speed, from the per-call medians."""
    calls, outside = call_medians(passes)
    return sum(op.seconds for op in calls) + outside


def median_over_run_counts(items) -> float | None:
    """Median over run counts of the median within each run count.

    ``items`` are (runs, value). On a workload with one run count this is
    the plain median. On a grid of run counts, a pooled median would land
    wherever the refusals at small R put the boundary between two run
    counts; the median of per-run-count medians stays in the middle.
    None when there are no items: every call the figure reads failed.
    """
    groups: dict[int, list[float]] = {}
    for runs, value in items:
        groups.setdefault(runs, []).append(value)
    if not groups:
        return None
    return median(median(values) for values in groups.values())


def end_to_end(passes, setup_s: float, peak_rss_mb: float) -> dict:
    calls, _ = call_medians(passes)
    wall = pass_wall(passes)
    # The oracle batch that closes each pass counts in wall_s only.
    estimator_wall = wall - sum(op.seconds for op in calls if op.label not in ESTIMATOR_LABELS)
    ok_calls = [op for op in calls if op.ok and op.label in ESTIMATOR_LABELS]
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "paths_per_s": sum(op.paths for op in calls) / estimator_wall,
        "estimates_per_s": len(ok_calls) / estimator_wall,
        "time_to_target_se_s": pooled_time_to_target_se_s(
            (op.seconds, op.result) for op in ok_calls if op.label == MULTI
        ),
        # Each pair is timed within one pass, where plain and cv-multi run
        # back to back, so slow drift of the machine's speed cancels in raw
        # seconds; rescaling each side by its own probes would add noise.
        "efficiency_vs_plain": median_over_run_counts(
            (cv.key[1], efficiency_vs_plain(p.result, p.seconds, cv.result, cv.seconds))
            for one in passes
            for p, cv in paired(one.ops)
        ),
        "estimate_ms_p50": median_over_run_counts((op.key[1], op.seconds * 1e3) for op in ok_calls),
        "peak_rss_mb": peak_rss_mb,
    }


def summarise(workload, untraced, traced, setup_s: float, peak_rss_mb: float, absent=frozenset()) -> dict:
    """Gate every pass, then compute the metrics of the run.

    The gates run first because they mark failed operations, which the
    metrics leave out. A figure with no successful call left is None.
    """
    everything = untraced + traced
    failures = [message for one in everything for message in workload.check(one.ops)]
    failures += check_reproducible(everything)
    ops = [op for one in everything for op in one.ops]
    attempted = sum(op.units for op in ops)
    failed = sum(op.failed_units for op in ops)

    values = end_to_end(untraced, setup_s, peak_rss_mb)
    report = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    calls, _ = call_medians(untraced)
    latencies = [op.seconds * 1e3 for op in calls if op.ok and op.label in ESTIMATOR_LABELS]
    notes = {
        "pass_seconds": [round(p.seconds, 4) for p in untraced],
        "traced_pass_seconds": [round(p.seconds, 4) for p in traced],
        "probe_ms_by_pass": [round(p.probe_s * 1e3, 2) for p in untraced],
        "failed_fraction": failed / attempted,
        "refused_fraction": sum(op.units for op in ops if op.refused) / attempted,
        "estimate_ms_p90": (
            statistics.quantiles(latencies, n=10, method="inclusive")[-1] if len(latencies) >= 2 else None
        ),
        "latency_samples": f"{len(latencies)} calls, each the median of {len(untraced)} passes",
        "refusals_by_runs": dict(
            sorted(Counter(op.key[1] for op in ops if op.refused).items())
        ),
    }

    per_layer = {}
    if traced:
        per_layer = layers.layer_metrics(traced, absent)
        per_layer["trace.overhead_pct"] = {
            "value": 100.0 * (pass_wall(traced) / pass_wall(untraced) - 1.0),
            "unit": "%",
        }
        notes["trace_unattributed_pct"] = 100.0 * median(layers.unattributed_share(p) for p in traced)

    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "end_to_end": report,
        "per_layer": per_layer,
        "computed_counts": list(layers.COMPUTED_COUNTS),
        "notes": notes,
        "call_seconds": [
            {"label": same[0].label, "key": list(same[0].key), "seconds": [op.seconds for op in same]}
            for same in zip(*(p.ops for p in untraced))
        ],
    }
