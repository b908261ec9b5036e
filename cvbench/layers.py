"""Per-layer metrics: which entry points are traced and how their spans
and counters become the layer figures reported by a traced run.

Layers are the cvmc modules. Each is timed from outside, at the entry
points it exposes to its caller; a layer's time is the self time of its
spans, so nested calls (an estimator calling the sampler) are not
counted twice.
"""

from __future__ import annotations

from . import speed
from .formulas import median
from .spans import EntryPoint, self_time_by_name


def _size(result) -> int:
    return int(getattr(result, "size", 1))


def _moments(args, kwargs, result) -> dict:
    batch = args[1] if len(args) > 1 else kwargs["xs"]
    rows, dim = getattr(batch, "shape", (len(batch), len(batch[0])))
    return {"estimators.moment_rows": rows, "estimators.moment_madds": rows * dim * dim}


ENTRY_POINTS = (
    EntryPoint("cvmc.model:LogReturnSampler.__init__", "model.sampler_init"),
    EntryPoint(
        "cvmc.model:LogReturnSampler.rows",
        "model.stream",
        lambda args, kwargs, result: {"model.normals": _size(result)},
    ),
    EntryPoint("cvmc.model:prices_from_log_returns", "model.prices"),
    EntryPoint(
        "cvmc.payoffs:discounted_payoff",
        "payoffs.payoff",
        lambda args, kwargs, result: {"payoffs.paths": _size(result)},
    ),
    EntryPoint("cvmc.estimators:MomentAccumulator.add_batch", "estimators.moments", _moments),
    EntryPoint("cvmc.estimators:plain_estimate", "estimators.plain"),
    EntryPoint("cvmc.estimators:cv_estimate", "estimators.cv"),
    EntryPoint("cvmc.oracle:random_independent_trial", "oracle.trial_gen"),
    EntryPoint("cvmc.oracle:exact_moments", "oracle.exact_moments"),
    EntryPoint("cvmc.oracle:correlation_inequality_check", "oracle.check"),
    EntryPoint("cvmc.cli:load_scenario", "cli.parse"),
)

ESTIMATOR_SPANS = ("estimators.plain", "estimators.cv")

# Metric name -> (unit, spans it is read from). Times are self times.
LAYER_METRICS = {
    "model.stream_s": ("s", ("model.stream",)),
    "model.stream_calls": ("count", ("model.stream",)),
    "model.normals": ("count", ("model.stream",)),
    "model.sampler_init_s": ("s", ("model.sampler_init",)),
    "model.sampler_inits": ("count", ("model.sampler_init",)),
    "model.prices_s": ("s", ("model.prices",)),
    "payoffs.payoff_s": ("s", ("payoffs.payoff",)),
    "payoffs.paths": ("count", ("payoffs.payoff",)),
    "estimators.moments_s": ("s", ("estimators.moments",)),
    "estimators.moment_rows": ("count", ("estimators.moments",)),
    "estimators.moment_madds": ("count", ("estimators.moments",)),
    "estimators.self_s": ("s", ESTIMATOR_SPANS),
    "estimators.calls": ("count", ESTIMATOR_SPANS),
    "estimators.failed": ("count", ESTIMATOR_SPANS),
    "estimators.pilot_paths": ("count", ()),
    "estimators.main_paths": ("count", ()),
    "oracle.trial_gen_s": ("s", ("oracle.trial_gen",)),
    "oracle.exact_moments_s": ("s", ("oracle.exact_moments",)),
    "oracle.check_s": ("s", ("oracle.check",)),
    "oracle.trials": ("count", ("oracle.trial_gen",)),
    "oracle.draw_attempts": ("count", ("oracle.trial_gen", "oracle.exact_moments")),
    "oracle.useful_ratio": ("ratio", ("oracle.trial_gen", "oracle.exact_moments")),
    "cli.parse_s": ("s", ("cli.parse",)),
}
# Counts derived from call shapes, not observed timings; they repeat exactly.
COMPUTED_COUNTS = ("model.normals", "estimators.moment_madds")


def pass_layer_values(traced_pass) -> dict[str, float]:
    """Every layer figure for one traced pass."""
    spans = traced_pass.spans
    own = self_time_by_name(spans)
    by_id = {span.id: span for span in spans}
    count = {}
    for span in spans:
        count[span.name] = count.get(span.name, 0) + 1
    top_estimator = [
        span
        for span in spans
        if span.name in ESTIMATOR_SPANS
        and (span.parent is None or by_id[span.parent].name not in ESTIMATOR_SPANS)
    ]
    draws = sum(
        1
        for span in spans
        if span.name == "oracle.exact_moments"
        and span.parent is not None
        and by_id[span.parent].name == "oracle.trial_gen"
    )
    trials = count.get("oracle.trial_gen", 0)
    reports = [op.result for op in traced_pass.ops if op.error is None and hasattr(op.result, "runs_used")]
    values = {
        "model.stream_s": own.get("model.stream", 0.0),
        "model.stream_calls": count.get("model.stream", 0),
        "model.sampler_init_s": own.get("model.sampler_init", 0.0),
        "model.sampler_inits": count.get("model.sampler_init", 0),
        "model.prices_s": own.get("model.prices", 0.0),
        "payoffs.payoff_s": own.get("payoffs.payoff", 0.0),
        "estimators.moments_s": own.get("estimators.moments", 0.0),
        "estimators.self_s": sum(own.get(name, 0.0) for name in ESTIMATOR_SPANS),
        "estimators.calls": len(top_estimator),
        "estimators.failed": sum(span.raised for span in top_estimator),
        "estimators.pilot_paths": sum(r.pilot_runs_used for r in reports),
        "estimators.main_paths": sum(r.runs_used for r in reports),
        "cli.parse_s": own.get("cli.parse", 0.0),
        "oracle.trial_gen_s": own.get("oracle.trial_gen", 0.0),
        "oracle.exact_moments_s": own.get("oracle.exact_moments", 0.0),
        "oracle.check_s": own.get("oracle.check", 0.0),
        "oracle.trials": trials,
        "oracle.draw_attempts": draws,
        "oracle.useful_ratio": trials / draws if draws else 0.0,
    }
    for key in ("model.normals", "payoffs.paths", "estimators.moment_rows", "estimators.moment_madds"):
        values[key] = traced_pass.counters.get(key, 0)
    return values


def layer_metrics(traced_passes, absent: set) -> dict:
    """Median over traced passes of each layer figure, as {name: {value, unit}}.

    Times are at reference speed, each pass rescaled by its speed probes,
    so that they add up to the end-to-end ``wall_s``. A metric read from
    an entry point that no longer exists is reported with value None and
    ``absent`` set, never as zero.
    """
    per_pass = []
    for one in traced_passes:
        values = pass_layer_values(one)
        for name, (unit, _) in LAYER_METRICS.items():
            if unit == "s":
                values[name] = speed.at_reference_speed(values[name], one.probe_s)
        per_pass.append(values)
    out = {}
    for name, (unit, span_names) in LAYER_METRICS.items():
        if any(span in absent for span in span_names):
            out[name] = {"value": None, "unit": unit, "absent": True}
        else:
            out[name] = {"value": median(values[name] for values in per_pass), "unit": unit}
    return out


def unattributed_share(traced_pass) -> float:
    """Share of a traced pass's wall time outside every layer's self time."""
    attributed = sum(self_time_by_name(traced_pass.spans).values())
    return 1.0 - attributed / traced_pass.seconds
