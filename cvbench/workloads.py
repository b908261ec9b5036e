"""The benchmark's workloads: inputs drawn from the workload seed, one pass
of calls into cvmc, and the correctness gate each pass must clear.

Every call goes through a module attribute (``estimators.cv_estimate``,
not a name imported here), so the tracer's wrappers see it.
"""

from __future__ import annotations

import math
import random
import re
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from cvmc import cli, estimators, oracle

from . import speed

SPOT = 100.0
RATE = 0.05
VOLATILITY = 0.2
LARGE_RUNS = 100_000
WARM_UP_RUNS = 1_000

# Small-R grid of the macro-replication study. R = 100 and 250 are where
# the multi-control sanity guard refuses valid inputs (ROADMAP item 3);
# those refusals are counted as refusals, never re-seeded away. A refusal
# above REFUSAL_MAX_RUNS fails the gate.
REPLICATION_RUNS = (100, 250, 1000, 4000)
REPLICATION_SEEDS = 160
REFUSAL_MAX_RUNS = 250

# A fixed batch of exact oracle work closes every pass, so that the pure-
# Python cvmc.oracle layer is measured too (~0.1 s, a few % of a pass).
ORACLE_TRIALS = 250
ORACLE_LAWS = 100
IDENTITY_TOLERANCE = 1e-12

# The one refusal replications accepts: the multi-control sanity guard.
GUARD_REFUSAL = re.compile(r"ValueError: predicted variance ratio .* falls outside")

# Tolerances shared with the acceptance suite (criteria 2 and 3).
RATIO_AGREEMENT = 0.05
DOMINANCE_SLACK = 0.02
UNBIASED_SE_MULTIPLE = 4.0

PLAIN = "plain"
SINGLE = "cv-single"
MULTI = "cv-multi"
TRIALS = "trials"
IDENTITY = "identity"
ESTIMATOR_LABELS = (PLAIN, SINGLE, MULTI)
_FORMS = {SINGLE: estimators.FORM_SINGLE, MULTI: estimators.FORM_MULTI}


@dataclass
class Call:
    """One operation of a pass: an estimator call, a batch of oracle trials
    or a batch of enumeration-identity laws. ``units`` is how many
    operations it counts as (1 for an estimator call)."""

    label: str
    key: tuple
    paths: int
    units: int
    run: object


@dataclass
class Op:
    label: str
    key: tuple
    paths: int
    units: int
    seconds: float
    result: object = None
    error: str | None = None
    failed_units: int = 0
    probe_s: float = speed.NOMINAL_S  # the speed probe around the call

    @property
    def reference_seconds(self) -> float:
        return speed.at_reference_speed(self.seconds, self.probe_s)

    @property
    def ok(self) -> bool:
        return self.error is None and self.failed_units == 0

    @property
    def refused(self) -> bool:
        """Raised, and the gate accepted the refusal: not a failure."""
        return self.error is not None and self.failed_units == 0

    def fingerprint(self) -> tuple:
        """Exact numeric outcome; timings are excluded by construction."""
        result = self.result
        if isinstance(result, estimators.EstimatorReport):
            values = (
                result.estimate,
                result.standard_error,
                result.empirical_variance_ratio,
                result.predicted_variance_ratio,
                *result.per_control_correlations,
            )
        elif isinstance(result, oracle.InequalityTrialSummary):
            values = (result.trials, result.passes, result.max_violation)
        else:
            values = () if result is None else (result,)
        return (self.label, self.key, self.error, tuple(float(v).hex() for v in values))


@dataclass
class Pass:
    ops: list[Op]
    seconds: float  # wall time of the pass less its speed probes
    probe_s: float = speed.NOMINAL_S  # median of its speed probes
    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)


def _stream_seed(name: str, seed: int, salt: str = "") -> int:
    return random.Random(f"{name}/{seed}/{salt}").randrange(2**32)


def _scenario_yaml(days: int, runs: int, seed: int) -> str:
    return (
        f"market: {{initial_price: {SPOT}, rate: {RATE}, volatility: {VOLATILITY}}}\n"
        f"contract: {{kind: asian_fixed_strike, days_to_maturity: {days}, strike: {SPOT}}}\n"
        f"runs: {runs}\nseed: {seed}\nestimator: cv-multi\n"
    )


def _estimator_call(scenario, label: str, runs: int, seed: int) -> Call:
    if label == PLAIN:
        def run():
            return estimators.plain_estimate(
                scenario.market, scenario.contract, runs, seed, batch_size=scenario.batch_size
            )
    else:
        control = estimators.ControlSpec(form=_FORMS[label])

        def run():
            return estimators.cv_estimate(
                scenario.market,
                scenario.contract,
                control,
                runs,
                pilot_fraction=scenario.pilot_fraction,
                seed=seed,
                batch_size=scenario.batch_size,
            )
    return Call(label=label, key=(seed, runs), paths=runs, units=1, run=run)


def execute(call: Call) -> Op:
    """Run one call and time it. An exception is recorded on the operation
    as "Type: message"; the gate decides whether it is an accepted refusal
    or a failure that makes the run incorrect."""
    started = time.perf_counter()
    try:
        result, error = call.run(), None
    except Exception as exc:
        result, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - started
    return Op(call.label, call.key, call.paths, call.units, seconds, result, error)


# ---------------------------------------------------------------- gates


def _fail(op: Op, message: str, failures: list[str]) -> None:
    op.failed_units = op.units
    failures.append(f"{op.label} {op.key}: {message}")


def _check_estimates(ops, failures, bounded_ratio: bool) -> None:
    for op in ops:
        if op.error is not None:
            continue
        r = op.result
        values = (r.estimate, r.standard_error, r.empirical_variance_ratio, r.predicted_variance_ratio)
        if not all(math.isfinite(v) for v in values):
            _fail(op, f"non-finite result {values}", failures)
        elif bounded_ratio and not 0.0 <= r.empirical_variance_ratio <= 1.0:
            _fail(op, f"variance ratio {r.empirical_variance_ratio!r} outside [0, 1]", failures)
        elif bounded_ratio and abs(r.empirical_variance_ratio - r.predicted_variance_ratio) > RATIO_AGREEMENT:
            _fail(
                op,
                f"predicted ratio {r.predicted_variance_ratio:.4f} disagrees with empirical "
                f"{r.empirical_variance_ratio:.4f} by more than {RATIO_AGREEMENT}",
                failures,
            )


def _check_refusals(ops, failures, accepted=None) -> None:
    """Every raised call fails, except a cv-multi refusal at no more than
    REFUSAL_MAX_RUNS runs whose message ``accepted`` matches."""
    for op in ops:
        if op.error is None:
            continue
        if (
            accepted is not None
            and op.label == MULTI
            and op.key[1] <= REFUSAL_MAX_RUNS
            and accepted.match(op.error)
        ):
            continue
        _fail(op, f"raised on a valid input: {op.error}", failures)


def _check_dominance(ops, failures) -> None:
    """Paired-seed dominance: multi <= single <= plain (in that order of labels present)."""
    by_label = {op.label: op for op in ops if op.ok}
    chain = [by_label[label] for label in (MULTI, SINGLE, PLAIN) if label in by_label]
    for lower, upper in zip(chain, chain[1:]):
        if lower.result.empirical_variance_ratio > upper.result.empirical_variance_ratio + DOMINANCE_SLACK:
            _fail(lower, f"variance ratio exceeds that of {upper.label}", failures)


def gate_large(ops: list[Op]) -> list[str]:
    """short_paths and long_paths: every call returns a finite estimate with
    a ratio in [0, 1] that agrees with its prediction, and the estimators
    on the shared seed are ordered multi <= single <= plain."""
    failures: list[str] = []
    _check_refusals(ops, failures)
    _check_estimates(ops, failures, bounded_ratio=True)
    _check_dominance(ops, failures)
    return failures


def paired(ops):
    """(plain, cv-multi) operation pairs on the same (seed, runs), both ok."""
    plain = {op.key: op for op in ops if op.label == PLAIN and op.ok}
    return [(plain[op.key], op) for op in ops if op.label == MULTI and op.ok and op.key in plain]


def gate_replications(ops: list[Op]) -> list[str]:
    """Finite estimates, and pilot-mode unbiasedness pooled over all pairs:
    |mean(cv - plain)| within UNBIASED_SE_MULTIPLE pooled standard errors.
    A small-R cv-multi refusal by the sanity guard (ROADMAP item 3) is
    counted as a refusal, not a failure; any other raised call fails."""
    failures: list[str] = []
    _check_refusals(ops, failures, accepted=GUARD_REFUSAL)
    _check_estimates(ops, failures, bounded_ratio=False)
    diffs = np.array([cv.result.estimate - p.result.estimate for p, cv in paired(ops)])
    if diffs.size < 2:
        failures.append(f"unbiasedness: only {diffs.size} successful pairs")
        return failures
    pooled_se = diffs.std(ddof=1) / math.sqrt(diffs.size)
    if not abs(diffs.mean()) <= UNBIASED_SE_MULTIPLE * pooled_se:
        for _, cv in paired(ops):
            cv.failed_units = cv.units
        failures.append(
            f"unbiasedness: |mean(cv - plain)| = {abs(diffs.mean()):.3g} exceeds "
            f"{UNBIASED_SE_MULTIPLE} x pooled SE {pooled_se:.3g} over {diffs.size} pairs"
        )
    return failures


def gate_oracle(ops: list[Op]) -> list[str]:
    """Every trial holds, max_violation <= EXACT_TOLERANCE, and the
    enumeration identity holds to IDENTITY_TOLERANCE."""
    failures: list[str] = []
    _check_refusals(ops, failures)
    for op in ops:
        if op.error is not None:
            continue
        if op.label == TRIALS:
            summary = op.result
            failed = summary.trials - summary.passes
            if failed or not summary.max_violation <= oracle.EXACT_TOLERANCE:
                op.failed_units = max(failed, 1)
                failures.append(
                    f"trials {op.key}: {failed} of {summary.trials} violate the inequality, "
                    f"max_violation {summary.max_violation:.3g}"
                )
        elif not op.result <= IDENTITY_TOLERANCE:
            _fail(op, f"enumeration identity gap {op.result!r} exceeds {IDENTITY_TOLERANCE}", failures)
    return failures


def check_reproducible(passes: list[Pass]) -> list[str]:
    """Repeated passes on one seed give bit-identical results."""
    reference = [op.fingerprint() for op in passes[0].ops]
    failures = []
    for index, later in enumerate(passes[1:], start=1):
        if [op.fingerprint() for op in later.ops] != reference:
            failures.append(f"pass {index} is not bit-identical to pass 0")
    return failures


# ------------------------------------------------------------ workloads


def _identity_gap(seed: int) -> float:
    """Worst |var(W at c*) - var(Y)(1 - corr^2)| over ORACLE_LAWS random finite laws."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(ORACLE_LAWS):
        dist = oracle.random_joint_law(rng)
        m = oracle.exact_moments(dist)
        c_star = -m.covariance[0, 1] / m.variance(1)
        predicted = m.variance(0) * (1.0 - m.correlation(0, 1) ** 2)
        worst = max(worst, abs(oracle.brute_force_cv_variance(dist, c_star) - predicted))
    return worst


def oracle_calls(name: str, seed: int) -> list[Call]:
    trial_seed = _stream_seed(name, seed, "trials")
    law_seed = _stream_seed(name, seed, "laws")
    trials = Call(
        TRIALS, (trial_seed,), 0, ORACLE_TRIALS, lambda: oracle.run_inequality_trials(ORACLE_TRIALS, seed=trial_seed)
    )
    return [trials, Call(IDENTITY, (law_seed,), 0, ORACLE_LAWS, lambda: _identity_gap(law_seed))]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    days: int
    calls: object  # (scenario, seed) -> list[Call], the estimator calls
    gate: object  # estimator ops -> list[str]

    def scenario_yaml(self, seed: int) -> str:
        return _scenario_yaml(self.days, LARGE_RUNS, _stream_seed(self.name, seed))

    def set_up(self, scenario_path) -> None:
        """Load the scenario and make one small warm-up call, as a user would.

        The warm-up is a plain estimate: a small multi-control call can be
        refused by the sanity guard (ROADMAP item 3) at n = 252."""
        scenario = cli.load_scenario(scenario_path)
        estimators.plain_estimate(
            scenario.market, scenario.contract, WARM_UP_RUNS, seed=0, batch_size=scenario.batch_size
        )

    def check(self, ops: list[Op]) -> list[str]:
        """The workload's gate on its estimator calls, the oracle's on the rest."""
        return self.gate([op for op in ops if op.label in ESTIMATOR_LABELS]) + gate_oracle(
            [op for op in ops if op.label not in ESTIMATOR_LABELS]
        )

    def run_pass(self, scenario_path, seed: int, tracer=None) -> Pass:
        """Make the workload's calls once, with a speed probe before the
        first call, after the last and between calls at least every
        PROBE_INTERVAL_S. Each call is given the mean of the two probes
        around it."""
        if tracer is not None:
            tracer.call = None
        probes = [speed.probe()]
        started = time.perf_counter()
        scenario = cli.load_scenario(scenario_path)
        calls = self.calls(scenario, seed) + oracle_calls(self.name, seed)
        ops, unprobed, last_probe, probing = [], [], started, 0.0
        for index, call in enumerate(calls):
            if tracer is not None:
                tracer.call = index
            ops.append(execute(call))
            unprobed.append(ops[-1])
            now = time.perf_counter()
            if now - last_probe >= speed.PROBE_INTERVAL_S or index == len(calls) - 1:
                probes.append(speed.probe())
                last_probe = time.perf_counter()
                probing += last_probe - now
                for op in unprobed:
                    op.probe_s = (probes[-2] + probes[-1]) / 2
                unprobed = []
        seconds = time.perf_counter() - started - probing
        return Pass(ops=ops, seconds=seconds, probe_s=statistics.median(probes))


def _short_paths_calls(scenario, seed):
    return [_estimator_call(scenario, label, scenario.runs, scenario.seed) for label in (PLAIN, SINGLE, MULTI)]


def _long_paths_calls(scenario, seed):
    return [_estimator_call(scenario, label, scenario.runs, scenario.seed) for label in (PLAIN, MULTI)]


def _replication_calls(scenario, seed):
    rng = random.Random(f"replications/{seed}")
    stream_seeds = rng.sample(range(2**32), REPLICATION_SEEDS)
    calls = []
    for index, stream_seed in enumerate(stream_seeds):
        runs = REPLICATION_RUNS[index % len(REPLICATION_RUNS)]
        calls.append(_estimator_call(scenario, PLAIN, runs, stream_seed))
        calls.append(_estimator_call(scenario, MULTI, runs, stream_seed))
    return calls


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "short_paths",
            "n=30, R=1e5 plain, cv-single, cv-multi on one seed, then 250 exact oracle trials: the per-run stream reset dominates, moments stay under 10%",
            30,
            _short_paths_calls,
            gate_large,
        ),
        Workload(
            "long_paths",
            "n=252, R=1e5 plain and cv-multi on one seed, then 250 exact oracle trials: the 253-wide moment accumulation is about half the time",
            252,
            _long_paths_calls,
            gate_large,
        ),
        Workload(
            "replications",
            "n=30, 160 seeds of paired plain + cv-multi calls, R cycling 100..4000, then 250 exact oracle trials: per-call fixed costs and small-R refusals show",
            30,
            _replication_calls,
            gate_replications,
        ),
    )
}
