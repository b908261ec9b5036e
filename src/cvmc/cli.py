"""Batch valuation runs driven by scenario files.

Subcommands:
    price      run one scenario file and emit its report
    compare    run plain, cv-single, and cv-multi on paired seeds
    check-ineq randomized exact trials of the correlation inequality

Scenario files are YAML; the exact schema is documented in the README.
Unknown fields are errors. Exit codes: 0 success, 2 validation error (a
scenario too large for memory included), 3 inequality violation, 4 I/O
error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import asdict, dataclass, replace

import numpy as np
import yaml

from . import __version__
from .estimators import (
    DEFAULT_BATCH_SIZE,
    DEFAULT_PILOT_FRACTION,
    FORM_CUSTOM,
    FORM_MULTI,
    FORM_NONE,
    FORM_SINGLE,
    SOURCE_PILOT,
    COEFFICIENT_SOURCES,
    ControlSpec,
    EstimatorReport,
    cv_estimate,
)
from .model import MarketModel, check_seed
from .oracle import FiniteJointDistribution, run_inequality_trials, correlation_inequality_check
from .payoffs import ContractSpec

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INEQUALITY = 3
EXIT_IO = 4

_ESTIMATOR_FORMS = {
    "plain": FORM_NONE,
    "cv-single": FORM_SINGLE,
    "cv-multi": FORM_MULTI,
    "custom": FORM_CUSTOM,
}
ESTIMATOR_NAMES = tuple(_ESTIMATOR_FORMS)


class ScenarioError(ValueError):
    """A scenario file failed validation; the message names the field."""


@dataclass(frozen=True)
class Scenario:
    market: MarketModel
    contract: ContractSpec
    runs: int
    seed: int
    estimator: str
    pilot_fraction: float
    coefficient_source: str
    custom_weights: tuple[float, ...] | None
    batch_size: int


def _require_mapping(value, context: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(f"{context}: expected a mapping, got {type(value).__name__}")
    return dict(value)


def _pop(mapping: dict, key: str, context: str, required: bool = True, default=None):
    if key in mapping:
        return mapping.pop(key)
    if required:
        raise ScenarioError(f"{context}.{key}: missing required field")
    return default

def _reject_unknown(mapping: dict, context: str) -> None:
    if mapping:
        unknown = ", ".join(sorted(map(str, mapping)))
        raise ScenarioError(f"{context}: unknown field(s): {unknown}")


def _as_number(value, context: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{context}: expected a number, got {value!r}")
    return float(value)


def _as_int(value, context: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{context}: expected an integer, got {value!r}")
    return value


def parse_scenario(text: str, runs: int | None = None, seed: int | None = None) -> Scenario:
    """Parse and validate a scenario document; every invariant checked here.

    ``runs`` and ``seed``, if given, replace the document's values before
    the checks.
    """
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"scenario parse error: {exc}") from exc
    doc = _require_mapping(raw, "scenario")

    market_raw = _require_mapping(_pop(doc, "market", "scenario"), "market")
    contract_raw = _require_mapping(_pop(doc, "contract", "scenario"), "contract")
    file_runs = _as_int(_pop(doc, "runs", "scenario"), "scenario.runs")
    file_seed = _as_int(_pop(doc, "seed", "scenario"), "scenario.seed")
    runs = file_runs if runs is None else runs
    seed = file_seed if seed is None else seed
    estimator = _pop(doc, "estimator", "scenario")
    pilot_fraction = _as_number(
        _pop(doc, "pilot_fraction", "scenario", required=False, default=DEFAULT_PILOT_FRACTION),
        "scenario.pilot_fraction",
    )
    coefficient_source = _pop(
        doc, "coefficient_source", "scenario", required=False, default=SOURCE_PILOT
    )
    custom_weights = _pop(doc, "custom_weights", "scenario", required=False)
    batch_size = _as_int(
        _pop(doc, "batch_size", "scenario", required=False, default=DEFAULT_BATCH_SIZE),
        "scenario.batch_size",
    )
    _reject_unknown(doc, "scenario")

    try:
        market = MarketModel(
            initial_price=_as_number(
                _pop(market_raw, "initial_price", "market"), "market.initial_price"
            ),
            rate=_as_number(_pop(market_raw, "rate", "market"), "market.rate"),
            volatility=_as_number(_pop(market_raw, "volatility", "market"), "market.volatility"),
            trading_days_per_year=_as_int(
                _pop(market_raw, "trading_days_per_year", "market", required=False, default=252),
                "market.trading_days_per_year",
            ),
        )
    except ValueError as exc:
        raise ScenarioError(f"market: {exc}") from exc
    _reject_unknown(market_raw, "market")

    strike = _pop(contract_raw, "strike", "contract", required=False)
    try:
        contract = ContractSpec(
            kind=str(_pop(contract_raw, "kind", "contract")),
            days_to_maturity=_as_int(
                _pop(contract_raw, "days_to_maturity", "contract"), "contract.days_to_maturity"
            ),
            strike=None if strike is None else _as_number(strike, "contract.strike"),
        )
    except ValueError as exc:
        raise ScenarioError(f"contract: {exc}") from exc
    _reject_unknown(contract_raw, "contract")

    if estimator not in ESTIMATOR_NAMES:
        raise ScenarioError(
            f"scenario.estimator: unknown estimator {estimator!r}; "
            f"expected one of {list(ESTIMATOR_NAMES)}"
        )
    # a YAML list or mapping is unhashable: not a member, and no TypeError
    if not isinstance(coefficient_source, str) or coefficient_source not in COEFFICIENT_SOURCES:
        raise ScenarioError(
            f"scenario.coefficient_source: expected one of {sorted(COEFFICIENT_SOURCES)}, "
            f"got {coefficient_source!r}"
        )
    if runs < 2:
        raise ScenarioError(f"scenario.runs: must be >= 2, got {runs}")
    if batch_size < 1:
        raise ScenarioError(f"scenario.batch_size: must be >= 1, got {batch_size}")
    if not 0.0 < pilot_fraction < 1.0:
        raise ScenarioError(f"scenario.pilot_fraction: must be in (0, 1), got {pilot_fraction}")
    try:
        check_seed(seed)
    except ValueError as exc:
        raise ScenarioError(f"scenario.seed: {exc}") from exc

    if estimator == "custom":
        if custom_weights is None:
            raise ScenarioError("scenario.custom_weights: required when estimator is 'custom'")
        if not isinstance(custom_weights, list) or not custom_weights:
            raise ScenarioError("scenario.custom_weights: expected a nonempty list of numbers")
        weights = tuple(
            _as_number(w, f"scenario.custom_weights[{i}]") for i, w in enumerate(custom_weights)
        )
        if len(weights) != contract.days_to_maturity:
            raise ScenarioError(
                f"scenario.custom_weights: expected {contract.days_to_maturity} weights, "
                f"got {len(weights)}"
            )
    elif custom_weights is not None:
        raise ScenarioError("scenario.custom_weights: only allowed when estimator is 'custom'")
    else:
        weights = None

    return Scenario(
        market=market,
        contract=contract,
        runs=runs,
        seed=seed,
        estimator=estimator,
        pilot_fraction=pilot_fraction,
        coefficient_source=coefficient_source,
        custom_weights=weights,
        batch_size=batch_size,
    )


def load_scenario(path: str, runs: int | None = None, seed: int | None = None) -> Scenario:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_scenario(handle.read(), runs=runs, seed=seed)


def _results_dict(report: EstimatorReport) -> dict:
    """Deterministic numeric results with a schema stable across estimators."""
    if report.coefficients is None:
        coefficients = None
    else:
        coefficients = {
            "values": [float(v) for v in report.coefficients.values],
            "control_means": [float(v) for v in report.coefficients.control_means],
        }
    return {
        "estimate": report.estimate,
        "standard_error": report.standard_error,
        "runs_used": report.runs_used,
        "pilot_runs_used": report.pilot_runs_used,
        "empirical_variance_ratio": report.empirical_variance_ratio,
        "predicted_variance_ratio": report.predicted_variance_ratio,
        "coefficients": coefficients,
        "per_control_correlations": [float(v) for v in report.per_control_correlations],
        "notes": list(report.notes),
    }


class _Report:
    """Serialisation shared by the report dataclasses, fields in declaration order."""

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


@dataclass(frozen=True)
class RunReport(_Report):
    scenario: dict
    results: dict
    duration_seconds: float
    artifact_version: str

    def to_table(self) -> str:
        s = self.scenario
        r = self.results
        lines = [
            f"scenario   {s['contract']['kind']}  n={s['contract']['days_to_maturity']}"
            f"  strike={s['contract']['strike']}",
            f"market     S0={s['market']['initial_price']}  r={s['market']['rate']}"
            f"  sigma={s['market']['volatility']}  N={s['market']['trading_days_per_year']}",
            f"estimator  {s['estimator']}  runs={s['runs']}  seed={s['seed']}",
            "-" * 64,
            f"{'estimate':<28}{r['estimate']:.10g}",
            f"{'standard_error':<28}{r['standard_error']:.10g}",
            f"{'runs_used':<28}{r['runs_used']}",
            f"{'pilot_runs_used':<28}{r['pilot_runs_used']}",
            f"{'empirical_variance_ratio':<28}{r['empirical_variance_ratio']:.10g}",
            f"{'predicted_variance_ratio':<28}{r['predicted_variance_ratio']:.10g}",
        ]
        if r["coefficients"] is not None:
            lines.append("-" * 64)
            lines.append(f"{'control':<10}{'coefficient':>16}{'correlation':>16}")
            values = r["coefficients"]["values"]
            for i, (value, corr) in enumerate(zip(values, r["per_control_correlations"])):
                lines.append(f"{i + 1:<10}{value:>16.8g}{corr:>16.8g}")
        for note in r["notes"]:
            lines.append(f"note: {note}")
        lines.append(f"duration_seconds {self.duration_seconds:.3f}  cvmc {self.artifact_version}")
        return "\n".join(lines)


def _run_estimator(scenario: Scenario) -> EstimatorReport:
    control = ControlSpec(
        form=_ESTIMATOR_FORMS[scenario.estimator],
        coefficient_source=scenario.coefficient_source,
        weights=scenario.custom_weights,
    )
    return cv_estimate(
        scenario.market,
        scenario.contract,
        control,
        scenario.runs,
        pilot_fraction=scenario.pilot_fraction,
        seed=scenario.seed,
        batch_size=scenario.batch_size,
    )


def run_scenario(path: str, runs: int | None = None, seed: int | None = None) -> RunReport:
    """Execute one scenario file end to end and return its report."""
    scenario = load_scenario(path, runs=runs, seed=seed)
    started = time.perf_counter()
    report = _run_estimator(scenario)
    duration = time.perf_counter() - started
    return RunReport(
        scenario=asdict(scenario),
        results=_results_dict(report),
        duration_seconds=duration,
        artifact_version=__version__,
    )


_COMPARE_COLUMNS = (
    "estimator",
    "estimate",
    "standard_error",
    "runs_used",
    "pilot_runs_used",
    "empirical_variance_ratio",
    "predicted_variance_ratio",
)


@dataclass(frozen=True)
class ComparisonReport(_Report):
    scenario: dict
    rows: list[dict]  # fixed order: plain, cv-single, cv-multi
    duration_seconds: float
    artifact_version: str

    def to_table(self) -> str:
        header = (
            f"{'estimator':<12}{'estimate':>14}{'std_error':>14}"
            f"{'runs':>10}{'pilot':>8}{'emp_ratio':>12}{'pred_ratio':>12}"
        )
        lines = [header, "-" * len(header)]
        for row in self.rows:
            lines.append(
                f"{row['estimator']:<12}{row['estimate']:>14.6f}{row['standard_error']:>14.6g}"
                f"{row['runs_used']:>10}{row['pilot_runs_used']:>8}"
                f"{row['empirical_variance_ratio']:>12.6f}{row['predicted_variance_ratio']:>12.6f}"
            )
        return "\n".join(lines)

    def to_csv(self) -> str:
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=_COMPARE_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(self.rows)
        return buffer.getvalue()


def compare_estimators(
    path: str, runs: int | None = None, seed: int | None = None
) -> ComparisonReport:
    """Run plain, cv-single, and cv-multi on paired seeds (identical paths
    per run index) and tabulate their estimates and variance ratios."""
    scenario = load_scenario(path, runs=runs, seed=seed)
    if scenario.market.volatility <= 0.0:
        raise ScenarioError("compare requires market.volatility > 0")
    started = time.perf_counter()
    rows = []
    for name in ("plain", "cv-single", "cv-multi"):
        results = _results_dict(_run_estimator(replace(scenario, estimator=name, custom_weights=None)))
        rows.append({"estimator": name, **{k: results[k] for k in _COMPARE_COLUMNS[1:]}})
    duration = time.perf_counter() - started
    return ComparisonReport(
        scenario=asdict(scenario),
        rows=rows,
        duration_seconds=duration,
        artifact_version=__version__,
    )


def _equality_witness() -> dict:
    """The Y = X1, alpha = e1 construction, where the bound is attained."""
    dist = FiniteJointDistribution.independent(
        [([-1.0, 1.0], [0.5, 0.5]), ([-1.0, 1.0], [0.5, 0.5]), ([-1.0, 1.0], [0.5, 0.5])]
    ).with_target(lambda row: row[0])
    check = correlation_inequality_check(dist, [1.0, 0.0, 0.0])
    return {"lhs": check.lhs, "rhs": check.rhs, "holds": check.holds}


def check_inequality(trials: int, seed: int) -> dict:
    """Randomized exact trials of the correlation inequality plus the
    equality witness; `all_hold` False means the bound was violated."""
    summary = run_inequality_trials(trials, seed)
    return {
        "trials": summary.trials,
        "passes": summary.passes,
        "max_violation": summary.max_violation,
        "all_hold": summary.all_hold,
        "equality_witness": _equality_witness(),
    }


def _inequality_table(result: dict) -> str:
    witness = result["equality_witness"]
    return "\n".join(
        [
            f"trials        {result['trials']}",
            f"passes        {result['passes']}",
            f"max_violation {result['max_violation']:.3e}",
            f"all_hold      {result['all_hold']}",
            f"equality witness (Y = X1, alpha = e1): lhs={witness['lhs']:.12f} "
            f"rhs={witness['rhs']:.12f}",
        ]
    )


def _emit(text: str, output: str | None) -> None:
    if output is None:
        print(text)
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")


def _error(error_class: str, message: str) -> None:
    print(json.dumps({"error_class": error_class, "message": message}), file=sys.stderr)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvmc", description="Monte Carlo valuation with control variates"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    price = sub.add_parser("price", help="run one scenario and report the estimate")
    compare = sub.add_parser("compare", help="compare plain/cv-single/cv-multi on paired seeds")
    for p in (price, compare):
        p.add_argument("--scenario", required=True, help="path to a scenario YAML file")
        p.add_argument("--runs", type=int, default=None, help="override scenario runs")
        p.add_argument("--seed", type=int, default=None, help="override scenario seed")
        p.add_argument("--output", default=None, help="write the report to this file")
    price.add_argument("--format", choices=("json-like", "table"), default="json-like")
    compare.add_argument("--format", choices=("json-like", "table", "csv"), default="json-like")

    ineq = sub.add_parser("check-ineq", help="randomized exact inequality trials")
    ineq.add_argument("--trials", type=int, default=1000)
    ineq.add_argument("--seed", type=int, default=0)
    ineq.add_argument("--output", default=None)
    ineq.add_argument("--format", choices=("json-like", "table"), default="json-like")
    return parser


# The engine raises ValueError on any non-finite payoff, price or moment, so
# numpy's overflow warnings would only print ahead of the one JSON error.
@np.errstate(over="ignore", invalid="ignore")
def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command in ("price", "compare"):
            run = run_scenario if args.command == "price" else compare_estimators
            report = run(args.scenario, runs=args.runs, seed=args.seed)
            if args.format == "json-like":
                text = report.to_json()
            elif args.format == "table":
                text = report.to_table()
            else:
                text = report.to_csv().rstrip("\n")
            _emit(text, args.output)
            return EXIT_OK
        # check-ineq
        if args.trials < 1:
            raise ScenarioError(f"--trials must be >= 1, got {args.trials}")
        try:
            check_seed(args.seed)
        except ValueError as exc:
            raise ScenarioError(f"--seed: {exc}") from exc
        result = check_inequality(args.trials, args.seed)
        text = (
            json.dumps(result, indent=2)
            if args.format == "json-like"
            else _inequality_table(result)
        )
        _emit(text, args.output)
        if not result["all_hold"]:
            _error("inequality_violation", f"max violation {result['max_violation']:.3e}")
            return EXIT_INEQUALITY
        return EXIT_OK
    except (ScenarioError, ValueError) as exc:
        _error("validation", str(exc))
        return EXIT_VALIDATION
    except MemoryError as exc:
        # a scenario too large for memory, such as days_to_maturity: 1e15
        _error("validation", f"the scenario does not fit in memory: {exc}")
        return EXIT_VALIDATION
    except OSError as exc:
        _error("io", str(exc))
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
