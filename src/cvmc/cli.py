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
    ControlSpec,
    EstimatorReport,
    check_arguments,
    cv_estimate,
)
from .model import ArgumentError, MarketModel
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

    @property
    def arguments(self) -> tuple:
        """The scenario's estimator call: the arguments of cv_estimate, and of check_arguments."""
        control = ControlSpec(_ESTIMATOR_FORMS[self.estimator], self.coefficient_source, self.custom_weights)
        return self.market, self.contract, control, self.runs, self.seed, self.pilot_fraction, self.batch_size


def _of(types, expected: str, convert=lambda value: value, show=repr):
    """The check of a field whose YAML value is one of types, not a bool; it returns convert(value)."""

    def check(value, context: str):
        if isinstance(value, bool) or not isinstance(value, types):
            raise ScenarioError(f"{context}: expected {expected}, got {show(value)}")
        return convert(value)

    return check


_NUMBER = _of((int, float), "a number", float)
_INTEGER = _of(int, "an integer")
_STRING = _of(str, "a string")
_MAPPING = _of(dict, "a mapping", show=lambda value: type(value).__name__)
_WEIGHTS = _of(
    list,
    "a nonempty list of numbers",
    lambda weights: tuple(_NUMBER(w, f"scenario.custom_weights[{i}]") for i, w in enumerate(weights)),
)
_REQUIRED = object()


def _estimator(value, context: str) -> str:
    if value not in ESTIMATOR_NAMES:
        raise ScenarioError(f"{context}: unknown estimator {value!r}; expected one of {list(ESTIMATOR_NAMES)}")
    return value


# Per section, what its fields make, and each field's check of its YAML
# type and its default, or _REQUIRED. The engine checks their values.
_SECTIONS = {
    "scenario": (dict, {
        "market": (lambda raw, context: _read(raw, "market"), _REQUIRED),
        "contract": (lambda raw, context: _read(raw, "contract"), _REQUIRED),
        "runs": (_INTEGER, _REQUIRED),
        "seed": (_INTEGER, _REQUIRED),
        "estimator": (_estimator, _REQUIRED),
        "pilot_fraction": (_NUMBER, DEFAULT_PILOT_FRACTION),
        "coefficient_source": (_STRING, SOURCE_PILOT),
        "custom_weights": (_WEIGHTS, None),
        "batch_size": (_INTEGER, DEFAULT_BATCH_SIZE),
    }),
    "market": (MarketModel, {
        "initial_price": (_NUMBER, _REQUIRED),
        "rate": (_NUMBER, _REQUIRED),
        "volatility": (_NUMBER, _REQUIRED),
        "trading_days_per_year": (_INTEGER, 252),
    }),
    "contract": (ContractSpec, {
        "kind": (_STRING, _REQUIRED),
        "days_to_maturity": (_INTEGER, _REQUIRED),
        "strike": (_NUMBER, None),
    }),
}
# The scenario field of each engine argument not named as its field.
_FIELDS = {
    "form": "scenario.estimator",
    "weights": "scenario.custom_weights",
    "volatility": "market.volatility",
    "rate": "market.rate",
}


def _read(raw, section: str):
    """What a section makes of its fields, type-checked, with the defaults of those it omits."""
    mapping = _MAPPING(raw, section)
    make, fields = _SECTIONS[section]
    values = {}
    for name, (check, default) in fields.items():
        value = mapping.get(name, default)
        if value is _REQUIRED:
            raise ScenarioError(f"{section}.{name}: missing required field")
        # a default is not checked, nor a YAML null where the default is None
        values[name] = value if value is default else check(value, f"{section}.{name}")
    unknown = ", ".join(sorted(map(str, set(mapping) - set(fields))))
    if unknown:
        raise ScenarioError(f"{section}: unknown field(s): {unknown}")
    try:
        return make(**values)
    except ValueError as exc:
        raise ScenarioError(f"{section}: {exc}") from exc


def _check(scenario: Scenario) -> None:
    """The engine's check of the scenario's estimator call; a refusal names the field."""
    try:
        check_arguments(*scenario.arguments)
    except ArgumentError as exc:
        raise ScenarioError(f"{_FIELDS.get(exc.argument, 'scenario.' + exc.argument)}: {exc}") from exc


def parse_scenario(text: str, runs: int | None = None, seed: int | None = None) -> Scenario:
    """Parse a scenario document and check it; a refusal is a ScenarioError that names the field.

    This checks the document's shape: its sections, their fields and each
    one's YAML type. ``runs`` and ``seed``, if given, replace the
    document's values; then the engine's check_arguments checks the values.
    """
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"scenario parse error: {exc}") from exc
    doc = _read(raw, "scenario")
    for name, value in (("runs", runs), ("seed", seed)):
        if value is not None:
            doc[name] = value
    scenario = Scenario(**doc)
    _check(scenario)
    return scenario


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


def run_scenario(path: str, runs: int | None = None, seed: int | None = None) -> RunReport:
    """Execute one scenario file end to end and return its report."""
    scenario = load_scenario(path, runs=runs, seed=seed)
    started = time.perf_counter()
    report = cv_estimate(*scenario.arguments)
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
    per run index) and tabulate their estimates and variance ratios. Each
    estimator's call is checked before any of them runs."""
    scenario = load_scenario(path, runs=runs, seed=seed)
    names = ("plain", "cv-single", "cv-multi")
    compared = [replace(scenario, estimator=name, custom_weights=None) for name in names]
    for each in compared:
        _check(each)
    started = time.perf_counter()
    rows = []
    for each in compared:
        results = _results_dict(cv_estimate(*each.arguments))
        rows.append({"estimator": each.estimator, **{k: results[k] for k in _COMPARE_COLUMNS[1:]}})
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
        try:
            result = check_inequality(args.trials, args.seed)
        except ArgumentError as exc:
            raise ScenarioError(f"--{exc.argument}: {exc}") from exc
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
