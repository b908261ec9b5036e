"""The bit contract: one sha256 per report over a fixed grid of estimator calls.

The grid is plain_estimate and cv_estimate of every form with pilot and
with in-sample coefficients, for every contract kind at n in {1, 5, 30,
252} days, with (runs, batch_size) in GRID_RUNS, on seed 43, and the
calls of FOLDED, on the seed their keys end in. A report's digest covers
every number of the report, as float.hex, and its notes.
tests/bit_contract.json holds the digests, and tests/test_bit_contract.py
compares them with the engine's. A change that moves numbers on purpose
re-pins the file, and --diff names the reports that moved.

Run from the repository root, with the package importable (PYTHONPATH=src):

    python tests/bit_contract.py --check            compare the grid with the pinned digests
    python tests/bit_contract.py --pin              rewrite the pinned digests
    python tests/bit_contract.py --dump FILE        write every report of the grid to FILE
    python tests/bit_contract.py --diff OLD NEW     print each report that moved between two dumps,
                                                    with its largest relative change; exits 1 if
                                                    any moved or is in one dump only

--runs R limits --check and --dump to the calls with R runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from cvmc import ContractSpec, ControlSpec, MarketModel, cv_estimate, plain_estimate
from cvmc.estimators import FORM_CUSTOM, FORM_MULTI, FORM_SINGLE, SOURCE_IN_SAMPLE, SOURCE_PILOT
from cvmc.payoffs import ASIAN_FIXED, ASIAN_FLOATING, CONTRACT_KINDS, LOOKBACK_FLOATING, STRIKE_KINDS

PINS = Path(__file__).with_name("bit_contract.json")
MARKET = MarketModel(initial_price=100.0, rate=0.05, volatility=0.2)
SEED = 43
DAYS = (1, 5, 30, 252)
GRID_RUNS = ((40, 4096), (100, 4096), (1000, 4096), (9000, 777), (20_000, 4096))
FORMS = (FORM_SINGLE, FORM_MULTI, FORM_CUSTOM)
ESTIMATORS = ("plain", *(f"{form}/{source}" for form in FORMS for source in (SOURCE_PILOT, SOURCE_IN_SAMPLE)))
_SINGLE, _MULTI = f"{FORM_SINGLE}/{SOURCE_PILOT}", f"{FORM_MULTI}/{SOURCE_PILOT}"
# Calls near the benchmark's, on seed 11, "estimator/kind/n/runs/batch_size/seed11":
# every estimator at short_paths' n = 30 with R = 20 000, and plain, pilot
# cv-single and cv-multi and in-sample cv-multi at long_paths' n = 252 with
# R = 5000, on two lanes; replications' one-block calls on the caller's
# thread, with R on both sides of the 1024 rows from which the prices'
# prefix sums go day by day; and at R = 4000 the payoffs that read every
# day's price.
FOLDED = tuple(
    f"{call}/4096/seed11"
    for call in (
        *(f"{estimator}/{ASIAN_FIXED}/30/20000" for estimator in ESTIMATORS),
        *(f"{e}/{ASIAN_FIXED}/252/5000" for e in ("plain", _SINGLE, _MULTI, f"{FORM_MULTI}/{SOURCE_IN_SAMPLE}")),
        *(f"{e}/{ASIAN_FIXED}/30/{r}" for r in (100, 250, 1000, 1023, 1024, 4000) for e in ("plain", _MULTI)),
        f"plain/{LOOKBACK_FLOATING}/30/4000",
        f"plain/{ASIAN_FLOATING}/30/4000",
    )
)


def report_bits(report) -> list:
    """Every number of a report, as float.hex strings, then its run counts."""
    numbers = [
        report.estimate,
        report.standard_error,
        report.empirical_variance_ratio,
        report.predicted_variance_ratio,
        *report.per_control_correlations,
    ]
    if report.coefficients is not None:
        numbers += [*report.coefficients.values, *report.coefficients.control_means]
    return [float(v).hex() for v in numbers] + [report.runs_used, report.pilot_runs_used]


def call_of(key: str) -> tuple[list[str], str, int, int, int, int]:
    """(estimator, kind, n, runs, batch_size, seed) of a key, "estimator/kind/n/runs/batch_size"
    on SEED, or with "/seed<seed>" after it."""
    parts = key.split("/")
    seed = int(parts.pop().removeprefix("seed")) if parts[-1].startswith("seed") else SEED
    *estimator, kind, n, runs, batch_size = parts
    return estimator, kind, int(n), int(runs), int(batch_size), seed


def keys(runs: int | None = None) -> list[str]:
    """The grid's calls, then FOLDED, those with runs runs alone if given."""
    grid = [
        f"{estimator}/{kind}/{n}/{r}/{batch_size}"
        for r, batch_size in GRID_RUNS
        for estimator in ESTIMATORS
        for kind in sorted(CONTRACT_KINDS)
        for n in DAYS
    ]
    return [key for key in (*grid, *FOLDED) if runs is None or call_of(key)[3] == runs]


def report_of(key: str) -> dict:
    """The call of a grid key, as {"bits": report_bits, "notes": notes}."""
    estimator, kind, n, runs, batch_size, seed = call_of(key)
    spec = ContractSpec(kind=kind, days_to_maturity=n, strike=100.0 if kind in STRIKE_KINDS else None)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # few runs per control: the notes say so
        if estimator == ["plain"]:
            report = plain_estimate(MARKET, spec, runs, seed=seed, batch_size=batch_size)
        else:
            form, source = estimator
            weights = np.linspace(0.5, 1.5, n) if form == FORM_CUSTOM else None
            control = ControlSpec(form=form, coefficient_source=source, weights=weights)
            report = cv_estimate(MARKET, spec, control, runs, seed=seed, batch_size=batch_size)
    return {"bits": report_bits(report), "notes": list(report.notes)}


def digest(entry: dict) -> str:
    return hashlib.sha256(json.dumps(entry, sort_keys=True).encode()).hexdigest()


def grid(runs: int | None = None) -> dict[str, dict]:
    return {key: report_of(key) for key in keys(runs)}


def pinned(runs: int | None = None) -> dict[str, str]:
    """The pinned digests of the grid's calls (with runs runs alone if given)."""
    pins = json.loads(PINS.read_text())
    return {key: pins[key] for key in keys(runs)}


def moved(old: dict[str, dict], new: dict[str, dict]) -> dict[str, str]:
    """Per report that differs between two dumps, what moved: the largest
    relative change of its numbers, or its shape, run counts or notes."""
    changes = {}
    for key in sorted(old.keys() & new.keys()):
        a, b = old[key], new[key]
        if a == b:
            continue
        what = []
        if len(a["bits"]) != len(b["bits"]) or a["bits"][-2:] != b["bits"][-2:]:
            counts = f"run counts {a['bits'][-2:]} -> {b['bits'][-2:]}"
            what.append(f"numbers {len(a['bits'])} -> {len(b['bits'])}, {counts}")
        else:
            largest = 0.0
            for x, y in zip(a["bits"][:-2], b["bits"][:-2]):
                x, y = float.fromhex(x), float.fromhex(y)
                if x != y:
                    scale = max(abs(x), abs(y))
                    largest = max(largest, abs(x - y) / scale if math.isfinite(scale) else math.inf)
            if largest:
                what.append(f"largest relative change {largest:.3g}")
        if a["notes"] != b["notes"]:
            what.append("notes changed")
        changes[key] = "; ".join(what)
    return changes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="compare the grid with the pinned digests")
    mode.add_argument("--pin", action="store_true", help="rewrite the pinned digests")
    mode.add_argument("--dump", metavar="FILE", help="write every report of the grid to FILE")
    mode.add_argument("--diff", nargs=2, metavar=("OLD", "NEW"), help="compare two dumps")
    parser.add_argument("--runs", type=int, help="only the calls with this many runs (--check and --dump)")
    args = parser.parse_args(argv)
    if args.diff:
        old, new = (json.loads(Path(name).read_text()) for name in args.diff)
        changes = moved(old, new)
        for key, what in changes.items():
            print(f"{key}: {what}")
        common, one_only = len(old.keys() & new.keys()), len(old.keys() ^ new.keys())
        print(f"{len(changes)} of {common} reports moved; {one_only} in one dump only")
        return 1 if changes or one_only else 0
    if args.pin:
        PINS.write_text(json.dumps({key: digest(entry) for key, entry in grid().items()}, indent=1) + "\n")
        return 0
    reports = grid(args.runs)
    if args.dump:
        Path(args.dump).write_text(json.dumps(reports, indent=1) + "\n")
        return 0
    expected = pinned(args.runs)
    differing = [key for key, entry in reports.items() if digest(entry) != expected[key]]
    for key in differing:
        print(f"moved: {key}")
    print(f"{len(differing)} of {len(reports)} reports differ from {PINS.name}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
