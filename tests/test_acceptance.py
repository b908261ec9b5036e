"""Acceptance suite: each test is one release criterion at its stated
tolerance and prints one PASS/FAIL line (run with `pytest -v -s`)."""

import json
import math
import time
from pathlib import Path

import numpy as np

from cvmc import (
    ASIAN_FIXED,
    ContractSpec,
    ControlSpec,
    LogReturnSampler,
    MarketModel,
    black_scholes_call,
    brute_force_cv_variance,
    cv_estimate,
    discounted_payoff,
    exact_moments,
    plain_estimate,
    prices_from_log_returns,
    run_inequality_trials,
)
from cvmc.cli import compare_estimators, run_scenario
from cvmc.oracle import FiniteJointDistribution, random_joint_law, correlation_inequality_check

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
ASIAN_BENCHMARK = str(SCENARIOS / "asian_fixed_benchmark.yaml")
LOOKBACK_BENCHMARK = str(SCENARIOS / "lookback_benchmark.yaml")
EUROPEAN_VALIDATION = str(SCENARIOS / "european_call_validation.yaml")

MARKET = MarketModel(initial_price=100.0, rate=0.05, volatility=0.2)
ASIAN = ContractSpec(kind=ASIAN_FIXED, days_to_maturity=30, strike=100.0)


def _check(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"[ACCEPTANCE {number}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_criterion_1_black_scholes_agreement():
    started = time.perf_counter()
    report = run_scenario(EUROPEAN_VALIDATION)
    elapsed = time.perf_counter() - started
    target = black_scholes_call(
        MARKET, ContractSpec(kind="european_call", days_to_maturity=252, strike=100.0)
    )
    z = (report.results["estimate"] - target) / report.results["standard_error"]
    ok = abs(z) <= 3.0 and elapsed < 10.0
    _check(
        1,
        "Black-Scholes agreement",
        ok,
        f"MC={report.results['estimate']:.4f} BS={target:.4f} |z|={abs(z):.2f} (<=3), "
        f"runtime {elapsed:.1f}s (<10s), R=200000 single-threaded",
    )


def test_criterion_2_predicted_vs_empirical_ratio():
    started = time.perf_counter()
    report = run_scenario(ASIAN_BENCHMARK)
    elapsed = time.perf_counter() - started
    gap = abs(
        report.results["empirical_variance_ratio"] - report.results["predicted_variance_ratio"]
    )
    ok = gap <= 0.05 and elapsed < 30.0
    _check(
        2,
        "variance-ratio self-consistency",
        ok,
        f"empirical={report.results['empirical_variance_ratio']:.4f} "
        f"predicted={report.results['predicted_variance_ratio']:.4f} "
        f"|gap|={gap:.4f} (<=0.05), runtime {elapsed:.1f}s (<30s)",
    )


def test_criterion_3_paired_seed_dominance():
    details = []
    ok = True
    for path, label in ((ASIAN_BENCHMARK, "asian"), (LOOKBACK_BENCHMARK, "lookback")):
        comparison = compare_estimators(path)
        plain_r, single_r, multi_r = (
            row["empirical_variance_ratio"] for row in comparison.rows
        )
        ok = ok and multi_r <= single_r + 0.02 and single_r <= plain_r + 0.02 and plain_r == 1.0
        details.append(f"{label}: plain={plain_r:.3f} single={single_r:.3f} multi={multi_r:.3f}")
    _check(3, "multi <= single <= plain dominance (paired seeds)", ok, "; ".join(details))


def test_criterion_4_correlation_inequality_oracle():
    started = time.perf_counter()
    summary = run_inequality_trials(1000, seed=20240401)
    elapsed = time.perf_counter() - started
    witness_dist = FiniteJointDistribution.independent(
        [([-1.0, 1.0], [0.5, 0.5])] * 3
    ).with_target(lambda row: row[0])
    witness = correlation_inequality_check(witness_dist, [1.0, 0.0, 0.0])
    ok = (
        summary.passes == 1000
        and summary.max_violation <= 1e-12
        and abs(witness.lhs - 1.0) <= 1e-12
        and abs(witness.rhs - 1.0) <= 1e-12
        and elapsed < 5.0
    )
    _check(
        4,
        "exact correlation-inequality trials",
        ok,
        f"{summary.passes}/1000 hold, max(lhs-rhs)={summary.max_violation:.2e} (<=1e-12), "
        f"equality witness lhs=rhs={witness.lhs:.12f}, runtime {elapsed:.1f}s (<5s)",
    )


def test_criterion_5_enumeration_identities():
    rng = np.random.default_rng(20240501)
    worst_gap = 0.0
    strict_checked = 0
    ok = True
    for _ in range(100):
        dist = random_joint_law(rng)
        m = exact_moments(dist)
        c_star = -m.covariance[0, 1] / m.variance(1)
        at_optimum = brute_force_cv_variance(dist, c_star)
        predicted = m.variance(0) * (1.0 - m.correlation(0, 1) ** 2)
        worst_gap = max(worst_gap, abs(at_optimum - predicted))
        ok = ok and abs(at_optimum - predicted) <= 1e-12
        if abs(m.correlation(0, 1)) < 1.0 - 1e-9:
            strict_checked += 1
            ok = ok and brute_force_cv_variance(dist, c_star + 0.1) > at_optimum
            ok = ok and brute_force_cv_variance(dist, c_star - 0.1) > at_optimum
    _check(
        5,
        "optimal-coefficient enumeration identities",
        ok,
        f"100 laws, worst |var gap|={worst_gap:.2e} (<=1e-12), "
        f"strict convexity at c*+-0.1 on {strict_checked} laws",
    )


def test_criterion_6_degenerate_exactness(tmp_path):
    model = MarketModel(initial_price=100.0, rate=0.05, volatility=0.0)
    x = LogReturnSampler(model, 5, seed=1).rows(0, 1)[0]
    prices = prices_from_log_returns(model, x)
    expected_prices = 100.0 * np.exp(0.05 * np.arange(1, 6) / 252)
    prices_ok = np.allclose(prices, expected_prices, rtol=1e-12)

    spec = ContractSpec(kind=ASIAN_FIXED, days_to_maturity=5, strike=90.0)
    report = plain_estimate(model, spec, 1000, seed=1)
    direct = float(discounted_payoff(model, spec, prices))
    scenario = tmp_path / "zero_vol.yaml"
    scenario.write_text(
        "market: {initial_price: 100.0, rate: 0.05, volatility: 0.0}\n"
        "contract: {kind: asian_fixed_strike, days_to_maturity: 5, strike: 90.0}\n"
        "runs: 1000\nseed: 1\nestimator: plain\n"
    )
    cli_report = run_scenario(str(scenario))
    ok = (
        prices_ok
        and report.estimate == direct
        and report.standard_error == 0.0
        and cli_report.results["estimate"] == direct
        and cli_report.results["standard_error"] == 0.0
    )
    _check(
        6,
        "zero-volatility scenarios are exact",
        ok,
        f"prices match S0*e^(ri/N) to 1e-12 rel, estimate={report.estimate!r} equals the "
        f"deterministic payoff bit-for-bit, standard_error={report.standard_error!r}",
    )


def test_criterion_7_standard_error_scaling():
    ratios = []
    for k in range(20):
        seed = 9000 + k
        small = plain_estimate(MARKET, ASIAN, 100_000, seed=seed)
        large = plain_estimate(MARKET, ASIAN, 400_000, seed=seed)
        ratios.append(small.standard_error / large.standard_error)
    mean_ratio = float(np.mean(ratios))
    ok = abs(mean_ratio / 2.0 - 1.0) <= 0.10
    _check(
        7,
        "standard error halves when runs quadruple",
        ok,
        f"mean SE ratio over 20 macro-replications = {mean_ratio:.4f} (within 2 +- 10%)",
    )


def test_criterion_8_pilot_mode_unbiasedness():
    diffs = []
    for k in range(50):
        seed = 7000 + k
        cv = cv_estimate(
            MARKET, ASIAN, ControlSpec(form="multi_log_returns"), 100_000, seed=seed
        )
        plain = plain_estimate(MARKET, ASIAN, 100_000, seed=seed)
        diffs.append(cv.estimate - plain.estimate)
    diffs = np.array(diffs)
    combined_se = diffs.std(ddof=1) / math.sqrt(len(diffs))
    ok = abs(diffs.mean()) < 4 * combined_se
    _check(
        8,
        "pilot-mode control variates are unbiased",
        ok,
        f"|mean(W - Y)| = {abs(diffs.mean()):.2e} < 4*SE = {4 * combined_se:.2e} "
        f"over 50 macro-replications",
    )


def test_criterion_9_bit_identical_reproducibility():
    first = run_scenario(ASIAN_BENCHMARK)
    second = run_scenario(ASIAN_BENCHMARK)
    price_ok = json.dumps(first.results) == json.dumps(second.results)
    cmp_first = compare_estimators(LOOKBACK_BENCHMARK, runs=20000)
    cmp_second = compare_estimators(LOOKBACK_BENCHMARK, runs=20000)
    compare_ok = json.dumps(cmp_first.rows) == json.dumps(cmp_second.rows)
    ok = price_ok and compare_ok
    _check(
        9,
        "bit-identical reports for identical scenario+seed",
        ok,
        "price and compare numerics reproduce byte-for-byte; runs are batched at the "
        "scenario's fixed batch size and merged in ascending order, so the numbers do "
        "not depend on thread count",
    )
