"""
Pricing basics: paths, payoffs, and plain Monte Carlo
=====================================================

Simulate daily GBM price paths, evaluate path-dependent payoffs on them,
and validate the plain Monte Carlo estimator against the Black-Scholes
closed form for a vanilla call.
"""

import numpy as np

from cvmc import (
    ContractSpec,
    LogReturnSampler,
    MarketModel,
    black_scholes_call,
    discounted_payoff,
    plain_estimate,
    prices_from_log_returns,
)

# A year of daily steps at 20% vol, 5% rates, starting from 100.
model = MarketModel(initial_price=100.0, rate=0.05, volatility=0.2)
print(f"daily log-return law: Normal({model.daily_mean:.3e}, {model.daily_variance:.3e})")

# Each run index has its own reproducible draws: a row of the SFC64 block
# seeded by SeedSequence(seed, spawn_key=(index // 4096,)).
for run in range(3):
    x = LogReturnSampler(model, 5, seed=42).rows(run, run + 1)[0]
    prices = prices_from_log_returns(model, x)
    print(f"run {run}: first five closes {np.round(prices, 2)}")

# Payoffs act on the closing prices of one path (n,) or a batch (runs, n).
x = LogReturnSampler(model, 30, seed=42).rows(0, 1)[0]
prices = prices_from_log_returns(model, x)
asian = ContractSpec(kind="asian_fixed_strike", days_to_maturity=30, strike=100.0)
lookback = ContractSpec(kind="lookback_floating", days_to_maturity=30)
print(f"\nasian fixed-strike payoff on run 0:  {discounted_payoff(model, asian, prices):.4f}")
print(f"lookback floating payoff on run 0:   {discounted_payoff(model, lookback, prices):.4f}")

# Plain Monte Carlo on the vanilla call converges to the closed form.
call = ContractSpec(kind="european_call", days_to_maturity=252, strike=100.0)
report = plain_estimate(model, call, runs=50_000, seed=2024)
reference = black_scholes_call(model, call)
z = (report.estimate - reference) / report.standard_error
print(f"\nplain MC european call: {report.estimate:.4f} +- {report.standard_error:.4f}")
print(f"Black-Scholes:          {reference:.4f}   (z = {z:+.2f})")

# The standard error shrinks like 1/sqrt(R).
for runs in (5_000, 20_000, 80_000):
    se = plain_estimate(model, call, runs=runs, seed=2024).standard_error
    print(f"runs={runs:>6}: standard error {se:.4f}")
