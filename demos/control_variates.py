"""
Control variates over daily log-returns
========================================

Compare three estimators of an Asian fixed-strike call price:

  plain      sample mean of the discounted payoff Y
  single     W = Y + c (V - E[V]) with V = ln(S_d(n)/S(0)) = sum_i X(i),
             the custom weighting w = (1, ..., 1)
  multi      W = Y + sum_i beta_i (X(i) - E[X(i)]), one control per daily
             log-return, with beta_i = a + b*i/n fitted by least squares
             on the pilot

No weighting of the X(i) can beat the per-day bound
1 - sum_i corr^2(Y, X(i)); the pilot's fit on the span of {1, i/n} comes
close to it.
"""

import numpy as np

from cvmc import ContractSpec, ControlSpec, MarketModel, cv_estimate, plain_estimate

model = MarketModel(initial_price=100.0, rate=0.05, volatility=0.2)
asian = ContractSpec(kind="asian_fixed_strike", days_to_maturity=30, strike=100.0)
RUNS, SEED = 50_000, 20240601

plain = plain_estimate(model, asian, RUNS, seed=SEED)
single = cv_estimate(model, asian, ControlSpec(form="single_terminal_log"), RUNS, seed=SEED)
multi = cv_estimate(model, asian, ControlSpec(form="multi_log_returns"), RUNS, seed=SEED)

print(f"{'estimator':<10}{'estimate':>12}{'std error':>12}{'var ratio':>12}{'predicted':>12}")
for name, rep in (("plain", plain), ("single", single), ("multi", multi)):
    print(
        f"{name:<10}{rep.estimate:>12.5f}{rep.standard_error:>12.5f}"
        f"{rep.empirical_variance_ratio:>12.4f}{rep.predicted_variance_ratio:>12.4f}"
    )

speedup = plain.standard_error**2 / multi.standard_error**2 * plain.runs_used / multi.runs_used
print(f"\nmulti-control variance reduction is worth ~{speedup:.1f}x more runs of plain MC")

# The pilot fits the multipliers on a line in the day index, a + b*i/n, and
# they shrink along it: early log-returns enter more of the running average,
# so they correlate more with the payoff.
betas = multi.coefficients.values
corrs = multi.per_control_correlations
print("\nday   beta       corr(Y, X(i))")
for i in (0, 4, 9, 19, 29):
    print(f"{i + 1:<6}{betas[i]:>8.1f}   {corrs[i]:>8.4f}")

# Equal weights are the line a + b*i/n at b = 0, which the pilot's
# least-squares fit ranges over.
# Every form is rows of day weights, and the single control is the custom
# one with unit weights: this equal-weight report *is* single's, bit for bit.
custom = cv_estimate(
    model,
    asian,
    ControlSpec(form="custom_linear", weights=np.ones(30)),
    RUNS,
    seed=SEED,
)
assert (custom.estimate, custom.standard_error) == (single.estimate, single.standard_error)
print(
    f"\ncustom equal weights ratio {custom.empirical_variance_ratio:.4f} (single's) "
    f">= multi ratio {multi.empirical_variance_ratio:.4f}"
)

# in_sample mode fits the same span {1, i/n} as the pilot, on every run:
# coefficients and mean from the same runs, at the cost of an O(1/R) bias
# and a sample var(W) a little low, both documented in the report notes.
in_sample = cv_estimate(
    model,
    asian,
    ControlSpec(form="multi_log_returns", coefficient_source="in_sample"),
    RUNS,
    seed=SEED,
)
print(f"\nin_sample estimate {in_sample.estimate:.5f}")
for note in in_sample.notes:
    print(f"  note: {note}")
