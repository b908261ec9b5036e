"""Discounted payoffs of the supported contracts.

All payoffs have the form exp(-r*n/N) * (...)^+ over the n daily closing
prices S_d(1)..S_d(n); the day-0 price never enters an average or a
minimum. The vanilla European call exists purely as a closed-form
validation target for the simulation engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ArgumentError, MarketModel, positive_integer

ASIAN_FLOATING = "asian_floating_strike"
ASIAN_FIXED = "asian_fixed_strike"
LOOKBACK_FLOATING = "lookback_floating"
EUROPEAN_CALL = "european_call"

CONTRACT_KINDS = frozenset({ASIAN_FLOATING, ASIAN_FIXED, LOOKBACK_FLOATING, EUROPEAN_CALL})
STRIKE_KINDS = frozenset({ASIAN_FIXED, EUROPEAN_CALL})


@dataclass(frozen=True)
class ContractSpec:
    """Contract terms: payoff kind, days to maturity, and strike if the
    payoff uses one (asian_fixed_strike and european_call only)."""

    kind: str
    days_to_maturity: int
    strike: float | None = None

    def __post_init__(self):
        if self.kind not in CONTRACT_KINDS:
            raise ValueError(
                f"unknown contract kind {self.kind!r}; expected one of {sorted(CONTRACT_KINDS)}"
            )
        object.__setattr__(self, "days_to_maturity", positive_integer("days_to_maturity", self.days_to_maturity))
        if self.kind in STRIKE_KINDS:
            if self.strike is None:
                raise ValueError(f"{self.kind} requires a strike")
            if not math.isfinite(self.strike) or self.strike <= 0:
                raise ValueError(f"strike must be > 0 and finite, got {self.strike!r}")
        elif self.strike is not None:
            raise ValueError(f"{self.kind} takes no strike, got {self.strike!r}")


def discount_factor(model: MarketModel, spec: ContractSpec) -> float:
    """exp(-r*n/N), the discount over the contract's n days.

    Raises ArgumentError naming the rate where it overflows floating point.
    """
    exponent = -model.rate * spec.days_to_maturity / model.trading_days_per_year
    try:
        return math.exp(exponent)
    except OverflowError:
        raise ArgumentError(
            "rate",
            f"rate {model.rate} over {spec.days_to_maturity} days overflows the discount factor "
            f"exp({exponent:.6g}) in floating point",
        ) from None


def discounted_payoff(model: MarketModel, spec: ContractSpec, prices: np.ndarray) -> np.ndarray:
    """Discounted payoff for one path (n,) or a batch of paths (runs, n).

    With K the strike and S_d(1)..S_d(n) the closing prices:
        asian_floating_strike  exp(-r*n/N) * ( S_d(n) - mean_j S_d(j) )^+
        asian_fixed_strike     exp(-r*n/N) * ( mean_j S_d(j) - K )^+
        lookback_floating      exp(-r*n/N) * ( S_d(n) - min_j S_d(j) )^+
        european_call          exp(-r*n/N) * ( S_d(n) - K )^+

    Returns a scalar for a single path, a (runs,) vector for a batch.
    The result is nonnegative on every path.
    """
    prices = np.asarray(prices)
    if prices.shape[-1] != spec.days_to_maturity:
        raise ValueError(
            f"path covers {prices.shape[-1]} days but contract has "
            f"{spec.days_to_maturity} days to maturity"
        )
    terminal = prices[..., -1]
    if spec.kind == ASIAN_FLOATING:
        intrinsic = terminal - prices.mean(axis=-1)
    elif spec.kind == ASIAN_FIXED:
        intrinsic = prices.mean(axis=-1) - spec.strike
    elif spec.kind == LOOKBACK_FLOATING:
        # The minimum includes day n, so the positive part never binds;
        # kept for safety against payoff variants that exclude it.
        intrinsic = terminal - prices.min(axis=-1)
    else:  # EUROPEAN_CALL
        intrinsic = terminal - spec.strike
    return discount_factor(model, spec) * np.maximum(intrinsic, 0.0)


def black_scholes_call(model: MarketModel, spec: ContractSpec) -> float:
    """Closed-form call value with maturity T = n/N years.

    Used to validate the plain Monte Carlo estimator. Requires
    volatility > 0; the zero-volatility model prices the call as the
    discounted deterministic payoff instead.
    """
    if spec.strike is None:
        raise ValueError("black_scholes_call requires a strike")
    if model.volatility <= 0:
        raise ValueError("black_scholes_call requires volatility > 0")
    s0 = model.initial_price
    k = spec.strike
    t = spec.days_to_maturity / model.trading_days_per_year
    sig_sqrt_t = model.volatility * math.sqrt(t)
    d1 = (math.log(s0 / k) + (model.rate + 0.5 * model.volatility**2) * t) / sig_sqrt_t
    d2 = d1 - sig_sqrt_t
    return s0 * _normal_cdf(d1) - k * math.exp(-model.rate * t) * _normal_cdf(d2)


def _normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))
