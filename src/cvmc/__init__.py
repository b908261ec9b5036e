"""Monte Carlo valuation of path-dependent options with control variates.

The package prices Asian and lookback options under risk-neutral GBM by
simulating daily log-returns, and reduces estimator variance with control
variates built from those log-returns: a single terminal-log control, a
caller-weighted linear combination, or one control per day, whose daily
coefficients are fitted by least squares on the span of {1, i/n}, on a
pilot or in-sample. An exact finite-distribution oracle verifies the
underlying correlation inequality and the optimal-coefficient identities
by enumeration.
"""

__version__ = "0.9.1"

from .estimators import (
    ControlCoefficients,
    ControlSpec,
    EstimatorReport,
    MomentAccumulator,
    cv_estimate,
    insample_variance,
    optimal_betas,
    plain_estimate,
)
from .model import LogReturnSampler, MarketModel, prices_from_log_returns
from .oracle import (
    ExactMoments,
    FiniteJointDistribution,
    InequalityCheck,
    InequalityTrialSummary,
    brute_force_cv_variance,
    exact_moments,
    run_inequality_trials,
    correlation_inequality_check,
)
from .payoffs import (
    ASIAN_FIXED,
    ASIAN_FLOATING,
    CONTRACT_KINDS,
    EUROPEAN_CALL,
    LOOKBACK_FLOATING,
    ContractSpec,
    black_scholes_call,
    discount_factor,
    discounted_payoff,
)

__all__ = [
    "__version__",
    "MarketModel",
    "LogReturnSampler",
    "prices_from_log_returns",
    "ContractSpec",
    "CONTRACT_KINDS",
    "ASIAN_FLOATING",
    "ASIAN_FIXED",
    "LOOKBACK_FLOATING",
    "EUROPEAN_CALL",
    "discount_factor",
    "discounted_payoff",
    "black_scholes_call",
    "MomentAccumulator",
    "ControlSpec",
    "ControlCoefficients",
    "EstimatorReport",
    "plain_estimate",
    "cv_estimate",
    "optimal_betas",
    "insample_variance",
    "FiniteJointDistribution",
    "ExactMoments",
    "InequalityCheck",
    "InequalityTrialSummary",
    "exact_moments",
    "correlation_inequality_check",
    "brute_force_cv_variance",
    "run_inequality_trials",
]
