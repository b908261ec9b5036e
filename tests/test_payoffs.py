import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvmc import (
    ASIAN_FIXED,
    ASIAN_FLOATING,
    EUROPEAN_CALL,
    LOOKBACK_FLOATING,
    ContractSpec,
    MarketModel,
    black_scholes_call,
    discounted_payoff,
)
from cvmc.payoffs import discount_factor

RISKLESS = MarketModel(initial_price=100.0, rate=0.0, volatility=0.2)
MARKET = MarketModel(initial_price=100.0, rate=0.05, volatility=0.2)


def path_of(prices):
    """The closing prices S_d(1)..S_d(n) of one path."""
    return np.asarray(prices, dtype=float)


class TestContractSpec:
    def test_strike_required_for_fixed_and_european(self):
        with pytest.raises(ValueError):
            ContractSpec(kind=ASIAN_FIXED, days_to_maturity=5)
        with pytest.raises(ValueError):
            ContractSpec(kind=EUROPEAN_CALL, days_to_maturity=5)

    def test_strike_forbidden_otherwise(self):
        with pytest.raises(ValueError):
            ContractSpec(kind=LOOKBACK_FLOATING, days_to_maturity=5, strike=100.0)
        with pytest.raises(ValueError):
            ContractSpec(kind=ASIAN_FLOATING, days_to_maturity=5, strike=100.0)

    @pytest.mark.parametrize(
        "bad",
        [
            dict(kind="asian"),
            dict(days_to_maturity=0),
            dict(strike=-5.0),
            # a count is a Python or numpy integer, not a bool or a float
            dict(days_to_maturity=True),
            dict(days_to_maturity=np.True_),
            dict(days_to_maturity=30.0),
        ],
    )
    def test_rejects_bad_fields(self, bad):
        kwargs = dict(kind=ASIAN_FIXED, days_to_maturity=5, strike=100.0)
        kwargs.update(bad)
        with pytest.raises(ValueError):
            ContractSpec(**kwargs)

    @pytest.mark.parametrize("days", [np.int64(30), np.int32(30), np.uint8(30)], ids=["int64", "int32", "uint8"])
    def test_numpy_integer_days_are_stored_as_int(self, days):
        spec = ContractSpec(kind=LOOKBACK_FLOATING, days_to_maturity=days)
        assert type(spec.days_to_maturity) is int and spec.days_to_maturity == 30
        assert spec == ContractSpec(kind=LOOKBACK_FLOATING, days_to_maturity=30)


class TestAsianFloating:
    def test_constant_path_is_worthless(self):
        spec = ContractSpec(kind=ASIAN_FLOATING, days_to_maturity=3)
        assert discounted_payoff(RISKLESS, spec, path_of([100, 100, 100])) == 0.0

    def test_terminal_above_average(self):
        spec = ContractSpec(kind=ASIAN_FLOATING, days_to_maturity=2)
        assert discounted_payoff(RISKLESS, spec, path_of([90, 110])) == pytest.approx(10.0, abs=1e-12)

    def test_positive_part_binds(self):
        spec = ContractSpec(kind=ASIAN_FLOATING, days_to_maturity=2)
        assert discounted_payoff(RISKLESS, spec, path_of([110, 90])) == 0.0


class TestAsianFixed:
    def test_constant_path_in_the_money(self):
        spec = ContractSpec(kind=ASIAN_FIXED, days_to_maturity=2, strike=90.0)
        assert discounted_payoff(RISKLESS, spec, path_of([100, 100])) == pytest.approx(10.0, abs=1e-12)

    def test_constant_path_out_of_the_money(self):
        spec = ContractSpec(kind=ASIAN_FIXED, days_to_maturity=2, strike=110.0)
        assert discounted_payoff(RISKLESS, spec, path_of([100, 100])) == 0.0

    def test_discounted_value(self):
        spec = ContractSpec(kind=ASIAN_FIXED, days_to_maturity=3, strike=95.0)
        got = discounted_payoff(MARKET, spec, path_of([100, 110, 90]))
        assert got == pytest.approx(math.exp(-0.05 * 3 / 252) * 5.0, rel=1e-12)


class TestLookback:
    def test_monotone_increasing(self):
        spec = ContractSpec(kind=LOOKBACK_FLOATING, days_to_maturity=3)
        assert discounted_payoff(RISKLESS, spec, path_of([100, 105, 112])) == pytest.approx(12.0, abs=1e-12)

    def test_monotone_decreasing_terminal_is_minimum(self):
        spec = ContractSpec(kind=LOOKBACK_FLOATING, days_to_maturity=3)
        assert discounted_payoff(RISKLESS, spec, path_of([110, 100, 90])) == 0.0

    def test_constant_path(self):
        spec = ContractSpec(kind=LOOKBACK_FLOATING, days_to_maturity=3)
        assert discounted_payoff(RISKLESS, spec, path_of([100, 100, 100])) == 0.0


class TestEuropeanCall:
    def test_in_the_money(self):
        spec = ContractSpec(kind=EUROPEAN_CALL, days_to_maturity=2, strike=100.0)
        assert discounted_payoff(RISKLESS, spec, path_of([100, 120])) == pytest.approx(20.0, abs=1e-12)

    def test_out_of_the_money(self):
        spec = ContractSpec(kind=EUROPEAN_CALL, days_to_maturity=2, strike=100.0)
        assert discounted_payoff(RISKLESS, spec, path_of([100, 80])) == 0.0

    def test_one_year_discounting(self):
        spec = ContractSpec(kind=EUROPEAN_CALL, days_to_maturity=252, strike=100.0)
        prices = np.full(252, 100.0)
        prices[-1] = 130.0
        got = discounted_payoff(MARKET, spec, path_of(prices))
        assert got == pytest.approx(math.exp(-0.05) * 30.0, rel=1e-12)


class TestPayoffContracts:
    def test_length_mismatch_rejected(self):
        spec = ContractSpec(kind=LOOKBACK_FLOATING, days_to_maturity=3)
        with pytest.raises(ValueError):
            discounted_payoff(MARKET, spec, path_of([100, 100]))

    def test_batch_matches_per_path(self):
        spec = ContractSpec(kind=ASIAN_FIXED, days_to_maturity=4, strike=100.0)
        rng = np.random.default_rng(7)
        prices = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.02, size=(8, 4)), axis=1))
        batch = discounted_payoff(MARKET, spec, prices)
        per_path = [discounted_payoff(MARKET, spec, row) for row in prices]
        assert np.array_equal(batch, per_path)

    @given(st.lists(st.floats(min_value=1.0, max_value=1000.0), min_size=1, max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_all_payoffs_nonnegative(self, prices):
        n = len(prices)
        path = path_of(prices)
        specs = [
            ContractSpec(kind=ASIAN_FLOATING, days_to_maturity=n),
            ContractSpec(kind=ASIAN_FIXED, days_to_maturity=n, strike=50.0),
            ContractSpec(kind=LOOKBACK_FLOATING, days_to_maturity=n),
            ContractSpec(kind=EUROPEAN_CALL, days_to_maturity=n, strike=50.0),
        ]
        for spec in specs:
            assert discounted_payoff(MARKET, spec, path) >= 0.0

    @given(
        st.lists(st.floats(min_value=1.0, max_value=1000.0), min_size=1, max_size=20),
        st.floats(min_value=1.0, max_value=500.0),
        st.floats(min_value=1.0, max_value=500.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_nonincreasing_in_strike(self, prices, k1, k2):
        lo, hi = sorted((k1, k2))
        n = len(prices)
        path = path_of(prices)
        for kind in (ASIAN_FIXED, EUROPEAN_CALL):
            cheap = discounted_payoff(
                MARKET, ContractSpec(kind=kind, days_to_maturity=n, strike=hi), path
            )
            rich = discounted_payoff(
                MARKET, ContractSpec(kind=kind, days_to_maturity=n, strike=lo), path
            )
            assert rich >= cheap

    @pytest.mark.parametrize("n", [1, 30, 252])
    @pytest.mark.parametrize("runs", [1, 2, 250, 1000])
    def test_the_payoffs_keep_the_bits_of_the_mean_and_min_methods(self, runs, n):
        # rows, the (runs, n) view of a day-major buffer, and one path
        rng = np.random.default_rng(runs * 1000 + n)
        rows = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.02, size=(runs, n)), axis=1))
        day_major = np.empty((n, runs)).T
        day_major[...] = rows
        for prices in (rows, day_major, rows[0]):
            mean, least, terminal = prices.mean(axis=-1), prices.min(axis=-1), prices[..., -1]
            intrinsic = {
                ASIAN_FLOATING: terminal - mean,
                ASIAN_FIXED: mean - 100.0,
                LOOKBACK_FLOATING: terminal - least,
                EUROPEAN_CALL: terminal - 100.0,
            }
            for kind, value in intrinsic.items():
                strike = 100.0 if kind in (ASIAN_FIXED, EUROPEAN_CALL) else None
                spec = ContractSpec(kind=kind, days_to_maturity=n, strike=strike)
                expected = discount_factor(MARKET, spec) * np.maximum(value, 0.0)
                assert np.asarray(discounted_payoff(MARKET, spec, prices)).tobytes() == np.asarray(expected).tobytes()

    def test_zero_rate_means_no_discounting(self):
        spec = ContractSpec(kind=ASIAN_FIXED, days_to_maturity=3, strike=95.0)
        path = path_of([100, 110, 90])
        undiscounted = max(np.mean(path) - 95.0, 0.0)
        assert discounted_payoff(RISKLESS, spec, path) == pytest.approx(undiscounted, rel=1e-14)

    def test_lookback_equals_european_struck_at_minimum(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            prices = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.02, size=6)))
            path = path_of(prices)
            lb = discounted_payoff(
                MARKET, ContractSpec(kind=LOOKBACK_FLOATING, days_to_maturity=6), path
            )
            eu = discounted_payoff(
                MARKET,
                ContractSpec(kind=EUROPEAN_CALL, days_to_maturity=6, strike=float(prices.min())),
                path,
            )
            assert lb == eu


class TestBlackScholes:
    def test_at_the_money_zero_rate(self):
        # 100*(2*Phi(0.1) - 1), cumulative normal evaluated at 50 digits
        model = MarketModel(initial_price=100.0, rate=0.0, volatility=0.2)
        spec = ContractSpec(kind=EUROPEAN_CALL, days_to_maturity=252, strike=100.0)
        assert black_scholes_call(model, spec) == pytest.approx(7.965567455405796, abs=1e-10)

    def test_pinned_off_the_money_value(self):
        # independent high-precision evaluation of the closed form
        model = MarketModel(initial_price=100.0, rate=0.03, volatility=0.25)
        spec = ContractSpec(kind=EUROPEAN_CALL, days_to_maturity=126, strike=110.0)
        assert black_scholes_call(model, spec) == pytest.approx(3.8985511831850602, abs=1e-10)

    def test_deep_in_the_money_low_volatility_limit(self):
        model = MarketModel(initial_price=100.0, rate=0.05, volatility=1e-4)
        spec = ContractSpec(kind=EUROPEAN_CALL, days_to_maturity=252, strike=50.0)
        intrinsic = 100.0 - 50.0 * math.exp(-0.05)
        assert black_scholes_call(model, spec) == pytest.approx(intrinsic, abs=1e-6)

    def test_increasing_in_volatility(self):
        spec = ContractSpec(kind=EUROPEAN_CALL, days_to_maturity=252, strike=100.0)
        low = black_scholes_call(MarketModel(100.0, 0.05, 0.2), spec)
        high = black_scholes_call(MarketModel(100.0, 0.05, 0.3), spec)
        assert high > low

    def test_rejects_a_contract_without_strike(self):
        spec = ContractSpec(kind=ASIAN_FLOATING, days_to_maturity=5)
        with pytest.raises(ValueError, match="requires a strike"):
            black_scholes_call(MARKET, spec)

    def test_rejects_zero_volatility(self):
        model = MarketModel(initial_price=100.0, rate=0.05, volatility=0.0)
        spec = ContractSpec(kind=EUROPEAN_CALL, days_to_maturity=252, strike=100.0)
        with pytest.raises(ValueError):
            black_scholes_call(model, spec)
