import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvmc import LogReturnSampler, MarketModel, prices_from_log_returns
from cvmc.model import STREAM_BLOCK_ROWS, STREAM_CONTRACT_VERSION, check_seed


SQRT_MAX_FLOAT = 1.3407807929942596e154


@pytest.fixture
def market():
    return MarketModel(initial_price=100.0, rate=0.05, volatility=0.2)


class TestMarketModel:
    def test_daily_moments(self, market):
        assert market.drift == 0.05 - 0.5 * 0.2**2
        assert market.daily_mean == market.drift / 252
        assert market.daily_variance == 0.2**2 / 252

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(initial_price=0.0, rate=0.05, volatility=0.2),
            dict(initial_price=-1.0, rate=0.05, volatility=0.2),
            dict(initial_price=100.0, rate=0.05, volatility=-0.1),
            dict(initial_price=math.inf, rate=0.05, volatility=0.2),
            dict(initial_price=100.0, rate=math.nan, volatility=0.2),
            dict(initial_price=100.0, rate=0.05, volatility=0.2, trading_days_per_year=0),
            # volatility^2 overflows: the first float above sqrt(max float), and far above it
            dict(initial_price=100.0, rate=0.05, volatility=math.nextafter(SQRT_MAX_FLOAT, math.inf)),
            dict(initial_price=100.0, rate=0.05, volatility=1e200),
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            MarketModel(**kwargs)

    def test_seed_bounds(self, market):
        check_seed(0)
        check_seed(np.uint64(2**64 - 1))
        last = LogReturnSampler(market, 1, 2**64 - 1).rows(2**64 - 1, 2**64)
        assert last.shape == (1, 1)
        numpy_seed = LogReturnSampler(market, 5, np.int64(1)).rows(0, 3)
        assert np.array_equal(numpy_seed, LogReturnSampler(market, 5, 1).rows(0, 3))
        # a float or bool seed would alias an integer one (1.7 and True draw seed 1)
        for seed in (-1, 2**64, 1.7, 1.0, True, np.bool_(True), np.float64(1.0), "1", None):
            with pytest.raises(ValueError, match="seed must be a 64-bit unsigned integer"):
                check_seed(seed)
            with pytest.raises(ValueError, match="seed must be a 64-bit unsigned integer"):
                LogReturnSampler(market, 1, seed)
        with pytest.raises(ValueError):
            LogReturnSampler(market, 1, 0).rows(-3, -2)


def run_log_returns(model, n, seed, j):
    """Log-returns of run j alone, on a fresh sampler."""
    return LogReturnSampler(model, n, seed).rows(j, j + 1)[0]


class TestSampleLogReturns:
    def test_zero_volatility_is_exact_drift(self):
        model = MarketModel(initial_price=100.0, rate=0.05, volatility=0.0)
        x = run_log_returns(model, 3, 11, 4)
        assert x.tolist() == [0.05 / 252] * 3

    def test_deterministic_given_seed(self, market):
        a = run_log_returns(market, 16, 99, 3)
        b = run_log_returns(market, 16, 99, 3)
        assert np.array_equal(a, b)

    def test_streams_are_distinct(self, market):
        a = run_log_returns(market, 16, 99, 3)
        b = run_log_returns(market, 16, 99, 4)
        c = run_log_returns(market, 16, 100, 3)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_rejects_zero_length(self, market):
        with pytest.raises(ValueError):
            run_log_returns(market, 0, 1, 0)

    def test_large_sample_moments(self, market):
        # law-of-large-numbers check against the exact normal moments
        n = 10**6
        x = run_log_returns(market, n, 2024, 0)
        se_mean = market.daily_std / math.sqrt(n)
        assert abs(x.mean() - market.daily_mean) < 4 * se_mean
        assert abs(x.var(ddof=1) - market.daily_variance) < 0.01 * market.daily_variance

    def test_moments_per_day_across_runs(self, market):
        runs = 100_000
        x = LogReturnSampler(market, 4, seed=77).rows(0, runs)
        se_mean = market.daily_std / math.sqrt(runs)
        se_var = market.daily_variance * math.sqrt(2.0 / (runs - 1))
        for i in range(4):
            assert abs(x[:, i].mean() - market.daily_mean) < 4 * se_mean
            assert abs(x[:, i].var(ddof=1) - market.daily_variance) < 4 * se_var

    def test_adjacent_days_uncorrelated(self, market):
        runs = 100_000
        x = LogReturnSampler(market, 3, seed=78).rows(0, runs)
        for i in range(2):
            corr = np.corrcoef(x[:, i], x[:, i + 1])[0, 1]
            assert abs(corr) < 4 / math.sqrt(runs)

    def test_batch_sampler_matches_public_op_across_blocks(self, market):
        # runs 4090..8199 span the end of block 0 and most of block 1
        lo, hi = STREAM_BLOCK_ROWS - 6, 2 * STREAM_BLOCK_ROWS + 8
        rows = LogReturnSampler(market, 3, seed=555).rows(lo, hi)
        assert rows.shape == (hi - lo, 3)
        for j in range(lo, hi):
            expected = run_log_returns(market, 3, 555, j)
            assert np.array_equal(rows[j - lo], expected)

    def test_stream_contract_blocks(self, market):
        # run j is row j mod B of the Philox stream keyed (seed, j // B), row-major
        n, seed = 5, 2**64 - 3
        rows = LogReturnSampler(market, n, seed).rows(0, STREAM_BLOCK_ROWS + 2)
        for block in (0, 1):
            key = np.array([seed, block], dtype=np.uint64)
            z = np.random.Generator(np.random.Philox(key=key)).standard_normal((2, n))
            start = block * STREAM_BLOCK_ROWS
            assert np.array_equal(rows[start : start + 2], market.daily_mean + market.daily_std * z)
        assert (STREAM_CONTRACT_VERSION, STREAM_BLOCK_ROWS) == (2, 4096)

    @given(st.lists(st.integers(min_value=1, max_value=3000), min_size=1, max_size=8), st.randoms())
    @settings(max_examples=25, deadline=None)
    def test_any_partition_gives_the_same_draws(self, sizes, rnd):
        # batch_size never changes draws: pieces drawn by one sampler, in
        # ascending or shuffled order, tile the single bulk call exactly
        bounds = np.cumsum([0, *sizes]).tolist()
        runs = bounds[-1]
        market = MarketModel(initial_price=100.0, rate=0.05, volatility=0.2)
        whole = LogReturnSampler(market, 2, seed=8).rows(0, runs)
        pieces = list(zip(bounds, bounds[1:]))
        for order in (pieces, rnd.sample(pieces, len(pieces))):
            sampler = LogReturnSampler(market, 2, seed=8)
            tiled = np.empty_like(whole)
            for lo, hi in order:
                tiled[lo:hi] = sampler.rows(lo, hi)
            assert np.array_equal(tiled, whole)

    def test_rows_rejects_bad_range(self, market):
        sampler = LogReturnSampler(market, 2, seed=1)
        assert sampler.rows(5, 5).shape == (0, 2)
        with pytest.raises(ValueError):
            sampler.rows(5, 4)
        with pytest.raises(ValueError):
            sampler.rows(-1, 2)


def log_returns_of(model, prices):
    """X(i) = ln(S_d(i)/S_d(i-1)) with S_d(0) = S(0)."""
    return np.diff(np.log(np.concatenate([[model.initial_price], prices])))


class TestBuildPath:
    """Price paths from log-returns, through prices_from_log_returns."""

    def test_identity_path(self, market):
        prices = prices_from_log_returns(market, np.zeros(3))
        assert prices.tolist() == [100.0, 100.0, 100.0]

    def test_two_step_arithmetic(self, market):
        prices = prices_from_log_returns(market, np.array([math.log(1.1), math.log(10 / 11)]))
        assert np.allclose(prices, [110.0, 100.0], rtol=1e-12)

    def test_deterministic_drift_path(self):
        model = MarketModel(initial_price=100.0, rate=0.05, volatility=0.0)
        x = run_log_returns(model, 5, 0, 0)
        prices = prices_from_log_returns(model, x)
        expected = 100.0 * np.exp(0.05 * np.arange(1, 6) / 252)
        assert np.allclose(prices, expected, rtol=1e-12)

    def test_prices_positive_and_causal(self, market):
        x = run_log_returns(market, 40, 5, 2)
        prices = prices_from_log_returns(market, x)
        assert np.all(prices > 0)
        # day i depends only on the first i returns
        truncated = prices_from_log_returns(market, x[:17])
        assert np.array_equal(truncated, prices[:17])

    def test_reconstruction_recovers_log_returns(self, market):
        for stream in range(5):
            x = run_log_returns(market, 60, 31, stream)
            prices = prices_from_log_returns(market, x)
            assert np.allclose(log_returns_of(market, prices), x, rtol=1e-10, atol=1e-14)

    @given(
        st.lists(st.floats(min_value=-0.5, max_value=0.5), min_size=1, max_size=50),
        st.floats(min_value=0.1, max_value=1e4),
    )
    @settings(max_examples=200, deadline=None)
    def test_reconstruction_property(self, xs, s0):
        model = MarketModel(initial_price=s0, rate=0.0, volatility=0.1)
        prices = prices_from_log_returns(model, np.array(xs))
        assert np.allclose(log_returns_of(model, prices), xs, rtol=1e-10, atol=1e-12)
