import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvmc import (
    MarketModel,
    SeedSpec,
    build_path,
    log_returns_from_prices,
    sample_log_returns,
)
from cvmc.model import STREAM_BLOCK_ROWS, STREAM_CONTRACT_VERSION, LogReturnSampler


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
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            MarketModel(**kwargs)

    def test_seed_spec_bounds(self):
        SeedSpec(0, 0)
        SeedSpec(2**64 - 1, 2**64 - 1)
        with pytest.raises(ValueError):
            SeedSpec(-1)
        with pytest.raises(ValueError):
            SeedSpec(2**64)
        with pytest.raises(ValueError):
            SeedSpec(0, -3)


class TestSampleLogReturns:
    def test_zero_volatility_is_exact_drift(self):
        model = MarketModel(initial_price=100.0, rate=0.05, volatility=0.0)
        x = sample_log_returns(model, 3, SeedSpec(11, 4))
        assert x.tolist() == [0.05 / 252] * 3

    def test_deterministic_given_seed(self, market):
        a = sample_log_returns(market, 16, SeedSpec(99, 3))
        b = sample_log_returns(market, 16, SeedSpec(99, 3))
        assert np.array_equal(a, b)

    def test_streams_are_distinct(self, market):
        a = sample_log_returns(market, 16, SeedSpec(99, 3))
        b = sample_log_returns(market, 16, SeedSpec(99, 4))
        c = sample_log_returns(market, 16, SeedSpec(100, 3))
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_rejects_zero_length(self, market):
        with pytest.raises(ValueError):
            sample_log_returns(market, 0, SeedSpec(1))

    def test_large_sample_moments(self, market):
        # law-of-large-numbers check against the exact normal moments
        n = 10**6
        x = sample_log_returns(market, n, SeedSpec(2024, 0))
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
            expected = sample_log_returns(market, 3, SeedSpec(555, j))
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


class TestBuildPath:
    def test_identity_path(self, market):
        path = build_path(market, [0.0, 0.0, 0.0])
        assert path.prices.tolist() == [100.0, 100.0, 100.0]

    def test_two_step_arithmetic(self, market):
        path = build_path(market, [math.log(1.1), math.log(10 / 11)])
        assert np.allclose(path.prices, [110.0, 100.0], rtol=1e-12)

    def test_deterministic_drift_path(self):
        model = MarketModel(initial_price=100.0, rate=0.05, volatility=0.0)
        x = sample_log_returns(model, 5, SeedSpec(0))
        path = build_path(model, x)
        expected = 100.0 * np.exp(0.05 * np.arange(1, 6) / 252)
        assert np.allclose(path.prices, expected, rtol=1e-12)

    def test_prices_positive_and_causal(self, market):
        x = sample_log_returns(market, 40, SeedSpec(5, 2))
        path = build_path(market, x)
        assert np.all(path.prices > 0)
        # day i depends only on the first i returns
        truncated = build_path(market, x[:17])
        assert np.array_equal(truncated.prices, path.prices[:17])

    @pytest.mark.parametrize("bad", [[], [0.1, math.nan], [math.inf], np.zeros((2, 2))])
    def test_rejects_bad_input(self, market, bad):
        with pytest.raises(ValueError):
            build_path(market, bad)

    def test_reconstruction_recovers_log_returns(self, market):
        for stream in range(5):
            x = sample_log_returns(market, 60, SeedSpec(31, stream))
            path = build_path(market, x)
            assert np.allclose(log_returns_from_prices(path), x, rtol=1e-10, atol=1e-14)

    @given(
        st.lists(st.floats(min_value=-0.5, max_value=0.5), min_size=1, max_size=50),
        st.floats(min_value=0.1, max_value=1e4),
    )
    @settings(max_examples=200, deadline=None)
    def test_reconstruction_property(self, xs, s0):
        model = MarketModel(initial_price=s0, rate=0.0, volatility=0.1)
        path = build_path(model, xs)
        assert np.allclose(log_returns_from_prices(path), xs, rtol=1e-10, atol=1e-12)
