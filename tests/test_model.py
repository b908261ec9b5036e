import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvmc import (
    ASIAN_FIXED,
    ContractSpec,
    ControlSpec,
    LogReturnSampler,
    MarketModel,
    cv_estimate,
    plain_estimate,
    prices_from_log_returns,
)
from cvmc import model as model_module
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
            # a count is a Python or numpy integer, not a bool or a float
            dict(initial_price=100.0, rate=0.05, volatility=0.2, trading_days_per_year=True),
            dict(initial_price=100.0, rate=0.05, volatility=0.2, trading_days_per_year=np.True_),
            dict(initial_price=100.0, rate=0.05, volatility=0.2, trading_days_per_year=252.0),
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            MarketModel(**kwargs)

    @pytest.mark.parametrize("days", [np.int64(250), np.int32(250), np.uint16(250)], ids=["int64", "int32", "uint16"])
    def test_numpy_integer_day_count_is_stored_as_int(self, days):
        model = MarketModel(initial_price=100.0, rate=0.05, volatility=0.2, trading_days_per_year=days)
        assert type(model.trading_days_per_year) is int and model.trading_days_per_year == 250
        assert model == MarketModel(initial_price=100.0, rate=0.05, volatility=0.2, trading_days_per_year=250)

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

    def test_rejects_an_out_of_another_shape(self, market):
        with pytest.raises(ValueError, match=r"out has shape \(2, 5\), expected \(2, 4\)"):
            LogReturnSampler(market, 4, 0).rows(0, 2, out=np.empty((2, 5)))

    @pytest.mark.parametrize("n", [0, 2.0, True], ids=["zero", "float", "bool"])
    def test_rejects_zero_length(self, market, n):
        with pytest.raises(ValueError, match=f"n must be a positive integer, got {n!r}$"):
            LogReturnSampler(market, n, 1)

    def test_numpy_integer_length_is_stored_as_int(self, market):
        sampler = LogReturnSampler(market, np.int64(3), 1)
        assert type(sampler.n) is int and sampler.n == 3

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
        # run j is row j mod B of the SFC64 stream seeded by child j // B
        # of SeedSequence(seed), row-major
        n, seed = 5, 2**64 - 3
        rows = LogReturnSampler(market, n, seed).rows(0, STREAM_BLOCK_ROWS + 2)
        for block, child in enumerate(np.random.SeedSequence(seed).spawn(2)):
            z = np.random.Generator(np.random.SFC64(child)).standard_normal((2, n))
            start = block * STREAM_BLOCK_ROWS
            assert np.array_equal(rows[start : start + 2], market.daily_mean + market.daily_std * z)
        assert (STREAM_CONTRACT_VERSION, STREAM_BLOCK_ROWS) == (3, 4096)

    def test_seeds_sharing_words_do_not_share_blocks(self, market):
        # seed 2^32 + 7 and seed 7 at block 1 both hold the 32-bit words
        # (7, 1), as do seed 2^32 and seed 0 at block 1 the words (0, 1)
        for seed in (7, 0):
            later = LogReturnSampler(market, 5, seed).rows(STREAM_BLOCK_ROWS, STREAM_BLOCK_ROWS + 2)
            first = LogReturnSampler(market, 5, seed + 2**32).rows(0, 2)
            assert not np.array_equal(later, first)

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

    def test_prices_in_place_over_the_log_returns_keep_their_bits(self, market):
        x = LogReturnSampler(market, 30, 5).rows(0, 100)
        expected = prices_from_log_returns(market, x)
        assert prices_from_log_returns(market, x, out=x) is x
        assert np.array_equal(x, expected)

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


# From this many paths a batch takes its prefix sums day by day; never and always.
SHORT_ONLY, TALL_ONLY = 2**62, 1


class TestTallBatches:
    """Batches of at least _DAY_LOOP_ROWS paths sum their log-prices day by
    day; every price keeps the bits of np.cumsum's path-by-path sums, in
    place, into a fresh array or into an out of either layout."""

    @pytest.mark.parametrize("n", [1, 2, 30, 252])
    @pytest.mark.parametrize("rows", [1, 319, 320, 1023, 1024, 4096])
    def test_both_prefix_sums_give_the_same_bits(self, monkeypatch, market, rows, n):
        x = LogReturnSampler(market, n, 17).rows(0, rows)
        untouched = x.copy()
        monkeypatch.setattr(model_module, "_DAY_LOOP_ROWS", SHORT_ONLY)
        expected = prices_from_log_returns(market, x)
        monkeypatch.setattr(model_module, "_DAY_LOOP_ROWS", TALL_ONLY)
        fresh = prices_from_log_returns(market, x)
        assert fresh.tobytes() == expected.tobytes() and x.tobytes() == untouched.tobytes()
        for threshold in (SHORT_ONLY, TALL_ONLY):
            monkeypatch.setattr(model_module, "_DAY_LOOP_ROWS", threshold)
            in_place = untouched.copy()
            assert prices_from_log_returns(market, in_place, out=in_place) is in_place
            assert in_place.tobytes() == expected.tobytes()
            # row-major, and the (rows, n) view of a day-major buffer, as the estimators' lanes pass
            for into in (np.empty_like(x), np.empty((n, rows)).T):
                assert prices_from_log_returns(market, x, out=into) is into
                assert into.tobytes() == expected.tobytes() and x.tobytes() == untouched.tobytes()

    def test_the_threshold_is_the_default_between_the_sizes_checked(self):
        assert 1023 < model_module._DAY_LOOP_ROWS <= 1024
        assert 319 < model_module._ONE_LANE_DAY_LOOP_ROWS <= 320

    @pytest.mark.parametrize("threshold", [SHORT_ONLY, TALL_ONLY])
    @pytest.mark.parametrize("dtype", [np.int64, np.float32, np.float64])
    def test_fresh_prices_leave_the_log_returns_as_they_are(self, monkeypatch, market, threshold, dtype):
        monkeypatch.setattr(model_module, "_DAY_LOOP_ROWS", threshold)
        x = (np.arange(1200 * 5).reshape(1200, 5) % 3 - 1).astype(dtype)
        untouched = x.copy()
        prices = prices_from_log_returns(market, x)
        assert prices.dtype == np.float64 and prices is not x
        assert x.dtype == dtype and np.array_equal(x, untouched)
        expected = 100.0 * np.exp(np.cumsum(untouched.astype(float), axis=-1))
        assert prices.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("threshold", [SHORT_ONLY, TALL_ONLY])
    def test_a_single_path_keeps_its_shape_and_bits(self, monkeypatch, market, threshold):
        monkeypatch.setattr(model_module, "_DAY_LOOP_ROWS", threshold)
        x = run_log_returns(market, 30, 4, 0)
        prices = prices_from_log_returns(market, x)
        assert prices.shape == (30,)
        assert prices.tobytes() == (100.0 * np.exp(np.cumsum(x))).tobytes()

    @pytest.mark.parametrize("threshold", [SHORT_ONLY, TALL_ONLY])
    def test_an_overflowing_batch_warns_and_its_payoffs_raise(self, monkeypatch, threshold):
        monkeypatch.setattr(model_module, "_DAY_LOOP_ROWS", threshold)
        # a spot at the float limit and a daily drift of about 0.08 overflow
        # every path within 30 days, while the discount factor stays normal
        huge = MarketModel(initial_price=1e308, rate=20.0, volatility=0.2)
        x = LogReturnSampler(huge, 30, 3).rows(0, 4096)
        with pytest.warns(RuntimeWarning, match="overflow encountered"):
            prices = prices_from_log_returns(huge, x)
        assert np.isinf(prices[:, -1]).all() and np.isfinite(prices[:, 0]).all()
        spec = ContractSpec(kind=ASIAN_FIXED, days_to_maturity=30, strike=1e308)
        with pytest.warns(RuntimeWarning, match="overflow encountered"):
            with pytest.raises(ValueError, match=r"non-finite payoff in runs 0\.\.4095 of asian_fixed_strike"):
                plain_estimate(huge, spec, 4096, seed=3)
        with pytest.warns(RuntimeWarning, match="overflow encountered"):
            with pytest.raises(ValueError, match=r"non-finite payoff in runs 0\.\.4095 of asian_fixed_strike"):
                cv_estimate(huge, spec, ControlSpec(form="multi_log_returns"), 4096, seed=3)
