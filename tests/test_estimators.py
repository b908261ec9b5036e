import hashlib
import json
import math
import multiprocessing
import os
import pickle
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvmc import (
    ASIAN_FIXED,
    ASIAN_FLOATING,
    EUROPEAN_CALL,
    LOOKBACK_FLOATING,
    ContractSpec,
    ControlSpec,
    LogReturnSampler,
    MarketModel,
    MomentAccumulator,
    black_scholes_call,
    cv_estimate,
    insample_variance,
    optimal_betas,
    plain_estimate,
    prices_from_log_returns,
)
import cvmc.model
from cvmc import estimators
from cvmc.estimators import (
    FORM_CUSTOM,
    FORM_MULTI,
    FORM_NONE,
    FORM_SINGLE,
    SOURCE_IN_SAMPLE,
    SOURCE_PILOT,
    _correlations,
    _predicted,
    check_arguments,
)
from cvmc.model import STREAM_BLOCK_ROWS, ArgumentError
from cvmc.payoffs import CONTRACT_KINDS, STRIKE_KINDS, discounted_payoff

from bit_contract import report_bits

MARKET = MarketModel(initial_price=100.0, rate=0.05, volatility=0.2)
ASIAN = ContractSpec(kind=ASIAN_FIXED, days_to_maturity=30, strike=100.0)


def run_log_returns(n, seed, j):
    """Log-returns of run j alone, on a fresh sampler: the per-run reference."""
    return LogReturnSampler(MARKET, n, seed).rows(j, j + 1)[0]


def acc_of(*columns):
    data = np.column_stack(columns)
    acc = MomentAccumulator(data.shape[1])
    acc.add_batch(data)
    return acc


def predicted_ratio(acc):
    """The report's predicted variance ratio from the moments in acc."""
    variances = acc.variances()
    var_y, control_vars = variances[0], variances[1:]
    return _predicted(var_y, _correlations(var_y, acc.cross()[1:], control_vars), control_vars)


def day_correlations(y, x):
    """cv-multi's per-day correlations: each day's sample cov(Y, X(i)) over
    sqrt(var(Y) * sigma_d^2), with the exact daily variance sigma_d^2."""
    cross = np.array([np.cov(y, x[:, i], ddof=1)[0, 1] for i in range(x.shape[1])])
    return cross / np.sqrt(np.var(y, ddof=1) * MARKET.daily_variance)


def sample_betas(acc):
    """optimal_betas with the sample variances of the controls as denominators."""
    return optimal_betas(acc, acc.variances()[1:])


class TestMomentAccumulator:
    def test_matches_numpy_cov(self):
        data = np.random.default_rng(0).normal(size=(500, 3))
        acc = MomentAccumulator(3)
        acc.add_batch(data)
        assert np.allclose(acc.mean, data.mean(axis=0), rtol=1e-12)
        assert np.allclose(acc.covariance(), np.cov(data.T, ddof=1), rtol=1e-12)

    def test_add_matches_add_batch(self):
        data = np.random.default_rng(1).normal(size=(40, 2))
        one_by_one = MomentAccumulator(2)
        for row in data:
            one_by_one.add_batch(row[None, :])
        batched = MomentAccumulator(2)
        batched.add_batch(data)
        assert np.allclose(one_by_one.covariance(), batched.covariance(), rtol=1e-12)

    def test_variance_undefined_below_two(self):
        acc = MomentAccumulator(1)
        with pytest.raises(ValueError):
            acc.covariance()
        acc.add_batch([[1.0]])
        with pytest.raises(ValueError):
            acc.covariance()

    @pytest.mark.parametrize("dim", [0, 2.0, True], ids=["zero", "float", "bool"])
    def test_no_variables_refused(self, dim):
        with pytest.raises(ValueError, match=f"dim must be a positive integer, got {dim!r}$"):
            MomentAccumulator(dim)

    def test_numpy_integer_dim_is_stored_as_int(self):
        acc = MomentAccumulator(np.int64(3))
        assert type(acc.dim) is int and acc.dim == 3

    def test_add_batch_dimension_mismatch(self):
        acc = MomentAccumulator(2)
        with pytest.raises(ValueError, match="expected shape"):
            acc.add_batch(np.zeros((4, 3)))
        with pytest.raises(ValueError, match="expected shape"):
            acc.add_batch(np.zeros(2))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_moments_raise_and_leave_the_state(self):
        acc = MomentAccumulator(2)
        acc.add_batch([[1.0, 2.0], [3.0, 5.0]])
        with pytest.raises(ValueError, match="overflow"):
            acc.add_batch([[1e155, 0.0], [-1e155, 1.0]])
        assert acc.count == 2 and acc.mean.tolist() == [2.0, 3.5]
        assert acc.variances().tolist() == [2.0, 4.5]

    def test_constant_batch_has_exactly_zero_variance(self):
        acc = MomentAccumulator(2)
        acc.add_batch(np.tile([math.pi, math.e], (7, 1)))
        acc.add_batch(np.tile([math.pi, math.e], (5, 1)))
        assert acc.mean.tolist() == [math.pi, math.e]
        assert acc.covariance().tolist() == [[0.0, 0.0], [0.0, 0.0]]

    def test_constant_payoff_column_has_exactly_zero_variance(self):
        x = np.random.default_rng(9).normal(size=(9, 3))
        acc = MomentAccumulator(4)
        for part in (x[:4], x[4:]):
            acc.add_batch(np.column_stack((np.full(len(part), math.pi), part)))
        assert acc.mean[0] == math.pi
        assert acc.variances()[0] == 0.0
        assert np.all(acc.cross() == 0.0) and np.all(acc.covariance()[:, 0] == 0.0)

    @pytest.mark.parametrize("column", [0, 1])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_a_non_finite_batch_is_refused_and_leaves_the_state(self, value, column):
        # under the suite's error::RuntimeWarning filter: no numpy warning leaks first
        acc = MomentAccumulator(2)
        acc.add_batch([[1.0, 2.0], [3.0, 5.0]])
        before = moment_bits(acc)
        batch = np.array([[2.0, 1.0], [4.0, 3.0], [6.0, 2.0]])
        batch[1, column] = value
        with pytest.raises(ValueError, match="^the batch of 3 rows holds non-finite values"):
            acc.add_batch(batch)
        assert moment_bits(acc) == before

    def test_finite_rows_whose_sum_overflows_read_as_overflow(self):
        acc = MomentAccumulator(2)
        with pytest.raises(ValueError, match="^the moments overflow floating point after 2 rows"):
            acc.add_batch([[1e308, 1.0], [1e308, 2.0]])
        assert acc.count == 0

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-1e3, max_value=1e3),
                st.floats(min_value=-1e3, max_value=1e3),
            ),
            min_size=2,
            max_size=40,
        ),
        st.lists(
            st.tuples(
                st.floats(min_value=-1e3, max_value=1e3),
                st.floats(min_value=-1e3, max_value=1e3),
            ),
            min_size=2,
            max_size=40,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_merge_of_disjoint_sets_matches_union(self, left, right):
        left = np.array(left)
        right = np.array(right)
        union = MomentAccumulator(2)
        union.add_batch(np.vstack([left, right]))
        # the second add_batch call merges right's moments into left's
        merged = MomentAccumulator(2)
        merged.add_batch(left)
        merged.add_batch(right)
        assert merged.count == union.count
        assert np.allclose(merged.mean, union.mean, rtol=1e-9, atol=1e-12)
        assert np.allclose(merged.covariance(), union.covariance(), rtol=1e-9, atol=1e-9)


def moment_bits(acc) -> tuple:
    """An accumulator's count and moment arrays, as bytes."""
    return acc.count, acc._mean.tobytes(), acc._m2.tobytes()


class TestStoredRows:
    """An accumulator keeps the (dim, dim) matrix alone, whose diagonal is
    the variances: of one variable, row 0 is the diagonal, summed once."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_variances_are_the_diagonal_of_the_covariance(self, dim):
        data = np.random.default_rng(dim).normal(size=(300, dim)) * 3.0 + 1.0
        acc = MomentAccumulator(dim)
        for lo in range(0, 300, 70):
            acc.add_batch(data[lo : lo + 70])
        assert acc.variances().tobytes() == np.diag(acc.covariance()).tobytes()
        assert acc.cross().tobytes() == acc.covariance()[0].tobytes()
        assert np.allclose(acc.covariance(), np.atleast_2d(np.cov(data.T, ddof=1)), rtol=1e-12, atol=0)


class TestDayCross:
    """The per-day cross row of cv-multi: cov(Y, X(i)) for every day from the
    pairwise update, with no diagonal and no centered copy of X."""

    @given(
        st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=6),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_numpy_under_splits_and_merges(self, sizes, data_seed):
        rng = np.random.default_rng(data_seed)
        runs = sum(sizes) + 2
        x = rng.normal(size=(runs, 5)) * 0.0126 + 2e-4
        y = 5.0 + 40.0 * x[:, -1] + rng.normal(size=runs)
        expected = [np.cov(y, x[:, i], ddof=1)[0, 1] for i in range(5)]
        batched, merged = estimators._DayCross(5), estimators._DayCross(5)
        bounds = np.cumsum([0, *sizes, 2]).tolist()
        for lo, hi in zip(bounds, bounds[1:]):
            batched.add_batch(y[lo:hi], x[lo:hi])
            piece = estimators._DayCross(5)
            piece.add_batch(y[lo:hi], x[lo:hi])
            merged.merge(piece)
        for cross in (batched, merged):
            assert cross.count == runs
            assert np.allclose(cross.cross(), expected, rtol=1e-10, atol=1e-14)

    def test_constant_payoffs_have_no_cross_moments(self):
        cross = estimators._DayCross(3)
        x = np.random.default_rng(4).normal(size=(9, 3))
        cross.add_batch(np.zeros(9), x)
        assert np.all(cross.cross() == 0.0)

    @pytest.mark.parametrize("column", [0, 1, 2])  # Y, then each day's X
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_a_non_finite_batch_is_refused_and_leaves_the_state(self, value, column):
        cross = estimators._DayCross(2)
        cross.add_batch(np.array([1.0, 2.0]), np.array([[0.1, 0.2], [0.3, 0.1]]))
        before = moment_bits(cross)
        y, x = np.array([1.0, 3.0, 2.0]), np.array([[0.1, 0.2], [0.3, 0.1], [0.2, 0.0]])
        (y if column == 0 else x[:, column - 1])[1] = value
        with pytest.raises(ValueError, match="^the batch of 3 rows holds non-finite values"):
            cross.add_batch(y, x)
        assert moment_bits(cross) == before

    def test_overflow_raises_and_keeps_the_state(self):
        cross = estimators._DayCross(2)
        cross.add_batch(np.array([1.0, 2.0]), np.array([[0.1, 0.2], [0.3, 0.1]]))
        before = cross.cross()
        with pytest.raises(ValueError, match="overflow floating point after 4 rows"):
            cross.add_batch(np.array([-1e300, 1e300]), np.array([[1e10, 0.0], [-1e10, 0.0]]))
        assert cross.count == 2 and np.array_equal(cross.cross(), before)


class TestMerge:
    """MomentAccumulator.merge is add_batch's merge: the one merge routine."""

    def test_add_batch_is_a_fresh_add_batch_then_merge(self):
        data = np.random.default_rng(5).normal(size=(90, 4)) * [3.0, 1.0, 0.1, 7.0]
        batched = MomentAccumulator(4)
        merged = MomentAccumulator(4)
        for xs in (data[:31], data[31:32], data[32:]):
            batched.add_batch(xs)
            piece = MomentAccumulator(4)
            piece.add_batch(xs)
            merged.merge(piece)
            assert moment_bits(merged) == moment_bits(batched)

    @given(
        st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=8),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_pieces_merged_in_order_match_add_batch_calls(self, sizes, data_seed):
        data = np.random.default_rng(data_seed).normal(size=(sum(sizes), 3)) + [1e3, 0.0, -5.0]
        bounds = np.cumsum([0, *sizes]).tolist()
        batched = MomentAccumulator(3)
        merged = MomentAccumulator(3)
        for lo, hi in zip(bounds, bounds[1:]):
            batched.add_batch(data[lo:hi])
            piece = MomentAccumulator(3)
            piece.add_batch(data[lo:hi])
            merged.merge(piece)
        assert moment_bits(merged) == moment_bits(batched)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_merge_raises_and_leaves_the_state(self):
        acc = MomentAccumulator(2)
        acc.add_batch([[1.0, 2.0], [3.0, 5.0]])
        before = moment_bits(acc)
        far = MomentAccumulator(2)
        far.add_batch([[1e155, 0.0], [1e155, 1.0]])
        with pytest.raises(ValueError, match="overflow floating point after 4 rows"):
            acc.merge(far)
        assert moment_bits(acc) == before

    @pytest.mark.parametrize(
        "other", [MomentAccumulator(3), estimators._DayCross(1)], ids=["dim", "day_cross"]
    )
    def test_merge_of_another_shape_is_refused(self, other):
        acc = MomentAccumulator(2)
        acc.add_batch([[1.0, 2.0], [3.0, 5.0]])
        before = moment_bits(acc)
        with pytest.raises(ValueError, match="cannot merge"):
            acc.merge(other)
        assert moment_bits(acc) == before

    def test_merge_of_an_empty_accumulator_changes_nothing(self):
        acc = MomentAccumulator(2)
        acc.add_batch([[1.0, 2.0], [3.0, 5.0]])
        before = moment_bits(acc)
        acc.merge(MomentAccumulator(2))
        assert moment_bits(acc) == before


class TestOptimalCoefficients:
    def test_perfect_control(self):
        acc = acc_of(np.array([1.0, 2.0, 3.5]), np.array([1.0, 2.0, 3.5]))
        assert sample_betas(acc)[0][0] == -1.0

    def test_useless_control(self):
        acc = acc_of(np.array([1.0, 1.0, -1.0, -1.0]), np.array([1.0, -1.0, 1.0, -1.0]))
        assert sample_betas(acc)[0][0] == 0.0

    def test_two_point_law(self):
        # (Y,V) in {(0,0),(2,1)}: cov=0.5, var(V)=0.25 under the law, so c*=-2
        acc = acc_of(np.array([0.0, 2.0]), np.array([0.0, 1.0]))
        assert sample_betas(acc)[0][0] == -2.0

    def test_degenerate_control_rejected(self):
        acc = acc_of(np.array([1.0, 2.0, 3.0]), np.array([4.0, 4.0, 4.0]))
        with pytest.raises(ValueError, match="degenerate"):
            sample_betas(acc)

    def test_variances_of_another_shape_refused(self):
        acc = acc_of(np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 7.0]))
        with pytest.raises(ValueError, match=r"expected 1 variances, got shape \(2,\)"):
            optimal_betas(acc, [1.0, 2.0])

    def test_degenerate_control_dropped_with_a_note(self):
        # a constant control next to usable ones gets coefficient 0
        z = np.random.default_rng(8).normal(size=(50, 3))
        acc = acc_of(z[:, 0] + z[:, 1], z[:, 1], np.full(50, 4.0), z[:, 2])
        with pytest.warns(UserWarning, match="degenerate") as record:
            betas, notes = sample_betas(acc)
        assert len(record) == 1
        assert notes == ["1 degenerate control(s) dropped (coefficient set to 0)"]
        assert betas[1] == 0.0
        cross, variances = acc.cross()[1:], acc.variances()[1:]
        assert betas[[0, 2]].tolist() == (-cross[[0, 2]] / variances[[0, 2]]).tolist()

    def test_self_control_beta_is_exactly_minus_one(self):
        z = np.random.default_rng(2).normal(size=(5000, 3))
        acc = acc_of(z[:, 0], z[:, 0], z[:, 1], z[:, 2])
        betas, notes = sample_betas(acc)
        assert notes == []
        assert betas[0] == -1.0
        assert np.all(np.abs(betas[1:]) < 4 / math.sqrt(5000))

    def test_orthogonal_target_betas_near_zero(self):
        z = np.random.default_rng(3).normal(size=(20000, 4))
        acc = acc_of(z[:, 3], z[:, 0], z[:, 1], z[:, 2])
        assert np.all(np.abs(sample_betas(acc)[0]) < 4 / math.sqrt(20000))

    def test_linear_target_recovers_construction(self):
        # Y = 2*X1 + X2: the per-control formula tends to (-2, -1, 0)
        runs = 40000
        z = np.random.default_rng(4).normal(size=(runs, 3))
        y = 2.0 * z[:, 0] + z[:, 1]
        betas, _ = sample_betas(acc_of(y, z[:, 0], z[:, 1], z[:, 2]))
        # per-coefficient sampling noise is ~sqrt(var residual)/sqrt(runs)
        tolerance = 4 * math.sqrt(5.0) / math.sqrt(runs)
        assert np.allclose(betas, [-2.0, -1.0, 0.0], atol=tolerance)

    def test_exact_variance_override(self):
        z = np.random.default_rng(6).normal(size=(100, 2))
        acc = acc_of(z[:, 0] + z[:, 1], z[:, 0], z[:, 1])
        cov = acc.covariance()
        betas, _ = optimal_betas(acc, variances=np.array([1.0, 1.0]))
        assert np.allclose(betas, -cov[0, 1:], rtol=1e-12)
        with pytest.warns(UserWarning, match="degenerate"):
            betas, notes = optimal_betas(acc, variances=np.array([1.0, 0.0]))
        assert betas.tolist() == [-acc.cross()[1], 0.0] and len(notes) == 1
        with pytest.raises(ValueError, match="degenerate"):
            optimal_betas(acc, variances=np.array([0.0, 0.0]))

    def test_quadratic_minimum_at_optimal_c(self):
        # on a fixed sample, var(W) at c*(1 +- 0.1) is never below var(W) at c*
        acc = _asian_sample_accumulator(FORM_SINGLE, runs=2000)
        c_star = sample_betas(acc)[0][0]
        at_min = insample_variance(acc, np.array([c_star]))
        for bump in (0.9, 1.1):
            perturbed = insample_variance(acc, np.array([c_star * bump]))
            assert perturbed >= at_min


def _asian_sample_accumulator(form, runs=2000, n=5, seed=123):
    spec = ContractSpec(kind=ASIAN_FIXED, days_to_maturity=n, strike=100.0)
    rows = []
    for j in range(runs):
        x = run_log_returns(n, seed, j)
        y = discounted_payoff(MARKET, spec, prices_from_log_returns(MARKET, x))
        if form == FORM_SINGLE:
            rows.append([y, x.sum()])
        else:
            rows.append([y, *x])
    acc = MomentAccumulator(len(rows[0]))
    acc.add_batch(np.array(rows))
    return acc


class TestPredictedRatio:
    def test_uncorrelated_controls_predict_one(self):
        acc = acc_of(np.array([1.0, 1.0, -1.0, -1.0]), np.array([1.0, -1.0, 1.0, -1.0]))
        assert predicted_ratio(acc) == 1.0

    def test_single_control_correlation_point_eight(self):
        # sample correlation exactly 16/20 = 0.8, so the ratio is 0.36
        acc = acc_of(np.array([3.0, -3.0, 1.0, -1.0]), np.array([3.0, -3.0, -1.0, 1.0]))
        var_y, var_x = acc.variances()
        corr = acc.cross()[1] / math.sqrt(var_y * var_x)
        assert corr == pytest.approx(0.8, abs=1e-15)
        assert predicted_ratio(acc) == pytest.approx(0.36, abs=1e-12)

    def test_multi_control_sum_of_squares(self):
        # orthogonal design with corr(Y,X1)=0.6, corr(Y,X2)=0.5 -> 1-0.36-0.25
        signs = np.array([[s1, s2, s3] for s1 in (-1, 1) for s2 in (-1, 1) for s3 in (-1, 1)])
        y = 0.6 * signs[:, 0] + 0.5 * signs[:, 1] + math.sqrt(0.39) * signs[:, 2]
        acc = acc_of(y, signs[:, 0].astype(float), signs[:, 1].astype(float))
        assert predicted_ratio(acc) == pytest.approx(0.39, abs=1e-12)

    def test_matches_correlation_identity_on_noise(self):
        acc = _asian_sample_accumulator(FORM_MULTI, runs=500)
        cov = acc.covariance()
        expected = 1.0 - sum(
            cov[0, i] ** 2 / (cov[0, 0] * cov[i, i]) for i in range(1, acc.dim)
        )
        assert predicted_ratio(acc) == pytest.approx(
            expected, rel=1e-12
        )


class TestPlainEstimate:
    def test_degenerate_model_is_exact(self):
        # sigma=0, r=0: every run pays the same, so the estimate is exact
        model = MarketModel(initial_price=100.0, rate=0.0, volatility=0.0)
        spec = ContractSpec(kind=ASIAN_FIXED, days_to_maturity=4, strike=90.0)
        report = plain_estimate(model, spec, 1000, seed=3)
        assert report.estimate == 10.0
        assert report.standard_error == 0.0
        assert report.empirical_variance_ratio == 1.0
        assert report.predicted_variance_ratio == 1.0

    def test_against_black_scholes(self):
        spec = ContractSpec(kind=EUROPEAN_CALL, days_to_maturity=252, strike=100.0)
        report = plain_estimate(MARKET, spec, 30000, seed=91)
        target = black_scholes_call(MARKET, spec)
        assert abs(report.estimate - target) < 3 * report.standard_error

    def test_estimate_matches_direct_mean(self):
        runs = 64
        report = plain_estimate(MARKET, ASIAN, runs, seed=17, batch_size=10)
        payoffs = [
            discounted_payoff(
                MARKET,
                ASIAN,
                prices_from_log_returns(MARKET, run_log_returns(30, 17, j)),
            )
            for j in range(runs)
        ]
        assert report.estimate == pytest.approx(np.mean(payoffs), rel=1e-12)
        assert report.standard_error == pytest.approx(
            math.sqrt(np.var(payoffs, ddof=1) / runs), rel=1e-12
        )

    def test_standard_error_scaling(self):
        small = plain_estimate(MARKET, ASIAN, 20000, seed=29)
        large = plain_estimate(MARKET, ASIAN, 80000, seed=31)
        ratio = small.standard_error / large.standard_error
        assert 2.0 * 0.9 <= ratio <= 2.0 * 1.1

    def test_rejects_tiny_run_count(self):
        with pytest.raises(ValueError):
            plain_estimate(MARKET, ASIAN, 1, seed=0)

    def test_batch_size_does_not_change_statistics_materially(self):
        a = plain_estimate(MARKET, ASIAN, 5000, seed=41, batch_size=4096)
        b = plain_estimate(MARKET, ASIAN, 5000, seed=41, batch_size=97)
        assert a.estimate == pytest.approx(b.estimate, rel=1e-9)
        assert a.standard_error == pytest.approx(b.standard_error, rel=1e-9)


class TestCvEstimate:
    def test_no_control_degenerates_to_plain(self):
        plain = plain_estimate(MARKET, ASIAN, 5000, seed=53)
        through_cv = cv_estimate(MARKET, ASIAN, ControlSpec(form=FORM_NONE), 5000, seed=53)
        assert through_cv.estimate == plain.estimate
        assert through_cv.standard_error == plain.standard_error
        assert through_cv.coefficients is None

    @pytest.mark.parametrize("source", [SOURCE_PILOT, SOURCE_IN_SAMPLE])
    @pytest.mark.filterwarnings("ignore:predicted variance ratio below -0.05")
    def test_every_form_predicts_one_minus_corr_dot_corr(self, source):
        # at seed 157, the first found by a scan from 0, the single control's
        # corr ** 2 (libm's pow) and corr @ corr differ in the last bit: the
        # ratio takes the dot product
        reports = {
            form: cv_estimate(
                MARKET, ASIAN, ControlSpec(form, source, np.linspace(0.5, 1.5, 30) if form == FORM_CUSTOM else None), 100, seed=157
            )
            for form in (FORM_SINGLE, FORM_CUSTOM, FORM_MULTI)
        }
        if source == SOURCE_PILOT:
            (corr,) = reports[FORM_SINGLE].per_control_correlations
            assert 1.0 - corr**2 != 1.0 - np.array([corr]) @ np.array([corr])
        for report in reports.values():
            corr = report.per_control_correlations
            assert report.predicted_variance_ratio == float(1.0 - corr @ corr)

    def test_report_matches_direct_recomputation(self):
        runs, n = 400, 30
        report = cv_estimate(MARKET, ASIAN, ControlSpec(form=FORM_MULTI), runs, seed=77)
        assert report.pilot_runs_used == 40
        assert report.runs_used == 360
        betas = report.coefficients.values
        means = report.coefficients.control_means
        ws, ys = [], []
        for j in range(40, runs):
            x = run_log_returns(n, 77, j)
            y = discounted_payoff(MARKET, ASIAN, prices_from_log_returns(MARKET, x))
            ws.append(y + betas @ (x - means))
            ys.append(y)
        assert report.estimate == pytest.approx(np.mean(ws), rel=1e-10)
        assert report.standard_error == pytest.approx(
            math.sqrt(np.var(ws, ddof=1) / 360), rel=1e-8
        )
        assert report.empirical_variance_ratio == pytest.approx(
            np.var(ws, ddof=1) / np.var(ys, ddof=1), rel=1e-8
        )
        # per day, the sample cov(Y, X(i)) over the main runs over the exact sigma_d^2
        xs = np.array([run_log_returns(n, 77, j) for j in range(40, runs)])
        correlations = day_correlations(np.array(ys), xs)
        assert np.allclose(report.per_control_correlations, correlations, rtol=1e-8, atol=1e-12)
        assert report.predicted_variance_ratio == pytest.approx(1.0 - correlations @ correlations, rel=1e-8)

    def test_predicted_and_empirical_ratios_agree(self):
        report = cv_estimate(MARKET, ASIAN, ControlSpec(form=FORM_MULTI), 20000, seed=61)
        assert abs(report.empirical_variance_ratio - report.predicted_variance_ratio) <= 0.05

    def test_multi_dominates_single_dominates_plain_on_paired_seeds(self):
        seed = 67
        single = cv_estimate(MARKET, ASIAN, ControlSpec(form=FORM_SINGLE), 20000, seed=seed)
        multi = cv_estimate(MARKET, ASIAN, ControlSpec(form=FORM_MULTI), 20000, seed=seed)
        assert multi.empirical_variance_ratio <= single.empirical_variance_ratio + 0.02
        assert single.empirical_variance_ratio <= 1.0 + 0.02

    @pytest.mark.parametrize("n", [1, 30, 252])
    @pytest.mark.parametrize("source", [SOURCE_PILOT, SOURCE_IN_SAMPLE])
    def test_custom_with_unit_weights_matches_single(self, n, source):
        # single_terminal_log is custom_linear with unit weights, bit for bit
        spec = ContractSpec(kind=ASIAN_FIXED, days_to_maturity=n, strike=100.0)
        single = cv_estimate(MARKET, spec, ControlSpec(FORM_SINGLE, source), 4000, seed=71)
        custom = cv_estimate(MARKET, spec, ControlSpec(FORM_CUSTOM, source, np.ones(n)), 4000, seed=71)
        assert report_bits(custom) == report_bits(single)

    def test_sample_variance_denominator_toggle(self):
        # the engine divides the pilot cov(Y, V) by the exact model var(V);
        # sample_betas divides by the sample var(V)
        report = cv_estimate(MARKET, ASIAN, ControlSpec(form=FORM_SINGLE), 4000, seed=13)
        n = ASIAN.days_to_maturity
        x = LogReturnSampler(MARKET, n, 13).rows(0, 400)
        y = discounted_payoff(MARKET, ASIAN, prices_from_log_returns(MARKET, x))
        pilot_v = x.sum(axis=1)
        pilot = acc_of(y, pilot_v)
        exact = np.array([n * MARKET.daily_variance])
        default, _ = optimal_betas(pilot, exact)
        sampled, _ = sample_betas(pilot)
        assert report.pilot_runs_used == 400
        assert report.coefficients.values == pytest.approx(default, rel=1e-12)
        assert sampled[0] != default[0]
        # both divide the same pilot cov(Y, V); only the denominator differs
        assert sampled[0] / default[0] == pytest.approx(exact[0] / np.var(pilot_v, ddof=1), rel=1e-10)

    def test_main_phase_moments_match_full_covariance(self):
        # var(W) and the estimate, read from the main runs' moments of
        # [Y | Z], equal the full-covariance quadratic form over the same
        # main-phase runs, and the per-day bound its cross row over sigma_d^2
        runs, batch = 3000, 700
        report = cv_estimate(
            MARKET, ASIAN, ControlSpec(form=FORM_MULTI), runs, seed=19, batch_size=batch
        )
        pilot = report.pilot_runs_used
        x = LogReturnSampler(MARKET, 30, 19).rows(pilot, runs)
        y = discounted_payoff(MARKET, ASIAN, prices_from_log_returns(MARKET, x))
        full = acc_of(y, *x.T)
        betas = report.coefficients.values
        var_w = report.standard_error**2 * report.runs_used
        assert var_w == pytest.approx(insample_variance(full, betas), rel=1e-10)
        assert report.estimate == pytest.approx(
            full.mean[0] + betas @ (full.mean[1:] - report.coefficients.control_means), rel=1e-12
        )
        correlations = full.cross()[1:] / np.sqrt(full.variances()[0] * MARKET.daily_variance)
        assert report.predicted_variance_ratio == pytest.approx(1.0 - correlations @ correlations, rel=1e-10)

    def test_batch_size_changes_rounding_only(self):
        a = cv_estimate(MARKET, ASIAN, ControlSpec(form=FORM_MULTI), 5000, seed=23)
        b = cv_estimate(MARKET, ASIAN, ControlSpec(form=FORM_MULTI), 5000, seed=23, batch_size=333)
        assert np.allclose(a.coefficients.values, b.coefficients.values, rtol=1e-10)
        assert a.estimate == pytest.approx(b.estimate, rel=1e-12)
        assert a.standard_error == pytest.approx(b.standard_error, rel=1e-9)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "market, kind, strike, form",
        [
            # volatility 50 alone drives the paths to 0 (drift -sigma^2/2);
            # a spot near the float limit makes early prices inf
            ((1e307, 0.05, 50.0), ASIAN_FIXED, 100.0, FORM_MULTI),
            ((1e307, 0.05, 50.0), ASIAN_FIXED, 100.0, FORM_NONE),
            # a huge rate overflows exp: inf - inf and 0 * inf give NaN
            ((100.0, 1000.0, 0.2), ASIAN_FLOATING, None, FORM_SINGLE),
        ],
    )
    def test_non_finite_payoffs_raise(self, market, kind, strike, form):
        model = MarketModel(*market)
        spec = ContractSpec(kind=kind, days_to_maturity=252, strike=strike)
        with pytest.raises(ValueError, match=rf"non-finite payoff in runs 0\.\.999 of {kind} \(252 days"):
            cv_estimate(model, spec, ControlSpec(form=form), 4000, seed=5, batch_size=1000)
        with pytest.raises(ValueError, match="non-finite payoff"):
            cv_estimate(
                model,
                spec,
                ControlSpec(form=FORM_SINGLE, coefficient_source="in_sample"),
                4000,
                seed=5,
            )

    def test_extreme_volatility_alone_stays_finite(self):
        model = MarketModel(initial_price=100.0, rate=0.05, volatility=50.0)
        spec = ContractSpec(kind=ASIAN_FIXED, days_to_maturity=252, strike=100.0)
        report = plain_estimate(model, spec, 2000, seed=5)
        assert math.isfinite(report.estimate) and math.isfinite(report.standard_error)

    @pytest.mark.parametrize("source", [SOURCE_PILOT, SOURCE_IN_SAMPLE])
    @pytest.mark.parametrize("price, scale", [(1e10, 1e150), (1e-150, 1e-150)])
    def test_variances_far_apart_in_scale_report_as_unit_weights(self, source, price, scale):
        # var(Y) * var(C) overflows (1e10 prices, 1e150 weights) or underflows
        # (1e-150 both), though each variance is an ordinary double
        model = MarketModel(initial_price=price, rate=0.05, volatility=0.2)
        spec = ContractSpec(kind=ASIAN_FIXED, days_to_maturity=30, strike=price)

        def report(weights):
            return cv_estimate(model, spec, ControlSpec(FORM_CUSTOM, source, weights), 20000, seed=1)

        far, unit = report(scale * np.ones(30)), report(np.ones(30))
        assert unit.per_control_correlations[0] > 0.7
        for name in ("estimate", "standard_error", "empirical_variance_ratio", "predicted_variance_ratio"):
            assert getattr(far, name) == pytest.approx(getattr(unit, name), rel=1e-12)
        assert far.per_control_correlations == pytest.approx(unit.per_control_correlations, rel=1e-12)
        assert far.coefficients.values * scale == pytest.approx(unit.coefficients.values, rel=1e-12)

    def test_in_sample_mode_documents_bias(self):
        report = cv_estimate(
            MARKET,
            ASIAN,
            ControlSpec(form=FORM_SINGLE, coefficient_source="in_sample"),
            2000,
            seed=73,
        )
        assert report.pilot_runs_used == 0
        assert report.runs_used == 2000
        assert any("O(1/R) bias" in note for note in report.notes)

    def test_pilot_unbiasedness_smoke(self):
        # macro-replication check: the pilot-mode CV mean tracks the plain mean
        diffs = []
        for k in range(8):
            seed = 1000 + k
            w = cv_estimate(MARKET, ASIAN, ControlSpec(form=FORM_MULTI), 4000, seed=seed)
            y = plain_estimate(MARKET, ASIAN, 4000, seed=seed)
            diffs.append(w.estimate - y.estimate)
        diffs = np.array(diffs)
        assert abs(diffs.mean()) < 4 * diffs.std(ddof=1) / math.sqrt(len(diffs))

    def test_zero_volatility_is_degenerate(self):
        model = MarketModel(initial_price=100.0, rate=0.05, volatility=0.0)
        with pytest.raises(ValueError, match="degenerate"):
            cv_estimate(model, ASIAN, ControlSpec(form=FORM_MULTI), 1000, seed=0)

    def test_pilot_split_validation(self):
        with pytest.raises(ValueError):
            cv_estimate(MARKET, ASIAN, ControlSpec(form=FORM_SINGLE), 3, seed=0)
        with pytest.raises(ValueError, match="pilot"):
            cv_estimate(
                MARKET, ASIAN, ControlSpec(form=FORM_SINGLE), 10, pilot_fraction=0.05, seed=0
            )
        with pytest.raises(ValueError):
            cv_estimate(
                MARKET, ASIAN, ControlSpec(form=FORM_SINGLE), 10, pilot_fraction=1.5, seed=0
            )

    def test_custom_weight_validation(self):
        with pytest.raises(ValueError):
            ControlSpec(form=FORM_CUSTOM)
        with pytest.raises(ValueError):
            ControlSpec(form=FORM_CUSTOM, weights=np.zeros(30))
        with pytest.raises(ValueError, match="length"):
            cv_estimate(
                MARKET, ASIAN, ControlSpec(form=FORM_CUSTOM, weights=np.ones(7)), 100, seed=0
            )
        with pytest.raises(ValueError):
            ControlSpec(form=FORM_SINGLE, weights=np.ones(3))


def record_fits(monkeypatch) -> list:
    """Record (pilot accumulator, variances) of every optimal_betas call of the pilot from now on."""
    fits = []
    fit = estimators.optimal_betas

    def recording_fit(acc, variances=None):
        fits.append((acc, variances))
        return fit(acc, variances)

    monkeypatch.setattr(estimators, "optimal_betas", recording_fit)
    return fits


def span_basis(n):
    """B, the (k, n) basis of cv-multi's pilot fit: rows 1 and i/n, or 1 alone at n = 1."""
    days = np.arange(1, n + 1) / n
    return np.array([np.ones(n), days]) if n > 1 else np.ones((1, 1))


def pilot_and_main(spec, runs, seed, pilot_fraction=0.1):
    """(y, x) of the pilot runs and of the main runs of a call, from fresh draws."""
    n = spec.days_to_maturity
    x = LogReturnSampler(MARKET, n, seed).rows(0, runs)
    y = discounted_payoff(MARKET, spec, prices_from_log_returns(MARKET, x))
    p = math.ceil(pilot_fraction * runs)
    return (y[:p], x[:p]), (y[p:], x[p:])


def fitted_on(y, controls, variances=None):
    """The numpy fit on (y, controls): least squares, or each control over its variance."""
    cov = np.atleast_2d(np.cov(np.column_stack([y, controls]), rowvar=False))
    if variances is None:
        return -np.linalg.solve(cov[1:, 1:], cov[1:, 0])
    return -cov[1:, 0] / variances


def main_ratio(main, betas):
    """var(W)/var(Y) on the main runs, W = Y + X @ betas."""
    y, x = main
    return np.var(y + x @ betas, ddof=1) / np.var(y, ddof=1)


class TestSpanPilot:
    """cv-multi's pilot fits its n daily coefficients as beta = B.T @ (a, b):
    by least squares on the pilot's (Y, X @ B.T) when p >= k + 3, else with
    the exact variances of the k <= 2 controls."""

    @pytest.mark.filterwarnings("ignore:predicted variance ratio below:UserWarning")
    @pytest.mark.parametrize(
        "n, runs, pilot_fraction",
        [
            (30, 20, 0.1),  # p = 2
            (30, 30, 0.1),  # p = 3
            (30, 40, 0.1),  # p = 4 = k + 2
            (30, 50, 0.1),  # p = 5 = k + 3
            (30, 100_000, 0.1),
            (252, 1000, 0.1),
            (252, 20_000, 0.5),
            (2, 600, 0.1),
            (1, 30, 0.1),  # p = 3 = k + 2
            (1, 40, 0.1),  # p = 4 = k + 3
            (1, 5000, 0.1),
        ],
    )
    def test_the_rule_and_its_bits(self, monkeypatch, n, runs, pilot_fraction):
        spec = ContractSpec(kind=ASIAN_FIXED, days_to_maturity=n, strike=100.0)
        fits = record_fits(monkeypatch)
        report = cv_estimate(MARKET, spec, ControlSpec(form=FORM_MULTI), runs, seed=29, pilot_fraction=pilot_fraction)
        p = report.pilot_runs_used
        basis = span_basis(n)
        k = len(basis)
        ((pilot, variances),) = fits
        assert type(pilot) is MomentAccumulator and pilot.count == p and pilot.dim == 1 + k
        values = report.coefficients.values
        assert values.shape == (n,)
        # the engine's bits: B.T @ (a, b) of optimal_betas on the pilot's moments
        span, _ = optimal_betas(pilot, variances)
        assert values.tobytes() == np.einsum("ci,c->i", basis, span).tobytes()
        # (a, b) recomputed from the pilot runs' draws
        (y, x), _ = pilot_and_main(spec, runs, 29, pilot_fraction)
        least_squares = p >= k + 3
        if least_squares:
            assert variances is None
            expected = fitted_on(y, x @ basis.T)
        else:
            exact = MARKET.daily_variance * (basis**2).sum(axis=1)
            assert np.allclose(variances, exact, rtol=1e-15, atol=0)
            expected = fitted_on(y, x @ basis.T, exact)
        assert np.allclose(span, expected, rtol=1e-9, atol=1e-12)
        assert np.allclose(values, basis.T @ expected, rtol=1e-9, atol=1e-12)
        fit_notes = [note for note in report.notes if note.startswith("least-squares")]
        if not least_squares:
            assert fit_notes == []
            return
        span_name = "{1, i/n}" if k == 2 else "{1}"
        assert fit_notes == [
            f"least-squares pilot coefficients on the span of {span_name}: k = {k} fitted jointly on "
            f"p = {p} pilot runs for the n = {n} daily ones; their error raises var(W) by about the factor "
            f"(p - 2)/(p - k - 2) = 1 + {k / (p - k - 2):.4g} over its floor"
        ]

    @pytest.mark.filterwarnings("ignore:predicted variance ratio below:UserWarning")
    @pytest.mark.parametrize("n, runs", [(30, 250), (30, 1000), (252, 250), (252, 1000)])
    @pytest.mark.parametrize("kind", sorted(CONTRACT_KINDS))
    def test_beats_both_earlier_fits_on_paired_seeds(self, kind, n, runs):
        # var(W)/var(Y) on the main runs, which the pilot's coefficients do
        # not see, is lower on each of 40 paired seeds than with the per-day
        # fits of cvmc 0.2.0, recomputed from the same draws: each
        # coefficient over its exact variance, and (where p >= n + 3)
        # per-day least squares
        spec = ContractSpec(kind=kind, days_to_maturity=n, strike=100.0 if kind in STRIKE_KINDS else None)
        ratios = {"span": [], "exact_variance": [], "least_squares": []}
        for seed in range(600, 640):
            report = cv_estimate(MARKET, spec, ControlSpec(form=FORM_MULTI), runs, seed=seed)
            (y, x), main = pilot_and_main(spec, runs, seed)
            # the recomputation reads the report's own ratio back
            ratio = report.empirical_variance_ratio
            assert main_ratio(main, report.coefficients.values) == pytest.approx(ratio, rel=1e-9)
            ratios["span"].append(ratio)
            ratios["exact_variance"].append(main_ratio(main, fitted_on(y, x, np.full(n, MARKET.daily_variance))))
            if len(y) >= n + 3:
                ratios["least_squares"].append(main_ratio(main, fitted_on(y, x)))
        span = np.array(ratios["span"])
        for earlier in ("exact_variance", "least_squares"):
            if not ratios[earlier]:
                continue
            assert (span < np.array(ratios[earlier])).all(), earlier


class TestSpanPilotCorners:
    """The span fit at one day (k = 1), at pilots of 2..5 runs and at extreme
    volatility returns finite numbers; its refusals are the old ones."""

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.parametrize("volatility", [0.01, 3.0])
    @pytest.mark.parametrize("runs", [20, 30, 40, 50])  # p = 2, 3, 4, 5
    @pytest.mark.parametrize("n", [1, 2, 30])
    @pytest.mark.parametrize("kind", sorted(CONTRACT_KINDS))
    def test_small_pilots_return_finite_reports(self, kind, n, runs, volatility):
        model = MarketModel(initial_price=100.0, rate=0.05, volatility=volatility)
        spec = ContractSpec(kind=kind, days_to_maturity=n, strike=100.0 if kind in STRIKE_KINDS else None)
        report = cv_estimate(model, spec, ControlSpec(form=FORM_MULTI), runs, seed=runs + n)
        assert _finite_report(report)
        k = 1 if n == 1 else 2
        least_squares = [note for note in report.notes if note.startswith("least-squares")]
        assert len(least_squares) == (report.pilot_runs_used >= k + 3)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("runs", [20, 1000])  # the exact-variance fit and least squares
    @pytest.mark.parametrize("n", [1, 2, 30, 252])
    def test_refusals_are_those_of_the_per_day_fit(self, n, runs):
        spec = ContractSpec(kind=ASIAN_FIXED, days_to_maturity=n, strike=100.0)
        control = ControlSpec(form=FORM_MULTI)
        with pytest.raises(ArgumentError, match="degenerate control"):
            cv_estimate(MarketModel(initial_price=100.0, rate=0.05, volatility=0.0), spec, control, runs, seed=3)
        with pytest.raises(ValueError, match="degenerate control: every control variance"):
            cv_estimate(MarketModel(initial_price=100.0, rate=0.05, volatility=1e-10), spec, control, runs, seed=3)
        huge = MarketModel(initial_price=1e160, rate=0.05, volatility=0.2)
        spec = ContractSpec(kind=ASIAN_FIXED, days_to_maturity=n, strike=1e160)
        with pytest.raises(ValueError, match="overflow"):
            cv_estimate(huge, spec, control, runs, seed=3)

    @pytest.mark.parametrize("kind", [ASIAN_FIXED, ASIAN_FLOATING])
    @pytest.mark.parametrize("n", [30, 252])
    def test_the_span_controls_of_a_run_do_not_depend_on_its_piece(self, monkeypatch, n, kind):
        # the (Y, Z) rows of both phases, run by run on one lane, over 9000
        # runs whose pilot boundary, run 4500, is inside block 1: pieces of
        # one row and of 250 rows set by _CHUNK_NORMALS, and pieces cut by
        # batch_size, against the default pieces
        monkeypatch.setattr(estimators, "_THREADED_NORMALS", 2**62)
        spec = ContractSpec(kind=kind, days_to_maturity=n, strike=100.0 if kind in STRIKE_KINDS else None)
        add_batch = MomentAccumulator.add_batch
        chunk_normals = estimators._CHUNK_NORMALS

        def span_rows(normals=chunk_normals, batch_size=4096):
            rows = []

            def recording_add_batch(self, xs):
                rows.append(np.array(xs))
                return add_batch(self, xs)

            monkeypatch.setattr(MomentAccumulator, "add_batch", recording_add_batch)
            monkeypatch.setattr(estimators, "_CHUNK_NORMALS", normals)
            control = ControlSpec(form=FORM_MULTI)
            cv_estimate(MARKET, spec, control, 9000, seed=3, pilot_fraction=0.5, batch_size=batch_size)
            return np.concatenate(rows)

        reference = span_rows()
        assert reference.shape == (9000, 3)
        x = LogReturnSampler(MARKET, n, 3).rows(0, 9000)
        assert np.allclose(reference[:, 1:], x @ span_basis(n).T, rtol=1e-12, atol=1e-15)
        for normals in (n, 250 * n):
            assert span_rows(normals=normals).tobytes() == reference.tobytes(), normals
        for batch_size in (1, 250, 777):
            assert span_rows(batch_size=batch_size).tobytes() == reference.tobytes(), batch_size

    @pytest.mark.parametrize("kind", [ASIAN_FIXED, ASIAN_FLOATING])
    @pytest.mark.parametrize("n", [30, 252])
    def test_a_run_alone_in_its_piece_pays_as_in_a_longer_one(self, monkeypatch, n, kind):
        # run 4096 is a piece of one row in a plain call of 4097 runs, and
        # one of min(4096, 2**17 // n) rows in a call of 8192; on seed 11 its
        # payoffs are positive and a pairwise sum of its days differs
        monkeypatch.setattr(estimators, "_THREADED_NORMALS", 2**62)
        spec = ContractSpec(kind=kind, days_to_maturity=n, strike=100.0 if kind in STRIKE_KINDS else None)
        add_batch = MomentAccumulator.add_batch

        def payoffs(runs):
            rows = []

            def recording_add_batch(self, xs):
                rows.append(np.array(xs))
                return add_batch(self, xs)

            monkeypatch.setattr(MomentAccumulator, "add_batch", recording_add_batch)
            plain_estimate(MARKET, spec, runs, seed=11)
            return rows

        lone, longer = payoffs(4097), payoffs(8192)
        assert lone[-1].shape == (1, 1) and len(longer[len(lone) - 1]) == min(4096, 2**17 // n)
        assert lone[-1][0, 0] == np.concatenate(longer)[4096, 0]


class TestInSampleSpan:
    """In-sample cv-multi fits its n daily coefficients on the span of
    {1, i/n} over every run, by the pilot's rule (_fit)."""

    @pytest.mark.filterwarnings("ignore:predicted variance ratio below:UserWarning")
    @pytest.mark.parametrize("kind", [ASIAN_FIXED, EUROPEAN_CALL])
    @pytest.mark.parametrize("n, runs, batch_size", [(1, 600, 4096), (5, 600, 97), (30, 900, 4096), (252, 600, 250)])
    def test_matches_numpy_least_squares(self, kind, n, runs, batch_size):
        spec = ContractSpec(kind=kind, days_to_maturity=n, strike=100.0 if kind in STRIKE_KINDS else None)
        report = cv_estimate(MARKET, spec, ControlSpec(FORM_MULTI, SOURCE_IN_SAMPLE), runs, seed=37, batch_size=batch_size)
        x = np.array([run_log_returns(n, 37, j) for j in range(runs)])
        y = discounted_payoff(MARKET, spec, prices_from_log_returns(MARKET, x))
        basis = span_basis(n)
        z = x @ basis.T
        # Y on [1 | Z]: the fitted column coefficients are minus the slopes
        slopes = np.linalg.lstsq(np.column_stack([np.ones(runs), z]), y, rcond=None)[0][1:]
        betas = -basis.T @ slopes
        w = y + (x - MARKET.daily_mean) @ betas
        assert report.runs_used == runs and report.pilot_runs_used == 0
        assert np.allclose(report.coefficients.values, betas, rtol=1e-10, atol=0)
        assert report.estimate == pytest.approx(w.mean(), rel=1e-10)
        assert report.standard_error**2 * runs == pytest.approx(np.var(w, ddof=1), rel=1e-10)
        assert report.empirical_variance_ratio == pytest.approx(np.var(w, ddof=1) / np.var(y, ddof=1), rel=1e-10)
        # the report keeps the per-day correlations, each day's sample cov(Y, X(i))
        # over its exact sigma_d^2, and the bound 1 - sum of their squares
        correlations = day_correlations(y, x)
        assert np.allclose(report.per_control_correlations, correlations, rtol=1e-10, atol=1e-12)
        assert report.predicted_variance_ratio == pytest.approx(1.0 - np.dot(correlations, correlations), rel=1e-10, abs=1e-12)
        k = len(basis)
        assert report.notes[:2] == (
            f"least-squares in_sample coefficients on the span of {'{1, i/n}' if k == 2 else '{1}'}: k = {k} "
            f"fitted jointly on all R = {runs} runs for the n = {n} daily ones; their error lowers the sample "
            f"var(W) by about the factor (R - k - 1)/(R - 1) = 1 - {k / (runs - 1):.4g}",
            "in_sample coefficients reuse the estimation runs; the estimator carries an O(1/R) bias",
        )

    @pytest.mark.filterwarnings("ignore:predicted variance ratio below:UserWarning")
    @pytest.mark.parametrize("n, runs", [(30, 4), (2, 4), (30, 5), (1, 4)])
    def test_fewer_than_k_plus_3_runs_take_the_exact_variance_fit(self, monkeypatch, n, runs):
        spec = ContractSpec(kind=ASIAN_FIXED, days_to_maturity=n, strike=100.0)
        fits = record_fits(monkeypatch)
        report = cv_estimate(MARKET, spec, ControlSpec(FORM_MULTI, SOURCE_IN_SAMPLE), runs, seed=7)
        ((acc, variances),) = fits
        basis = span_basis(n)
        k = len(basis)
        assert type(acc) is MomentAccumulator and acc.count == runs and acc.dim == 1 + k
        x = np.array([run_log_returns(n, 7, j) for j in range(runs)])
        y = discounted_payoff(MARKET, spec, prices_from_log_returns(MARKET, x))
        least_squares = [note for note in report.notes if note.startswith("least-squares")]
        if runs >= k + 3:
            assert variances is None and len(least_squares) == 1
            expected = fitted_on(y, x @ basis.T)
        else:
            exact = MARKET.daily_variance * (basis**2).sum(axis=1)
            assert np.allclose(variances, exact, rtol=1e-15, atol=0) and least_squares == []
            expected = fitted_on(y, x @ basis.T, exact)
        assert np.allclose(report.coefficients.values, basis.T @ expected, rtol=1e-9, atol=1e-12)

    @pytest.mark.filterwarnings("ignore:predicted variance ratio below:UserWarning")
    @pytest.mark.parametrize("runs", [100, 1000])
    def test_coverage_of_the_standard_error_against_black_scholes(self, runs):
        # european_call at n = 30 on seeds 1..400: the nominal 95% interval
        # holds the Black-Scholes price within 3 binomial standard errors of 95%
        spec = ContractSpec(kind=EUROPEAN_CALL, days_to_maturity=30, strike=100.0)
        target = black_scholes_call(MARKET, spec)
        seeds = range(1, 401)
        hits = 0
        for seed in seeds:
            report = cv_estimate(MARKET, spec, ControlSpec(FORM_MULTI, SOURCE_IN_SAMPLE), runs, seed=seed)
            hits += abs(report.estimate - target) <= 1.959964 * report.standard_error
        coverage = hits / len(seeds)
        assert abs(coverage - 0.95) <= 3 * math.sqrt(0.95 * 0.05 / len(seeds)), coverage


class TestMainPhaseOfMulti:
    """Both coefficient sources read the estimate and var(W) from the
    estimating runs' moments of [Y | Z], at most 1 + k wide (cvmc 0.8.0),
    and cv-multi's per-day report from one cross row of the log-returns."""

    @pytest.mark.filterwarnings("ignore:predicted variance ratio below:UserWarning")
    @pytest.mark.parametrize("source", [SOURCE_PILOT, SOURCE_IN_SAMPLE])
    def test_no_moment_batch_at_252_days_is_wider_than_y_z(self, monkeypatch, source):
        spec = ContractSpec(kind=ASIAN_FIXED, days_to_maturity=252, strike=100.0)
        batches = []
        add_batch = MomentAccumulator.add_batch

        def recording_add_batch(self, xs):
            batches.append((xs.shape, xs.strides))
            return add_batch(self, xs)

        monkeypatch.setattr(MomentAccumulator, "add_batch", recording_add_batch)
        cv_estimate(MARKET, spec, ControlSpec(FORM_MULTI, source), 5000, seed=3, batch_size=777)
        k = 2
        assert {shape[1] for shape, _ in batches} == {1 + k}
        # each column of a batch is contiguous: the rows are stored column by column
        assert all(strides[0] == 8 for _, strides in batches)

    @pytest.mark.filterwarnings("ignore:predicted variance ratio below:UserWarning")
    @pytest.mark.parametrize("kind", [ASIAN_FIXED, EUROPEAN_CALL])
    @pytest.mark.parametrize("n, runs, batch_size", [(1, 3000, 777), (5, 3000, 250), (252, 3000, 777)])
    def test_pilot_report_matches_direct_recomputation(self, kind, n, runs, batch_size):
        # pieces cut at the batches (and at 520 runs at n = 252), and the
        # pilot boundary, run 300, inside one
        spec = ContractSpec(kind=kind, days_to_maturity=n, strike=100.0 if kind in STRIKE_KINDS else None)
        report = cv_estimate(MARKET, spec, ControlSpec(FORM_MULTI), runs, seed=83, batch_size=batch_size)
        p = report.pilot_runs_used
        assert p == 300 and report.runs_used == runs - p
        x = LogReturnSampler(MARKET, n, 83).rows(p, runs)
        y = discounted_payoff(MARKET, spec, prices_from_log_returns(MARKET, x))
        w = y + (x - MARKET.daily_mean) @ report.coefficients.values
        assert report.estimate == pytest.approx(w.mean(), rel=1e-10)
        assert report.standard_error**2 * len(w) == pytest.approx(np.var(w, ddof=1), rel=1e-10)
        assert report.empirical_variance_ratio == pytest.approx(np.var(w, ddof=1) / np.var(y, ddof=1), rel=1e-10)
        correlations = day_correlations(y, x)
        assert np.allclose(report.per_control_correlations, correlations, rtol=1e-10, atol=1e-12)
        assert report.predicted_variance_ratio == pytest.approx(1.0 - correlations @ correlations, rel=1e-10, abs=1e-12)

    @pytest.mark.filterwarnings("ignore:predicted variance ratio below:UserWarning")
    @pytest.mark.parametrize("source", [SOURCE_PILOT, SOURCE_IN_SAMPLE])
    @pytest.mark.parametrize(
        "kind, n, strike, form",
        [
            (EUROPEAN_CALL, 1, 50.0, FORM_SINGLE),  # var(W)/var(Y) about 1e-4 on this seed
            (EUROPEAN_CALL, 5, 60.0, FORM_MULTI),  # about 4e-4
            (ASIAN_FIXED, 30, 100.0, FORM_MULTI),
        ],
    )
    def test_both_sources_read_the_estimate_and_var_w_from_the_moments_of_y_z(
        self, monkeypatch, source, kind, n, strike, form
    ):
        # W = Y + Z @ fitted - E[Z] @ fitted, recomputed from the draws of the
        # estimating runs: its mean and sample variance are the report's, and
        # the accumulator they are read from holds the covariance of [Y | Z].
        # 20 000 runs at n = 30 are drawn on two lanes.
        readouts, fits = [], []
        variance, fit = estimators.insample_variance, estimators._fit

        def recording_variance(acc, betas):
            readouts.append(acc)
            return variance(acc, betas)

        def recording_fit(*args):
            fits.append(fit(*args))
            return fits[-1]

        monkeypatch.setattr(estimators, "insample_variance", recording_variance)
        monkeypatch.setattr(estimators, "_fit", recording_fit)
        spec = ContractSpec(kind=kind, days_to_maturity=n, strike=strike)
        runs = 20_000
        report = cv_estimate(MARKET, spec, ControlSpec(form, source), runs, seed=61, batch_size=777)
        (acc,), ((fitted, _, _),) = readouts, fits
        basis = span_basis(n) if form == FORM_MULTI else np.ones((1, n))
        k = len(basis)
        x = LogReturnSampler(MARKET, n, 61).rows(report.pilot_runs_used, runs)
        y = discounted_payoff(MARKET, spec, prices_from_log_returns(MARKET, x))
        z = x @ basis.T
        w = y + z @ fitted - (MARKET.daily_mean * basis.sum(axis=1)) @ fitted
        assert report.runs_used == len(w) == runs - (runs // 10 if source == SOURCE_PILOT else 0)
        assert report.estimate == pytest.approx(w.mean(), rel=1e-12)
        assert report.standard_error**2 * report.runs_used == pytest.approx(np.var(w, ddof=1), rel=1e-10)
        assert type(acc) is MomentAccumulator and acc.dim == 1 + k and acc.count == report.runs_used
        expected = np.cov(np.column_stack([y, z]), rowvar=False)
        scale = np.sqrt(np.outer(np.diag(expected), np.diag(expected)))
        assert np.allclose(acc.covariance(), expected, rtol=1e-12, atol=1e-12 * scale)

    @pytest.mark.parametrize("source, runs, fraction", [(SOURCE_PILOT, 100_000, 0.5), (SOURCE_IN_SAMPLE, 50_000, 0.1)])
    def test_the_fit_note_never_rounds_its_factor_to_one(self, source, runs, fraction):
        # p = 50 000 pilot runs, or R = 50 000 in-sample, at n = 2 (k = 2):
        # the factor is 1 +- 4.0e-05, which four significant digits print as 1
        spec = ContractSpec(kind=ASIAN_FIXED, days_to_maturity=2, strike=100.0)
        report = cv_estimate(MARKET, spec, ControlSpec(FORM_MULTI, source), runs, seed=5, pilot_fraction=fraction)
        (note,) = [note for note in report.notes if note.startswith("least-squares")]
        k = 2
        if source == SOURCE_PILOT:
            fitted_on = report.pilot_runs_used
            assert fitted_on == 50_000 and f"{(fitted_on - 2) / (fitted_on - k - 2):.4g}" == "1"
            distance = k / (fitted_on - k - 2)
            assert note.endswith(f"(p - 2)/(p - k - 2) = 1 + {distance:.4g} over its floor")
        else:
            assert f"{(runs - k - 1) / (runs - 1):.4g}" == "1"
            distance = k / (runs - 1)
            assert note.endswith(f"(R - k - 1)/(R - 1) = 1 - {distance:.4g}")
        printed = float(re.search(r"= 1 [+-] (\S+)", note).group(1))
        assert printed == pytest.approx(distance, rel=1e-3) and printed > 0.0


def _finite_report(report) -> bool:
    fields = [
        report.estimate,
        report.standard_error,
        report.empirical_variance_ratio,
        report.predicted_variance_ratio,
        *report.per_control_correlations,
    ]
    if report.coefficients is not None:
        fields += [*report.coefficients.values, *report.coefficients.control_means]
    return all(math.isfinite(v) for v in fields)


# Coefficient source with its run count: pilot mode needs
# ceil(0.1 * runs) >= 2 pilot runs, so runs >= 11.
_SOURCE_AND_RUNS = st.sampled_from([(SOURCE_PILOT, 11), (SOURCE_IN_SAMPLE, 4)]).flatmap(
    lambda pair: st.tuples(st.just(pair[0]), st.integers(min_value=pair[1], max_value=400))
)


class TestValidInputsReturn:
    """Few runs per control bias the predicted ratio down; cv_estimate
    still returns, with a note, instead of refusing the input."""

    @given(
        st.sampled_from(sorted(CONTRACT_KINDS)),
        st.sampled_from([1, 2, 5, 30, 252]),
        st.sampled_from([FORM_SINGLE, FORM_MULTI, FORM_CUSTOM]),
        st.floats(min_value=0.01, max_value=3.0),
        _SOURCE_AND_RUNS,
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_never_raises_and_stays_finite(self, kind, n, form, volatility, source_and_runs, seed):
        source, runs = source_and_runs
        model = MarketModel(initial_price=100.0, rate=0.05, volatility=volatility)
        strike = 100.0 if kind in STRIKE_KINDS else None
        spec = ContractSpec(kind=kind, days_to_maturity=n, strike=strike)
        weights = np.random.default_rng(seed).uniform(0.5, 1.5, n) if form == FORM_CUSTOM else None
        control = ControlSpec(form=form, coefficient_source=source, weights=weights)
        report = cv_estimate(model, spec, control, runs, seed=seed)
        assert _finite_report(report)

    @pytest.mark.parametrize("n, runs", [(252, 600), (60, 100), (30, 40)])
    def test_biased_prediction_returns_with_note(self, n, runs):
        spec = ContractSpec(kind=ASIAN_FIXED, days_to_maturity=n, strike=100.0)
        with pytest.warns(UserWarning, match="predicted variance ratio below -0.05"):
            report = cv_estimate(MARKET, spec, ControlSpec(form=FORM_MULTI), runs, seed=0)
        assert report.predicted_variance_ratio < -0.05
        assert _finite_report(report)
        main_runs = runs - math.ceil(0.1 * runs)
        # after the pilot fit's note, where its p = ceil(0.1 * runs) >= 5 runs allow least squares
        *fit_notes, note = report.notes
        p = runs - main_runs
        prefix = f"least-squares pilot coefficients on the span of {{1, i/n}}: k = 2 fitted jointly on p = {p} "
        assert [fit_note.startswith(prefix) for fit_note in fit_notes] == ([True] if p >= 5 else [])
        predicted = report.predicted_variance_ratio
        assert note.startswith(f"predicted variance ratio {predicted:.6g} is below -0.05")
        assert f"q = {n} controls and R = {main_runs} runs" in note
        assert f"q/R = {n / main_runs:.3g}" in note


def _log_uniform(low_exponent, high_exponent):
    return st.floats(min_value=low_exponent, max_value=high_exponent).map(lambda e: 10.0**e)


class TestExtremeMarketsReturnFiniteOrRaise:
    """Markets whose volatility, rate or prices push the arithmetic to
    overflow: each call returns a report with every field finite, or
    raises ValueError. Never another exception, never inf or NaN."""

    @given(
        st.one_of(st.just(0.0), _log_uniform(-3, 160)),
        st.sampled_from([-1.0, 0.0, 0.05, 10.0, 1e3, 1e300]),
        _log_uniform(-300, 300),
        _log_uniform(-300, 300),
        st.sampled_from(sorted(CONTRACT_KINDS)),
        st.sampled_from([1, 5, 30, 252]),
        st.sampled_from([FORM_NONE, FORM_SINGLE, FORM_MULTI, FORM_CUSTOM]),
        st.sampled_from([SOURCE_PILOT, SOURCE_IN_SAMPLE]),
        st.sampled_from([20, 200, 2000]),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    # the volatility whose square overflows, and payoffs whose squared deviations do
    @example(1e200, 0.05, 100.0, 100.0, ASIAN_FIXED, 30, FORM_MULTI, SOURCE_PILOT, 2000, 0)
    @example(0.2, 0.05, 1e160, 1e160, ASIAN_FIXED, 30, FORM_NONE, SOURCE_PILOT, 2000, 0)
    @example(0.2, 0.05, 1e160, 1e160, ASIAN_FIXED, 30, FORM_MULTI, SOURCE_PILOT, 2000, 0)
    @settings(max_examples=200, deadline=None)
    @pytest.mark.filterwarnings("ignore::UserWarning", "ignore::RuntimeWarning")
    def test_finite_report_or_value_error(
        self, volatility, rate, spot, strike, kind, n, form, source, runs, seed
    ):
        weights = np.random.default_rng(seed).uniform(0.5, 1.5, n) if form == FORM_CUSTOM else None
        control = ControlSpec(form=form, coefficient_source=source, weights=weights)
        spec = ContractSpec(kind=kind, days_to_maturity=n, strike=strike if kind in STRIKE_KINDS else None)
        try:
            model = MarketModel(initial_price=spot, rate=rate, volatility=volatility)
            report = cv_estimate(model, spec, control, runs, seed=seed)
        except ValueError:
            return
        assert _finite_report(report)


class TestInSampleOptimality:
    """No linear control beats the jointly optimized one on a fixed sample."""

    ACC = None

    @classmethod
    def accumulator(cls):
        if cls.ACC is None:
            cls.ACC = _asian_sample_accumulator(FORM_MULTI, runs=600)
        return cls.ACC

    @given(
        st.lists(st.floats(min_value=-5.0, max_value=5.0), min_size=5, max_size=5),
        st.floats(min_value=-10.0, max_value=10.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_custom_linear_never_beats_joint_optimum(self, weights, c):
        acc = self.accumulator()
        optimum = insample_variance(acc, optimal_betas(acc)[0]) / acc.variances()[0]
        betas = c * np.asarray(weights)
        ratio = insample_variance(acc, betas) / acc.variances()[0]
        assert ratio >= optimum - 1e-9

    def test_componentwise_betas_close_to_joint_optimum_here(self):
        # the log-returns are independent, so the per-control formula is
        # near-optimal on sample data
        acc = self.accumulator()
        ratio_componentwise = insample_variance(acc, sample_betas(acc)[0]) / acc.variances()[0]
        optimum = insample_variance(acc, optimal_betas(acc)[0]) / acc.variances()[0]
        assert ratio_componentwise <= optimum + 0.01


@pytest.mark.parametrize(
    "argument, value, message",
    [
        pytest.param("batch_size", 0, "batch_size must be >= 1, got -?[01]", id="0"),
        pytest.param("batch_size", -1, "batch_size must be >= 1, got -?[01]", id="-1"),
        pytest.param("batch_size", 512.0, r"^batch_size must be an integer, got 512\.0$", id="batch_size=512.0"),
        pytest.param("batch_size", True, "^batch_size must be an integer, got True$", id="batch_size=True"),
        pytest.param("runs", 1000.0, r"^runs must be an integer, got 1000\.0$", id="runs=1000.0"),
        pytest.param("runs", True, "^runs must be an integer, got True$", id="runs=True"),
        pytest.param("runs", np.float64(100), r"^runs must be an integer, got (np\.float64\()?100\.0\)?$", id="runs=float64"),
    ],
)
@pytest.mark.parametrize(
    "estimate",
    [
        lambda **kw: plain_estimate(MARKET, ASIAN, **{"runs": 100, "seed": 0, **kw}),
        lambda **kw: cv_estimate(MARKET, ASIAN, ControlSpec(form=FORM_MULTI), **{"runs": 100, "seed": 0, **kw}),
        lambda **kw: cv_estimate(
            MARKET,
            ASIAN,
            ControlSpec(form=FORM_SINGLE, coefficient_source="in_sample"),
            **{"runs": 100, "seed": 0, **kw},
        ),
    ],
    ids=["plain", "cv_pilot", "cv_in_sample"],
)
def test_batch_size_below_one_rejected(estimate, argument, value, message):
    with pytest.raises(ValueError, match=message):
        estimate(**{argument: value})


@pytest.mark.parametrize(
    "kwargs, argument, message",
    [
        pytest.param(dict(form="all_of_them"), "form", "unknown control form 'all_of_them'", id="form"),
        pytest.param(dict(coefficient_source="oracle"), "coefficient_source", "unknown coefficient_source", id="source"),
        pytest.param(dict(form=FORM_CUSTOM), "weights", "custom_linear requires weights", id="custom-none"),
        pytest.param(dict(form=FORM_CUSTOM, weights=np.ones((2, 3))), "weights", "nonempty 1-D", id="2-D"),
        pytest.param(dict(form=FORM_CUSTOM, weights=[]), "weights", "nonempty 1-D", id="empty"),
        pytest.param(dict(form=FORM_CUSTOM, weights=[1.0, math.nan]), "weights", "must be finite", id="nan"),
        pytest.param(dict(form=FORM_CUSTOM, weights=[math.inf, 1.0]), "weights", "must be finite", id="inf"),
        pytest.param(dict(form=FORM_CUSTOM, weights=np.zeros(30)), "weights", "all zero", id="zeros"),
        pytest.param(dict(weights=np.ones(3)), "weights", "takes no weights", id="weights-elsewhere"),
    ],
)
def test_control_spec_refusal_names_the_argument(kwargs, argument, message):
    with pytest.raises(ArgumentError, match=message) as refused:
        ControlSpec(**{"form": FORM_SINGLE, **kwargs})
    assert refused.value.argument == argument


ZERO_VOLATILITY = MarketModel(initial_price=100.0, rate=0.05, volatility=0.0)


@pytest.mark.parametrize(
    "call, argument, message",
    [
        pytest.param(dict(runs=1), "runs", r"^runs must be >= 2 \(variance undefined below that\), got 1$", id="plain-runs"),
        pytest.param(
            dict(control=ControlSpec(FORM_MULTI), runs=3), "runs", "^runs must be >= 4 for a control-variate", id="cv-runs"
        ),
        pytest.param(dict(model=ZERO_VOLATILITY, control=ControlSpec(FORM_SINGLE)), "volatility", "zero volatility", id="cv-zero-vol"),
        pytest.param(
            dict(control=ControlSpec(FORM_CUSTOM, weights=np.ones(7))), "weights", "length 7, contract has n=30", id="weights-length"
        ),
        pytest.param(dict(control=ControlSpec(FORM_MULTI), runs=10), "pilot_fraction", "^pilot split too small: 1 pilot / 9 main", id="split"),
        pytest.param(dict(pilot_fraction=1.5), "pilot_fraction", r"^pilot_fraction must be in \(0, 1\)", id="plain-fraction"),
        pytest.param(
            dict(control=ControlSpec(FORM_MULTI, SOURCE_IN_SAMPLE), pilot_fraction=0.0),
            "pilot_fraction",
            r"^pilot_fraction must be in \(0, 1\)",
            id="in-sample-fraction",
        ),
        pytest.param(dict(pilot_fraction="0.1"), "pilot_fraction", "^pilot_fraction must be a real number, got '0.1'$", id="fraction-str"),
        pytest.param(dict(pilot_fraction=None), "pilot_fraction", "^pilot_fraction must be a real number, got None$", id="fraction-none"),
        pytest.param(dict(pilot_fraction=True), "pilot_fraction", "^pilot_fraction must be a real number, got True$", id="fraction-bool"),
        pytest.param(
            dict(control=ControlSpec(FORM_MULTI), pilot_fraction=np.True_),
            "pilot_fraction",
            "^pilot_fraction must be a real number",
            id="fraction-numpy-bool",
        ),
        pytest.param(dict(seed=-1), "seed", "^seed must be a 64-bit unsigned integer", id="seed"),
        pytest.param(dict(batch_size=0), "batch_size", "^batch_size must be >= 1", id="batch_size"),
        pytest.param(dict(runs=10.0), "runs", "^runs must be an integer", id="runs-float"),
        pytest.param(
            dict(model=MarketModel(100.0, -1.0e4, 0.2)),
            "rate",
            r"^rate -10000.0 over 30 days overflows the discount factor exp\(1190\.48\)",
            id="rate",
        ),
    ],
)
def test_check_arguments_names_the_argument(call, argument, message):
    arguments = {"model": MARKET, "spec": ASIAN, "control": ControlSpec(FORM_NONE), "runs": 100, "seed": 0, **call}
    with pytest.raises(ArgumentError, match=message) as refused:
        check_arguments(**arguments)
    assert refused.value.argument == argument
    # it crosses processes, as from a worker of a process pool
    copy = pickle.loads(pickle.dumps(refused.value))
    assert (copy.argument, str(copy)) == (argument, str(refused.value))


@pytest.mark.parametrize("control", [ControlSpec(FORM_NONE), ControlSpec(FORM_MULTI)], ids=["plain", "cv-multi"])
def test_a_rate_that_overflows_the_discount_factor_is_refused_by_name(control):
    # exp(-r * n / N) = exp(1000) overflows: refused before any run is
    # drawn, as any argument is, and by the payoff itself
    model = MarketModel(initial_price=100.0, rate=-1000.0, volatility=0.2)
    spec = ContractSpec(kind=EUROPEAN_CALL, days_to_maturity=252, strike=100.0)
    message = r"^rate -1000.0 over 252 days overflows the discount factor exp\(1000\) in floating point$"
    with pytest.raises(ArgumentError, match=message) as refused:
        cv_estimate(model, spec, control, 100, seed=1)
    assert refused.value.argument == "rate"
    with pytest.raises(ArgumentError, match=message):
        discounted_payoff(model, spec, np.full(252, 100.0))


def test_check_arguments_passes_what_the_estimators_run():
    for control in (ControlSpec(FORM_NONE), ControlSpec(FORM_MULTI), ControlSpec(FORM_MULTI, SOURCE_IN_SAMPLE)):
        check_arguments(MARKET, ASIAN, control, 20, seed=0)
    # in-sample coefficients need no pilot split, and plain Monte Carlo no controls
    check_arguments(MARKET, ASIAN, ControlSpec(FORM_SINGLE, SOURCE_IN_SAMPLE), 4, seed=0)
    check_arguments(ZERO_VOLATILITY, ASIAN, ControlSpec(FORM_NONE), 2, seed=0)


def report_grid(runs: int, batch_size: int, n: int = 30) -> dict:
    """Bits of plain_estimate and of cv_estimate for every form and coefficient source."""
    spec = ContractSpec(kind=ASIAN_FIXED, days_to_maturity=n, strike=100.0)
    grid = {"plain": report_bits(plain_estimate(MARKET, spec, runs, seed=43, batch_size=batch_size))}
    for form in (FORM_SINGLE, FORM_MULTI, FORM_CUSTOM):
        weights = np.linspace(0.5, 1.5, n) if form == FORM_CUSTOM else None
        for source in (SOURCE_PILOT, SOURCE_IN_SAMPLE):
            control = ControlSpec(form=form, coefficient_source=source, weights=weights)
            report = cv_estimate(MARKET, spec, control, runs, seed=43, batch_size=batch_size)
            grid[f"{form}/{source}"] = report_bits(report)
    return grid


def blas_grid() -> dict:
    """report_grid at n = 252, and cv-multi's least-squares pilot (3-wide
    covariance products by einsum and a 2x2 LAPACK solve) at n = 30 and
    252, on one lane and on two."""
    grid = report_grid(2100, 777, n=252)
    for n in (30, 252):
        spec = ContractSpec(kind=ASIAN_FIXED, days_to_maturity=n, strike=100.0)
        for runs in (1000, 20000):
            report = cv_estimate(MARKET, spec, ControlSpec(form=FORM_MULTI), runs, seed=5)
            assert report.notes[-1].startswith("least-squares pilot coefficients on the span of {1, i/n}: k = 2")
            grid[f"least_squares/{n}/{runs}"] = report_bits(report)
    return grid


def _send_plain_bits(connection):
    connection.send(report_bits(plain_estimate(MARKET, ASIAN, 20000, seed=11)))
    connection.close()


def lane_grid(runs: int, batch_size: int, n: int) -> dict:
    """report_grid and a pilot boundary in block 1, as float.hex."""
    spec = ContractSpec(kind=ASIAN_FIXED, days_to_maturity=n, strike=100.0)
    grid = report_grid(runs, batch_size, n)
    late = cv_estimate(MARKET, spec, ControlSpec(form=FORM_MULTI), runs, seed=43, pilot_fraction=0.95, batch_size=batch_size)
    grid["multi_log_returns/late_pilot"] = report_bits(late)
    return grid


def draws_by_thread(monkeypatch) -> list:
    """Record (thread, block of lo) of every LogReturnSampler.rows call from now on."""
    calls = []
    rows = LogReturnSampler.rows

    def recording_rows(self, lo, hi, out=None):
        calls.append((threading.current_thread(), lo // STREAM_BLOCK_ROWS))
        return rows(self, lo, hi, out)

    monkeypatch.setattr(LogReturnSampler, "rows", recording_rows)
    return calls


def lane_blocks(calls) -> set:
    """The blocks that each thread other than the caller's drew, one frozenset per thread.

    Across the calls of a grid: each call has lanes of its own."""
    blocks = {}
    for thread, block in calls:
        if thread is not threading.current_thread():
            blocks.setdefault(thread, set()).add(block)
    return {frozenset(drawn) for drawn in blocks.values()}


class TestPipeline:
    """_simulate runs large calls on two lanes; no number may notice."""

    @pytest.mark.parametrize(
        "chunk_normals, runs",
        [
            (1, 300),  # one-row pieces in one block: this thread alone
            (41 * 30, 4500),
            (300 * 30, 4500),  # at batch 777 a piece ends at run 4096, inside a batch
            (2**17, 4500),
        ],
    )
    @pytest.mark.parametrize("batch_size", [777, 4096])
    @pytest.mark.filterwarnings("ignore:predicted variance ratio below:UserWarning")  # 15 main runs of 300
    def test_chunking_changes_no_bit(self, monkeypatch, chunk_normals, runs, batch_size):
        # The pieces set the rounding, so each chunking is its own reference:
        # one lane against two.
        monkeypatch.setattr(estimators, "_CHUNK_NORMALS", chunk_normals)
        monkeypatch.setattr(estimators, "_THREADED_NORMALS", 2**62)
        one_lane = lane_grid(runs, batch_size, 30)
        calls = draws_by_thread(monkeypatch)
        monkeypatch.setattr(estimators, "_THREADED_NORMALS", 0)
        assert lane_grid(runs, batch_size, 30) == one_lane
        # a lane per block parity
        assert lane_blocks(calls) == ({frozenset({0}), frozenset({1})} if runs > STREAM_BLOCK_ROWS else set())

    @pytest.mark.parametrize("batch_size", [777, 4096])
    @pytest.mark.parametrize("n", [1, 2, 5, 30, 252])
    @pytest.mark.filterwarnings("ignore:predicted variance ratio below:UserWarning")  # 225 main runs at n = 252
    def test_lanes_change_no_bit(self, monkeypatch, n, batch_size):
        # 4500 runs: block 0 goes to lane 0, block 1 to lane 1, and batch 777
        # straddles run 4096
        monkeypatch.setattr(estimators, "_THREADED_NORMALS", 2**62)
        one_lane = lane_grid(4500, batch_size, n)
        calls = draws_by_thread(monkeypatch)
        monkeypatch.setattr(estimators, "_THREADED_NORMALS", 0)
        assert lane_grid(4500, batch_size, n) == one_lane
        assert lane_blocks(calls) == {frozenset({0}), frozenset({1})}
        # in-sample cv-multi, whose per-day cross row is n wide, on two lanes of its own
        calls.clear()
        spec = ContractSpec(kind=ASIAN_FIXED, days_to_maturity=n, strike=100.0)
        in_sample = cv_estimate(MARKET, spec, ControlSpec(FORM_MULTI, SOURCE_IN_SAMPLE), 4500, seed=43, batch_size=batch_size)
        assert report_bits(in_sample) == one_lane[f"{FORM_MULTI}/{SOURCE_IN_SAMPLE}"]
        assert lane_blocks(calls) == {frozenset({0}), frozenset({1})}

    @pytest.mark.parametrize("n", [30, 252])
    @pytest.mark.parametrize("pilot_fraction, pilot_runs", [(0.1, 4096), (0.2, 8192)])
    def test_a_pilot_boundary_on_a_block_edge_changes_no_bit(self, monkeypatch, n, pilot_fraction, pilot_runs):
        # R = 40 960: the pilot ends at the first run of block 1 or 2, where
        # both lanes draw the first piece of their next unit ahead
        spec = ContractSpec(kind=ASIAN_FIXED, days_to_maturity=n, strike=100.0)

        def report():
            control = ControlSpec(form=FORM_MULTI)
            return cv_estimate(MARKET, spec, control, 40960, seed=43, pilot_fraction=pilot_fraction)

        calls = draws_by_thread(monkeypatch)
        two_lanes = report()
        assert two_lanes.pilot_runs_used == pilot_runs
        assert lane_blocks(calls) == {frozenset(range(0, 10, 2)), frozenset(range(1, 10, 2))}
        monkeypatch.setattr(estimators, "_THREADED_NORMALS", 2**62)
        assert report_bits(report()) == report_bits(two_lanes)

    @pytest.mark.parametrize("n", [5, 30])
    def test_prefix_sums_day_by_day_change_no_bit(self, monkeypatch, n):
        # 4500 runs at batch 777 and 4096: pieces of 4096, 777 and 404 rows,
        # on both sides of the row count from which the prices' sums go day by day
        for threshold in ("_DAY_LOOP_ROWS", "_ONE_LANE_DAY_LOOP_ROWS"):
            monkeypatch.setattr(f"cvmc.model.{threshold}", 2**62)
        short_only = lane_grid(4500, 777, n) | report_grid(4500, 4096, n)
        for threshold in ("_DAY_LOOP_ROWS", "_ONE_LANE_DAY_LOOP_ROWS"):
            monkeypatch.setattr(f"cvmc.model.{threshold}", 1)
        assert lane_grid(4500, 777, n) | report_grid(4500, 4096, n) == short_only

    def test_pieces_take_the_prefix_sums_of_their_lanes(self, monkeypatch):
        # two lanes keep the day loop from 1024 rows, whose np.add calls
        # would wait for the other lane's; one lane takes it from 320
        routes = []
        prices = estimators._prices

        def recording_prices(model, x, out, one_lane):
            threshold = cvmc.model._ONE_LANE_DAY_LOOP_ROWS if one_lane else cvmc.model._DAY_LOOP_ROWS
            routes.append((len(x), "day loop" if len(x) >= threshold else "cumsum"))
            return prices(model, x, out, one_lane)

        monkeypatch.setattr(estimators, "_prices", recording_prices)
        calls = draws_by_thread(monkeypatch)
        long_spec = ContractSpec(kind=ASIAN_FIXED, days_to_maturity=252, strike=100.0)
        plain_estimate(MARKET, long_spec, 100_000, seed=11)
        assert len(lane_blocks(calls)) == 2 and {route for _, route in routes} == {"cumsum"}
        assert max(rows for rows, _ in routes) == 520
        for runs, rows in ((20_000, 4096), (1000, 1000)):
            routes.clear()
            cv_estimate(MARKET, ASIAN, ControlSpec(form=FORM_MULTI), runs, seed=11)
            assert max(rows for rows, _ in routes) == rows
            assert {route for r, route in routes if r >= 320} == {"day loop"}

    def test_lanes_that_wait_for_each_other_change_no_bit(self, monkeypatch):
        # one-row pieces, and the threads switch as often as they can
        monkeypatch.setattr(estimators, "_CHUNK_NORMALS", 30)
        monkeypatch.setattr(estimators, "_THREADED_NORMALS", 2**62)
        one_lane = report_grid(4200, 4096)
        monkeypatch.setattr(estimators, "_THREADED_NORMALS", 0)
        events = []  # ("made" or "merged", accumulator), in the order the lanes reach them
        merge = MomentAccumulator.merge

        def recording_merge(self, other):
            events.append(("merged", other))
            return merge(self, other)

        add_batch = MomentAccumulator.add_batch

        def recording_add_batch(self, xs):
            if self.count == 0:
                events.append(("made", self))
            return add_batch(self, xs)

        monkeypatch.setattr(MomentAccumulator, "merge", recording_merge)
        monkeypatch.setattr(MomentAccumulator, "add_batch", recording_add_batch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads switch as often as they can
        try:
            assert report_grid(4200, 4096) == one_lane
        finally:
            sys.setswitchinterval(interval)
        # Unit accumulators are the ones merged; a phase's is merged into.
        units = {id(acc) for event, acc in events if event == "merged"}
        unmerged = np.cumsum([1 if event == "made" else -1 for event, acc in events if id(acc) in units])
        # a pilot-mode call has three units, the pilot's runs of block 0 and
        # the main phase's of blocks 0 and 1, fewer than _UNITS_AHEAD: one
        # window holds them across the pilot boundary, and each is merged
        assert unmerged.min() >= 0 and unmerged.max() <= min(3, estimators._UNITS_AHEAD) and unmerged[-1] == 0

    @pytest.mark.filterwarnings("ignore:predicted variance ratio below:UserWarning")
    def test_the_window_spans_the_pilot_boundary_and_holds_at_most_units_ahead(self, monkeypatch):
        # 20 blocks on two lanes, and the pilot boundary, run 9831, inside
        # block 2, whose piece serves the units on both sides of it. While
        # lane 0 is held in block 0, lane 1 draws its blocks among the first
        # _UNITS_AHEAD units, past the boundary (3 and 5), and no further;
        # no more than _UNITS_AHEAD unit accumulators are ever unmerged.
        runs, fraction = 20 * STREAM_BLOCK_ROWS, 0.12
        control = ControlSpec(form=FORM_MULTI)
        monkeypatch.setattr(estimators, "_THREADED_NORMALS", 2**62)
        one_lane = report_bits(cv_estimate(MARKET, ASIAN, control, runs, seed=3, pilot_fraction=fraction))
        monkeypatch.setattr(estimators, "_THREADED_NORMALS", 0)
        unit_blocks = [0, 1, 2, *range(2, 20)]  # the block of each unit, in run order
        window = sorted({block for block in unit_blocks[: estimators._UNITS_AHEAD] if block % 2})
        odd = []  # the odd blocks drawn, in order
        held = []  # those drawn when lane 0's hold ended
        rows = LogReturnSampler.rows

        def holding_rows(self, lo, hi, out=None):
            block = lo // STREAM_BLOCK_ROWS
            if block % 2:
                odd.append(block)
            elif lo == 0:
                deadline = time.monotonic() + 10
                while len(odd) < len(window) and time.monotonic() < deadline:
                    time.sleep(0.01)
                time.sleep(0.2)  # time for lane 1 to start another block, were it handed one
                held.append(list(odd))
            return rows(self, lo, hi, out)

        events = []  # ("made" or "merged", accumulator), in the order the lanes reach them
        merge, add_batch = MomentAccumulator.merge, MomentAccumulator.add_batch

        def recording_merge(self, other):
            events.append(("merged", other))
            return merge(self, other)

        def recording_add_batch(self, xs):
            if self.count == 0:
                events.append(("made", self))
            return add_batch(self, xs)

        monkeypatch.setattr(LogReturnSampler, "rows", holding_rows)
        monkeypatch.setattr(MomentAccumulator, "merge", recording_merge)
        monkeypatch.setattr(MomentAccumulator, "add_batch", recording_add_batch)
        report = cv_estimate(MARKET, ASIAN, control, runs, seed=3, pilot_fraction=fraction)
        assert report.pilot_runs_used == 9831 and report_bits(report) == one_lane
        assert held == [window] and odd == list(range(1, 20, 2))
        units = {id(acc) for event, acc in events if event == "merged"}
        assert len(units) == len(unit_blocks)
        unmerged = np.cumsum([1 if event == "made" else -1 for event, acc in events if id(acc) in units])
        assert unmerged.min() >= 0 and unmerged.max() <= estimators._UNITS_AHEAD and unmerged[-1] == 0

    def test_while_the_even_lane_is_held_the_odd_lane_folds_only_its_units_in_the_window(self, monkeypatch):
        # 11 blocks in one phase: while lane 0 is held in block 0, lane 1
        # folds its blocks among the first _UNITS_AHEAD, 1, 3, 5 and 7, and
        # then waits for the merge; block 9 follows once the hold ends
        folded = []  # the blocks of lane 1's add_batch calls, once done
        held = []  # what lane 1 had folded when lane 0's hold ended
        window = list(range(1, min(estimators._UNITS_AHEAD, 11), 2))  # lane 1's blocks in the window
        rows = LogReturnSampler.rows
        add_batch = MomentAccumulator.add_batch
        drawn = {}  # per thread, the block it drew last

        def holding_rows(self, lo, hi, out=None):
            block = lo // STREAM_BLOCK_ROWS
            drawn[threading.current_thread()] = block
            if block == 0:
                deadline = time.monotonic() + 10
                while len(folded) < len(window) and time.monotonic() < deadline:
                    time.sleep(0.01)
                time.sleep(0.2)  # time for lane 1 to start another block, were it handed one
                held.append(list(folded))
            return rows(self, lo, hi, out)

        def recording_add_batch(self, xs):
            add_batch(self, xs)
            block = drawn.get(threading.current_thread(), 0)  # the caller's thread draws nothing
            if block % 2 == 1:
                folded.append(block)

        monkeypatch.setattr(LogReturnSampler, "rows", holding_rows)
        monkeypatch.setattr(MomentAccumulator, "add_batch", recording_add_batch)
        plain_estimate(MARKET, ASIAN, 11 * STREAM_BLOCK_ROWS, seed=3)
        assert held == [window]
        assert folded == [1, 3, 5, 7, 9]

    def test_after_a_failure_each_lane_starts_no_block_beyond_the_window(self, monkeypatch):
        # a 60-block plain call whose block 1 fails while block 0 is held
        # 0.2 s: lane 1 goes on with the blocks already handed to it, but no
        # lane starts a block that is _UNITS_AHEAD or more after block 1
        rows = LogReturnSampler.rows

        def failing_rows(self, lo, hi, out=None):
            block = lo // STREAM_BLOCK_ROWS
            if block == 0:
                time.sleep(0.2)
            elif block == 1:
                raise MemoryError("block 1")
            return rows(self, lo, hi, out)

        monkeypatch.setattr(LogReturnSampler, "rows", failing_rows)
        calls = draws_by_thread(monkeypatch)
        before = threading.active_count()
        with pytest.raises(MemoryError, match="block 1$"):
            plain_estimate(MARKET, ASIAN, 60 * STREAM_BLOCK_ROWS, seed=3)
        assert threading.active_count() == before
        # the blocks of each parity on a lane of their own
        assert len({thread for thread, _ in calls}) == 2 and threading.current_thread() not in dict(calls)
        for lane in {thread for thread, _ in calls}:
            drawn = [block for thread, block in calls if thread is lane]
            assert drawn == sorted(drawn) and drawn[-1] < 1 + estimators._UNITS_AHEAD, drawn

    @pytest.mark.filterwarnings("ignore:predicted variance ratio below:UserWarning")  # 90 main runs at R = 100
    def test_one_block_calls_run_on_the_callers_thread(self, monkeypatch):
        # the calls of the replications workload, whose bits bit_contract.FOLDED pins
        calls = draws_by_thread(monkeypatch)
        for runs in (100, 250, 319, 320, 1000, 4000):
            plain_estimate(MARKET, ASIAN, runs, seed=11)
            cv_estimate(MARKET, ASIAN, ControlSpec(form=FORM_MULTI), runs, seed=11)
        for kind in (LOOKBACK_FLOATING, ASIAN_FLOATING):
            plain_estimate(MARKET, ContractSpec(kind=kind, days_to_maturity=30), 4000, seed=11)
        assert len(calls) == 14 and lane_blocks(calls) == set()  # every call on the caller's thread

    def test_reports_do_not_depend_on_blas_threads(self):
        code = (
            "import json, sys\n"
            f"sys.path[:0] = [{str(Path(estimators.__file__).parents[1])!r}, {str(Path(__file__).parent)!r}]\n"
            "from test_estimators import blas_grid\n"
            "print(json.dumps(blas_grid()))\n"
        )
        # one BLAS thread, and (where the platform allows) one CPU for the whole process
        children = [({"OPENBLAS_NUM_THREADS": "1"}, None)]
        if hasattr(os, "sched_setaffinity"):
            cpu = min(os.sched_getaffinity(0))
            children.append(({}, lambda: os.sched_setaffinity(0, {cpu})))
        expected = json.loads(json.dumps(blas_grid()))
        for variables, pin in children:
            env = {**os.environ, **variables}
            out = subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env, preexec_fn=pin
            )
            assert json.loads(out.stdout) == expected, variables

    @pytest.mark.parametrize("n", [30, 252])
    def test_custom_control_of_a_run_does_not_depend_on_batch_size(self, monkeypatch, n):
        spec = ContractSpec(kind=ASIAN_FIXED, days_to_maturity=n, strike=100.0)
        controls = estimators._Controls(MARKET, n, ControlSpec(form=FORM_CUSTOM, weights=np.linspace(0.5, 1.5, n)))
        add_batch = MomentAccumulator.add_batch

        def per_run(batch_size):
            values = []

            def recording_add_batch(self, xs):
                values.append(xs[:, 1].copy())
                return add_batch(self, xs)

            monkeypatch.setattr(MomentAccumulator, "add_batch", recording_add_batch)
            acc = MomentAccumulator(2)
            estimators._simulate(MARKET, spec, 3, 1100, batch_size, controls, [(1100, acc)])
            return np.concatenate(values)

        reference = per_run(1100)
        for batch_size in (1, 7, 250, 520, 777):
            assert per_run(batch_size).tobytes() == reference.tobytes(), batch_size

    def test_only_large_calls_use_two_lanes(self, monkeypatch):
        calls = draws_by_thread(monkeypatch)
        plain_estimate(MARKET, ASIAN, 4000, seed=3)  # 120 000 normals
        caller = threading.current_thread()
        assert calls == [(caller, 0)]
        calls.clear()
        plain_estimate(MARKET, ASIAN, 20000, seed=3)  # 600 000 normals, blocks 0..4
        assert caller not in dict(calls)
        assert lane_blocks(calls) == {frozenset({0, 2, 4}), frozenset({1, 3})}
        calls.clear()
        # in-sample cv-multi at n = 252 (1.26e6 normals) as any call of its size
        spec = ContractSpec(kind=ASIAN_FIXED, days_to_maturity=252, strike=100.0)
        cv_estimate(MARKET, spec, ControlSpec(form=FORM_MULTI, coefficient_source=SOURCE_IN_SAMPLE), 5000, seed=3)
        assert caller not in dict(calls)
        assert lane_blocks(calls) == {frozenset({0}), frozenset({1})}

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_worker_is_joined_after_return_and_raise(self):
        before = threading.active_count()
        plain_estimate(MARKET, ASIAN, 20000, seed=3)
        assert threading.active_count() == before
        model = MarketModel(1e307, 0.05, 50.0)
        spec = ContractSpec(kind=ASIAN_FIXED, days_to_maturity=252, strike=100.0)
        with pytest.raises(ValueError, match=r"non-finite payoff in runs 0\.\.999 "):
            cv_estimate(model, spec, ControlSpec(form=FORM_MULTI), 9000, seed=5, batch_size=1000)
        assert threading.active_count() == before

    def test_worker_exception_is_raised_by_the_caller(self, monkeypatch):
        rows = LogReturnSampler.rows
        caller = threading.current_thread()

        def failing_rows(self, lo, hi, out=None):
            if lo >= 5000 and threading.current_thread() is not caller:
                raise MemoryError("worker failed")
            return rows(self, lo, hi, out)

        monkeypatch.setattr(LogReturnSampler, "rows", failing_rows)
        before = threading.active_count()
        with pytest.raises(MemoryError, match="worker failed"):
            cv_estimate(MARKET, ASIAN, ControlSpec(form=FORM_MULTI), 20000, seed=3)
        assert threading.active_count() == before

    def test_a_worker_that_fails_before_its_first_piece_is_raised(self, monkeypatch):
        init = LogReturnSampler.__init__
        caller = threading.current_thread()

        def failing_init(self, *args):
            if threading.current_thread() is not caller:
                raise MemoryError("no sampler")
            init(self, *args)

        monkeypatch.setattr(LogReturnSampler, "__init__", failing_init)
        before = threading.active_count()
        with pytest.raises(MemoryError, match="no sampler"):
            plain_estimate(MARKET, ASIAN, 20000, seed=3)
        assert threading.active_count() == before

    @pytest.mark.parametrize(
        "failing, raised",
        [((1, 2), "block 1"), ((2, 3), "block 2"), ((1,), "block 1")],
        ids=["both-worker-first", "both-caller-first", "worker-only"],
    )
    def test_the_first_failure_in_run_order_is_raised(self, monkeypatch, failing, raised):
        rows = LogReturnSampler.rows

        def failing_rows(self, lo, hi, out=None):
            block = lo // STREAM_BLOCK_ROWS
            if block == 2:  # the caller's: by now the worker's block 1 has failed
                time.sleep(0.2)
            if block in failing:
                raise MemoryError(f"block {block}")
            return rows(self, lo, hi, out)

        monkeypatch.setattr(LogReturnSampler, "rows", failing_rows)
        before = threading.active_count()
        for _ in range(2):
            with pytest.raises(MemoryError, match=raised):
                plain_estimate(MARKET, ASIAN, 20000, seed=3)
        assert threading.active_count() == before

    @pytest.mark.parametrize("runs", [1000, 20000], ids=["one-lane", "two-lanes"])
    def test_a_value_error_inside_a_unit_reaches_the_caller_unchanged(self, monkeypatch, runs):
        # only an overflow of the moments is restated with the phase's row
        # count; any other ValueError is raised as it was, cause and all
        def failing_add_batch(self, y, x):
            raise ValueError("boom")

        monkeypatch.setattr(estimators._DayCross, "add_batch", failing_add_batch)
        calls = draws_by_thread(monkeypatch)
        with pytest.raises(ValueError) as raised:
            cv_estimate(MARKET, ASIAN, ControlSpec(form=FORM_MULTI), runs, seed=3)
        assert type(raised.value) is ValueError and str(raised.value) == "boom"
        assert raised.value.__cause__ is None and not raised.value.__suppress_context__
        assert raised.traceback[-1].name == "failing_add_batch"
        assert len(lane_blocks(calls)) == (2 if runs > STREAM_BLOCK_ROWS else 0)

    def test_failures_on_both_lanes_under_fast_switching(self, monkeypatch):
        # 20 blocks in 512-row pieces, threads switching as often as they
        # can: the first failure in run order is raised, and no lane starts
        # a block _UNITS_AHEAD or more after it. Block 0 is held a moment,
        # so that lane 1 would draw its blocks to the end were it not for
        # the window.
        monkeypatch.setattr(estimators, "_CHUNK_NORMALS", 30 * 512)
        rows = LogReturnSampler.rows
        rng = np.random.default_rng(5)
        failing = set()

        def failing_rows(self, lo, hi, out=None):
            block = lo // STREAM_BLOCK_ROWS
            if lo == 0:
                time.sleep(0.1)
            if block in failing:
                raise MemoryError(f"block {block}")
            return rows(self, lo, hi, out)

        monkeypatch.setattr(LogReturnSampler, "rows", failing_rows)
        calls = draws_by_thread(monkeypatch)
        before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(8):
                failing = set(rng.choice(20, size=3, replace=False).tolist())
                calls.clear()
                with pytest.raises(MemoryError, match=f"block {min(failing)}$"):
                    plain_estimate(MARKET, ASIAN, 20 * STREAM_BLOCK_ROWS, seed=3)
                drawn = {block for _, block in calls}
                assert max(drawn) < min(failing) + estimators._UNITS_AHEAD, (failing, sorted(drawn))
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == before

    @pytest.mark.parametrize("failure", ["degenerate", "caller-payoff"])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_failure_across_the_pilot_boundary_is_raised(self, monkeypatch, failure):
        # 50 000 runs: the pilot boundary, run 5000, is in lane 1's block 1,
        # whose units on both sides of it wait in the one window. A degenerate
        # pilot fit is raised after the pass; a payoff that fails in lane 0's
        # block 2, past the boundary, as it meets the merge. Either way the
        # call returns, and lane 1 has drawn.
        if failure == "degenerate":
            market, message = MarketModel(100.0, 0.05, 1e-10), "degenerate control"
        else:
            market, message = MARKET, r"non-finite payoff in runs 8192\.\.12287 "
            fill = estimators._fill_rows

            def failing_in_block_2(model, spec, controls, x, rows, lo, hi, prices, one_lane):
                if lo // STREAM_BLOCK_ROWS == 2:
                    x[0, 0] = np.inf
                return fill(model, spec, controls, x, rows, lo, hi, prices, one_lane)

            monkeypatch.setattr(estimators, "_fill_rows", failing_in_block_2)
        calls = draws_by_thread(monkeypatch)
        before = threading.active_count()
        outcome = []

        def call():
            try:
                cv_estimate(market, ASIAN, ControlSpec(form=FORM_MULTI), 50000, seed=3)
            except ValueError as exc:
                outcome.append(exc)

        caller = threading.Thread(target=call, daemon=True)
        caller.start()
        caller.join(60)
        assert not caller.is_alive(), "the call has not returned within 60 s"
        assert len(outcome) == 1 and re.search(message, str(outcome[0]))
        assert 1 in {block for thread, block in calls if thread is not caller}
        assert threading.active_count() == before

    def test_the_coefficients_are_fitted_once_after_the_last_draw(self, monkeypatch):
        # R = 1e5 on two lanes, the boundary, run 10 000, inside lane 0's
        # block 2: no lane waits for the fit, which follows the pass
        events = []
        rows = LogReturnSampler.rows
        betas = estimators.optimal_betas

        def recording_rows(self, lo, hi, out=None):
            events.append(("draws", lo // STREAM_BLOCK_ROWS))
            return rows(self, lo, hi, out)

        def recording_betas(*args):
            events.append(("betas", None))
            return betas(*args)

        monkeypatch.setattr(LogReturnSampler, "rows", recording_rows)
        monkeypatch.setattr(estimators, "optimal_betas", recording_betas)
        cv_estimate(MARKET, ASIAN, ControlSpec(form=FORM_MULTI), 100_000, seed=3)
        assert events.count(("betas", None)) == 1 and events[-1] == ("betas", None)
        assert {block for _, block in events[:-1]} == set(range(25))

    @pytest.mark.parametrize("form", [FORM_NONE, FORM_SINGLE])
    def test_memory_does_not_grow_with_runs(self, form):
        # european_call at n = 1 on two lanes, plain and pilot-mode cv-single:
        # 489 units against 1954 (one more with a pilot), of which at most
        # _UNITS_AHEAD are held at a time, across the pilot boundary too
        spec = ContractSpec(kind="european_call", days_to_maturity=1, strike=100.0)
        control = ControlSpec(form=form)
        cv_estimate(MARKET, spec, control, 600_000, seed=3)  # on two lanes, so that their imports are done
        peaks = []
        for runs in (2 * 10**6, 8 * 10**6):
            tracemalloc.start()
            try:
                cv_estimate(MARKET, spec, control, runs, seed=3)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 2**19, peaks

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_call_that_fails_at_once_sets_up_little(self):
        # batch 1 over 10^6 runs: a million batches, and the second one's
        # squared deviations overflow
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="overflow floating point after 2 rows"):
                plain_estimate(MarketModel(1e307, 0.05, 50.0), ASIAN, 10**6, seed=3, batch_size=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("block", [2, 3])
    @pytest.mark.parametrize("form", [FORM_NONE, FORM_MULTI])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_segment_that_overflows_alone_reads_the_same_on_either_lane_count(self, monkeypatch, block, form):
        # payoffs of about 1e160 from this block on: their squared deviations overflow
        fill = estimators._fill_rows

        def huge_from_block(model, spec, controls, x, rows, lo, hi, prices, one_lane):
            fill(model, spec, controls, x, rows, lo, hi, prices, one_lane)
            if lo // STREAM_BLOCK_ROWS >= block:
                rows[:, 0] *= 1e160

        monkeypatch.setattr(estimators, "_fill_rows", huge_from_block)
        messages = []
        for threshold in (2**62, 0):
            monkeypatch.setattr(estimators, "_THREADED_NORMALS", threshold)
            with pytest.raises(ValueError, match="overflow") as raised:
                cv_estimate(MARKET, ASIAN, ControlSpec(form=form), 20000, seed=3)
            messages.append(str(raised.value))
        # as many rows as the phase has up to the end of the block's first piece
        main_start = 0 if form == FORM_NONE else 2000
        assert messages == [f"the moments overflow floating point after {(block + 1) * STREAM_BLOCK_ROWS - main_start} rows: "
                            "sums of squared deviations are non-finite"] * 2

    def test_the_worker_computes_under_the_callers_numpy_error_state(self, monkeypatch):
        states = []
        fill = estimators._fill_rows

        def recording_fill(*args):
            states.append((threading.current_thread(), np.geterr()["over"]))
            return fill(*args)

        monkeypatch.setattr(estimators, "_fill_rows", recording_fill)
        with np.errstate(over="ignore"):
            plain_estimate(MARKET, ASIAN, 20000, seed=3)
        assert len({thread for thread, _ in states}) == 2
        assert {state for _, state in states} == {"ignore"}

    @pytest.mark.skipif(
        estimators._sched_getcpu is None or len(getattr(os, "sched_getaffinity", lambda _: ())(0)) < 2,
        reason="needs Linux and at least two usable CPUs",
    )
    def test_lanes_keep_to_disjoint_cpus(self, monkeypatch):
        allowed = os.sched_getaffinity(0)
        caller_cpu = min(allowed)
        monkeypatch.setattr(estimators, "_sched_getcpu", lambda: caller_cpu)
        cpus_by_parity = {}  # per block parity: the (thread, CPUs) of its draws
        rows = LogReturnSampler.rows

        def recording_rows(self, lo, hi, out=None):
            parity = lo // STREAM_BLOCK_ROWS % 2
            cpus_by_parity.setdefault(parity, set()).add((threading.current_thread(), frozenset(os.sched_getaffinity(0))))
            return rows(self, lo, hi, out)

        monkeypatch.setattr(LogReturnSampler, "rows", recording_rows)
        plain_estimate(MARKET, ASIAN, 20000, seed=3)
        ((even_thread, even_cpus),), ((odd_thread, odd_cpus),) = cpus_by_parity[0], cpus_by_parity[1]
        assert even_thread is not odd_thread and threading.current_thread() not in (even_thread, odd_thread)
        assert (even_cpus, odd_cpus) == ({caller_cpu}, allowed - {caller_cpu})
        assert os.sched_getaffinity(0) == allowed  # the caller's thread is left as it was

    def test_worker_placement_changes_no_bit(self, monkeypatch):
        expected = report_bits(plain_estimate(MARKET, ASIAN, 20000, seed=11))
        monkeypatch.setattr(estimators, "_sched_getcpu", None)  # no placement
        assert estimators._other_cpus() == set()
        assert report_bits(plain_estimate(MARKET, ASIAN, 20000, seed=11)) == expected

        def refuse(pid, cpus):
            raise OSError("placement refused")

        monkeypatch.setattr(estimators, "_other_cpus", lambda: {1})
        monkeypatch.setattr(os, "sched_setaffinity", refuse, raising=False)
        assert report_bits(plain_estimate(MARKET, ASIAN, 20000, seed=11)) == expected

    def test_forked_child_draws_the_same_bits(self):
        expected = report_bits(plain_estimate(MARKET, ASIAN, 20000, seed=11))
        context = multiprocessing.get_context("fork")
        receiver, sender = context.Pipe(duplex=False)
        child = context.Process(target=_send_plain_bits, args=(sender,))
        child.start()
        sender.close()
        try:
            assert receiver.poll(60), "the forked child returned nothing within 60 s"
            assert receiver.recv() == expected
        finally:
            child.join(10)
            if child.is_alive():
                child.kill()
                child.join()
        assert child.exitcode == 0


class TestSharedControls:
    """The calls of a form without weights share its read-only _Controls per (model, n, form)."""

    def test_changing_a_report_changes_no_bit_of_the_next_call(self):
        control = ControlSpec(form=FORM_MULTI)
        expected = report_bits(cv_estimate(MARKET, ASIAN, control, 1000, seed=5))
        report = cv_estimate(MARKET, ASIAN, control, 1000, seed=5)
        for array in (report.coefficients.values, report.coefficients.control_means, report.per_control_correlations):
            array[...] = 7.0
        assert report_bits(cv_estimate(MARKET, ASIAN, control, 1000, seed=5)) == expected

    def test_two_markets_at_one_n_get_their_own_controls(self):
        other = MarketModel(initial_price=100.0, rate=0.01, volatility=0.4)
        control = ControlSpec(form=FORM_MULTI)
        for market in (MARKET, other, MARKET):
            report = cv_estimate(market, ASIAN, control, 1000, seed=5)
            assert np.all(report.coefficients.control_means == market.daily_mean)
        assert estimators._controls(MARKET, 30, control) is not estimators._controls(other, 30, control)

    def test_custom_weights_at_one_n_give_their_own_z(self):
        x = LogReturnSampler(MARKET, 30, 5).rows(0, 100)
        values = [
            estimators._controls(MARKET, 30, ControlSpec(form=FORM_CUSTOM, weights=w)).values(x)
            for w in (np.linspace(0.5, 1.5, 30), np.linspace(1.5, 0.5, 30))
        ]
        assert not np.array_equal(*values)
        assert np.allclose(values[1], x @ np.linspace(1.5, 0.5, 30)[:, None])

    def test_the_shared_controls_are_read_only_and_bounded(self):
        for n in range(1, 3 * estimators._SHARED_CONTROLS):
            for form in (FORM_SINGLE, FORM_MULTI):
                controls = estimators._controls(MARKET, n, ControlSpec(form=form))
                for array in (controls.rows, controls.z_means, controls.exact_variances, controls.means):
                    assert not array.flags.writeable
                    with pytest.raises(ValueError, match="read-only"):
                        array[...] = 0.0
        assert estimators._shared_controls.cache_info().currsize == estimators._SHARED_CONTROLS
        # at most 4n doubles each
        assert estimators._SHARED_CONTROLS * 4 * 8 * estimators._SHARED_CONTROL_DAYS <= 2**21
        large = estimators._SHARED_CONTROL_DAYS + 1
        before = estimators._shared_controls.cache_info()
        first = estimators._controls(MARKET, large, ControlSpec(form=FORM_MULTI))
        assert first is not estimators._controls(MARKET, large, ControlSpec(form=FORM_MULTI))
        assert estimators._shared_controls.cache_info() == before
