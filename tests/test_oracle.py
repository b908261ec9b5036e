import itertools
import math

import numpy as np
import pytest

from cvmc import (
    FiniteJointDistribution,
    MomentAccumulator,
    brute_force_cv_variance,
    exact_moments,
    insample_variance,
    optimal_betas,
    run_inequality_trials,
    correlation_inequality_check,
)
from cvmc import ASIAN_FIXED, ContractSpec, ControlSpec, MarketModel, cv_estimate, estimators, oracle
from cvmc.estimators import FORM_MULTI
from cvmc.model import ArgumentError, LogReturnSampler, prices_from_log_returns
from cvmc.payoffs import ASIAN_FLOATING, EUROPEAN_CALL, LOOKBACK_FLOATING, STRIKE_KINDS, discounted_payoff
from cvmc.oracle import random_independent_trial, random_joint_law


def two_point_yv():
    # (Y,V) in {(0,0),(2,1)} with equal probability
    return FiniteJointDistribution.from_atoms(
        ("Y", "V"), [[0.0, 0.0], [2.0, 1.0]], [0.5, 0.5]
    )


class TestFiniteJointDistribution:
    def test_validation(self):
        with pytest.raises(ValueError):
            FiniteJointDistribution.from_atoms(("Y",), np.empty((0, 1)), [])
        with pytest.raises(ValueError):
            FiniteJointDistribution.from_atoms(("Y",), [[1.0], [2.0]], [0.6, 0.6])
        with pytest.raises(ValueError):
            FiniteJointDistribution.from_atoms(("Y",), [[1.0], [2.0]], [1.2, -0.2])
        with pytest.raises(ValueError):
            FiniteJointDistribution.from_atoms(("Y", "V"), [[1.0], [2.0]], [0.5, 0.5])

    def test_product_construction(self):
        dist = FiniteJointDistribution.independent(
            [([0.0, 1.0], [0.5, 0.5]), ([-1.0, 2.0], [0.25, 0.75])]
        )
        assert dist.names == ("X1", "X2")
        assert dist.outcomes.shape == (4, 2)
        assert dist.probabilities.sum() == pytest.approx(1.0, abs=1e-15)
        # marginal of X2 recovered by summing over X1
        p_x2 = {v: 0.0 for v in (-1.0, 2.0)}
        for row, p in zip(dist.outcomes, dist.probabilities):
            p_x2[row[1]] += p
        assert p_x2[-1.0] == pytest.approx(0.25, abs=1e-15)

    def test_product_matches_atom_by_atom_enumeration(self):
        # atoms in itertools.product order (last variable fastest), each
        # probability the left-to-right product of its marginal probabilities
        rng = np.random.default_rng(3)
        for _ in range(200):
            marginals = []
            for _ in range(int(rng.integers(1, 5))):
                k = int(rng.integers(1, 5))
                marginals.append((rng.uniform(-1.0, 1.0, size=k), rng.dirichlet(np.ones(k))))
            dist = FiniteJointDistribution.independent(marginals)
            combos = list(itertools.product(*(range(len(v)) for v, _ in marginals)))
            atoms = [[marginals[i][0][j] for i, j in enumerate(c)] for c in combos]
            probs = [math.prod(marginals[i][1][j] for i, j in enumerate(c)) for c in combos]
            assert np.array_equal(dist.outcomes, np.array(atoms))
            assert np.array_equal(dist.probabilities, np.array(probs))

    def test_with_target_prepends_function(self):
        base = FiniteJointDistribution.independent([([0.0, 1.0], [0.5, 0.5])])
        dist = base.with_target(lambda row: 3.0 * row[0] + 1.0)
        assert dist.names == ("Y", "X1")
        assert dist.outcomes[:, 0].tolist() == [1.0, 4.0]

    def test_sampling_spot_checks_exact_moments(self):
        dist = two_point_yv()
        moments = exact_moments(dist)
        rng = np.random.default_rng(11)
        draws = dist.outcomes[rng.choice(len(dist.probabilities), size=200_000, p=dist.probabilities)]
        se_mean = math.sqrt(moments.variance(0) / draws.shape[0])
        assert abs(draws[:, 0].mean() - moments.mean[0]) < 4 * se_mean
        sample_cov = np.cov(draws.T, ddof=1)[0, 1]
        assert sample_cov == pytest.approx(moments.covariance[0, 1], abs=0.02)


class TestExactMoments:
    def test_two_point_law(self):
        m = exact_moments(two_point_yv())
        assert m.mean.tolist() == [1.0, 0.5]
        assert m.covariance[0, 1] == pytest.approx(0.5, abs=1e-15)
        assert m.correlation(0, 1) == pytest.approx(1.0, abs=1e-12)

    def test_independent_product_has_zero_cross_covariance(self):
        dist = FiniteJointDistribution.independent(
            [([0.1, 0.9, -0.3], [0.2, 0.5, 0.3]), ([-1.0, 2.0], [0.6, 0.4]), ([0.0, 5.0], [0.9, 0.1])]
        )
        cov = exact_moments(dist).covariance
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert abs(cov[i, j]) < 1e-12

    def test_single_atom_has_zero_variance(self):
        dist = FiniteJointDistribution.from_atoms(("Y", "V"), [[3.0, -2.0]], [1.0])
        m = exact_moments(dist)
        assert m.variance(0) == 0.0
        assert m.variance(1) == 0.0
        with pytest.raises(ValueError):
            m.correlation(0, 1)

    def test_matches_streaming_accumulator_on_expanded_sample(self):
        # replicate atoms by probability weight and feed the estimator-side
        # accumulator: the coefficient and var(W) must agree with exact
        # enumeration, whose moments are the sample ones times (N-1)/N
        dist = FiniteJointDistribution.from_atoms(
            ("Y", "V"),
            [[0.0, 1.0], [1.0, -1.0], [2.0, 0.5], [-1.0, 0.25]],
            [0.125, 0.25, 0.5, 0.125],
        )
        rows = []
        for row, p in zip(dist.outcomes, dist.probabilities):
            rows.extend([row] * int(round(p * 8)))
        n = len(rows)
        acc = MomentAccumulator(2)
        acc.add_batch(np.array(rows))
        exact = exact_moments(dist)
        assert np.allclose(acc.mean, exact.mean, rtol=1e-14)
        betas, notes = optimal_betas(acc, acc.variances()[1:])
        exact_betas = -exact.covariance[0, 1:] / np.diag(exact.covariance)[1:]
        assert notes == []
        assert np.allclose(betas, exact_betas, rtol=1e-12, atol=0)
        assert insample_variance(acc, betas) * (n - 1) / n == pytest.approx(
            brute_force_cv_variance(dist, float(betas[0])), rel=1e-12
        )


def expanded_sample(dist, copies):
    """An accumulator over the atoms of dist, each repeated probability * copies times."""
    counts = np.rint(dist.probabilities * copies).astype(int)
    assert counts.sum() == copies and np.allclose(counts / copies, dist.probabilities, rtol=0, atol=1e-15)
    acc = MomentAccumulator(dist.n_variables)
    acc.add_batch(np.repeat(dist.outcomes, counts, axis=0))
    return acc


def least_squares_betas(dist):
    """-Sigma_XX^-1 cov(X, Y) of the finite law: its variance-minimising coefficients."""
    cov = exact_moments(dist).covariance
    return -np.linalg.solve(cov[1:, 1:], cov[1:, 0])


class TestLeastSquaresFit:
    """optimal_betas(acc) without variances: the joint least-squares fit."""

    # two controls correlated in the sample (corr(V1, V2) ~ 0.55), probabilities in eighths
    ATOMS = [[0.0, 1.0, 0.5], [1.0, -1.0, -0.5], [2.0, 0.5, 1.0], [-1.0, 0.25, -1.0], [0.5, -0.75, 0.0]]
    PROBABILITIES = [0.125, 0.25, 0.375, 0.125, 0.125]

    def law(self, *extra_columns):
        outcomes = np.column_stack([np.array(self.ATOMS), *extra_columns])
        names = ("Y", *(f"V{i}" for i in range(1, outcomes.shape[1])))
        return FiniteJointDistribution.from_atoms(names, outcomes, self.PROBABILITIES)

    def test_matches_the_finite_law_on_expanded_sample(self):
        dist = self.law()
        assert abs(exact_moments(dist).correlation(1, 2)) > 0.5
        acc = expanded_sample(dist, 8)
        betas, notes = optimal_betas(acc)
        assert notes == []
        exact = least_squares_betas(dist)
        assert np.max(np.abs(betas - exact)) <= 1e-10
        # var(W) of W = Y + beta . (V - E[V]), by enumeration of the law of (Y, beta . V)
        combined = FiniteJointDistribution.from_atoms(
            ("Y", "V"), np.column_stack([dist.outcomes[:, 0], dist.outcomes[:, 1:] @ betas]), dist.probabilities
        )
        n = acc.count
        assert abs(insample_variance(acc, betas) * (n - 1) / n - brute_force_cv_variance(combined, 1.0)) <= 1e-10
        # and it beats each control fitted on its own
        own, _ = optimal_betas(acc, acc.variances()[1:])
        assert insample_variance(acc, betas) < insample_variance(acc, own)

    def test_a_degenerate_control_is_dropped_with_a_note(self):
        dist = self.law(np.full(len(self.ATOMS), 4.0))
        acc = expanded_sample(dist, 8)
        with pytest.warns(UserWarning, match="degenerate") as record:
            betas, notes = optimal_betas(acc)
        assert len(record) == 1
        assert notes == ["1 degenerate control(s) dropped (coefficient set to 0)"]
        assert betas[2] == 0.0
        assert np.max(np.abs(betas[:2] - least_squares_betas(self.law()))) <= 1e-10

    def test_every_control_degenerate_raises(self):
        dist = FiniteJointDistribution.from_atoms(
            ("Y", "V1", "V2"), [[0.0, 1.0, 2.0], [1.0, 1.0, 2.0]], [0.5, 0.5]
        )
        with pytest.raises(ValueError, match="degenerate control"):
            optimal_betas(expanded_sample(dist, 2))

    def test_a_tiny_volatility_through_the_pilot_raises(self, monkeypatch):
        # sigma = 1e-10: each daily log-return's variance is about 1e-15 of its
        # second moment, so the least-squares pilot drops every control
        fits = []
        fit = estimators.optimal_betas

        def recording_fit(acc, variances=None):
            fits.append(variances)
            return fit(acc, variances)

        monkeypatch.setattr(estimators, "optimal_betas", recording_fit)
        model = MarketModel(initial_price=100.0, rate=0.05, volatility=1e-10)
        spec = ContractSpec(kind=ASIAN_FIXED, days_to_maturity=30, strike=100.0)
        with pytest.raises(ValueError, match="degenerate control"):
            cv_estimate(model, spec, ControlSpec(form=FORM_MULTI), 1000, seed=3)
        assert fits == [None]  # the least-squares branch


class TestSpanPilotFit:
    """cv-multi's pilot fit on the span of {1, i/n} against the finite law of
    two-point daily log-returns mu_d +- sigma_d, all 2^n paths enumerated."""

    MODEL = MarketModel(initial_price=100.0, rate=0.05, volatility=0.2)

    @pytest.mark.parametrize(
        "kind, n",
        [(ASIAN_FIXED, 1), (EUROPEAN_CALL, 1)]  # the floating-strike payoffs are 0 at n = 1
        + [(kind, n) for kind in (ASIAN_FIXED, ASIAN_FLOATING, EUROPEAN_CALL, LOOKBACK_FLOATING) for n in (2, 5, 10)],
    )
    def test_matches_the_finite_law_and_keeps_to_the_per_day_floor(self, monkeypatch, kind, n):
        model = self.MODEL
        mu, sigma = model.daily_mean, math.sqrt(model.daily_variance)
        paths = np.array(list(itertools.product([mu - sigma, mu + sigma], repeat=n)))
        # every path equally often, at least 8 times in all, in the pilot and again in the main phase
        sample = np.repeat(paths, max(1, 8 // len(paths)), axis=0)
        monkeypatch.setattr(
            LogReturnSampler, "rows", lambda self, lo, hi, out=None: sample[np.arange(lo, hi) % len(sample)]
        )
        fits = []
        fit = estimators.optimal_betas

        def recording_fit(acc, variances=None):
            fits.append(fit(acc, variances)[0])
            return fits[-1], []

        monkeypatch.setattr(estimators, "optimal_betas", recording_fit)
        spec = ContractSpec(kind=kind, days_to_maturity=n, strike=100.0 if kind in STRIKE_KINDS else None)
        report = cv_estimate(model, spec, ControlSpec(form=FORM_MULTI), 2 * len(sample), seed=0, pilot_fraction=0.5)
        assert report.pilot_runs_used == len(sample) and report.notes[0].startswith("least-squares")

        # the finite law of (Y, Z), Z = X @ B.T, and its least-squares (a, b)
        basis = np.array([np.ones(n), np.arange(1, n + 1) / n])[: min(n, 2)]
        y = discounted_payoff(model, spec, prices_from_log_returns(model, paths))
        probabilities = np.full(len(paths), 0.5**n)
        law = FiniteJointDistribution.from_atoms(
            ("Y", *(f"Z{c}" for c in range(len(basis)))), np.column_stack([y, paths @ basis.T]), probabilities
        )
        (span,) = fits
        exact = least_squares_betas(law)
        assert np.max(np.abs(span - exact)) <= 1e-10
        assert np.max(np.abs(report.coefficients.values - basis.T @ exact)) <= 1e-10
        # var(W) on the main runs, every path equally often, against the law's:
        # SE^2 * (R - 1) is the sample variance times (R - 1)/R
        yv = np.column_stack([y, paths @ basis.T @ span])
        combined = FiniteJointDistribution.from_atoms(("Y", "V"), yv, probabilities)
        var_w = report.standard_error**2 * (report.runs_used - 1)
        assert abs(var_w - brute_force_cv_variance(combined, 1.0)) <= 1e-10
        # the paper's inequality as a guard: no combination of the X(i) beats
        # the per-day optimum 1 - sum_i corr^2(Y, X(i)) of independent X(i)
        names = ("Y", *(f"X{i}" for i in range(n)))
        per_day = exact_moments(FiniteJointDistribution.from_atoms(names, np.column_stack([y, paths]), probabilities))
        floor = 1.0 - sum(per_day.correlation(0, i) ** 2 for i in range(1, n + 1))
        assert report.empirical_variance_ratio >= floor - 1e-12
        if n <= 2:  # B spans every direction of X
            assert report.empirical_variance_ratio == pytest.approx(floor, abs=1e-12)


class TestInequality:
    def test_self_correlation_equality(self):
        dist = FiniteJointDistribution.independent(
            [([-1.0, 1.0], [0.5, 0.5]), ([0.0, 3.0], [0.7, 0.3])]
        ).with_target(lambda row: row[0])
        check = correlation_inequality_check(dist, [1.0, 0.0])
        assert check.lhs == pytest.approx(1.0, abs=1e-12)
        assert check.rhs == pytest.approx(1.0, abs=1e-12)
        assert check.holds

    def test_sum_of_two_equal_variance_variables(self):
        dist = FiniteJointDistribution.independent(
            [([-1.0, 1.0], [0.5, 0.5]), ([-1.0, 1.0], [0.5, 0.5])]
        ).with_target(lambda row: row[0] + row[1])
        check = correlation_inequality_check(dist, [1.0, 1.0])
        assert check.lhs == pytest.approx(1.0, abs=1e-12)
        assert check.rhs == pytest.approx(0.5 + 0.5, abs=1e-12)
        assert check.holds

    def test_randomized_trials_all_hold(self):
        summary = run_inequality_trials(300, seed=17)
        assert summary.passes == summary.trials == 300
        assert summary.max_violation <= 1e-12

    def test_trials_deterministic_given_seed(self):
        a = run_inequality_trials(25, seed=19)
        b = run_inequality_trials(25, seed=19)
        assert a == b

    def test_dependent_variables_can_violate_the_bound(self):
        # X1 = Z, X2 = U - Z with Z, U independent signs; Y = U = X1 + X2.
        # Y is uncorrelated with X1 and only partially correlated with X2,
        # yet perfectly correlated with their sum: the checker must report
        # the violation rather than assume independence.
        atoms = []
        for z in (-1.0, 1.0):
            for u in (-1.0, 1.0):
                atoms.append([u, z, u - z])
        dist = FiniteJointDistribution.from_atoms(("Y", "X1", "X2"), atoms, [0.25] * 4)
        check = correlation_inequality_check(dist, [1.0, 1.0])
        assert check.lhs == pytest.approx(1.0, abs=1e-12)
        assert check.rhs == pytest.approx(0.5, abs=1e-12)
        assert not check.holds

    def test_degenerate_inputs_rejected(self):
        dist = FiniteJointDistribution.independent(
            [([-1.0, 1.0], [0.5, 0.5]), ([-1.0, 1.0], [0.5, 0.5])]
        ).with_target(lambda row: row[0])
        with pytest.raises(ValueError):
            correlation_inequality_check(dist, [1.0])  # wrong weight count
        with pytest.raises(ValueError):
            correlation_inequality_check(dist, [0.0, 0.0])  # zero-variance combination
        constant_y = FiniteJointDistribution.independent(
            [([-1.0, 1.0], [0.5, 0.5])]
        ).with_target(lambda row: 7.0)
        with pytest.raises(ValueError):
            correlation_inequality_check(constant_y, [1.0])

    def test_random_trial_generator_shape(self):
        dist, alpha = random_independent_trial(np.random.default_rng(23))
        assert dist.names[0] == "Y"
        assert dist.n_variables == 4
        assert alpha.shape == (3,)
        assert np.all(np.abs(alpha) <= 2.0)


class TestStackedTrials:
    def test_stack_matches_per_law_reference(self):
        # every stacked trial, rebuilt on its live atoms, gives the same
        # sides and verdict through the one-law checker
        checked = 0
        for seed in (1, 2, 3, 4):
            for stack, lhs, rhs in oracle._trial_stacks(np.random.default_rng(seed), 2500):
                for k in range(lhs.size):
                    counts = stack.counts[k]
                    base = FiniteJointDistribution.independent(
                        [(stack.values[k, i, :c], stack.probs[k, i, :c]) for i, c in enumerate(counts)]
                    )
                    y = stack.tables[k].reshape(4, 4, 4)[: counts[0], : counts[1], : counts[2]].ravel()
                    dist = FiniteJointDistribution.from_atoms(
                        ("Y", "X1", "X2", "X3"), np.column_stack([y, base.outcomes]), base.probabilities
                    )
                    check = correlation_inequality_check(dist, stack.alpha[k])
                    assert abs(check.lhs - lhs[k]) <= 1e-14
                    assert abs(check.rhs - rhs[k]) <= 1e-14
                    assert check.holds == bool(lhs[k] <= rhs[k] + oracle.EXACT_TOLERANCE)
                    checked += 1
        assert checked == 10_000

    def test_degenerate_trials_are_refilled_in_draw_order(self, monkeypatch):
        # every third trial drawn, counted across stacks, gets a constant Y
        drawn = []
        draw = oracle._draw_stack

        def constant_every_third_y(rng, size, n_variables):
            stack = draw(rng, size, n_variables)
            start = sum(len(alpha) for alpha, _ in drawn)
            constant = (start + np.arange(size)) % 3 == 0
            stack.tables[constant] = 0.25
            drawn.append((stack.alpha, constant))
            return stack

        monkeypatch.setattr(oracle, "_draw_stack", constant_every_third_y)
        kept = [stack.alpha for stack, _, _ in oracle._trial_stacks(np.random.default_rng(43), 1100)]
        expected = [alpha[~constant] for alpha, constant in drawn]
        assert np.array_equal(np.concatenate(kept), np.concatenate(expected))
        assert len(drawn) > 3

        first = run_inequality_trials(1100, seed=43)
        second = run_inequality_trials(1100, seed=43)
        assert first.trials == first.passes == 1100
        assert (second.trials, second.passes) == (first.trials, first.passes)
        assert second.max_violation.hex() == first.max_violation.hex()

    def test_trials_spanning_several_stacks_repeat_bit_for_bit(self):
        trials = 3 * oracle._STACK_TRIALS + 7
        sizes = [lhs.size for _, lhs, _ in oracle._trial_stacks(np.random.default_rng(47), trials)]
        assert sum(sizes) == trials and len(sizes) >= 4
        assert max(sizes) <= oracle._STACK_TRIALS
        first = run_inequality_trials(trials, seed=47)
        second = run_inequality_trials(trials, seed=47)
        assert first.trials == first.passes == trials
        assert second.max_violation.hex() == first.max_violation.hex()

    @pytest.mark.parametrize("seed", [0, 41, 2**64 - 1])
    def test_one_trial_view_is_the_first_trial_of_a_one_trial_stack(self, seed):
        rng = np.random.default_rng(seed)
        twin = np.random.default_rng(seed)
        dist, alpha = random_independent_trial(rng)
        stack = oracle._draw_stack(twin, 1, 3)
        assert np.array_equal(alpha, stack.alpha[0])
        reference = stack.law(0)
        assert np.array_equal(dist.outcomes, reference.outcomes)
        assert np.array_equal(dist.probabilities, reference.probabilities)
        # one draw of each quantity, so both generators end in one state
        assert rng.bit_generator.state == twin.bit_generator.state
        # the live atoms only: 2-4 per marginal, none with probability 0
        assert 8 <= dist.outcomes.shape[0] <= 64
        assert np.all(dist.probabilities > 0)

    @pytest.mark.parametrize(
        "trials, seed",
        [(5, True), (5, 2**70), (5, -1), (5, 1.0), (True, 3), (0, 3), (2.0, 3)],
    )
    def test_invalid_trials_or_seed_rejected(self, trials, seed):
        with pytest.raises(ValueError):
            run_inequality_trials(trials, seed)

    @pytest.mark.parametrize("trials, seed, argument", [(0, 3, "trials"), (2.0, 3, "trials"), (5, -1, "seed")])
    def test_refusals_name_the_argument(self, trials, seed, argument):
        with pytest.raises(ArgumentError) as raised:
            run_inequality_trials(trials, seed)
        assert raised.value.argument == argument

    def test_numpy_integer_trials_and_seed_accepted(self):
        assert run_inequality_trials(np.int64(5), np.uint64(3)) == run_inequality_trials(5, 3)


class TestBruteForceVariance:
    def test_zero_coefficient_returns_var_y(self):
        dist = two_point_yv()
        assert brute_force_cv_variance(dist, 0.0) == exact_moments(dist).variance(0)

    def test_matches_quadratic_expansion(self):
        rng = np.random.default_rng(29)
        for _ in range(25):
            dist = random_joint_law(rng)
            m = exact_moments(dist)
            c = float(rng.uniform(-3, 3))
            expansion = (
                m.variance(0) + c**2 * m.variance(1) + 2 * c * m.covariance[0, 1]
            )
            assert brute_force_cv_variance(dist, c) == pytest.approx(expansion, abs=1e-12)

    def test_optimal_coefficient_attains_predicted_minimum(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            dist = random_joint_law(rng)
            m = exact_moments(dist)
            c_star = -m.covariance[0, 1] / m.variance(1)
            at_optimum = brute_force_cv_variance(dist, c_star)
            predicted = m.variance(0) * (1.0 - m.correlation(0, 1) ** 2)
            assert at_optimum == pytest.approx(predicted, abs=1e-12)
            # strict convexity away from the optimum
            if abs(m.correlation(0, 1)) < 1 - 1e-9:
                assert brute_force_cv_variance(dist, c_star + 0.1) > at_optimum
                assert brute_force_cv_variance(dist, c_star - 0.1) > at_optimum

    def test_joint_minimization_identity_on_independent_variables(self):
        # minimizing over all betas at once reproduces 1 - sum corr^2 exactly
        rng = np.random.default_rng(37)
        for _ in range(25):
            dist, _ = random_independent_trial(rng)
            m = exact_moments(dist)
            cov_xx = m.covariance[1:, 1:]
            cov_yx = m.covariance[0, 1:]
            betas = np.linalg.solve(cov_xx, -cov_yx)
            var_w = m.variance(0) + betas @ cov_xx @ betas + 2 * betas @ cov_yx
            ratio = var_w / m.variance(0)
            sum_corr_sq = float(np.sum(cov_yx**2 / (m.variance(0) * np.diag(cov_xx))))
            assert ratio == pytest.approx(1.0 - sum_corr_sq, abs=1e-12)
