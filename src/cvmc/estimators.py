"""Monte Carlo estimators: plain, single-control, and multi-control.

The control-variate estimator replaces each payoff Y with
W = Y + sum_i beta_i * (C_i - E[C_i]), where the controls C_i are daily
log-returns (or a linear combination of them) whose means are exact
model quantities. Coefficients default to a pilot phase on runs disjoint
from the main phase, which keeps the main-phase estimator exactly
unbiased; the in-sample mode reuses the estimation sample and carries an
O(1/R) bias.

Runs are simulated in batches cut at multiples of batch_size from run 0,
and moments are tracked in one pass, batch by batch, so large run counts
never hold samples in memory. With pilot coefficients, one pass
serves both phases: runs below the pilot count estimate the coefficients,
which are fixed at the boundary, and the later runs feed the main-phase
moments of (Y, controls, W). Those track only the means, cov(Y, .) and
the variances, O(runs * n); the full covariance matrix is built only
where it is read: in-sample coefficients and sweep_diagnostic.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .model import LogReturnSampler, MarketModel, prices_from_log_returns
from .payoffs import ContractSpec, discounted_payoff

FORM_NONE = "none"
FORM_SINGLE = "single_terminal_log"
FORM_MULTI = "multi_log_returns"
FORM_CUSTOM = "custom_linear"
CONTROL_FORMS = frozenset({FORM_NONE, FORM_SINGLE, FORM_MULTI, FORM_CUSTOM})

SOURCE_PILOT = "pilot"
SOURCE_IN_SAMPLE = "in_sample"
COEFFICIENT_SOURCES = frozenset({SOURCE_PILOT, SOURCE_IN_SAMPLE})

# Controls whose variance is below this fraction of their second moment
# are treated as degenerate (coefficient forced to zero).
DEGENERATE_CONTROL_TOLERANCE = 1e-14

DEFAULT_BATCH_SIZE = 4096
DEFAULT_PILOT_FRACTION = 0.1

# Values per block when MomentAccumulator centers a batch without the full
# covariance (256 KiB of doubles, which stays in a typical L2 cache).
_CENTERED_BLOCK = 2**15


class MomentAccumulator:
    """One-pass mean and covariance tracker for a fixed set of variables.

    With ``full_covariance`` (the default) it tracks the whole covariance
    matrix. Without it, it tracks only what the control-variate pass
    reads, at O(dim) cost per row: row 0 of the covariance (variable 0
    against every variable) and the diagonal.

    Observations arrive only through ``add_batch``, which folds each batch
    in with the pairwise update: any split of a sample into batches gives
    the same moments up to rounding, and the same split in the same order
    gives the same bits. A batch after which a sum of centered products is
    no longer finite raises ValueError, so no moment reads inf or NaN.
    """

    def __init__(self, dim: int, full_covariance: bool = True):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.dim = dim
        self.full_covariance = full_covariance
        self._count = 0
        self._mean = np.zeros(dim)
        # Sums of centered products: the (dim, dim) matrix, or its row 0
        # stacked on its diagonal.
        self._m2 = np.zeros((dim, dim) if full_covariance else (2, dim))

    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> np.ndarray:
        return self._mean.copy()

    def _products(self, xs: np.ndarray, center: np.ndarray) -> np.ndarray:
        """Sums of products of the rows of xs centered on center."""
        if self.full_covariance:
            centered = xs - center
            return centered.T @ centered
        # Centered in row blocks of at most _CENTERED_BLOCK values, so that
        # the temporary stays in cache for the two products that read it.
        out = np.zeros((2, self.dim))
        step = max(1, _CENTERED_BLOCK // self.dim)
        for lo in range(0, xs.shape[0], step):
            centered = xs[lo : lo + step] - center
            out[0] += np.einsum("i,ij->j", centered[:, 0], centered)
            out[1] += np.einsum("ij,ij->j", centered, centered)
        return out

    def add_batch(self, xs) -> None:
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.dim:
            raise ValueError(f"expected shape (runs, {self.dim}), got {xs.shape}")
        runs = xs.shape[0]
        if runs == 0:
            return
        col_mean = np.einsum("ij->j", xs) / runs
        # A constant column must yield exactly zero variance, so center it
        # on the exact value rather than the rounded mean. Without the full
        # covariance only variable 0 (the payoff) is checked: the others
        # are controls, never constant, and W, constant only with it.
        if self.full_covariance:
            col_mean = np.where(np.all(xs == xs[0], axis=0), xs[0], col_mean)
        elif (xs[:, 0] == xs[0, 0]).all():
            col_mean[0] = xs[0, 0]
        m2 = self._products(xs, col_mean)
        count = self._count
        total = count + runs
        if count == 0:
            # The batch's moment arrays are fresh and are never updated in
            # place, so they are adopted as they are.
            mean = col_mean
        else:
            delta = col_mean - self._mean
            mean = self._mean + delta * (runs / total)
            m2 = self._m2 + m2 + self._products(delta[None, :], 0.0) * (count * runs / total)
        # min and max propagate NaN and show either infinity without
        # allocating: a small temporary here can keep the batch buffers of
        # _batches from returning to the operating system (peak RSS).
        if not (math.isfinite(m2.min()) and math.isfinite(m2.max())):
            raise ValueError(
                f"the moments overflow floating point after {total} rows: "
                f"sums of squared deviations are non-finite"
            )
        self._count, self._mean, self._m2 = total, mean, m2

    def _denominator(self) -> int:
        if self._count < 2:
            raise ValueError(f"covariance undefined for count={self._count} (< 2)")
        return self._count - 1

    def covariance(self) -> np.ndarray:
        """Unbiased (count-1 denominator) covariance matrix."""
        if not self.full_covariance:
            raise ValueError("this accumulator tracks only row 0 and the diagonal of the covariance")
        return self._m2 / self._denominator()

    def cross(self) -> np.ndarray:
        """Unbiased covariances of variable 0 with every variable (row 0)."""
        return self._m2[0] / self._denominator()

    def variances(self) -> np.ndarray:
        """Unbiased variances of every variable (the diagonal)."""
        diagonal = np.diag(self._m2) if self.full_covariance else self._m2[1]
        return diagonal / self._denominator()


@dataclass(frozen=True)
class ControlSpec:
    """Which control variables to use and where their coefficients come from.

    Forms:
        none               no control; identical to the plain estimator.
        single_terminal_log V = sum_i X(i) = ln(S_d(n)/S(0)), one coefficient.
        multi_log_returns  one control per daily log-return X(i).
        custom_linear      V = sum_i weights[i] * X(i) with caller weights.
    """

    form: str
    coefficient_source: str = SOURCE_PILOT
    weights: np.ndarray | None = None

    def __post_init__(self):
        if self.form not in CONTROL_FORMS:
            raise ValueError(f"unknown control form {self.form!r}; expected one of {sorted(CONTROL_FORMS)}")
        if self.coefficient_source not in COEFFICIENT_SOURCES:
            raise ValueError(
                f"unknown coefficient_source {self.coefficient_source!r}; "
                f"expected one of {sorted(COEFFICIENT_SOURCES)}"
            )
        if self.form == FORM_CUSTOM:
            if self.weights is None:
                raise ValueError("custom_linear requires weights")
            w = np.asarray(self.weights, dtype=float)
            if w.ndim != 1 or w.size == 0:
                raise ValueError("weights must be a nonempty 1-D sequence")
            if not np.all(np.isfinite(w)):
                raise ValueError("weights must be finite")
            if np.all(w == 0.0):
                raise ValueError("weights must not be all zero")
            object.__setattr__(self, "weights", w)
        elif self.weights is not None:
            raise ValueError(f"{self.form} takes no weights")


@dataclass(frozen=True)
class ControlCoefficients:
    """Per-control multipliers and the exact model means of the controls."""

    values: np.ndarray
    control_means: np.ndarray


@dataclass(frozen=True)
class EstimatorReport:
    """Outcome of one estimation: point estimate plus variance diagnostics.

    empirical_variance_ratio is var(W)/var(Y) on the runs that produced
    the estimate; predicted_variance_ratio is 1 - sum_i corr^2(Y, C_i)
    for the multi-control form and 1 - corr^2(Y, V) otherwise, from the
    same runs. standard_error is sqrt(var(W)/runs_used).
    """

    estimate: float
    standard_error: float
    runs_used: int
    empirical_variance_ratio: float
    predicted_variance_ratio: float
    pilot_runs_used: int = 0
    coefficients: ControlCoefficients | None = None
    per_control_correlations: np.ndarray = field(default_factory=lambda: np.empty(0))
    notes: tuple[str, ...] = ()


class _Controls:
    """Control values, exact means, and exact variances for one form."""

    def __init__(self, model: MarketModel, spec: ContractSpec, control: ControlSpec):
        n = spec.days_to_maturity
        mean = model.daily_mean
        var = model.daily_variance
        if var == 0.0:
            raise ValueError("degenerate control: zero volatility makes every log-return constant")
        if control.form == FORM_SINGLE:
            self.dim = 1
            self.means = np.array([n * mean])
            self.exact_variances = np.array([n * var])
        elif control.form == FORM_MULTI:
            self.dim = n
            self.means = np.full(n, mean)
            self.exact_variances = np.full(n, var)
        elif control.form == FORM_CUSTOM:
            w = control.weights
            if w.size != n:
                raise ValueError(f"custom weights have length {w.size}, contract has n={n}")
            self.dim = 1
            self.means = np.array([mean * w.sum()])
            self.exact_variances = np.array([var * float(w @ w)])
        else:
            raise ValueError(f"no control values for form {control.form!r}")
        self.form = control.form
        self._weights = control.weights

    def values(self, log_returns: np.ndarray) -> np.ndarray:
        if self.form == FORM_SINGLE:
            return log_returns.sum(axis=1, keepdims=True)
        if self.form == FORM_MULTI:
            return log_returns
        return (log_returns @ self._weights)[:, None]


def _require_finite(values: np.ndarray, what: str, spec: ContractSpec, lo: int, hi: int) -> None:
    if not np.isfinite(values).all():
        strike = "" if spec.strike is None else f", strike {spec.strike}"
        raise ValueError(
            f"non-finite {what} in runs {lo}..{hi - 1} of {spec.kind} "
            f"({spec.days_to_maturity} days{strike}): the simulated prices overflow floating point"
        )


def _batches(
    model: MarketModel,
    spec: ContractSpec,
    seed: int,
    runs: int,
    batch_size: int,
    controls: _Controls | None,
    width: int,
):
    """Simulate runs 0..runs-1 in batches cut at multiples of batch_size.

    Yields (lo, log-returns, rows) per batch: rows is a (batch, width)
    view of moment rows [Y | controls], the payoffs in column 0, the q
    control values in columns 1..q and the caller's columns after them.
    The row memory holds the prices, laid out contiguously, until the
    payoffs are taken, so it is still warm in cache when the moments read
    the rows. Both buffers are reused by the next batch: allocating them
    afresh hands their pages back to the operating system and faults them
    in again. A non-finite payoff raises instead of reaching the moments.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    n = spec.days_to_maturity
    sampler = LogReturnSampler(model, n, seed)
    size = min(batch_size, runs)
    x_buffer, row_buffer = np.empty((size, n)), np.empty((size, max(width, n)))
    for lo in range(0, runs, batch_size):
        hi = min(lo + batch_size, runs)
        x = sampler.rows(lo, hi, out=x_buffer[: hi - lo])
        rows = row_buffer[: hi - lo]
        prices = prices_from_log_returns(model, x, out=rows.reshape(-1)[: x.size].reshape(x.shape))
        y = discounted_payoff(model, spec, prices)
        _require_finite(y, "payoff", spec, lo, hi)
        rows[:, 0] = y
        if controls is not None:
            rows[:, 1 : 1 + controls.dim] = controls.values(x)
        yield lo, x, rows[:, :width]


def _accumulate(
    model: MarketModel,
    spec: ContractSpec,
    seed: int,
    runs: int,
    controls: _Controls | None,
    batch_size: int,
) -> MomentAccumulator:
    """Full moments of (Y, controls...) over runs 0..runs-1, batch-merged in order."""
    q = controls.dim if controls is not None else 0
    acc = MomentAccumulator(1 + q)
    for _, _, rows in _batches(model, spec, seed, runs, batch_size, controls, acc.dim):
        acc.add_batch(rows)
    return acc


def _pilot_pass(
    model: MarketModel,
    spec: ContractSpec,
    seed: int,
    runs: int,
    pilot_runs: int,
    controls: _Controls,
    batch_size: int,
) -> tuple[np.ndarray, list[str], MomentAccumulator]:
    """One pass over runs 0..runs-1 for pilot-phase coefficients.

    Runs below pilot_runs feed the lean moments of (Y, controls); the
    coefficients are fixed from them at the boundary. The later runs feed
    the lean moments of (Y, controls, W), W = Y + C @ beta - E[C] @ beta,
    so the estimate and var(W) are read straight from the main moments.
    """
    q = controls.dim
    pilot = MomentAccumulator(1 + q, full_covariance=False)
    main = MomentAccumulator(2 + q, full_covariance=False)
    betas, notes, offset = None, [], 0.0
    for lo, _, rows in _batches(model, spec, seed, runs, batch_size, controls, 2 + q):
        split = min(max(pilot_runs - lo, 0), len(rows))
        if split > 0:
            pilot.add_batch(rows[:split, : 1 + q])
        if split == len(rows):
            continue
        if betas is None:
            betas, notes = optimal_betas(pilot, controls.exact_variances)
            offset = controls.means @ betas
        y, c = rows[split:, 0], rows[split:, 1 : 1 + q]
        rows[split:, 1 + q] = y + np.einsum("ij,j->i", c, betas) - offset
        main.add_batch(rows[split:])
    return betas, notes, main


def plain_estimate(
    model: MarketModel,
    spec: ContractSpec,
    runs: int,
    seed: int,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> EstimatorReport:
    """Plain Monte Carlo: mean of Y over `runs` independent paths."""
    if runs < 2:
        raise ValueError(f"runs must be >= 2 (variance undefined below that), got {runs}")
    acc = _accumulate(model, spec, seed, runs, None, batch_size)
    variance = acc.variances()[0]
    return EstimatorReport(
        estimate=float(acc.mean[0]),
        standard_error=math.sqrt(variance / runs),
        runs_used=runs,
        empirical_variance_ratio=1.0,
        predicted_variance_ratio=1.0,
    )


def optimal_betas(acc: MomentAccumulator, variances: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """Per-control multipliers -cov(Y, C_i)/var(C_i), and notes on dropped controls.

    The accumulator's first variable is Y; the rest are the controls.
    `variances` are the denominators var(C_i): cv_estimate passes the
    exact model values of the log-return controls, acc.variances()[1:]
    gives the sample ones. A control whose variance is below
    DEGENERATE_CONTROL_TOLERANCE times its second moment gets
    coefficient 0, with a warning and a note; if every control is
    degenerate, raises ValueError.
    """
    denominators = np.array(variances, dtype=float)
    if denominators.shape != (acc.dim - 1,):
        raise ValueError(f"expected {acc.dim - 1} variances, got shape {denominators.shape}")
    # the stored means, without the copy the public property makes
    second_moment = denominators + acc._mean[1:] ** 2
    usable = denominators > DEGENERATE_CONTROL_TOLERANCE * np.maximum(second_moment, 1e-300)
    if usable.all():
        return -acc.cross()[1:] / denominators, []
    if not usable.any():
        raise ValueError("degenerate control: every control variance is (numerically) zero")
    message = f"{int((~usable).sum())} degenerate control(s) dropped (coefficient set to 0)"
    warnings.warn(message)
    betas = np.zeros(len(denominators))
    betas[usable] = -acc.cross()[1:][usable] / denominators[usable]
    return betas, [message]


def insample_variance(acc: MomentAccumulator, betas: np.ndarray) -> float:
    """Sample variance of W = Y + sum_i betas[i]*(C_i - const) on acc's sample."""
    betas = np.asarray(betas, dtype=float)
    cov = acc.covariance()
    return float(cov[0, 0] + betas @ cov[1:, 1:] @ betas + 2.0 * (betas @ cov[1:, 0]))


def best_linear_variance_ratio(acc: MomentAccumulator) -> float:
    """min over all betas of var(W)/var(Y) on acc's sample.

    Solved jointly from the sample covariance matrix, so it is the exact
    in-sample optimum even when the controls are correlated; no linear
    control can do better on the same sample.
    """
    cov = acc.covariance()
    var_y = cov[0, 0]
    if var_y == 0.0:
        raise ValueError("variance of Y is zero; ratio undefined")
    return 1.0 - _explained_fraction(cov[1:, 1:], cov[1:, 0], var_y)


def _explained_fraction(cov_xx: np.ndarray, cross: np.ndarray, var_y: float) -> float:
    """R^2 of the least-squares fit of Y on the regressors, from their moments."""
    weights, *_ = np.linalg.lstsq(cov_xx, cross, rcond=None)
    return float((cross @ weights) / var_y)


def _correlations(var_y: float, cross: np.ndarray, control_vars: np.ndarray) -> np.ndarray:
    """corr(Y, C_i) from the moments, 0 where a variance is 0."""
    scale = np.sqrt(var_y * control_vars)
    correlations = np.divide(cross, scale, out=np.zeros(len(cross)), where=scale > 0.0)
    return np.clip(correlations, -1.0, 1.0, out=correlations)


def _predicted(var_y: float, correlations: np.ndarray, control_vars: np.ndarray, form: str) -> float:
    """Variance ratio predicted from sample correlations.

    1 - sum_i corr^2(Y, C_i) for multi_log_returns; 1 - corr^2(Y, V) for
    the one-control forms; 1 for no control.
    """
    if form == FORM_NONE or var_y == 0.0:
        return 1.0
    if not (control_vars > 0.0).any():
        raise ValueError("degenerate control: every control has zero sample variance")
    if form == FORM_MULTI:
        return float(1.0 - correlations @ correlations)
    return float(1.0 - correlations[0] ** 2)


def cv_estimate(
    model: MarketModel,
    spec: ContractSpec,
    control: ControlSpec,
    runs: int,
    seed: int,
    pilot_fraction: float = DEFAULT_PILOT_FRACTION,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> EstimatorReport:
    """Control-variate estimate of E[Y] over `runs` paths.

    With coefficient_source="pilot" the first ceil(pilot_fraction*runs)
    runs estimate the coefficients and the remaining runs produce the
    estimate, so E[W] = E[Y] exactly; both phases come from one pass over
    the runs. With "in_sample" all runs serve both purposes (the textbook
    construction, small-sample biased).

    Coefficients come from optimal_betas with the exact model variances of
    the controls as denominators; degenerate controls are dropped with a
    note. A predicted variance ratio below -0.05, which sampling bias
    gives with few runs per control, is reported as it is, with a note
    and a UserWarning.
    """
    if control.form == FORM_NONE:
        return plain_estimate(model, spec, runs, seed, batch_size)
    if runs < 4:
        raise ValueError(f"runs must be >= 4 for a control-variate estimate, got {runs}")
    controls = _Controls(model, spec, control)
    notes: list[str] = []

    if control.coefficient_source == SOURCE_PILOT:
        if not 0.0 < pilot_fraction < 1.0:
            raise ValueError(f"pilot_fraction must be in (0, 1), got {pilot_fraction}")
        pilot_runs = math.ceil(pilot_fraction * runs)
        main_runs = runs - pilot_runs
        if pilot_runs < 2 or main_runs < 2:
            raise ValueError(
                f"pilot split too small: {pilot_runs} pilot / {main_runs} main runs "
                f"(both must be >= 2)"
            )
        betas, beta_notes, acc = _pilot_pass(model, spec, seed, runs, pilot_runs, controls, batch_size)
        notes.extend(beta_notes)
        variances = acc.variances()
        var_y, control_vars, var_w = variances[0], variances[1:-1], variances[-1]
        cross = acc.cross()[1:-1]
        estimate = float(acc.mean[-1])
    else:
        pilot_runs = 0
        main_runs = runs
        acc = _accumulate(model, spec, seed, runs, controls, batch_size)
        betas, beta_notes = optimal_betas(acc, controls.exact_variances)
        notes.extend(beta_notes)
        notes.append(
            "in_sample coefficients reuse the estimation runs; the estimator carries an O(1/R) bias"
        )
        variances = acc.variances()
        var_y, control_vars = variances[0], variances[1:]
        cross = acc.cross()[1:]
        estimate = float(acc.mean[0] + betas @ (acc.mean[1:] - controls.means))
        # var(W) follows exactly from the sample covariance of (Y, controls)
        # because W is a fixed linear combination of them.
        var_w = max(insample_variance(acc, betas), 0.0)

    ratio = var_w / var_y if var_y > 0.0 else 1.0
    correlations = _correlations(var_y, cross, control_vars)
    predicted = _predicted(var_y, correlations, control_vars, control.form)
    if predicted < -0.05:
        notes.append(
            f"predicted variance ratio {predicted:.6g} is below -0.05: each sample "
            f"corr^2(Y, C_i) is biased up by about (1 - rho^2)/(R - 1), so with "
            f"q = {controls.dim} controls and R = {main_runs} runs the sum overshoots by "
            f"about q/R = {controls.dim / main_runs:.3g}"
        )
        # fixed text, so that Python shows it once; the note has the numbers
        warnings.warn(
            "predicted variance ratio below -0.05: with few runs per control the sample "
            "correlations overstate the variance reduction; see the report notes"
        )

    return EstimatorReport(
        estimate=estimate,
        standard_error=math.sqrt(var_w / main_runs),
        runs_used=main_runs,
        empirical_variance_ratio=float(ratio),
        predicted_variance_ratio=float(predicted),
        pilot_runs_used=pilot_runs,
        coefficients=ControlCoefficients(values=betas, control_means=controls.means.copy()),
        per_control_correlations=correlations,
        notes=tuple(notes),
    )


def sweep_diagnostic(
    model: MarketModel,
    specs,
    runs: int,
    seed: int,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> list[dict]:
    """Empirical comparison of price-level versus log-return controls.

    For each contract, reports the best linear fit corr^2(Y, sum_i b_i S_d(i))
    next to sum_i corr^2(Y, X(i)). No ordering between the two is asserted;
    whether one bounds the other is an open question.
    """
    if model.volatility <= 0.0:
        raise ValueError("sweep_diagnostic requires volatility > 0")
    if runs < 2:
        raise ValueError(f"runs must be >= 2, got {runs}")
    rows = []
    for spec in specs:
        n = spec.days_to_maturity
        controls = _Controls(model, spec, ControlSpec(form=FORM_MULTI))
        acc = MomentAccumulator(1 + 2 * n)
        for lo, x, batch in _batches(model, spec, seed, runs, batch_size, controls, acc.dim):
            prices = prices_from_log_returns(model, x, out=batch[:, 1 + n :])
            _require_finite(prices, "price", spec, lo, lo + len(batch))
            acc.add_batch(batch)
        cov = acc.covariance()
        var_y = cov[0, 0]
        if var_y == 0.0:
            raise ValueError(f"payoff variance is zero for {spec.kind}; diagnostic undefined")
        x_vars = np.diag(cov)[1 : 1 + n]
        sum_corr_sq = float(np.sum(cov[0, 1 : 1 + n] ** 2 / (var_y * x_vars)))
        price_corr_sq = _explained_fraction(cov[1 + n :, 1 + n :], cov[1 + n :, 0], var_y)
        rows.append(
            {
                "kind": spec.kind,
                "days_to_maturity": n,
                "runs": runs,
                "corr2_price_combination": price_corr_sq,
                "sum_corr2_log_returns": sum_corr_sq,
            }
        )
    return rows
