"""Monte Carlo estimators: plain, single-control, and multi-control.

The control-variate estimator replaces each payoff Y with
W = Y + sum_i beta_i * (C_i - E[C_i]), where the controls C_i are daily
log-returns (or a linear combination of them) whose means are exact
model quantities. Coefficients default to a pilot phase on runs disjoint
from the main phase, which keeps the main-phase estimator exactly
unbiased; the in-sample mode reuses the estimation sample and carries an
O(1/R) bias.

Runs are drawn in pieces, and moments are tracked in one pass, piece by
piece, so large run counts never hold samples in memory. A piece holds
at most _CHUNK_NORMALS normals and is cut at multiples of batch_size and
of the stream's block size. A piece's prices go apart from its
log-returns, which Z reads, into a day-major buffer, so the payoff
reduces a run's days one after another, in an order that does not depend
on the piece. The unit of the moments is the runs of one block that lie
in one phase: their rows are folded into one accumulator of the unit,
and the units are merged into their phases in run order. Every
accumulator keeps the whole covariance of its rows, [Y | Z], the
payoff and the k <= 2 fitted columns Z = X @ B.T, at most 3 wide. Both
coefficient sources take one pass and read the same way: with pilot
coefficients the runs below the pilot count feed a pilot accumulator
and the later runs the estimating one; in-sample every run feeds the
estimating one. After the pass the coefficients are fitted (_fit) from
the pilot's moments or the estimating runs' own, and the estimate and
var(W) follow exactly from the estimating runs' means and covariance of
[Y | Z], W being a fixed linear combination of them (insample_variance).
Only the per-day report of multi_log_returns reads the n days: one row
of cov(Y, X(i)), with the means it needs to merge, over the estimating
runs of either source, O(runs * n), by the accumulators' pairwise update
(_Moments); each day's variance is the exact sigma_d^2. Moment rows are
stored column by column. Every product of the moments is an einsum; the
one BLAS-backed step left is the LAPACK solve of the fit.

Drawing the normals is the largest stage, so a call that draws many
(_THREADED_NORMALS or more) runs on two lanes, one-thread executors made
per call. Block b of the stream goes to lane b mod 2, which turns each
unit of its blocks into prices, payoffs, controls and moments; the
caller's thread hands out the units in run order and merges them in that
order, with at most _UNITS_AHEAD of them unmerged, so a call's memory
does not grow with its run count (_simulate). A run's draws depend only
on (seed, j, n), every per-run number is computed within its own row,
and the units and the order of their merge do not depend on the lanes,
so the number of lanes changes no bit of any report, nor which
exception a call raises.
"""

from __future__ import annotations

import collections
import contextvars
import ctypes
import functools
import math
import os
import sys
import warnings
from contextlib import suppress
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .model import (
    STREAM_BLOCK_ROWS, ArgumentError, LogReturnSampler, MarketModel, _prices, check_seed, positive_integer,
)
from .payoffs import ContractSpec, discount_factor, discounted_payoff

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

# Most normals in one piece, the runs that a lane draws and turns into
# moment rows at a time (1 MiB of doubles).
_CHUNK_NORMALS = 2**17
# A call that draws fewer normals runs on one lane: below about this,
# starting the lanes costs what the second core saves.
_THREADED_NORMALS = 2**19
# Most units computed or queued ahead of the merge, four per lane.
_UNITS_AHEAD = 8

@functools.lru_cache(maxsize=64)
def _zeros(shape: tuple[int, ...]) -> np.ndarray:
    """A read-only array of zeros of this shape, made once."""
    zeros = np.zeros(shape)
    zeros.flags.writeable = False
    return zeros


class _Overflow(ValueError):
    """The moments' sums overflow floating point; callers see a ValueError."""


def _overflow(total: int) -> _Overflow:
    return _Overflow(
        f"the moments overflow floating point after {total} rows: sums of squared deviations are non-finite"
    )


class _Moments:
    """The count, means and centered sums of a sample, and the pairwise update.

    A subclass forms a batch's moments in add_batch and gives the merge's
    outer-product term _outer(delta, weight), delta being the distance of
    the two samples' means. Any split of a sample into batches gives the
    same moments up to rounding, the same split in the same order the same
    bits. A batch with a non-finite value, or a batch or merge after which
    a sum is not finite, raises ValueError and leaves the state as it was.
    """

    def __init__(self, mean_shape: tuple[int, ...], sums_shape: tuple[int, ...]):
        self.count = 0
        self._mean = _zeros(mean_shape)
        self._m2 = _zeros(sums_shape)

    def merge(self, other: _Moments) -> None:
        """Fold in the moments of other, as if its rows followed this one's."""
        if other._m2.shape != self._m2.shape:  # which also sets the means' shape
            raise ValueError(f"cannot merge centered sums of shape {other._m2.shape} into {self._m2.shape}")
        if self.count == 0:  # other's moments passed the finiteness check when they were formed
            self.count, self._mean, self._m2 = other.count, other._mean, other._m2
        else:
            self._merge(other.count, other._mean, other._m2)

    def _check_batch(self, runs: int, mean: np.ndarray, *batch: np.ndarray) -> None:
        """Raise ValueError where a batch's column means are not finite: NaN or inf in it, or a sum that overflows."""
        if not np.isfinite(mean).all():
            if any(not np.isfinite(part).all() for part in batch):
                raise ValueError(f"the batch of {runs} rows holds non-finite values (NaN or inf)")
            raise _overflow(self.count + runs)

    def _merge(self, runs: int, mean: np.ndarray, m2: np.ndarray) -> None:
        """The pairwise update with the count, means and centered sums of a second sample."""
        if runs == 0:
            return
        count = self.count
        total = count + runs
        if count:  # else the other sample's arrays, never updated in place, are adopted
            delta = mean - self._mean
            m2 = self._m2 + m2 + self._outer(delta, count * runs / total)
            mean = self._mean + delta * (runs / total)
        if not np.isfinite(m2).all():
            raise _overflow(total)
        self.count, self._mean, self._m2 = total, mean, m2

    def _denominator(self) -> int:
        if self.count < 2:
            raise ValueError(f"covariance undefined for count={self.count} (< 2)")
        return self.count - 1


class MomentAccumulator(_Moments):
    """One-pass mean and covariance tracker for a fixed set of variables.

    It keeps the (dim, dim) matrix of centered sums. ``add_batch(xs)`` is
    exactly a fresh accumulator's ``add_batch(xs)`` followed by ``merge``.
    """

    def __init__(self, dim: int):
        self.dim = dim = positive_integer("dim", dim)
        super().__init__((dim,), (dim, dim))

    @property
    def mean(self) -> np.ndarray:
        return self._mean.copy()

    def add_batch(self, xs) -> None:
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.dim:
            raise ValueError(f"expected shape (runs, {self.dim}), got {xs.shape}")
        runs = xs.shape[0]
        if runs == 0:
            return
        col_mean = np.einsum("ij->j", xs) / runs
        self._check_batch(runs, col_mean, xs)
        # A constant column, whose last row equals its first, must yield exactly
        # zero variance: center it on its exact value, not the rounded mean.
        if (xs[-1] == xs[0]).any():
            col_mean = np.where(np.all(xs == xs[0], axis=0), xs[0], col_mean)
        centered = xs - col_mean
        # one einsum, not BLAS, whose bits of a sum depend on the other sums in the product
        self._merge(runs, col_mean, np.einsum("ij,ik->jk", centered, centered))

    def _outer(self, delta: np.ndarray, weight: float) -> np.ndarray:
        return np.einsum("ij,ik->jk", delta[None], delta[None]) * weight

    def covariance(self) -> np.ndarray:
        """Unbiased (count-1 denominator) covariance matrix."""
        return self._m2 / self._denominator()

    def cross(self) -> np.ndarray:
        """Unbiased covariances of variable 0 with every variable (row 0)."""
        return self._m2[0] / self._denominator()

    def variances(self) -> np.ndarray:
        """Unbiased variances of every variable (the diagonal)."""
        return np.diagonal(self._m2) / self._denominator()


class _DayCross(_Moments):
    """cov(Y, X(i)) for each day i, from the payoffs Y and the log-returns X of the runs.

    One n-wide row of the sums of (Y - mean Y) * (X(i) - mean X(i)), with
    the means (mean Y, mean X(1), ..., mean X(n)). No diagonal of X nor
    centered copy of it is formed: a batch's sums are those of
    (Y - mean Y) * X(i), off by mean X(i) times the rounding error of the
    sum of Y - mean Y.
    """

    def __init__(self, n: int):
        super().__init__((1 + n,), (n,))

    def add_batch(self, y: np.ndarray, x: np.ndarray) -> None:
        runs = len(y)
        mean = np.concatenate((y.sum(keepdims=True), np.einsum("ij->j", x))) / runs
        self._check_batch(runs, mean, y, x)
        self._merge(runs, mean, np.einsum("i,ij->j", y - mean[0], x))

    def _outer(self, delta: np.ndarray, weight: float) -> np.ndarray:
        return delta[1:] * (delta[0] * weight)

    def cross(self) -> np.ndarray:
        """Unbiased covariances of Y with each X(i)."""
        return self._m2 / self._denominator()


@dataclass(frozen=True)
class ControlSpec:
    """Which control variables to use and where their coefficients come from.

    Every form but none is rows B of day weights, one row of n per
    fitted column Z = X @ B.T of the daily log-returns X:
        none               no control; identical to the plain estimator.
        custom_linear      V = sum_i weights[i] * X(i): B is the caller's weights.
        single_terminal_log V = sum_i X(i) = ln(S_d(n)/S(0)): custom_linear
                           with unit weights, bit for bit.
        multi_log_returns  one control per daily log-return X(i), fitted on
                           the span of the rows 1 and i/n.
    """

    form: str
    coefficient_source: str = SOURCE_PILOT
    weights: np.ndarray | None = None

    def __post_init__(self):
        if self.form not in CONTROL_FORMS:
            raise ArgumentError(
                "form", f"unknown control form {self.form!r}; expected one of {sorted(CONTROL_FORMS)}"
            )
        if self.coefficient_source not in COEFFICIENT_SOURCES:
            raise ArgumentError(
                "coefficient_source",
                f"unknown coefficient_source {self.coefficient_source!r}; "
                f"expected one of {sorted(COEFFICIENT_SOURCES)}",
            )
        if self.form == FORM_CUSTOM:
            if self.weights is None:
                raise ArgumentError("weights", "custom_linear requires weights")
            w = np.asarray(self.weights, dtype=float)
            if w.ndim != 1 or w.size == 0:
                raise ArgumentError("weights", "weights must be a nonempty 1-D sequence")
            if not np.all(np.isfinite(w)):
                raise ArgumentError("weights", "weights must be finite")
            if np.all(w == 0.0):
                raise ArgumentError("weights", "weights must not be all zero")
            object.__setattr__(self, "weights", w)
        elif self.weights is not None:
            raise ArgumentError("weights", f"{self.form} takes no weights")


_PLAIN = ControlSpec(form=FORM_NONE)


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
    over the controls C_i, from the same runs. standard_error is
    sqrt(var(W)/runs_used). per_control_correlations are corr(Y, C_i),
    from the sample covariances: over the sample variances of the fitted
    columns, and for multi_log_returns, whose controls are the n days
    X(i), over the exact daily variance sigma_d^2, sample cov(Y, X(i)) /
    sqrt(sample var(Y) * sigma_d^2), clipped to [-1, 1].
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
    """One form as data (ControlSpec): rows B, n day weights per fitted column Z = X @ B.T.

    values gives Z for every form, z_means its exact means and
    exact_variances its exact variances. The report's controls are the n
    days themselves where daily (multi_log_returns, whose coefficients are
    fitted on the span of its rows), else the fitted columns; means are
    their exact means, and day_variances, where daily, the days' exact
    variance sigma_d^2. Every array is read-only, so that the calls of a
    form without weights can share one (_controls).
    """

    def __init__(self, model: MarketModel, n: int, control: ControlSpec):
        self.daily = control.form == FORM_MULTI
        if self.daily:
            # Not a centred ramp, whose column would have mean 0 and never read as degenerate.
            rows = np.ones((min(n, 2), n))
            if n > 1:
                np.divide(np.arange(1, n + 1), n, out=rows[1])
        else:  # ControlSpec admits no other form, and form none never gets here
            rows = (control.weights if control.form == FORM_CUSTOM else np.ones(n))[None, :]
        self.rows = rows
        self.z_means = model.daily_mean * rows.sum(axis=1)
        self.exact_variances = model.daily_variance * np.einsum("ci,ci->c", rows, rows)
        self.means = np.full(n, model.daily_mean) if self.daily else self.z_means
        self.day_variances = np.full(n, model.daily_variance) if self.daily else None
        self.dim = len(self.means)
        for array in (rows, self.z_means, self.exact_variances, self.means, self.day_variances):
            if array is not None:
                array.flags.writeable = False

    def values(self, log_returns: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Z = X @ B.T, into out if given."""
        # not BLAS: a matrix product's bits of a row depend on the rows in it, einsum's do not
        return np.einsum("ij,cj->ic", log_returns, self.rows, out=out)


# The calls of a form without weights share its _Controls per (model, n,
# form): at most _SHARED_CONTROLS of them, of at most _SHARED_CONTROL_DAYS
# days each, whose arrays (at most 4n doubles) then hold at most 2 MiB.
_SHARED_CONTROLS = 16
_SHARED_CONTROL_DAYS = 4096


@functools.lru_cache(maxsize=_SHARED_CONTROLS)
def _shared_controls(model: MarketModel, n: int, control: ControlSpec) -> _Controls:
    return _Controls(model, n, control)


def _controls(model: MarketModel, n: int, control: ControlSpec) -> _Controls:
    """The _Controls of a call: shared where the form has no weights and n is
    at most _SHARED_CONTROL_DAYS, else made for it."""
    if control.weights is None and n <= _SHARED_CONTROL_DAYS:
        return _shared_controls(model, n, control)
    return _Controls(model, n, control)


def check_arguments(
    model: MarketModel,
    spec: ContractSpec,
    control: ControlSpec,
    runs: int,
    seed: int,
    pilot_fraction: float = DEFAULT_PILOT_FRACTION,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> None:
    """Raise ArgumentError, which names the argument, unless an estimator call may take these.

    The rules of plain_estimate (control of form none) and cv_estimate,
    which call it first, as does the command line. runs and batch_size are
    integers, not bool or float: a bool is no count, and a float would fail
    deep inside the simulation with an error that names neither.
    pilot_fraction is a real number in (0, 1) always, not a bool. A rate
    whose discount factor overflows is refused (discount_factor).
    """
    for name, value in (("runs", runs), ("batch_size", batch_size)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ArgumentError(name, f"{name} must be an integer, got {value!r}")
    if batch_size < 1:
        raise ArgumentError("batch_size", f"batch_size must be >= 1, got {batch_size}")
    estimate = control.form != FORM_NONE  # a control-variate estimate
    if estimate and runs < 4:
        raise ArgumentError("runs", f"runs must be >= 4 for a control-variate estimate, got {runs}")
    if runs < 2:
        raise ArgumentError("runs", f"runs must be >= 2 (variance undefined below that), got {runs}")
    discount_factor(model, spec)  # a rate that overflows it is refused before any run
    if estimate and model.daily_variance == 0.0:
        raise ArgumentError("volatility", "degenerate control: zero volatility makes every log-return constant")
    if estimate and control.form == FORM_CUSTOM and control.weights.size != spec.days_to_maturity:
        raise ArgumentError(
            "weights",
            f"custom weights have length {control.weights.size}, contract has n={spec.days_to_maturity}",
        )
    if isinstance(pilot_fraction, bool) or not isinstance(pilot_fraction, (float, int, np.floating, np.integer)):
        raise ArgumentError("pilot_fraction", f"pilot_fraction must be a real number, got {pilot_fraction!r}")
    if not 0.0 < pilot_fraction < 1.0:
        raise ArgumentError("pilot_fraction", f"pilot_fraction must be in (0, 1), got {pilot_fraction}")
    if estimate and control.coefficient_source == SOURCE_PILOT:
        pilot_runs = math.ceil(pilot_fraction * runs)
        if pilot_runs < 2 or runs - pilot_runs < 2:
            raise ArgumentError(
                "pilot_fraction",
                f"pilot split too small: {pilot_runs} pilot / {runs - pilot_runs} main runs "
                "(both must be >= 2)",
            )
    check_seed(seed)


try:
    _sched_getcpu = ctypes.CDLL(None).sched_getcpu
except (AttributeError, OSError, TypeError):  # not Linux or no C library to load
    _sched_getcpu = None


def _other_cpus() -> set[int]:
    """The CPUs the calling thread may run on, less the one it runs on now.

    Empty where the platform tells neither, or the thread may run on one
    CPU only.
    """
    if _sched_getcpu is None or not hasattr(os, "sched_getaffinity"):
        return set()
    return os.sched_getaffinity(0) - {_sched_getcpu()}


def _fill_rows(
    model: MarketModel,
    spec: ContractSpec,
    controls: _Controls | None,
    x: np.ndarray,
    rows: np.ndarray,
    lo: int,
    hi: int,
    prices: np.ndarray,
    one_lane: bool,
) -> None:
    """Payoffs into column 0 of rows and the fitted columns Z after it, from log-returns x.

    The prices go into prices, the (runs, n) view of a day-major buffer
    that the rows may share, so x stays intact for Z and the payoff sums
    each run's days one after another; their prefix sums go day by day
    from the row count of the call's lanes (_prices). A lone run, whose
    view numpy would sum pairwise, is priced as two equal rows. A
    non-finite payoff raises, naming the runs lo..hi-1 of the batch.
    """
    paths, prices = (x, prices) if len(x) > 1 else (x[[0, 0]], np.empty((x.shape[1], 2)).T)
    y = discounted_payoff(model, spec, _prices(model, paths, prices, one_lane))
    if not np.isfinite(y).all():
        strike = "" if spec.strike is None else f", strike {spec.strike}"
        raise ValueError(
            f"non-finite payoff in runs {lo}..{hi - 1} of {spec.kind} "
            f"({spec.days_to_maturity} days{strike}): the simulated prices overflow floating point"
        )
    rows[:, 0] = y[: len(rows)]
    if controls is not None:
        controls.values(x, out=rows[:, 1:])


def _run_on(cpus: set[int]) -> None:
    """Keep the calling thread to cpus, unless cpus is empty."""
    if cpus:
        # On Linux this sets the calling thread's CPUs only. The draws do not
        # depend on where it runs, so a refusal is let pass.
        with suppress(OSError):
            os.sched_setaffinity(0, cpus)


def _simulate(
    model: MarketModel,
    spec: ContractSpec,
    seed: int,
    runs: int,
    batch_size: int,
    controls: _Controls | None,
    phases: list[tuple[int, MomentAccumulator]],
    days: _DayCross | None = None,
) -> None:
    """Simulate runs 0..runs-1 and fold their moment rows into the phases' accumulators.

    phases lists (end, acc) in run order, the last end being runs: a phase
    takes the runs from the previous phase's end up to its own, and acc
    their rows [Y | Z], the payoffs in column 0 and the k fitted columns Z
    of controls after them (none without controls). days, if given, takes
    the per-day cross moments of the last phase's runs, from their payoffs
    and log-returns, unit by unit as acc does.

    The runs are drawn in pieces: they are cut at multiples of batch_size
    and of STREAM_BLOCK_ROWS, and the parts into pieces of at most
    _CHUNK_NORMALS normals. The unit of the moments is the runs of one
    block that lie in one phase: unit folds the part of each of its pieces
    that lies in the phase by add_batch into one fresh accumulator, and
    this thread merges the units into their phases in run order. A piece
    that a phase boundary cuts is drawn once and serves the units on both
    sides.

    A call that draws at least _THREADED_NORMALS normals over more than
    one block runs on two lanes. Lane b, a one-thread executor, computes
    the units of the blocks b, b + 2, ..., so its sampler walks them in
    order without re-keying; any other call has one lane, this thread.
    Either way the units are handed out in run order, each to the lane of
    its block (submitted on two lanes, deferred on one), and wait in one
    window of at most _UNITS_AHEAD unmerged units, which spans the phase
    boundaries: each unit carries its phase, and before it hands out
    another, this thread merges the oldest, which on one lane it computes
    first. So a call holds at most _UNITS_AHEAD unit accumulators, however
    many runs it has, and the first failure in run order is the one
    raised, as on one lane. A lane starts no unit beyond the window after
    a failure: the executors, made per call, are shut down and their
    queued tasks dropped before this returns or raises. Lane 0 keeps to
    the CPU this thread runs on at the start of the call and lane 1 to the
    others, if this thread may run on more than one: unpinned, a 2-vCPU
    VM's scheduler kept both on one vCPU for whole runs of calls. Each
    lane computes in a copy of this thread's context, so numpy's error
    state (np.errstate) is the caller's. The lanes change only who
    computes a unit: the units and the order of their merge are the same.

    Each lane has one buffer of one piece, reused from piece to piece: n
    wide for the log-returns, then max(n, 1 + k) wide for the prices, day
    by day, and after the payoffs for the moment rows, column by column.
    """
    n = spec.days_to_maturity
    ends = [end for end, _ in phases]
    starts = [0, *ends[:-1]]
    accs = [acc for _, acc in phases]
    width = 1 + (len(controls.rows) if controls is not None else 0)  # [Y | Z]
    step = max(1, _CHUNK_NORMALS // n)
    size = min(step, batch_size, STREAM_BLOCK_ROWS, runs)  # the longest piece
    threaded = runs * n >= _THREADED_NORMALS and runs > STREAM_BLOCK_ROWS

    def piece_of(run: int) -> tuple[int, int, int, int]:
        """The piece (lo, hi, batch_lo, batch_hi) that holds run; batch_lo..batch_hi-1
        are the runs of its batch."""
        block_lo = run - run % STREAM_BLOCK_ROWS
        batch_lo = run - run % batch_size
        batch_hi = min(batch_lo + batch_size, runs)
        lo = run - (run - max(batch_lo, block_lo)) % step
        return lo, min(lo + step, batch_hi, block_lo + STREAM_BLOCK_ROWS), batch_lo, batch_hi

    def lane() -> Callable:
        """fill(piece) -> the piece's moment rows and its log-returns, in a
        buffer of this lane's own. It draws them unless it holds them
        already; its sampler is keyed on the thread that first fills."""
        sampler, held, x = None, None, None  # held: the piece whose rows the buffer holds, x its draws
        # One allocation: glibc raises its trim threshold to twice the largest
        # mmapped block freed, which two such blocks freed together reached, so
        # the heap was trimmed and faulted in again on every call (about 23 900
        # minor page faults per pass of the replications benchmark; none now).
        buffer = np.empty(size * (n + max(n, width)))
        x_buffer = buffer[: size * n].reshape(size, n)
        space = buffer[size * n :]
        # column by column, so that a column of a piece's rows is contiguous
        row_buffer = space[: size * width].reshape(width, size).T

        def fill(piece: tuple[int, int, int, int]) -> tuple[np.ndarray, np.ndarray]:
            nonlocal sampler, held, x
            lo, hi, batch_lo, batch_hi = piece
            rows = row_buffer[: hi - lo]
            if held != piece:
                held = None
                if sampler is None:
                    sampler = LogReturnSampler(model, n, seed)
                x = sampler.rows(lo, hi, out=x_buffer[: hi - lo])
                prices = space[: (hi - lo) * n].reshape(n, hi - lo).T
                _fill_rows(model, spec, controls, x, rows, batch_lo, batch_hi, prices, not threaded)
                held = piece
            return rows, x

        return fill

    def unit(fill: Callable, lo: int, hi: int, phase: int) -> tuple[MomentAccumulator, _DayCross | None]:
        """The moments of runs lo..hi-1 of phase in fresh accumulators, piece by piece."""
        acc = MomentAccumulator(width)
        cross = _DayCross(n) if days is not None and phase == len(phases) - 1 else None
        while lo < hi:
            piece = piece_of(lo)
            b = min(piece[1], hi)
            rows, x = fill(piece)
            part = slice(lo - piece[0], b - piece[0])
            try:
                acc.add_batch(rows[part])
                if cross is not None:
                    cross.add_batch(rows[part, 0], x[part])
            except _Overflow:
                # with the phase's rows so far, as its merge would count them
                raise _overflow(b - starts[phase]) from None
            lo = b
        return acc, cross

    def merge(phase: int, done: Callable) -> None:
        acc, cross = done()
        accs[phase].merge(acc)
        if cross is not None:
            days.merge(cross)

    if threaded:
        # imported here: importing it takes about 10 ms, which every
        # command-line run would pay
        from concurrent.futures import ThreadPoolExecutor

        others = _other_cpus()
        lanes = [  # per lane: its fill, its copy of this thread's context and its executor
            (lane(), contextvars.copy_context(), ThreadPoolExecutor(1, initializer=_run_on, initargs=(cpus,)))
            for cpus in (os.sched_getaffinity(0) - others if others else set(), others)
        ]
    else:
        fill = lane()

    def hand(lo: int, hi: int, phase: int) -> Callable:
        """unit(fill, lo, hi, phase) on the lane of lo's block: submitted on two
        lanes, deferred on one; calling what this returns gives its result."""
        if not threaded:
            return functools.partial(unit, fill, lo, hi, phase)
        lane_fill, context, executor = lanes[lo // STREAM_BLOCK_ROWS % 2]
        return executor.submit(context.run, unit, lane_fill, lo, hi, phase).result

    window = collections.deque()  # the unmerged units of every phase, in run order, with their phases
    try:
        for phase, (start, end) in enumerate(zip(starts, ends)):
            for lo in range(start - start % STREAM_BLOCK_ROWS, end, STREAM_BLOCK_ROWS):
                if len(window) == _UNITS_AHEAD:
                    merge(*window.popleft())
                window.append((phase, hand(max(lo, start), min(lo + STREAM_BLOCK_ROWS, end), phase)))
        while window:
            merge(*window.popleft())
    finally:
        if threaded:
            for _, _, executor in lanes:
                executor.shutdown(cancel_futures=True)


def _fit(acc: MomentAccumulator, controls: _Controls, source: str) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Coefficients of the k fitted columns Z = X @ B.T (_Controls), of the controls, and notes.

    acc holds the moments of [Y | Z], all its 1 + k variables,
    over R runs: the pilot's, or every run in-sample. The fit is by least
    squares where the controls are daily and R >= k + 3, with a note of
    the factor by which the coefficients' error moves var(W) (Lavenberg &
    Welch 1981; Nelson 1990): up by about (R - 2)/(R - k - 2) over its
    floor on the main runs of a pilot, down by about (R - k - 1)/(R - 1)
    in-sample. Otherwise each Z_c is fitted on its own with its exact
    variance sigma_d^2 * sum_i B_ci^2. The daily controls' coefficients
    are B.T @ (those of Z), the others' those of Z.
    """
    k, q, runs = len(controls.rows), controls.dim, acc.count
    if controls.daily and runs >= k + 3:
        fitted, notes = optimal_betas(acc)
        if source == SOURCE_PILOT:
            # as 1 + or - its distance from 1, which no run count rounds away
            on, moves = f"p = {runs} pilot runs", "raises var(W)"
            factor = f"(p - 2)/(p - k - 2) = 1 + {k / (runs - k - 2):.4g} over its floor"
        else:
            on, moves = f"all R = {runs} runs", "lowers the sample var(W)"
            factor = f"(R - k - 1)/(R - 1) = 1 - {k / (runs - 1):.4g}"
        notes.append(
            f"least-squares {source} coefficients on the span of {'{1, i/n}' if k == 2 else '{1}'}: k = {k} "
            f"fitted jointly on {on} for the n = {q} daily ones; their error {moves} by about the factor {factor}"
        )
    else:
        fitted, notes = optimal_betas(acc, controls.exact_variances)
    return fitted, (np.einsum("ci,c->i", controls.rows, fitted) if controls.daily else fitted), notes


def plain_estimate(
    model: MarketModel,
    spec: ContractSpec,
    runs: int,
    seed: int,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> EstimatorReport:
    """Plain Monte Carlo: mean of Y over `runs` independent paths."""
    check_arguments(model, spec, _PLAIN, runs, seed, batch_size=batch_size)
    acc = MomentAccumulator(1)
    _simulate(model, spec, seed, runs, batch_size, None, [(runs, acc)])
    variance = acc.variances()[0]
    return EstimatorReport(
        estimate=float(acc.mean[0]),
        standard_error=math.sqrt(variance / runs),
        runs_used=runs,
        empirical_variance_ratio=1.0,
        predicted_variance_ratio=1.0,
    )


def optimal_betas(acc: MomentAccumulator, variances: np.ndarray | None = None) -> tuple[np.ndarray, list[str]]:
    """Control coefficients from the moments in acc, and notes on dropped controls.

    The accumulator's first variable is Y; the controls are the others.
    With `variances`, each control is fitted on its own:
    beta_i = -cov(Y, C_i)/variances[i]. cv_estimate passes the exact model
    variances of the controls; acc.variances()[1:] gives the sample ones.
    Without, the controls are fitted jointly by least squares,
    beta = -S_CC^-1 cov(C, Y), from acc's sample covariance S, with
    one solve over the usable controls: the coefficients that minimise the
    sample variance of W. A control whose variance (variances[i], or its
    sample variance) is below DEGENERATE_CONTROL_TOLERANCE times its
    second moment gets coefficient 0 and leaves the fit, with a warning
    and a note; if every control is degenerate, raises ValueError.
    """
    if variances is None:
        cov = acc.covariance()
        denominators = cov.diagonal()[1:]
    else:
        denominators = np.array(variances, dtype=float)
        if denominators.shape != (acc.dim - 1,):
            raise ValueError(f"expected {acc.dim - 1} variances, got shape {denominators.shape}")
    # the stored means, without the copy the public property makes
    second_moment = denominators + acc._mean[1:] ** 2
    usable = denominators > DEGENERATE_CONTROL_TOLERANCE * np.maximum(second_moment, 1e-300)
    dropped = len(usable) - np.count_nonzero(usable)
    if dropped == len(usable):
        raise ValueError("degenerate control: every control variance is (numerically) zero")
    notes = []
    if dropped:
        notes.append(f"{dropped} degenerate control(s) dropped (coefficient set to 0)")
        warnings.warn(notes[0])
    if variances is None and not dropped:  # the same solve, without the masks' copies
        return -np.linalg.solve(cov[1:, 1:], cov[1:, 0]), notes
    betas = np.zeros(len(usable))
    if variances is None:
        betas[usable] = -np.linalg.solve(cov[1:, 1:][usable][:, usable], cov[1:, 0][usable])
    else:
        np.divide(-acc.cross()[1:], denominators, out=betas, where=usable)
    return betas, notes


def insample_variance(acc: MomentAccumulator, betas: np.ndarray) -> float:
    """Sample variance of W = Y + sum_i betas[i]*(C_i - const) on acc's sample,
    the controls C_i being acc's variables after Y (optimal_betas).

    Exact for any fixed betas, as W is a linear combination of acc's
    variables: cv_estimate reads var(W) this way for both coefficient
    sources, from the estimating runs' moments of [Y | Z].
    """
    betas = np.asarray(betas, dtype=float)
    cov = acc.covariance()
    return float(cov[0, 0] + betas @ cov[1:, 1:] @ betas + 2.0 * (betas @ cov[1:, 0]))


def _correlations(var_y: float, cross: np.ndarray, control_vars: np.ndarray) -> np.ndarray:
    """corr(Y, C_i) from the moments, 0 where a variance is 0. The scale is
    sqrt(var_y) * sqrt(var_c) where var_y * var_c is not a finite normal
    double, as for variances far apart in scale."""
    # var_y * var_c is monotone in var_c: where both extremes give a finite
    # normal product, every control does, and each scale is sqrt(var_y * var_c)
    var_y = float(var_y)
    if sys.float_info.min <= var_y * float(control_vars.min()) and var_y * float(control_vars.max()) < math.inf:
        correlations = cross / np.sqrt(var_y * control_vars)
        return np.clip(correlations, -1.0, 1.0, out=correlations)
    with np.errstate(over="ignore"):
        product = var_y * control_vars
    normal = np.isfinite(product) & (product >= np.finfo(float).tiny)
    scale = np.where(normal, np.sqrt(product), np.sqrt(var_y) * np.sqrt(control_vars))
    correlations = np.divide(cross, scale, out=np.zeros(len(cross)), where=scale > 0.0)
    return np.clip(correlations, -1.0, 1.0, out=correlations)


def _predicted(var_y: float, correlations: np.ndarray, control_vars: np.ndarray) -> float:
    """Variance ratio predicted from sample correlations, 1 - sum_i corr^2(Y, C_i)."""
    if var_y == 0.0:
        return 1.0
    if not (control_vars > 0.0).any():
        raise ValueError("degenerate control: every control has zero sample variance")
    return float(1.0 - correlations @ correlations)


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
    the runs. With "in_sample" all runs serve both purposes (small-sample
    biased). Either way the coefficients are fitted after the pass, and
    the estimate, mean Y + fitted . (mean Z - E[Z]), and var(W) follow
    exactly from the estimating runs' means and sample covariance of
    [Y | Z] (insample_variance).

    A form is rows B of day weights (ControlSpec), single_terminal_log
    being custom_linear with unit weights. Both sources fit the same way
    (_fit): coefficients come from optimal_betas with the exact model
    variances of the fitted columns as denominators,
    sigma_d^2 * sum_i B_ci^2, except that multi_log_returns fits its n
    daily coefficients on the span of its rows {1, i/n} ({1} at n = 1) by
    least squares from the sample covariance of [Y | Z] when it has
    R >= k + 3 runs, with a note of k, R and the factor by which the fit
    moves var(W). The report keeps the n daily coefficients a + b * i/n,
    the per-day correlations and the bound 1 - sum_i corr^2(Y, X(i)), each
    corr(Y, X(i)) being the sample cov(Y, X(i)) over sqrt(var(Y)) and the
    exact daily standard deviation sigma_d (EstimatorReport).
    Degenerate controls are dropped with a note.
    check_arguments holds the rules on the arguments.
    A predicted variance ratio below -0.05, which sampling bias
    gives with few runs per control, is reported as it is, with a note
    and a UserWarning.
    """
    check_arguments(model, spec, control, runs, seed, pilot_fraction, batch_size)
    if control.form == FORM_NONE:
        return plain_estimate(model, spec, runs, seed, batch_size)
    controls = _controls(model, spec.days_to_maturity, control)
    acc = MomentAccumulator(1 + len(controls.rows))  # [Y | Z] of the estimating runs
    # the per-day report of multi_log_returns: cov(Y, X(i)) over the estimating runs
    days = _DayCross(spec.days_to_maturity) if controls.daily else None
    if control.coefficient_source == SOURCE_PILOT:
        pilot_runs = math.ceil(pilot_fraction * runs)
        fit_on = MomentAccumulator(acc.dim)
        phases = [(pilot_runs, fit_on), (runs, acc)]
    else:
        pilot_runs, fit_on, phases = 0, acc, [(runs, acc)]
    main_runs = runs - pilot_runs
    _simulate(model, spec, seed, runs, batch_size, controls, phases, days)
    fitted, betas, notes = _fit(fit_on, controls, control.coefficient_source)
    if control.coefficient_source == SOURCE_IN_SAMPLE:
        notes.append("in_sample coefficients reuse the estimation runs; the estimator carries an O(1/R) bias")
    cov = acc.covariance()
    var_y = cov[0, 0]
    # the stored means, without the copies the public property makes
    estimate = float(acc._mean[0] + fitted @ (acc._mean[1:] - controls.z_means))
    var_w = max(insample_variance(acc, fitted), 0.0)
    if days is None:
        cross, control_vars = cov[0, 1:], cov.diagonal()[1:]
    else:  # each day's sample cov(Y, X(i)) over its exact variance
        cross, control_vars = days.cross(), controls.day_variances

    ratio = var_w / var_y if var_y > 0.0 else 1.0
    correlations = _correlations(var_y, cross, control_vars)
    predicted = _predicted(var_y, correlations, control_vars)
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
