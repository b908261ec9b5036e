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
of the stream's block size; a full covariance of more than n variables
takes the parts between those cuts whole. The unit of the moments is
the runs of one block that lie in one phase: their rows are folded into
one accumulator of the unit, and the units are merged into their phases
in run order. With pilot coefficients, one pass serves both phases: runs
below the pilot count estimate the coefficients, which are fixed at the
boundary, and the later runs feed the main-phase moments of (Y,
controls, W). Those track only the means, cov(Y, .) and the variances,
O(runs * n); the full covariance matrix is built only where it is read:
in-sample coefficients and, of its k <= 2 basis controls, the pilot of
multi_log_returns (_pilot_pass).

Drawing the normals is the largest stage, so a call that draws many
(_THREADED_NORMALS or more) runs on two lanes, one-thread executors made
per call, unless it tracks a full covariance wider than n at n > 32.
Block b of the stream goes to lane b mod 2, which turns each unit of its
blocks into prices, payoffs, controls and moments; the caller's thread
hands out the units in run order and merges them in that order, with at
most _UNITS_AHEAD of them unmerged, so a call's memory does not grow
with its run count (_simulate). A run's draws depend only on (seed, j,
n), every per-run number is computed within its own row, and the units
and the order of their merge do not depend on the lanes, so the number
of lanes changes no bit of any report, nor which exception a call
raises.
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
    STREAM_BLOCK_ROWS, ArgumentError, LogReturnSampler, MarketModel, check_seed, positive_integer,
    prices_from_log_returns,
)
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

# Most normals in one piece, the runs that a lane draws and turns into
# moment rows at a time (1 MiB of doubles).
_CHUNK_NORMALS = 2**17
# A call that draws fewer normals runs on one lane: below about this,
# starting the lanes costs what the second core saves.
_THREADED_NORMALS = 2**19
# Most units computed or queued ahead of the merge, four per lane.
_UNITS_AHEAD = 8

# Values per block when MomentAccumulator centers a batch without the full
# covariance (256 KiB of doubles, which stays in a typical L2 cache).
_CENTERED_BLOCK = 2**15


@functools.lru_cache(maxsize=64)
def _zeros(shape: tuple[int, ...]) -> np.ndarray:
    """A read-only array of zeros of this shape, made once."""
    zeros = np.zeros(shape)
    zeros.flags.writeable = False
    return zeros


def _overflow(total: int) -> ValueError:
    return ValueError(
        f"the moments overflow floating point after {total} rows: sums of squared deviations are non-finite"
    )


class MomentAccumulator:
    """One-pass mean and covariance tracker for a fixed set of variables.

    With ``full_covariance`` (the default) it tracks the whole covariance
    matrix. Without it, it tracks only what the control-variate pass
    reads, at O(dim) cost per row: row 0 of the covariance (variable 0
    against every variable) and the diagonal.

    Observations arrive through ``add_batch``, which folds each batch in
    with the pairwise update, or through ``merge``, which folds in another
    accumulator's moments with the same update: any split of a sample into
    batches gives the same moments up to rounding, and the same split in
    the same order gives the same bits. ``add_batch(xs)`` is exactly a
    fresh accumulator's ``add_batch(xs)`` followed by ``merge``. A batch
    or merge after which a sum of centered products is no longer finite
    raises ValueError and leaves the state as it was, so no moment reads
    inf or NaN.
    """

    def __init__(self, dim: int, full_covariance: bool = True):
        self.dim = dim = positive_integer("dim", dim)
        self.full_covariance = full_covariance
        self._count = 0
        # Sums of centered products: the (dim, dim) matrix, or its row 0
        # stacked on its diagonal. No accumulator updates its moment arrays
        # in place, so an empty one shares read-only zeros.
        self._mean = _zeros((dim,))
        self._m2 = _zeros((dim, dim) if full_covariance else (2, dim))

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
            # a column can be constant only where its last row equals its first
            if (xs[-1] == xs[0]).any():
                col_mean = np.where(np.all(xs == xs[0], axis=0), xs[0], col_mean)
        elif (xs[:, 0] == xs[0, 0]).all():
            col_mean[0] = xs[0, 0]
        self._merge(runs, col_mean, self._products(xs, col_mean))

    def merge(self, other: MomentAccumulator) -> None:
        """Fold in the moments of other, as if its rows followed this one's."""
        if other.dim != self.dim or other.full_covariance != self.full_covariance:
            raise ValueError(
                f"cannot merge an accumulator of dim {other.dim} (full_covariance={other.full_covariance}) "
                f"into one of dim {self.dim} (full_covariance={self.full_covariance})"
            )
        if self._count == 0:
            # other's moments passed the finiteness check when they were formed
            self._count, self._mean, self._m2 = other._count, other._mean, other._m2
        else:
            self._merge(other._count, other._mean, other._m2)

    def _merge(self, runs: int, col_mean: np.ndarray, m2: np.ndarray) -> None:
        """The pairwise update with the count, mean and centered sums of a second sample."""
        if runs == 0:
            return
        count = self._count
        total = count + runs
        if count == 0:
            # No accumulator updates its moment arrays in place, so the
            # other sample's are adopted as they are.
            mean = col_mean
        else:
            delta = col_mean - self._mean
            mean = self._mean + delta * (runs / total)
            m2 = self._m2 + m2 + self._products(delta[None, :], 0.0) * (count * runs / total)
        if not np.isfinite(m2).all():
            raise _overflow(total)
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

    Every form but none is rows B of day weights, one row of n per
    fitted column Z = X @ B.T of the daily log-returns X:
        none               no control; identical to the plain estimator.
        custom_linear      V = sum_i weights[i] * X(i): B is the caller's weights.
        single_terminal_log V = sum_i X(i) = ln(S_d(n)/S(0)): custom_linear
                           with unit weights, bit for bit.
        multi_log_returns  one control per daily log-return X(i); its pilot
                           fits them on the span of the rows 1 and i/n.
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
    sqrt(var(W)/runs_used).
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
    """One form as data (ControlSpec): rows, n day weights per fitted column X @ rows.T.

    The controls are the n days themselves where daily (multi_log_returns,
    whose pilot fits the span of its rows), else the fitted columns. means
    are the controls' exact means, exact_variances the fitted columns'.
    """

    def __init__(self, model: MarketModel, spec: ContractSpec, control: ControlSpec):
        n = spec.days_to_maturity
        self.daily = control.form == FORM_MULTI
        if self.daily:
            # Not a centred ramp, whose column would have mean 0 and never read as degenerate.
            self.rows = np.ones((min(n, 2), n))
            if n > 1:
                np.divide(np.arange(1, n + 1), n, out=self.rows[1])
            self.means = np.full(n, model.daily_mean)
        else:  # ControlSpec admits no other form, and form none never gets here
            self.rows = (control.weights if control.form == FORM_CUSTOM else np.ones(n))[None, :]
            self.means = model.daily_mean * self.rows.sum(axis=1)
        self.dim = n if self.daily else len(self.rows)
        self._daily_variance = model.daily_variance

    @functools.cached_property
    def exact_variances(self) -> np.ndarray:
        # read by every form but the daily one, whose pilot needs it only with p < k + 3 runs
        return self._daily_variance * np.einsum("ci,ci->c", self.rows, self.rows)

    def values(self, log_returns: np.ndarray) -> np.ndarray:
        if self.daily:
            return log_returns
        # not BLAS: a matrix product's bits of a row depend on the rows in it, einsum's do not
        return np.einsum("ij,cj->ic", log_returns, self.rows)


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
    pilot_fraction is a real number in (0, 1) always, not a bool.
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
) -> None:
    """Payoffs into column 0 of rows and control values after it, from log-returns x.

    The controls are taken first, then x becomes the prices in place. A
    non-finite payoff raises, naming the runs lo..hi-1 of the batch.
    """
    if controls is not None:
        rows[:, 1 : 1 + controls.dim] = controls.values(x)
    y = discounted_payoff(model, spec, prices_from_log_returns(model, x, out=x))
    if not np.isfinite(y).all():
        strike = "" if spec.strike is None else f", strike {spec.strike}"
        raise ValueError(
            f"non-finite payoff in runs {lo}..{hi - 1} of {spec.kind} "
            f"({spec.days_to_maturity} days{strike}): the simulated prices overflow floating point"
        )
    rows[:, 0] = y


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
    phases: list[tuple[int, MomentAccumulator, Callable | None]],
    at_boundary: Callable[[], None] = lambda: None,
) -> None:
    """Simulate runs 0..runs-1 and fold their moment rows into the phases' accumulators.

    phases lists (end, acc, fold) in run order, the last end being runs:
    a phase takes the runs from the previous phase's end up to its own.
    fold(rows), unless None, returns the rows that go into acc: rows is a
    view of the moment rows, max(1 + q, acc.dim) wide, with the payoffs in
    column 0, the q control values in columns 1..q and the columns of a
    wider acc, which the fold fills in place, after them. A narrower acc's
    fold (cv-multi's pilot) returns a fresh array. at_boundary is called
    on this thread at each phase boundary, once every earlier run is in
    the moments and before any later run is folded.

    The runs are drawn in pieces: they are cut at multiples of batch_size
    and of STREAM_BLOCK_ROWS, and the parts into pieces of at most
    _CHUNK_NORMALS normals, except that a call that tracks a full
    covariance of more than n variables keeps the parts whole. The unit
    of the moments is the runs of one block that lie in one phase: unit
    folds the part of each of its pieces that lies in the phase by
    add_batch into one fresh accumulator, and this thread merges the
    units into their phases in run order. A piece that a phase boundary
    cuts is drawn once and serves the units on both sides.

    A call that draws at least _THREADED_NORMALS normals over more than
    one block runs on two lanes, unless it tracks a full covariance of
    more than n variables and n > 32 (wide: in-sample multi_log_returns
    only). Lane b, a one-thread executor, computes the units of the blocks
    b, b + 2, ..., so its sampler walks them in order without re-keying;
    any other call has one lane, this thread. Either way the units are
    handed out in run order, each to the lane of its block (submitted on
    two lanes, deferred on one), and wait in one window of at most
    _UNITS_AHEAD unmerged units: before it hands out another, this thread
    merges the oldest, which on one lane it computes first. After a
    phase's last unit, each lane is handed a task that draws the first
    piece of its next unit in a later phase ahead (deferred on one lane,
    where nothing makes it); then the window is drained and at_boundary
    called. So a call holds at most _UNITS_AHEAD unit accumulators, however
    many runs it has, and the first failure in run order is the one
    raised, as on one lane. A lane starts no unit beyond the window after
    a failure: the executors, made per call, are shut down and their
    queued tasks dropped before this returns or raises (a failed draw
    ahead is dropped: the unit meets the failure again). Lane 0 keeps to
    the CPU this thread runs on at the start of the call and lane 1 to the
    others, if this thread may run on more than one: unpinned, a 2-vCPU
    VM's scheduler kept both on one vCPU for whole runs of calls. Each
    lane computes in a copy of this thread's context, so numpy's error
    state (np.errstate) is the caller's. The lanes change only who
    computes a unit, and the draw ahead: the units and the order of their
    merge are the same.

    Each lane has its own buffers of one piece, reused from piece to
    piece: n wide for the log-returns, which become the prices in place
    once the controls are taken from them, and width wide for the moment
    rows, width being that of the widest rows a phase folds.
    """
    n = spec.days_to_maturity
    ends = [end for end, _, _ in phases]
    starts = [0, *ends[:-1]]
    accs = [acc for _, acc, _ in phases]
    widths = [max(1 + (controls.dim if controls is not None else 0), acc.dim) for acc in accs]
    width = max(widths)
    # A full covariance of more than n variables: its product c.T @ c, on
    # two BLAS threads, and its merge cost more than drawing the piece, and
    # the more per run the smaller the piece. So its pieces are the parts
    # between the cuts, whole, and beyond 32 days, where a block's part
    # holds more than _CHUNK_NORMALS normals, the call runs on one lane.
    wide = any(acc.full_covariance and acc.dim > n for acc in accs)
    step = STREAM_BLOCK_ROWS if wide else max(1, _CHUNK_NORMALS // n)
    size = min(step, batch_size, STREAM_BLOCK_ROWS, runs)  # the longest piece
    threaded = (
        runs * n >= _THREADED_NORMALS
        and runs > STREAM_BLOCK_ROWS
        and not (wide and STREAM_BLOCK_ROWS * n > _CHUNK_NORMALS)
    )

    def piece_of(run: int) -> tuple[int, int, int, int]:
        """The piece (lo, hi, batch_lo, batch_hi) that holds run; batch_lo..batch_hi-1
        are the runs of its batch."""
        block_lo = run - run % STREAM_BLOCK_ROWS
        batch_lo = run - run % batch_size
        batch_hi = min(batch_lo + batch_size, runs)
        lo = run - (run - max(batch_lo, block_lo)) % step
        return lo, min(lo + step, batch_hi, block_lo + STREAM_BLOCK_ROWS), batch_lo, batch_hi

    def lane() -> Callable:
        """fill(piece) -> the piece's moment rows before the fold, in buffers
        of this lane's own: size by n for the draws and their prices, size by
        width for the rows. It draws them unless it drew them ahead; its
        sampler is keyed on the thread that first fills."""
        sampler, held = None, None  # held: the piece whose rows the buffer holds
        # One allocation: glibc raises its trim threshold to twice the largest
        # mmapped block freed, which two such blocks freed together reached, so
        # the heap was trimmed and faulted in again on every call (about 23 900
        # minor page faults per pass of the replications benchmark; none now).
        buffer = np.empty(size * (n + width))
        x_buffer = buffer[: size * n].reshape(size, n)
        row_buffer = buffer[size * n :].reshape(size, width)

        def fill(piece: tuple[int, int, int, int]) -> np.ndarray:
            nonlocal sampler, held
            lo, hi, batch_lo, batch_hi = piece
            rows = row_buffer[: hi - lo]
            if held != piece:
                held = None
                if sampler is None:
                    sampler = LogReturnSampler(model, n, seed)
                x = sampler.rows(lo, hi, out=x_buffer[: hi - lo])
                _fill_rows(model, spec, controls, x, rows, batch_lo, batch_hi)
                held = piece
            return rows

        return fill

    def unit(fill: Callable, lo: int, hi: int, phase: int) -> MomentAccumulator:
        """The moments of runs lo..hi-1 of phase in a fresh accumulator, piece by piece."""
        acc = MomentAccumulator(accs[phase].dim, accs[phase].full_covariance)
        while lo < hi:
            piece = piece_of(lo)
            b = min(piece[1], hi)
            rows = fill(piece)[lo - piece[0] : b - piece[0], : widths[phase]]
            if phases[phase][2] is not None:
                rows = phases[phase][2](rows)
            try:
                acc.add_batch(rows)
            except ValueError:
                # with the phase's rows so far, as its merge would count them
                raise _overflow(b - starts[phase]) from None
            lo = b
        return acc

    def draw_ahead(fill: Callable, run: int) -> None:
        with suppress(Exception):  # met again when the unit draws the piece, in run order
            fill(piece_of(run))

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

    def hand(run: int, task: Callable, *args) -> Callable:
        """task(fill, *args) for the lane of run's block: submitted on two lanes,
        deferred on one; calling what this returns gives its result."""
        if not threaded:
            return functools.partial(task, fill, *args)
        lane_fill, context, executor = lanes[run // STREAM_BLOCK_ROWS % 2]
        return executor.submit(context.run, task, lane_fill, *args).result

    window = collections.deque()  # the unmerged units of the phase, in run order
    try:
        for phase, (start, end) in enumerate(zip(starts, ends)):
            for lo in range(start - start % STREAM_BLOCK_ROWS, end, STREAM_BLOCK_ROWS):
                if len(window) == _UNITS_AHEAD:
                    accs[phase].merge(window.popleft()())
                window.append(hand(lo, unit, max(lo, start), min(lo + STREAM_BLOCK_ROWS, end), phase))
            # the first run of each lane in a later phase: run end, and the next block's first
            for later in (end, end - end % STREAM_BLOCK_ROWS + STREAM_BLOCK_ROWS):
                if later < runs:
                    hand(later, draw_ahead, later)
            while window:
                accs[phase].merge(window.popleft()())
            if end < runs:
                at_boundary()
    finally:
        if threaded:
            for _, _, executor in lanes:
                executor.shutdown(cancel_futures=True)


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

    Runs below pilot_runs feed the moments of (Y, controls); the
    coefficients are fixed from them at the boundary. The later runs feed
    the lean moments of (Y, controls, W), W = Y + C @ beta - E[C] @ beta,
    so the estimate and var(W) are read straight from the main moments.

    Every form fits the k columns Z = X @ B.T of its rows B (_Controls):
    the one-control forms' Z is their control, from lean moments; the
    daily controls of multi_log_returns take beta = B.T @ (a, b) on the
    k <= 2 rows of its span, from the full moments of (Y, Z). The fit is
    by least squares where the controls are daily and the pilot has
    p >= k + 3 runs, with a note of its loss factor (p - 2)/(p - k - 2) on
    the floor (Lavenberg & Welch 1981; Nelson 1990), else each Z_c on its
    own with its exact variance sigma_d^2 * sum_i B_ci^2.
    """
    q, basis, k = controls.dim, controls.rows, len(controls.rows)
    pilot = MomentAccumulator(1 + k, full_covariance=controls.daily)
    main = MomentAccumulator(2 + q, full_covariance=False)
    betas, notes, offset = None, [], 0.0

    def fix_betas():
        nonlocal betas, notes, offset
        if controls.daily and pilot_runs >= k + 3:
            betas, notes = optimal_betas(pilot)
            notes.append(
                f"least-squares pilot coefficients on the span of {'{1, i/n}' if k == 2 else '{1}'}: "
                f"k = {k} fitted jointly on p = {pilot_runs} pilot runs for the n = {q} daily ones; their "
                f"error raises var(W) by about the factor (p - 2)/(p - k - 2) = "
                f"{(pilot_runs - 2) / (pilot_runs - k - 2):.4g} over its floor"
            )
        else:
            betas, notes = optimal_betas(pilot, controls.exact_variances)
        if controls.daily:
            betas = np.einsum("ci,c->i", basis, betas)
        offset = controls.means @ betas

    def with_z(rows):
        # a fresh [Y | Z]; einsum, not BLAS, whose bits of a row depend on the rows in the product
        yz = np.empty((len(rows), 1 + k))
        yz[:, 0] = rows[:, 0]
        np.einsum("ij,cj->ic", rows[:, 1 : 1 + q], basis, out=yz[:, 1:])
        return yz

    def with_w(rows):
        y, c = rows[:, 0], rows[:, 1 : 1 + q]
        rows[:, 1 + q] = y + np.einsum("ij,j->i", c, betas) - offset
        return rows

    phases = [(pilot_runs, pilot, with_z if controls.daily else None), (runs, main, with_w)]
    _simulate(model, spec, seed, runs, batch_size, controls, phases, at_boundary=fix_betas)
    return betas, notes, main


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
    _simulate(model, spec, seed, runs, batch_size, None, [(runs, acc, None)])
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

    The accumulator's first variable is Y; the rest are the controls.
    With `variances`, each control is fitted on its own:
    beta_i = -cov(Y, C_i)/variances[i]. cv_estimate passes the exact model
    variances of the controls; acc.variances()[1:] gives the sample ones.
    Without, the controls are fitted jointly by least squares,
    beta = -S_CC^-1 cov(C, Y), from acc's full sample covariance S, with
    one solve over the usable controls: the coefficients that minimise the
    sample variance of W. A control whose variance (variances[i], or its
    sample variance) is below DEGENERATE_CONTROL_TOLERANCE times its
    second moment gets coefficient 0 and leaves the fit, with a warning
    and a note; if every control is degenerate, raises ValueError.
    """
    if variances is None:
        cov = acc.covariance()
        denominators = np.diag(cov)[1:]
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
    """Sample variance of W = Y + sum_i betas[i]*(C_i - const) on acc's sample."""
    betas = np.asarray(betas, dtype=float)
    cov = acc.covariance()
    return float(cov[0, 0] + betas @ cov[1:, 1:] @ betas + 2.0 * (betas @ cov[1:, 0]))


def _correlations(var_y: float, cross: np.ndarray, control_vars: np.ndarray) -> np.ndarray:
    """corr(Y, C_i) from the moments, 0 where a variance is 0. The scale is
    sqrt(var_y) * sqrt(var_c) where var_y * var_c is not a finite normal
    double, as for variances far apart in scale."""
    # var_y * var_c is monotone in var_c: where both extremes give a finite
    # normal product, every control does, and each scale is sqrt(var_y * var_c)
    extremes = (control_vars.min(), control_vars.max())
    if all(sys.float_info.min <= float(var_y) * float(v) < math.inf for v in extremes):
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
    the runs. With "in_sample" all runs serve both purposes (the textbook
    construction, small-sample biased).

    A form is rows B of day weights (ControlSpec), single_terminal_log
    being custom_linear with unit weights. Coefficients come from
    optimal_betas with the exact model variances of the controls as
    denominators, sigma_d^2 * sum_i B_ci^2 (sigma_d^2 for a day), except
    that multi_log_returns in pilot mode fits its n daily coefficients on
    the span of its rows {1, i/n} ({1} at n = 1), by least squares from
    the pilot's full sample covariance when the pilot has p >= k + 3 runs,
    with a note of k, p and the loss factor (p - 2)/(p - k - 2)
    (_pilot_pass). Degenerate controls are dropped with a note.
    check_arguments holds the rules on the arguments.
    A predicted variance ratio below -0.05, which sampling bias
    gives with few runs per control, is reported as it is, with a note
    and a UserWarning.
    """
    check_arguments(model, spec, control, runs, seed, pilot_fraction, batch_size)
    if control.form == FORM_NONE:
        return plain_estimate(model, spec, runs, seed, batch_size)
    controls = _Controls(model, spec, control)
    notes: list[str] = []

    if control.coefficient_source == SOURCE_PILOT:
        pilot_runs = math.ceil(pilot_fraction * runs)
        main_runs = runs - pilot_runs
        betas, beta_notes, acc = _pilot_pass(model, spec, seed, runs, pilot_runs, controls, batch_size)
        notes.extend(beta_notes)
        variances = acc.variances()
        var_y, control_vars, var_w = variances[0], variances[1:-1], variances[-1]
        cross = acc.cross()[1:-1]
        estimate = float(acc.mean[-1])
    else:
        pilot_runs = 0
        main_runs = runs
        acc = MomentAccumulator(1 + controls.dim)
        _simulate(model, spec, seed, runs, batch_size, controls, [(runs, acc, None)])
        # each daily control is fitted on its own: its row of day weights is its day's unit vector
        exact = np.full(controls.dim, model.daily_variance) if controls.daily else controls.exact_variances
        betas, beta_notes = optimal_betas(acc, exact)
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
