"""Risk-neutral GBM daily price paths built from i.i.d. normal log-returns.

Stream contract (version ``STREAM_CONTRACT_VERSION``): runs are grouped in
blocks of ``STREAM_BLOCK_ROWS``. Block b is one SFC64 stream seeded by
``SeedSequence(seed, spawn_key=(b,))``, numpy's b-th child of
``SeedSequence(seed)``, read row-major: run j takes the n standard normals
of row j mod STREAM_BLOCK_ROWS of block j // STREAM_BLOCK_ROWS. A run's
draws therefore depend only on (seed, j, n), never on how runs are
split into batches or in which order the blocks are visited, and a
block's rows are drawn in bulk instead of resetting a generator per run.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

_U64 = 2**64

STREAM_CONTRACT_VERSION = 3
# Runs per SFC64 stream. Part of the stream contract: changing it changes
# every draw, so it does not follow any batch size.
STREAM_BLOCK_ROWS = 4096
# Rows skipped to reach a run inside a block are drawn and discarded in
# pieces of at most this many normals, to bound the memory it takes.
_SKIP_NORMALS = 2**20
# The largest volatility whose square is finite (about 1.34e154).
_MAX_VOLATILITY = math.sqrt(sys.float_info.max)
# Batches of at least this many paths take their prefix sums day by day
# (prices_from_log_returns): below it np.cumsum's loop along each path is
# faster. The crossover lay near 1000 paths for n from 5 to 252 days into
# row-major prices. The estimators' two-lane calls keep it: the day loop
# makes n - 1 np.add calls per piece, each of which releases and retakes
# the GIL, and on two lanes those round trips wait for the other lane.
_DAY_LOOP_ROWS = 1024
# The same for a piece of an estimator call on one lane, where no other
# lane waits for the GIL (_prices): whole one-lane calls read the day loop
# faster from about 250 to 400 paths at n = 5 and 30, and within noise of
# np.cumsum at n = 252 from 400 to 2000 runs.
_ONE_LANE_DAY_LOOP_ROWS = 320


@dataclass(frozen=True)
class MarketModel:
    """Risk-neutral GBM parameters.

    Daily log-returns are i.i.d. normal with mean (rate - volatility^2/2)
    per year divided by the number of trading days, and variance
    volatility^2 per year divided by the number of trading days.

    Attributes:
        initial_price: Spot price at day 0 (> 0).
        rate: Annualized risk-free rate, decimal (e.g. 0.05).
        volatility: Annualized volatility, decimal (>= 0; 0 gives the
            deterministic drift-only model; at most about 1.34e154, so
            that its square is finite).
        trading_days_per_year: Day-count convention, default 252.
    """

    initial_price: float
    rate: float
    volatility: float
    trading_days_per_year: int = 252

    def __post_init__(self):
        for name in ("initial_price", "rate", "volatility"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.initial_price <= 0:
            raise ValueError(f"initial_price must be > 0, got {self.initial_price}")
        if self.volatility < 0:
            raise ValueError(f"volatility must be >= 0, got {self.volatility}")
        if self.volatility > _MAX_VOLATILITY:
            raise ValueError(
                f"volatility must be <= {_MAX_VOLATILITY:.6g} (its square overflows floating point), "
                f"got {self.volatility}"
            )
        object.__setattr__(
            self, "trading_days_per_year", positive_integer("trading_days_per_year", self.trading_days_per_year)
        )

    @property
    def drift(self) -> float:
        """Annualized risk-neutral drift of the log-price, rate - volatility^2/2."""
        return self.rate - 0.5 * self.volatility**2

    @property
    def daily_mean(self) -> float:
        """Exact mean of one daily log-return."""
        return self.drift / self.trading_days_per_year

    @property
    def daily_variance(self) -> float:
        """Exact variance of one daily log-return."""
        return self.volatility**2 / self.trading_days_per_year

    @property
    def daily_std(self) -> float:
        return self.volatility / math.sqrt(self.trading_days_per_year)


class ArgumentError(ValueError):
    """A refused argument of a call; ``argument`` is its name."""

    def __init__(self, argument: str, message: str):
        super().__init__(message)
        self.argument = argument

    def __reduce__(self):  # pickled as its arguments, so that it can cross processes
        return ArgumentError, (self.argument, str(self))


def positive_integer(name: str, value) -> int:
    """value as an int; ValueError unless it is a Python or numpy integer >= 1, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def check_seed(seed: int) -> None:
    """Raise ArgumentError unless seed is a 64-bit unsigned integer.

    Python and numpy integers qualify; bool and float do not, since True
    and 1.7 would otherwise draw the stream of seed 1.
    """
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or not 0 <= seed < _U64:
        raise ArgumentError("seed", f"seed must be a 64-bit unsigned integer, got {seed!r}")


def prices_from_log_returns(
    model: MarketModel, log_returns: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Closing prices S(0)*exp(X(1)+...+X(i)) along the last axis.

    Works on a single path (n,) or a batch of paths (runs, n); day i's
    price depends only on the first i log-returns. The prices go into
    ``out``, a float array of that shape in any layout, log_returns itself
    included, or else into a fresh C-ordered array.

    The log-price of day i is ((X(1) + X(2)) + ...) + X(i), summed in that
    order on every path: by np.cumsum, or, for a batch of at least
    _DAY_LOOP_ROWS paths, day by day across the batch, which is faster
    there and gives the same bits.
    """
    return _prices(model, log_returns, out)


def _prices(
    model: MarketModel, log_returns: np.ndarray, out: np.ndarray | None = None, one_lane: bool = False
) -> np.ndarray:
    """prices_from_log_returns; for a piece of an estimator call on one lane,
    a batch of at least _ONE_LANE_DAY_LOOP_ROWS paths goes day by day."""
    x = np.asarray(log_returns, dtype=float)
    if x.ndim == 2 and len(x) >= (_ONE_LANE_DAY_LOOP_ROWS if one_lane else _DAY_LOOP_ROWS):
        prices = np.empty(x.shape) if out is None else out
        prices[:, :1] = x[:, :1]
        for day in range(1, x.shape[1]):
            np.add(prices[:, day - 1], x[:, day], out=prices[:, day])
    else:
        prices = np.cumsum(x, axis=-1, out=out)
    np.exp(prices, out=prices)
    prices *= model.initial_price
    return prices


class LogReturnSampler:
    """Log-returns of consecutive runs under the stream contract.

    The one way to draw them: run j alone is ``rows(j, j + 1)[0]``. Keeps
    the current block's generator and the next row it will produce, so
    ascending calls draw every normal once. ``numpy``'s ziggurat uses a
    variable number of random words per normal, so a row is reached only
    by drawing the rows before it; going back starts the block again.
    """

    def __init__(self, model: MarketModel, n: int, seed: int):
        self.n = positive_integer("n", n)
        check_seed(seed)
        self.model = model
        self.seed = seed
        self._gen = None
        self._block = -1
        self._row = 0  # next row of self._block that self._gen produces

    def _seek(self, block: int, row: int) -> None:
        if block != self._block or row < self._row:
            # Not SeedSequence([seed, block]): a seed takes one or two 32-bit
            # words and trailing zero words change nothing, so seed 2**32 + 7
            # at block 0 would be seed 7 at block 1. A spawn key follows the
            # seed padded to the full entropy pool.
            seq = np.random.SeedSequence(self.seed, spawn_key=(block,))
            bits = np.random.SFC64(seq)
            self._gen = np.random.Generator(bits)
            self._block, self._row = block, 0
        while self._row < row:
            skip = min(row - self._row, max(1, _SKIP_NORMALS // self.n))
            self._gen.standard_normal(skip * self.n)
            self._row += skip

    def rows(self, lo: int, hi: int, out: np.ndarray | None = None) -> np.ndarray:
        """Log-returns for runs lo..hi-1 as an (hi-lo, n) matrix.

        ``out``, if given, is a C-contiguous float array of that shape
        that receives them.
        """
        if not 0 <= lo <= hi <= _U64:
            raise ValueError(f"need 0 <= lo <= hi <= 2^64, got lo={lo}, hi={hi}")
        if out is None:
            out = np.empty((hi - lo, self.n))
        elif out.shape != (hi - lo, self.n):
            raise ValueError(f"out has shape {out.shape}, expected {(hi - lo, self.n)}")
        run = lo
        while run < hi:
            block, row = divmod(run, STREAM_BLOCK_ROWS)
            take = min(hi - run, STREAM_BLOCK_ROWS - row)
            self._seek(block, row)
            self._gen.standard_normal(out=out[run - lo : run - lo + take])
            self._row += take
            run += take
        out *= self.model.daily_std
        out += self.model.daily_mean
        return out
