"""Exact moment computations on finite discrete joint distributions.

Everything here is weighted enumeration, no sampling, so identities that
hold in exact arithmetic (optimal-coefficient formulas, the correlation
inequality corr^2(Y, sum_i a_i X_i) <= sum_i corr^2(Y, X_i) for
independent X_i) can be checked to near machine precision. The checker
takes independence as a property of how the distribution was built; on
dependent variables the inequality can genuinely fail and the checker
reports that honestly.

`FiniteJointDistribution`, `exact_moments`, `correlation_inequality_check`
and `brute_force_cv_variance` work on one law at a time and are the
reference. `run_inequality_trials` draws its random trials in stacks of at
most 512 and enumerates each stack at once: every X_i is padded to 4 atoms
of probability 0, so a stack of three-variable trials is one
(trials, 4 variables, 64 atoms) array and a few einsums give every
trial's moments and both sides of the inequality. `random_independent_trial`
is the one-trial view of the same generator, on the trial's live atoms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import ArgumentError, check_seed

PROBABILITY_TOLERANCE = 1e-12
EXACT_TOLERANCE = 1e-12


@dataclass(frozen=True)
class FiniteJointDistribution:
    """A finite joint law: named variables, atom outcomes, atom probabilities."""

    names: tuple[str, ...]
    outcomes: np.ndarray  # (atoms, variables)
    probabilities: np.ndarray  # (atoms,)

    @classmethod
    def from_atoms(cls, names, outcomes, probabilities) -> "FiniteJointDistribution":
        names = tuple(names)
        outcomes = np.atleast_2d(np.asarray(outcomes, dtype=float))
        probabilities = np.asarray(probabilities, dtype=float)
        if outcomes.shape[0] < 1:
            raise ValueError("a distribution needs at least one atom")
        if outcomes.shape != (probabilities.size, len(names)):
            raise ValueError(
                f"shape mismatch: {outcomes.shape[0]} atoms x {outcomes.shape[1]} variables "
                f"vs {probabilities.size} probabilities and {len(names)} names"
            )
        if not np.all(np.isfinite(outcomes)):
            raise ValueError("outcomes must be finite")
        if np.any(probabilities < 0):
            raise ValueError("probabilities must be nonnegative")
        total = probabilities.sum()
        if abs(total - 1.0) > PROBABILITY_TOLERANCE:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        return cls(names=names, outcomes=outcomes, probabilities=probabilities)

    @classmethod
    def independent(cls, marginals, names=None) -> "FiniteJointDistribution":
        """Product law of independent marginals, each given as (values, probs)."""
        marginals = [
            (np.asarray(v, dtype=float), np.asarray(p, dtype=float)) for v, p in marginals
        ]
        if names is None:
            names = tuple(f"X{i + 1}" for i in range(len(marginals)))
        # atoms in row-major order (last variable fastest), each probability
        # the left-to-right product of its marginal probabilities
        values, probs = zip(*marginals)
        grids = np.meshgrid(*values, indexing="ij")
        atoms = np.column_stack([grid.ravel() for grid in grids])
        return cls.from_atoms(names, atoms, functools.reduce(np.multiply.outer, probs).ravel())

    @property
    def n_variables(self) -> int:
        return len(self.names)

    def with_target(self, fn, name: str = "Y") -> "FiniteJointDistribution":
        """Prepend a variable defined atom-by-atom as a function of the others."""
        values = np.array([float(fn(row)) for row in self.outcomes])
        return FiniteJointDistribution.from_atoms(
            (name, *self.names),
            np.column_stack([values, self.outcomes]),
            self.probabilities,
        )


@dataclass(frozen=True)
class ExactMoments:
    """Exact mean vector and (population) covariance matrix of a finite law."""

    names: tuple[str, ...]
    mean: np.ndarray
    covariance: np.ndarray

    def variance(self, i: int) -> float:
        return float(self.covariance[i, i])

    def correlation(self, i: int, j: int) -> float:
        denom = math.sqrt(self.covariance[i, i] * self.covariance[j, j])
        if denom == 0.0:
            raise ValueError(f"correlation undefined: variable {i} or {j} has zero variance")
        return float(self.covariance[i, j] / denom)


def exact_moments(dist: FiniteJointDistribution) -> ExactMoments:
    """Means, variances, and covariances by probability-weighted enumeration."""
    p = dist.probabilities
    mean = p @ dist.outcomes
    centered = dist.outcomes - mean
    cov = (centered * p[:, None]).T @ centered
    return ExactMoments(names=dist.names, mean=mean, covariance=cov)


@dataclass(frozen=True)
class InequalityCheck:
    lhs: float  # corr^2(Y, sum_i alpha_i X_i)
    rhs: float  # sum_i corr^2(Y, X_i)
    holds: bool


def correlation_inequality_check(dist: FiniteJointDistribution, alpha) -> InequalityCheck:
    """Exact check of corr^2(Y, sum_i alpha_i X_i) <= sum_i corr^2(Y, X_i).

    The first variable of `dist` is Y; the rest are X_1..X_n, which the
    caller asserts were built mutually independent (e.g. via
    ``FiniteJointDistribution.independent(...).with_target(...)``). On
    dependent X_i the inequality has no reason to hold and `holds` simply
    reports what the numbers say.
    """
    alpha = np.asarray(alpha, dtype=float)
    n = dist.n_variables - 1
    if n < 1:
        raise ValueError("need at least one X variable besides Y")
    if alpha.shape != (n,):
        raise ValueError(f"expected {n} weights, got shape {alpha.shape}")
    m = exact_moments(dist)
    var_y = m.variance(0)
    if var_y == 0.0:
        raise ValueError("Y has zero variance; correlations undefined")
    cov_xx = m.covariance[1:, 1:]
    cov_yx = m.covariance[0, 1:]
    combo_var = float(alpha @ cov_xx @ alpha)
    if combo_var <= 0.0:
        raise ValueError("the weighted combination has zero variance")
    lhs = float((alpha @ cov_yx) ** 2 / (var_y * combo_var))
    x_vars = np.diag(cov_xx)
    if np.any(x_vars == 0.0):
        raise ValueError("an X variable has zero variance; correlations undefined")
    rhs = float(np.sum(cov_yx**2 / (var_y * x_vars)))
    return InequalityCheck(lhs=lhs, rhs=rhs, holds=bool(lhs <= rhs + EXACT_TOLERANCE))


def brute_force_cv_variance(dist: FiniteJointDistribution, c: float) -> float:
    """Exact var(W) for W = Y + c*(V - E[V]) by enumeration over atoms.

    The first variable of `dist` is Y, the second is V. Matches the
    expansion var(Y) + c^2 var(V) + 2c cov(Y,V) to rounding.
    """
    if dist.n_variables < 2:
        raise ValueError("need variables (Y, V)")
    y = dist.outcomes[:, 0]
    v = dist.outcomes[:, 1]
    p = dist.probabilities
    w = y + c * (v - p @ v)
    return float(p @ (w - p @ w) ** 2)


def random_joint_law(
    rng: np.random.Generator, n_variables: int = 2, max_atoms: int = 16
) -> FiniteJointDistribution:
    """A random finite joint law (arbitrary dependence between variables)."""
    atoms = int(rng.integers(2, max_atoms + 1))
    outcomes = rng.uniform(-1.0, 1.0, size=(atoms, n_variables))
    probs = rng.dirichlet(np.ones(atoms))
    names = tuple(["Y", "V", *(f"Z{i}" for i in range(n_variables - 2))][:n_variables])
    return FiniteJointDistribution.from_atoms(names, outcomes, probs)


# Marginals are padded to this many atoms (probability 0 past their count),
# so a stack of trials shares one (trials, _MAX_ATOMS**n) atom grid.
_MAX_ATOMS = 4
# Trials drawn per stack: bounds a stack's memory to a few MB at any trial count.
_STACK_TRIALS = 512
# A trial whose var(Y) or var(sum_i alpha_i X_i) is at most this is dropped.
_DEGENERATE_VARIANCE = 1e-12


class _TrialStack(NamedTuple):
    """Randomized inequality trials, one per leading index."""

    counts: np.ndarray  # (trials, n) live atoms of each X_i, in {2, 3, 4}
    values: np.ndarray  # (trials, n, 4) atom values of each X_i
    probs: np.ndarray  # (trials, n, 4) atom probabilities, 0 past the count
    tables: np.ndarray  # (trials, 4**n) Y on the padded joint atoms, row-major
    alpha: np.ndarray  # (trials, n) weights

    def law(self, k: int) -> FiniteJointDistribution:
        """Trial k as a joint law (Y, X_1..X_n) on its live atoms only."""
        counts = self.counts[k]
        base = FiniteJointDistribution.independent(
            [(self.values[k, i, :c], self.probs[k, i, :c]) for i, c in enumerate(counts)]
        )
        grid = self.tables[k].reshape((_MAX_ATOMS,) * counts.size)
        y = grid[tuple(slice(c) for c in counts)].ravel()
        return FiniteJointDistribution.from_atoms(
            ("Y", *base.names), np.column_stack([y, base.outcomes]), base.probabilities
        )


def _draw_stack(rng: np.random.Generator, size: int, n_variables: int) -> _TrialStack:
    """`size` trials, one generator call per quantity.

    Each X_i gets 2-4 atoms with values in [-1, 1] and flat-simplex
    probabilities (normalised standard exponentials); Y is an arbitrary
    function of (X_1..X_n) drawn as a random table over the joint atoms;
    weights are uniform in [-2, 2].
    """
    counts = rng.integers(2, _MAX_ATOMS + 1, size=(size, n_variables))
    values = rng.uniform(-1.0, 1.0, size=(size, n_variables, _MAX_ATOMS))
    weights = rng.standard_exponential(size=(size, n_variables, _MAX_ATOMS))
    weights *= np.arange(_MAX_ATOMS) < counts[..., None]
    probs = weights / weights.sum(axis=-1, keepdims=True)
    tables = rng.uniform(-1.0, 1.0, size=(size, _MAX_ATOMS**n_variables))
    alpha = rng.uniform(-2.0, 2.0, size=(size, n_variables))
    return _TrialStack(counts, values, probs, tables, alpha)


def _stack_checks(stack: _TrialStack) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both sides of the inequality for every trial, and which trials count.

    Exact enumeration over the padded atoms, as `correlation_inequality_check`
    does over one law's atoms; padding atoms have probability 0 and add
    nothing. Returns (lhs, rhs, sound), sound False on degenerate trials.
    """
    size, n = stack.alpha.shape
    # joint probabilities, last variable fastest, each the left-to-right
    # product of its marginal probabilities (as FiniteJointDistribution.independent)
    p = stack.probs[:, 0]
    for i in range(1, n):
        p = (p[:, :, None] * stack.probs[:, i, None, :]).reshape(size, -1)
    atoms = np.indices((_MAX_ATOMS,) * n).reshape(n, -1)
    # (trials, variables, atoms): Y first, then X_1..X_n; atoms innermost
    outcomes = np.empty((size, n + 1, p.shape[1]))
    outcomes[:, 0] = stack.tables
    outcomes[:, 1:] = stack.values[:, np.arange(n)[:, None], atoms]
    if not np.all(np.isfinite(outcomes)):
        raise ValueError("outcomes must be finite")
    if np.any(p < 0):
        raise ValueError("probabilities must be nonnegative")
    if np.any(np.abs(p.sum(axis=1) - 1.0) > PROBABILITY_TOLERANCE):
        raise ValueError("a trial's probabilities do not sum to 1")

    mean = np.einsum("ta,tva->tv", p, outcomes)
    centered = outcomes - mean[:, :, None]
    cov = np.einsum("tva,twa->tvw", centered * p[:, None, :], centered)
    var_y = cov[:, 0, 0]
    cov_yx = cov[:, 0, 1:]
    combo_var = np.einsum("ti,tij,tj->t", stack.alpha, cov[:, 1:, 1:], stack.alpha)
    sound = (var_y > _DEGENERATE_VARIANCE) & (combo_var > _DEGENERATE_VARIANCE)
    x_vars = np.einsum("tii->ti", cov[:, 1:, 1:])
    if np.any(x_vars[sound] == 0.0):
        raise ValueError("an X variable has zero variance; correlations undefined")
    with np.errstate(divide="ignore", invalid="ignore"):  # degenerate trials only
        lhs = np.einsum("ti,ti->t", stack.alpha, cov_yx) ** 2 / (var_y * combo_var)
        rhs = np.sum(cov_yx**2 / (var_y[:, None] * x_vars), axis=1)
    return lhs, rhs, sound


def _trial_stacks(rng: np.random.Generator, trials: int, n_variables: int = 3):
    """Yield (stack, lhs, rhs) of `trials` sound trials in all, in draw order.

    Stacks hold at most _STACK_TRIALS trials; the degenerate trials of one
    stack are dropped and made up by the next, drawn just large enough.
    """
    remaining = trials
    while remaining:
        stack = _draw_stack(rng, min(remaining, _STACK_TRIALS), n_variables)
        lhs, rhs, sound = _stack_checks(stack)
        kept = int(np.count_nonzero(sound))
        if kept:
            remaining -= kept
            yield _TrialStack(*(field[sound] for field in stack)), lhs[sound], rhs[sound]


def random_independent_trial(
    rng: np.random.Generator, n_variables: int = 3
) -> tuple[FiniteJointDistribution, np.ndarray]:
    """One randomized inequality trial: independent X's, table-defined Y, weights.

    The first trial of a one-trial stack (see `_draw_stack`), as a law on
    its live atoms; degenerate draws (zero-variance Y or combination) are
    redrawn.
    """
    stack, _, _ = next(_trial_stacks(rng, 1, n_variables))
    return stack.law(0), stack.alpha[0]


@dataclass(frozen=True)
class InequalityTrialSummary:
    trials: int
    passes: int
    max_violation: float  # max over trials of lhs - rhs

    @property
    def all_hold(self) -> bool:
        return self.passes == self.trials


def run_inequality_trials(trials: int, seed: int) -> InequalityTrialSummary:
    """Randomized exact trials of the correlation inequality (3 independent X's).

    Trials are drawn and checked in stacks (`_trial_stacks`); `seed` follows
    the rule of `cvmc.model.check_seed`. A refused `trials` or `seed` raises
    ArgumentError, which names it.
    """
    if isinstance(trials, bool) or not isinstance(trials, (int, np.integer)) or trials < 1:
        raise ArgumentError("trials", f"trials must be an integer >= 1, got {trials!r}")
    check_seed(seed)
    trials = int(trials)
    passes = 0
    max_violation = -math.inf
    for _, lhs, rhs in _trial_stacks(np.random.default_rng(seed), trials):
        passes += int(np.count_nonzero(lhs <= rhs + EXACT_TOLERANCE))
        max_violation = max(max_violation, float(np.max(lhs - rhs)))
    return InequalityTrialSummary(trials=trials, passes=passes, max_violation=max_violation)
