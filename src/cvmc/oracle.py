"""Exact moment computations on finite discrete joint distributions.

Everything here is weighted enumeration, no sampling, so identities that
hold in exact arithmetic (optimal-coefficient formulas, the correlation
inequality corr^2(Y, sum_i a_i X_i) <= sum_i corr^2(Y, X_i) for
independent X_i) can be checked to near machine precision. The checker
takes independence as a property of how the distribution was built; on
dependent variables the inequality can genuinely fail and the checker
reports that honestly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

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


def random_independent_trial(
    rng: np.random.Generator, n_variables: int = 3
) -> tuple[FiniteJointDistribution, np.ndarray]:
    """One randomized inequality trial: independent X's, table-defined Y, weights.

    Each X_i gets 2-4 atoms with values in [-1, 1] and flat-simplex
    probabilities; Y is an arbitrary function of (X_1..X_n) drawn as a
    random table over the joint atoms; weights are uniform in [-2, 2].
    Degenerate draws (zero-variance Y or combination) are redrawn.
    """
    while True:
        marginals = []
        for _ in range(n_variables):
            k = int(rng.integers(2, 5))
            marginals.append((rng.uniform(-1.0, 1.0, size=k), rng.dirichlet(np.ones(k))))
        base = FiniteJointDistribution.independent(marginals)
        table = rng.uniform(-1.0, 1.0, size=base.outcomes.shape[0])
        dist = FiniteJointDistribution.from_atoms(
            ("Y", *base.names), np.column_stack([table, base.outcomes]), base.probabilities
        )
        alpha = rng.uniform(-2.0, 2.0, size=n_variables)
        m = exact_moments(dist)
        combo_var = float(alpha @ m.covariance[1:, 1:] @ alpha)
        if m.variance(0) > 1e-12 and combo_var > 1e-12:
            return dist, alpha


@dataclass(frozen=True)
class InequalityTrialSummary:
    trials: int
    passes: int
    max_violation: float  # max over trials of lhs - rhs

    @property
    def all_hold(self) -> bool:
        return self.passes == self.trials


def run_inequality_trials(trials: int, seed: int) -> InequalityTrialSummary:
    """Randomized exact trials of the correlation inequality (3 independent X's)."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    passes = 0
    max_violation = -math.inf
    for _ in range(trials):
        dist, alpha = random_independent_trial(rng)
        check = correlation_inequality_check(dist, alpha)
        passes += check.holds
        max_violation = max(max_violation, check.lhs - check.rhs)
    return InequalityTrialSummary(trials=trials, passes=passes, max_violation=max_violation)
