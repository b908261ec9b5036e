"""Summary statistics and the benchmark's derived figures of merit."""

from __future__ import annotations

import statistics

TARGET_STANDARD_ERROR = 0.001  # one tenth of a cent at spot 100


def median(values) -> float:
    return float(statistics.median(values))


def time_to_target_se_s(seconds: float, standard_error: float) -> float:
    """Projected seconds to reach TARGET_STANDARD_ERROR at the call's cost per path.

    The standard error falls as 1/sqrt(paths), so reaching the target takes
    (SE / target)^2 times as many paths as the call used, and as much time.
    """
    return seconds * (standard_error / TARGET_STANDARD_ERROR) ** 2


def pooled_time_to_target_se_s(calls) -> float | None:
    """time_to_target_se_s over several calls of one estimator, as ``(seconds, report)``.

    Pools them into one cost per path (all seconds over all main paths, so
    pilot time is charged) and one variance per path (the path-weighted
    mean of SE^2 * runs_used), then projects as for a single call of one
    path. For one call it equals time_to_target_se_s. Pooling keeps the
    large calls, whose SE is well estimated, in charge: small-R calls with
    31 controls estimate their SE poorly. None when there are no calls.
    """
    calls = list(calls)
    paths = sum(report.runs_used for _, report in calls)
    if not paths:
        return None
    seconds_per_path = sum(seconds for seconds, _ in calls) / paths
    variance_per_path = sum(report.standard_error**2 * report.runs_used**2 for _, report in calls) / paths
    return time_to_target_se_s(seconds_per_path, variance_per_path**0.5)


def efficiency_vs_plain(plain, plain_seconds: float, cv, cv_seconds: float) -> float:
    """Work-normalised efficiency of a control-variate call against plain MC.

    The two reports come from calls on paired seeds with the same run
    count. Each side's cost is its variance per path times its seconds per
    path, (var Y * s/path plain) / (var W * s/path cv), so a value above 1
    means the control variate wins per unit of work. The pilot paths are
    charged to the control-variate side: every run of the call, pilot or
    main, is one simulated path.
    """
    var_y = plain.standard_error**2 * plain.runs_used
    var_w = cv.standard_error**2 * cv.runs_used
    cv_cost = var_w * cv_seconds / (cv.runs_used + cv.pilot_runs_used)
    if not cv_cost > 0.0:
        raise ValueError(f"efficiency undefined for a control-variate cost of {cv_cost!r}")
    return var_y * plain_seconds / plain.runs_used / cv_cost


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, the run-to-run spread the benchmark is tuned against."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
