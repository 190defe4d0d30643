"""Statistical measurement protocol of the paper.

Every data point the paper reports follows the same protocol
(Sections I and V): "the application is run repeatedly until the sample
mean lies in the 95% confidence interval and a precision of 0.025
(2.5%) is achieved.  For this purpose, Student's t-test is used
assuming that the individual observations are independent and their
population follows the normal distribution.  The validity of these
assumptions is verified using Pearson's chi-squared test."

This module implements that protocol over arbitrary measurement
callables:

* :func:`confidence_halfwidth` — Student-t 95% CI half-width of a
  sample mean;
* :func:`run_until_confident` — repeat a measurement until the CI
  half-width is within the target relative precision;
* :func:`pearson_normality_check` — Pearson χ² goodness-of-fit test of
  the observations against a fitted normal distribution.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MeasurementResult",
    "NormalityCheck",
    "confidence_halfwidth",
    "run_until_confident",
    "required_runs_estimate",
    "pearson_normality_check",
]


@dataclass(frozen=True)
class MeasurementResult:
    """Outcome of the repeat-until-confident protocol.

    Attributes
    ----------
    mean:
        Sample mean of the observations — the reported data point.
    halfwidth:
        Final Student-t CI half-width (same units as the mean).
    relative_precision:
        ``halfwidth / mean`` — must be ≤ the target for ``converged``.
    n_runs:
        Number of repetitions performed.
    converged:
        Whether the precision target was met within ``max_runs``.
    observations:
        The raw observations, for downstream normality checking.
    """

    mean: float
    halfwidth: float
    relative_precision: float
    n_runs: int
    converged: bool
    observations: tuple[float, ...]


@dataclass(frozen=True)
class NormalityCheck:
    """Result of the Pearson χ² goodness-of-fit normality test."""

    statistic: float
    p_value: float
    dof: int
    #: True when normality is *not* rejected at the chosen significance.
    consistent_with_normal: bool


def confidence_halfwidth(
    observations: np.ndarray, confidence: float = 0.95
) -> float:
    """Student-t CI half-width of the sample mean.

    Returns ``t_{1-α/2, n-1} · s / √n``.  Zero-variance samples give a
    zero half-width (the protocol then converges immediately, matching
    a noiseless measurement channel).
    """
    obs = np.asarray(observations, dtype=float)
    n = len(obs)
    if n < 2:
        raise ValueError("need at least 2 observations for a CI")
    if not (0.0 < confidence < 1.0):
        raise ValueError("confidence must be in (0, 1)")
    s = float(obs.std(ddof=1))
    if s == 0.0:
        return 0.0
    from scipy import stats as sps

    t_crit = float(sps.t.ppf(0.5 + confidence / 2.0, df=n - 1))
    return t_crit * s / math.sqrt(n)


def run_until_confident(
    measure: Callable[[], float],
    *,
    precision: float = 0.025,
    confidence: float = 0.95,
    min_runs: int = 5,
    max_runs: int = 500,
) -> MeasurementResult:
    """Repeat ``measure()`` until the CI half-width is within precision.

    This is the paper's protocol with its default parameters: 95%
    confidence and 2.5% relative precision.  ``min_runs`` avoids
    spuriously early convergence on tiny samples; ``max_runs`` bounds
    the loop for noisy channels (the result then reports
    ``converged=False`` rather than looping forever).

    Raises
    ------
    ValueError
        If parameters are out of range or a measurement returns a
        non-finite or non-positive value (power/energy/time measurements
        are strictly positive quantities in this protocol).
    """
    if not (0.0 < precision < 1.0):
        raise ValueError("precision must be a fraction in (0, 1)")
    if min_runs < 2:
        raise ValueError("min_runs must be at least 2")
    if max_runs < min_runs:
        raise ValueError("max_runs must be >= min_runs")

    observations: list[float] = []
    while len(observations) < max_runs:
        value = float(measure())
        if not math.isfinite(value) or value <= 0:
            raise ValueError(f"measurement returned invalid value {value!r}")
        observations.append(value)
        if len(observations) < min_runs:
            continue
        obs = np.asarray(observations)
        hw = confidence_halfwidth(obs, confidence)
        mean = float(obs.mean())
        if hw <= precision * mean:
            return MeasurementResult(
                mean=mean,
                halfwidth=hw,
                relative_precision=hw / mean,
                n_runs=len(observations),
                converged=True,
                observations=tuple(observations),
            )
    obs = np.asarray(observations)
    hw = confidence_halfwidth(obs, confidence)
    mean = float(obs.mean())
    return MeasurementResult(
        mean=mean,
        halfwidth=hw,
        relative_precision=hw / mean if mean > 0 else math.inf,
        n_runs=len(observations),
        converged=False,
        observations=tuple(observations),
    )


def required_runs_estimate(
    pilot: np.ndarray,
    *,
    precision: float = 0.025,
    confidence: float = 0.95,
    max_runs: int = 100000,
) -> int:
    """Predict the repetitions the protocol will need from a pilot sample.

    Solves ``t_{n-1} · cv / sqrt(n) <= precision`` by iteration — the
    planning step a measurement campaign runs before committing to a
    full sweep ("can we afford the exhaustive front at this noise
    level?").  Returns at least the pilot's own size lower bound of 2.

    Raises
    ------
    ValueError
        If even ``max_runs`` repetitions cannot reach the precision.
    """
    obs = np.asarray(pilot, dtype=float)
    if len(obs) < 3:
        raise ValueError("need a pilot of at least 3 observations")
    if not (0.0 < precision < 1.0):
        raise ValueError("precision must be a fraction in (0, 1)")
    mean = float(obs.mean())
    if mean <= 0:
        raise ValueError("pilot mean must be positive")
    cv = float(obs.std(ddof=1)) / mean
    if cv == 0.0:
        return 2
    from scipy import stats as sps

    n = 2
    while n <= max_runs:
        t_crit = float(sps.t.ppf(0.5 + confidence / 2.0, df=n - 1))
        if t_crit * cv / math.sqrt(n) <= precision:
            return n
        # Jump by the closed-form z-approximation to avoid a slow walk.
        n = max(n + 1, int(math.ceil((t_crit * cv / precision) ** 2 * 0.5)))
    raise ValueError(
        f"pilot CV {cv:.3f} needs more than {max_runs} runs for "
        f"{precision:.1%} precision"
    )


def pearson_normality_check(
    observations: np.ndarray,
    *,
    significance: float = 0.05,
    n_bins: int | None = None,
) -> NormalityCheck:
    """Pearson χ² goodness-of-fit test against a fitted normal.

    Bins the observations into equiprobable bins under the fitted
    N(mean, std) distribution and compares observed vs. expected counts.
    Two distribution parameters are estimated from the data, so the χ²
    degrees of freedom are ``n_bins − 1 − 2``.  Requires enough
    observations for ≥ 5 expected counts per bin (the classic rule);
    ``n_bins`` defaults to ``max(4, n // 5)`` capped at 10.

    A sample is *consistent with normal* when the p-value exceeds the
    significance level — i.e. the protocol's normality assumption is
    not rejected.
    """
    obs = np.asarray(observations, dtype=float)
    n = len(obs)
    if n < 20:
        raise ValueError("need at least 20 observations for the χ² test")
    mu = float(obs.mean())
    sigma = float(obs.std(ddof=1))
    if sigma == 0:
        raise ValueError("zero-variance sample; χ² test is undefined")
    if n_bins is None:
        n_bins = min(10, max(4, n // 5))
    if n_bins < 4:
        raise ValueError("need at least 4 bins")
    from scipy import stats as sps

    # Equiprobable bin edges under the fitted normal.
    quantiles = np.linspace(0.0, 1.0, n_bins + 1)[1:-1]
    edges = sps.norm.ppf(quantiles, loc=mu, scale=sigma)
    counts, _ = np.histogram(obs, bins=np.concatenate(([-np.inf], edges, [np.inf])))
    expected = np.full(n_bins, n / n_bins)
    dof = n_bins - 1 - 2
    if dof < 1:
        raise ValueError("too few bins after parameter estimation")
    stat = float(np.sum((counts - expected) ** 2 / expected))
    p = float(sps.chi2.sf(stat, df=dof))
    return NormalityCheck(
        statistic=stat,
        p_value=p,
        dof=dof,
        consistent_with_normal=p > significance,
    )
