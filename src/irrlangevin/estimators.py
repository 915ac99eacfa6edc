"""Ergodic-average estimation with batch means and asymptotic variance.

The estimator pipeline mirrors steady-state simulation practice: discard a
burn-in prefix, form the time average, split the remaining window into m
contiguous batches, and build a Student-t confidence interval from the
dispersion of the batch means.  The same batches give the one estimate of
the asymptotic variance sigma^2: the batch variance s2m scaled by the
batch length block * dt.  All routines operate on the sampled series
f(Z_0), f(Z_dt), ... and treat each stored sample as the left endpoint of
one dt interval (left Riemann sums), dropping the final state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ParameterError

Array = np.ndarray


@dataclass(frozen=True)
class ObservableSpec:
    """Named observable, vectorized over states of shape (..., d)."""

    name: str
    fn: Callable[[Array], Array]


OBSERVABLES: dict[str, ObservableSpec] = {
    spec.name: spec
    for spec in (
        ObservableSpec("sumsq", lambda z: np.sum(z**2, axis=-1)),
        ObservableSpec("cos", lambda z: np.cos(z[..., 0])),
        ObservableSpec("x", lambda z: z[..., 0]),
    )
}


def get_observable(name: str) -> ObservableSpec:
    try:
        return OBSERVABLES[name]
    except KeyError:
        raise ParameterError(
            f"unknown observable {name!r}; available: {sorted(OBSERVABLES)}"
        ) from None


def batch_count_schedule(t: float) -> int:
    """Batch count ramp used by default: 10 batches at short horizons,
    growing to 20 as t reaches ~700 time units."""
    return int(np.clip(round(10.0 * (1.0 + t / 700.0)), 10, 20))


def _window(values: Array, dt: float, burn_in: float) -> Array:
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ParameterError("expected a one-dimensional series of f(Z_t)")
    if dt <= 0:
        raise ParameterError("dt must be positive")
    horizon = (len(values) - 1) * dt
    if burn_in < 0 or burn_in >= horizon:
        raise ParameterError(
            f"burn-in {burn_in} must lie in [0, horizon={horizon:g})"
        )
    start = int(round(burn_in / dt))
    return values[start : len(values) - 1]


@dataclass(frozen=True)
class BatchMeansReport:
    """Batch-means point estimate with its Student-t confidence interval."""

    estimate: float
    batch_means: np.ndarray
    s2m: float
    ci_lower: float
    ci_upper: float


def _batches(w: Array, m: int) -> Array:
    """The means of m contiguous batches of len(w) // m samples of the window
    w, a trailing remainder that does not fill a batch truncated."""
    block = len(w) // m
    if block < 1:
        raise ParameterError(
            f"series too short: {len(w)} post-burn-in samples for m={m} batches"
        )
    return w[: m * block].reshape(m, block).mean(axis=1)


def batch_means(values, m: int, alpha: float, dt: float,
                burn_in: float = 0.0) -> BatchMeansReport:
    """Split the post-burn-in window into m contiguous batches.

    A trailing remainder that does not fill a batch is truncated.  The
    confidence interval is estimate -+ t_{alpha/2, m-1} s_m / sqrt(m).
    """
    if m < 2:
        raise ParameterError("batch means needs m >= 2")
    if not 0.0 < alpha < 1.0:
        raise ParameterError("alpha must lie in (0, 1)")
    means = _batches(_window(values, dt, burn_in), m)
    estimate = float(means.mean())
    s2m = float(means.var(ddof=1))
    half = t_quantile(alpha / 2.0, m - 1) * math.sqrt(s2m / m)
    return BatchMeansReport(
        estimate=estimate,
        batch_means=means,
        s2m=s2m,
        ci_lower=estimate - half,
        ci_upper=estimate + half,
    )


def t_quantile(alpha_half: float, dof: int) -> float:
    """Upper quantile t_{alpha/2, dof}: P(T > q) = alpha_half."""
    if not 0.0 < alpha_half < 1.0:
        raise ParameterError("alpha_half must lie in (0, 1)")
    if dof < 1:
        raise ParameterError("degrees of freedom must be >= 1")
    from scipy.special import stdtrit  # lazy: scipy.special costs ~0.2 s to import

    return -float(stdtrit(dof, alpha_half))


def asymptotic_variance_estimate(values, dt: float, m: int,
                                 burn_in: float = 0.0) -> float:
    """Estimate sigma^2 = lim t Var(time average over [0, t]) as
    (block * dt) * s2m over the m batches of ``block`` samples that
    ``batch_means`` averages."""
    w = _window(values, dt, burn_in)
    if len(w) < 2 * m:
        raise ParameterError("series too short for an asymptotic-variance estimate")
    return float((len(w) // m) * dt * _batches(w, m).var(ddof=1))
