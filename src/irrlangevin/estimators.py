"""Ergodic-average estimation with batch means and asymptotic variance.

The estimator pipeline mirrors steady-state simulation practice: discard a
burn-in prefix, form the time average, split the remaining window into m
contiguous batches, and build a Student-t confidence interval from the
dispersion of the batch means.  All routines operate on the sampled series
f(Z_0), f(Z_dt), ... and treat each stored sample as the left endpoint of
one dt interval (left Riemann sums), dropping the final state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import stdtrit

from .errors import ParameterError

Array = np.ndarray


@dataclass(frozen=True)
class ObservableSpec:
    """Named observable, vectorized over states of shape (..., d)."""

    name: str
    fn: Callable[[Array], Array]

    def eval(self, states) -> Array:
        return self.fn(np.asarray(states, dtype=float))


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


def ergodic_average(values, dt: float, burn_in: float = 0.0) -> float:
    """Left-Riemann approximation of the time average over [burn_in, t]."""
    return float(np.mean(_window(values, dt, burn_in)))


@dataclass(frozen=True)
class BatchMeansReport:
    """Batch-means point estimate with its Student-t confidence interval."""

    estimate: float
    batch_means: np.ndarray
    s2m: float
    ci_lower: float
    ci_upper: float
    block_time: float  # dt times the samples per batch

    def covers(self, value: float) -> bool:
        return self.ci_lower <= value <= self.ci_upper

    def variance_scaled(self) -> float:
        """block_time * s2m, the batch-scaled asymptotic-variance estimate."""
        return self.block_time * self.s2m


def _batches(w: Array, m: int, dt: float) -> tuple[Array, float]:
    """The means of m contiguous batches of the window w, a trailing
    remainder that does not fill a batch truncated, and the time length
    block * dt of each batch."""
    block = len(w) // m
    if block < 1:
        raise ParameterError(
            f"series too short: {len(w)} post-burn-in samples for m={m} batches"
        )
    return w[: m * block].reshape(m, block).mean(axis=1), block * dt


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
    means, block_time = _batches(_window(values, dt, burn_in), m, dt)
    estimate = float(means.mean())
    s2m = float(means.var(ddof=1))
    half = t_quantile(alpha / 2.0, m - 1) * math.sqrt(s2m / m)
    return BatchMeansReport(
        estimate=estimate,
        batch_means=means,
        s2m=s2m,
        ci_lower=estimate - half,
        ci_upper=estimate + half,
        block_time=block_time,
    )


def t_quantile(alpha_half: float, dof: int) -> float:
    """Upper quantile t_{alpha/2, dof}: P(T > q) = alpha_half."""
    if not 0.0 < alpha_half < 1.0:
        raise ParameterError("alpha_half must lie in (0, 1)")
    if dof < 1:
        raise ParameterError("degrees of freedom must be >= 1")
    return -float(stdtrit(dof, alpha_half))


def _autocovariance(w: Array) -> Array:
    """Biased empirical autocovariance of a demeaned copy of w, via FFT."""
    x = w - w.mean()
    n = len(x)
    nfft = 1 << int(np.ceil(np.log2(2 * n)))
    spec = np.fft.rfft(x, nfft)
    acov = np.fft.irfft(spec * np.conj(spec), nfft)[:n].real / n
    return acov


def asymptotic_variance_estimate(values, dt: float, m: int | None = None,
                                 burn_in: float = 0.0,
                                 method: str = "batch_scaled") -> float:
    """Estimate sigma^2 = 2 * integral of the autocovariance.

    batch_scaled: (block * dt) * s2m over the m batches of ``block`` samples
    that ``batch_means`` averages, consistent for any mixing dynamics.
    autocov: 2 dt * sum_k w_k c(k dt) with weights w_0 = 1/2 and w_k = 1 up
    to the lag before the first sign change of c (initial-positive-sequence
    truncation).  The truncation overestimates for oscillatory
    autocovariances (strong irreversible drift); it is meant as a
    cross-check, not the primary estimator.
    """
    w = _window(values, dt, burn_in)
    if m is None:
        m = batch_count_schedule(len(w) * dt)
    if len(w) < 2 * m:
        raise ParameterError("series too short for an asymptotic-variance estimate")
    if method == "batch_scaled":
        means, block_time = _batches(w, m, dt)
        return float(block_time * means.var(ddof=1))
    if method == "autocov":
        acov = _autocovariance(w)
        negative = np.nonzero(acov[1:] <= 0.0)[0]
        cutoff = int(negative[0]) + 1 if len(negative) else len(acov)
        return float(2.0 * dt * (0.5 * acov[0] + acov[1:cutoff].sum()))
    raise ParameterError(f"unknown method {method!r}")
