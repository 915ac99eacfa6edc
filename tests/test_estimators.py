import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from irrlangevin.drift import make_constant_drift
from irrlangevin.errors import ParameterError
from irrlangevin.estimators import (
    asymptotic_variance_estimate,
    batch_count_schedule,
    batch_means,
    get_observable,
    t_quantile,
)
from irrlangevin.potentials import get_potential
from irrlangevin.rng import NormalStream
from irrlangevin.sampler import simulate_cells


def circle_cos_series(delta, diffusion=1.0, horizon=2000.0, dt=0.01,
                      seed=101, streams=1):
    """cos(X_t) series for dX = delta dt + sqrt(2D) dW; the linear SDE makes
    the Euler chain exact in law at any dt."""
    potential = get_potential("torus-zero", dim=1)
    drift = make_constant_drift([1.0], delta)
    n_steps = int(round(horizon / dt))
    return simulate_cells(
        potential, [drift] * streams, diffusion, dt, n_steps,
        [(0.0,)] * streams, [NormalStream(seed, k) for k in range(streams)],
        observable=lambda z: np.cos(z[..., 0]),
    )


def test_ergodic_average_constant_series():
    values = np.full(1000, 2.0)
    assert batch_means(values, 10, 0.05, dt=0.1, burn_in=3.0).estimate == 2.0


def test_ergodic_average_left_riemann_two_steps():
    # two stored integration steps with f values 1 and 3; the final state is
    # the right endpoint and does not enter the left Riemann sum
    values = np.array([1.0, 3.0, 99.0])
    assert batch_means(values, 2, 0.05, dt=0.5, burn_in=0.0).estimate == 2.0


def test_ergodic_average_rejects_bad_burn_in():
    with pytest.raises(ParameterError, match="burn-in"):
        batch_means(np.ones(100), 2, 0.05, dt=0.01, burn_in=0.99)
    with pytest.raises(ParameterError, match="burn-in"):
        batch_means(np.ones(100), 2, 0.05, dt=0.01, burn_in=-0.1)


def test_batch_means_hand_values():
    # four constant blocks with means 1, 2, 3, 4
    values = np.concatenate([np.full(10, v) for v in (1.0, 2.0, 3.0, 4.0)])
    values = np.append(values, 0.0)  # trailing right endpoint
    report = batch_means(values, m=4, alpha=0.05, dt=1.0, burn_in=0.0)
    assert report.estimate == pytest.approx(2.5)
    assert report.s2m == pytest.approx(5.0 / 3.0)
    np.testing.assert_allclose(report.batch_means, [1.0, 2.0, 3.0, 4.0])


def test_batch_means_constant_series_zero_width():
    values = np.full(501, 7.0)
    report = batch_means(values, m=10, alpha=0.05, dt=0.01, burn_in=1.0)
    assert report.s2m == 0.0
    assert report.ci_lower == report.ci_upper == 7.0


def test_batch_means_truncates_remainder():
    values = np.arange(24, dtype=float)
    report = batch_means(values, m=5, alpha=0.05, dt=1.0, burn_in=0.0)
    # 23 left endpoints -> blocks of 4, trailing 3 samples dropped
    np.testing.assert_allclose(report.batch_means,
                               [1.5, 5.5, 9.5, 13.5, 17.5])


def test_batch_means_parameter_errors():
    with pytest.raises(ParameterError):
        batch_means(np.ones(100), m=1, alpha=0.05, dt=1.0)
    with pytest.raises(ParameterError):
        batch_means(np.ones(5), m=10, alpha=0.05, dt=1.0)
    with pytest.raises(ParameterError):
        batch_means(np.ones(100), m=5, alpha=1.5, dt=1.0)


@settings(max_examples=25, deadline=None)
@given(
    a=st.floats(-5, 5, allow_nan=False),
    b=st.floats(0.1, 4.0, allow_nan=False),
    seed=st.integers(0, 2**16),
)
def test_batch_means_affine_equivariance(a, b, seed):
    values = np.random.default_rng(seed).normal(size=401)
    base = batch_means(values, m=8, alpha=0.05, dt=0.1, burn_in=0.0)
    mapped = batch_means(a + b * values, m=8, alpha=0.05, dt=0.1, burn_in=0.0)
    assert mapped.estimate == pytest.approx(a + b * base.estimate, rel=1e-10, abs=1e-10)
    assert mapped.s2m == pytest.approx(b**2 * base.s2m, rel=1e-9)
    assert mapped.ci_lower == pytest.approx(a + b * base.ci_lower, rel=1e-9, abs=1e-9)
    assert mapped.ci_upper == pytest.approx(a + b * base.ci_upper, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("t, burn_in, m", [
    (8.85, 0.1875, 10),  # the last table-1 checkpoint at horizon scale 0.03
    (50.0, 5.0, batch_count_schedule(50.0)),
])
def test_batch_means_and_batch_scaled_estimate_agree(t, burn_in, m):
    # sigma^2 scales s2m by the time length of the batches actually averaged
    dt = 1e-3
    values = np.random.default_rng(3).normal(size=round(t / dt) + 1)
    window = values[round(burn_in / dt) : -1]
    report = batch_means(values, m, 0.05, dt, burn_in)
    assert asymptotic_variance_estimate(values, dt, m=m, burn_in=burn_in) == (
        (len(window) // m) * dt * report.s2m)


def test_t_quantile_reference_values():
    assert t_quantile(0.025, 9) == pytest.approx(2.262157, abs=1e-5)
    # Cauchy: tan(pi (1/2 - 1/4)) = 1
    assert t_quantile(0.25, 1) == pytest.approx(1.0, abs=1e-9)
    assert t_quantile(0.5, 7) == 0.0


def test_t_quantile_against_scipy():
    for alpha_half in (0.005, 0.025, 0.05, 0.1, 0.4, 0.6, 0.9):
        for dof in (1, 2, 5, 9, 30, 200):
            ours = t_quantile(alpha_half, dof)
            reference = scipy.stats.t.ppf(1.0 - alpha_half, dof)
            assert ours == pytest.approx(reference, abs=1e-6), (alpha_half, dof)


def test_t_quantile_rejects_bad_input():
    with pytest.raises(ParameterError):
        t_quantile(0.0, 5)
    with pytest.raises(ParameterError):
        t_quantile(1.0, 5)
    with pytest.raises(ParameterError):
        t_quantile(0.1, 0)


def test_batch_count_schedule_clamps():
    assert batch_count_schedule(25.0) == 10
    assert batch_count_schedule(295.0) == 14
    assert batch_count_schedule(700.0) == 20
    assert batch_count_schedule(1e6) == 20


def test_asymptotic_variance_iid_series():
    rng = np.random.default_rng(8)
    dt = 0.05
    values = rng.normal(size=200_001)
    batch = asymptotic_variance_estimate(values, dt, m=100)
    # iid N(0,1): sigma^2 = dt * var = 0.05
    assert batch == pytest.approx(dt, rel=0.25)


def test_asymptotic_variance_short_series_raises():
    with pytest.raises(ParameterError):
        asymptotic_variance_estimate(np.ones(30), 0.1, m=20)


def test_circle_variance_reversible():
    # sigma^2 = 1 for f = cos, D = 1, delta = 0
    series = circle_cos_series(0.0, streams=8, seed=301)
    estimates = [asymptotic_variance_estimate(s, 0.01, m=40, burn_in=5.0)
                 for s in series]
    assert np.mean(estimates) == pytest.approx(1.0, rel=0.15)


def test_circle_variance_irreversible():
    # sigma^2 = 1/(1 + delta^2) = 0.2 for delta = 2
    series = circle_cos_series(2.0, streams=8, seed=302)
    estimates = [asymptotic_variance_estimate(s, 0.01, m=40, burn_in=5.0)
                 for s in series]
    assert np.mean(estimates) == pytest.approx(0.2, rel=0.15)


def test_circle_variance_monotone_in_delta():
    deltas = (0.0, 1.0, 2.0, 4.0)
    medians = []
    for k, delta in enumerate(deltas):
        series = circle_cos_series(delta, horizon=800.0, streams=5,
                                   seed=400 + k)
        medians.append(np.median([
            asymptotic_variance_estimate(s, 0.01, m=17, burn_in=5.0)
            for s in series
        ]))
    assert all(a > b for a, b in zip(medians, medians[1:])), medians


def test_observable_catalog():
    sumsq = get_observable("sumsq")
    assert sumsq.fn(np.array([[1.0, 1.0]])) == pytest.approx([2.0])
    cos = get_observable("cos")
    assert cos.fn(np.array([[0.0]])) == pytest.approx([1.0])
    with pytest.raises(ParameterError):
        get_observable("nope")
