import math
import warnings

import numpy as np
import pytest

from irrlangevin import spectral
from irrlangevin.errors import DimensionError, DomainError, ParameterError, SolverError
from irrlangevin.spectral import (
    TILT_TOL,
    FourierObservable,
    ScaledCgf,
    _perron,
    _solve_tilt,
    check_levels,
    fourier_sigma2,
    observable_rate,
    periodic_generator,
    rate_curvature,
)

from oracles import discrete_mode_eigenvalue, generator_spectrum

COS = FourierObservable.cosine()


def cos_samples(n=256):
    return COS.samples(n)


def tilted_circle_generator(f, beta, delta, diffusion):
    return periodic_generator(np.full(len(f), delta), diffusion) + beta * np.diag(f)


def forbid_eigensolves(monkeypatch):
    def fail(*args):
        raise AssertionError("eigensolve reached")
    monkeypatch.setattr(np.linalg, "eig", fail)
    monkeypatch.setattr(np.linalg, "eigvals", fail)


# ---------------------------------------------------------------------------
# Fourier observable and exact variance


def test_cosine_coefficients():
    assert COS.coefficients[COS.n_max] == 0.0  # c_0, the mean
    x = np.linspace(0, 2 * np.pi, 17)[:-1]
    np.testing.assert_allclose(COS.samples(16), np.cos(x), atol=1e-12)


def test_conjugate_symmetry_enforced():
    with pytest.raises(ParameterError):
        FourierObservable(np.array([0.5j, 0.0, 0.5j]))
    with pytest.raises(ParameterError):
        FourierObservable(np.array([0.5, 0.0]))  # even length


def test_sigma2_reference_values():
    assert fourier_sigma2(COS, 0.0, 1.0) == pytest.approx(1.0)
    assert fourier_sigma2(COS, 2.0, 1.0) == pytest.approx(0.2)


def test_sigma2_strictly_decreasing_in_delta():
    deltas = np.linspace(0.0, 10.0, 21)
    values = [fourier_sigma2(COS, d, 1.0) for d in deltas]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_sigma2_multimode():
    obs = FourierObservable(np.array([0.25, 0.5, 0.0, 0.5, 0.25]))
    # modes 1 and 2: 4(1/4)D/(D^2 + d^2) + 4(1/16)... with c_2 = 0.25
    d, D = 1.5, 1.0
    expected = 4 * 0.25 / (1 + d**2) + 4 * 0.0625 / (4 + d**2)
    assert fourier_sigma2(obs, d, D) == pytest.approx(expected)


def test_sigma2_rejects_constant_observable():
    with pytest.raises(ParameterError):
        fourier_sigma2(FourierObservable(np.array([0.0, 1.0, 0.0])), 1.0, 1.0)


# ---------------------------------------------------------------------------
# generator spectrum


def test_spectrum_mode_one_reversible():
    eig = generator_spectrum(256, 0.0, 1.0)
    # sorted by descending real part: the zero mode first, then modes +-1
    assert eig[0].real == pytest.approx(0.0, abs=1e-10)
    assert eig[1].real == pytest.approx(-1.0, abs=1e-3)
    assert eig[1].imag == pytest.approx(0.0, abs=1e-8)


def test_spectrum_mode_one_irreversible():
    eig = generator_spectrum(256, 5.0, 1.0)
    mode = eig[np.argmin(np.abs(eig - (-1 + 5j)))]
    assert mode.real == pytest.approx(-1.0, abs=1e-3)
    assert mode.imag == pytest.approx(5.0, abs=1e-2)


def test_spectrum_matches_exact_discrete_formula():
    n = 64
    eig = np.sort_complex(generator_spectrum(n, 3.0, 0.7))
    exact = np.sort_complex(np.array([
        discrete_mode_eigenvalue(n, k, 3.0, 0.7) for k in range(-n // 2, n // 2)
    ]))
    np.testing.assert_allclose(eig, exact, atol=1e-9)


def test_real_parts_independent_of_delta():
    re0 = np.sort(generator_spectrum(128, 0.0, 1.0).real)
    re100 = np.sort(generator_spectrum(128, 100.0, 1.0).real)
    assert np.max(np.abs(re0 - re100)) <= 1e-10


def test_real_parts_nonpositive():
    for delta in (0.0, 5.0):
        eig = generator_spectrum(96, delta, 1.0)
        assert np.max(eig.real) <= 1e-10


# ---------------------------------------------------------------------------
# principal eigenvalue


def test_principal_eigenvalue_beta_zero():
    lam, vec = _perron(tilted_circle_generator(cos_samples(), 0.0, 3.0, 1.0))
    assert lam == pytest.approx(0.0, abs=1e-10)
    assert np.max(np.abs(vec - 1.0)) <= 1e-8  # constant eigenvector


def test_principal_eigenvalue_constant_shift():
    lam = ScaledCgf(np.ones(128), 2.0, 1.0).value(0.7)
    assert lam == pytest.approx(0.7, abs=1e-10)


def test_principal_eigenvalue_second_order_perturbation():
    # lambda(beta cos) = beta^2 sum |c_n|^2 / (D n^2) + O(beta^3) at delta=0
    lam = ScaledCgf(cos_samples(), 0.0, 1.0).value(0.1)
    assert lam == pytest.approx(0.005, abs=5e-4)


def test_principal_eigenvalue_perron_positivity():
    for beta in (-2.0, -0.5, 0.5, 2.0):
        lam, vec = _perron(tilted_circle_generator(cos_samples(), beta, 1.0, 1.0))
        assert vec.min() > 0.0
        assert vec.min() / vec.max() > 0.0


def test_principal_eigenvalue_grid_refinement_600_vs_512():
    fine = ScaledCgf(cos_samples(600), 1.0, 1.0).value(0.3)
    coarse = ScaledCgf(cos_samples(512), 1.0, 1.0).value(0.3)
    assert fine == pytest.approx(coarse, abs=1e-4)  # the discretization error


def test_grid_bound_is_2048_nodes():
    # checked before the matrix is allocated
    with pytest.raises(ParameterError, match="2048"):
        periodic_generator(np.zeros(2049), 1.0)
    with pytest.raises(ParameterError, match="2048"):
        ScaledCgf(np.ones(2049), 1.0, 1.0)


def test_scgf_rejects_a_drift_or_observable_of_the_wrong_shape():
    n = 16
    for drift in (np.zeros((1, n)), np.zeros((2, n)), np.zeros(n + 1), np.zeros(1)):
        with pytest.raises(DimensionError):
            ScaledCgf(np.ones(n), drift, 1.0)
    for f in (np.ones((n, n)), np.ones((8, 8, 8)), np.ones((1, n))):
        with pytest.raises(DimensionError):
            ScaledCgf(f, 1.0, 1.0)
    for drift in (np.zeros((1, n)), np.zeros((2, n, n)), np.float64(1.0)):
        with pytest.raises(DimensionError):
            periodic_generator(drift, 1.0)


def test_scgf_convex_in_beta():
    scgf = ScaledCgf(cos_samples(), 2.0, 1.0)
    betas = np.linspace(-2.0, 2.0, 21)
    values = np.array([scgf.value(b) for b in betas])
    second = np.diff(values, 2)
    assert np.min(second) >= -1e-8
    # lambda(0) = 0 for every delta: invariant measure unchanged
    for delta in (0.0, 1.0, 10.0):
        assert ScaledCgf(cos_samples(), delta, 1.0).value(0.0) == \
            pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("delta", [0.0, 1.0, 4.0])
def test_jet_at_zero_is_the_discrete_mode_variance(n, delta):
    # lambda''(0) is the asymptotic variance of cos x under the discretized
    # generator, which only mode 1 carries: Re(-1 / mu_1)
    f = cos_samples(n)
    lam, slope, curv = ScaledCgf(f, delta, 1.0).jet(0.0)
    exact = (-1.0 / discrete_mode_eigenvalue(n, 1, delta, 1.0)).real
    assert curv == pytest.approx(exact, rel=1e-10)
    assert abs(lam) <= 1e-10
    assert abs(slope - f.mean()) <= 1e-10


@pytest.mark.parametrize("delta", [0.0, 1.0, 4.0])
@pytest.mark.parametrize("beta", [-2.0, 0.5, 3.0])
def test_jet_matches_central_differences_of_value(beta, delta):
    scgf = ScaledCgf(cos_samples(64), delta, 1.0)
    lam, slope, curv = scgf.jet(beta)
    h = 1e-3
    up, mid, down = scgf.value(beta + h), scgf.value(beta), scgf.value(beta - h)
    assert lam == mid
    assert slope == pytest.approx((up - down) / (2.0 * h), rel=1e-6)
    assert curv == pytest.approx((up - 2.0 * mid + down) / h**2, rel=1e-4)


@pytest.mark.parametrize("delta", [1.0, 4.0])
def test_rate_curvature_eigensolve_budget(monkeypatch, delta):
    # at beta = 0 the Perron pair is (0, 1), so the curvature needs no eigensolve
    forbid_eigensolves(monkeypatch)
    for name in ("observable_rate", "_solve_tilt"):
        monkeypatch.setattr(spectral, name, lambda *a, name=name: pytest.fail(name))
    rate_curvature(cos_samples(64), delta, 1.0)


def legendre_cases():
    x = cos_samples(64)
    sin = np.roll(x, 16)  # sin on 64 nodes: cos shifted by a quarter period
    # a drift that varies along the circle makes the invariant law non-uniform
    cases = {f"circle-sin-{a:g}": (x, a * sin) for a in (0.5, 1.5)}
    cases["circle-constant-2"] = (x, 2.0)
    return cases


@pytest.mark.parametrize("case", sorted(legendre_cases()))
def test_rate_curvature_is_the_legendre_curvature_at_lambda_prime(case):
    # I''(lambda'(0)) = 1/lambda''(0), by a centred second difference of the
    # rates about the invariant mean pi(f) = lambda'(0)
    f, drift = legendre_cases()[case]
    mean = ScaledCgf(f, drift, 1.0).jet(0.0)[1]
    h = 2e-3
    rates = observable_rate(f, drift, 1.0, [mean - h, mean, mean + h])
    kappa_fd = 0.5 * (rates[0] - 2.0 * rates[1] + rates[2]) / h**2
    kappa, sigma2 = rate_curvature(f, drift, 1.0)
    assert sigma2 == pytest.approx(1.0 / (2.0 * kappa_fd), rel=1e-4)
    assert kappa == pytest.approx(1.0 / (2.0 * sigma2), rel=1e-12)


@pytest.mark.parametrize("diffusion", [-1.0, 0.0, np.nan, np.inf])
def test_bad_diffusion_is_a_parameter_error(monkeypatch, diffusion):
    forbid_eigensolves(monkeypatch)
    with pytest.raises(ParameterError, match="diffusion"):
        periodic_generator(np.ones(16), diffusion)
    with pytest.raises(ParameterError, match="diffusion"):
        generator_spectrum(16, 1.0, diffusion)
    with pytest.raises(ParameterError, match="diffusion"):
        rate_curvature(cos_samples(16), 1.0, diffusion)


@pytest.mark.parametrize("delta, diffusion, name", [
    (1.0, np.nan, "diffusion"), (1.0, np.inf, "diffusion"), (1.0, 0.0, "diffusion"),
    (np.nan, 1.0, "delta"), (np.inf, 1.0, "delta"), (-np.inf, 1.0, "delta"),
])
def test_fourier_sigma2_rejects_nonfinite_inputs(delta, diffusion, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match=name):
            fourier_sigma2(FourierObservable.cosine(), delta, diffusion)


def test_nonfinite_and_empty_inputs_are_parameter_errors(monkeypatch):
    forbid_eigensolves(monkeypatch)
    f = cos_samples(16)
    bad_f = f.copy()
    bad_f[3] = np.nan
    calls = [
        lambda: ScaledCgf(f, np.nan, 1.0),
        lambda: ScaledCgf(f, np.where(np.arange(16) == 5, np.inf, 1.0), 1.0),
        lambda: ScaledCgf(bad_f, 1.0, 1.0),
        lambda: rate_curvature(bad_f, 1.0, 1.0),
        lambda: rate_curvature([], 1.0, 1.0),
        lambda: observable_rate([], 1.0, 1.0, [0.0]),
        lambda: check_levels([], [0.0]),
        lambda: check_levels(bad_f, [0.0]),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(ParameterError) as raised:
                call()
            assert raised.type is ParameterError  # not a DomainError


# ---------------------------------------------------------------------------
# observable rate function


def test_rate_zero_at_mean(monkeypatch):
    # the tilt solve's first step, at beta = 0, makes no eigensolve
    forbid_eigensolves(monkeypatch)
    rates = observable_rate(cos_samples(), 0.0, 1.0, [0.0])
    assert rates[0] == pytest.approx(0.0, abs=1e-9)


def test_rate_increases_with_delta():
    ells = [-0.6, -0.3, 0.3, 0.6]
    base = observable_rate(cos_samples(), 0.0, 1.0, ells)
    fast = observable_rate(cos_samples(), 4.0, 1.0, ells)
    assert np.all(fast - base > 1e-6)


def test_rate_symmetric_for_reversible_cosine():
    rates = observable_rate(cos_samples(), 0.0, 1.0, [-0.4, 0.4])
    assert abs(rates[0] - rates[1]) <= 1e-8


def test_rate_rejects_level_outside_range():
    with pytest.raises(DomainError):
        observable_rate(cos_samples(), 0.0, 1.0, [1.5])
    with pytest.raises(DomainError):
        observable_rate(cos_samples(), 0.0, 1.0, [-1.0])  # boundary excluded


@pytest.mark.parametrize("ell", [0.9999, -0.9999])
def test_level_past_the_tilt_bracket_is_a_solver_limit(ell):
    # inside (min f, max f), so reached as |beta| -> inf: not a bad level, but
    # the Perron solve fails first
    with pytest.raises(SolverError, match=f"^level {ell}: .*Perron"):
        observable_rate(cos_samples(64), 0.0, 1.0, [ell])


@pytest.mark.parametrize("ell", [0.96, -0.96])
def test_level_whose_tilt_exceeds_50_solves(ell):
    # lambda'(+-50) = +-0.95 on this grid, so the root lies past |beta| = 50
    scgf = ScaledCgf(cos_samples(64), 0.0, 1.0)
    beta, lam = _solve_tilt(scgf, ell)
    assert abs(beta) > 50.0
    value, slope, _ = scgf.jet(beta)
    assert abs(slope - ell) <= TILT_TOL
    assert lam == pytest.approx(value, rel=1e-12)
    rate = observable_rate(cos_samples(64), 0.0, 1.0, [ell])[0]
    assert rate == pytest.approx(beta * ell - lam, rel=1e-12)


class _FlatCurvatureCgf:
    """lambda'(beta) = tanh(beta / 10) with a reported curvature of 0, so
    every Newton step is refused."""

    def jet(self, beta):
        return 0.0, math.tanh(beta / 10.0), 0.0


@pytest.mark.parametrize("ell", [0.9, -0.9])
def test_tilt_solve_doubles_outward_then_bisects(ell):
    beta, _ = _solve_tilt(_FlatCurvatureCgf(), ell)
    assert beta == pytest.approx(10.0 * math.atanh(ell), abs=1e-6)


def test_rate_rejects_repeated_levels():
    with pytest.raises(ParameterError):
        observable_rate(cos_samples(), 0.0, 1.0, [0.3, 0.3, -0.2])


def test_curvature_implies_sigma2():
    for delta, expected in ((0.0, 1.0), (2.0, 0.2)):
        curvature, implied = rate_curvature(cos_samples(), delta, 1.0)
        assert implied == pytest.approx(expected, rel=0.02)
        assert curvature == pytest.approx(1.0 / (2.0 * expected), rel=0.02)


def test_curvature_sigma2_strictly_decreasing():
    implied = [rate_curvature(cos_samples(), d, 1.0)[1] for d in (0.0, 1.0, 2.0, 4.0)]
    assert all(a > b for a, b in zip(implied, implied[1:]))
