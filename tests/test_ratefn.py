import warnings

import numpy as np
import pytest

from irrlangevin.drift import make_constant_drift, make_rotational_drift
from irrlangevin.errors import DimensionError, ParameterError
from irrlangevin.potentials import get_potential
from irrlangevin.ratefn import (
    GridDensity,
    field_on_grid,
    grid_points,
    rate_irreversible,
    solve_gauge_field,
    spectral_divergence,
    spectral_gradient,
)

from oracles import circle_rate_closed_form, random_smooth_density

TORUS = get_potential("torus-cosine", a=0.5, b=0.5)
CIRCLE_U0 = get_potential("torus-zero", dim=1)

# frozen from the N=256 grid oracle; the solve is spectrally exact, so the
# values agree across N in {64, 128, 256} to full precision
GOLDEN_SHIFTED_J = 0.014647169287286
GOLDEN_SHIFTED_I0 = 0.060791069526910


def cosine_density(size=256, amplitude=0.5):
    x = grid_points(size, 1)[:, 0]
    return GridDensity.from_values(1.0 + amplitude * np.cos(x))


def shifted_density(size=128):
    return GridDensity.from_potential(TORUS, 0.5, size, shift=(1.0, 0.0))


def reversible_rate(p, potential, diffusion):
    """I_0 of ``p``: the ``i0`` of ``rate_irreversible`` at drift strength 0."""
    drift = (make_rotational_drift(potential, 0.0) if potential.dimension == 2
             else make_constant_drift([1.0] * potential.dimension, 0.0))
    return rate_irreversible(p, potential, drift, diffusion).i0


def quadratic_coefficient(p, potential, drift, diffusion):
    """K of the delta^2 law, from ``rate_irreversible``'s quadratic solve."""
    return rate_irreversible(p, potential, drift, diffusion, compute_quadratic=True).k


# ---------------------------------------------------------------------------
# grid density and spectral operators


def test_density_requires_positivity():
    with pytest.raises(ParameterError):
        GridDensity.from_values(np.array([1.0, 0.0, 2.0, 1.0]))
    with pytest.raises(ParameterError):
        GridDensity(np.array([0.5, 1.5, 0.5, 1.4]))  # mean != 1
    with pytest.raises(DimensionError):
        GridDensity(np.ones((4, 4, 4)))


@pytest.mark.parametrize("diffusion", [-1.0, 0.0, np.nan, np.inf])
def test_bad_diffusion_is_a_parameter_error(diffusion):
    p = cosine_density(32)
    drift = make_constant_drift([1.0], 1.0)
    calls = [
        lambda: GridDensity.from_potential(CIRCLE_U0, diffusion, 32),
        lambda: reversible_rate(p, CIRCLE_U0, diffusion),
        lambda: rate_irreversible(p, CIRCLE_U0, drift, diffusion),
        lambda: quadratic_coefficient(p, CIRCLE_U0, drift, diffusion),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(ParameterError, match="diffusion"):
                call()


def test_empty_density_is_parameter_error():
    with pytest.raises(ParameterError):
        GridDensity.from_values([])
    with pytest.raises(ParameterError):
        GridDensity(np.ones(0))
    with pytest.raises(ParameterError):
        GridDensity.uniform(0)


BAD_GRID_SHAPES = [(-1, 1), (2.5, 1), ("8", 1), (8, 0), (8, -1), (8, 1.5)]


@pytest.mark.parametrize("size, dims", BAD_GRID_SHAPES)
def test_uniform_density_rejects_a_bad_grid_shape(size, dims):
    with pytest.raises(ParameterError):
        GridDensity.uniform(size, dims)


@pytest.mark.parametrize("size, dims", BAD_GRID_SHAPES)
def test_grid_points_and_sampled_densities_reject_a_bad_grid_shape(size, dims):
    # 2.5 nodes used to give 3 nodes at 2 pi j / 2.5, which is not a periodic grid
    with pytest.raises(ParameterError):
        grid_points(size, dims)
    if dims == 1:  # every case with dims 1 has a bad size
        with pytest.raises(ParameterError):
            GridDensity.from_potential(CIRCLE_U0, 0.5, size)


def test_density_normalization():
    d = GridDensity.from_values(np.random.default_rng(0).uniform(0.5, 2.0, 64))
    assert d.values.mean() == pytest.approx(1.0, abs=1e-13)


def test_gibbs_density_matches_formula():
    d = GridDensity.from_potential(TORUS, 0.5, 64)
    pts = d.points()
    expected = np.exp(-TORUS.eval(pts) / 0.5)
    expected /= expected.mean()
    np.testing.assert_allclose(d.values, expected, rtol=1e-12)


def test_spectral_gradient_exact_for_modes():
    x = grid_points(64, 1)[:, 0]
    values = np.sin(3 * x) + 0.5 * np.cos(x)
    grad = spectral_gradient(values)[0]
    np.testing.assert_allclose(grad, 3 * np.cos(3 * x) - 0.5 * np.sin(x),
                               atol=1e-12)


def test_spectral_divergence_of_curl_vanishes():
    pts = grid_points(64, 2)
    x, y = pts[..., 0], pts[..., 1]
    stream = np.exp(np.cos(x) + 0.5 * np.sin(y))
    g = spectral_gradient(stream)
    curl = np.stack([g[1], -g[0]])
    assert np.max(np.abs(spectral_divergence(curl))) <= 1e-10


def _reference_gradient(values):
    """Per-axis complex-FFT derivative, Nyquist mode zeroed."""
    vhat = np.fft.fftn(values)
    out = []
    for axis, n in enumerate(values.shape):
        k = np.fft.fftfreq(n, d=1.0 / n)
        if n % 2 == 0:
            k[n // 2] = 0.0
        shape = [1] * values.ndim
        shape[axis] = -1
        out.append(np.fft.ifftn(1j * k.reshape(shape) * vhat).real)
    return np.stack(out)


@pytest.mark.parametrize("shape", [(1,), (15,), (16,), (9, 9), (10, 10)])
def test_real_transforms_match_complex_reference(shape):
    rng = np.random.default_rng(len(shape) * 100 + shape[0])
    values = rng.standard_normal(shape)
    flux = rng.standard_normal((len(shape),) + shape)
    grad = spectral_gradient(values)
    assert grad.shape == (len(shape),) + shape
    np.testing.assert_allclose(grad, _reference_gradient(values), rtol=0, atol=1e-12)
    div = spectral_divergence(flux)
    assert div.shape == shape
    expected = sum(_reference_gradient(f)[a] for a, f in enumerate(flux))
    np.testing.assert_allclose(div, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("shape", [(16,), (16, 16), (10, 10)])
def test_nyquist_mode_has_zero_derivative(shape):
    rng = np.random.default_rng(3)
    axes = np.meshgrid(*[np.arange(n) for n in shape], indexing="ij")
    for axis, j in enumerate(axes):
        nyquist = (-1.0) ** j
        if all(n % 16 == 0 for n in shape):  # exact transforms: exactly zero
            assert not np.any(spectral_gradient(nyquist))
            assert not np.any(spectral_divergence(np.stack([nyquist] * len(shape))))
        # Nyquist along ``axis`` times a random profile along the other axes
        mixed = nyquist * rng.standard_normal(shape[:axis] + (1,) + shape[axis + 1:])
        assert np.max(np.abs(spectral_gradient(mixed)[axis])) <= 1e-12
        flux = np.zeros((len(shape),) + shape)
        flux[axis] = mixed
        assert np.max(np.abs(spectral_divergence(flux))) <= 1e-12


# ---------------------------------------------------------------------------
# gauge solver


def test_gauge_zero_drift_gives_zero_field():
    p = cosine_density(64)
    gauge = solve_gauge_field(p, np.zeros((1, 64)))
    assert np.max(np.abs(gauge.values)) == 0.0
    assert gauge.iterations == 0


def test_gauge_reversible_invariant_density():
    # b = -grad U with p ~ e^{-2U}: the gauge field equals U (mean-zero) and
    # the flux p(b + grad psi) vanishes identically
    p = GridDensity.from_potential(TORUS, 0.5, 64)
    pts = p.points()
    b = -np.moveaxis(TORUS.grad(pts), -1, 0)
    gauge = solve_gauge_field(p, b)
    expected = TORUS.eval(pts)
    expected = expected - expected.mean()
    np.testing.assert_allclose(gauge.values, expected, atol=1e-10)
    assert gauge.residual_rel <= 1e-10
    assert abs(gauge.values.mean()) <= 1e-12


def test_gauge_circle_constant_drift_first_integral():
    # div[p (delta + psi')] = 0 on the circle forces a constant flux
    # p (delta + psi') = delta / mean(1/p)
    p = cosine_density(256)
    delta = 1.5
    gauge = solve_gauge_field(p, np.full((1, 256), delta))
    flux = p.values * (delta + spectral_gradient(gauge.values)[0])
    assert np.max(np.abs(flux - flux.mean())) <= 1e-8
    expected_flux = delta / np.mean(1.0 / p.values)
    assert flux.mean() == pytest.approx(expected_flux, rel=1e-12)


def test_gauge_rejects_shape_mismatch():
    p = cosine_density(64)
    with pytest.raises(DimensionError):
        solve_gauge_field(p, np.zeros((2, 64)))


def random_smooth_drift(shape, seed):
    """A smooth vector field of shape (d, *grid): the logs of independent
    random smooth densities, one per component."""
    return np.stack([np.log(random_smooth_density(shape[0], len(shape), seed=seed + a)
                            .values) for a in range(len(shape))])


@pytest.mark.parametrize("shape", [(9,), (16,), (9, 9), (10, 10)])
def test_gauge_solve_matches_dense_reference(shape):
    # psi -> -div(p grad psi) as a dense matrix, built column by column from
    # the same spectral operators; the minimum-norm least-squares solution
    # is the mean-zero one (and has no all-Nyquist component on even grids)
    p = random_smooth_density(shape[0], len(shape), seed=shape[-1])
    b = random_smooth_drift(shape, seed=10 * shape[-1])
    columns = []
    for e in np.eye(p.values.size):
        e = e.reshape(shape)
        columns.append(-spectral_divergence(p.values * spectral_gradient(e)).ravel())
    rhs = spectral_divergence(p.values * b).ravel()
    expected = np.linalg.lstsq(np.stack(columns, axis=1), rhs, rcond=None)[0]
    assert abs(expected.mean()) <= 1e-12
    gauge = solve_gauge_field(p, b)
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(gauge.values.ravel() - expected)) <= 1e-9 * scale
    # preconditioned CG ends within the rank of the operator
    assert 0 < gauge.iterations < p.values.size


def test_gauge_solve_fft_budget(monkeypatch):
    # the CG state is spectral: each iteration makes d inverse transforms
    # for grad d and d forward ones for the flux, the same pair for the
    # preconditioner and one inverse for the residual's max norm, 4 d + 1;
    # the set-up makes d forward ones for div(p b) and one inverse for the
    # first residual, and the flux check 2 d + 3 (the iterate, its gradient
    # and the divergence of the flux).  Equality also fails a solve that
    # bypasses np.fft.
    calls = []
    for name in ("rfftn", "irfftn"):
        transform = getattr(np.fft, name)

        def counted(*args, _transform=transform, **kwargs):
            calls.append(_transform.__name__)
            return _transform(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    for shape in [(64,), (64, 64)]:
        calls.clear()
        d = len(shape)
        p = random_smooth_density(shape[0], d, seed=5)
        gauge = solve_gauge_field(p, random_smooth_drift(shape, seed=7))
        assert gauge.iterations > 0
        assert len(calls) == (4 * d + 1) * gauge.iterations + 3 * d + 4


def gibbs_drift(p, delta=2.0):
    """-grad U + delta C0 of the 2-torus cosine potential on the grid of p."""
    drift = make_rotational_drift(TORUS, delta)
    return -field_on_grid(TORUS.grad, p) + delta * field_on_grid(drift.base_eval, p)


def test_gauge_solve_on_a_gibbs_density_takes_few_iterations():
    # max p / min p is about 55; the constant-coefficient preconditioner
    # took about 100 iterations here
    p = GridDensity.from_potential(TORUS, 0.5, 64, shift=(1.0, 0.3))
    gauge = solve_gauge_field(p, gibbs_drift(p))
    assert 0 < gauge.iterations <= 15
    assert gauge.residual_rel <= 1e-10
    assert gauge.cg_residual_last <= 1e-12 < gauge.cg_residual_first


@pytest.mark.parametrize("density", [
    lambda: GridDensity.from_potential(TORUS, 0.1, 64, shift=(1.0, 0.3)),  # p ratio e^20
    lambda: random_smooth_density(64, 2, amplitude=2.0),  # p ratio about 1100
], ids=["gibbs-D0.1", "random-amplitude-2"])
def test_gauge_solve_converges_on_strongly_varying_densities(density):
    p = density()
    gauge = solve_gauge_field(p, gibbs_drift(p))
    assert gauge.residual_rel <= 1e-10


def test_gauge_solve_on_the_circle_takes_at_most_three_iterations():
    # the preconditioner is the inverse up to rank one in one dimension
    x = grid_points(256, 1)[:, 0]
    p = GridDensity.from_values(np.exp(2.0 * np.cos(x) + np.sin(2.0 * x)))
    gauge = solve_gauge_field(p, np.ones((1, 256)))
    assert 0 < gauge.iterations <= 3
    assert gauge.residual_rel <= 1e-10


# ---------------------------------------------------------------------------
# reversible rate


def test_rate_reversible_vanishes_at_invariant_density():
    p = GridDensity.from_potential(TORUS, 0.5, 64)
    assert reversible_rate(p, TORUS, 0.5) <= 1e-8


def test_rate_reversible_circle_closed_form():
    # (1/8) mean(p'^2 / p) = (1 - sqrt(1 - a^2)) / 8 for p = 1 + a cos x
    p = cosine_density(512)
    value = reversible_rate(p, CIRCLE_U0, 0.5)
    expected = (1.0 - np.sqrt(1.0 - 0.25)) / 8.0
    assert value == pytest.approx(expected, abs=1e-10)
    assert value == pytest.approx(0.0167468, abs=1e-7)


def test_rate_reversible_uniform_flat():
    p = GridDensity.uniform(64, 2)
    flat = get_potential("torus-zero", dim=2)
    assert reversible_rate(p, flat, 0.5) == 0.0


# ---------------------------------------------------------------------------
# circle example: closed form vs PDE route


def test_circle_closed_form_uniform_density():
    assert circle_rate_closed_form(GridDensity.uniform(128), 3.0) == \
        pytest.approx(0.0, abs=1e-14)


def test_circle_closed_form_reference_value():
    assert circle_rate_closed_form(cosine_density(512), 1.0) == \
        pytest.approx(0.0837341, abs=1e-6)


def test_circle_closed_form_matches_gauge_solve():
    p = cosine_density(512)
    drift = make_constant_drift([1.0], 1.0)
    report = rate_irreversible(p, CIRCLE_U0, drift, 0.5, compute_quadratic=True)
    assert report.i_c == pytest.approx(circle_rate_closed_form(p, 1.0), abs=1e-6)
    # quadratic coefficient: (1/2)(1 - sqrt(1 - a^2))
    assert report.k == pytest.approx(0.0669873, abs=1e-6)
    assert report.i0 == pytest.approx(0.0167468, abs=1e-6)


def test_quadratic_coefficient_circle_closed_form():
    p = cosine_density(256)
    k = quadratic_coefficient(p, CIRCLE_U0, make_constant_drift([1.0], 1.0), 0.5)
    assert k == pytest.approx(0.5 * (1.0 - np.sqrt(0.75)), abs=1e-9)


# ---------------------------------------------------------------------------
# irreversible rate on the 2-torus


def test_invariant_density_rate_zero_for_all_deltas():
    p = GridDensity.from_potential(TORUS, 0.5, 64)
    for delta in (0.0, 1.0, 10.0):
        drift = make_rotational_drift(TORUS, delta)
        report = rate_irreversible(p, TORUS, drift, 0.5)
        assert report.i_c <= 1e-8, delta


def test_degenerate_density_function_of_potential():
    # p = h(U) with C0 = J grad U satisfies div(p C0) = 0: no rate increase
    p = GridDensity.from_potential(TORUS, 0.25, 64)  # h(U) = exp(-4U)
    drift = make_rotational_drift(TORUS, 1.0)
    report = rate_irreversible(p, TORUS, drift, 0.5, compute_quadratic=True)
    assert report.j_c <= 1e-8
    assert report.k <= 1e-8
    assert report.i0 > 1e-3  # the density is far from invariant


def test_shifted_density_strictly_positive_increment():
    report = rate_irreversible(shifted_density(128), TORUS,
                               make_rotational_drift(TORUS, 1.0), 0.5)
    assert report.j_c > 1e-4
    assert report.j_c == pytest.approx(GOLDEN_SHIFTED_J, abs=1e-9)
    assert report.i0 == pytest.approx(GOLDEN_SHIFTED_I0, abs=1e-9)


def test_shifted_density_golden_value_grid_independent():
    values = []
    for size in (64, 128, 256):
        report = rate_irreversible(shifted_density(size), TORUS,
                                   make_rotational_drift(TORUS, 1.0), 0.5)
        values.append(report.j_c)
    assert np.max(np.abs(np.diff(values))) <= 1e-11
    assert values[-1] == pytest.approx(GOLDEN_SHIFTED_J, abs=1e-10)


def test_quadratic_law_in_delta():
    p = shifted_density(128)
    k = quadratic_coefficient(p, TORUS, make_rotational_drift(TORUS, 1.0), 0.5)
    for delta in (0.5, 1.0, 2.0, 4.0):
        drift = make_rotational_drift(TORUS, delta)
        report = rate_irreversible(p, TORUS, drift, 0.5)
        assert report.j_c / delta**2 == pytest.approx(k, rel=1e-6), delta


def test_lemma_decomposition_consistency():
    p = shifted_density(64)
    for delta in (0.0, 1.0, 3.0):
        drift = make_rotational_drift(TORUS, delta)
        report = rate_irreversible(p, TORUS, drift, 0.5)
        assert report.lemma_mismatch <= 1e-8, delta


def test_monotone_increase_random_densities():
    drift = make_rotational_drift(TORUS, 1.0)
    pts = grid_points(64, 2)
    c = field_on_grid(drift.base_eval, GridDensity.uniform(64, 2))
    for seed in range(50):
        p = random_smooth_density(64, dims=2, seed=seed, amplitude=0.6)
        report = rate_irreversible(p, TORUS, drift, 0.5)
        assert report.j_c >= 0.0
        div_pc = spectral_divergence(p.values * c)
        if np.max(np.abs(div_pc)) > 1e-4:
            assert report.j_c > 1e-8, seed


def test_rate_nonnegative_and_ordered():
    # I_C >= I_0 pointwise (rate increase under irreversibility)
    p = random_smooth_density(64, dims=2, seed=7)
    drift = make_rotational_drift(TORUS, 2.0)
    report = rate_irreversible(p, TORUS, drift, 0.5)
    assert report.i_c >= report.i0 >= 0.0


def test_grid_convergence_on_rough_density():
    # |sin|^3 flavor: finite smoothness makes the spectral error visible and
    # at least third order, so doubling the grid shrinks it by >= 3x
    def rough(pts):
        return 1.0 + 0.5 * np.abs(np.sin(pts[..., 0])) ** 3

    drift = make_constant_drift([1.0], 1.0)
    reference = None
    errors = []
    fine = GridDensity.from_values(rough(grid_points(16384, 1)))
    reference = circle_rate_closed_form(fine, 1.0)
    for size in (32, 64, 128):
        p = GridDensity.from_values(rough(grid_points(size, 1)))
        report = rate_irreversible(p, CIRCLE_U0, drift, 0.5)
        errors.append(abs(report.i_c - reference))
    assert errors[0] / errors[1] >= 3.0
    assert errors[1] / errors[2] >= 3.0


def test_nonconforming_drift_warns():
    # U = 0.5 cos x + 0.5 cos y is not flat along x, so c0 = [1, 0] breaks invariance
    p = random_smooth_density(32, dims=2, seed=1)
    with pytest.warns(UserWarning):
        rate_irreversible(p, TORUS, make_constant_drift([1.0, 0.0]), 0.5)


@pytest.mark.parametrize("drift", [
    pytest.param(make_rotational_drift(get_potential("quadratic"), 1.0),
                 id="rotational_of_another_potential"),
    pytest.param(lambda pts: np.asarray(pts, dtype=float), id="radial_callable"),
    pytest.param(None, id="none"),
])
def test_drift_outside_the_family_is_a_parameter_error(drift):
    with pytest.raises(ParameterError):
        rate_irreversible(GridDensity.uniform(16, 2), TORUS, drift, 0.5)
