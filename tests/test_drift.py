import numpy as np
import pytest

from irrlangevin.drift import (
    check_invariance,
    make_constant_drift,
    make_rotational_drift,
)
from irrlangevin.errors import DimensionError, ParameterError
from irrlangevin.potentials import get_potential


def drift_field(drift, x):
    """The drift's field C = delta C0 at x."""
    return drift.delta * drift.base_eval(x)


def test_rotational_quadratic_quarter_turn():
    drift = make_rotational_drift(get_potential("quadratic"), 1.0)
    np.testing.assert_allclose(drift_field(drift, [1.0, 0.0]), [0.0, -1.0])


def test_rotational_bimodal_hand_value():
    drift = make_rotational_drift(get_potential("bimodal1"), 10.0)
    # grad U(0, 1) = (0, 1), so 10 J grad U = (10, 0)
    np.testing.assert_allclose(drift_field(drift, [0.0, 1.0]), [10.0, 0.0])


def test_zero_delta_vanishes_everywhere():
    pts = np.random.default_rng(1).uniform(-3, 3, size=(100, 2))
    drift = make_rotational_drift(get_potential("bimodal1"), 0.0)
    assert np.max(np.abs(drift_field(drift, pts))) == 0.0


def test_rotational_orthogonal_to_gradient():
    potential = get_potential("bimodal2")
    drift = make_rotational_drift(potential, 3.0)
    pts = np.random.default_rng(2).uniform(-2, 2, size=(200, 2))
    dots = np.sum(drift_field(drift, pts) * potential.grad(pts), axis=-1)
    assert np.max(np.abs(dots)) <= 1e-12 * np.max(np.abs(drift_field(drift, pts)))


def test_rotational_rejects_bad_inputs():
    # J2 grad U needs d = 2
    for potential in (get_potential("torus-zero", dim=1), get_potential("torus-cosine-1d"),
                      get_potential("quadratic", dim=3), get_potential("torus-zero", dim=4)):
        with pytest.raises(DimensionError, match="2 dimensions"):
            make_rotational_drift(potential, 1.0)


def test_scaling_equivariance_exact():
    potential = get_potential("bimodal1")
    pts = np.random.default_rng(5).uniform(-2, 2, size=(50, 2))
    # power-of-two factors make the float products associate exactly
    a, b = 4.0, 0.25
    combined = drift_field(make_rotational_drift(potential, a * b), pts)
    staged = a * drift_field(make_rotational_drift(potential, b), pts)
    np.testing.assert_array_equal(combined, staged)


def test_check_invariance_conforming_field():
    field = get_potential("bimodal1")
    drift = make_rotational_drift(field, 1.0)
    pts = np.random.default_rng(6).uniform(-2, 2, size=(10_000, 2))
    assert check_invariance(drift, field, pts) <= 1e-6


def test_check_invariance_detects_violation():
    # a constant drift is divergence free, so the defect is exactly 2 max |c0 . x|
    field = get_potential("quadratic")
    pts = np.random.default_rng(7).uniform(-1, 1, size=(500, 2))
    c0 = np.array([0.5, -2.0])
    residual = check_invariance(make_constant_drift(c0, 3.0), field, pts)
    assert residual == pytest.approx(2.0 * np.max(np.abs(pts @ c0)), rel=1e-14)


def test_check_invariance_rejects_a_field_outside_the_family():
    pts = np.random.default_rng(7).uniform(-1, 1, size=(5, 2))
    with pytest.raises(ParameterError):
        check_invariance(lambda z: z.copy(), get_potential("quadratic"), pts)


def test_check_invariance_zero_drift():
    field = get_potential("bimodal1")
    drift = make_rotational_drift(field, 0.0)
    pts = np.random.default_rng(8).uniform(-2, 2, size=(100, 2))
    assert check_invariance(drift, field, pts) == 0.0


def test_constant_drift_broadcasts():
    drift = make_constant_drift([1.0], 2.5)
    np.testing.assert_allclose(drift_field(drift, np.zeros((7, 1))), 2.5 * np.ones((7, 1)))
