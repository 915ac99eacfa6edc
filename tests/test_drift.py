import numpy as np
import pytest

from irrlangevin.cli import ExperimentConfig
from irrlangevin.drift import J2, Drift, check_invariance, unit_parts
from irrlangevin.errors import ConfigError, DimensionError, ParameterError
from irrlangevin.potentials import get_potential
from irrlangevin.rng import NormalStream
from irrlangevin.sampler import simulate_cells


def drift_field(drift, potential, x):
    """The field C = delta C0 at x of ``drift`` running with ``potential``."""
    return drift.delta * drift.base_eval(potential, x)


def test_rotational_quadratic_quarter_turn():
    drift = Drift(1.0)
    np.testing.assert_allclose(drift_field(drift, get_potential("quadratic"), [1.0, 0.0]),
                               [0.0, -1.0])


def test_rotational_bimodal_hand_value():
    drift = Drift(10.0)
    # grad U(0, 1) = (0, 1), so 10 J grad U = (10, 0)
    np.testing.assert_allclose(drift_field(drift, get_potential("bimodal1"), [0.0, 1.0]),
                               [10.0, 0.0])


def test_zero_delta_vanishes_everywhere():
    pts = np.random.default_rng(1).uniform(-3, 3, size=(100, 2))
    drift = Drift(0.0)
    assert np.max(np.abs(drift_field(drift, get_potential("bimodal1"), pts))) == 0.0


def test_rotational_orthogonal_to_gradient():
    potential = get_potential("bimodal2")
    drift = Drift(3.0)
    pts = np.random.default_rng(2).uniform(-2, 2, size=(200, 2))
    field = drift_field(drift, potential, pts)
    dots = np.sum(field * potential.grad(pts), axis=-1)
    assert np.max(np.abs(dots)) <= 1e-12 * np.max(np.abs(field))


def test_rotational_rejects_bad_inputs():
    # J2 grad U needs d = 2; a drift holds no potential, so the check is made
    # where it meets the one it runs with, not at construction
    drift = Drift(1.0)
    for potential in (get_potential("torus-zero", dim=1), get_potential("torus-cosine-1d"),
                      get_potential("quadratic", dim=3), get_potential("torus-zero", dim=4)):
        with pytest.raises(DimensionError, match="2 dimensions"):
            unit_parts(drift, potential)
        with pytest.raises(DimensionError, match="cell 0: a rotational drift needs a "
                                                 "potential in 2 dimensions"):
            simulate_cells(potential, [drift], 0.1, 1e-3, 1, [(0.0,) * potential.dimension],
                           [NormalStream(1, 0)])
        doc = {"potential": {"name": potential.name, "params": potential.params},
               "drift": {"kind": "rotational", "deltas": [0.0, 1.0]}, "diffusion": 0.1,
               "dt": 1e-3, "horizon": 1.0, "burn_in": 0.1, "observable": "sumsq",
               "seeds": [1]}
        with pytest.raises(ConfigError, match="2 dimensions"):
            ExperimentConfig.from_dict(doc)


def test_unit_parts_decides_the_family():
    bimodal = get_potential("bimodal1")
    rotation, vector = unit_parts(Drift(3.0), bimodal)
    np.testing.assert_array_equal(rotation, J2.T)
    assert vector is None
    rotation, vector = unit_parts(Drift(3.0, [1.0, -0.5]), bimodal)
    assert rotation is None
    np.testing.assert_array_equal(vector, [1.0, -0.5])
    assert unit_parts(None, bimodal) == (None, None)
    # a drift is a value: equal parts compare and hash equal
    assert Drift(3, [1, -0.5]) == Drift(3.0, (1.0, -0.5)) != Drift(3.0)
    assert hash(Drift(3, [1, -0.5])) == hash(Drift(3.0, np.array([1.0, -0.5])))
    for vector in ([1.0], [1.0, 0.0, 0.0], [[1.0, 0.0]]):
        with pytest.raises(DimensionError, match="potential has dimension 2"):
            unit_parts(Drift(1.0, vector), bimodal)
    with pytest.raises(ParameterError, match="None or a Drift"):
        unit_parts(bimodal.grad, bimodal)


def test_scaling_equivariance_exact():
    potential = get_potential("bimodal1")
    pts = np.random.default_rng(5).uniform(-2, 2, size=(50, 2))
    # power-of-two factors make the float products associate exactly
    a, b = 4.0, 0.25
    combined = drift_field(Drift(a * b), potential, pts)
    staged = a * drift_field(Drift(b), potential, pts)
    np.testing.assert_array_equal(combined, staged)


def test_check_invariance_conforming_field():
    field = get_potential("bimodal1")
    drift = Drift(1.0)
    pts = np.random.default_rng(6).uniform(-2, 2, size=(10_000, 2))
    assert check_invariance(drift, field, pts) <= 1e-6


def test_check_invariance_detects_violation():
    # a constant drift is divergence free, so the defect is exactly 2 max |c0 . x|;
    # points this close to the minimum keep it under the tolerance 1e-6 (1 + 2)
    field = get_potential("quadratic")
    pts = np.random.default_rng(7).uniform(-1e-7, 1e-7, size=(500, 2))
    c0 = np.array([0.5, -2.0])
    residual = check_invariance(Drift(3.0, c0), field, pts)
    assert 0.0 < residual <= 3e-6
    assert residual == pytest.approx(2.0 * np.max(np.abs(pts @ c0)), rel=1e-14)
    # over the tolerance the drift breaks the Gibbs law and is rejected
    with pytest.raises(ParameterError, match=r"constant drift \[0.5, -2.0\] does not "
                                             r"preserve the Gibbs law of 'quadratic'"):
        check_invariance(Drift(3.0, c0), field, 1e7 * pts)


def test_check_invariance_rejects_a_field_outside_the_family():
    pts = np.random.default_rng(7).uniform(-1, 1, size=(5, 2))
    with pytest.raises(ParameterError):
        check_invariance(lambda z: z.copy(), get_potential("quadratic"), pts)


def test_check_invariance_zero_drift():
    field = get_potential("bimodal1")
    drift = Drift(0.0)
    pts = np.random.default_rng(8).uniform(-2, 2, size=(100, 2))
    assert check_invariance(drift, field, pts) == 0.0


def test_constant_drift_broadcasts():
    drift = Drift(2.5, [1.0])
    np.testing.assert_allclose(drift_field(drift, get_potential("torus-zero", dim=1),
                                           np.zeros((7, 1))), 2.5 * np.ones((7, 1)))
