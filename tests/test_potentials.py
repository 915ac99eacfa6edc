import numpy as np
import pytest

from irrlangevin.errors import DimensionError, ParameterError
from irrlangevin.potentials import CATALOG, get_potential

ALL_NAMES = sorted(CATALOG)


def finite_difference_gradient(field, x, h=1e-5):
    """Central-difference gradient, the oracle for the analytic gradients."""
    pts = np.asarray(x, dtype=float)
    out = np.zeros_like(pts)
    for axis in range(field.dimension):
        shift = np.zeros(field.dimension)
        shift[axis] = h
        out[..., axis] = (field.eval(pts + shift) - field.eval(pts - shift)) / (2.0 * h)
    return out


def sample_points(field, n, seed=0):
    rng = np.random.default_rng(seed)
    if field.period is not None:
        return rng.uniform(0.0, 2 * np.pi, size=(n, field.dimension))
    return rng.uniform(-2.0, 2.0, size=(n, field.dimension))


def test_bimodal1_value_at_origin():
    assert get_potential("bimodal1").eval([0.0, 0.0]) == pytest.approx(0.25)


def test_quadratic_minimum():
    assert get_potential("quadratic").eval([0.0, 0.0]) == 0.0


def test_quadratic_gradient_is_identity():
    np.testing.assert_allclose(get_potential("quadratic").grad([2.0, 3.0]), [2.0, 3.0])


def test_bimodal1_critical_points():
    field = get_potential("bimodal1")
    np.testing.assert_allclose(field.grad([1.0, 0.0]), [0.0, 0.0], atol=1e-14)
    np.testing.assert_allclose(field.grad([-1.0, 0.0]), [0.0, 0.0], atol=1e-14)


def test_threewell_reported_critical_points():
    # printed coordinates are rounded, hence the loose tolerance
    field = get_potential("threewell")
    for point in ([1.00051, 0.125314], [-1.00051, 0.125314], [0.0, -0.0139],
                  [0.0, -1.00711], [0.0, 1.08849]):
        assert np.linalg.norm(field.grad(point)) <= 1e-2


def test_threewell_local_maximum_shape():
    field = get_potential("threewell")
    center = field.eval([0.0, -0.0139])
    for dx, dy in ((1e-2, 0), (-1e-2, 0), (0, 1e-2), (0, -1e-2)):
        assert field.eval([dx, -0.0139 + dy]) < center


@pytest.mark.parametrize("name", ALL_NAMES)
def test_gradient_matches_finite_differences(name):
    field = get_potential(name)
    pts = sample_points(field, 100, seed=hash(name) % 2**32)
    exact = field.grad(pts)
    approx = finite_difference_gradient(field, pts, h=1e-5)
    scale = np.maximum(np.abs(exact), 1.0)
    assert np.max(np.abs(exact - approx) / scale) <= 1e-5


@pytest.mark.parametrize("name", ["torus-cosine", "torus-cosine-1d", "torus-zero"])
def test_torus_periodicity(name):
    field = get_potential(name)
    pts = sample_points(field, 50, seed=3)
    for axis in range(field.dimension):
        shifted = pts.copy()
        shifted[:, axis] += field.period[axis]
        assert np.max(np.abs(field.eval(pts) - field.eval(shifted))) <= 1e-12
        assert np.max(np.abs(field.grad(pts) - field.grad(shifted))) <= 1e-12


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionError):
        get_potential("bimodal1").eval([1.0, 2.0, 3.0])
    with pytest.raises(DimensionError):
        get_potential("quadratic", dim=3).grad([1.0, 2.0])


def test_unknown_name_raises():
    with pytest.raises(ParameterError):
        get_potential("does-not-exist")


@pytest.mark.parametrize("name, params", [
    ("quadratic", {"foo": 3}),
    ("quadratic", {"name": 0}),
    ("quadratic", {"dim": "x"}),
    ("quadratic", {"dim": 2.5}),
    ("quadratic", {"dim": float("inf")}),
    ("quadratic", {"dim": 2**70}),
    ("torus-zero", {"dim": 0}),
    ("torus-cosine", {"a": float("nan")}),
    ("torus-cosine-1d", {"a": [1.0]}),
    ("bimodal1", {"dim": 2}),
])
def test_bad_builder_params_raise_parameter_error(name, params):
    with pytest.raises(ParameterError):
        get_potential(name, **params)


def test_torus_cosine_parameters():
    field = get_potential("torus-cosine", a=2.0, b=0.5)
    assert field.eval([0.0, 0.0]) == pytest.approx(2.5)
    assert field.params == {"a": 2.0, "b": 0.5}


def _stacked_gradient(name, z, a=1.0, b=1.0):
    """Each component formula of the catalog gradients, stacked: the reference
    the one-array implementations must equal bit for bit."""
    x, y = z[..., 0], z[..., 1]
    if name == "bimodal1":
        return np.stack([x * (x * x - 1.0), y], axis=-1)
    if name == "bimodal2":
        w = 3.0 * y + x**2 - 1.0
        return np.stack([4.0 * x * (x**2 - 1.0) + 2.0 * x * w, 3.0 * w], axis=-1)
    if name == "threewell":
        bump = np.exp(-8.0 * x**2 - 4.0 * y**2)
        gx = x * (x**2 - 1.0) * ((y**2 - 2.0) ** 2 + 1.0) - 16.0 * x * bump
        gy = y * (x**2 - 1.0) ** 2 * (y**2 - 2.0) + y - 0.125 - 8.0 * y * bump
        return np.stack([gx, gy], axis=-1)
    return np.stack([-a * np.sin(x), -b * np.sin(y)], axis=-1)


@pytest.mark.parametrize("name", ["bimodal1", "bimodal2", "threewell", "torus-cosine"])
@pytest.mark.parametrize("shape", [(2,), (5, 2), (30, 40, 2)])
def test_2d_gradients_equal_the_stacked_formulas_bitwise(name, shape):
    params = {"a": 0.7, "b": 1.3} if name == "torus-cosine" else {}
    field = get_potential(name, **params)
    z = np.random.default_rng(3).normal(size=shape) * 1.5
    got = field.grad_fn(z)
    assert got.shape == shape
    assert got.tobytes() == _stacked_gradient(name, z, **params).tobytes()
    # a strided view of the points gives the same bytes
    wide = np.concatenate([z, z[..., :1]], axis=-1)
    assert field.grad_fn(wide[..., :2]).tobytes() == got.tobytes()


#: The catalog entries with a ``rotation_flow``, with the params tested.
FLOWS = {"quadratic": {}, "bimodal1": {}, "torus-cosine": {"a": 0.5, "b": -0.7},
         "torus-zero": {"dim": 2}}


def flow_field(name):
    return get_potential(name, **FLOWS[name])


def advanced(field, z, a):
    """The points z advanced by the flow for time a, on a copy: the flow
    moves its argument in place."""
    moved = np.array(z, dtype=float)
    field.rotation_flow(moved, a)
    return moved


def rotational_field(field, z):
    """J2 grad U(z) = (dU/dy, -dU/dx)."""
    g = field.grad(z)
    return np.stack((g[..., 1], -g[..., 0]), axis=-1)


def test_flows_are_carried_by_the_separable_and_linear_entries():
    # bimodal2 and threewell are not separable: no explicit area-preserving step
    have = {name for name in ALL_NAMES if get_potential(name).rotation_flow is not None}
    assert have == set(FLOWS)


@pytest.mark.parametrize("name", sorted(FLOWS))
def test_rotation_flow_preserves_area(name):
    # det D Phi_a = 1, by central differences
    field, eps = flow_field(name), 1e-5
    z = sample_points(field, 20, seed=1)
    jac = np.empty(z.shape + (2,))
    for axis in range(2):
        shift = np.zeros(2)
        shift[axis] = eps
        jac[..., axis] = (advanced(field, z + shift, 0.3)
                          - advanced(field, z - shift, 0.3)) / (2.0 * eps)
    np.testing.assert_allclose(np.linalg.det(jac), 1.0, rtol=0, atol=1e-10)


@pytest.mark.parametrize("name", sorted(FLOWS))
def test_rotation_flow_backwards_undoes_it(name):
    field = flow_field(name)
    z = sample_points(field, 20, seed=2)
    for a in (0.3, np.linspace(-0.5, 0.5, 20)):  # one time, or one per point
        back = advanced(field, advanced(field, z, a), -a)
        np.testing.assert_allclose(back, z, rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", sorted(FLOWS))
def test_rotation_flow_follows_the_rotational_field(name):
    # (Phi_a(z) - z) / a -> J2 grad U(z) as a -> 0, at first order in a
    field = flow_field(name)
    z = sample_points(field, 20, seed=3)
    errors = [np.max(np.abs((advanced(field, z, a) - z) / a - rotational_field(field, z)))
              for a in (1e-3, 1e-4)]
    assert errors[0] <= 0.1
    assert errors[1] <= errors[0] / 5.0 + 1e-10


@pytest.mark.parametrize("name", sorted(FLOWS))
def test_rotation_flow_energy_error_is_third_order(name):
    # the flow conserves U; one step's error shrinks ~8x per halving of a
    field = flow_field(name)
    z = sample_points(field, 50, seed=4)
    errors = [np.max(np.abs(field.eval(advanced(field, z, a)) - field.eval(z)))
              for a in (0.02, 0.01)]
    assert errors[1] <= errors[0] / 6.0 + 1e-14


@pytest.mark.parametrize("name", sorted(FLOWS))
def test_rotation_flow_for_time_zero_is_the_identity(name):
    field = flow_field(name)
    z = sample_points(field, 20, seed=5)
    np.testing.assert_array_equal(advanced(field, z, 0.0), z)
    np.testing.assert_array_equal(advanced(field, z, np.zeros(20)), z)


@pytest.mark.parametrize("name", sorted(FLOWS))
@pytest.mark.parametrize("per_point", [False, True])
def test_rotation_flow_moves_its_argument_and_returns_the_gradient_there(name, per_point):
    # the sampler feeds the returned gradient to its next step instead of
    # calling grad_fn, so the bytes must be those of grad_fn
    field = flow_field(name)
    z = sample_points(field, 20, seed=6)
    a = np.linspace(-0.5, 0.5, 20) if per_point else 0.3
    moved = z.copy()
    grads = field.rotation_flow(moved, a)
    assert not np.array_equal(moved, z) or name == "torus-zero"  # grad U = 0 there
    assert grads.shape == z.shape
    assert grads.tobytes() == field.grad_fn(moved).tobytes()
    # a fresh array, as grad_fn's is: moving the points again leaves it as it is
    assert not np.shares_memory(grads, moved)
