import math
import warnings

import numpy as np
import pytest

from irrlangevin.drift import J2, make_constant_drift, make_rotational_drift
from irrlangevin.errors import DimensionError, ParameterError, PropagationError
from irrlangevin.estimators import OBSERVABLES, ergodic_average
from irrlangevin.potentials import get_potential
from irrlangevin.rng import NORMAL_ALGORITHM, NormalStream
from irrlangevin.sampler import (
    SdeConfig,
    _affine_drift,
    load_trajectory,
    save_trajectory,
    simulate,
    simulate_cells,
    stable_substeps,
)

QUAD = get_potential("quadratic")


class _FixedNormals:
    """A stream whose only normals are the given ones."""

    def __init__(self, normals):
        self._normals = np.asarray(normals, dtype=float)

    def normals(self, n):
        assert n == self._normals.size
        return self._normals


def em_step(state, potential, drift, diffusion, dt, noise):
    """One Euler-Maruyama update: one ``simulate_cells`` cell for one step,
    driven by the given normals."""
    return simulate_cells(potential, [drift], diffusion, dt, 1, [state],
                          [_FixedNormals(noise)])[0, 1]


def series(config, observable):
    """The one-cell ``simulate_cells`` series of f(Z_t) that ``simulate``
    would record as states."""
    return simulate_cells(
        config.potential, [config.drift], config.diffusion, config.dt, config.n_steps,
        [config.initial], [NormalStream(config.seed, config.stream_id)],
        observable=observable, substeps=config.substeps)[0]


def quad_config(**kw):
    base = dict(
        potential=QUAD, drift=None, diffusion=0.1, dt=1e-3, horizon=1.0,
        initial=(1.0, 1.0), seed=1,
    )
    base.update(kw)
    return SdeConfig(**base)


def test_em_step_deterministic_euler():
    out = em_step([1.0, 0.0], QUAD, None, 0.0, 0.5, [0.0, 0.0])
    np.testing.assert_allclose(out, [0.5, 0.0])


def test_em_step_with_rotation():
    drift = make_rotational_drift(J2, QUAD, 1.0)
    out = em_step([1.0, 0.0], QUAD, drift, 0.0, 0.5, [0.0, 0.0])
    np.testing.assert_allclose(out, [0.5, -0.5])


def test_em_step_noise_scaling():
    out = em_step([0.0, 0.0], QUAD, None, 0.5, 0.25, [1.0, -1.0])
    s = math.sqrt(2 * 0.5 * 0.25)
    np.testing.assert_allclose(out, [s, -s])


def test_em_step_halving_consistency():
    # two half steps differ from one full step by O(dt^2) on the quadratic
    for dt in (0.2, 0.1):
        full = em_step([1.0, 0.5], QUAD, None, 0.0, dt, [0.0, 0.0])
        half = em_step([1.0, 0.5], QUAD, None, 0.0, dt / 2, [0.0, 0.0])
        half = em_step(half, QUAD, None, 0.0, dt / 2, [0.0, 0.0])
        gap = np.max(np.abs(full - half))
        assert gap <= dt**2
    coarse = np.max(np.abs(
        em_step([1.0, 0.5], QUAD, None, 0.0, 0.2, [0.0, 0.0])
        - em_step(em_step([1.0, 0.5], QUAD, None, 0.0, 0.1, [0.0, 0.0]),
                  QUAD, None, 0.0, 0.1, [0.0, 0.0])
    ))
    fine = np.max(np.abs(
        em_step([1.0, 0.5], QUAD, None, 0.0, 0.1, [0.0, 0.0])
        - em_step(em_step([1.0, 0.5], QUAD, None, 0.0, 0.05, [0.0, 0.0]),
                  QUAD, None, 0.0, 0.05, [0.0, 0.0])
    ))
    assert coarse / fine >= 3.0


def test_em_step_rejects_non_finite():
    # a non-finite initial state or normal is a blow-up at the first step
    for state, noise in (([np.inf, 0.0], [0.0, 0.0]), ([0.0, 0.0], [np.nan, 0.0])):
        with pytest.raises(PropagationError) as err:
            em_step(state, QUAD, None, 0.1, 0.1, noise)
        assert err.value.step_index == 1


def test_trajectory_length_contract():
    traj = simulate(quad_config(horizon=0.5))
    assert len(traj) == 501
    assert traj.times[-1] == pytest.approx(0.5)


def test_deterministic_gradient_flow_decay():
    cfg = quad_config(diffusion=0.0, horizon=10.0, initial=(1.0, 1.0))
    traj = simulate(cfg)
    expected = math.exp(-10.0)
    assert np.max(np.abs(traj.states[-1] - expected)) <= 1e-2


def test_bitwise_reproducibility():
    cfg = quad_config(diffusion=0.1, horizon=2.0, seed=77, stream_id=3)
    a = simulate(cfg)
    b = simulate(cfg)
    np.testing.assert_array_equal(a.states, b.states)


def test_chunk_size_does_not_change_bytes():
    cfg = quad_config(diffusion=0.1, horizon=2.0, seed=5)
    a = simulate(cfg, chunk_size=100)
    b = simulate(cfg, chunk_size=4096)
    np.testing.assert_array_equal(a.states, b.states)


def test_series_matches_materialized_states():
    cfg = quad_config(diffusion=0.1, horizon=1.0, seed=11)
    traj = simulate(cfg)
    sumsq = series(cfg, OBSERVABLES["sumsq"].fn)
    np.testing.assert_array_equal(sumsq, np.sum(traj.states**2, axis=-1))


def test_substeps_keep_recording_grid():
    # deterministic flow: substeps refine the integration error but the
    # recording grid is unchanged
    cfg1 = quad_config(diffusion=0.0, dt=0.1, horizon=1.0, substeps=1)
    cfg4 = quad_config(diffusion=0.0, dt=0.1, horizon=1.0, substeps=4)
    a, b = simulate(cfg1), simulate(cfg4)
    assert len(a) == len(b) == 11
    exact = np.exp(-a.times)[:, None] * np.array(cfg1.initial)
    err1 = np.max(np.abs(a.states - exact))
    err4 = np.max(np.abs(b.states - exact))
    assert 0 < err4 < err1


def test_substeps_consume_independent_noise():
    cfg1 = quad_config(diffusion=0.1, horizon=1.0, seed=2, substeps=1)
    cfg4 = quad_config(diffusion=0.1, horizon=1.0, seed=2, substeps=4)
    a, b = simulate(cfg1), simulate(cfg4)
    assert len(a) == len(b)
    assert not np.array_equal(a.states, b.states)


def test_blowup_reports_step_index():
    # gradient flow on the quadratic with dt = 3 has multiplier |1-3| = 2,
    # overflowing float64 after ~1024 doublings
    cfg = quad_config(diffusion=0.0, dt=3.0, horizon=3600.0, initial=(1.0, 1.0))
    with pytest.raises(PropagationError) as err:
        simulate(cfg)
    assert err.value.step_index is not None
    assert err.value.step_index > 0


@pytest.mark.parametrize("chunk_size", [7, 100, 8192])
@pytest.mark.parametrize("dt, substeps, step_index", [(3.0, 1, 1024), (12.0, 4, 256)])
def test_blowup_step_index_is_first_non_finite_recorded_step(dt, substeps, step_index,
                                                             chunk_size):
    # x_n = (-2)^n per update of size 3 leaves float64 at update 1024, i.e.
    # recorded step 1024 / substeps, wherever the chunk boundaries fall
    cfg = quad_config(diffusion=0.0, dt=dt, horizon=3600.0, substeps=substeps)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PropagationError) as err:
            simulate(cfg, chunk_size=chunk_size)
    assert err.value.step_index == step_index


@pytest.mark.parametrize("delta", [None, 3.7])
def test_em_step_is_the_loop_update(delta):
    # one recorded step consumes the stream's first d normals, coordinate-minor
    bimodal = get_potential("bimodal1")
    drift = None if delta is None else make_rotational_drift(J2, bimodal, delta)
    x0 = np.array([0.3, -0.8])
    one = em_step(x0, bimodal, drift, 0.1, 1e-2, NormalStream(5, 9).normals(2))
    cells = simulate_cells(bimodal, [drift], 0.1, 1e-2, 1, [x0], [NormalStream(5, 9)])
    np.testing.assert_array_equal(one, cells[0, 1])


def _bimodal_drift(kind, delta, potential=None):
    bimodal = potential or get_potential("bimodal1")
    if kind == "constant":
        return make_constant_drift([1.0, -0.5], delta)
    if kind == "rotational":
        return make_rotational_drift(J2, bimodal, delta)
    return None


@pytest.mark.parametrize("delta", [0.37, 3.7, 100.0])
@pytest.mark.parametrize("kind", ["none", "constant", "rotational"])
def test_em_step_is_the_literal_euler_maruyama_update(kind, delta):
    # z + (C(z) - grad U(z)) dt + sqrt(2 D dt) w, written out here as the oracle
    bimodal = get_potential("bimodal1")
    drift = _bimodal_drift(kind, delta, bimodal)
    diffusion, dt = 0.1, 1e-3
    rng = np.random.default_rng(7)
    for z in rng.uniform(0.2, 1.5, size=(5, 2)) * [1.0, -1.0]:
        w = rng.standard_normal(2)
        c = 0.0 if drift is None else drift.eval(z)
        literal = z + (c - bimodal.grad(z)) * dt + math.sqrt(2 * diffusion * dt) * w
        np.testing.assert_allclose(em_step(z, bimodal, drift, diffusion, dt, w), literal,
                                   rtol=1e-14, atol=0)


def test_cells_with_different_drifts_match_one_cell_runs():
    # the per-cell (n, d, d) drift matrix against one (d, d) matrix per run
    bimodal = get_potential("bimodal1")
    drifts = [None, _bimodal_drift("constant", 2.0), _bimodal_drift("rotational", 3.7)]
    initials = [(0.3, -0.8), (-1.1, 0.2), (0.9, 0.5)]
    together = simulate_cells(bimodal, drifts, 0.1, 1e-2, 100, initials,
                              [NormalStream(4, i) for i in range(3)], substeps=4)
    for i, drift in enumerate(drifts):
        alone = simulate_cells(bimodal, [drift], 0.1, 1e-2, 100, [initials[i]],
                               [NormalStream(4, i)], substeps=4)
        np.testing.assert_allclose(together[i], alone[0], rtol=0, atol=1e-12)


def test_rotational_drift_of_an_equal_potential_is_accepted():
    # a drift built on another bimodal1 object drives the same dynamics
    bimodal = get_potential("bimodal1")
    runs = [simulate_cells(bimodal, [_bimodal_drift("rotational", 3.7, potential)], 0.1,
                           1e-2, 50, [(0.3, -0.8)], [NormalStream(2, 0)])
            for potential in (bimodal, get_potential("bimodal1"))]
    np.testing.assert_array_equal(runs[0], runs[1])


def test_reversible_and_constant_drifts_build_no_dense_matrix():
    # M = -I stays a scalar, so a high-dimensional reversible run costs O(d)
    field = get_potential("quadratic", dim=4096)
    for drifts in ([None], [None, make_constant_drift(np.ones(4096), 0.5)]):
        assert _affine_drift(field, drifts)[0] == -1.0


class _NoNormals(NormalStream):
    def normals(self, n):
        raise AssertionError("normals drawn before the inputs were checked")


class _EvalOnly:
    def eval(self, x):
        return np.zeros_like(x)


@pytest.mark.parametrize("entry", ["simulate_cells", "em_step"])
@pytest.mark.parametrize("drift", [
    pytest.param(make_rotational_drift(J2, get_potential("bimodal2"), 1.0),
                 id="rotational_of_another_potential"),
    pytest.param(make_rotational_drift(J2, get_potential("quadratic", dim=2), 1.0),
                 id="rotational_of_quadratic"),
    pytest.param(_EvalOnly(), id="object_with_eval"),
    pytest.param(make_constant_drift([1.0, 0.0, 0.0], 1.0), id="constant_of_wrong_dim"),
])
def test_drift_outside_the_affine_form_is_parameter_error(entry, drift):
    bimodal = get_potential("bimodal1")
    with pytest.raises(ParameterError):
        if entry == "simulate_cells":
            simulate_cells(bimodal, [None, drift], 0.1, 1e-3, 10, [(1.0, 1.0)] * 2,
                           [_NoNormals(1), _NoNormals(2)])
        else:
            em_step([1.0, 1.0], bimodal, drift, 0.1, 1e-3, [0.0, 0.0])


@pytest.mark.parametrize("entry", ["simulate_cells", "em_step", "SdeConfig"])
@pytest.mark.parametrize("bad", [
    pytest.param({"diffusion": -0.1}, id="negative_diffusion"),
    pytest.param({"diffusion": math.nan}, id="nan_diffusion"),
    pytest.param({"diffusion": math.inf}, id="inf_diffusion"),
    pytest.param({"dt": -1e-3}, id="negative_dt"),
    pytest.param({"dt": 0.0}, id="zero_dt"),
    pytest.param({"dt": math.nan}, id="nan_dt"),
    pytest.param({"dt": math.inf}, id="inf_dt"),
])
def test_bad_dt_or_diffusion_is_parameter_error(entry, bad):
    kw = {"diffusion": 0.1, "dt": 1e-3, **bad}
    with pytest.raises(ParameterError):
        if entry == "simulate_cells":
            simulate_cells(QUAD, [None], kw["diffusion"], kw["dt"], 10, [(1.0, 1.0)],
                           [_NoNormals(1)])
        elif entry == "em_step":
            em_step([1.0, 1.0], QUAD, None, kw["diffusion"], kw["dt"], [0.0, 0.0])
        else:
            quad_config(**kw)


def test_wrong_initial_count_is_dimension_error():
    with pytest.raises(DimensionError):
        simulate_cells(QUAD, [None, None], 0.1, 1e-3, 10, [(1.0, 1.0)],
                       [_NoNormals(1), _NoNormals(2)])


def test_ragged_initials_are_dimension_error():
    with pytest.raises(DimensionError):
        simulate_cells(QUAD, [None, None], 0.1, 1e-3, 10, [(1.0, 1.0), (1.0,)],
                       [_NoNormals(1), _NoNormals(2)])


def test_negative_step_count_is_parameter_error():
    with pytest.raises(ParameterError, match="n_steps"):
        simulate_cells(QUAD, [None], 0.1, 1e-3, -3, [(1.0, 1.0)], [_NoNormals(1)])


def test_em_step_overflow_is_propagation_error_not_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PropagationError):
            em_step([1e308, 1e308], get_potential("bimodal1"), None, 0.1, 1.0, [0, 0])


def test_invalid_configs_rejected():
    with pytest.raises(ParameterError):
        quad_config(dt=-1.0)
    with pytest.raises(ParameterError):
        quad_config(horizon=1e-6)
    with pytest.raises(ParameterError):
        quad_config(diffusion=-0.1)
    with pytest.raises(DimensionError):
        quad_config(initial=(1.0,))
    with pytest.raises(ParameterError):
        quad_config(substeps=0)


def test_trajectory_file_roundtrip(tmp_path):
    drift = make_rotational_drift(J2, QUAD, 2.0)
    cfg = quad_config(drift=drift, diffusion=0.2, horizon=0.2, seed=9)
    traj = simulate(cfg)
    path = tmp_path / "run.traj"
    save_trajectory(traj, path)
    header, states = load_trajectory(path)
    np.testing.assert_array_equal(states, traj.states)
    assert header["config"]["potential"]["name"] == "quadratic"
    assert header["config"]["drift"] == {"kind": "rotational", "delta": 2.0}
    assert header["config"]["seed"] == 9
    assert header["rng"] == NORMAL_ALGORITHM


def test_stream_independence_of_increments():
    cfgs = [quad_config(diffusion=0.1, horizon=10.0, seed=3, stream_id=sid)
            for sid in (0, 1)]
    inc = [np.diff(simulate(c).states[:, 0]) for c in cfgs]
    n = len(inc[0])
    corr = np.corrcoef(inc[0], inc[1])[0, 1]
    assert abs(corr) <= 3.0 / math.sqrt(n)


def test_stable_substeps_rule():
    assert stable_substeps(0.0, 1e-3) == 1
    assert stable_substeps(10.0, 1e-3) == 1
    assert stable_substeps(100.0, 1e-3) == 40


def test_ou_moment_short_horizon():
    # E[x^2 + y^2] = 2D for the stationary quadratic diffusion
    cfg = quad_config(diffusion=0.1, horizon=300.0, seed=12, initial=(0.0, 0.0))
    avg = ergodic_average(series(cfg, OBSERVABLES["sumsq"].fn), cfg.dt, burn_in=5.0)
    assert avg == pytest.approx(0.2, rel=0.15)


@pytest.mark.slow
def test_invariant_mean_unchanged_by_drift():
    # the ergodic average of x^2 + y^2 must not depend on delta
    sumsq = OBSERVABLES["sumsq"].fn
    horizon, dt = 2000.0, 1e-3
    n_steps = int(round(horizon / dt))
    averages = {}
    for delta in (0.0, 10.0):
        drift = make_rotational_drift(J2, QUAD, delta) if delta else None
        series = simulate_cells(
            QUAD, [drift], 0.1, dt, n_steps, [(1.0, 1.0)],
            [NormalStream(21, int(delta))], observable=sumsq,
            substeps=stable_substeps(delta, dt),
        )
        averages[delta] = ergodic_average(series[0], dt, burn_in=5.0)
    for delta, avg in averages.items():
        assert avg == pytest.approx(0.2, rel=0.10), f"delta={delta}"
