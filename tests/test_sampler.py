import math
import tracemalloc
import warnings

import numpy as np
import pytest

from irrlangevin import sampler
from irrlangevin.cli import ExperimentConfig
from irrlangevin.drift import Drift
from irrlangevin.errors import (
    ConfigError, DimensionError, ParameterError, PropagationError,
)
from irrlangevin.estimators import OBSERVABLES, batch_means
from irrlangevin.potentials import get_potential
from irrlangevin.rng import NormalStream
from irrlangevin.sampler import (
    BLOCK_VALUES,
    NOISE_CHUNK,
    _affine_drift,
    simulate_cells,
    stable_substeps,
)
from oracles import split_chain_moments, split_rule_reference

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


def run(drift=None, diffusion=0.1, dt=1e-3, n_steps=1000, initial=(1.0, 1.0), seed=1,
        stream_id=0, substeps=1, observable=None, chunk_size=NOISE_CHUNK):
    """One ``simulate_cells`` cell on quadratic U: its states at 0, dt, ...,
    n_steps dt, or the series of ``observable`` on them."""
    return simulate_cells(QUAD, [drift], diffusion, dt, n_steps, [initial],
                          [NormalStream(seed, stream_id)], observable=observable,
                          substeps=substeps, chunk_size=chunk_size)[0]


def test_em_step_deterministic_euler():
    out = em_step([1.0, 0.0], QUAD, None, 0.0, 0.5, [0.0, 0.0])
    np.testing.assert_allclose(out, [0.5, 0.0])


def test_em_step_with_rotation():
    # the Euler step of -grad U gives (0.5, 0), then the exact flow of
    # z' = J2 z rotates it by delta * dt = 0.5
    drift = Drift(1.0)
    out = em_step([1.0, 0.0], QUAD, drift, 0.0, 0.5, [0.0, 0.0])
    np.testing.assert_allclose(out, [0.5 * math.cos(0.5), -0.5 * math.sin(0.5)],
                               rtol=1e-15)


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
    # n_steps recorded steps after the initial state, on every path
    assert run(n_steps=500).shape == (501, 2)
    assert run(n_steps=500, observable=OBSERVABLES["sumsq"].fn).shape == (501,)
    assert run(n_steps=0).tolist() == [[1.0, 1.0]]
    # and with no cells at all
    none = (QUAD, [], 0.1, 1e-3, 500, [], [])
    assert simulate_cells(*none).shape == (0, 501, 2)
    assert simulate_cells(*none, observable=OBSERVABLES["sumsq"].fn).shape == (0, 501)


def test_deterministic_gradient_flow_decay():
    states = run(diffusion=0.0, n_steps=10000, initial=(1.0, 1.0))
    expected = math.exp(-10.0)
    assert np.max(np.abs(states[-1] - expected)) <= 1e-2


def test_bitwise_reproducibility():
    a = run(diffusion=0.1, n_steps=2000, seed=77, stream_id=3)
    b = run(diffusion=0.1, n_steps=2000, seed=77, stream_id=3)
    np.testing.assert_array_equal(a, b)


def test_chunk_size_does_not_change_bytes():
    a = run(diffusion=0.1, n_steps=2000, seed=5, chunk_size=100)
    b = run(diffusion=0.1, n_steps=2000, seed=5, chunk_size=4096)
    np.testing.assert_array_equal(a, b)


def test_series_matches_materialized_states():
    states = run(diffusion=0.1, seed=11)
    sumsq = run(diffusion=0.1, seed=11, observable=OBSERVABLES["sumsq"].fn)
    np.testing.assert_array_equal(sumsq, np.sum(states**2, axis=-1))


def test_substeps_keep_recording_grid():
    # deterministic flow: substeps refine the integration error but the
    # recording grid is unchanged
    a = run(diffusion=0.0, dt=0.1, n_steps=10, substeps=1)
    b = run(diffusion=0.0, dt=0.1, n_steps=10, substeps=4)
    assert len(a) == len(b) == 11
    exact = np.exp(-0.1 * np.arange(11))[:, None] * np.array([1.0, 1.0])
    err1 = np.max(np.abs(a - exact))
    err4 = np.max(np.abs(b - exact))
    assert 0 < err4 < err1


def test_substeps_consume_independent_noise():
    a = run(diffusion=0.1, seed=2, substeps=1)
    b = run(diffusion=0.1, seed=2, substeps=4)
    assert len(a) == len(b)
    assert not np.array_equal(a, b)


def test_blowup_reports_step_index():
    # gradient flow on the quadratic with dt = 3 has multiplier |1-3| = 2,
    # overflowing float64 after ~1024 doublings
    with pytest.raises(PropagationError) as err:
        run(diffusion=0.0, dt=3.0, n_steps=1200, initial=(1.0, 1.0))
    assert err.value.step_index is not None
    assert err.value.step_index > 0


@pytest.mark.parametrize("chunk_size", [7, 100, 8192])
@pytest.mark.parametrize("dt, substeps, step_index", [(3.0, 1, 1024), (12.0, 4, 256)])
def test_blowup_step_index_is_first_non_finite_recorded_step(dt, substeps, step_index,
                                                             chunk_size):
    # x_n = (-2)^n per update of size 3 leaves float64 at update 1024, i.e.
    # recorded step 1024 / substeps, wherever the chunk boundaries fall
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PropagationError) as err:
            run(diffusion=0.0, dt=dt, n_steps=round(3600.0 / dt), substeps=substeps,
                chunk_size=chunk_size)
    assert err.value.step_index == step_index


def test_blowup_names_the_first_non_finite_cell():
    # x_n = (-2)^n x_0 leaves float64 at step 24 from x_0 = 2^1000, at 1024 from 1
    initials = [(1.0, 1.0), (2.0**1000, 1.0), (1.0, 2.0**1000)]
    with pytest.raises(PropagationError, match=r"at step 24 \(t = 72\) in cell 1;") as err:
        simulate_cells(QUAD, [None] * 3, 0.0, 3.0, 100, initials,
                       [NormalStream(1, i) for i in range(3)], chunk_size=10)
    assert err.value.step_index == 24


def test_one_noise_chunk_is_alive_at_a_time():
    # the state carried into the next chunk is a copy, so the previous
    # chunk is freed before the next one is drawn
    cells, chunk, n_steps = 20, 500, 3000
    streams = [NormalStream(2, i) for i in range(cells)]
    NormalStream(0).normals(1)  # import the normal quantile outside the trace
    tracemalloc.start()
    try:
        out = simulate_cells(QUAD, [None] * cells, 0.1, 1e-3, n_steps, [(1.0, 1.0)] * cells,
                             streams, chunk_size=chunk)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 1.5 * chunk * cells * 2 * 8


@pytest.mark.parametrize("substeps", [1, 3])
def test_observable_sees_at_most_block_values_per_call(substeps):
    # a chunk of 5000 recorded steps reaches the observable one block at a
    # time, so its temporaries stay within BLOCK_VALUES values, not a
    # fraction of the chunk; each row reduces on its own, so the series
    # equals the observable of the recorded states
    sumsq = OBSERVABLES["sumsq"].fn
    shapes = []

    def spy(z):
        shapes.append(z.shape)
        return sumsq(z)

    n_steps, cells, d = 5000, 60, 2
    args = (QUAD, [Drift(2.0)] * cells, 0.1, 1e-3, n_steps, [(1.0, 1.0)] * cells)
    series = simulate_cells(*args, [NormalStream(4, i) for i in range(cells)],
                            observable=spy, substeps=substeps, chunk_size=5000 * substeps)
    states = simulate_cells(*args, [NormalStream(4, i) for i in range(cells)],
                            substeps=substeps, chunk_size=5000 * substeps)
    # the initial states come as one (cells, d) block, then the recorded steps
    assert shapes[0] == (cells, d)
    assert all(shape[1:] == (cells, d) for shape in shapes[1:])
    rows = [shape[0] for shape in shapes[1:]]
    assert max(rows) * cells * d <= BLOCK_VALUES
    assert len(rows) > 4 and sum(rows) == n_steps
    np.testing.assert_array_equal(series, sumsq(states))


@pytest.mark.parametrize("delta", [None, 3.7])
def test_em_step_is_the_loop_update(delta):
    # one recorded step consumes the stream's first d normals, coordinate-minor
    bimodal = get_potential("bimodal1")
    drift = None if delta is None else Drift(delta)
    x0 = np.array([0.3, -0.8])
    one = em_step(x0, bimodal, drift, 0.1, 1e-2, NormalStream(5, 9).normals(2))
    cells = simulate_cells(bimodal, [drift], 0.1, 1e-2, 1, [x0], [NormalStream(5, 9)])
    np.testing.assert_array_equal(one, cells[0, 1])


def _bimodal_drift(kind, delta):
    if kind == "constant":
        return Drift(delta, [1.0, -0.5])
    if kind == "rotational":
        return Drift(delta)
    return None


@pytest.mark.parametrize("delta", [0.37, 3.7, 100.0])
@pytest.mark.parametrize("kind", ["none", "constant", "rotational"])
def test_em_step_is_the_literal_euler_maruyama_update(kind, delta):
    # z + (c - grad U(z)) dt + sqrt(2 D dt) w, written out here as the oracle;
    # a rotational drift then moves it by one Stormer-Verlet step of
    # x' = y, y' = -(x^3 - x) for time delta dt
    bimodal = get_potential("bimodal1")
    drift = _bimodal_drift(kind, delta)
    diffusion, dt = 0.1, 1e-3
    rng = np.random.default_rng(7)
    for z in rng.uniform(0.2, 1.5, size=(5, 2)) * [1.0, -1.0]:
        w = rng.standard_normal(2)
        c = drift.delta * drift.base_eval(bimodal, z) if kind == "constant" else 0.0
        literal = z + (c - bimodal.grad(z)) * dt + math.sqrt(2 * diffusion * dt) * w
        if kind == "rotational":
            x, y, a = *literal, delta * dt
            y = y - a / 2 * x * (x * x - 1.0)
            x = x + a * y
            literal = np.array([x, y - a / 2 * x * (x * x - 1.0)])
        np.testing.assert_allclose(em_step(z, bimodal, drift, diffusion, dt, w), literal,
                                   rtol=1e-14, atol=0)


@pytest.mark.parametrize("name", ["bimodal2", "threewell"])
def test_rotation_without_a_flow_stays_in_the_euler_update(name):
    # z + (delta J2 grad U(z) - grad U(z)) dt + sqrt(2 D dt) w, as the oracle
    potential = get_potential(name)
    drift = Drift(3.7)
    diffusion, dt = 0.1, 1e-3
    rng = np.random.default_rng(8)
    for z in rng.uniform(-1.5, 1.5, size=(5, 2)):
        w = rng.standard_normal(2)
        literal = (z + (drift.delta * drift.base_eval(potential, z) - potential.grad(z)) * dt
                   + math.sqrt(2 * diffusion * dt) * w)
        np.testing.assert_allclose(em_step(z, potential, drift, diffusion, dt, w),
                                   literal, rtol=1e-13, atol=1e-16)


@pytest.mark.parametrize("name, params", [("bimodal1", {}),
                                          ("torus-cosine", {"a": 0.5, "b": -0.7}),
                                          ("quadratic", {})])
def test_split_rule_equals_its_step_by_step_reference_bitwise(name, params):
    # chunks of 2 recorded steps (6 substeps): each flow's gradient feeds the
    # next substep within a chunk, and each chunk starts from a fresh grad_fn
    potential = get_potential(name, **params)
    deltas = [0.0, 10.0, 100.0]
    drifts = [None if delta == 0.0 else Drift(delta) for delta in deltas]
    initials = [(0.3, -0.8), (-1.1, 0.2), (0.9, 0.5)]
    got = simulate_cells(potential, drifts, 0.1, 1e-2, 25, initials,
                         [NormalStream(4, i) for i in range(3)], substeps=3, chunk_size=7)
    want = split_rule_reference(potential, deltas, 0.1, 1e-2, 25, initials,
                                [NormalStream(4, i) for i in range(3)], substeps=3)
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("name", ["bimodal1", "bimodal2"])  # with a flow, without one
@pytest.mark.parametrize("substeps", [1, 3])
@pytest.mark.parametrize("cells, block_values", [(1, BLOCK_VALUES), (15, BLOCK_VALUES),
                                                 (300, BLOCK_VALUES), (300, 2**15)])
def test_blocked_noise_path_equals_the_split_rule_reference_bitwise(
        name, substeps, cells, block_values, monkeypatch):
    # two chunks, the first of 1001 // substeps recorded steps, which is no
    # multiple of the block: 1 and 15 cells take a quarter chunk, 300 cells
    # the BLOCK_VALUES share, or the 64-step floor when the values allow fewer
    monkeypatch.setattr(sampler, "BLOCK_VALUES", block_values)
    potential = get_potential(name)
    deltas = [3.7] if cells == 1 else [(0.0, 5.0, -3.7)[i % 3] for i in range(cells)]
    drifts = [None if delta == 0.0 else Drift(delta) for delta in deltas]
    initials = [(0.3 + 0.01 * i, -0.8) for i in range(cells)]
    n_steps = 1100 // substeps
    got = simulate_cells(potential, drifts, 0.1, 1e-3, n_steps, initials,
                         [NormalStream(6, i) for i in range(cells)], substeps=substeps,
                         chunk_size=1001)
    want = split_rule_reference(potential, deltas, 0.1, 1e-3, n_steps, initials,
                                [NormalStream(6, i) for i in range(cells)], substeps)
    assert got.tobytes() == want.tobytes()


def test_a_blowup_in_a_later_block_names_the_oracles_first_non_finite_row():
    # x_n = (-2)^n x_0 on quadratic U at dt 3 leaves float64 at step 1024 - k
    # from x_0 = 2^k: cells 250 and 100 leave at step 424, in the second block
    # (218 steps) of the first chunk, and cell 100 comes first in that row
    cells = 300
    initials = [(1.0, 1.0)] * cells
    initials[250] = initials[100] = (2.0**600, 1.0)
    args = (0.1, 3.0, 600, initials)
    with pytest.raises(PropagationError) as err:
        simulate_cells(QUAD, [None] * cells, *args,
                       [NormalStream(7, i) for i in range(cells)], chunk_size=1001)
    with np.errstate(over="ignore", invalid="ignore"):
        states = split_rule_reference(QUAD, [0.0] * cells, *args,
                                      [NormalStream(7, i) for i in range(cells)], 1)
    step, cell = np.argwhere(~np.isfinite(states).all(axis=-1).T)[0]
    assert (err.value.step_index, err.value.cell_index) == (step, cell) == (424, 100)


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
    # a drift holds no potential: one drift on two bimodal1 objects drives
    # the same dynamics
    drift = _bimodal_drift("rotational", 3.7)
    runs = [simulate_cells(get_potential("bimodal1"), [drift], 0.1, 1e-2, 50,
                           [(0.3, -0.8)], [NormalStream(2, 0)])
            for _ in range(2)]
    np.testing.assert_array_equal(runs[0], runs[1])


def test_reversible_and_constant_drifts_build_no_dense_matrix():
    # M = -I stays a scalar, so a high-dimensional reversible run costs O(d)
    field = get_potential("quadratic", dim=4096)
    for drifts in ([None], [None, Drift(0.5, np.ones(4096))]):
        assert _affine_drift(field, drifts)[0] == -1.0


class _NoNormals(NormalStream):
    def normals(self, n):
        raise AssertionError("normals drawn before the inputs were checked")


class _EvalOnly:
    def eval(self, x):
        return np.zeros_like(x)


@pytest.mark.parametrize("entry", ["simulate_cells", "em_step"])
@pytest.mark.parametrize("drift", [
    pytest.param(_EvalOnly(), id="object_with_eval"),
    pytest.param(Drift(1.0, [1.0, 0.0, 0.0]), id="constant_of_wrong_dim"),
])
def test_drift_outside_the_affine_form_is_parameter_error(entry, drift):
    bimodal = get_potential("bimodal1")
    with pytest.raises(ParameterError):
        if entry == "simulate_cells":
            simulate_cells(bimodal, [None, drift], 0.1, 1e-3, 10, [(1.0, 1.0)] * 2,
                           [_NoNormals(1), _NoNormals(2)])
        else:
            em_step([1.0, 1.0], bimodal, drift, 0.1, 1e-3, [0.0, 0.0])


@pytest.mark.parametrize("entry", ["simulate_cells", "em_step", "ExperimentConfig"])
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
    # the config layer checks the same values and reports a ConfigError
    with pytest.raises(ConfigError if entry == "ExperimentConfig" else ParameterError):
        if entry == "simulate_cells":
            simulate_cells(QUAD, [None], kw["diffusion"], kw["dt"], 10, [(1.0, 1.0)],
                           [_NoNormals(1)])
        elif entry == "em_step":
            em_step([1.0, 1.0], QUAD, None, kw["diffusion"], kw["dt"], [0.0, 0.0])
        else:
            ExperimentConfig(potential="quadratic", deltas=(0.0,), horizon=1.0,
                             burn_in=0.1, seeds=(1,), **kw)


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
    # dt and diffusion: test_bad_dt_or_diffusion_is_parameter_error
    with pytest.raises(DimensionError):
        run(initial=(1.0,))
    with pytest.raises(ParameterError, match="substeps"):
        run(substeps=0)


def test_stream_independence_of_increments():
    inc = [np.diff(run(diffusion=0.1, n_steps=10000, seed=3, stream_id=sid)[:, 0])
           for sid in (0, 1)]
    n = len(inc[0])
    corr = np.corrcoef(inc[0], inc[1])[0, 1]
    assert abs(corr) <= 3.0 / math.sqrt(n)


def test_stable_substeps_rule():
    # split: ceil(|delta| dt / 0.1); rotation in the Euler step: ceil(4 delta^2 dt)
    for split in (True, False):
        assert stable_substeps(0.0, 1e-3, split) == 1
        assert stable_substeps(10.0, 1e-3, split) == 1
    assert stable_substeps(100.0, 1e-3, True) == 1
    assert stable_substeps(-100.0, 1e-2, True) == 10
    assert stable_substeps(100.0, 1e-3, False) == 40
    # the config applies the rule of the potential it samples
    for name, substeps in (("quadratic", 1), ("bimodal1", 1), ("torus-cosine", 1),
                           ("bimodal2", 40), ("threewell", 40)):
        config = ExperimentConfig(potential=name, deltas=(100.0,), diffusion=0.1,
                                  dt=1e-3, horizon=1.0, burn_in=0.1, seeds=(1,))
        assert config.substeps_at(100.0) == substeps, name
    with pytest.raises(ParameterError, match="too large for automatic substeps"):
        stable_substeps(1e308, 1e3, True)


def substep_radius(delta, dt):
    """The spectral radius of one sampler substep on quadratic U at
    ``stable_substeps(delta, dt, split=True)``, and the substep size h.  The
    update is linear there, Z <- Z A with A = (1 - h) R(delta h) for the
    rotation R of the exact flow, so one noiseless recorded step from e1 and
    e2 gives the rows of A^n."""
    n = stable_substeps(delta, dt, split=True)
    power = simulate_cells(QUAD, [Drift(delta)] * 2, 0.0, dt, 1, np.eye(2),
                           [NormalStream(0, i) for i in (0, 1)], substeps=n)[:, 1]
    return np.max(np.abs(np.linalg.eigvals(power))) ** (1.0 / n), dt / n


@pytest.mark.parametrize("dt", [1e-3, 1e-2, 0.1])
@pytest.mark.parametrize("delta", [0.0, 0.5, 1.0, 10.0, 100.0])
def test_stable_substeps_keep_the_linear_well_contractive(delta, dt):
    # A's eigenvalues are (1 - h) e^{+-i delta h}: the rotation costs nothing
    radius, h = substep_radius(delta, dt)
    assert radius == pytest.approx(1.0 - h, rel=0, abs=1e-12)
    assert radius < 1.0


@pytest.mark.parametrize("delta", [0.0, 10.0, 100.0])
def test_stable_substeps_stationary_bias_at_dt_1e3(delta):
    # A A^T = radius^2 I, so the chain's stationary E|Z|^2 is 2D * 2h / (1 -
    # radius^2) = 2D / (1 - h / 2), the same at every delta (the Euler step
    # with the rotation inside gave 1 / (1 - h (1 + delta^2) / 2), +14% at
    # delta 100).  A change to the substep rule has to update this on purpose.
    radius, h = substep_radius(delta, 1e-3)
    relative = 2.0 * h / (1.0 - radius**2) - 1.0
    assert relative == pytest.approx(1.0 / (1.0 - h / 2.0) - 1.0, rel=1e-9)
    assert round(relative, 8) == 5.0025e-4


@pytest.mark.parametrize("delta, dt, substeps", [(0.0, 1e-3, 1), (3.0, 0.2, 2),
                                                 (10.0, 1e-2, 4), (100.0, 1e-3, 1)])
def test_split_chain_oracle_matches_its_closed_form(delta, dt, substeps):
    # A A^T = r^2 I with r = (1 - h)^substeps and A turns by delta dt, so
    # sigma = 2D / (2 - h) I and sigma^2 = dt sigma_xx (1 - r^2) / |1 - r e^{i delta dt}|^2
    diffusion, h = 0.1, dt / substeps
    a, sigma, sigma2 = split_chain_moments(delta, diffusion, dt, substeps)
    r = (1.0 - h) ** substeps
    np.testing.assert_allclose(a @ a.T, r * r * np.eye(2), rtol=0, atol=1e-15)
    np.testing.assert_allclose(sigma, 2 * diffusion / (2 - h) * np.eye(2), rtol=1e-12,
                               atol=1e-15)
    gap = (1.0 - r) ** 2 + 4.0 * r * math.sin(delta * dt / 2.0) ** 2
    assert sigma2 == pytest.approx(dt * sigma[0, 0] * (1.0 - r * r) / gap, rel=1e-9)


@pytest.mark.parametrize("delta, quoted", [(0.0, 0.2), (1.0, 0.1), (3.0, 0.02),
                                           (10.0, 0.00198)])
def test_split_chain_sigma2_tends_to_the_continuum_value(delta, quoted):
    # the OU process with drift -z + delta J2 z has sigma^2 = 2D / (1 + delta^2) for
    # the time average of x; the chain is off by about h delta^2 / (1 + delta^2) < h
    diffusion = 0.1
    target = 2.0 * diffusion / (1.0 + delta**2)
    for dt in (1e-3, 1e-4, 1e-5):
        sigma2 = split_chain_moments(delta, diffusion, dt, 1)[2]
        assert abs(sigma2 / target - 1.0) <= dt, (dt, sigma2)
    assert float(f"{split_chain_moments(delta, diffusion, 1e-3, 1)[2]:.3g}") == quoted


def test_sampler_lag1_covariance_is_the_split_chains():
    # cells start in the chain's stationary law, so every recorded step has
    # E[Z_(k+1) Z_k^T] = A sigma and E[Z_k Z_k^T] = sigma; chunks of 2 steps
    delta, diffusion, dt, substeps, cells, n_steps = 3.0, 0.1, 0.4, 2, 20000, 5
    a, sigma, _ = split_chain_moments(delta, diffusion, dt, substeps)
    initials = np.random.default_rng(3).multivariate_normal(np.zeros(2), sigma, cells)
    states = simulate_cells(QUAD, [Drift(delta)] * cells, diffusion,
                            dt, n_steps, initials, [NormalStream(6, i) for i in range(cells)],
                            substeps=substeps, chunk_size=2 * substeps)
    for lag, expected in ((1, a @ sigma), (0, sigma)):
        for k in range(n_steps + 1 - lag):
            products = states[:, k + lag, :, None] * states[:, k, None, :]
            se = products.std(axis=0, ddof=1) / math.sqrt(cells)
            assert np.all(np.abs(products.mean(axis=0) - expected) <= 5 * se), (lag, k)


def time_average(series, dt, burn_in):
    """The time average of ``series`` over [burn_in, t], as batch means form it."""
    return batch_means(series, 2, 0.05, dt, burn_in).estimate


def test_ou_moment_short_horizon():
    # E[x^2 + y^2] = 2D for the stationary quadratic diffusion
    sumsq = run(diffusion=0.1, n_steps=300000, seed=12, initial=(0.0, 0.0),
                observable=OBSERVABLES["sumsq"].fn)
    avg = time_average(sumsq, 1e-3, burn_in=5.0)
    assert avg == pytest.approx(0.2, rel=0.15)


def test_invariant_mean_unchanged_by_drift():
    # the ergodic average of x^2 + y^2 must not depend on delta
    sumsq = OBSERVABLES["sumsq"].fn
    horizon, dt = 2000.0, 1e-3
    n_steps = int(round(horizon / dt))
    averages = {}
    for delta in (0.0, 10.0):
        drift = Drift(delta) if delta else None
        series = simulate_cells(
            QUAD, [drift], 0.1, dt, n_steps, [(1.0, 1.0)],
            [NormalStream(21, int(delta))], observable=sumsq,
            substeps=stable_substeps(delta, dt, split=True),
        )
        averages[delta] = time_average(series[0], dt, burn_in=5.0)
    for delta, avg in averages.items():
        assert avg == pytest.approx(0.2, rel=0.10), f"delta={delta}"


def bimodal1_gibbs(n, diffusion, rng):
    """n exact samples of the Gibbs law exp(-U / D) of bimodal1, U = (x^2 -
    1)^2 / 4 + y^2 / 2 (x by the inverse of its CDF on a quadrature grid, y
    normal with variance D), and E x^2 by the same quadrature."""
    x = np.linspace(-3.0, 3.0, 20001)
    w = np.exp(-0.25 * (x**2 - 1.0) ** 2 / diffusion)
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (w[1:] + w[:-1]) * np.diff(x))))
    ex2 = np.trapezoid(x**2 * w, x) / np.trapezoid(w, x)
    samples = np.column_stack((np.interp(rng.uniform(size=n), cdf / cdf[-1], x),
                               math.sqrt(diffusion) * rng.standard_normal(n)))
    return samples, ex2


def test_automatic_substeps_sample_the_bimodal1_gibbs_law_at_delta_100():
    # cells start in the Gibbs law, so any drift of E x^2 or E y^2 over
    # [1, 3] is the integrator's bias.  The Euler step with the rotation
    # inside (40 substeps) gave E y^2 +18% and E x^2 -1.6% here.
    bimodal, diffusion, dt, cells, segment = get_potential("bimodal1"), 0.1, 1e-3, 8000, 250
    config = ExperimentConfig(potential="bimodal1", deltas=(100.0,), diffusion=diffusion,
                              dt=dt, horizon=3.0, burn_in=1.0, seeds=(1,))
    states, ex2 = bimodal1_gibbs(cells, diffusion, np.random.default_rng(0))
    drifts = [Drift(100.0)] * cells
    streams = [NormalStream(1, i) for i in range(cells)]
    sums, step = np.zeros((cells, 2)), 0
    while step < config.n_steps:  # segments continue the same streams
        out = simulate_cells(bimodal, drifts, diffusion, dt, segment, states, streams,
                             substeps=config.substeps_at(100.0), chunk_size=segment)
        step, states = step + segment, out[:, -1]
        if step > 1000:
            sums += np.sum(out[:, 1:] ** 2, axis=1)
    means = sums.mean(axis=0) / 2000
    assert abs(means[1] / diffusion - 1.0) <= 0.02, means
    assert abs(means[0] / ex2 - 1.0) <= 0.01, (means, ex2)
