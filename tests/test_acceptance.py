"""Acceptance suite: one test per release criterion.

Each test prints a single ``[criterion N] PASS ...`` line (visible with
``pytest -s`` or on failure) and asserts the criterion at its stated
tolerance, including the desk-scale runtime budget measured on this host.
Run with ``pytest tests/test_acceptance.py -s -v``.
"""

import json
import math
import time

import numpy as np
import pytest

from irrlangevin.cli import compare_table, main, run_experiment, table_config
from irrlangevin.drift import make_constant_drift, make_rotational_drift
from irrlangevin.estimators import (
    asymptotic_variance_estimate,
    batch_count_schedule,
    batch_means,
)
from irrlangevin.potentials import get_potential
from irrlangevin.ratefn import GridDensity, grid_points, rate_irreversible
from irrlangevin.rng import NormalStream
from irrlangevin.sampler import simulate_cells, stable_substeps
from irrlangevin.spectral import (
    FourierObservable,
    fourier_sigma2,
    observable_rate,
    rate_curvature,
)

from oracles import circle_rate_closed_form, generator_spectrum

TORUS = get_potential("torus-cosine", a=0.5, b=0.5)
CIRCLE_U0 = get_potential("torus-zero", dim=1)
COS = FourierObservable.cosine()


def report(number: int, detail: str) -> None:
    print(f"\n[criterion {number}] PASS {detail}")


def cosine_density(size):
    x = grid_points(size, 1)[:, 0]
    return GridDensity.from_values(1.0 + 0.5 * np.cos(x))


def test_criterion_1_circle_closed_form():
    start = time.perf_counter()
    p = cosine_density(512)
    closed = circle_rate_closed_form(p, 1.0)
    # analytic elliptic integrals: (1 - sqrt(1 - a^2))/8 + (1/2)(1 - sqrt(1 - a^2))
    analytic = (1 - np.sqrt(0.75)) / 8 + 0.5 * (1 - np.sqrt(0.75))
    pde = rate_irreversible(p, CIRCLE_U0, make_constant_drift([1.0], 1.0), 0.5)
    elapsed = time.perf_counter() - start
    report(1, f"closed form {closed:.7f} vs analytic {analytic:.7f}, "
              f"PDE route {pde.i_c:.7f} ({elapsed:.2f}s)")
    assert closed == pytest.approx(0.0837341, abs=1e-6)
    assert closed == pytest.approx(analytic, abs=1e-9)
    assert abs(pde.i_c - closed) <= 1e-6
    assert elapsed < 1.0


def test_criterion_2_quadratic_law():
    start = time.perf_counter()
    p = GridDensity.from_potential(TORUS, 0.5, 128, shift=(1.0, 0.0))
    k = rate_irreversible(p, TORUS, make_rotational_drift(TORUS, 1.0), 0.5,
                          compute_quadratic=True).k
    ratios = []
    for delta in (0.5, 1.0, 2.0, 4.0):
        rep = rate_irreversible(p, TORUS, make_rotational_drift(TORUS, delta), 0.5)
        ratios.append(rep.j_c / delta**2)
    spread = (max(ratios) - min(ratios)) / k
    elapsed = time.perf_counter() - start
    report(2, f"J/delta^2 = {np.mean(ratios):.12f}, K = {k:.12f}, "
              f"relative spread {spread:.2e} ({elapsed:.1f}s)")
    for r in ratios:
        assert r == pytest.approx(k, rel=1e-6)
    assert spread <= 1e-6
    assert elapsed < 30.0


def test_criterion_3_degeneracy_iff():
    start = time.perf_counter()
    drift = make_rotational_drift(TORUS, 1.0)
    degenerate = GridDensity.from_potential(TORUS, 0.25, 128)  # p = exp(-4U)
    j_degenerate = rate_irreversible(degenerate, TORUS, drift, 0.5).j_c
    shifted = GridDensity.from_potential(TORUS, 0.5, 128, shift=(1.0, 0.0))
    j_shifted = rate_irreversible(shifted, TORUS, drift, 0.5).j_c
    elapsed = time.perf_counter() - start
    report(3, f"J_C degenerate {j_degenerate:.2e} <= 1e-8, "
              f"shifted {j_shifted:.6f} > 1e-4 ({elapsed:.1f}s)")
    assert j_degenerate <= 1e-8
    assert j_shifted > 1e-4
    assert elapsed < 30.0


def test_criterion_4_invariant_measure_zero_rate():
    start = time.perf_counter()
    p = GridDensity.from_potential(TORUS, 0.5, 128)  # e^{-2U} at D = 1/2
    values = {}
    for delta in (0.0, 1.0, 10.0):
        drift = make_rotational_drift(TORUS, delta)
        values[delta] = rate_irreversible(p, TORUS, drift, 0.5).i_c
    elapsed = time.perf_counter() - start
    report(4, "I_C(gibbs) = " + ", ".join(
        f"{d:g}: {v:.2e}" for d, v in values.items()) + f" ({elapsed:.1f}s)")
    for delta, value in values.items():
        assert value <= 1e-8, delta
    assert elapsed < 30.0


def test_criterion_5_gap_invariance_vs_variance_decrease():
    start = time.perf_counter()
    re0 = np.sort(generator_spectrum(128, 0.0, 1.0).real)
    re100 = np.sort(generator_spectrum(128, 100.0, 1.0).real)
    gap_shift = float(np.max(np.abs(re0 - re100)))

    deltas = np.arange(0.0, 8.0)
    sigmas = [fourier_sigma2(COS, d, 1.0) for d in deltas]

    # exact-in-law Euler chain on the circle: dX = delta dt + sqrt(2D) dW
    mc = {}
    dt, horizon, streams = 0.01, 2000.0, 8
    n_steps = int(round(horizon / dt))
    for delta in (0.0, 2.0):
        series = simulate_cells(
            CIRCLE_U0, [make_constant_drift([1.0], delta)] * streams,
            1.0, dt, n_steps, [(0.0,)] * streams,
            [NormalStream(901 + int(delta), k) for k in range(streams)],
            observable=lambda z: np.cos(z[..., 0]),
        )
        mc[delta] = float(np.mean([
            asymptotic_variance_estimate(s, dt, m=40, burn_in=5.0)
            for s in series
        ]))
    elapsed = time.perf_counter() - start
    report(5, f"real-part shift {gap_shift:.2e}; sigma2 {sigmas[0]:.3f}..."
              f"{sigmas[-1]:.4f} decreasing; MC {mc[0.0]:.3f} vs 1.0, "
              f"{mc[2.0]:.4f} vs 0.2 ({elapsed:.1f}s)")
    assert gap_shift <= 1e-10
    for d, s in zip(deltas, sigmas):
        assert s == pytest.approx(1.0 / (1.0 + d**2), rel=1e-12)
    assert all(a > b for a, b in zip(sigmas, sigmas[1:]))
    assert mc[0.0] == pytest.approx(1.0, rel=0.15)
    assert mc[2.0] == pytest.approx(0.2, rel=0.15)
    assert elapsed < 120.0


def test_criterion_6_curvature_identity():
    start = time.perf_counter()
    samples = COS.samples(256)
    implied = {}
    for delta in (0.0, 1.0, 2.0, 4.0):
        _, implied[delta] = rate_curvature(samples, delta, 1.0)
    elapsed = time.perf_counter() - start
    report(6, "implied sigma2: " + ", ".join(
        f"{d:g}: {v:.4f} (exact {fourier_sigma2(COS, d, 1.0):.4f})"
        for d, v in implied.items()) + f" ({elapsed:.1f}s)")
    for delta, value in implied.items():
        exact = fourier_sigma2(COS, delta, 1.0)
        assert abs(value - exact) / exact <= 0.02, delta
    assert elapsed < 120.0


def test_criterion_7_observable_rate_increase():
    start = time.perf_counter()
    samples = COS.samples(256)
    ells = [-0.6, -0.3, 0.3, 0.6]
    base = observable_rate(samples, 0.0, 1.0, ells)
    fast = observable_rate(samples, 4.0, 1.0, ells)
    margins = fast - base
    elapsed = time.perf_counter() - start
    report(7, "margins " + ", ".join(
        f"{e:+.1f}: {m:.4f}" for e, m in zip(ells, margins)) + f" ({elapsed:.1f}s)")
    assert np.all(margins > 1e-6)
    assert elapsed < 120.0


@pytest.fixture(scope="module")
def table_runs():
    start = time.perf_counter()
    runs = {}
    for table_id in (1, 2, 3):
        rows, _ = run_experiment(table_config(table_id, scale=1.0, seeds=(1, 2, 3, 4, 5)),
                                 threads=3)
        runs[table_id] = compare_table(table_id, rows), rows
    runs["elapsed"] = time.perf_counter() - start
    return runs


def measured_ratio(table, delta, t):
    (row,) = [row for row in table if (row["delta"], row["t"]) == (delta, t)]
    return row["measured_ratio"]


def test_criterion_8_table_ratio_reproduction(table_runs):
    table1, rows1 = table_runs[1]
    table2, _ = table_runs[2]
    table3, _ = table_runs[3]
    r10 = measured_ratio(table1, 10.0, 295.0)
    r100 = measured_ratio(table1, 100.0, 295.0)
    r2 = measured_ratio(table2, 10.0, 700.0)
    r3 = measured_ratio(table3, 10.0, 700.0)

    # figure analogues: tighter confidence bands as delta grows (t = 295)
    widths = {}
    for delta in (0.0, 10.0, 100.0):
        widths[delta] = float(np.median([
            row["ci_hi"] - row["ci_lo"] for row in rows1
            if row["delta"] == delta and row["t"] == 295.0
        ]))
    # pi-bar invariance: estimates agree across delta within joint 3 SE
    bands = {}
    for delta in (0.0, 10.0, 100.0):
        cells = [r for r in rows1 if r["delta"] == delta and r["t"] == 295.0]
        est = np.median([r["estimate"] for r in cells])
        se = np.median([np.sqrt(r["s2m"] / r["m"]) for r in cells])
        bands[delta] = (est, se)
    elapsed = table_runs["elapsed"]
    report(8, f"ratios: T1 {r10:.1f}>=3, {r100:.1f}>=25; T2 {r2:.1f}>=10; "
              f"T3 {r3:.1f}>=3; CI widths {widths[0.0]:.3f} > {widths[10.0]:.3f} "
              f"> {widths[100.0]:.3f}; all tables in {elapsed:.0f}s")
    assert r10 >= 3.0
    assert r100 >= 25.0
    assert r2 >= 10.0
    assert r3 >= 3.0
    assert all(row["ratio_check"] for row in table1 + table2 + table3)
    assert widths[0.0] > widths[10.0] > widths[100.0]
    for da, db in ((0.0, 10.0), (0.0, 100.0), (10.0, 100.0)):
        gap = abs(bands[da][0] - bands[db][0])
        joint = 3.0 * np.hypot(bands[da][1], bands[db][1])
        assert gap <= joint, (da, db, gap, joint)
    assert elapsed < 1800.0


def test_criterion_9_ci_coverage():
    start = time.perf_counter()
    quad = get_potential("quadratic")
    horizon, dt, burn_in, replications = 50.0, 1e-3, 5.0, 200
    n_steps = int(round(horizon / dt))
    m = batch_count_schedule(horizon)
    # The split chain Z <- R(delta dt) ((1 - dt) Z + sqrt(2 D dt) xi), R a
    # rotation, has stationary E|Z|^2 = 2D / (1 - dt / 2) at every delta: the
    # CIs at delta = 10 must cover that value.
    chain_sumsq = 0.2 / (1.0 - dt / 2.0)
    coverage, means = {}, {}
    for i, (delta, target) in enumerate(((0.0, 0.2), (10.0, chain_sumsq))):
        assert stable_substeps(delta, dt, split=True) == 1
        drift = make_rotational_drift(quad, delta) if delta else None
        series = simulate_cells(
            quad, [drift] * replications, 0.1, dt, n_steps,
            [(0.0, 0.0)] * replications,
            [NormalStream(1000 + k, i) for k in range(replications)],
            observable=lambda z: np.sum(z**2, axis=-1),
        )
        reports = [batch_means(s, m, 0.05, dt, burn_in) for s in series]
        coverage[delta] = sum(r.ci_lower <= target <= r.ci_upper for r in reports)
        estimates = np.array([r.estimate for r in reports])
        means[delta] = (estimates.mean(), estimates.std(ddof=1) / np.sqrt(replications),
                        target)
    elapsed = time.perf_counter() - start
    report(9, "coverage " + ", ".join(
        f"delta {delta:g}: {covered}/{replications} ({covered / replications:.1%})"
        for delta, covered in coverage.items()) + " >= 88%; mean " + ", ".join(
        f"delta {delta:g}: {mean:.5f} +- {se:.5f} (target {target:.5f})"
        for delta, (mean, se, target) in means.items()) + f" ({elapsed:.1f}s)")
    assert all(covered >= 0.88 * replications for covered in coverage.values())
    for mean, se, target in means.values():
        assert abs(mean - target) <= 3.0 * se
    # the drift leaves the sampled mean where it is (the Euler step with the
    # rotation inside put delta = 10 at 0.2106, over 3 SE above delta = 0)
    (mean0, se0, _), (mean10, se10, _) = means[0.0], means[10.0]
    assert abs(mean10 - mean0) <= 3.0 * math.hypot(se0, se10)
    assert elapsed < 300.0


def test_criterion_10_cli_determinism(tmp_path):
    start = time.perf_counter()
    doc = {
        "potential": "bimodal1",
        "drift": {"kind": "rotational", "deltas": [0.0, 10.0]},
        "diffusion": 0.1,
        "dt": 1e-3,
        "horizon": 20.0,
        "burn_in": 2.0,
        "observable": "sumsq",
        "seeds": [7, 8],
        "checkpoints": [10.0, 20.0],
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    # simulate writes one trajectory: one delta, one seed
    one_cell = tmp_path / "one_cell.json"
    one_cell.write_text(json.dumps({**doc, "drift": {"kind": "rotational", "deltas": [0.0]},
                                    "seeds": [7]}))
    digests = {}
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["estimate", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["simulate", "--config", str(one_cell), "--out", str(out)]) == 0
        digests[name] = (
            (out / "results.csv").read_bytes(),
            (out / "sweep.csv").read_bytes(),
            (out / "trajectory.traj").read_bytes(),
        )
    elapsed = time.perf_counter() - start
    report(10, f"results.csv, sweep.csv and trajectory.traj byte-identical across "
               f"reruns ({elapsed:.1f}s)")
    assert digests["a"] == digests["b"]
