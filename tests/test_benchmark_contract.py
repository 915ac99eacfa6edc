"""The names ``perfbench/spans.py`` patches must exist and be called by the CLI.

The benchmark wraps public attributes of the program from the outside.  A
deletion or rename of one of them would first show as a failed benchmark
run; these tests load the harness module read-only and fail instead.
"""

import importlib.util
import inspect
import json
from pathlib import Path

import numpy as np

from irrlangevin import cli, ratefn, sampler, spectral
from irrlangevin.rng import NormalStream

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()

#: (owner, attribute) of every patch ``Probe`` and ``install_tracing`` make.
PATCHED = [
    *((cli, name) for name in (
        "simulate_cells", "batch_means", "asymptotic_variance_estimate",
        "rate_irreversible", "rate_curvature", "write_csv", "write_manifest",
        "get_potential", "get_observable")),
    (ratefn, "check_invariance"),
    (ratefn, "solve_gauge_field"),
    (spectral.ScaledCgf, "value"),
    (NormalStream, "normals"),
    *((np.fft, name) for name in spans.FFT_FUNCTIONS),
    (np.linalg, "eig"),
]


def installed():
    """A Probe and the full tracing on top of it, with their recorder."""
    probe = spans.Probe()
    recorder = spans.SpanRecorder()
    try:
        tracing = spans.install_tracing(recorder)
    except BaseException:
        probe.restore()
        raise
    return probe, tracing, recorder


def test_simulate_cells_takes_the_parameters_the_probe_reads():
    parameters = inspect.signature(sampler.simulate_cells).parameters
    assert {"drifts", "n_steps", "substeps"} <= set(parameters)


def test_probe_and_tracing_install_and_restore():
    before = [getattr(owner, name) for owner, name in PATCHED]
    probe, tracing, _ = installed()
    try:
        during = [getattr(owner, name) for owner, name in PATCHED]
    finally:
        tracing.restore()
        probe.restore()
    assert all(new is not old for new, old in zip(during, before))
    assert all(getattr(owner, name) is old
               for (owner, name), old in zip(PATCHED, before))
    assert cli.simulate_cells is sampler.simulate_cells


def test_probe_records_one_group_per_delta_of_an_estimate_run(tmp_path):
    doc = {"potential": "quadratic", "drift": {"kind": "rotational", "deltas": [0.0, 100.0]},
           "diffusion": 0.1, "dt": 1e-3, "horizon": 0.5, "burn_in": 0.1,
           "seeds": [1, 2]}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    probe, tracing, recorder = installed()
    try:
        assert cli.main(["estimate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    finally:
        tracing.restore()
        probe.restore()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert [(g["delta"], g["substeps"]) for g in probe.groups] == [
        (entry["delta"], entry["substeps"]) for entry in manifest["substeps"]]
    assert [g["substeps"] for g in probe.groups] == [1, 40]
    assert all(g["cells"] == 2 and g["steps"] == 500 for g in probe.groups)
    metrics = spans.layer_metrics(recorder, recorder.run_id, probe.groups)
    assert metrics["sampler.calls"] == 2
    assert metrics["sampler.cell_substeps"] == 2 * 500 * (1 + 40)
    assert metrics["rng.normals"] == 2 * 2 * 500 * (1 + 40)
    assert metrics["potentials.grad_calls"] == 500 * (1 + 40)
    assert metrics["estimators.batch_means_calls"] == 4
    assert metrics["estimators.autocov_calls"] == 4
    assert metrics["estimators.observable_calls"] > 0
    assert metrics["cli.rows_written"] == 4
