"""The names ``perfbench/spans.py`` patches must exist and be called by the CLI,
and the config documents ``perfbench/workloads.py`` writes must pass the
strict config readers.

The benchmark wraps public attributes of the program from the outside and
feeds it generated documents.  A deletion or rename of one of those names, or
a stricter config reader, would first show as a failed benchmark run; these
tests load the harness modules read-only and fail instead.
"""

import importlib.util
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from irrlangevin import cli, ratefn, sampler, spectral
from irrlangevin.rng import NormalStream

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load("spans")
workloads = load("workloads")

#: The strict reader of each subcommand's ``--config`` document.
READERS = {"estimate": cli.ExperimentConfig, "sweep": cli.ExperimentConfig,
           "simulate": cli.ExperimentConfig, "ratefn": cli.RateConfig,
           "spectral": cli.SpectralConfig}

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


def probed_estimate(tmp_path, deltas):
    """Run ``estimate`` on quadratic U with 2 seeds and 500 steps under a
    Probe and the full tracing; return the probe, the recorder and the
    manifest."""
    doc = {"potential": "quadratic", "drift": {"kind": "rotational", "deltas": deltas},
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
    return probe, recorder, json.loads((tmp_path / "manifest.json").read_text())


def test_probe_records_one_group_per_delta_of_an_estimate_run(tmp_path):
    # quadratic U carries a rotation flow, so delta 200 at dt 1e-3 takes 2
    # substeps and runs in a simulate_cells call of its own
    probe, recorder, manifest = probed_estimate(tmp_path, [0.0, 200.0])
    assert [(g["delta"], g["substeps"]) for g in probe.groups] == [
        (entry["delta"], entry["substeps"]) for entry in manifest["substeps"]]
    assert [g["substeps"] for g in probe.groups] == [1, 2]
    assert all(g["cells"] == 2 and g["steps"] == 500 for g in probe.groups)
    metrics = spans.layer_metrics(recorder, recorder.run_id, probe.groups)
    assert metrics["sampler.calls"] == 2
    assert metrics["sampler.cell_substeps"] == 2 * 500 * (1 + 2)
    assert metrics["rng.normals"] == 2 * 2 * 500 * (1 + 2)
    # delta 0 calls the gradient every substep; the delta 200 group's flow
    # hands back the gradient, which is called once per noise chunk
    assert metrics["potentials.grad_calls"] == 500 + 1
    assert metrics["estimators.batch_means_calls"] == 4
    assert metrics["estimators.autocov_calls"] == 4
    assert metrics["estimators.observable_calls"] > 0
    assert metrics["cli.rows_written"] == 4


def test_probe_records_a_merged_call_as_one_group_of_its_first_delta(tmp_path):
    # deltas 0 and 100 both take 1 substep, so they share one lockstep call;
    # the probe keys a call by its first drift
    probe, recorder, manifest = probed_estimate(tmp_path, [0.0, 100.0])
    assert [entry["deltas"] for entry in manifest["sampler_timing"]] == [[0.0, 100.0]]
    assert probe.groups == [{"delta": 0.0, "cells": 2 * 2, "steps": 500, "substeps": 1,
                             "cpu_s": probe.groups[0]["cpu_s"],
                             "wall_s": probe.groups[0]["wall_s"]}]
    metrics = spans.layer_metrics(recorder, recorder.run_id, probe.groups)
    assert metrics["sampler.calls"] == 1
    assert metrics["sampler.cell_substeps"] == 2 * 2 * 500
    assert (metrics["sampler.substeps.d0"], metrics["sampler.substeps.d100"]) == (1, 0)
    assert metrics["rng.normals"] == 2 * 2 * 2 * 500
    assert metrics["potentials.grad_calls"] == 1  # one noise chunk of a rotating call
    assert metrics["cli.rows_written"] == 4


@pytest.mark.parametrize("warmup", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_commands_parse_and_their_configs_pass_from_dict(name, warmup, tmp_path):
    for _, argv in workloads.WORKLOADS[name].commands(tmp_path, 1, warmup=warmup):
        args = cli.build_parser().parse_args(argv)
        if getattr(args, "config", None):
            doc = json.loads(Path(args.config).read_text())
            assert isinstance(READERS[args.command].from_dict(doc), READERS[args.command])
