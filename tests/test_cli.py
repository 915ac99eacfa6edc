import json
import math
import os
import re
import stat
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from irrlangevin import cli, ratefn
from irrlangevin.cli import (
    ExperimentConfig,
    RESULT_COLUMNS,
    TABLE_SPECS,
    compare_table,
    main,
    run_experiment,
    table_config,
)
from irrlangevin.drift import invariance_points
from irrlangevin.errors import ConfigError, SolverError
from irrlangevin.estimators import batch_means
from irrlangevin.potentials import MAX_DIMENSION, get_potential


def ou_config(**overrides):
    doc = {
        "potential": "quadratic",
        "drift": {"kind": "rotational", "deltas": [0.0]},
        "diffusion": 0.1,
        "dt": 1e-3,
        "horizon": 50.0,
        "burn_in": 5.0,
        "observable": "sumsq",
        "seeds": [11, 12, 13],
        "initial": [0.0, 0.0],
    }
    doc.update(overrides)
    return doc


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_ou_rows_cover_known_mean(tmp_path):
    config = ExperimentConfig.from_dict(ou_config())
    rows, _ = run_experiment(config)
    assert len(rows) == 3  # one checkpoint x three seeds
    for row in rows:
        assert row["ci_lo"] <= 0.2 <= row["ci_hi"]
        assert row["estimate"] == pytest.approx(0.2, rel=0.25)


def test_empty_seed_list_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(ou_config(seeds=[]))


def test_unresolvable_names_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(ou_config(potential="no-such-potential"))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(ou_config(observable="no-such-observable"))


def test_horizon_must_exceed_burn_in():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(ou_config(horizon=4.0, burn_in=5.0))


def test_estimate_cli_round_trip(tmp_path):
    cfg = write_config(tmp_path, ou_config(horizon=20.0, burn_in=2.0))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["estimate", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["estimate", "--config", cfg, "--out", str(out2)]) == 0
    body1 = (out1 / "results.csv").read_bytes()
    body2 = (out2 / "results.csv").read_bytes()
    assert body1 == body2  # byte-identical data; timestamps live in manifests
    header = body1.decode().splitlines()[0]
    assert header == ",".join(RESULT_COLUMNS)
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["config"]["potential"]["name"] == "quadratic"


def test_readme_documents_the_results_header():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    headers = [line for line in readme.splitlines()
               if line.startswith(RESULT_COLUMNS[0] + ",")]
    assert headers == [",".join(RESULT_COLUMNS)]


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_seeds_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path, ou_config(horizon=10.0, burn_in=1.0))
    out = tmp_path / "out"
    assert main(["estimate", "--config", cfg, "--out", str(out),
                 "--seeds", "5,6"]) == 0
    lines = (out / "results.csv").read_text().splitlines()
    assert len(lines) == 3  # header + 2 seeds
    assert lines[1].endswith(",5")
    assert lines[2].endswith(",6")


def test_missing_config_is_config_error(tmp_path):
    assert main(["estimate", "--out", str(tmp_path / "x")]) == 2
    assert main(["estimate", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "y")]) == 2


def test_blowup_is_numeric_failure(tmp_path):
    doc = ou_config(dt=3.0, horizon=3600.0, burn_in=3.0,
                    initial=[1.0, 1.0], diffusion=0.0, seeds=[1])
    cfg = write_config(tmp_path, doc)
    assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "o")]) == 3


#: Runs whose states stay finite while the batch statistics of sumsq do not.
NON_FINITE_STATISTICS = {
    # each Euler step maps x to -2 x: at step 1000 the state peaks near 1e301,
    # short of overflow, and its square overflows
    "state_near_overflow": ou_config(dt=3.0, horizon=3000.0, burn_in=0.0, seeds=[1],
                                     drift={"deltas": [0.0, 300.0]}, substeps=1),
    "huge_initial_state": ou_config(initial=[1e200, 1e200], horizon=1.0, burn_in=0.0,
                                    seeds=[1]),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_STATISTICS))
def test_non_finite_batch_statistics_are_a_numeric_failure(case, tmp_path, capsys):
    doc = NON_FINITE_STATISTICS[case]
    out = tmp_path / "o"
    assert main(["estimate", "--config", write_config(tmp_path, doc), "--out",
                 str(out)]) == 3
    where = f"delta 0.0, seed 1, t {doc['horizon']}"
    err = capsys.readouterr().err
    assert err.startswith(f"numeric failure: {where}: batch statistics are not finite")
    assert "RuntimeWarning" not in err
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]
    failure = json.loads((out / "manifest.json").read_text())["failure"]
    assert failure["solve"] == where


def test_blowup_names_its_delta_and_cell(tmp_path, capsys):
    doc = ou_config(dt=3.0, horizon=3600.0, burn_in=3.0, initial=[1.0, 1.0],
                    diffusion=0.1, seeds=[1, 2, 3], drift={"deltas": [2.0]}, substeps=1)
    cfg = write_config(tmp_path, doc)
    assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert re.search(r"numeric failure: delta 2\.0: trajectory became non-finite at "
                     r"step \d+ \(t = [^)]+\) in cell [0-2];", capsys.readouterr().err)


def test_blowup_in_a_merged_batch_names_its_delta_and_cell(tmp_path, capsys):
    # bimodal2 keeps the rotation in its Euler step, which delta 300 at one
    # substep of 1e-3 overflows; delta 0 runs in the same lockstep call
    doc = ou_config(potential="bimodal2", drift={"deltas": [0.0, 300.0]}, substeps=1,
                    horizon=1.0, burn_in=0.1, seeds=[1, 2])
    assert ExperimentConfig.from_dict(doc).lockstep_batches() == [(0, 1)]
    cfg = write_config(tmp_path, doc)
    assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == (
        "numeric failure: delta 300.0: trajectory became non-finite at step 11 "
        "(t = 0.011) in cell 0; dt is likely too large for the drift stiffness\n")
    # the manifest locates the blow-up too, and no data file is written
    assert sorted(p.name for p in (tmp_path / "o").iterdir()) == ["manifest.json"]
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["failure"] == {"delta": 300.0, "step_index": 11, "cell_index": 0,
                                   "t": pytest.approx(0.011)}
    assert manifest["config"]["drift"]["deltas"] == [0.0, 300.0]


@pytest.mark.parametrize("argv, seeds", [
    (["simulate"], 1), (["sweep"], 2),
    (["estimate", "--threads", "2"], 33),  # two batches of 33 cells, in a pool
])
def test_every_sampling_command_records_its_blowup_in_the_manifest(argv, seeds, tmp_path,
                                                                   capsys):
    deltas = [300.0] if argv[0] == "simulate" else [0.0, 300.0]
    doc = ou_config(potential="bimodal2", drift={"deltas": deltas}, substeps=1,
                    horizon=1.0, burn_in=0.1, seeds=list(range(1, seeds + 1)))
    batches = ExperimentConfig.from_dict(doc).lockstep_batches()
    assert len(batches) == (2 if seeds == 33 else 1)
    out = tmp_path / "o"
    assert main([argv[0], "--config", write_config(tmp_path, doc), "--out", str(out),
                 *argv[1:]]) == 3
    err = capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]
    failure = json.loads((out / "manifest.json").read_text())["failure"]
    assert failure["delta"] == 300.0
    assert 0 <= failure["cell_index"] < seeds
    assert failure["t"] == pytest.approx(failure["step_index"] * 1e-3)
    assert (f"non-finite at step {failure['step_index']} (t = {failure['t']:g}) in cell "
            f"{failure['cell_index']};") in err


def test_reproduce_table_records_its_blowup_in_the_manifest(tmp_path, monkeypatch):
    # the bundled tables do not blow up, so a stub sampler raises as one would
    def blow_up(*args, **kwargs):
        raise cli.non_finite_error(7, 1e-3, 2, 0.0)

    monkeypatch.setattr(cli, "simulate_cells", blow_up)
    out = tmp_path / "o"
    assert main(["reproduce-table", "--table", "1", "--scale", "0.03",
                 "--out", str(out)]) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    # the config is the estimate document that reruns the table
    assert manifest["config"] == json.loads(json.dumps(table_config(1, 0.03).to_dict()))
    assert (manifest["table"], manifest["scale"]) == (1, 0.03)
    assert manifest["failure"] == {"delta": 0.0, "step_index": 7, "cell_index": 2,
                                   "t": pytest.approx(7e-3)}
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


@pytest.mark.parametrize("command, data", [("estimate", "results.csv"),
                                           ("sweep", "sweep.csv"),
                                           ("simulate", "trajectory.npy")])
def test_a_blowup_removes_the_data_file_of_an_earlier_run(command, data, tmp_path):
    out = tmp_path / "o"
    good = ou_config(horizon=1.0, burn_in=0.1, seeds=[1])
    assert main([command, "--config", write_config(tmp_path, good), "--out", str(out)]) == 0
    assert (out / data).exists()
    bad = ou_config(potential="bimodal2", drift={"deltas": [300.0]}, substeps=1,
                    horizon=1.0, burn_in=0.1, seeds=[1])
    assert main([command, "--config", write_config(tmp_path, bad), "--out", str(out)]) == 3
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["potential"]["name"] == "bimodal2"
    assert manifest["failure"]["delta"] == 300.0


def test_reproduce_table_rejects_a_repeated_seed(tmp_path, capsys, solvers):
    assert main(["reproduce-table", "--table", "1", "--scale", "0.03", "--seeds", "1,1",
                 "--out", str(tmp_path / "o")]) == 2
    assert solvers == []
    assert "seed 1 is repeated" in capsys.readouterr().err


def test_simulate_writes_trajectory(tmp_path):
    doc = ou_config(horizon=1.0, burn_in=0.1, seeds=[3])
    cfg = write_config(tmp_path, doc)
    save = tmp_path / "new" / "traj.bin"  # a missing parent is created
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "s"),
                 "--save-path", str(save)]) == 0
    states = np.load(save)
    assert states.shape == (1001, 2) and states.dtype == np.float64
    np.testing.assert_array_equal(states[0], [0.0, 0.0])
    manifest = json.loads((tmp_path / "s" / "manifest.json").read_text())
    assert manifest["trajectory"] == str(save)
    assert manifest["config"]["seeds"] == [3]


def test_an_observable_of_u_sees_no_variance_reduction():
    # the paper's equality case: on quadratic U, sumsq = 2 U is a function of U,
    # so its Poisson solution is u0 = U and C0 . grad u0 = 0; sigma^2 is
    # 2 D E|grad U|^2 = 4 D^2 at every delta.  Seeds and band are fixed, not tuned.
    config = ExperimentConfig(potential="quadratic", deltas=(0.0, 10.0, 100.0),
                              diffusion=0.1, dt=1e-2, horizon=200.0, burn_in=5.0,
                              seeds=tuple(range(1, 21)))
    rows, _ = run_experiment(config)
    for delta in config.deltas:
        sigma2 = np.array([row["sigma2_batch"] for row in rows if row["delta"] == delta])
        assert sigma2.size == 20
        se = sigma2.std(ddof=1) / math.sqrt(sigma2.size)
        assert abs(sigma2.mean() - 4.0 * 0.1**2) <= 4.0 * se, (delta, sigma2.mean(), se)


@pytest.mark.parametrize("potential, drift, params", [
    ("quadratic", {"kind": "rotational", "deltas": [2.0]}, {"dim": 2}),
    ("bimodal1", {"kind": "rotational", "deltas": [2.0]}, {}),
    ({"name": "torus-zero", "params": {"dim": 2}}, {"kind": "constant", "deltas": [2]},
     {"dim": 2}),
    ("torus-cosine", {"kind": "rotational", "deltas": [1.0]}, {"a": 1.0, "b": 1.0}),
])
def test_simulate_manifest_echoes_the_run(tmp_path, potential, drift, params):
    # the manifest is the trajectory's one provenance record: its config holds
    # the builder-resolved params and reruns to the same bytes
    doc = ou_config(potential=potential, drift=drift, horizon=0.01, burn_in=0.0,
                    seeds=[4], checkpoints=[0.01], batches=2)
    out, again = tmp_path / "s", tmp_path / "again"
    assert main(["simulate", "--config", write_config(tmp_path, doc), "--out",
                 str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    name = potential if isinstance(potential, str) else potential["name"]
    assert manifest["config"]["potential"] == {"name": name, "params": params}
    assert manifest["config"]["drift"] == {"kind": drift["kind"],
                                           "deltas": [float(drift["deltas"][0])]}
    # a constant drift does not rotate; the rotational ones here take the flow
    rotation = "none" if drift["kind"] == "constant" else "flow"
    assert manifest["substeps"] == [{"delta": float(drift["deltas"][0]), "substeps": 1,
                                     "h": 1e-3, "rotation": rotation}]
    (timing,) = manifest["sampler_timing"]
    assert timing["deltas"] == [float(drift["deltas"][0])] and timing["cells"] == 1
    assert np.load(out / "trajectory.npy").shape == (11, 2)
    rerun = write_config(tmp_path, manifest["config"], "rerun.json")
    assert main(["simulate", "--config", rerun, "--out", str(again)]) == 0
    assert (again / "trajectory.npy").read_bytes() == (out / "trajectory.npy").read_bytes()


def test_simulate_saves_the_path_estimate_averages(tmp_path):
    # one delta, one seed: simulate's states are the cell estimate averages,
    # drawn from the same normal stream
    doc = ou_config(potential="bimodal1", drift={"deltas": [10.0]}, seeds=[7],
                    observable="x", horizon=4.0, burn_in=1.0, batches=10)
    cfg = write_config(tmp_path, doc)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "s")]) == 0
    assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "e")]) == 0
    header, row = (tmp_path / "e" / "results.csv").read_text().splitlines()
    estimate = float(dict(zip(header.split(","), row.split(",")))["estimate"])
    states = np.load(tmp_path / "s" / "trajectory.npy")
    assert batch_means(states[:, 0], 10, 0.05, 1e-3, burn_in=1.0).estimate == estimate


def test_sweep_emits_per_seed_bands(tmp_path):
    doc = ou_config(horizon=30.0, burn_in=2.0, seeds=[21, 22],
                    checkpoints=[10.0, 20.0, 30.0])
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "delta,seed,t,estimate,ci_lo,ci_hi"
    data = [line.split(",") for line in lines[1:]]
    assert len(data) == 6  # 2 seeds x 3 checkpoints
    # the seed column keys each band: every (delta, seed, t) appears once
    keys = [tuple(row[:3]) for row in data]
    assert len(set(keys)) == len(keys)
    assert [row[1] for row in data] == ["21"] * 3 + ["22"] * 3
    # each band row is the results.csv row of the same config and key
    assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "est")]) == 0
    header, *rest = (tmp_path / "est" / "results.csv").read_text().splitlines()
    results = {}
    for line in rest:
        row = dict(zip(header.split(","), line.split(",")))
        results[(row["delta"], row["seed"], row["t"])] = [
            row[c] for c in ("estimate", "ci_lo", "ci_hi")]
    assert {key: row[3:] for key, row in zip(keys, data)} == results
    # per-seed trajectories are distinct but their final CIs overlap
    first, second = data[:3], data[3:]
    assert first != second
    lo1, hi1 = float(first[-1][4]), float(first[-1][5])
    lo2, hi2 = float(second[-1][4]), float(second[-1][5])
    assert max(lo1, lo2) <= min(hi1, hi2)


def test_reproduce_table_small_scale(tmp_path):
    config = table_config(1, scale=0.02, seeds=(1, 2, 3))
    rows, _ = run_experiment(config)
    table = compare_table(1, rows)
    spec = TABLE_SPECS[1]
    assert config.checkpoints == tuple(t * 0.02 for t in spec["times"])
    assert len(table) == len(spec["deltas"]) * len(spec["times"])
    assert len(rows) == len(spec["deltas"]) * len(spec["times"]) * 3
    for row in table:
        assert row["measured_value"] >= 0.0
        if row["delta"] == 0.0:
            assert row["ratio_check"]
            assert row["measured_ratio"] is None


def hand_built_rows(medians, times, seeds=3):
    """``results.csv`` rows whose seed median of ``s2m`` at each (delta, t)
    is ``medians[delta]``: seeds take half, once and three times it."""
    return [{"delta": delta, "t": t, "s2m": median * factor, "seed": seed}
            for delta, median in medians.items() for t in times
            for seed, factor in zip(range(seeds), (3.0, 0.5, 1.0))]


def test_compare_table_takes_seed_medians_and_a_third_of_each_reference_ratio(tmp_path):
    spec = TABLE_SPECS[1]
    times = spec["times"]
    table = compare_table(1, hand_built_rows({0.0: 1.0, 10.0: 0.5, 100.0: 0.25}, times))
    assert [(row["delta"], row["t"]) for row in table] == [
        (delta, t) for delta in spec["deltas"] for t in times]
    by_cell = {(row["delta"], row["t"]): row for row in table}
    for t in times:
        assert by_cell[(0.0, t)] == {
            "table": 1, "delta": 0.0, "t": t,
            "reference_value": spec["reference"][0.0][times.index(t)],
            "measured_value": 1.0, "reference_ratio": None, "measured_ratio": None,
            "ratio_check": True}
        assert by_cell[(10.0, t)]["measured_ratio"] == 2.0
        assert by_cell[(100.0, t)]["measured_ratio"] == 4.0
    # t = 25: reference ratio 0.22 / 0.19, and 2 >= 1.158 / 3 passes
    assert by_cell[(10.0, 25.0)]["reference_ratio"] == 0.22 / 0.19
    assert by_cell[(10.0, 25.0)]["ratio_check"] is True
    # t = 100: reference ratio 0.08 / 0.01 = 8, and 2 < 8 / 3 fails
    assert by_cell[(10.0, 100.0)]["reference_ratio"] == 0.08 / 0.01
    assert by_cell[(10.0, 100.0)]["ratio_check"] is False
    assert [row["ratio_check"] for row in table if row["delta"] == 100.0] == [
        True, False, False, False, False]
    # the CSV text: empty ratios for delta = 0, booleans as True / False
    cli.write_csv(tmp_path / "c.csv", list(table[0]), table)
    lines = (tmp_path / "c.csv").read_text().splitlines()
    assert lines[0] == ("table,delta,t,reference_value,measured_value,reference_ratio,"
                        "measured_ratio,ratio_check")
    assert lines[1] == "1,0.0,25.0,0.22,1.0,,,True"
    assert lines[7] == "1,10.0,100.0,0.01,0.5,8.0,2.0,False"


def test_compare_table_rows_follow_the_checkpoints_of_a_scaled_run():
    times = table_config(2, scale=0.1).checkpoints
    table = compare_table(2, hand_built_rows({0.0: 2.0, 10.0: 0.1}, times))
    assert [row["t"] for row in table] == [*times, *times]
    assert all(row["measured_ratio"] == 20.0 for row in table[len(times):])


def test_a_table_run_removes_the_comparison_files_of_other_tables(tmp_path, monkeypatch):
    # a comparison file left by another table would sit beside this run's manifest
    out = tmp_path / "o"
    flags = ["--scale", "0.02", "--seeds", "1", "--out", str(out)]
    assert main(["reproduce-table", "--table", "1", *flags]) == 0
    assert main(["reproduce-table", "--table", "2", *flags]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "manifest.json", "results.csv", "table2_comparison.csv"]
    assert json.loads((out / "manifest.json").read_text())["table"] == 2

    def blow_up(*args, **kwargs):
        raise cli.non_finite_error(7, 1e-3, 0, 0.0)

    monkeypatch.setattr(cli, "simulate_cells", blow_up)
    assert main(["reproduce-table", "--table", "3", *flags]) == 3
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


def test_reproduce_table_cli(tmp_path):
    out = tmp_path / "table"
    code = main(["reproduce-table", "--table", "1", "--scale", "0.02",
                 "--seeds", "1,2,3", "--out", str(out)])
    assert code == 0
    lines = (out / "table1_comparison.csv").read_text().splitlines()
    assert lines[0].startswith("table,delta,t,")
    assert len(lines) == 1 + 15
    assert (out / "results.csv").exists()


def test_reproduce_table_rejects_bad_id():
    with pytest.raises(ConfigError, match="table id must be one of"):
        table_config(9)
    for scale in (0.0, 1.5):
        with pytest.raises(ConfigError, match="scale must lie in"):
            table_config(1, scale)


@pytest.mark.parametrize("command", ["simulate", "estimate", "sweep", "reproduce-table"])
def test_an_empty_seeds_flag_exits_2_naming_it(command, tmp_path, solvers, capsys):
    # an empty list would otherwise fall back to the config's or the default seeds
    flags = (["--table", "1", "--scale", "0.02"] if command == "reproduce-table" else
             ["--config", write_config(tmp_path, ou_config(seeds=[1]))])
    assert main([command, *flags, "--seeds", "", "--out", str(tmp_path / "o")]) == 2
    assert solvers == []
    assert capsys.readouterr().err == (
        "config error: --seeds must be comma-separated integers, got ''\n")


def test_ratefn_cli(tmp_path):
    doc = {
        "grid": 64,
        "diffusion": 0.5,
        "potential": {"name": "torus-cosine", "params": {"a": 0.5, "b": 0.5}},
        "density": {"kind": "gibbs", "diffusion": 0.5},
        "drift": {"kind": "rotational", "delta": 1.0},
        "quadratic": True,
    }
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "rate"
    assert main(["ratefn", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "rate_report.json").read_text())
    assert report["I_C"] <= 1e-8  # invariant density has zero rate
    assert report["lemma_mismatch"] <= 1e-8
    assert isinstance(report["gauge_iterations"], int) and report["gauge_iterations"] > 0
    assert 0.0 <= report["quadratic_residual"] <= 1e-10
    summary = (out / "rate_summary.csv").read_text().splitlines()
    assert summary[0] == "potential,delta,D,grid,I0,J_C,I_C,K"


@pytest.mark.parametrize("quadratic", [True, False])
def test_ratefn_manifest_records_the_gauge_solves(tmp_path, quadratic):
    doc = {
        "grid": 32,
        "potential": {"name": "torus-cosine", "params": {"a": 0.5, "b": 0.5}},
        "density": {"kind": "gibbs", "shift": [1.0, 0.0]},
        "drift": {"kind": "rotational", "delta": 2.0},
        "quadratic": quadratic,
    }
    cfg = write_config(tmp_path, doc)
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main(["ratefn", "--config", cfg, "--out", str(out)]) == 0
    for name in ("rate_report.json", "rate_summary.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    manifest = json.loads((outs[0] / "manifest.json").read_text())
    report = json.loads((outs[0] / "rate_report.json").read_text())
    assert manifest["config"] == doc
    solves = manifest["gauge_solves"]
    assert set(solves) == ({"main", "quadratic"} if quadratic else {"main"})
    assert solves["main"]["iterations"] == report["gauge_iterations"]
    assert solves["main"]["residual_rel"] == report["gauge_residual_rel"]
    for solve in solves.values():
        assert set(solve) == {"iterations", "residual_rel", "cg_residual_first",
                              "cg_residual_last"}
        assert solve["iterations"] > 0 and 0.0 <= solve["residual_rel"] <= 1e-10
        # the CG residual falls from the right-hand side to the tolerance
        assert solve["cg_residual_last"] <= 1e-12 < solve["cg_residual_first"]
    if quadratic:
        assert solves["quadratic"]["residual_rel"] == report["quadratic_residual"]
    assert manifest["wall_s"] > 0


def test_ratefn_solver_failure_replaces_an_earlier_run(tmp_path, capsys):
    # at D = 0.05 on grid 32 the Gibbs density spans e^40, past what the
    # gauge CG resolves in double precision
    doc = {"grid": 32, "potential": {"name": "torus-cosine", "params": {"a": 0.5, "b": 0.5}},
           "density": {"kind": "gibbs"}, "drift": {"delta": 2.0}, "quadratic": True}
    out = tmp_path / "rate"
    assert main(["ratefn", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    bad = {**doc, "diffusion": 0.05}
    assert main(["ratefn", "--config", write_config(tmp_path, bad), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"] == bad
    message = manifest["failure"]["message"]
    assert manifest["failure"] == {"solve": "main", "message": message}
    assert err == f"numeric failure: {message}\n"
    assert message.startswith("gauge ")


def test_ratefn_failure_names_the_quadratic_solve(tmp_path, monkeypatch):
    solve = ratefn.solve_gauge_field
    calls = []

    def fail_second(p, b):
        calls.append(1)
        if len(calls) == 2:
            raise SolverError("gauge solver did not converge in 1 iterations")
        return solve(p, b)

    monkeypatch.setattr(ratefn, "solve_gauge_field", fail_second)
    doc = {"grid": 16, "potential": {"name": "torus-cosine", "params": {"a": 0.5, "b": 0.5}},
           "density": {"kind": "gibbs", "shift": [1.0, 0.0]}, "quadratic": True}
    out = tmp_path / "rate"
    assert main(["ratefn", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 3
    failure = json.loads((out / "manifest.json").read_text())["failure"]
    assert failure == {"solve": "quadratic",
                       "message": "gauge solver did not converge in 1 iterations"}


def test_ratefn_cli_density_file(tmp_path):
    x = 2 * np.pi * np.arange(128) / 128
    values = 1.0 + 0.5 * np.cos(x)
    density_path = tmp_path / "density.txt"
    np.savetxt(density_path, values)
    doc = {
        "grid": 128,
        "diffusion": 0.5,
        "potential": {"name": "torus-zero", "params": {"dim": 1}},
        "density": {"kind": "file", "path": str(density_path)},
        "drift": {"kind": "constant", "vector": [1.0], "delta": 1.0},
    }
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "rate1d"
    assert main(["ratefn", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "rate_report.json").read_text())
    assert report["I_C"] == pytest.approx(0.0837341, abs=1e-5)
    assert report["quadratic_residual"] is None  # no quadratic solve requested


def test_spectral_cli(tmp_path):
    doc = {"deltas": [0.0, 2.0], "diffusion": 1.0, "grid": 128,
           "ell_grid": [-0.3, 0.3]}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "spec"
    assert main(["spectral", "--config", cfg, "--out", str(out)]) == 0
    sigma_lines = (out / "sigma2.csv").read_text().splitlines()
    assert sigma_lines[0] == "delta,D,sigma2_fourier,sigma2_curvature"
    row0 = sigma_lines[1].split(",")
    assert float(row0[2]) == pytest.approx(1.0)
    assert float(row0[3]) == pytest.approx(1.0, rel=0.02)
    curve_lines = (out / "rate_curve.csv").read_text().splitlines()
    assert curve_lines[0] == "delta,D,ell,rate"
    assert len(curve_lines) == 1 + 4  # 2 deltas x 2 levels
    assert json.loads((out / "manifest.json").read_text())["wall_s"] > 0


def test_spectral_level_past_the_tilt_bracket_exits_3(tmp_path, capsys):
    out = tmp_path / "o"
    good = spectral_config(deltas=[0.0], grid=64, ell_grid=[0.3])
    assert main(["spectral", "--config", write_config(tmp_path, good), "--out", str(out)]) == 0
    # the level passes check_levels; its tilt is past what the Perron solve reaches
    bad = spectral_config(deltas=[0.0], grid=64, ell_grid=[0.9999])
    assert main(["spectral", "--config", write_config(tmp_path, bad), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: level 0.9999: ")
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["ell_grid"] == [0.9999]
    message = manifest["failure"]["message"]
    assert manifest["failure"] == {"solve": "delta 0.0", "message": message}
    assert err == f"numeric failure: {message}\n"


@pytest.mark.parametrize("diffusion, fourier", [(1e300, 1e-300), (1e-300, 1e300)])
def test_spectral_at_an_extreme_diffusion_writes_finite_sigma2(tmp_path, diffusion,
                                                               fourier):
    # sigma^2(cos x) = 1 / (D + delta^2 / D): no term may overflow on the way
    out = tmp_path / "o"
    cfg = write_config(tmp_path, spectral_config(deltas=[0.0], diffusion=diffusion,
                                                 grid=32, ell_grid=[]))
    assert main(["spectral", "--config", cfg, "--out", str(out)]) == 0
    row = (out / "sigma2.csv").read_text().splitlines()[1].split(",")
    assert float(row[2]) == pytest.approx(fourier, rel=1e-12)
    assert float(row[3]) == pytest.approx(fourier, rel=0.01)


@pytest.mark.parametrize("stub", ["fourier_sigma2", "rate_curvature"])
def test_a_non_finite_spectral_sigma2_exits_3_naming_its_delta(tmp_path, monkeypatch,
                                                               capsys, stub):
    out = tmp_path / "o"
    cfg = write_config(tmp_path, spectral_config(deltas=[0.0, 2.0], grid=16, ell_grid=[]))
    assert main(["spectral", "--config", cfg, "--out", str(out)]) == 0
    real = getattr(cli, stub)

    def inf_at_delta_2(f, delta, diffusion):
        value = real(f, delta, diffusion)
        if delta != 2.0:
            return value
        return (0.0, math.inf) if stub == "rate_curvature" else math.inf

    monkeypatch.setattr(cli, stub, inf_at_delta_2)
    assert main(["spectral", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]
    failure = json.loads((out / "manifest.json").read_text())["failure"]
    assert failure["solve"] == "delta 2.0"
    assert failure["message"].startswith("sigma^2 at delta 2.0 is not finite")
    assert err == f"numeric failure: {failure['message']}\n"


@pytest.mark.parametrize("case", ["overflow", "infinite", "cancellation", "fourier_zero"])
def test_a_spectral_sigma2_that_is_not_finite_and_positive_exits_3(tmp_path, monkeypatch,
                                                                  capsys, case):
    # D 1e-310 at delta 0 overflows the jet, D 3e-308 makes its curvature inf
    # and D 1e-300 at delta 1 cancels it; an underflowed Fourier sum of 0.0
    # is not a variance either
    grid, delta, diffusion = {"overflow": (16, 0.0, 1e-310),
                              "infinite": (32, 0.0, 3e-308)}.get(case, (32, 1.0, 1e-300))
    if case == "fourier_zero":
        diffusion = 1.0
        monkeypatch.setattr(cli, "fourier_sigma2", lambda f, delta, diffusion: 0.0)
    out = tmp_path / "o"
    cfg = write_config(tmp_path, spectral_config(deltas=[delta], diffusion=diffusion,
                                                 grid=grid, ell_grid=[]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["spectral", "--config", cfg, "--out", str(out)]) == 3
    failure = json.loads((out / "manifest.json").read_text())["failure"]
    assert failure["solve"] == f"delta {delta}"
    assert capsys.readouterr().err == f"numeric failure: {failure['message']}\n"
    assert failure["message"].startswith({
        "overflow": "non-positive curvature at the mean",
        "infinite": "sigma^2 at delta 0.0 is not finite and positive (Fourier 3.33",
        "cancellation": "curvature at the mean (8.1e-15) is lost to cancellation",
        "fourier_zero": "sigma^2 at delta 1.0 is not finite and positive (Fourier 0.0",
    }[case])


def test_reproduce_table_with_zero_threads_creates_no_output(tmp_path, capsys, solvers):
    out = tmp_path / "o"
    assert main(["reproduce-table", "--table", "1", "--scale", "0.03", "--threads", "0",
                 "--out", str(out)]) == 2
    assert solvers == [] and not out.exists()
    assert capsys.readouterr().err == "config error: --threads must be >= 1, got 0\n"


def test_spectral_without_levels_removes_an_earlier_rate_curve(tmp_path):
    out = tmp_path / "o"
    for levels, files in (([0.3], ["manifest.json", "rate_curve.csv", "sigma2.csv"]),
                          ([], ["manifest.json", "sigma2.csv"])):
        cfg = write_config(tmp_path, spectral_config(grid=16, ell_grid=levels))
        assert main(["spectral", "--config", cfg, "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == files


@pytest.mark.parametrize("case", ["simulate_to_a_full_device", "spectral_csv_is_a_directory"])
def test_output_write_failure_exits_2_without_a_traceback(case, tmp_path, capsys):
    out = tmp_path / "o"
    if case == "simulate_to_a_full_device":
        if not Path("/dev/full").exists():
            pytest.skip("needs the /dev/full device")
        cfg = write_config(tmp_path, ou_config(horizon=1.0, burn_in=0.1, seeds=[3]))
        argv, target = ["simulate", "--save-path", "/dev/full"], "/dev/full"
    else:
        (out / "sigma2.csv").mkdir(parents=True)
        cfg = write_config(tmp_path, spectral_config(deltas=[1.0], grid=16, ell_grid=[]))
        argv, target = ["spectral"], str(out / "sigma2.csv")
    assert main([*argv, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write {target}: ")
    assert "Traceback" not in err
    # neither target was removed: only a regular file is replaced by a new one
    mode = os.lstat(target).st_mode
    assert stat.S_ISCHR(mode) if case == "simulate_to_a_full_device" else stat.S_ISDIR(mode)


def test_spectral_manifest_echoes_resolved_config(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "rate_curvature", lambda f, delta, diffusion: (0.5, 1.0))
    cfg = write_config(tmp_path, {"deltas": [1]})
    out = tmp_path / "spec"
    assert main(["spectral", "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"] == {"deltas": [1.0], "diffusion": 1.0, "grid": 256,
                                  "ell_grid": []}


def fake_simulate_cells(ran):
    """A ``simulate_cells`` stand-in that records each call's (deltas,
    substeps) in ``ran``: the distinct deltas of its cells, in cell order."""

    def simulate_cells(potential, drifts, diffusion, dt, n_steps, *args, substeps,
                       observable=None, **kwargs):
        deltas = (0.0 if drift is None else drift.delta for drift in drifts)
        ran.append((tuple(dict.fromkeys(deltas)), substeps))
        shape = (len(drifts), n_steps + 1) + ((potential.dimension,) if observable is None
                                              else ())
        return np.random.default_rng(0).standard_normal(shape)

    return simulate_cells


@pytest.mark.parametrize("argv, expected", [
    (["simulate"], [(100.0, 1)]),
    (["estimate"], [(0.0, 1), (100.0, 1)]),
    (["sweep"], [(0.0, 1), (100.0, 1)]),
    (["reproduce-table", "--table", "1", "--scale", "0.02"], [(0.0, 1), (10.0, 1),
                                                               (100.0, 1)]),
])
def test_manifest_records_the_substeps_each_delta_ran(tmp_path, monkeypatch, argv,
                                                      expected):
    # quadratic and bimodal1 carry a rotation flow: ceil(|delta| dt / 0.1) substeps
    ran = []
    monkeypatch.setattr(cli, "simulate_cells", fake_simulate_cells(ran))
    deltas = [100.0] if argv[0] == "simulate" else [0.0, 100.0]
    cfg = write_config(tmp_path, ou_config(drift={"deltas": deltas}, horizon=0.05,
                                           burn_in=0.01, seeds=[1]))
    out = tmp_path / "out"
    if argv[0] != "reproduce-table":
        argv = argv + ["--config", cfg]
    assert main(argv + ["--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    # delta = 0 does not rotate
    assert manifest["substeps"] == [{"delta": d, "substeps": n, "h": 1e-3 / n,
                                     "rotation": "flow" if d else "none"}
                                    for d, n in expected]
    if argv[0] == "simulate":
        assert np.load(out / "trajectory.npy").shape == (51, 2)
    # one seed and one substep count: every delta group runs in one lockstep call
    assert ran == [(tuple(delta for delta, _ in expected), 1)]


def test_manifest_records_the_euler_rule_of_a_potential_without_a_flow(tmp_path,
                                                                       monkeypatch):
    # bimodal2 keeps the rotation in the Euler step: ceil(4 delta^2 dt) substeps
    ran = []
    monkeypatch.setattr(cli, "simulate_cells", fake_simulate_cells(ran))
    cfg = write_config(tmp_path, ou_config(potential="bimodal2",
                                           drift={"deltas": [0.0, 100.0]},
                                           horizon=0.05, burn_in=0.01, seeds=[1]))
    assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["substeps"] == [
        {"delta": 0.0, "substeps": 1, "h": 1e-3, "rotation": "none"},
        {"delta": 100.0, "substeps": 40, "h": 1e-3 / 40, "rotation": "euler"}]
    # groups of different substeps never share a call
    assert ran == [((0.0,), 1), ((100.0,), 40)]


def test_automatic_substeps_follow_delta_only_for_a_rotational_drift(tmp_path,
                                                                     monkeypatch):
    # the Euler step of a constant drift sees only -grad U
    ran = []
    monkeypatch.setattr(cli, "simulate_cells", fake_simulate_cells(ran))
    cfg = write_config(tmp_path, ou_config(
        potential={"name": "torus-zero", "params": {"dim": 2}}, dt=1e-2,
        drift={"kind": "constant", "deltas": [100.0]}, horizon=1.0, burn_in=0.1,
        batches=2, seeds=[1]))
    assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert [(entry["substeps"], entry["rotation"])
            for entry in manifest["substeps"]] == [(1, "none")]
    assert [substeps for _, substeps in ran] == [1]


@pytest.mark.parametrize("argv, deltas", [
    (["estimate"], [[0.0, 10.0]]),
    (["sweep"], [[0.0, 10.0]]),
    (["reproduce-table", "--table", "1", "--scale", "0.02", "--seeds", "1"],
     [[0.0, 10.0, 100.0]]),
    # on quadratic delta 200 takes 2 substeps, so it runs in a call of its own
    (["estimate"], [[0.0], [200.0]]),
])
def test_manifest_records_the_sampler_cost_of_each_delta(tmp_path, argv, deltas):
    # ``deltas`` lists the deltas of each lockstep batch
    cfg = write_config(tmp_path, ou_config(drift={"deltas": sum(deltas, [])},
                                           horizon=0.05, burn_in=0.01, seeds=[1, 2]))
    out = tmp_path / "out"
    seeds = 1 if argv[0] == "reproduce-table" else 2
    if argv[0] != "reproduce-table":
        argv = argv + ["--config", cfg]
    assert main(argv + ["--out", str(out)]) == 0
    timing = json.loads((out / "manifest.json").read_text())["sampler_timing"]
    assert [entry["deltas"] for entry in timing] == deltas
    for entry, batch in zip(timing, deltas):
        assert set(entry) == {"deltas", "cells", "wall_s", "cpu_s", "cell_substeps_per_s"}
        assert entry["cells"] == seeds * len(batch)
        assert entry["wall_s"] > 0 and entry["cell_substeps_per_s"] > 0
        assert entry["cpu_s"] >= 0


# ---------------------------------------------------------------------------
# exit-code contract: 0 success, 2 config error, 3 numeric failure


class SolveStarted(Exception):
    """Raised by the stubbed solver entry points."""


@pytest.fixture
def solvers(monkeypatch):
    """Replace the solver entry points of ``cli`` with stubs that record
    their name and raise SolveStarted."""
    calls = []

    def stub(name):
        def entry(*args, **kwargs):
            calls.append(name)
            raise SolveStarted(name)
        return entry

    for name in ("simulate_cells", "rate_irreversible", "rate_curvature"):
        monkeypatch.setattr(cli, name, stub(name))
    return calls


def rate_config(**overrides):
    doc = {
        "grid": 16,
        "diffusion": 0.5,
        "potential": {"name": "torus-zero", "params": {"dim": 1}},
        "density": {"kind": "uniform"},
        "drift": {"kind": "constant", "vector": [1.0], "delta": 1.0},
    }
    doc.update(overrides)
    return doc


def spectral_config(**overrides):
    doc = {"deltas": [0.0, 1.0], "diffusion": 1.0, "grid": 32, "ell_grid": [-0.3, 0.3]}
    doc.update(overrides)
    return doc


NAN = float("nan")
BAD_INPUTS = {
    "substeps_not_int": ("estimate", ou_config(substeps="foo"), []),
    "negative_diffusion": ("estimate", ou_config(diffusion=-1.0), []),
    "nan_dt": ("estimate", ou_config(dt=NAN), []),
    "unknown_potential_param": (
        "estimate", ou_config(potential={"name": "quadratic", "params": {"foo": 3}}), []),
    "drift_is_list": ("estimate", ou_config(drift=[0.0, 1.0]), []),
    # delta = 0 is the one reversible baseline; there is no kind for it
    "drift_kind_none": ("estimate", ou_config(drift={"kind": "none", "deltas": [10.0]}),
                        []),
    "ratefn_grid_zero": ("ratefn", rate_config(grid=0), []),
    "density_file_missing": (
        "ratefn", rate_config(density={"kind": "file", "path": "{tmp}/none.txt"}), []),
    "density_file_wrong_size": (
        "ratefn", rate_config(density={"kind": "file", "path": "{tmp}/short.txt"}), []),
    "constant_vector_wrong_length": (
        "ratefn", rate_config(drift={"kind": "constant", "vector": [1.0, 2.0]}), []),
    "seeds_flag_not_int": ("estimate", ou_config(), ["--seeds", "a,b"]),
    "seeds_flag_empty": ("estimate", ou_config(), ["--seeds", ""]),
    "nan_diffusion": ("estimate", ou_config(diffusion=NAN), []),
    "spectral_zero_diffusion": ("spectral", spectral_config(diffusion=0), []),
    "fractional_seed": ("estimate", ou_config(seeds=[1.5]), []),
    "one_batch": ("estimate", ou_config(batches=1), []),
    "ell_outside_range": ("spectral", spectral_config(ell_grid=[0.5, 2.0]), []),
    "ell_repeated": ("spectral", spectral_config(ell_grid=[0.3, 0.3, -0.2]), []),
    "series_too_long": ("estimate", ou_config(horizon=1e12), []),
    "noise_chunk_too_large": (
        "estimate", ou_config(drift={"kind": "rotational", "deltas": [1e10]}), []),
    "noise_chunk_too_large_euler": (
        "estimate", ou_config(potential="bimodal2",
                              drift={"kind": "rotational", "deltas": [1e5]}), []),
    "delta_too_large_for_automatic_substeps": (
        "estimate", ou_config(drift={"kind": "rotational", "deltas": [1e306]}, dt=1e3,
                              horizon=1e4, burn_in=0.0), []),
    "constant_drift_on_quadratic": (
        "estimate", ou_config(drift={"kind": "constant", "deltas": [0, 2]},
                              diffusion=0.5, horizon=200.0), []),
    "constant_drift_on_bimodal1": (
        "estimate", ou_config(potential="bimodal1",
                              drift={"kind": "constant", "deltas": [1.0]}), []),
    "ratefn_constant_drift_on_bimodal1": (
        "ratefn", rate_config(potential="bimodal1",
                              drift={"kind": "constant", "vector": [0.0, 1.0]}), []),
    "ratefn_constant_drift_on_torus_cosine": (
        "ratefn", rate_config(potential={"name": "torus-cosine", "params": {"a": 0.5}},
                              drift={"kind": "constant", "vector": [1.0, 0.0]}), []),
    "ratefn_bimodal1": (
        "ratefn", rate_config(potential="bimodal1", drift={"kind": "rotational"}), []),
    "ratefn_quadratic": (
        "ratefn", rate_config(potential="quadratic", drift={"kind": "rotational"}), []),
    "sampling_drift_vector": (
        "estimate", ou_config(potential={"name": "torus-zero", "params": {"dim": 1}},
                              initial=[0.0], drift={"kind": "constant", "deltas": [1.0],
                                                    "vector": [5.0, 0.0, 0.0]}), []),
    "unknown_top_level_key": ("estimate", ou_config(bogus=3), []),
    "unknown_density_key": (
        "ratefn", rate_config(density={"kind": "uniform", "paht": "d.txt"}), []),
    "unknown_spectral_key": ("spectral", spectral_config(delta=[1.0]), []),
    "ratefn_rotational_vector": (
        "ratefn", rate_config(
            potential={"name": "torus-cosine", "params": {"a": 0.5, "b": 0.5}},
            drift={"kind": "rotational", "delta": 1.0, "vector": [7, 7]}), []),
    "substeps_zero": ("estimate", ou_config(substeps=0), []),
    "horizon_below_one_step": ("estimate", ou_config(horizon=5e-4, burn_in=0.0), []),
    "initial_wrong_dimension": ("estimate", ou_config(initial=[0.0]), []),
    "simulate_two_deltas": (
        "simulate", ou_config(drift={"kind": "rotational", "deltas": [0.0, 1.0]},
                              seeds=[1]), []),
    "simulate_two_seeds": ("simulate", ou_config(seeds=[1]), ["--seeds", "1,2"]),
    # a repeat would give result rows that share one (delta, seed) key
    "repeated_delta": ("estimate", ou_config(drift={"deltas": [1.0, 1.0]}, seeds=[7]), []),
    "repeated_seed": ("estimate", ou_config(drift={"deltas": [1.0]}, seeds=[7, 7]), []),
    "seeds_flag_repeated": ("estimate", ou_config(), ["--seeds", "5,6,5"]),
    # a repeat would give rows that share one (delta, seed, t) or delta key
    "repeated_checkpoint": (
        "estimate", ou_config(checkpoints=[20.0, 10.0, 20.0]), []),
    "spectral_repeated_delta": ("spectral", spectral_config(deltas=[1.0, 1.0]), []),
    "threads_zero": ("estimate", ou_config(), ["--threads", "0"]),
    # potential params are numbers: a string or a flag is not coerced
    "potential_param_string": (
        "estimate", ou_config(potential={"name": "torus-cosine", "params": {"a": "1"}}),
        []),
    "potential_param_bool": (
        "estimate", ou_config(potential={"name": "quadratic", "params": {"dim": True}}),
        []),
    "ratefn_potential_param_string": (
        "ratefn", rate_config(potential={"name": "torus-cosine", "params": {"a": "1"}},
                              drift={"kind": "rotational"}), []),
    "ratefn_potential_param_bool": (
        "ratefn", rate_config(potential={"name": "torus-zero", "params": {"dim": True}}),
        []),
}
#: What the message of a BAD_INPUTS case must name, where it is not just a value.
NAMED_IN_MESSAGE = {
    "potential_param_string": "potential.params.a must be a finite number, got '1'",
    "potential_param_bool": "potential.params.dim must be a finite number, got True",
    "ratefn_potential_param_string": "potential.params.a must be a finite number",
    "ratefn_potential_param_bool": "potential.params.dim must be a finite number",
    "drift_kind_none": "drift.kind must be one of ['rotational', 'constant'], got 'none'",
    "constant_drift_on_quadratic": "does not preserve the Gibbs law of 'quadratic'",
    "constant_drift_on_bimodal1": "does not preserve the Gibbs law of 'bimodal1'",
    "ratefn_constant_drift_on_torus_cosine":
        "does not preserve the Gibbs law of 'torus-cosine'",
    "ratefn_bimodal1": "'bimodal1' is not periodic",
    "ratefn_quadratic": "'quadratic' is not periodic",
    "sampling_drift_vector": "unknown or unused key 'drift.vector'",
    "unknown_top_level_key": "unknown or unused key 'bogus'",
    "unknown_density_key": "unknown or unused key 'density.paht'",
    "unknown_spectral_key": "unknown or unused key 'delta'",
    "ratefn_rotational_vector": "unknown or unused key 'drift.vector'",
    "simulate_two_deltas": "one of deltas, got [0.0, 1.0]",
    "simulate_two_seeds": "one of seeds, got [1, 2]",
    "noise_chunk_too_large": "values in one series or noise chunk",
    "noise_chunk_too_large_euler": "values in one series or noise chunk",
    "delta_too_large_for_automatic_substeps": "too large for automatic substeps",
    "repeated_delta": "delta 1.0 is repeated; each delta may appear once",
    "repeated_seed": "seed 7 is repeated; each seed may appear once",
    "seeds_flag_repeated": "seed 5 is repeated",
    "seeds_flag_empty": "--seeds must be comma-separated integers, got ''",
    "repeated_checkpoint": "checkpoint 20.0 is repeated; each checkpoint may appear once",
    "spectral_repeated_delta": "delta 1.0 is repeated; each delta may appear once",
    "threads_zero": "--threads must be >= 1, got 0",
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_2_before_any_solve(case, tmp_path, solvers, capsys):
    command, doc, flags = BAD_INPUTS[case]
    (tmp_path / "short.txt").write_text("1.0\n" * 10)
    cfg = write_config(tmp_path, json.loads(json.dumps(doc).replace("{tmp}", str(tmp_path))))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o"), *flags]) == 2
    assert solvers == []
    assert not (tmp_path / "o").exists()
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert NAMED_IN_MESSAGE.get(case, "") in err


@pytest.mark.parametrize("where", ["under_a_file", "a_directory"])
def test_unwritable_save_path_exits_2_before_simulating(where, tmp_path, solvers):
    (tmp_path / "file").write_text("")
    save = tmp_path / "file" / "z.npy" if where == "under_a_file" else tmp_path
    cfg = write_config(tmp_path, ou_config(horizon=1.0, burn_in=0.1, seeds=[3]))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--save-path", str(save)]) == 2
    assert solvers == []


def test_constant_drift_config_at_dim_8192_builds_within_a_second():
    # the invariance check costs O(d) per point; 8192 is the largest one-seed
    # dimension the MAX_SAMPLER_VALUES noise-chunk bound admits
    doc = ou_config(potential={"name": "torus-zero", "params": {"dim": 8192}},
                    drift={"kind": "constant", "deltas": [0.0, 1.0, 2.0]},
                    initial=None, seeds=[1], horizon=1.0, burn_in=0.1)
    start = time.perf_counter()
    ExperimentConfig.from_dict(doc)
    assert time.perf_counter() - start < 1.0


def test_invariance_points_have_distinct_coordinates_in_every_dimension():
    # the points of dimension d are the first 4 d values of one sequence, so
    # distinct values at the largest dimension mean distinct ones at every d
    sequence = invariance_points(MAX_DIMENSION).ravel()
    assert np.unique(sequence).size == sequence.size
    assert -4.0 <= sequence.min() and sequence.max() < 4.0
    for dims in (1, 2, 3, 1000):
        points = invariance_points(dims)
        assert points.shape == (4, dims)
        np.testing.assert_array_equal(points.ravel(), sequence[:4 * dims])


def test_a_drift_flat_only_on_the_diagonal_is_rejected():
    # on torus-cosine with a = b = 1, c0 . grad U = sin y - sin x for c0 = (1, -1):
    # zero where x = y, so points on the diagonal would accept it
    potential = get_potential("torus-cosine", a=1.0, b=1.0)
    with pytest.raises(ConfigError, match="does not preserve the Gibbs law"):
        cli.build_drift("constant", potential, 1.0, (1.0, -1.0))


def test_a_constant_drift_config_leaves_numpy_random_unloaded():
    code = (
        "import sys\n"
        "from irrlangevin.cli import RateConfig\n"
        "RateConfig.from_dict({'grid': 16, 'density': {'kind': 'uniform'},\n"
        "    'potential': {'name': 'torus-cosine', 'params': {'a': 0.0, 'b': 0.5}},\n"
        "    'drift': {'kind': 'constant', 'vector': [1.0, 0.0]}})\n"
        "print('numpy.random' in sys.modules)\n")
    src = Path(cli.__file__).resolve().parents[1]
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert result.stdout.strip() == "False"


FLAT_CONSTANT_DRIFTS = {
    "torus_zero": ("estimate", ou_config(
        potential={"name": "torus-zero", "params": {"dim": 2}}, horizon=2.0, burn_in=0.5,
        drift={"kind": "constant", "deltas": [0.0, 2.0]})),
    "ratefn_torus_cosine_a0": ("ratefn", rate_config(
        potential={"name": "torus-cosine", "params": {"a": 0.0, "b": 0.5}},
        drift={"kind": "constant", "vector": [1.0, 0.0], "delta": 1.0})),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(FLAT_CONSTANT_DRIFTS))
def test_constant_drift_along_a_flat_direction_runs(case, tmp_path):
    # U does not vary along the vector, so the drift keeps the Gibbs law
    command, doc = FLAT_CONSTANT_DRIFTS[case]
    cfg = write_config(tmp_path, doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("argv", [
    ["estimate", "--scale", "0.5"],
    ["simulate", "--threads", "2"],
    ["ratefn", "--seeds", "1,2"],
    ["spectral", "--threads", "2"],
    ["reproduce-table", "--table", "1", "--config", "c.json"],
])
def test_flags_a_subcommand_ignored_are_rejected(argv, tmp_path, solvers):
    cfg = write_config(tmp_path, ou_config())
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--config", cfg, "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert solvers == []


def test_wedge_drift_kind_is_rejected(tmp_path, solvers):
    cfg = write_config(tmp_path, ou_config(drift={"kind": "wedge", "deltas": [1.0]}))
    assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert solvers == []


def test_thread_pool_never_exceeds_lockstep_batches(tmp_path, monkeypatch):
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    # delta 200 takes 2 substeps on quadratic, delta 0 one: two batches
    doc = ou_config(drift={"kind": "rotational", "deltas": [0.0, 200.0]},
                    horizon=3.0, burn_in=1.0, seeds=[1])
    cfg, out = write_config(tmp_path, doc), str(tmp_path / "o")
    assert main(["estimate", "--config", cfg, "--out", out, "--threads", "5000"]) == 0
    assert sizes == [2]
    assert main(["estimate", "--config", cfg, "--out", out, "--threads", "0"]) == 2
    assert sizes == [2]
    # deltas 0 and 1 share one batch, which runs without a pool
    merged = write_config(tmp_path, {**doc, "drift": {"deltas": [0.0, 1.0]}}, "merged.json")
    assert main(["estimate", "--config", merged, "--out", out, "--threads", "5000"]) == 0
    assert sizes == [2]


def test_wide_delta_groups_run_one_call_each():
    # 200 seeds per group exceed LOCKSTEP_CELLS, as in the ensemble benchmark
    config = ExperimentConfig.from_dict(ou_config(
        drift={"deltas": [0.0, 10.0]}, horizon=1.0, burn_in=0.1, seeds=list(range(200))))
    assert config.lockstep_batches() == [(0,), (1,)]
    # two groups fill one batch of LOCKSTEP_CELLS cells, the third starts the next
    config = ExperimentConfig.from_dict(ou_config(
        drift={"deltas": [0.0, 1.0, 2.0]}, horizon=1.0, burn_in=0.1,
        seeds=list(range(cli.LOCKSTEP_CELLS // 2))))
    assert config.lockstep_batches() == [(0, 1), (2,)]


@pytest.mark.parametrize("potential, deltas, batches", [
    ("quadratic", [0.0, 200.0, 150.0, 0.5], [(0,), (1, 2), (3,)]),
    ("bimodal2", [0.0, 10.0, 100.0, 5.0], [(0, 1), (2,), (3,)]),
])
def test_groups_of_different_substeps_never_share_a_batch(potential, deltas, batches):
    config = ExperimentConfig.from_dict(ou_config(
        potential=potential, drift={"deltas": deltas}, horizon=1.0, burn_in=0.1))
    assert config.lockstep_batches() == batches
    for batch in batches:
        assert len({config.substeps_at(deltas[i]) for i in batch}) == 1


def test_groups_that_fit_the_value_bound_only_apart_run_apart(tmp_path, monkeypatch):
    # each group's noise chunk, 2 seeds x 8192 steps x 2 coordinates, fits the
    # bound; two groups in one call would not
    doc = ou_config(drift={"deltas": [0.0, 1.0]}, horizon=0.05, burn_in=0.01, seeds=[1, 2])
    assert ExperimentConfig.from_dict(doc).lockstep_batches() == [(0, 1)]
    monkeypatch.setattr(cli, "MAX_SAMPLER_VALUES", 2 * 8192 * 2)
    assert ExperimentConfig.from_dict(doc).lockstep_batches() == [(0,), (1,)]
    out = tmp_path / "out"
    assert main(["estimate", "--config", write_config(tmp_path, doc),
                 "--out", str(out)]) == 0
    timing = json.loads((out / "manifest.json").read_text())["sampler_timing"]
    assert [entry["deltas"] for entry in timing] == [[0.0], [1.0]]


def one_call_per_delta(config):
    """The CSV fields of ``config``'s rows when every delta group runs in a
    ``simulate_cells`` call of its own."""
    rows = [row for i in range(len(config.deltas))
            for row in cli._batch_rows(config, (i,))[0]]
    return [[cli._format_value(row[c]) for c in RESULT_COLUMNS] for row in rows]


@pytest.mark.parametrize("deltas", [[0.0, 10.0], [0.0, 10.0, 100.0]])
@pytest.mark.parametrize("potential", ["bimodal1", "bimodal2", "torus-cosine"])
def test_lockstep_batches_give_the_rows_of_one_call_per_delta(potential, deltas):
    # bimodal1 and torus-cosine take the rotation flow, bimodal2 the Euler
    # rule; per-cell drifts of a merged call change no bit of either
    config = ExperimentConfig.from_dict(ou_config(
        potential=potential, drift={"deltas": deltas}, horizon=2.0, burn_in=0.5,
        checkpoints=[1.0, 2.0], batches=2))
    assert len(config.lockstep_batches()) < len(deltas)
    rows, _ = run_experiment(config)
    assert [[cli._format_value(row[c]) for c in RESULT_COLUMNS]
            for row in rows] == one_call_per_delta(config)


def test_threads_give_the_rows_of_one_process(tmp_path):
    # two batches: deltas 0 and 10 share one call, delta 200 takes 2 substeps
    doc = ou_config(drift={"deltas": [0.0, 10.0, 200.0]}, horizon=1.0, burn_in=0.1,
                    seeds=[1, 2])
    assert ExperimentConfig.from_dict(doc).lockstep_batches() == [(0, 1), (2,)]
    cfg = write_config(tmp_path, doc)
    for threads in ("1", "2"):
        assert main(["estimate", "--config", cfg, "--out", str(tmp_path / threads),
                     "--threads", threads]) == 0
    assert ((tmp_path / "1" / "results.csv").read_bytes()
            == (tmp_path / "2" / "results.csv").read_bytes())


# A fuzzed document is a valid config with up to three of its keys, nested
# keys included, dropped or replaced by JSON values of every type:
# non-finite and huge numbers, near-miss names, lists and objects.
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["", "auto", "foo", "wedge", "none", "constant", "gibbs", "file",
                     "uniform", "quadratic", "torus-zero", "bimodal1", "x", "{tmp}"]),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=3),
    st.lists(st.one_of(st.integers(-3, 3), st.floats(), st.none(), st.just("a")),
             max_size=4),
    st.dictionaries(st.sampled_from(["name", "params", "kind", "delta", "dim", "a"]),
                    st.one_of(st.integers(-2, 3), st.floats(-2.0, 2.0)), max_size=3),
)
DROP = object()


def key_paths(doc, prefix=()):
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from key_paths(value, prefix + (key,))


@st.composite
def mutated(draw, base):
    doc = json.loads(json.dumps(base))
    paths = draw(st.lists(st.sampled_from(list(key_paths(base))), max_size=3, unique=True))
    for path in paths:
        parent = doc
        for key in path[:-1]:
            parent = parent.get(key) if isinstance(parent, dict) else None
        if not isinstance(parent, dict):
            continue  # an earlier mutation replaced this sub-document
        value = draw(st.one_of(st.just(DROP), JUNK))
        if value is DROP:
            parent.pop(path[-1], None)
        else:
            parent[path[-1]] = value
    return doc


FUZZ_BASES = {
    "estimate": ou_config(potential={"name": "quadratic", "params": {"dim": 2}},
                          drift={"kind": "rotational", "deltas": [0.0, 2.0]},
                          checkpoints=[20.0, 50.0], batches=10, alpha=0.1,
                          substeps="auto"),
    "ratefn": rate_config(density={"kind": "file", "path": "{tmp}/d.txt"}, quadratic=True),
    "ratefn-gibbs": rate_config(
        potential={"name": "torus-cosine", "params": {"a": 0.5, "b": 0.5}},
        density={"kind": "gibbs", "diffusion": 0.5, "shift": [1.0, 0.0]},
        drift={"kind": "rotational", "delta": 1.0}),
    "spectral": spectral_config(),
}


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
@pytest.mark.parametrize("base", sorted(FUZZ_BASES))
def test_fuzzed_configs_exit_2_or_reach_the_solver(base, data, tmp_path, solvers):
    np.savetxt(tmp_path / "d.txt", np.ones(16))
    doc = data.draw(mutated(FUZZ_BASES[base]))
    cfg = write_config(tmp_path, json.loads(json.dumps(doc).replace("{tmp}", str(tmp_path))))
    solvers.clear()
    try:
        code = main([base.split("-")[0], "--config", cfg, "--out", str(tmp_path / "o")])
    except SolveStarted:
        return
    assert code == 2
    assert solvers == []


def test_importing_the_cli_leaves_scipy_special_unloaded():
    # scipy.special takes ~0.2 s to import; rng and estimators load it on first use
    src = Path(cli.__file__).resolve().parents[1]
    code = "import sys, irrlangevin.cli; print('scipy.special' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert result.stdout.strip() == "False"
