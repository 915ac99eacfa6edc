"""Output files: every write goes through ``sampler.open_output``, a rerun
replaces each regular output with a new file holding the same bytes, and
what is not a regular file (a symlink, a device, a directory) is written
through or reported, never removed."""

import ast
import json
import math
import os
import time
from pathlib import Path

import pytest

from irrlangevin import cli
from irrlangevin.cli import main
from irrlangevin.errors import SolverError

SRC = Path(__file__).resolve().parents[1] / "src" / "irrlangevin"

OU = {"potential": "quadratic", "drift": {"kind": "rotational", "deltas": [1.0]},
      "diffusion": 0.1, "dt": 1e-3, "horizon": 2.0, "burn_in": 0.5,
      "observable": "x", "seeds": [11, 12], "checkpoints": [1.0, 2.0],
      "initial": [0.0, 0.0]}

#: Subcommand -> (config document or None, extra flags, data files it writes).
COMMANDS = {
    "simulate": ({**OU, "seeds": [3]}, [], ["trajectory.traj"]),
    "estimate": (OU, [], ["results.csv"]),
    "sweep": (OU, [], ["sweep.csv"]),
    "reproduce-table": (None, ["--table", "1", "--scale", "0.02", "--seeds", "1,2"],
                        ["results.csv", "table1_comparison.csv"]),
    "ratefn": ({"grid": 16,
                "potential": {"name": "torus-cosine", "params": {"a": 0.5, "b": 0.5}},
                "density": {"kind": "gibbs", "shift": [1.0, 0.0]},
                "drift": {"kind": "rotational", "delta": 2.0}, "quadratic": True},
               [], ["rate_report.json", "rate_summary.csv"]),
    "spectral": ({"deltas": [1.0], "diffusion": 1.0, "grid": 16, "ell_grid": [0.2]},
                 [], ["sigma2.csv", "rate_curve.csv"]),
}


def run(command, tmp_path, out, code=0):
    doc, flags, _ = COMMANDS[command]
    argv = [command, *flags, "--out", str(out)]
    if doc is not None:
        config = tmp_path / f"{command}.json"
        config.write_text(json.dumps(doc))
        argv += ["--config", str(config)]
    assert main(argv) == code


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_a_rerun_writes_new_files_with_the_bytes_of_a_fresh_run(command, tmp_path):
    fresh, rerun, links = tmp_path / "fresh", tmp_path / "rerun", tmp_path / "links"
    run(command, tmp_path, fresh)
    run(command, tmp_path, rerun)
    names = [*COMMANDS[command][2], "manifest.json"]
    links.mkdir()
    old = {}
    for name in names:
        # a longer file in place of the output: the rerun must leave no tail of it
        with open(rerun / name, "ab") as fh:
            fh.write(b"stale tail\n" * 1000)
        os.link(rerun / name, links / name)  # holds the old inode: no reuse
        old[name] = ((rerun / name).stat().st_ino, (rerun / name).read_bytes())
    run(command, tmp_path, rerun)
    for name in names:
        assert (rerun / name).stat().st_ino != old[name][0], name
        assert (links / name).read_bytes() == old[name][1], name
    for name in COMMANDS[command][2]:
        assert (rerun / name).read_bytes() == (fresh / name).read_bytes(), name


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_the_config_in_a_manifest_reruns_the_same_data_files(command, tmp_path):
    # reproduce-table's config is the estimate document of its bundled table
    first, again = tmp_path / "first", tmp_path / "again"
    run(command, tmp_path, first)
    config = tmp_path / "manifest_config.json"
    config.write_text(json.dumps(json.loads((first / "manifest.json").read_text())["config"]))
    rerun, names = command, COMMANDS[command][2]
    if command == "reproduce-table":
        rerun, names = "estimate", ["results.csv"]
    assert main([rerun, "--config", str(config), "--out", str(again)]) == 0
    for name in names:
        assert (again / name).read_bytes() == (first / name).read_bytes(), name


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_manifest_records_the_seconds_spent_writing_data_files(command, tmp_path):
    out = tmp_path / "o"
    start = time.perf_counter()
    run(command, tmp_path, out)
    elapsed = time.perf_counter() - start
    write_s = json.loads((out / "manifest.json").read_text())["write_s"]
    assert isinstance(write_s, float) and math.isfinite(write_s)
    assert 0.0 < write_s < elapsed


#: The solve entry points of ``cli`` (each command calls one) and the error
#: each raises when it fails.
FAILURES = {
    "simulate_cells": lambda: cli.non_finite_error(7, 1e-3, 0, 1.0),
    "rate_irreversible": lambda: SolverError("gauge solver did not converge", solve="main"),
    "rate_curvature": lambda: SolverError("non-positive curvature at the mean"),
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_a_failed_solve_leaves_only_its_failure_manifest(command, tmp_path, monkeypatch):
    out = tmp_path / "o"
    run(command, tmp_path, out)

    def fail(make):
        def entry(*args, **kwargs):
            raise make()
        return entry

    for name, make in FAILURES.items():
        monkeypatch.setattr(cli, name, fail(make))
    run(command, tmp_path, out, code=3)
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]
    assert "failure" in json.loads((out / "manifest.json").read_text())


def test_a_symlinked_output_stays_a_link_and_its_target_gets_the_new_bytes(tmp_path):
    fresh, out = tmp_path / "fresh", tmp_path / "o"
    run("spectral", tmp_path, fresh)
    target = tmp_path / "kept" / "sigma2.csv"
    target.parent.mkdir()
    target.write_bytes(b"old bytes, longer than the new ones\n" * 100)
    out.mkdir()
    (out / "sigma2.csv").symlink_to(target)
    run("spectral", tmp_path, out)
    assert (out / "sigma2.csv").is_symlink()
    assert os.readlink(out / "sigma2.csv") == str(target)
    assert target.read_bytes() == (fresh / "sigma2.csv").read_bytes()


#: The only function that may open a file for writing: (module file, name).
OPENER = ("sampler.py", "open_output")


def _open_mode(call: ast.Call):
    """The mode expression of an ``open`` call, None when it has none (read):
    the second argument of ``open(path, mode)``, the first of
    ``Path.open(mode)``, or ``mode=``."""
    for keyword in call.keywords:
        if keyword.arg == "mode":
            return keyword.value
    index = 0 if isinstance(call.func, ast.Attribute) else 1
    return call.args[index] if len(call.args) > index else None


def file_writes(source: str, module: str) -> list[int]:
    """Lines of ``source`` that open a file for writing outside ``OPENER``:
    an ``open`` or ``.open`` call whose mode writes ("w", "x", "a" or "+") or
    is not a string constant, and any ``.write_text`` or ``.write_bytes``."""
    found = []

    def visit(node, exempt):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            exempt = exempt or (module, node.name) == OPENER
        if isinstance(node, ast.Call) and not exempt:
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ("write_text", "write_bytes") and isinstance(func, ast.Attribute):
                found.append(node.lineno)
            elif name == "open":
                mode = _open_mode(node)
                if mode is not None and not (isinstance(mode, ast.Constant)
                                             and isinstance(mode.value, str)
                                             and not set(mode.value) & set("wxa+")):
                    found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, exempt)

    visit(ast.parse(source), False)
    return found


def test_every_output_file_is_opened_by_open_output():
    writes = {path.name: file_writes(path.read_text(), path.name)
              for path in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in writes.items() if lines} == {}


def test_the_write_check_sees_each_way_to_write_a_file():
    source = "\n".join([
        "open(p)", "open(p, 'rb')", "Path(p).open()", "open(p, mode='r')",
        "open(p, 'w')", "open(p, 'wb')", "open(p, 'x')", "open(p, 'a')",
        "open(p, 'r+')", "open(p, mode)", "open(p, mode='w')", "Path(p).open('w')",
        "p.write_text(s)", "p.write_bytes(b)", "os.open(p, flags)",
        "def open_output(p):\n    return open(p, 'w')",
    ])
    assert file_writes(source, "cli.py") == list(range(5, 16)) + [17]
    assert file_writes(source, "sampler.py") == list(range(5, 16))
