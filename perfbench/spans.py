"""In-memory span recorder and the wrappers that attach it to irrlangevin.

A span is one call across a wrapped module boundary, stored as
``(id, parent id, run id, name, start, end)``.  Spans of one workload run
share a run id.  They are appended to flat arrays while the workload runs
and written out once, when the benchmark ends.  A layer's self time is its
spans' duration minus the part covered by their direct children.

Everything here wraps public names from the outside (module attributes the
program looks up at call time); the program's own files are not modified.
"""

from __future__ import annotations

import array
import collections
import dataclasses
import inspect
import itertools
import time

import numpy as np

from irrlangevin import cli, estimators, ratefn, sampler, spectral
from irrlangevin.rng import NormalStream

#: numpy.fft entry points counted while a gauge solve is open (the real
#: transforms too, so a switch to them keeps being counted).
FFT_FUNCTIONS = ("fftn", "ifftn", "rfftn", "irfftn")

_SIMULATE_CELLS = inspect.signature(sampler.simulate_cells)


class SpanRecorder:
    """Flat, append-only span store with per-run counters."""

    def __init__(self):
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.ids = array.array("q")
        self.parents = array.array("q")
        self.runs = array.array("q")
        self.codes = array.array("q")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.counters: dict[int, collections.Counter] = collections.defaultdict(
            collections.Counter)
        self.run_id = 0
        self._next_id = itertools.count(1)
        self._stack = [0]
        self._open = collections.Counter()

    def code(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def count(self, key: str, value) -> None:
        self.counters[self.run_id][key] += value

    def wrap(self, name: str, fn, counts=None, only_inside: str | None = None):
        """Return ``fn`` wrapped so that each call records one span.

        ``counts(args, kwargs, result)`` may return counter increments.
        With ``only_inside``, calls made while no span of that name is open
        pass straight through unrecorded."""
        code = self.code(name)
        gate = None if only_inside is None else self.code(only_inside)
        stack, opened = self._stack, self._open
        perf = time.perf_counter
        ids, parents, runs, codes = self.ids, self.parents, self.runs, self.codes
        starts, ends = self.starts, self.ends

        def traced(*args, **kwargs):
            if gate is not None and not opened[gate]:
                return fn(*args, **kwargs)
            sid = next(self._next_id)
            parent = stack[-1]
            stack.append(sid)
            opened[code] += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                opened[code] -= 1
                stack.pop()
                ids.append(sid)
                parents.append(parent)
                runs.append(self.run_id)
                codes.append(code)
                starts.append(t0)
                ends.append(t1)
            if counts is not None:
                for key, value in counts(args, kwargs, result).items():
                    self.count(key, value)
            return result

        traced.__wrapped__ = fn
        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        """Copies of the span columns (copies, so the stores can keep growing)."""
        return {
            "ids": np.array(self.ids, dtype=np.int64),
            "parents": np.array(self.parents, dtype=np.int64),
            "runs": np.array(self.runs, dtype=np.int64),
            "codes": np.array(self.codes, dtype=np.int64),
            "starts": np.array(self.starts, dtype=np.float64),
            "ends": np.array(self.ends, dtype=np.float64),
        }

    def layer_times(self, run_id: int) -> dict:
        """Per span name: calls, busy seconds and self seconds in one run.

        ``with_child[c]`` counts the spans of a name that have at least one
        direct child named ``c``."""
        a = self.arrays()
        keep = a["runs"] == run_id
        ids, parents, codes = a["ids"][keep], a["parents"][keep], a["codes"][keep]
        if not len(ids):
            return {}
        dur = a["ends"][keep] - a["starts"][keep]
        order = np.argsort(ids)
        pos = np.searchsorted(ids[order], parents).clip(max=len(ids) - 1)
        has_parent = ids[order][pos] == parents
        parent_index = order[pos[has_parent]]
        child_time = np.zeros(len(ids))
        np.add.at(child_time, parent_index, dur[has_parent])
        n = len(self.names)
        columns = zip(
            self.names,
            np.bincount(codes, minlength=n),
            np.bincount(codes, weights=dur, minlength=n),
            np.bincount(codes, weights=dur - child_time, minlength=n),
        )
        table = {
            name: {"calls": int(c), "busy_s": float(b), "self_s": float(s),
                   "with_child": {}}
            for name, c, b, s in columns if c
        }
        child_codes = codes[has_parent]
        for child in np.unique(child_codes):
            with_child = np.unique(parent_index[child_codes == child])
            for parent, hits in enumerate(np.bincount(codes[with_child], minlength=n)):
                if hits:
                    table[self.names[parent]]["with_child"][self.names[child]] = int(hits)
        return table

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


class Instrumentation:
    """Patch the program's public boundaries; ``restore`` undoes every patch."""

    def __init__(self):
        self._patches = []

    def patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)


class Probe(Instrumentation):
    """Thin hooks on the sampler and solver entry points of ``cli``.

    They record when set-up ended (the first such call of a subcommand) and
    the CPU time of each delta group's ``simulate_cells`` call.  They stay
    installed in every run, traced or not."""

    def __init__(self):
        super().__init__()
        self.first_call = None
        self.groups = []
        for attr in ("simulate_cells", "rate_irreversible", "rate_curvature"):
            self.patch(cli, attr, self._hook(attr, getattr(cli, attr)))

    def _hook(self, attr, fn):
        def hooked(*args, **kwargs):
            if self.first_call is None:
                self.first_call = time.perf_counter()
            c0, t0 = time.process_time(), time.perf_counter()
            result = fn(*args, **kwargs)
            if attr == "simulate_cells":
                self.groups.append({**cell_group(args, kwargs),
                                    "cpu_s": time.process_time() - c0,
                                    "wall_s": time.perf_counter() - t0})
            return result

        return hooked


def cell_group(args, kwargs) -> dict:
    """Delta, cell count, recorded steps and substeps of a simulate_cells call."""
    bound = _SIMULATE_CELLS.bind(*args, **kwargs)
    bound.apply_defaults()
    drifts = bound.arguments["drifts"]
    return {
        "delta": 0.0 if drifts[0] is None else float(drifts[0].delta),
        "cells": len(drifts),
        "steps": bound.arguments["n_steps"],
        "substeps": bound.arguments["substeps"],
    }


def _fft_counts(args, kwargs, result):
    return {"ratefn.fft_bytes_computed": np.asarray(args[0]).nbytes + result.nbytes}


def install_tracing(recorder: SpanRecorder) -> Instrumentation:
    """Wrap every layer boundary the per-layer metrics are derived from."""
    inst = Instrumentation()
    wrap = recorder.wrap

    inst.patch(NormalStream, "normals", wrap(
        "rng.normals", NormalStream.normals,
        counts=lambda a, k, r: {"rng.normals": len(r)}))

    get_potential = cli.get_potential

    def traced_get_potential(name, **params):
        pot = get_potential(name, **params)
        return dataclasses.replace(pot, grad_fn=wrap("potentials.grad", pot.grad_fn))

    inst.patch(cli, "get_potential", traced_get_potential)

    get_observable = cli.get_observable

    def traced_get_observable(name):
        spec = get_observable(name)
        return estimators.ObservableSpec(spec.name, wrap("estimators.observable", spec.fn))

    inst.patch(cli, "get_observable", traced_get_observable)

    inst.patch(cli, "simulate_cells", wrap("sampler", cli.simulate_cells))
    inst.patch(cli, "batch_means", wrap("estimators.batch_means", cli.batch_means))
    inst.patch(cli, "asymptotic_variance_estimate", wrap(
        "estimators.autocov", cli.asymptotic_variance_estimate))
    inst.patch(cli, "rate_irreversible", wrap("ratefn.rate_irreversible",
                                              cli.rate_irreversible))
    inst.patch(cli, "rate_curvature", wrap("spectral.rate_curvature",
                                           cli.rate_curvature))
    inst.patch(ratefn, "check_invariance", wrap("drift.invariance",
                                                ratefn.check_invariance))
    inst.patch(ratefn, "solve_gauge_field", wrap(
        "ratefn.gauge", ratefn.solve_gauge_field,
        counts=lambda a, k, r: {"ratefn.cg_iterations": r.iterations}))
    for fname in FFT_FUNCTIONS:
        inst.patch(np.fft, fname, wrap("ratefn.fft", getattr(np.fft, fname),
                                       counts=_fft_counts, only_inside="ratefn.gauge"))
    inst.patch(np.linalg, "eig", wrap("spectral.eig", np.linalg.eig))
    inst.patch(spectral.ScaledCgf, "value", wrap("spectral.cgf_value",
                                                 spectral.ScaledCgf.value))
    inst.patch(cli, "write_csv", wrap(
        "cli.write", cli.write_csv,
        counts=lambda a, k, r: {"cli.rows_written": len(a[2])}))
    inst.patch(cli, "write_manifest", wrap("cli.write", cli.write_manifest))
    return inst


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(recorder: SpanRecorder, run_id: int,
                  groups: list[dict]) -> dict[str, float]:
    """The per-layer metrics of one traced run (0 where a layer did not run).

    ``groups`` are the ``Probe`` records of the run's ``simulate_cells`` calls."""
    t = recorder.layer_times(run_id)
    c = recorder.counters[run_id]
    substeps = collections.Counter()
    for g in groups:
        substeps[f"d{g['delta']:g}"] += g["substeps"]

    def calls(name):
        return t.get(name, {}).get("calls", 0)

    def busy(name):
        return t.get(name, {}).get("busy_s", 0.0)

    normals = c["rng.normals"]
    cell_substeps = sum(g["cells"] * g["steps"] * g["substeps"] for g in groups)
    cg = c["ratefn.cg_iterations"]
    value_calls = calls("spectral.cgf_value")
    misses = t.get("spectral.cgf_value", {"with_child": {}})["with_child"].get(
        "spectral.eig", 0)
    return {
        "rng.normals": normals,
        "rng.busy_s": busy("rng.normals"),
        "rng.ns_per_normal": _ratio(busy("rng.normals"), normals, 1e9),
        "potentials.grad_calls": calls("potentials.grad"),
        "potentials.grad_busy_s": busy("potentials.grad"),
        "potentials.grad_us_per_call": _ratio(busy("potentials.grad"),
                                              calls("potentials.grad"), 1e6),
        "estimators.observable_calls": calls("estimators.observable"),
        "estimators.observable_busy_s": busy("estimators.observable"),
        "sampler.calls": calls("sampler"),
        "sampler.cell_substeps": cell_substeps,
        "sampler.busy_s": busy("sampler"),
        "sampler.self_s": t.get("sampler", {}).get("self_s", 0.0),
        "sampler.ns_per_cell_substep": _ratio(busy("sampler"), cell_substeps, 1e9),
        "sampler.substeps.d0": substeps["d0"],
        "sampler.substeps.d10": substeps["d10"],
        "sampler.substeps.d100": substeps["d100"],
        "estimators.batch_means_calls": calls("estimators.batch_means"),
        "estimators.batch_means_busy_s": busy("estimators.batch_means"),
        "estimators.autocov_calls": calls("estimators.autocov"),
        "estimators.autocov_busy_s": busy("estimators.autocov"),
        "drift.invariance_calls": calls("drift.invariance"),
        "drift.invariance_busy_s": busy("drift.invariance"),
        "ratefn.gauge_solves": calls("ratefn.gauge"),
        "ratefn.cg_iterations": cg,
        "ratefn.gauge_busy_s": busy("ratefn.gauge"),
        "ratefn.ms_per_cg_iteration": _ratio(busy("ratefn.gauge"), cg, 1e3),
        "ratefn.fft_calls": calls("ratefn.fft"),
        "ratefn.fft_busy_s": busy("ratefn.fft"),
        "ratefn.fft_bytes_computed": c["ratefn.fft_bytes_computed"],
        "spectral.eig_calls": calls("spectral.eig"),
        "spectral.eig_busy_s": busy("spectral.eig"),
        "spectral.ms_per_eig": _ratio(busy("spectral.eig"), calls("spectral.eig"), 1e3),
        "spectral.cgf_value_calls": value_calls,
        "spectral.cgf_cache_hit_ratio": _ratio(value_calls - misses, value_calls),
        "cli.write_busy_s": busy("cli.write"),
        "cli.rows_written": c["cli.rows_written"],
    }


#: Layer metrics that are exact counts: they must repeat exactly run to run.
EXACT_COUNTS = (
    "rng.normals", "sampler.cell_substeps", "sampler.substeps.d0",
    "sampler.substeps.d10", "sampler.substeps.d100", "ratefn.cg_iterations",
    "ratefn.fft_calls", "spectral.eig_calls",
)


def exact_count_checks(layer_runs: list[dict]) -> dict:
    """Check name -> (passed, detail): each exact count is equal in every
    traced run, and there are at least two of them."""
    result = {}
    for name in EXACT_COUNTS:
        values = [run[name] for run in layer_runs]
        result[f"exact_count_repeats.{name}"] = (
            len(values) >= 2 and len(set(values)) == 1, f"values {values}")
    return result


def exact_count_self_test(layer_runs: list[dict]) -> dict:
    """Raise each exact count by one in the last traced run: that count's
    check must then fail."""
    report = {}
    for name in EXACT_COUNTS:
        spoiled = [dict(run) for run in layer_runs]
        spoiled[-1][name] += 1
        check = f"exact_count_repeats.{name}"
        report[check] = {"caught": not exact_count_checks(spoiled)[check][0]}
    return report


def layer_shares(recorder: SpanRecorder, run_id: int, wall_s: float) -> dict[str, float]:
    """Self time of each span name as a share of the run's traced wall time."""
    table = recorder.layer_times(run_id)
    return {name: row["self_s"] / wall_s for name, row in sorted(table.items())}
