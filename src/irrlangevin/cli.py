"""Config-driven experiment runner.

Subcommands
-----------
simulate        save the states of estimate's cell (0, 0) as a .npy file
estimate        batch-means reports for a (delta, seed, checkpoint) grid
sweep           confidence-band time series per delta (figure analogues)
reproduce-table rerun a bundled reference-variance table and compare ratios
ratefn          rate-functional report for a grid density
spectral        circle diagnostics: sigma^2 tables and rate curves

All outputs are deterministic functions of (config, seeds): repeated runs
produce byte-identical data files; only the manifest, each run's one
provenance record, carries a timestamp and wall times.  Every sampling
command samples through ``_sample``.  A rerun replaces each regular output
file with a new file (``sampler.open_output``).
Exit codes: 0 success, 2 config error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import csv
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .drift import Drift, check_invariance, invariance_points
from .errors import ConfigError, ParameterError, PropagationError, SolverError
from .estimators import (
    asymptotic_variance_estimate, batch_count_schedule, batch_means, get_observable,
)
from .potentials import get_potential
from .ratefn import GridDensity, rate_irreversible
from .rng import NORMAL_ALGORITHM, NormalStream, splitmix64
from .sampler import (
    NOISE_CHUNK, non_finite_error, open_output, remove_output, simulate_cells,
    stable_substeps,
)
from .spectral import (
    MAX_GRID, FourierObservable, check_levels, fourier_sigma2, observable_rate,
    rate_curvature,
)

RESULT_COLUMNS = (
    "potential,delta,D,dt,t,v,m,estimate,s2m,ci_lo,ci_hi,"
    "sigma2_batch,seed"
).split(",")

SWEEP_COLUMNS = ["delta", "seed", "t", "estimate", "ci_lo", "ci_hi"]

#: The observable of the spectral subcommand: f(x) = cos x on the circle.
SPECTRAL_OBSERVABLE = FourierObservable.cosine()

#: Reference variance tables for the three benchmark potentials
#: (delta -> one value per horizon).  Individual cells are single stochastic
#: realizations; only delta-to-delta ratios at fixed t are comparable.
TABLE_SPECS = {
    1: {
        "potential": "bimodal1",
        "deltas": (0.0, 10.0, 100.0),
        "times": (25.0, 100.0, 160.0, 220.0, 295.0),
        "reference": {
            0.0: (0.22, 0.08, 0.038, 0.029, 0.011),
            10.0: (0.19, 0.01, 0.007, 0.005, 0.002),
            100.0: (0.09, 0.001, 3e-4, 2.8e-4, 1.3e-4),
        },
    },
    2: {
        "potential": "bimodal2",
        "deltas": (0.0, 10.0),
        "times": (100.0, 200.0, 300.0, 400.0, 500.0, 600.0, 700.0),
        "reference": {
            0.0: (0.01, 0.006, 0.002, 0.002, 0.002, 0.003, 0.002),
            10.0: (0.003, 7e-4, 2e-4, 1e-4, 7e-5, 6e-5, 6e-5),
        },
    },
    3: {
        "potential": "threewell",
        "deltas": (0.0, 10.0),
        "times": (100.0, 200.0, 300.0, 400.0, 500.0, 600.0, 700.0),
        "reference": {
            0.0: (0.004, 0.002, 0.002, 0.001, 0.001, 0.001, 0.001),
            10.0: (0.001, 3e-4, 2e-4, 1e-4, 1e-4, 1e-4, 1e-4),
        },
    },
}
#: The seeds of a bundled table run without --seeds.
TABLE_SEEDS = (1, 2, 3, 4, 5)


# ---------------------------------------------------------------------------
# configuration: one frozen config per subcommand family, whose from_dict
# checks every name, type, range, dimension, batch count and data file, so
# an invalid document exits with code 2 before any solve starts.

_REQUIRED = object()
#: Most ratefn grid nodes; its memory grows with the node count.
MAX_RATE_GRID_NODES = 2**20
#: Most float64 values (512 MiB) one lockstep batch may hold in its recorded
#: series or in one noise chunk; the largest shipped run, a 200-seed
#: ensemble of 50001 steps, records 1e7.
MAX_SAMPLER_VALUES = 2**26
#: Most cells one lockstep batch of several delta groups may hold.  A step
#: costs a fixed 1-7 us of numpy dispatch plus 35-85 ns per cell, so merging
#: pays below about 30-130 cells; wider groups run one call each and keep
#: their recorded series apart.
LOCKSTEP_CELLS = 64


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise ConfigError(message)


def _check_distinct(name: str, values) -> None:
    """Reject a value given twice, naming it: each value keys output rows."""
    seen = set()
    for value in values:
        _check(value not in seen, f"{name} {value!r} is repeated; each {name} "
                                  f"may appear once")
        seen.add(value)


def _convert(value, kind: type, name: str):
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is float:  # finite; comparing avoids float() overflow on big ints
        ok, what = number and abs(value) <= sys.float_info.max, "a finite number"
    elif kind is int:  # integral: 2 and 2.0 pass, 2.5 does not
        ok, what = number and (isinstance(value, int) or value.is_integer()), "an integer"
    else:
        ok = isinstance(value, kind)
        what = {bool: "true or false", str: "a string", dict: "a JSON object"}[kind]
    if not ok:
        raise ConfigError(f"{name} must be {what}, got {value!r}")
    return kind(value)


class _Fields:
    """Strict typed reads from one JSON object; every error names its key.
    It records the keys it reads, so ``reject_unread`` can refuse the rest."""

    def __init__(self, doc, path: str = ""):
        if not isinstance(doc, dict):
            raise ConfigError(f"{path.rstrip('.') or 'config'} must be a JSON "
                              f"object, got {doc!r}")
        self.doc, self.path, self.read, self.sections = doc, path, set(), []

    def __call__(self, key: str, kind, default=_REQUIRED):
        """``doc[key]`` as ``kind``: float, int, bool, str, dict, or a list
        such as ``[float]``.  A missing or null key gives ``default``."""
        name, value = self.path + key, self.doc.get(key)
        self.read.add(key)
        if value is None:
            _check(default is not _REQUIRED, f"missing required key {name!r}")
            return default
        if not isinstance(kind, list):
            return _convert(value, kind, name)
        if not isinstance(value, list):
            raise ConfigError(f"{name} must be a list, got {value!r}")
        return tuple(_convert(v, kind[0], f"{name}[{i}]") for i, v in enumerate(value))

    def choice(self, key: str, options: tuple, default=_REQUIRED):
        value = self(key, str, default)
        _check(value in options, f"{self.path}{key} must be one of {list(options)}, "
                                 f"got {value!r}")
        return value

    def section(self, key: str, default=_REQUIRED) -> "_Fields":
        self.sections.append(_Fields(self(key, dict, default), f"{self.path}{key}."))
        return self.sections[-1]

    def auto_or_int(self, key: str):
        self.read.add(key)
        return "auto" if self.doc.get(key) == "auto" else self(key, int, "auto")

    def potential(self) -> tuple[str, dict]:
        """``"potential": "name"`` or ``{"name": ..., "params": {...}}``."""
        if isinstance(self.doc.get("potential"), str):
            return self("potential", str), {}
        spec = self.section("potential")
        name, params = spec("name", str), spec("params", dict, {})
        for key, value in params.items():  # checked as numbers, passed as given
            _convert(value, float, f"{spec.path}params.{key}")
        return name, params

    def reject_unread(self, config):
        """``config``, once no key of this object or its sections is unread."""
        for key in sorted(self.doc.keys() - self.read):
            raise ConfigError(f"unknown or unused key {self.path + key!r}")
        for section in self.sections:
            section.reject_unread(config)
        return config


def build_drift(kind: str, potential, delta: float, vector=None) -> Drift:
    """The drift a config names, ``rotational`` delta J2 grad U or
    ``constant`` delta * vector (all ones by default), once check_invariance
    admits it at ``invariance_points``: a rotational drift needs a potential
    in 2 dimensions, and a constant one a potential flat along its vector.
    A drift it rejects is a ConfigError."""
    if kind == "constant" and vector is None:
        vector = (1.0,) * potential.dimension
    drift = Drift(delta, vector)
    try:
        check_invariance(drift, potential, invariance_points(potential.dimension))
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc
    return drift


@dataclass(frozen=True)
class ExperimentConfig:
    """Sampling experiment (simulate, estimate, sweep, reproduce-table): the
    one sampling config, whose fields go straight into ``simulate_cells``.
    Construction checks that no delta or seed is repeated, that every name
    resolves and every drift builds, that the diffusion is finite and
    nonnegative, that substeps is at least 1, that the horizon holds one step
    and that ``initial`` (default: the origin) has the potential's dimension.
    It sets ``checkpoints`` (default: the horizon), and checks that each
    checkpoint has 2 samples per batch and that each lockstep batch's
    recorded series and noise chunk fit in MAX_SAMPLER_VALUES (see
    ``sampler_values``)."""

    potential: str
    deltas: tuple[float, ...]
    diffusion: float
    dt: float
    horizon: float
    burn_in: float
    seeds: tuple[int, ...]
    potential_params: dict = field(default_factory=dict)
    drift_kind: str = "rotational"
    observable: str = "sumsq"
    alpha: float = 0.05
    batches: int | str = "auto"  # "auto" -> schedule m(t)
    checkpoints: tuple[float, ...] = ()
    initial: tuple[float, ...] | None = None
    substeps: int | str = "auto"

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        fields = _Fields(doc)
        name, params = fields.potential()
        drift = fields.section("drift", {})
        deltas = drift("deltas", [float], None)
        return fields.reject_unread(cls(
            potential=name,
            potential_params=params,
            drift_kind=drift.choice("kind", ("rotational", "constant"), "rotational"),
            deltas=(drift("delta", float, 0.0),) if deltas is None else deltas,
            diffusion=fields("diffusion", float),
            dt=fields("dt", float),
            horizon=fields("horizon", float),
            burn_in=fields("burn_in", float, 5.0),
            observable=fields("observable", str, "sumsq"),
            alpha=fields("alpha", float, 0.05),
            batches=fields.auto_or_int("batches"),
            seeds=fields("seeds", [int], ()),
            checkpoints=fields("checkpoints", [float], ()),
            initial=fields("initial", [float], None),
            substeps=fields.auto_or_int("substeps"),
        ))

    def __post_init__(self):
        _check(self.deltas and self.seeds, "delta and seed lists must be nonempty")
        for name, values in (("delta", self.deltas), ("seed", self.seeds),
                             ("checkpoint", self.checkpoints)):
            _check_distinct(name, values)  # (delta, seed, t) keys a result row
        _check(self.dt > 0 and 0 <= self.burn_in < self.horizon,
               "need dt > 0 and 0 <= burn_in < horizon")
        _check(math.isfinite(self.horizon / self.dt), "horizon / dt is too large")
        _check(self.horizon >= self.dt,
               "horizon must be at least one step (dt <= horizon)")
        _check(math.isfinite(self.diffusion) and self.diffusion >= 0.0,
               f"diffusion must be finite and nonnegative (0 means ODE), "
               f"got {self.diffusion}")
        _check(self.substeps == "auto" or self.substeps >= 1, "substeps must be >= 1")
        _check(0 < self.alpha < 1, "alpha must lie in (0, 1)")
        _check(self.batches == "auto" or self.batches >= 2, "batches must be >= 2")
        try:
            potential = self.build_potential()
            get_observable(self.observable)
            n_steps, dims = self.n_steps, potential.dimension
            if self.initial is None:
                object.__setattr__(self, "initial", (0.0,) * dims)
            _check(len(self.initial) == dims, f"initial state has dimension "
                   f"{len(self.initial)}, potential has dimension {dims}")
            for batch in self.lockstep_batches():
                values = self.sampler_values(batch)
                _check(values <= MAX_SAMPLER_VALUES, f"delta {self.deltas[batch[0]]} "
                       f"needs {values} values in one series or noise chunk, over "
                       f"{MAX_SAMPLER_VALUES}")
            for delta in self.deltas:
                self.drift(potential, delta)
        except ParameterError as exc:
            raise ConfigError(str(exc)) from exc
        object.__setattr__(self, "checkpoints", self.checkpoints or (self.horizon,))
        start = round(self.burn_in / self.dt)
        for t in self.checkpoints:
            _check(self.burn_in < t <= self.horizon + 1e-9,
                   f"checkpoint {t} outside (burn_in, horizon]")
            samples, m = min(round(t / self.dt), n_steps) - start, self.batches_at(t)
            _check(samples >= 2 * m, f"checkpoint {t} leaves {samples} post-burn-in "
                                     f"samples, fewer than 2 per batch for m = {m}")

    def batches_at(self, t: float) -> int:
        return batch_count_schedule(t) if self.batches == "auto" else self.batches

    def build_potential(self):
        return get_potential(self.potential, **self.potential_params)

    def rotation_at(self, delta: float) -> str:
        """How the drift at ``delta`` rotates: ``"flow"``, the split step, when
        the potential has a ``rotation_flow``, ``"euler"``, inside the
        Euler-Maruyama update, when it has none, and ``"none"`` at delta = 0
        or for a constant drift.  It also picks the automatic substep rule."""
        if delta == 0.0 or self.drift_kind == "constant":
            return "none"
        return "euler" if self.build_potential().rotation_flow is None else "flow"

    def substeps_at(self, delta: float) -> int:
        """Substeps per recorded step at ``delta``.  Automatic substeps follow
        delta only where the drift rotates (``rotation_at``): the Euler step
        of a constant drift sees only -grad U, as delta = 0 does, and takes 1."""
        if self.substeps != "auto":
            return self.substeps
        rotation = self.rotation_at(delta)
        if rotation == "none":
            return 1
        return stable_substeps(delta, self.dt, split=rotation == "flow")

    @property
    def n_steps(self) -> int:
        # guard against 294999-style float representation of horizon/dt
        return int(math.floor(self.horizon / self.dt + 1e-9))

    def sampler_values(self, batch: tuple[int, ...]) -> int:
        """Float64 values in the larger of the recorded series ((n_steps + 1)
        x cells, or x d for simulate's trajectory) and the noise chunk of one
        ``simulate_cells`` call over the delta groups ``batch``.  The block
        the chunk is moved through is never larger than the chunk."""
        cells, dims = len(batch) * len(self.seeds), len(self.initial)
        substeps = self.substeps_at(self.deltas[batch[0]])
        return max((self.n_steps + 1) * max(cells, dims),
                   cells * max(substeps, NOISE_CHUNK) * dims)

    def lockstep_batches(self) -> list[tuple[int, ...]]:
        """The delta indices of each ``simulate_cells`` call, in order.
        Consecutive delta groups share one lockstep call while they take equal
        substeps, the call holds at most LOCKSTEP_CELLS cells and its
        ``sampler_values`` fit in MAX_SAMPLER_VALUES; any other group runs
        alone."""
        substeps = [self.substeps_at(delta) for delta in self.deltas]
        batches = [(0,)]
        for i in range(1, len(self.deltas)):
            merged = batches[-1] + (i,)
            if (substeps[i] == substeps[merged[0]]
                    and len(merged) * len(self.seeds) <= LOCKSTEP_CELLS
                    and self.sampler_values(merged) <= MAX_SAMPLER_VALUES):
                batches[-1] = merged
            else:
                batches.append((i,))
        return batches

    def drift(self, potential, delta: float):
        """The drift at strength ``delta``; delta = 0 is exactly reversible
        dynamics (None) for every kind, the one reversible baseline."""
        return None if delta == 0.0 else build_drift(self.drift_kind, potential, delta)

    def substeps_by_delta(self) -> list[dict]:
        """The integrator of each delta group, as manifest.json records it:
        the substeps ``substeps_at`` resolves, the substep size h and the
        rule ``rotation_at`` names."""
        return [{"delta": delta, "substeps": n, "h": self.dt / n,
                 "rotation": self.rotation_at(delta)}
                for delta, n in ((delta, self.substeps_at(delta)) for delta in self.deltas)]

    def to_dict(self) -> dict:
        """The config in document form, as echoed in manifest.json; the
        potential's params are those its builder resolved, defaults included."""
        doc = asdict(self)
        del doc["potential_params"]
        doc["potential"] = {"name": self.potential, "params": self.build_potential().params}
        doc["drift"] = {"kind": doc.pop("drift_kind"), "deltas": doc.pop("deltas")}
        return doc


@dataclass(frozen=True)
class RateConfig:
    """ratefn inputs, resolved: the potential, the grid density (a density
    file is read and its size checked here) and the drift."""

    potential: object
    density: GridDensity
    drift: object
    diffusion: float
    quadratic: bool

    @classmethod
    def from_dict(cls, doc: dict) -> "RateConfig":
        fields = _Fields(doc)
        size, diffusion = fields("grid", int), fields("diffusion", float, 0.5)
        _check(diffusion > 0, "diffusion must be > 0")
        name, params = fields.potential()
        potential = get_potential(name, **params)
        dims = potential.dimension
        _check(potential.period is not None, f"ratefn grids the 2 pi torus, but "
                                             f"potential {name!r} is not periodic")
        _check(dims in (1, 2) and 1 <= size and size**dims <= MAX_RATE_GRID_NODES,
               f"need a potential in 1 or 2 dimensions (not {dims}) and a grid "
               f"with 1 <= grid**{dims} <= {MAX_RATE_GRID_NODES}")
        density = fields.section("density")
        kind = density.choice("kind", ("gibbs", "uniform", "file"))
        if kind == "gibbs":
            shift = density("shift", [float], None)
            _check(shift is None or len(shift) == dims,
                   f"density.shift must have {dims} entries")
            grid_density = GridDensity.from_potential(
                potential, density("diffusion", float, diffusion), size, shift=shift)
        elif kind == "uniform":
            grid_density = GridDensity.uniform(size, dims)
        else:
            path = density("path", str)
            try:
                raw = np.loadtxt(path)
            except (OSError, ValueError) as exc:
                raise ConfigError(f"cannot read density file {path!r}: {exc}") from exc
            _check(raw.size == size**dims, f"density file {path!r} has {raw.size} "
                                           f"values, grid {size} needs {size**dims}")
            grid_density = GridDensity.from_values(raw.reshape((size,) * dims))
        drift = fields.section("drift", {})
        kind = drift.choice("kind", ("rotational", "constant"), "rotational")
        # a rotational drift reads no vector, so reject_unread refuses one
        vector = drift("vector", [float], None) if kind == "constant" else None
        return fields.reject_unread(cls(
            potential=potential,
            density=grid_density,
            drift=build_drift(kind, potential, drift("delta", float, 1.0), vector),
            diffusion=diffusion,
            quadratic=fields("quadratic", bool, False),
        ))


@dataclass(frozen=True)
class SpectralConfig:
    """spectral inputs: the deltas and the ``ell_grid`` levels are distinct,
    and each level lies strictly inside the range of the observable sampled
    on the grid."""

    deltas: tuple[float, ...]
    diffusion: float
    grid: int
    ell_grid: tuple[float, ...]

    @classmethod
    def from_dict(cls, doc: dict) -> "SpectralConfig":
        fields = _Fields(doc)
        config = cls(fields("deltas", [float]), fields("diffusion", float, 1.0),
                     fields("grid", int, 256), fields("ell_grid", [float], ()))
        _check(config.deltas, "delta list must be nonempty")
        _check_distinct("delta", config.deltas)
        _check(config.diffusion > 0, "diffusion must be > 0")
        _check(8 <= config.grid <= MAX_GRID, f"grid must lie in [8, {MAX_GRID}]")
        check_levels(SPECTRAL_OBSERVABLE.samples(config.grid), config.ell_grid)
        return fields.reject_unread(config)


# ---------------------------------------------------------------------------
# experiment execution


def _sample(config: ExperimentConfig, delta_indices: tuple[int, ...],
            observable=None) -> tuple[np.ndarray, dict]:
    """Simulate every seed of the delta groups ``delta_indices`` (one
    ``lockstep_batches`` entry) in one lockstep call.  Returns the states, or
    the ``observable`` series, of the cells (delta, seed) in that order, and
    the batch's ``sampler_timing`` entry: its deltas and cells, the wall and
    CPU seconds of the call and the cell-substeps per second.  Cell (delta,
    seed) owns the RNG stream splitmix64(delta_index, seed_index), so results
    do not depend on batching or scheduling.  A blow-up names its delta and
    its cell within that delta's group; when several groups diverge, the
    earliest step across the batch is reported."""
    seeds, deltas = config.seeds, [config.deltas[i] for i in delta_indices]
    potential = config.build_potential()
    n_steps, substeps = config.n_steps, config.substeps_at(deltas[0])
    drifts = []
    for delta in deltas:
        drifts += [config.drift(potential, delta)] * len(seeds)
    streams = [NormalStream(seed, splitmix64(i, j))
               for i in delta_indices for j, seed in enumerate(seeds)]
    cells = len(drifts)
    start, cpu = time.perf_counter(), time.process_time()
    try:
        series = simulate_cells(
            potential, drifts, config.diffusion, config.dt, n_steps,
            [config.initial] * cells, streams, observable=observable, substeps=substeps)
    except PropagationError as exc:
        group, cell = divmod(exc.cell_index, len(seeds))
        raise non_finite_error(exc.step_index, config.dt, cell, deltas[group],
                               f"delta {deltas[group]}: ") from None
    wall = time.perf_counter() - start
    timing = {"deltas": deltas, "cells": cells, "wall_s": wall,
              "cpu_s": time.process_time() - cpu,
              "cell_substeps_per_s": cells * n_steps * substeps / wall}
    return series, timing


def _batch_rows(config: ExperimentConfig,
                delta_indices: tuple[int, ...]) -> tuple[list[dict], dict]:
    """One result row per (delta, seed, checkpoint) of ``_sample``'s observable
    series, in that order, and its ``sampler_timing`` entry.  A statistic
    that is not finite, as when a finite state squares to inf, is a
    SolverError naming the delta, seed and checkpoint."""
    series, timing = _sample(config, delta_indices, get_observable(config.observable).fn)
    rows = []
    cells = [(config.deltas[i], seed) for i in delta_indices for seed in config.seeds]
    for values, (delta, seed) in zip(series, cells):
        for t in config.checkpoints:
            window = values[: round(t / config.dt) + 1]
            m = config.batches_at(t)
            with np.errstate(over="ignore", invalid="ignore"):  # checked below
                report = batch_means(window, m, config.alpha, config.dt, config.burn_in)
                sigma2 = asymptotic_variance_estimate(window, config.dt, m=m,
                                                      burn_in=config.burn_in)
            rows.append({
                "potential": config.potential,
                "delta": delta,
                "D": config.diffusion,
                "dt": config.dt,
                "t": t,
                "v": config.burn_in,
                "m": m,
                "estimate": report.estimate,
                "s2m": report.s2m,
                "ci_lo": report.ci_lower,
                "ci_hi": report.ci_upper,
                "sigma2_batch": sigma2,
                "seed": seed,
            })
            bad = [f"{key} {value}" for key, value in rows[-1].items()
                   if isinstance(value, float) and not math.isfinite(value)]
            if bad:
                where = f"delta {delta}, seed {seed}, t {t}"
                raise SolverError(f"{where}: batch statistics are not finite "
                                  f"({', '.join(bad)}): the observable grew too large "
                                  f"to average", solve=where)
    return rows, timing


def _check_threads(threads: int) -> None:
    _check(threads >= 1, f"--threads must be >= 1, got {threads}")


def run_experiment(config: ExperimentConfig,
                   threads: int = 1) -> tuple[list[dict], list[dict]]:
    """Rows for the full (delta, seed, checkpoint) grid, in deterministic
    cell order regardless of batching and scheduling, and the
    ``sampler_timing`` entry of each lockstep batch (``lockstep_batches``).
    The batches run in a pool of at most ``threads`` workers and never more
    workers than batches; one batch starts no pool."""
    _check_threads(threads)
    batches = config.lockstep_batches()
    if threads > 1 and len(batches) > 1:
        workers = min(threads, len(batches))
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_batch_rows, [config] * len(batches), batches))
    else:
        results = [_batch_rows(config, batch) for batch in batches]
    return [row for rows, _ in results for row in rows], [timing for _, timing in results]


def _format_value(value) -> str:
    if isinstance(value, float):
        return repr(float(value))  # shortest round-trip form, numpy included
    return "" if value is None else str(value)


class _Writing:
    """``with _Writing(path) as w:`` times writing ``path``, closing included
    (``w.seconds``, set on exit), and reports an OSError from it as a
    ConfigError (exit 2)."""

    def __init__(self, path):
        self.path, self.seconds = path, 0.0

    def __enter__(self):
        self._start = time.perf_counter()
        return self

    def __exit__(self, kind, exc, tb):
        self.seconds = time.perf_counter() - self._start
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write {self.path}: {exc}") from exc


def write_csv(path: Path, columns, rows) -> float:
    """Write ``rows`` under the header ``columns``; return the wall seconds."""
    with _Writing(path) as writing, open_output(path, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_value(row[c]) for c in columns])
    return writing.seconds


def write_json(path: Path, doc: dict) -> float:
    """Write ``doc`` as sorted, indented JSON; return the wall seconds."""
    with _Writing(path) as writing, open_output(path) as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return writing.seconds


def write_manifest(path: Path, config_doc: dict, extra: dict | None = None) -> None:
    """``extra`` holds the command's own keys, ``write_s`` (the wall seconds
    spent writing its data files) among them."""
    write_json(path, {"version": __version__, "rng": NORMAL_ALGORITHM,
                      "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
                      "config": config_doc, **(extra or {})})


def remove_stale(paths) -> None:
    """Remove outputs an earlier run left that this run does not write, so
    none stays beside its manifest; an OSError exits 2, as for a write."""
    for path in paths:
        with _Writing(path):
            remove_output(path)


@contextlib.contextmanager
def _failure_manifest(out: Path, config_doc: dict, data_files, extra: dict | None = None):
    """Run the block; when it raises PropagationError or SolverError, remove
    the ``data_files`` the command would have written (regular files only,
    as ``open_output`` replaces them), write ``out/manifest.json`` with
    ``extra`` and a ``failure`` entry and re-raise, so ``main`` reports the
    failure (exit 3) and no data file of an earlier run stays beside the
    manifest.  A blow-up's entry holds the cell's delta, the step, the cell
    within its delta group and t; a solver's the failed solve and message."""
    try:
        yield
    except (PropagationError, SolverError) as exc:
        if isinstance(exc, SolverError):
            failure = {"solve": exc.solve, "message": str(exc)}
        else:
            failure = {"delta": exc.delta, "step_index": exc.step_index,
                       "cell_index": exc.cell_index, "t": exc.t}
        for path in data_files:
            with contextlib.suppress(OSError):  # the failure stays the reported cause
                remove_output(path)
        with contextlib.suppress(ConfigError):
            write_manifest(out / "manifest.json", config_doc,
                           {**(extra or {}), "failure": failure})
        raise


# ---------------------------------------------------------------------------
# table reproduction


def table_config(table_id: int, scale: float = 1.0,
                 seeds: tuple[int, ...] = TABLE_SEEDS) -> ExperimentConfig:
    """The ``estimate`` config of a bundled table: D 0.1, dt 1e-3, one
    checkpoint per reference column, each rescaled by ``scale`` in (0, 1],
    and a burn-in of min(5, a quarter of the first checkpoint)."""
    _check(table_id in TABLE_SPECS, f"table id must be one of {sorted(TABLE_SPECS)}")
    _check(0 < scale <= 1.0, "scale must lie in (0, 1]")
    spec = TABLE_SPECS[table_id]
    times = tuple(t * scale for t in spec["times"])
    return ExperimentConfig(
        potential=spec["potential"], deltas=spec["deltas"], diffusion=0.1, dt=1e-3,
        horizon=max(times), burn_in=min(5.0, 0.25 * min(times)), seeds=tuple(seeds),
        checkpoints=times)


def compare_table(table_id: int, rows: list[dict]) -> list[dict]:
    """The ``tableN_comparison.csv`` rows of the ``results.csv`` rows of a
    ``table_config`` run: per (delta, t) the reference and the seed median
    of ``s2m``.  Individual variance cells are single stochastic
    realizations, so the check is on ratios to delta = 0 at fixed t: the
    measured ratio must reach a third of the reference one.  (The band is
    one-sided: a stabilized integrator routinely shows *more* variance
    reduction than the printed cells, which is a success, not a mismatch.)"""
    spec = TABLE_SPECS[table_id]
    base, times = spec["deltas"][0], sorted({row["t"] for row in rows})
    medians = {(delta, t): float(np.median([r["s2m"] for r in rows
                                            if r["delta"] == delta and r["t"] == t]))
               for delta in spec["deltas"] for t in times}
    table = []
    for delta in spec["deltas"]:
        for i, t in enumerate(times):
            reference, measured = spec["reference"][delta][i], medians[(delta, t)]
            ref_ratio = meas_ratio = None
            if delta != base:
                ref_ratio = spec["reference"][base][i] / reference
                meas_ratio = medians[(base, t)] / measured
            table.append({"table": table_id, "delta": delta, "t": t,
                          "reference_value": reference, "measured_value": measured,
                          "reference_ratio": ref_ratio, "measured_ratio": meas_ratio,
                          "ratio_check": delta == base or meas_ratio >= ref_ratio / 3.0})
    return table


# ---------------------------------------------------------------------------
# subcommands


def _load_config_doc(args) -> dict:
    if not args.config:
        raise ConfigError(f"{args.command} requires --config")
    try:
        with open(args.config) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:  # missing file, bad JSON, bad encoding
        raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    _check(isinstance(doc, dict), "config must be a JSON object")
    return doc


def _seed_list(text: str) -> tuple[int, ...]:
    try:
        seeds = tuple(int(s) for s in text.split(",") if s.strip())
    except ValueError:
        seeds = ()
    _check(seeds, f"--seeds must be comma-separated integers, got {text!r}")
    return seeds


def _experiment_config(args) -> ExperimentConfig:
    doc = _load_config_doc(args)
    if args.seeds is not None:
        doc["seeds"] = list(_seed_list(args.seeds))
    return ExperimentConfig.from_dict(doc)


def _make_dir(path: Path, what: str) -> Path:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create {what} {path}: {exc}") from exc
    return path


def _out_dir(args) -> Path:
    return _make_dir(Path(args.out), "output directory")


def cmd_simulate(args) -> int:
    """The states of ``estimate``'s cell (0, 0), as a ``.npy`` of shape
    (n_steps + 1, d); ``manifest.json`` holds the run's provenance."""
    config = _experiment_config(args)
    for name, values in (("deltas", config.deltas), ("seeds", config.seeds)):
        _check(len(values) == 1, f"simulate writes one trajectory, so it takes "
                                 f"one of {name}, got {list(values)}")
    out = _out_dir(args)
    path = Path(args.save_path) if args.save_path else out / "trajectory.npy"
    _make_dir(path.parent, "the directory of --save-path")
    _check(not path.is_dir(), f"--save-path {path} is a directory")
    with _failure_manifest(out, config.to_dict(), [path]):
        (states,), timing = _sample(config, (0,))
    with _Writing(path) as writing, open_output(path, "wb") as fh:
        np.save(fh, states)
    write_manifest(out / "manifest.json", config.to_dict(),
                   {"trajectory": str(path), "substeps": config.substeps_by_delta(),
                    "sampler_timing": [timing], "write_s": writing.seconds})
    print(f"wrote {path} ({len(states)} states)")
    return 0


def cmd_estimate(args) -> int:
    """estimate writes every (delta, seed, checkpoint) row to results.csv;
    sweep writes the confidence bands of the same rows, grouped per seed,
    to sweep.csv."""
    _check_threads(args.threads)
    config = _experiment_config(args)
    out = _out_dir(args)
    name, columns = "results.csv", RESULT_COLUMNS
    if args.command == "sweep":
        name, columns = "sweep.csv", SWEEP_COLUMNS
    with _failure_manifest(out, config.to_dict(), [out / name]):
        rows, sampler_timing = run_experiment(config, threads=args.threads)
    if args.command == "sweep":
        rows = sorted(rows, key=lambda r: (r["delta"], r["seed"], r["t"]))
    write_s = write_csv(out / name, columns, rows)
    write_manifest(out / "manifest.json", config.to_dict(),
                   {"threads": args.threads, "substeps": config.substeps_by_delta(),
                    "sampler_timing": sampler_timing, "write_s": write_s})
    print(f"wrote {out / name} ({len(rows)} rows)")
    return 0


def cmd_reproduce_table(args) -> int:
    """``estimate`` of ``table_config``, with ``table`` and ``scale`` beside
    the manifest's ``config``, plus this table's ``compare_table`` CSV; the
    other tables' comparison CSVs are removed."""
    _check_threads(args.threads)
    seeds = TABLE_SEEDS if args.seeds is None else _seed_list(args.seeds)
    config = table_config(args.table, args.scale, seeds)
    out = _out_dir(args)
    comparisons = {i: out / f"table{i}_comparison.csv" for i in TABLE_SPECS}
    echo = {"table": args.table, "scale": args.scale}
    with _failure_manifest(out, config.to_dict(),
                           [out / "results.csv", *comparisons.values()], echo):
        rows, sampler_timing = run_experiment(config, threads=args.threads)
    table_rows = compare_table(args.table, rows)
    write_s = write_csv(out / "results.csv", RESULT_COLUMNS, rows)
    write_s += write_csv(comparisons.pop(args.table), list(table_rows[0]), table_rows)
    remove_stale(comparisons.values())
    write_manifest(out / "manifest.json", config.to_dict(),
                   {**echo, "threads": args.threads, "substeps": config.substeps_by_delta(),
                    "sampler_timing": sampler_timing, "write_s": write_s})
    status = "PASS" if all(row["ratio_check"] for row in table_rows) else "FAIL"
    print(f"table {args.table} ratio checks: {status}")
    return 0


def cmd_ratefn(args) -> int:
    doc = _load_config_doc(args)
    config = RateConfig.from_dict(doc)
    out = _out_dir(args)
    start = time.perf_counter()
    with _failure_manifest(out, doc, [out / "rate_report.json", out / "rate_summary.csv"]):
        report = rate_irreversible(config.density, config.potential, config.drift,
                                   config.diffusion, compute_quadratic=config.quadratic)
    wall_s = time.perf_counter() - start
    report_doc = {
        "I0": report.i0, "J_C": report.j_c, "I_C": report.i_c, "K": report.k,
        "diffusion": report.diffusion, "grid": list(report.grid_shape),
        "gauge_residual": report.gauge_residual,
        "gauge_residual_rel": report.gauge_residual_rel,
        "gauge_iterations": report.gauge_iterations,
        "quadratic_residual": report.quadratic_residual,
        "lemma_value": report.lemma_value, "lemma_mismatch": report.lemma_mismatch,
    }
    write_s = write_json(out / "rate_report.json", report_doc)
    columns = ["potential", "delta", "D", "grid", "I0", "J_C", "I_C", "K"]
    write_s += write_csv(out / "rate_summary.csv", columns, [{
        **report_doc, "potential": config.potential.name, "delta": config.drift.delta,
        "D": config.diffusion, "grid": config.density.size,
    }])
    write_manifest(out / "manifest.json", doc, {"gauge_solves": report.gauge_solves,
                                                "wall_s": wall_s, "write_s": write_s})
    print(f"wrote {out / 'rate_report.json'}")
    return 0


def cmd_spectral(args) -> int:
    config = SpectralConfig.from_dict(_load_config_doc(args))
    out = _out_dir(args)
    sigma_csv, curve_csv = out / "sigma2.csv", out / "rate_curve.csv"
    samples = SPECTRAL_OBSERVABLE.samples(config.grid)
    sigma_rows, curve_rows = [], []
    start = time.perf_counter()
    with _failure_manifest(out, asdict(config), [sigma_csv, curve_csv]):
        for delta in config.deltas:
            try:
                implied = rate_curvature(samples, delta, config.diffusion)[1]
                fourier = fourier_sigma2(SPECTRAL_OBSERVABLE, delta, config.diffusion)
                if not all(math.isfinite(v) and v > 0 for v in (fourier, implied)):
                    raise SolverError(f"sigma^2 at delta {delta} is not finite and "
                                      f"positive (Fourier {fourier}, curvature {implied})")
                rates = observable_rate(samples, delta, config.diffusion,
                                        config.ell_grid) if config.ell_grid else ()
            except SolverError as exc:
                raise SolverError(str(exc), solve=f"delta {delta}") from exc
            sigma_rows.append({"delta": delta, "D": config.diffusion,
                               "sigma2_fourier": fourier, "sigma2_curvature": implied})
            curve_rows += [{"delta": delta, "D": config.diffusion, "ell": ell,
                            "rate": float(rate)}
                           for ell, rate in zip(config.ell_grid, rates)]
    wall_s = time.perf_counter() - start
    write_s = write_csv(sigma_csv, ["delta", "D", "sigma2_fourier", "sigma2_curvature"],
                        sigma_rows)
    if curve_rows:
        write_s += write_csv(curve_csv, ["delta", "D", "ell", "rate"], curve_rows)
    else:
        remove_stale([curve_csv])
    write_manifest(out / "manifest.json", asdict(config),
                   {"wall_s": wall_s, "write_s": write_s})
    print(f"wrote {sigma_csv}")
    return 0


# ---------------------------------------------------------------------------
# entry point


#: Every command-line flag; each subcommand takes --out and the ones it lists.
FLAGS = {
    "--out": dict(default="out", help="output directory"),
    "--config": dict(help="path to a JSON config document"),
    "--seeds": dict(help="comma-separated seed list override"),
    "--threads": dict(type=int, default=1,
                      help="parallel workers over lockstep batches of delta groups"),
    "--save-path": dict(help="trajectory file destination"),
    "--table": dict(type=int, required=True, choices=sorted(TABLE_SPECS)),
    "--scale": dict(type=float, default=1.0, help="horizon rescaling factor"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irrlangevin", description="Irreversible Langevin sampling experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, flags, text in (
        ("simulate", cmd_simulate, "--config --seeds --save-path",
         "integrate and store one trajectory"),
        ("estimate", cmd_estimate, "--config --seeds --threads",
         "batch-means estimation grid"),
        ("sweep", cmd_estimate, "--config --seeds --threads",
         "confidence-band time series per delta"),
        ("reproduce-table", cmd_reproduce_table, "--table --scale --seeds --threads",
         "rerun a bundled reference-variance table"),
        ("ratefn", cmd_ratefn, "--config", "rate-functional report for a grid density"),
        ("spectral", cmd_spectral, "--config", "circle sigma^2 tables and rate curves"),
    ):
        command = sub.add_parser(name, help=text)
        command.set_defaults(handler=handler)
        for flag in ("--out", *flags.split()):
            command.add_argument(flag, **FLAGS[flag])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, ParameterError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, PropagationError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
