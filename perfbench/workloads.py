"""The benchmark workloads: inputs made from a seed, the subcommand calls
that run them, and the correctness checks on what the program wrote.

Every workload runs through ``irrlangevin.cli.main`` with ``--threads 1``.
The program sees only the seeds and config documents generated here.
"""

from __future__ import annotations

import copy
import csv
import json
import math
import random
import statistics
from pathlib import Path

import numpy as np

#: A Monte Carlo check passes when its statistic lies within this many
#: standard errors of the exact value.
Z_MAX = 5.0

#: Table 1 horizon scale (last checkpoint t = 8.85).  The delta = 0 cells
#: start on the barrier top, so short horizons bias them low; at this scale
#: the bias stays within 3.3 standard errors on 150 seed sets tried.
TABLE1_SCALE = 0.03

ENSEMBLE = {"seeds": 200, "horizon": 50.0, "deltas": (0.0, 10.0), "diffusion": 0.1}

SPECTRAL_DELTAS = (4.0,)
RATEFN_DELTA = 2.0


def gibbs_mean_sumsq_bimodal1(diffusion: float = 0.1) -> float:
    """E[x^2 + y^2] under exp(-U/D), U = (x^2 - 1)^2 / 4 + y^2 / 2, by
    quadrature in x (the y factor is Gaussian, E[y^2] = D)."""
    x = np.linspace(-4.0, 4.0, 200_001)
    w = np.exp(-0.25 * (x**2 - 1.0) ** 2 / diffusion)
    return float(np.trapezoid(x**2 * w, x) / np.trapezoid(w, x)) + diffusion


def derived_seeds(label: str, seed: int, n: int) -> list[int]:
    rng = random.Random(f"{label}:{seed}")
    return [rng.randrange(1, 2**31) for _ in range(n)]


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return [
            {k: (v if k == "potential" else float(v)) for k, v in row.items()}
            for row in csv.DictReader(fh)
        ]


def numbers(obj):
    """Every number inside nested dicts and lists."""
    if isinstance(obj, dict):
        for v in obj.values():
            yield from numbers(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from numbers(v)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield float(obj)


class Workload:
    """One named workload.  Subclasses define the commands, the parsed
    outputs, the checks, one perturbation per check and diagnostics."""

    name = ""
    labels: tuple[str, ...] = ()
    data_files: tuple[str, ...] = ()

    def commands(self, workdir: Path, seed: int, warmup: bool = False) -> list:
        raise NotImplementedError

    def parse(self, workdir: Path) -> dict:
        raise NotImplementedError

    def specific_checks(self, outputs: dict) -> dict:
        raise NotImplementedError

    def specific_perturbations(self) -> dict:
        raise NotImplementedError

    def diagnostics(self, outputs: dict, groups: list) -> dict:
        return {}

    # -- shared parts ---------------------------------------------------

    def read(self, workdir: Path, exit_codes: dict) -> dict:
        outputs = {"exit_codes": dict(exit_codes), "files": {}, "parsed": {}}
        for rel in self.data_files:
            path = workdir / rel
            if path.is_file():
                outputs["files"][rel] = path.read_bytes()
        if all(rc == 0 for rc in exit_codes.values()):
            try:
                outputs["parsed"] = self.parse(workdir)
            except (OSError, ValueError, KeyError) as exc:
                outputs["parse_error"] = repr(exc)
        return outputs

    def checks(self, outputs: dict, reference_files: dict | None) -> dict:
        """Check name -> (passed, detail)."""
        result = {
            f"exit_code.{label}": (rc == 0, f"exit code {rc}")
            for label, rc in outputs["exit_codes"].items()
        }
        parsed = outputs["parsed"]
        values = list(numbers(parsed))
        result["finite"] = (
            bool(values) and all(math.isfinite(v) for v in values),
            f"{len(values)} values",
        )
        missing = sorted(set(self.data_files) - set(outputs["files"]))
        same = not missing and (reference_files is None
                                or reference_files == outputs["files"])
        result["rerun_identical"] = (same, f"missing {missing}" if missing else
                                     "data files byte-identical to the first run")
        if "parse_error" in outputs:
            result["outputs_readable"] = (False, outputs["parse_error"])
        elif parsed:
            try:
                result.update(self.specific_checks(parsed))
            except (KeyError, ValueError, statistics.StatisticsError) as exc:
                result["outputs_readable"] = (False, repr(exc))
        return result

    def perturbations(self) -> dict:
        """Check name -> function that spoils a deep copy of the outputs so
        that this check must fail."""

        def bad_exit(outputs, label):
            outputs["exit_codes"][label] = 3

        def nan(outputs):
            rows = next(v for v in outputs["parsed"].values() if isinstance(v, list))
            key = [k for k, v in rows[0].items() if isinstance(v, float)][-1]
            rows[0][key] = math.nan

        def flip_byte(outputs):
            rel = self.data_files[0]
            data = bytearray(outputs["files"][rel])
            data[-2] ^= 1
            outputs["files"][rel] = bytes(data)

        spoil = {"finite": nan, "rerun_identical": flip_byte}
        for label in self.labels:
            spoil[f"exit_code.{label}"] = lambda o, label=label: bad_exit(o, label)
        for name, fn in self.specific_perturbations().items():
            spoil[name] = lambda o, fn=fn: fn(o["parsed"])
        return spoil

    def self_test(self, outputs: dict) -> dict:
        """Spoil outputs that pass every check, once per check: that check
        must then fail, so the failure count rises from 0."""
        base = self.checks(outputs, None)
        spoilers = self.perturbations()
        report = {name: {"caught": False, "detail": "no perturbation"}
                  for name in base if name not in spoilers}
        for name, spoil in spoilers.items():
            spoiled = copy.deepcopy(outputs)
            spoil(spoiled)
            after = self.checks(spoiled, outputs["files"])
            failed = sum(not ok for ok, _ in after.values())
            report[name] = {"caught": name in after and not after[name][0],
                            "failed_after": failed}
        return report


def _last_checkpoint(rows: list, delta: float) -> list:
    t_max = max(r["t"] for r in rows)
    return [r for r in rows if r["delta"] == delta and r["t"] == t_max]


def _batch_se(row: dict) -> float:
    return math.sqrt(row["s2m"] / row["m"])


class Table1(Workload):
    """Table 1 of the paper at a reduced horizon: lockstep groups of 5 cells,
    and the delta=100 group takes 40 substeps per step, so per-call
    interpreter overhead dominates."""

    name = "table1"
    deltas = (0.0, 10.0, 100.0)
    labels = ("reproduce-table",)
    data_files = ("table1/results.csv", "table1/table1_comparison.csv")

    def __init__(self):
        self.exact = gibbs_mean_sumsq_bimodal1()

    def commands(self, workdir, seed, warmup=False):
        seeds = derived_seeds("table1", seed, 5)
        scale = 0.002 if warmup else TABLE1_SCALE
        return [("reproduce-table", [
            "reproduce-table", "--table", "1", "--scale", repr(scale),
            "--seeds", ",".join(map(str, seeds)), "--threads", "1",
            "--out", str(workdir / "table1"),
        ])]

    def parse(self, workdir):
        return {"rows": read_rows(workdir / "table1" / "results.csv")}

    def _z(self, rows, delta):
        """Seed-median estimate at the last checkpoint and the standard error
        of one seed's estimate: the larger of the median batch-means SE and
        the seed-to-seed standard deviation."""
        last = _last_checkpoint(rows, delta)
        estimates = [r["estimate"] for r in last]
        se = max(statistics.median(_batch_se(r) for r in last),
                 statistics.stdev(estimates))
        return statistics.median(estimates), se

    def specific_checks(self, parsed):
        result = {}
        for delta in self.deltas:
            median, se = self._z(parsed["rows"], delta)
            z = (median - self.exact) / se
            result[f"gibbs_mean.d{delta:g}"] = (
                abs(z) <= Z_MAX,
                f"seed-median {median:.5f} vs exact {self.exact:.5f}: {z:+.2f} SE",
            )
        return result

    def specific_perturbations(self):
        def shift(parsed, delta):
            _, se = self._z(parsed["rows"], delta)
            for row in parsed["rows"]:
                if row["delta"] == delta:
                    row["estimate"] += 10.0 * se

        return {f"gibbs_mean.d{d:g}": (lambda p, d=d: shift(p, d)) for d in self.deltas}

    def diagnostics(self, parsed, groups):
        rows = parsed["rows"]
        out = {}
        for delta in self.deltas:
            median, se = self._z(rows, delta)
            out[f"z_gibbs_mean.d{delta:g}"] = (median - self.exact) / se
            out[f"median_s2m.d{delta:g}"] = statistics.median(
                r["s2m"] for r in _last_checkpoint(rows, delta))
        return out


class Ensemble(Workload):
    """OU process with 200 seeds per lockstep group: per-element sampler
    work, the estimators and the largest CSV, with exact mean and sigma^2."""

    name = "ensemble"
    labels = ("estimate",)
    data_files = ("ensemble/results.csv",)

    def commands(self, workdir, seed, warmup=False):
        n_seeds = 2 if warmup else ENSEMBLE["seeds"]
        horizon = 5.5 if warmup else ENSEMBLE["horizon"]
        doc = {
            "potential": {"name": "quadratic", "params": {}},
            "drift": {"kind": "rotational", "deltas": list(ENSEMBLE["deltas"])},
            "diffusion": ENSEMBLE["diffusion"],
            "dt": 0.001,
            "horizon": horizon,
            "burn_in": 5.0,
            "observable": "x",
            "seeds": derived_seeds("ensemble", seed, n_seeds),
            "checkpoints": [5.25, 5.5] if warmup else [25.0, horizon],
            "substeps": "auto",
        }
        config = workdir / "ensemble.json"
        config.write_text(json.dumps(doc))
        return [("estimate", ["estimate", "--config", str(config), "--threads", "1",
                              "--out", str(workdir / "ensemble")])]

    def parse(self, workdir):
        return {"rows": read_rows(workdir / "ensemble" / "results.csv")}

    @staticmethod
    def _mean_se(rows, delta):
        estimates = [r["estimate"] for r in _last_checkpoint(rows, delta)]
        return statistics.fmean(estimates), statistics.stdev(estimates) / math.sqrt(
            len(estimates))

    def specific_checks(self, parsed):
        result = {}
        for delta in ENSEMBLE["deltas"]:
            mean, se = self._mean_se(parsed["rows"], delta)
            result[f"mean_zero.d{delta:g}"] = (
                abs(mean) <= Z_MAX * se, f"grand mean {mean:+.3e}: {mean / se:+.2f} SE")
        return result

    def specific_perturbations(self):
        def shift(parsed, delta):
            _, se = self._mean_se(parsed["rows"], delta)
            for row in parsed["rows"]:
                if row["delta"] == delta:
                    row["estimate"] += 10.0 * se

        return {f"mean_zero.d{d:g}": (lambda p, d=d: shift(p, d))
                for d in ENSEMBLE["deltas"]}

    def diagnostics(self, parsed, groups):
        rows = parsed["rows"]
        d = ENSEMBLE["diffusion"]
        out = {}
        cpu = {g["delta"]: g["cpu_s"] for g in groups}
        for delta in ENSEMBLE["deltas"]:
            last = _last_checkpoint(rows, delta)
            exact = 2.0 * d / (1.0 + delta**2)
            sigma2 = statistics.fmean(r["sigma2_batch"] for r in last)
            key = f"d{delta:g}"
            out[f"sigma2_batch_mean.{key}"] = sigma2
            out[f"sigma2_batch_median_over_exact.{key}"] = statistics.median(
                r["sigma2_batch"] for r in last) / exact
            out[f"sigma2_exact.{key}"] = exact
            out[f"ci_coverage.{key}"] = statistics.fmean(
                float(r["ci_lo"] <= 0.0 <= r["ci_hi"]) for r in last)
            out[f"var_x_cpu.{key}"] = sigma2 * cpu.get(delta, math.nan)
        return out


class Analytic(Workload):
    """The grid solvers no Monte Carlo workload touches: the ratefn gauge CG
    solves (FFTs) and the spectral principal-eigenvalue solves (dense eig)."""

    name = "analytic"
    labels = ("ratefn", "spectral")
    data_files = ("ratefn/rate_report.json", "ratefn/rate_summary.csv",
                  "spectral/sigma2.csv")

    def commands(self, workdir, seed, warmup=False):
        grid = 32 if warmup else 256
        rng = random.Random(f"analytic:{seed}")
        shift = [rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, 2.0 * math.pi)]
        rate = {
            "grid": grid,
            "diffusion": 0.5,
            "potential": {"name": "torus-cosine", "params": {"a": 0.5, "b": 0.5}},
            "density": {"kind": "gibbs", "diffusion": 0.5, "shift": shift},
            "drift": {"kind": "rotational", "delta": RATEFN_DELTA},
            "quadratic": True,
        }
        spec = {"deltas": list(SPECTRAL_DELTAS), "diffusion": 1.0, "grid": grid}
        (workdir / "ratefn.json").write_text(json.dumps(rate))
        (workdir / "spectral.json").write_text(json.dumps(spec))
        return [
            ("ratefn", ["ratefn", "--config", str(workdir / "ratefn.json"),
                        "--out", str(workdir / "ratefn")]),
            ("spectral", ["spectral", "--config", str(workdir / "spectral.json"),
                          "--out", str(workdir / "spectral")]),
        ]

    def parse(self, workdir):
        report = json.loads((workdir / "ratefn" / "rate_report.json").read_text())
        return {"report": report,
                "sigma2": read_rows(workdir / "spectral" / "sigma2.csv")}

    def specific_checks(self, parsed):
        r = parsed["report"]
        law = RATEFN_DELTA**2 * r["K"]
        result = {
            "quadratic_law": (abs(r["J_C"] - law) <= 1e-6 * abs(r["J_C"]),
                              f"J_C {r['J_C']:.12g} vs delta^2 K {law:.12g}"),
            "lemma_mismatch": (r["lemma_mismatch"] <= 1e-12 * abs(r["I_C"]),
                               f"mismatch {r['lemma_mismatch']:.3e}, I_C {r['I_C']:.6g}"),
        }
        by_delta = {row["delta"]: row for row in parsed["sigma2"]}
        for delta in SPECTRAL_DELTAS:
            row = by_delta[delta]
            rel = abs(row["sigma2_curvature"] / row["sigma2_fourier"] - 1.0)
            result[f"curvature_identity.d{delta:g}"] = (
                rel <= 0.02, f"relative difference {rel:.2e}")
        return result

    def specific_perturbations(self):
        def scale_k(parsed):
            parsed["report"]["K"] *= 1.0 + 1e-5

        def mismatch(parsed):
            parsed["report"]["lemma_mismatch"] = 1e-9 * abs(parsed["report"]["I_C"])

        def curvature(parsed, delta):
            for row in parsed["sigma2"]:
                if row["delta"] == delta:
                    row["sigma2_curvature"] *= 1.03

        spoil = {"quadratic_law": scale_k, "lemma_mismatch": mismatch}
        for d in SPECTRAL_DELTAS:
            spoil[f"curvature_identity.d{d:g}"] = lambda p, d=d: curvature(p, d)
        return spoil

    def diagnostics(self, parsed, groups):
        r = parsed["report"]
        out = {"I0": r["I0"], "J_C": r["J_C"], "K": r["K"],
               "lemma_mismatch_rel": r["lemma_mismatch"] / abs(r["I_C"])}
        for row in parsed["sigma2"]:
            out[f"sigma2_curvature_rel_err.d{row['delta']:g}"] = (
                row["sigma2_curvature"] / row["sigma2_fourier"] - 1.0)
        return out


WORKLOADS = {w.name: w for w in (Table1(), Ensemble(), Analytic())}
