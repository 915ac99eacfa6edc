"""Benchmark harness for irrlangevin.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 44 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 44

Each workload runs in this process through ``irrlangevin.cli.main`` from
``src/``, repeatedly for ``--seconds``; every run's outputs are checked.
With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics (medians over the runs); with ``--trace 1`` it carries
the per-layer metrics of a separate traced run.  ``--workload all`` runs
every workload, each in its own process, and prints one table.  The full
record (samples, diagnostics, checks, environment) goes to
``.bench_out/<workload>-seed<n>-trace<t>.json``.
"""

from __future__ import annotations

import os

#: BLAS threads for the numpy/scipy the workloads load (at most nproc).
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ".bench_out"
MIN_RUNS = 2
#: Fresh-interpreter import timings taken after each untraced run.
IMPORT_SAMPLES = 3
IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import irrlangevin.cli; "
    "print(time.perf_counter() - t)"
)

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = tuple(w["name"] for w in SPEC["workloads"])
#: name -> unit of the metrics the result line carries, per trace mode.
UNITS = {trace: {m["name"]: m["unit"] for m in SPEC[kind]}
         for trace, kind in ((0, "end_to_end"), (1, "per_layer"))}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# statistics


def summary(values: list[float]) -> dict:
    """Median, quartiles, sample count, and (from twenty samples on) the
    highest percentile that has at least ten samples beyond it."""
    values = sorted(values)
    n = len(values)
    out = {"median": statistics.median(values), "n": n,
           "min": values[0], "max": values[-1]}
    if n >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    if n >= 20:
        level = math.floor(100.0 * (1.0 - 10.0 / n))
        out[f"p{level}"] = statistics.quantiles(values, n=100)[level - 1]
    return out


# ---------------------------------------------------------------------------
# the program under test


def run_once(cli, probe, workload, workdir, commands, recorder=None) -> dict:
    """Run one workload (all its subcommands) and read what it wrote."""
    main = cli.main if recorder is None else recorder.wrap("cli.main", cli.main)
    record = {"wall_s": {}, "cpu_s": {}, "setup_s": {}, "exit_codes": {}, "stderr": {}}
    probe.groups = []
    for label, argv in commands:
        probe.first_call = None
        err = io.StringIO()
        c0, t0 = time.process_time(), time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                rc = main(argv)
            except Exception:  # a traceback is a failed run, not a harness crash
                traceback.print_exc()
                rc = 1
        t1, c1 = time.perf_counter(), time.process_time()
        record["wall_s"][label] = t1 - t0
        record["cpu_s"][label] = c1 - c0
        record["setup_s"][label] = (probe.first_call or t1) - t0
        record["exit_codes"][label] = rc
        if err.getvalue():
            record["stderr"][label] = err.getvalue()[-2000:]
    record["groups"] = probe.groups
    record["wall"] = sum(record["wall_s"].values())
    record["cpu"] = sum(record["cpu_s"].values())
    record["setup"] = sum(record["setup_s"].values())
    record["cell_substeps"] = sum(g["cells"] * g["steps"] * g["substeps"]
                                  for g in probe.groups)
    record["outputs"] = workload.read(workdir, record["exit_codes"])
    return record


def import_seconds(root: Path) -> float:
    """Time ``import irrlangevin.cli`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], env=env, cwd=root,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": int(BLAS_THREADS),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# measurement


class Checks:
    """Accumulates check outcomes over every run of one benchmark run."""

    def __init__(self, workload):
        self.workload = workload
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.last = {}
        self.self_test = None

    def add(self, outputs: dict, label: str) -> None:
        result = self.workload.checks(outputs, self.reference)
        if self.self_test is None and all(ok for ok, _ in result.values()):
            self.self_test = self.workload.self_test(outputs)
        if self.reference is None:
            self.reference = outputs["files"]
        self.attempted += len(result)
        for name, (ok, detail) in result.items():
            if not ok:
                self.failed += 1
                self.failures.append(f"{label}: {name}: {detail}")
        self.last = {name: {"ok": ok, "detail": detail}
                     for name, (ok, detail) in result.items()}

    def add_one(self, name: str, ok: bool, detail: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}")

    @property
    def self_test_ok(self) -> bool:
        """Every check could be made to fail (vacuous when no run passed)."""
        return all(r["caught"] for r in (self.self_test or {}).values())


def measure(workload, seed: int, seconds: float, trace: bool, root: Path,
            workdir: Path) -> dict:
    from irrlangevin import cli

    import spans

    result = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "environment": environment()}
    probe = spans.Probe()
    checks = Checks(workload)
    try:
        warm = run_once(cli, probe, workload, workdir,
                        workload.commands(workdir, seed, warmup=True))
        checks.add_one("warmup_exit_codes", all(rc == 0 for rc in warm["exit_codes"].values()),
                       json.dumps(warm["exit_codes"]))
        commands = workload.commands(workdir, seed)
        recorder = spans.SpanRecorder() if trace else None
        plain, traced = [], []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            plain.append(run_once(cli, probe, workload, workdir, commands))
            checks.add(plain[-1]["outputs"], f"run {len(plain)}")
            if not trace:
                # set-up samples after every run, spread over the measuring window
                plain[-1]["import_s"] = [import_seconds(root)
                                         for _ in range(IMPORT_SAMPLES)]
            else:
                recorder.run_id = len(traced) + 1
                instrumentation = spans.install_tracing(recorder)
                try:
                    traced.append(run_once(cli, probe, workload, workdir, commands,
                                           recorder))
                finally:
                    instrumentation.restore()
                checks.add(traced[-1]["outputs"], f"traced run {len(traced)}")
            step = time.perf_counter() - t0
            elapsed = time.perf_counter() - start
            if len(plain) >= MIN_RUNS and elapsed + step > seconds:
                break
    finally:
        probe.restore()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["runs"] = [strip(r) for r in plain]
    last = plain[-1]
    if all(c["ok"] for c in checks.last.values()):
        result["diagnostics"] = workload.diagnostics(last["outputs"]["parsed"],
                                                     last["groups"])
    if trace:
        result["traced_runs"] = [strip(r) for r in traced]
        layer_runs = [spans.layer_metrics(recorder, i + 1, run["groups"])
                      for i, run in enumerate(traced)]
        for name, (ok, detail) in spans.exact_count_checks(layer_runs).items():
            checks.add_one(name, ok, detail)
        checks.self_test = {**(checks.self_test or {}),
                            **spans.exact_count_self_test(layer_runs)}
        # counts are equal in every traced run (checked above); times are medians
        layers = {name: first if isinstance(first, int)
                  else statistics.median(run[name] for run in layer_runs)
                  for name, first in layer_runs[0].items()}
        layers["trace.overhead_s"] = (statistics.median(r["wall"] for r in traced)
                                      - statistics.median(r["wall"] for r in plain))
        result["per_layer"] = layers
        result["layer_shares"] = spans.layer_shares(recorder, len(traced),
                                                    traced[-1]["wall"])
        trace_path = root / OUT_DIR / f"spans-{workload.name}-seed{seed}.npz"
        recorder.save(trace_path)
        result["spans_file"] = str(trace_path.relative_to(root))
    else:
        result["end_to_end"] = end_to_end(plain, result)
    result["checks"] = {"attempted": checks.attempted, "failed": checks.failed,
                        "fail_frac": checks.failed / checks.attempted,
                        "failures": checks.failures[:50], "last_run": checks.last}
    result["self_test"] = {"ok": checks.self_test_ok, "checks": checks.self_test}
    return result


def strip(record: dict) -> dict:
    return {k: v for k, v in record.items() if k != "outputs"}


def end_to_end(runs: list, result: dict) -> dict:
    """Every end-to-end figure of one workload: the gated metrics first,
    then the workload-specific ones (reported, not gated)."""
    imports = summary([s for r in runs for s in r["import_s"]])
    before_solve = summary([r["setup"] for r in runs])
    metrics = {
        "wall_s": summary([r["wall"] for r in runs]),
        "cpu_s": summary([r["cpu"] for r in runs]),
        "setup_s": {"median": imports["median"] + before_solve["median"],
                    "n": imports["n"], "import_s": imports,
                    "before_first_solve_s": before_solve},
        "peak_rss_mb": {"median": result["peak_rss_mb"], "n": 1},
    }
    extra = {}
    if runs[0]["cell_substeps"]:
        extra["cell_substeps_per_s"] = ("1/s", summary(
            [r["cell_substeps"] / r["wall"] for r in runs]))
    labels = list(runs[0]["wall_s"])
    if len(labels) > 1:
        for label in labels:
            extra[f"{label}_wall_s"] = ("s", summary([r["wall_s"][label] for r in runs]))
    if result.get("diagnostics", {}).get("var_x_cpu.d0") is not None:
        for key in ("d0", "d10"):
            extra[f"var_x_cpu.{key}"] = ("s", summary(
                [runs_var(r, result["diagnostics"], key) for r in runs]))
    for name, unit in UNITS[0].items():
        metrics[name]["unit"] = unit
    metrics.update({name: {**stats, "unit": unit} for name, (unit, stats) in extra.items()})
    return metrics


def runs_var(run: dict, diagnostics: dict, key: str) -> float:
    """sigma2_batch (identical in every run) times this run's group CPU."""
    delta = float(key[1:])
    cpu = next(g["cpu_s"] for g in run["groups"] if g["delta"] == delta)
    return diagnostics[f"sigma2_batch_mean.{key}"] * cpu


# ---------------------------------------------------------------------------
# reporting


def final_line(result: dict) -> dict:
    checks = result["checks"]
    if result["trace"]:
        values = result["per_layer"]
    else:
        values = {name: stats["median"] for name, stats in result["end_to_end"].items()}
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in UNITS[result["trace"]].items()}
    return {"correct": checks["failed"] == 0, "attempted": checks["attempted"],
            "failed": checks["failed"], "metrics": metrics}


def print_report(result: dict) -> None:
    env = result["environment"]
    print(f"# {result['workload']} seed={result['seed']} trace={result['trace']} | "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    if result["trace"]:
        for name, unit in UNITS[1].items():
            print(f"{name:34s} {result['per_layer'][name]:>16.6g} {unit}")
        top = sorted(result["layer_shares"].items(), key=lambda kv: -kv[1])[:8]
        print("self-time shares: " + ", ".join(f"{k} {v:.1%}" for k, v in top))
    else:
        for name, stats in result["end_to_end"].items():
            extra = " ".join(f"{k}={v:.6g}" for k, v in stats.items()
                             if k not in ("median", "n", "unit") and isinstance(v, float))
            print(f"{name:22s} {stats['median']:>14.6g} {stats['unit']:5s} "
                  f"(median of {stats['n']}) {extra}")
    checks = result["checks"]
    print(f"fail_frac = {checks['failed']}/{checks['attempted']} "
          f"= {checks['fail_frac']:.4g}; self-test "
          f"{'ok' if result['self_test']['ok'] else 'FAILED'}")
    for line in checks["failures"][:10]:
        print(f"  failed: {line}")
    for name, value in sorted(result.get("diagnostics", {}).items()):
        print(f"  diag {name} = {value:.6g}")


def run_all(args, root: Path) -> int:
    """Every workload, each in its own process; one table of all metrics."""
    rows, status = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        last = json.loads(done.stdout.strip().splitlines()[-1])
        status["correct"] &= last["correct"]
        status["attempted"] += last["attempted"]
        status["failed"] += last["failed"]
        record = json.loads((root / OUT_DIR / result_name(name, args)).read_text())
        if args.trace:
            figures = {m: (record["per_layer"][m], unit) for m, unit in UNITS[1].items()}
        else:
            figures = {m: (s["median"], s["unit"]) for m, s in record["end_to_end"].items()}
        for metric, (value, unit) in figures.items():
            rows.append((name, metric, value, unit))
            status["metrics"][f"{name}.{metric}"] = {"value": value, "unit": unit}
        rows.append((name, "fail_frac", last["failed"] / last["attempted"], "1"))
    for name, metric, value, unit in rows:
        print(f"{name:9s} {metric:34s} {value:>16.6g} {unit}")
    print(json.dumps(status))
    return 0


def result_name(workload: str, args) -> str:
    return f"{workload}-seed{args.seed}-trace{args.trace}.json"


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "irrlangevin" / "cli.py").is_file():
        print("error: run from the root of an irrlangevin checkout "
              "(src/irrlangevin not found)", file=sys.stderr)
        return 2
    (root / OUT_DIR).mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args, root)
    sys.path.insert(0, str(root / "src"))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=root / OUT_DIR))
    try:
        result = measure(workload, args.seed, args.seconds, bool(args.trace),
                         root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (root / OUT_DIR / result_name(workload.name, args)).write_text(
        json.dumps(result, indent=1, default=str) + "\n")
    if not result["self_test"]["ok"]:
        print("error: a correctness check could not be made to fail: "
              + json.dumps(result["self_test"]["checks"]), file=sys.stderr)
        return 1
    print_report(result)
    print(json.dumps(final_line(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
