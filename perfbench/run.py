"""Benchmark of membrane_opt: end-to-end and per-layer metrics.

One run of one workload, as a fresh single-threaded process:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

repeats the workload's unit of work until ``S`` seconds are used up (at
least once), checks every unit's outputs after its timed region, and
prints as its last line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones, measured untraced.  With ``--trace 1``
the run alternates untraced and traced units and reports the per-layer
metrics of the traced ones, plus the tracing overhead.

Everything at once, each workload in its own process, one after another:

    python3 perfbench/run.py --all [--seconds S]

prints every metric of every workload by name with its unit.  Results,
spans and scratch outputs go to ``.perfbench/`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

# Set before numpy is imported, so that BLAS runs single-threaded.
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Every workload the program knows, in the order ``--all`` runs them.
WORKLOADS = ("dumbbell-multistart", "disk-export", "plate-4d", "plate-ladder")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    "grid.build_grid.s": "s",
    "operators.assemble_stiffness.s": "s",
    "operators.stiffness_nnz": "count",
    "eigen.first_eigenpair.s": "s",
    "eigen.first_eigenpair.calls": "count",
    "eigen.outer_iterations": "count",
    "eigen.solve_spd.s": "s",
    "eigen.solve_spd.calls": "count",
    "eigen.inner_per_outer": "ratio",
    "eigen.residual_max": "mu",
    "eigen.failures": "count",
    "optimizer.minimize.self_s": "s",
    "optimizer.alternations": "count",
    "optimizer.bathtub_rearrange.s": "s",
    "optimizer.bathtub_rearrange.calls": "count",
    "optimizer.classify_solutions.s": "s",
    "verify.extract_contour.s": "s",
    "verify.count_components.s": "s",
    "cli.parse_config.self_s": "s",
    "cli.export.s": "s",
    "cli.bytes_written": "bytes",
    "trace.overhead_s": "s",
}

# setup_s is the median of the units' set-ups plus extra set-ups toward
# this many samples, spread over the run in proportion to its elapsed time
# (machine speed drifts within a run) and costing under 5% of it
SETUP_SAMPLES = 15
SETUP_SHARE = 0.05
CHILD_TIMEOUT_S = 900


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile, at or above the median, with at least ten
    samples beyond it (nearest rank); None below 20 samples."""
    n = len(samples)
    if n < 20:
        return None
    pct = math.floor(100 * (n - 10) / n)
    return pct, sorted(samples)[math.ceil(pct * n / 100) - 1]


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() if proc.returncode == 0 else "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "thread_pins": {var: os.environ.get(var) for var in THREAD_PINS},
    }


def _repeat(step, start: float, seconds: float) -> None:
    """Call ``step`` until another call would likely overrun ``seconds``
    counted from ``start``."""
    costs = []
    while True:
        begun = perf_counter()
        step()
        costs.append(perf_counter() - begun)
        if perf_counter() - start + statistics.median(costs) > seconds:
            return


def measure(workload, seconds: float, trace: bool, modules: dict,
            spans_path: Path) -> dict:
    """One run: the result object plus everything the record file keeps."""
    import spans

    untraced, traced, layers, reconcile, setups = [], [], [], [], []
    tracer = spans.Tracer(modules)
    start = perf_counter()
    extra = 0.0

    def step():
        nonlocal extra
        untraced.append(workload.unit())
        setups.append(untraced[-1].setup_s)
        elapsed = perf_counter() - start
        while (not trace and len(setups) < SETUP_SAMPLES * elapsed / seconds
               and extra < SETUP_SHARE * elapsed):
            setups.append(workload.setup_only())
            extra += setups[-1]
        if trace:
            instance = len(traced)
            with tracer.traced(instance):
                traced.append(workload.unit())
            metrics = tracer.layer_metrics(instance)
            metrics["cli.bytes_written"] = traced[-1].bytes_written
            layers.append(metrics)
            reconcile.extend(f"instance {instance}: {p}"
                             for p in tracer.reconcile(metrics, workload.seeded_starts))

    _repeat(step, start, seconds)
    outcomes = untraced + traced
    walls = [o.wall_s for o in untraced]
    complete = None not in walls

    if trace:
        values = {name: statistics.median(m[name] for m in layers)
                  for name in PER_LAYER_UNITS if name != "trace.overhead_s"}
        values["trace.overhead_s"] = (statistics.median(o.elapsed_s for o in traced)
                                      - statistics.median(o.elapsed_s for o in untraced))
        units = PER_LAYER_UNITS
    else:
        values = {
            "wall_s": statistics.median(walls) if complete else None,
            "setup_s": statistics.median(setups),
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
    failed = sum(o.failed for o in outcomes)
    result = {
        "correct": failed == 0 and not reconcile,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    tail = tail_percentile(walls) if complete else None
    if trace:
        tracer.write(spans_path)
    return {
        "result": result,
        "wall_samples": walls,
        "wall_tail": None if tail is None else {"percentile": tail[0], "value": tail[1]},
        "setup_samples": setups,
        "problems": [p for o in outcomes for p in o.problems],
        "reconciliation": reconcile,
        "units": [{"traced": i >= len(untraced), "elapsed_s": o.elapsed_s,
                   "setup_s": o.setup_s, "attempted": o.attempted, "failed": o.failed,
                   "bytes_written": o.bytes_written, "observed": o.observed}
                  for i, o in enumerate(outcomes)],
        "per_instance_layers": layers,
    }


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    import workloads
    from membrane_opt import cli, eigen, optimizer, verify

    references = json.loads((HERE / "baseline.json").read_text())["references"]
    workdir = OUT / f"work-{name}-{os.getpid()}"
    try:
        workload = workloads.make(name, ROOT, seed, workdir, references)
        record = measure(workload, seconds, trace,
                         {"cli": cli, "eigen": eigen, "optimizer": optimizer,
                          "verify": verify},
                         OUT / "spans" / f"{name}-seed{seed}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record.update(workload=name, seed=seed, seconds=seconds, trace=int(trace),
                  environment=environment())
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    result = record["result"]
    env = record["environment"]
    print(f"perfbench {name} seed={seed} trace={int(trace)} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"units={len(record['units'])}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items() if k != "thread_pins")
          + f" blas_threads={env['thread_pins']['OPENBLAS_NUM_THREADS']}")
    for problem in record["problems"] + record["reconciliation"]:
        print(f"problem: {problem}")
    if not trace:
        tail = record["wall_tail"]
        print(f"wall_s samples={len(record['wall_samples'])} tail="
              + ("n/a (fewer than 20 samples)" if tail is None
                 else f"p{tail['percentile']} {tail['value']!r} s"))
    for metric, entry in result["metrics"].items():
        print(f"{metric} {entry['value']!r} {entry['unit']}")
    print(json.dumps(result), flush=True)
    return 0


def run_all(seconds: float) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    report = {}
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", "0", "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            if proc.returncode != 0:
                print(f"{name} trace={trace}: exit code {proc.returncode}\n{proc.stderr}")
                status = 1
                continue
            record = json.loads(
                (OUT / "results" / f"{name}-seed0-trace{trace}.json").read_text())
            report.setdefault(name, {})[f"trace{trace}"] = record

    print(f"{'workload':<20} {'metric':<36} {'value':>14} unit")
    for name, runs in report.items():
        if "trace0" in runs:
            record = runs["trace0"]
            result = record["result"]
            for metric, entry in result["metrics"].items():
                value = "missing" if entry["value"] is None else f"{entry['value']:.6g}"
                note = ""
                if metric == "wall_s":
                    tail = record["wall_tail"]
                    note = f"  (median of {len(record['wall_samples'])}; " + (
                        "no tail: fewer than 20 samples)" if tail is None
                        else f"p{tail['percentile']} = {tail['value']:.6g} s)")
                print(f"{name:<20} {metric:<36} {value:>14} {entry['unit']}{note}")
            share = result["failed"] / result["attempted"]
            print(f"{name:<20} {'fail_share':<36} {share:>14.6g} ratio"
                  f"  ({result['failed']} of {result['attempted']} instances)")
        if "trace1" in runs:
            result = runs["trace1"]["result"]
            for metric, entry in result["metrics"].items():
                print(f"{name:<20} {metric:<36} {entry['value']:>14.6g} {entry['unit']}")
            reconciled = "yes" if not runs["trace1"]["reconciliation"] else "NO"
            print(f"{name:<20} {'trace.reconciled':<36} {reconciled:>14}")
        problems = [p for run in runs.values() for p in run["problems"] + run["reconciliation"]]
        for problem in dict.fromkeys(problems):
            print(f"{name:<20} problem: {problem}")
    (OUT / "report.json").write_text(json.dumps(report, indent=1) + "\n")
    print(f"full report: {OUT / 'report.json'}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced and traced, print all metrics")
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("give --workload or --all")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    for var in THREAD_PINS:
        os.environ[var] = "1"
    package = ROOT / "src" / "membrane_opt"
    if not (package / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"error: no membrane_opt source tree and configs under {ROOT}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import membrane_opt

    if Path(membrane_opt.__file__).resolve().parent != package.resolve():
        print(f"error: imported membrane_opt from {membrane_opt.__file__}, "
              f"not from {package}", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
