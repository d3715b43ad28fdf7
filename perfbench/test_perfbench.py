"""Smoke tests of the benchmark: result schema, metric names, tracer counts.

Run with ``python3 -m pytest perfbench -q`` from the repository root
(about half a minute; outside the package's own test suite).
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import membrane_opt as mo  # noqa: E402
from membrane_opt import cli, eigen, optimizer, verify  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _declared(section: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_benchmark_json_matches_the_program():
    assert _declared("end_to_end") == run.END_TO_END_UNITS
    assert _declared("per_layer") == run.PER_LAYER_UNITS
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(run.WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_one_run_prints_the_result_schema(trace, section):
    proc = _run(["--workload", "plate-4d", "--seed", "0", "--seconds", "1",
                 "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared(section)
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_run_refuses_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "plate-4d", "--seed", "0", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout


def _tiny_problem():
    grid = mo.build_grid(mo.square_spec(1.0 / 8))
    return mo.ProblemSpec(grid=grid, rho_min=0.25, rho_max=4.0,
                          mass=mo.domain_volume(grid))


def test_tracer_counts_reconcile_on_a_tiny_multistart():
    modules = {"cli": cli, "eigen": eigen, "optimizer": optimizer, "verify": verify}
    tracer = spans.Tracer(modules)
    original = optimizer.minimize
    with tracer.traced(0):
        classes = optimizer.multi_start(_tiny_problem(), [0, 1])
    assert optimizer.minimize is original
    metrics = tracer.layer_metrics(0)
    assert classes
    assert tracer.reconcile(metrics, seeded_starts=2) == []
    assert metrics["eigen.solve_spd.calls"] == metrics["eigen.outer_iterations"] > 0
    assert metrics["optimizer.bathtub_rearrange.calls"] == \
        metrics["optimizer.alternations"] + 2
    assert tracer.reconcile(metrics, seeded_starts=0) != []


def test_tracer_reports_zero_for_absent_and_uncalled_functions():
    stripped = types.SimpleNamespace()  # a verify module without its functions
    tracer = spans.Tracer({"cli": cli, "eigen": eigen, "optimizer": optimizer,
                           "verify": stripped})
    with tracer.traced(0):
        optimizer.minimize(_tiny_problem())
    metrics = tracer.layer_metrics(0)
    assert "verify.count_components" not in tracer.wrapped
    assert metrics["verify.count_components.s"] == 0
    assert metrics["optimizer.classify_solutions.s"] == 0
    assert metrics["cli.export.s"] == 0
    assert tracer.reconcile(metrics, seeded_starts=0) == []


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(list(range(19))) is None
    pct, value = run.tail_percentile([float(i) for i in range(100)])
    assert pct == 90 and sum(1 for i in range(100) if i > value) == 10
