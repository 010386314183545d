"""Smoke run of every workload at tiny sizes, untraced and traced.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
Every gate must pass, and every per-layer metric must be fed by at least
one span on the workloads that reach its module: a refactor that moves
a function must re-map its metric here rather than silently zero it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

# Per-layer metrics each workload must report as nonzero.
REACHED = {
    "fit-csv": [
        "graph.read_edge_list_s", "graph.edges_per_s", "graph.row_normalize_s", "graph.propagate_s",
        "design.read_covariates_s", "design.build_design_s", "design.center_s", "design.forward_select_s",
        "design.selected_ratio", "gaussian.fit_ols_s", "gaussian.order_test_s", "gaussian.t_statistics_s",
        "gaussian.predict_s", "schemas.validate_report_s", "schemas.report_bytes", "cli.self_s",
    ],
    "glm-refit": [
        "graph.row_normalize_s", "graph.propagate_s", "design.build_design_s", "design.subset_rows_s",
        "design.forward_select_s", "design.selected_ratio", "logistic.fit_logistic_s", "logistic.predict_s",
        "logistic.newton_iterations", "cox.fit_cox_s", "cox.predict_s", "cox.newton_iterations",
        "newton.newton_maximize_s",
    ],
    "sim-predict": [
        "graph.gen_powerlaw_s", "graph.row_normalize_s", "graph.propagate_s", "design.center_s",
        "design.subset_rows_s", "design.forward_select_s", "gaussian.fit_ols_s", "gaussian.predict_s",
        "baselines.fit_2sls_s", "baselines.gen_response_s", "baselines.reduced_form_s", "sim.self_s",
        "schemas.validate_report_s", "schemas.report_bytes", "cli.self_s",
    ],
    "sim-test": [
        "graph.gen_erdos_renyi_s", "graph.row_normalize_s", "design.forward_select_s", "gaussian.fit_ols_s",
        "gaussian.order_test_s", "baselines.gen_response_s", "sim.self_s", "sim.parallel_efficiency",
        "cli.self_s",
    ],
}


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=600)


def result(workload: str, trace: int) -> dict:
    out = bench("--workload", workload, "--seed", "3", "--seconds", "2", "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_untraced_gates_pass(workload):
    res = result(workload, 0)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= run.MIN_OPS
    assert sorted(res["metrics"]) == sorted(name for name, _, _ in run.END_TO_END)
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_run_reaches_its_layers(workload):
    res = result(workload, 1)
    metrics = {name: m["value"] for name, m in res["metrics"].items()}
    assert res["correct"] and res["failed"] == 0
    assert sorted(metrics) == sorted(name for name, _, _ in run.PER_LAYER)
    assert [name for name in REACHED[workload] if metrics[name] <= 0] == []
    assert metrics["trace.coverage_ratio"] >= 0.9
    assert metrics["trace.traced_ops"] >= 1


def test_every_layer_metric_is_reached_somewhere():
    reached = {name for names in REACHED.values() for name in names}
    unreached = {name for name, _, _ in run.PER_LAYER if not name.startswith("trace.")} - reached
    assert unreached == set()


def test_benchmark_json_lists_the_metrics_and_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = bench("--workload", "sim-test", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
