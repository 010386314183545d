"""Benchmark of the ``npr`` package: four workloads, end to end and per module.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fit-csv --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
is the separate traced run that reports the per-layer metrics.  Every op's
output is checked against a reference computed without ``npr``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give each
metric with its unit and sample count, and the machine it ran on.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

SETUP_REPEATS = 3  # fresh-interpreter imports (and once-only calls) per run
MIN_OPS = 2
PARALLEL_REPS = 8  # replicates per two-worker batch in the traced sim-test run
PARALLEL_SHARE = 1 / 3  # share of a traced sim-test run spent on those batches

# (name, unit, better); bounds live in BENCHMARK.json
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

PER_LAYER = [
    ("graph.read_edge_list_s", "s", "lower"),
    ("graph.edges_per_s", "1/s", "higher"),
    ("graph.row_normalize_s", "s", "lower"),
    ("graph.propagate_s", "s", "lower"),
    ("graph.gen_powerlaw_s", "s", "lower"),
    ("graph.gen_erdos_renyi_s", "s", "lower"),
    ("design.read_covariates_s", "s", "lower"),
    ("design.build_design_s", "s", "lower"),
    ("design.center_s", "s", "lower"),
    ("design.subset_rows_s", "s", "lower"),
    ("design.forward_select_s", "s", "lower"),
    ("design.selected_ratio", "ratio", "higher"),
    ("gaussian.fit_ols_s", "s", "lower"),
    ("gaussian.order_test_s", "s", "lower"),
    ("gaussian.t_statistics_s", "s", "lower"),
    ("gaussian.predict_s", "s", "lower"),
    ("logistic.fit_logistic_s", "s", "lower"),
    ("logistic.predict_s", "s", "lower"),
    ("logistic.newton_iterations", "count", "lower"),
    ("cox.fit_cox_s", "s", "lower"),
    ("cox.predict_s", "s", "lower"),
    ("cox.newton_iterations", "count", "lower"),
    ("newton.newton_maximize_s", "s", "lower"),
    ("baselines.fit_2sls_s", "s", "lower"),
    ("baselines.gen_response_s", "s", "lower"),
    ("baselines.reduced_form_s", "s", "lower"),
    ("sim.self_s", "s", "lower"),
    ("sim.parallel_efficiency", "ratio", "higher"),
    ("schemas.validate_report_s", "s", "lower"),
    ("schemas.report_bytes", "bytes", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.coverage_ratio", "ratio", "higher"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.traced_ops", "count", "higher"),
]


def environment() -> dict:
    """The machine and library versions a result was measured on."""
    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        target = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = target.read_text().strip() if target is not None and target.is_file() else ref
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "NPR_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
    }


def import_seconds() -> float:
    """Time of ``import npr.cli`` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import npr.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True,
                         check=True, timeout=120)
    return float(out.stdout.split()[-1])


def tail_percentile(samples: list[float]):
    """Highest of p50..p99.9 with at least ten samples beyond it, as (p, value)."""
    best = None
    for p in (50, 75, 90, 95, 99, 99.9):
        if len(samples) * (1 - p / 100) >= 10:
            best = (p, statistics.quantiles(samples, n=1000, method="inclusive")[int(p * 10) - 1])
    return best


class Loop:
    """Closed loop of ops from a single client, with the gate on every op."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.durations: list[float] = []  # every attempt, to predict the next one

    def timed(self, call, *args):
        """Run one op; returns (seconds, result or None when it raised)."""
        start = time.perf_counter()
        try:
            result = call(*args)
        except Exception as exc:
            result = None
            self.reasons.append(f"{type(exc).__name__}: {exc}")
        self.durations.append(time.perf_counter() - start)
        return self.durations[-1], result

    def record(self, result, count: int = 1) -> bool:
        """Gate one op (``count`` replicates); True when it passed."""
        reason = "raised"
        if result is not None:
            try:
                reason = self.workload.check(result)
            except Exception as exc:  # a gate that cannot read the output fails the op
                reason = f"{type(exc).__name__}: {exc}"
            if reason is not None:
                self.reasons.append(reason)
        self.attempted += count
        if reason is not None:
            self.failed += count
        return reason is None


def run_untraced(workload, seconds: float):
    """The end-to-end loop: ops until the next one would pass the deadline."""
    loop = Loop(workload)
    times: list[float] = []
    start = time.perf_counter()
    i = 0
    while i < MIN_OPS or time.perf_counter() - start + statistics.median(loop.durations) <= seconds:
        dt, result = loop.timed(workload.op, i)
        if loop.record(result):
            times.append(dt)
        i += 1
    return loop, times, time.perf_counter() - start


def run_traced(workload, name: str, seconds: float, setup_tracer):
    """Alternate traced and untraced ops; returns the per-layer metrics."""
    from spans import PATCHES, Tracer

    tracer = Tracer()
    loop = Loop(workload)
    # Each op input runs twice, traced and untraced.  The second run of an
    # input is measurably slower, so the order alternates between inputs
    # (traced first on input 0, so that it pays any lazy set-up).
    traced, untraced = {}, {}  # op index -> seconds
    report_bytes = []
    serial_seconds = seconds * (1 - PARALLEL_SHARE) if hasattr(workload, "run_parallel") else seconds
    start = time.perf_counter()
    i = 0
    while i < 2 or time.perf_counter() - start + statistics.median(loop.durations) <= serial_seconds:
        k, second = divmod(i, 2)
        untraced_turn = second != k % 2
        if untraced_turn:
            dt, result = loop.timed(workload.op, k)
        else:
            with tracer.installed(), tracer.span("op"):
                dt, result = loop.timed(workload.op, k)
        if loop.record(result):
            (untraced if untraced_turn else traced)[k] = dt
            if not untraced_turn:
                report_bytes.append(result.get("report_bytes", 0))
        i += 1

    efficiency = 0.0
    if hasattr(workload, "run_parallel"):
        per_rep = []
        batch_start = len(loop.durations)
        j = 0
        while j < 1 or time.perf_counter() - start + statistics.median(loop.durations[batch_start:]) <= seconds:
            dt, result = loop.timed(workload.run_parallel, j, PARALLEL_REPS)
            if loop.record(result, PARALLEL_REPS):
                per_rep.append(dt / PARALLEL_REPS)
            j += 1
        if per_rep and traced:
            efficiency = statistics.median(traced.values()) / (workload.WORKERS * statistics.median(per_rep))

    n_ops = max(1, len(traced))
    op_self = tracer.self_times()
    setup_self = setup_tracer.self_times()
    metrics = {}
    for span in {span for _, _, span in PATCHES}:
        metrics[f"{span}_s"] = op_self.get(span, 0.0) / n_ops + setup_self.get(span, 0.0) / SETUP_REPEATS
    counts = tracer.counts
    read_s = tracer.total_time("graph.read_edge_list")
    metrics["graph.edges_per_s"] = counts["graph.edges"] / read_s if read_s else 0.0
    candidates = counts["design.candidates"]
    metrics["design.selected_ratio"] = counts["design.selected"] / candidates if candidates else 0.0
    for family in ("logistic", "cox"):
        fits = counts[f"{family}.fits"]
        metrics[f"{family}.newton_iterations"] = counts[f"{family}.newton_iterations"] / fits if fits else 0.0
    metrics["sim.parallel_efficiency"] = efficiency
    metrics["schemas.report_bytes"] = statistics.mean(report_bytes) if report_bytes else 0.0
    op_time = tracer.total_time("op")
    attributed = sum(t for span, t in op_self.items() if span != "op")
    metrics["trace.coverage_ratio"] = attributed / op_time if op_time else 0.0
    pairs = [traced[k] - untraced[k] for k in traced.keys() & untraced.keys()]
    overhead = statistics.median(pairs) if pairs else 0.0
    metrics["trace.overhead_s"] = overhead
    metrics["trace.traced_ops"] = float(len(traced))
    units = {metric: unit for metric, unit, _ in PER_LAYER}
    for metric, _, _ in PER_LAYER:
        print(f"{name}: {metric} = {metrics[metric]:.6g} {units[metric]}")
    if pairs:
        base = statistics.median(untraced[k] for k in traced.keys() & untraced.keys())
        print(f"{name}: tracing overhead = {overhead:.4g} s per op, {overhead / base:.2%} of an untraced op "
              f"(median over {len(pairs)} inputs run both ways)")
    return loop, metrics


def end_to_end(workload, name: str, seconds: float, imports: list[float], once: list[float]) -> tuple:
    loop, times, elapsed = run_untraced(workload, seconds)
    ok = loop.attempted - loop.failed
    setup_s = statistics.median(imports) + statistics.median(once)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": ok / elapsed,
        "op_p50_s": statistics.median(times) if times else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    tail = tail_percentile(times)
    print(f"{name}: setup_s = {setup_s:.4f} s (median of {SETUP_REPEATS} fresh imports "
          f"{statistics.median(imports):.4f} s + median once-only calls {statistics.median(once):.4f} s)")
    print(f"{name}: ops_per_s = {metrics['ops_per_s']:.4f} 1/s ({ok} ops in {elapsed:.2f} s)")
    print(f"{name}: op_p50_s = {metrics['op_p50_s']:.4f} s (n={len(times)})"
          + (f", p{tail[0]} = {tail[1]:.4f} s" if tail else ", no percentile has 10 samples beyond it"))
    print(f"{name}: peak_rss_mb = {metrics['peak_rss_mb']:.1f} MB")
    return loop, metrics


def run_workload(args) -> int:
    import workloads
    from spans import Tracer

    cls = workloads.WORKLOADS[args.workload]
    n = workloads.SIZES["smoke" if args.smoke else "full"][args.workload]
    env = environment()
    load_before = os.getloadavg()
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = cls(str(workdir), args.seed, n)
        imports = [] if args.trace else [import_seconds() for _ in range(SETUP_REPEATS)]
        import npr.cli  # noqa: F401  (the in-process import every op then shares)

        setup_tracer = Tracer()
        once = []
        for _ in range(SETUP_REPEATS):
            with setup_tracer.installed() if args.trace else contextlib.nullcontext():
                start = time.perf_counter()
                workload.once()
                once.append(time.perf_counter() - start)
        if args.trace:
            loop, metrics = run_traced(workload, args.workload, args.seconds, setup_tracer)
        else:
            loop, metrics = end_to_end(workload, args.workload, args.seconds, imports, once)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    print(f"{args.workload}: failed_ratio = {loop.failed / loop.attempted:.4f} ({loop.failed}/{loop.attempted})")
    for reason in loop.reasons[:5]:
        print(f"{args.workload}: failed op: {reason}", file=sys.stderr)
    env.update(loadavg_before=load_before, loadavg_after=os.getloadavg(), inputs_sha256=workload.digests, size_n=n)
    print(json.dumps({"environment": env}, sort_keys=True))
    units = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process of its own, one at a time."""
    import workloads

    results = {}
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(out.stderr)
        lines = out.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if out.returncode != 0 or not lines:
            status = 1
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (SRC / "npr" / "__init__.py").is_file():
        print(f"error: no npr package under {SRC}; run from the root of an npr checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
