"""End-to-end benchmark of dicolor, one workload per run, stdlib only.

    python3 bench/run.py --workload tournament-search --seed 1 --seconds 15 --trace 0

Imports dicolor from `src/` of the checkout this file sits in, sets up the
workload from the seed several times (reporting the median as `setup_s`),
then repeats whole passes over the workload's operations until the passes
have taken `--seconds`.  Every output is checked by `bench/checks.py`.
The last line of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`.

`--trace 0` reports the end-to-end metrics (`pass_s`, `setup_s`,
`peak_rss_mb`).  `--trace 1` alternates untraced and traced passes and
reports the per-layer metrics of `bench/tracing.py`, including the tracing
overhead.  Result and trace files go to `bench/out/`.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from tracing import LAYERS, Tracer
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

# Set-up is repeated and its median reported, so one slow import (the first
# one in a fresh checkout compiles bytecode) does not decide it.
SETUP_REPEATS = 9

# Standard-library modules dicolor imports.  They are loaded before set-up is
# timed, so `setup_s` measures dicolor's own modules and input generation.
STDLIB_PRELOAD = (
    "argparse", "dataclasses", "fractions", "itertools", "json", "math",
    "pathlib", "random", "typing",
)

# Layers reported by self time; `solvers.solve` is reported as solve_s and search_s.
LAYER_TIMES = [layer for layer, _, _ in LAYERS if layer != "solvers.solve"]


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Benchmark one dicolor workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args, WORKLOADS[args.workload]


def import_dicolor(modules):
    """Import dicolor afresh from this checkout's src/."""
    for name in [name for name in sys.modules if name == "dicolor" or name.startswith("dicolor.")]:
        del sys.modules[name]
    for name in modules:
        importlib.import_module(name)
    dc = sys.modules["dicolor"]
    if Path(dc.__file__).resolve().parent != ROOT / "src" / "dicolor":
        raise ImportError(f"dicolor was imported from {dc.__file__}, not from this checkout")
    return dc


def timed_setup(workload, seed):
    """Import and generate SETUP_REPEATS times; the last inputs are the ones used."""
    for name in STDLIB_PRELOAD:
        importlib.import_module(name)
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        dc = import_dicolor(workload.modules)
        inputs = workload.setup(dc, seed)
        times.append(time.perf_counter() - start)
    return dc, inputs, times


def run_pass(operations):
    """Run every operation once; returns the pass time and (key, output) per operation."""
    outputs = []
    start = time.perf_counter()
    for key, operation in operations:
        try:
            outputs.append((key, operation()))
        except Exception as exc:  # counted as a failed operation and reported
            outputs.append((key, exc))
    return time.perf_counter() - start, outputs


def layer_metrics(summary, pass_s):
    self_s = summary["self_s"]
    metrics = {f"{layer}_s": (self_s.get(layer, 0.0), "s") for layer in LAYER_TIMES}
    search_s = self_s.get("solvers.solve", 0.0)
    nodes = summary["search_nodes"]
    metrics.update({
        "digraph.induced_calls": (summary["calls"].get("digraph.induced", 0), "count"),
        "solvers.solve_s": (summary["inclusive_s"].get("solvers.solve", 0.0), "s"),
        "solvers.search_s": (search_s, "s"),
        "solvers.search_nodes": (nodes, "count"),
        "solvers.nodes_per_s": (nodes / search_s if search_s > 0 else 0.0, "1/s"),
        "solvers.greedy_colors": (summary["greedy_colors"], "count"),
        "trace.pass_s": (pass_s, "s"),
    })
    return metrics


def median_metrics(per_pass):
    """Median of each metric over passes, keeping its unit."""
    return {
        name: {"value": statistics.median(m[name][0] for m in per_pass), "unit": unit}
        for name, (_, unit) in per_pass[0].items()
    }


def main(argv=None) -> int:
    args, workload = parse_args(argv)
    if not (ROOT / "src" / "dicolor" / "__init__.py").is_file():
        print(f"error: no dicolor sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    dc, inputs, setup_times = timed_setup(workload, args.seed)
    expected = workload.expect(dc, inputs)
    problems = list(expected["problems"])
    operations = workload.operations(dc, inputs)

    tracer = Tracer() if args.trace else None
    untraced_times, traced_metrics, summaries = [], [], []
    attempted = failed = 0
    measured = 0.0
    failures: dict[str, None] = {}  # distinct failure reasons, in order
    while True:
        gc.collect()
        if tracer is not None and len(untraced_times) > len(traced_metrics):
            tracer.install()
            try:
                elapsed, outputs = run_pass(operations)
            finally:
                tracer.uninstall()
            summaries.append(tracer.take_pass())
            traced_metrics.append(layer_metrics(summaries[-1], elapsed))
        else:
            elapsed, outputs = run_pass(operations)
            untraced_times.append(elapsed)
        measured += elapsed
        for key, output in outputs:
            outcome = workload.check(key, output, expected)
            attempted += 1
            if outcome.failure:
                failed += 1
                failures.setdefault(f"{key}: {outcome.failure}", None)
            problems += [f"{workload.name} {key}: {p}" for p in outcome.problems]
        if measured >= args.seconds and (tracer is None or traced_metrics):
            break

    if tracer is None:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "pass_s": {"value": statistics.median(untraced_times), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        metrics = median_metrics(traced_metrics)
        metrics["trace.overhead_s"] = {
            "value": metrics["trace.pass_s"]["value"] - statistics.median(untraced_times),
            "unit": "s",
        }
        tracer.write(OUT_DIR / f"trace-{workload.name}-seed{args.seed}.json", summaries)

    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    record = dict(result, workload=workload.name, seed=args.seed, trace=args.trace,
                  untraced_pass_s=untraced_times, setup_repeats_s=setup_times, python=sys.version.split()[0],
                  failures=list(failures)[:20], problems=problems[:20])
    (OUT_DIR / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    for reason in list(failures)[:20]:
        print(f"failed: {reason}", file=sys.stderr)
    for problem in problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
