#!/usr/bin/env python3
"""Benchmark of tsembed's evaluation grid: time, memory and failures.

    python3 perfbench/run.py --workload demo_grid --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The workloads (see ``workloads.py``) are
built from ``--seed`` before anything is timed. The program is then driven
through its public API (``tsembed.bench.parse_config``, ``run_grid``,
``emit_reports``, ``dump_embeddings``) in a fresh worker process, in a closed
loop with one client: one grid at a time, the next repetition starting when
the previous one ends. BLAS/OpenMP threads are pinned to 1.

``--trace 0`` reports the end-to-end metrics:

  grid_s         median wall time of one run_grid
  dump_s         median wall time of one dump_embeddings (``tsembed embed``)
  setup_s        median time from spawning a fresh process until run_grid can
                 start (import tsembed with numpy/scipy, then parse_config),
                 over SETUP_PROBES processes
  peak_rss_mb    peak resident set size of the worker process
  ok_cell_share  ok cells plus successful dumps over cells plus dumps
                 attempted; 1 - failed_cell_share

``--trace 1`` reports per-layer metrics from wrappers installed around the
program's public functions (``tracer.py``, ``layers.py``), and the tracing
overhead against untraced repetitions in the same process.

Every repetition must reproduce cells.csv, summary.csv and ranks.csv byte for
byte, and the grid must pass the invariants in ``checks.py``; otherwise the
result says ``"correct": false`` and the exit code is 1. The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 30
WORKER_TIMEOUT_S = 150

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")


def _environment() -> dict:
    import numpy
    import scipy
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = out.stdout.strip() or commit
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "tsembed")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "commit": commit, "src_sha256": digest.hexdigest(),
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def _probe_seconds(spec_path: str) -> float:
    """Spawn-to-ready time of one fresh process that imports and parses."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, WORKER, "--probe", spec_path],
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.wait(timeout=PROBE_TIMEOUT_S)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


def _tail(samples: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n <= 10:
        return f"no percentile has 10 samples beyond it at n={n}"
    i = n - 11
    return f"p{100 * (i + 1) / n:.0f} {sorted(samples)[i]:.6g} s"


def _line(name: str, value, unit: str, note: str) -> None:
    print(f"{name:<18} {value:<14.6g} {unit:<6} {note}")


def _result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def _report_end_to_end(res: dict, setup: list[float]) -> dict:
    grid, dump = res["grid_s"], res["dump_s"]
    cells, dumps = res["cells_attempted"], res["dumps_attempted"]
    bad_cells, bad_dumps = res["cells_failed"], len(res["dump_failures"])
    failed_share = (bad_cells + bad_dumps) / (cells + dumps)
    base = (f"base: {cells} cells ({res['grids_attempted']} grids x "
            f"{res['cells_per_grid']}) "
            f"+ {dumps} dump calls")
    _line("grid_s", statistics.median(grid), "s",
          f"median of n={len(grid)}; {_tail(grid)}")
    if dump:
        _line("dump_s", statistics.median(dump), "s",
              f"median of n={len(dump)}; {_tail(dump)}")
    _line("setup_s", statistics.median(setup), "s",
          f"median of n={len(setup)} fresh processes; {_tail(setup)}")
    _line("peak_rss_mb", res["peak_rss_mb"], "MB", "worker process ru_maxrss, n=1")
    _line("ok_cell_share", 1 - failed_share, "ratio", base)
    _line("failed_cell_share", failed_share, "ratio",
          f"{bad_cells} error cells + {bad_dumps} failed dumps; {base}")
    metrics = {
        "grid_s": {"value": statistics.median(grid), "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        "ok_cell_share": {"value": 1 - failed_share, "unit": "ratio"},
    }
    if dump:  # otherwise the result is already marked incorrect
        metrics["dump_s"] = {"value": statistics.median(dump), "unit": "s"}
    return metrics


def _report_layers(res: dict) -> dict:
    from layers import LAYER_METRICS
    traced = statistics.median(res["grid_s"])
    untraced = statistics.median(res["untraced_grid_s"])
    values = dict(res["layers"], trace_overhead_pct=100 * (traced / untraced - 1))
    print(f"traced grid_s {traced:.6g} s (n={len(res['grid_s'])}), untraced "
          f"{untraced:.6g} s (n={len(res['untraced_grid_s'])}); per-layer values are "
          "medians per repetition (1 grid + 1 report write + its dump calls)")
    for name, unit in LAYER_METRICS:
        print(f"  {name:<32} {values[name]:<14.6g} {unit}")
    print("share of traced grid_s (busy time; nested layers overlap their parents):")
    for name, share in sorted(res["grid_share"].items(), key=lambda kv: -kv[1]):
        print(f"  {name:<32} {100 * share:6.2f}%")
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "tsembed", "bench.py")):
        print(f"perfbench: no tsembed sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS, build_inputs
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {WORKLOADS}",
              file=sys.stderr)
        return 2

    work = os.path.join(ROOT, ".perfbench_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    spec = build_inputs(args.workload, work, args.seed)
    spec_path = os.path.join(work, "spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh, indent=1)

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment:", json.dumps(_environment()))
    print("load model: closed loop, 1 client, one grid at a time in one worker process")

    result_path = os.path.join(work, "result.json")
    try:
        setup = [] if args.trace else [_probe_seconds(spec_path)
                                       for _ in range(SETUP_PROBES)]
        subprocess.run([sys.executable, WORKER, "--spec", spec_path,
                        "--seconds", str(args.seconds), "--trace", str(args.trace),
                        "--result", result_path], check=True, timeout=WORKER_TIMEOUT_S)
    except (RuntimeError, subprocess.SubprocessError) as e:
        print(f"perfbench: worker failed: {e}")
        _result_line(False, 1, 1, {})
        return 1
    with open(result_path) as fh:
        res = json.load(fh)
    if "fatal" in res:
        print(f"perfbench: the grid raised:\n{res['fatal']}")
        _result_line(False, 1, 1, {})
        return 1

    metrics = _report_layers(res) if args.trace else _report_end_to_end(res, setup)
    print("grid_s samples    ", " ".join(f"{x:.4f}" for x in res["grid_s"]))
    print(f"reports_sha256     {res['reports_sha256']}")
    for f in res["failed_cells"]:
        print(f"failed cell  {args.workload} {f['cell']}: {f['type']}: {f['message']}")
    for f in res["dump_failures"]:
        print(f"failed dump  {args.workload} {f['dump']}: {f['type']}: {f['message']}")
    for problem in res["problems"]:
        print(f"INCORRECT    {args.workload}: {problem}")
    correct = not res["problems"]
    _result_line(correct, res["grids_attempted"] + res["dumps_attempted"],
                 len(res["dump_failures"]), metrics)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
