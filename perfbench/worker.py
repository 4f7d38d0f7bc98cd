"""One workload process: a set-up probe, or the timed closed loop.

    python3 perfbench/worker.py --probe SPEC
    python3 perfbench/worker.py --spec SPEC --seconds S --trace 0|1 --result OUT

``--probe`` imports the program, parses the config, prints ``ready`` and
exits; ``run.py`` times it from spawn to that line. Otherwise the worker runs
repetitions back to back, one at a time (a closed loop with one client), each
being one ``run_grid``, one ``emit_reports`` and DUMPS_PER_REP
``dump_embeddings`` calls, for as long as another repetition still fits in
the time (at least MIN_REPS of them). With ``--trace 1``, after one
untimed warm-up repetition, repetitions alternate untraced and traced, so
the two can be compared for tracing overhead and for identical reports. Raw
samples go to the result file as JSON; ``run.py`` turns them into metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import time
import traceback

DUMPS_PER_REP = 3
MIN_REPS = 3          # per timed loop, even if the time is up earlier
MIN_TRACED_REPS = 2   # each of untraced and traced, in a traced run


def _load_spec(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _probe(spec: dict) -> None:
    import tsembed.bench
    tsembed.bench.parse_config(spec["config"])
    print("ready", flush=True)


class Loop:
    """Runs repetitions and keeps their timings and correctness findings."""

    def __init__(self, bench, checks, spec: dict, failures, error_type):
        self.bench = bench
        self.checks = checks
        self.error_type = error_type
        self.spec = spec
        self.cfg = bench.parse_config(spec["config"])
        self.failures = failures
        self.kinds = {c.name: c.kind for c in self.cfg.classifiers}
        self.report_sha: str | None = None
        self.dump_sha: str | None = None
        self.problems: list[str] = []
        self.failed_cells: list[dict] = []
        self.dump_failures: list[dict] = []
        self.grids_attempted = 0
        self.cells_attempted = 0
        self.cells_failed = 0
        self.dumps_attempted = 0

    def run(self, seconds: float, min_reps: int, tracer=None) -> list[dict]:
        """Repetitions until another one would end after ``seconds``.

        With a tracer, repetitions alternate untraced and traced, so a drift
        in machine speed falls on both alike.
        """
        reps = []
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if len(reps) >= min_reps and elapsed * (len(reps) + 1) / len(reps) > seconds:
                return reps
            if tracer is not None and len(reps) % 2 == 1:
                tracer.install()
                try:
                    reps.append(self._rep(tracer))
                finally:
                    tracer.uninstall()
            else:
                reps.append(self._rep(None))

    def _rep(self, tracer) -> dict:
        bench, dump = self.bench, self.spec["dump"]
        # every repetition and dump writes into a new directory: rewriting an
        # existing file can make the file system flush it, timing the disk
        out_dir = os.path.join(self.cfg.output_dir, f"rep{self.grids_attempted}")
        first_span = len(tracer.spans) if tracer else 0
        self.grids_attempted += 1
        t0 = time.perf_counter()
        report = bench.run_grid(self.cfg)
        grid_s = time.perf_counter() - t0
        bench.emit_reports(report, out_dir)
        dump_s = []
        for i in range(DUMPS_PER_REP):
            self.dumps_attempted += 1
            t0 = time.perf_counter()
            try:
                path = bench.dump_embeddings(self.cfg, dump["dataset"], dump["embedding"],
                                             os.path.join(out_dir, f"dump{i}"))
            except self.error_type as e:
                self.dump_failures.append({"dump": f"{dump['dataset']}/{dump['embedding']}",
                                           "type": type(e).__name__, "message": str(e)})
                continue
            dump_s.append(time.perf_counter() - t0)
            self._check_dump(path)
        spans = tracer.spans[first_span:] if tracer else []
        ok = sum(c.status == "ok" for c in report.cells)
        self._check_report(report, out_dir, traced=tracer is not None)
        if self.grids_attempted > 1:  # keep the first repetition's files only
            shutil.rmtree(out_dir)
        return {"grid_s": grid_s, "dump_s": dump_s, "ok_cells": ok, "spans": spans}

    def _check_report(self, report, out_dir: str, traced: bool) -> None:
        self.cells_attempted += len(report.cells)
        self.cells_failed += sum(c.status != "ok" for c in report.cells)
        sha = hashlib.sha256(self.checks.report_bytes(out_dir)).hexdigest()
        if self.report_sha is None:
            self.report_sha = sha
            self.problems += self.checks.check_report(report, out_dir,
                                                      self.bench.average_rank)
            for c in report.cells:
                if c.status != "ok":
                    found = self.failures.message_for(c.dataset, c.embedding,
                                                      self.kinds[c.classifier])
                    self.failed_cells.append({
                        "cell": f"{c.dataset}/{c.embedding}/{c.classifier}",
                        "status": c.status,
                        "type": found[0] if found else c.status.split(":", 1)[-1],
                        "message": found[1] if found else "(message not captured)"})
        elif sha != self.report_sha:
            what = "traced reports differ from untraced" if traced \
                else "reports differ between repetitions"
            self.problems.append(f"{what} ({self.report_sha[:12]} then {sha[:12]})")

    def _check_dump(self, path: str) -> None:
        sha = self.checks.sha256_file(path)
        if self.dump_sha is None:
            self.dump_sha = sha
            self.problems += self.checks.check_dump(path, self.spec["dump"]["rows"])
        elif sha != self.dump_sha:
            self.problems.append("embedding dump differs between calls")


def _run(args, spec: dict) -> dict:
    import tsembed.bench
    from tsembed.errors import TsembedError

    import checks
    import layers
    from tracer import FailureLog, Tracer

    paths = {d["name"]: d.get("path", "") for d in spec["config"]["datasets"]}
    failures = FailureLog(paths).install()
    loop = Loop(tsembed.bench, checks, spec, failures, TsembedError)
    result: dict = {}
    if args.trace:
        t0 = time.perf_counter()
        loop.run(0, 1)  # warm-up, so lazy caches fill before the comparison
        tracer = Tracer()
        both = loop.run(args.seconds - (time.perf_counter() - t0),
                        2 * MIN_TRACED_REPS, tracer)
        untraced, traced = both[0::2], both[1::2]
        tracer.write_jsonl(os.path.join(os.path.dirname(args.result), "trace.jsonl"))
        values, share = layers.summarize(traced)
        result.update(layers=values, grid_share=share,
                      untraced_grid_s=[r["grid_s"] for r in untraced])
        reps = traced
    else:
        reps = loop.run(args.seconds, MIN_REPS)
    failures.uninstall()
    if not any(r["dump_s"] for r in reps):
        loop.problems.append("no dump_embeddings call succeeded")
    cfg = loop.cfg
    result.update(
        grid_s=[r["grid_s"] for r in reps],
        dump_s=[s for r in reps for s in r["dump_s"]],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        grids_attempted=loop.grids_attempted,
        cells_per_grid=len(cfg.datasets) * len(cfg.embeddings) * len(cfg.classifiers),
        cells_attempted=loop.cells_attempted, cells_failed=loop.cells_failed,
        dumps_attempted=loop.dumps_attempted, failed_cells=loop.failed_cells,
        dump_failures=loop.dump_failures, reports_sha256=loop.report_sha,
        problems=loop.problems)
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--probe", metavar="SPEC")
    ap.add_argument("--spec")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result")
    args = ap.parse_args()
    if args.probe:
        _probe(_load_spec(args.probe))
        return 0
    try:
        result = _run(args, _load_spec(args.spec))
    except Exception:
        # a crashed grid is a finding to report, not a reason to print nothing
        result = {"fatal": traceback.format_exc()}
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
