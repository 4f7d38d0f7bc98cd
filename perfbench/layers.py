"""Per-layer metrics from the spans of one traced repetition.

Names follow the program's modules. ``*_s`` are busy seconds (inclusive of
nested calls, except ``*_self_s``), ``*_calls``, ``*.windows`` and
``*.errors`` are counts. A repetition is one ``run_grid``, one
``emit_reports`` and the repetition's ``dump_embeddings`` calls.
"""

from __future__ import annotations

import statistics

from tracer import Span, self_seconds

# Fixed here rather than read from tsembed, so the metric names in
# BENCHMARK.json stay the same whatever the program lists.
EMBED_METHODS = ("fft", "wavelet", "pca", "lle", "graph", "tda", "ae")
CLASSIFIER_KINDS = ("knn", "gnb", "logreg", "tree", "forest", "mlp")

# (name, unit) in report order
LAYER_METRICS: list[tuple[str, str]] = [
    ("data_io.load_s", "s"),
    ("data_io.split_s", "s"),
    ("preprocess.segment_s", "s"),
    ("preprocess.normalize_s", "s"),
    ("preprocess.windows", "count"),
]
for _m in EMBED_METHODS:
    LAYER_METRICS += [(f"embed.{_m}.fit_s", "s"), (f"embed.{_m}.transform_s", "s"),
                      (f"embed.{_m}.windows", "count"), (f"embed.{_m}.errors", "count")]
LAYER_METRICS += [
    ("embed_tda.persistence_s", "s"),
    ("embed_tda.landscape_norm_s", "s"),
    ("embed_tda.matching_s", "s"),
    ("embed_tda.hvg_s", "s"),
    ("embed_graph.nvg_build_s", "s"),
    ("embed_spectral.cwt_s", "s"),
]
for _k in CLASSIFIER_KINDS:
    LAYER_METRICS += [(f"classify.{_k}.fit_s", "s"), (f"classify.{_k}.fit_calls", "count"),
                      (f"classify.{_k}.predict_s", "s")]
LAYER_METRICS += [
    ("classify.best_split_s", "s"),
    ("classify.best_split_calls", "count"),
    ("classify.fits_per_cell", "fits/cell"),
    ("bench.run_grid_self_s", "s"),
    ("bench.emit_reports_s", "s"),
    ("bench.dump_embeddings_self_s", "s"),
    ("trace_overhead_pct", "%"),
]

_SIMPLE = {"data_io.load", "data_io.split", "preprocess.segment", "preprocess.normalize",
           "bench.emit_reports"}
_SELF = {"bench.run_grid", "bench.dump_embeddings"}


def layer_values(spans: list[Span], ok_cells: int) -> dict[str, float]:
    """Every layer metric except trace_overhead_pct, summed over spans."""
    out = {name: 0.0 for name, _ in LAYER_METRICS if name != "trace_overhead_pct"}
    selfs = self_seconds(spans)
    fit_calls = 0
    for s in spans:
        if s.name in _SIMPLE:
            out[f"{s.name}_s"] += s.duration
        elif s.name in _SELF:
            out[f"{s.name}_self_s"] += selfs[s.id]
        elif s.name.startswith("embed."):
            prefix = s.name.rsplit(".", 1)[0]
            out[f"{s.name}_s"] += s.duration
            out[f"{prefix}.windows"] += s.attrs.get("windows", 0)
            out[f"{prefix}.errors"] += s.error is not None
        elif s.name.startswith("classify."):
            out[f"{s.name}_s"] += s.duration
            if s.name.endswith(".fit"):
                out[f"{s.name}_calls"] += 1
                fit_calls += 1
        if s.name == "preprocess.segment":
            out["preprocess.windows"] += s.attrs["windows"]
        for name, (calls, seconds) in s.agg.items():
            out[f"{name}_s"] += seconds
            if name == "classify.best_split":
                out["classify.best_split_calls"] += calls
    out["classify.fits_per_cell"] = fit_calls / max(ok_cells, 1)
    return out


def grid_spans(spans: list[Span]) -> list[Span]:
    """The spans of run_grid calls and everything nested in them."""
    inside: set[int] = set()
    for s in spans:
        if s.name == "bench.run_grid" or s.parent in inside:
            inside.add(s.id)
    return [s for s in spans if s.id in inside]


def summarize(reps: list[dict]) -> tuple[dict, dict]:
    """Median per-repetition layer metrics, and each layer's share of run_grid."""
    per_rep = [layer_values(r["spans"], r["ok_cells"]) for r in reps]
    values = {k: statistics.median(v[k] for v in per_rep) for k in per_rep[0]}
    shares = []
    for r in reps:
        grid = grid_spans(r["spans"])
        in_grid = layer_values(grid, r["ok_cells"])
        shares.append({k: v / r["grid_s"] for k, v in in_grid.items()
                       if k.endswith("_s") and v > 0})
    share = {k: statistics.median(s.get(k, 0.0) for s in shares)
             for k in set().union(*shares)}
    return values, share
