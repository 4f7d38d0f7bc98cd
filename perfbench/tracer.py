"""Outside-in instrumentation: wrappers installed on the program's public names.

Nothing inside ``tsembed`` is changed. Each wrapper replaces a module
attribute at the place where the program looks the name up (for example
``tsembed.bench.load_dataset``, not ``tsembed.data_io.load_dataset``, because
``bench`` imported it by name), and ``uninstall`` puts the originals back.

Two instruments share the patching:

FailureLog  no clocks. Records the exception type and message of every failed
            embedder fit/transform and classifier fit, keyed by the dataset and
            embedding being evaluated, because ``cells.csv`` keeps only
            ``error:<Type>``. Cheap enough to stay on in untraced runs.
Tracer      spans with a parent link for calls at layer boundaries, and
            count + total aggregates, held on the enclosing span, for calls
            made once per window or per tree node. Spans stay in memory until
            ``write_jsonl``.
"""

from __future__ import annotations

import json
import time

import tsembed.bench
import tsembed.classify
import tsembed.embed_graph
import tsembed.embed_spectral
import tsembed.embed_tda
from tsembed.errors import TsembedError

_clock = time.perf_counter


class _Patches:
    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def patch(self, module, name: str, make_wrapper) -> None:
        original = getattr(module, name)
        self._saved.append((module, name, original))
        setattr(module, name, make_wrapper(original))

    def uninstall(self) -> None:
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)


class FailureLog(_Patches):
    """Exception messages of failed embedder and classifier calls."""

    def __init__(self, dataset_paths: dict[str, str]):
        super().__init__()
        self._dataset_of_path = {path: name for name, path in dataset_paths.items()}
        self._dataset = "?"
        self._embedding = "?"
        self.messages: dict[tuple[str, ...], tuple[str, str]] = {}

    def install(self) -> "FailureLog":
        self.patch(tsembed.bench, "load_dataset", self._wrap_load)
        self.patch(tsembed.bench, "make_embedder", self._wrap_make_embedder)
        self.patch(tsembed.classify, "fit", self._wrap_classify_fit)
        return self

    def message_for(self, dataset: str, embedding: str,
                    kind: str) -> tuple[str, str] | None:
        """(type, message) of the last error seen for a cell, if any."""
        return (self.messages.get((dataset, embedding, kind))
                or self.messages.get((dataset, embedding)))

    def _record(self, key: tuple[str, ...], exc: BaseException) -> None:
        self.messages[key] = (type(exc).__name__, str(exc))

    def _wrap_load(self, original):
        def load_dataset(path, *args, **kwargs):
            self._dataset = self._dataset_of_path.get(path, path)
            return original(path, *args, **kwargs)
        return load_dataset

    def _wrap_make_embedder(self, original):
        def make_embedder(cfg):
            self._embedding = cfg.name
            embedder = original(cfg)
            key = (self._dataset, cfg.name)
            for method in ("fit", "transform"):
                setattr(embedder, method,
                        self._guard(getattr(embedder, method), key))
            return embedder
        return make_embedder

    def _guard(self, fn, key):
        def guarded(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except TsembedError as e:
                self._record(key, e)
                raise
        return guarded

    def _wrap_classify_fit(self, original):
        def fit(kind, *args, **kwargs):
            try:
                return original(kind, *args, **kwargs)
            except TsembedError as e:
                self._record((self._dataset, self._embedding, kind), e)
                raise
        return fit


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "attrs", "agg", "error")

    def __init__(self, span_id: int, parent: int | None, name: str):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start = 0.0
        self.end = 0.0
        self.attrs: dict = {}
        self.agg: dict[str, list] = {}   # name -> [calls, seconds]
        self.error: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "start": self.start, "end": self.end, "attrs": self.attrs,
                "agg": self.agg, "error": self.error}


# model class -> classifier kind, for naming predict spans
_MODEL_KINDS = {
    tsembed.classify.KnnModel: "knn",
    tsembed.classify.GnbModel: "gnb",
    tsembed.classify.LogRegModel: "logreg",
    tsembed.classify.TreeModel: "tree",
    tsembed.classify.ForestModel: "forest",
    tsembed.classify.MlpModel: "mlp",
}

# (module, attribute, span name) for calls at layer boundaries
_SPANNED = (
    (tsembed.bench, "run_grid", "bench.run_grid"),
    (tsembed.bench, "emit_reports", "bench.emit_reports"),
    (tsembed.bench, "dump_embeddings", "bench.dump_embeddings"),
    (tsembed.bench, "load_dataset", "data_io.load"),
    (tsembed.bench, "split_by_group", "data_io.split"),
    (tsembed.bench, "fit_normalizer", "preprocess.normalize"),
    (tsembed.bench, "apply_normalizer_all", "preprocess.normalize"),
)

# (module, attribute, aggregate name) for calls made per window or per node
_COUNTED = (
    (tsembed.embed_tda, "sublevel_persistence", "embed_tda.persistence"),
    (tsembed.embed_tda, "landscape_norm", "embed_tda.landscape_norm"),
    (tsembed.embed_tda, "wasserstein", "embed_tda.matching"),
    (tsembed.embed_tda, "bottleneck", "embed_tda.matching"),
    (tsembed.embed_tda, "hvg_build", "embed_tda.hvg"),
    (tsembed.embed_graph, "nvg_build", "embed_graph.nvg_build"),
    (tsembed.embed_spectral, "cwt", "embed_spectral.cwt"),
    (tsembed.classify, "best_split", "classify.best_split"),
)


class Tracer(_Patches):
    """Spans with parent links around the program's public functions."""

    def __init__(self):
        super().__init__()
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def install(self) -> "Tracer":
        for module, attr, name in _SPANNED:
            self.patch(module, attr, lambda fn, name=name: self._spanned(fn, name))
        for module, attr, name in _COUNTED:
            self.patch(module, attr, lambda fn, name=name: self._counted(fn, name))
        self.patch(tsembed.bench, "segment_dataset", self._wrap_segment)
        self.patch(tsembed.bench, "make_embedder", self._wrap_make_embedder)
        self.patch(tsembed.classify, "fit", self._wrap_classify_fit)
        self.patch(tsembed.classify, "predict", self._wrap_classify_predict)
        return self

    def call(self, name: str, fn, /, *args, attrs=None, attrs_of=None, **kwargs):
        """Run fn inside a new span carrying ``attrs``; on success,
        ``attrs_of(args, result)`` adds more."""
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name)
        span.attrs.update(attrs or {})
        self.spans.append(span)
        self._stack.append(span)
        span.start = _clock()
        try:
            result = fn(*args, **kwargs)
        except BaseException as e:
            span.error = f"{type(e).__name__}: {e}"
            raise
        finally:
            span.end = _clock()
            self._stack.pop()
        if attrs_of is not None:
            span.attrs.update(attrs_of(args, result))
        return result

    def _spanned(self, fn, name):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def _counted(self, fn, name):
        def wrapper(*args, **kwargs):
            agg = self._stack[-1].agg  # always inside run_grid or dump_embeddings
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                slot = agg.setdefault(name, [0, 0.0])
                slot[0] += 1
                slot[1] += _clock() - t0
        return wrapper

    def _wrap_segment(self, fn):
        def segment_dataset(*args, **kwargs):
            return self.call("preprocess.segment", fn, *args,
                             attrs_of=lambda a, out: {"windows": len(out)}, **kwargs)
        return segment_dataset

    def _wrap_make_embedder(self, fn):
        def make_embedder(cfg):
            embedder = fn(cfg)
            fit, transform = embedder.fit, embedder.transform
            prefix = f"embed.{cfg.method}"
            embedder.fit = lambda *args: self.call(f"{prefix}.fit", fit, *args)
            embedder.transform = lambda *args: self.call(
                f"{prefix}.transform", transform, *args,
                attrs={"windows": len(args[0])})
            return embedder
        return make_embedder

    def _wrap_classify_fit(self, fn):
        def fit(kind, *args, **kwargs):
            return self.call(f"classify.{kind}.fit", fn, kind, *args, **kwargs)
        return fit

    def _wrap_classify_predict(self, fn):
        def predict(model, *args, **kwargs):
            kind = _MODEL_KINDS.get(type(model), "unknown")
            return self.call(f"classify.{kind}.predict", fn, model, *args, **kwargs)
        return predict

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")


def self_seconds(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part its children and aggregates cover.

    Children of one span never overlap (one thread, properly nested calls),
    so their coverage is the sum of their durations.
    """
    covered = {s.id: sum(t for _, t in s.agg.values()) for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in covered:
            covered[s.parent] += s.duration
    return {s.id: s.duration - covered[s.id] for s in spans}
