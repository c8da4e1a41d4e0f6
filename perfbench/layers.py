"""The traced run: span wrappers around each layer's public functions.

End-to-end numbers come from untraced passes.  A traced pass installs the
wrappers below, turns the program's own telemetry on
(``RuntimeConfig(telemetry=True)``, whose spans cover the gateway, cache
lookup, pool task, inspection stages, prompt generations and registry fit
stages), and folds every span into per-layer totals.  Wrappers open spans
through the program's tracer, so spans opened inside a pool task land in the
task's span sink and ship back with the verdict on the thread and the
process backend alike (process workers fork after the wrappers are
installed, so they inherit them).

A layer's *busy* time is the summed duration of its spans; its *self* time
subtracts the part of each span its child spans cover.
"""

from __future__ import annotations

import functools
import math
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro import nn
from repro.core.meta import MetaClassifier
from repro.defenses.model_level import MNTDDefense
from repro.models.classifier import ImageClassifier
from repro.nn import conv as nn_conv
from repro.obs.trace import SpanRecord, get_tracer
from repro.prompting.prompt import VisualPrompt
from repro.runtime import workers as runtime_workers
from repro.runtime.verdict_cache import VerdictCache

#: leaf layer classes whose forward time is booked to one nn.* row
_FORWARD_ROWS = (
    ((nn.BatchNorm1d, nn.BatchNorm2d), "nn.batchnorm"),
    ((nn.ReLU, nn.LeakyReLU, nn.GELU, nn.Sigmoid, nn.Tanh), "nn.activation"),
    ((nn.Linear,), "nn.linear"),
)
#: leaf layer classes whose backward is booked to nn.backward
_BACKWARD_CLASSES = (
    nn.Conv2d, nn.BatchNorm1d, nn.BatchNorm2d, nn.LayerNorm, nn.Linear, nn.ReLU,
    nn.LeakyReLU, nn.GELU, nn.Sigmoid, nn.Tanh, nn.MaxPool2d, nn.AvgPool2d,
    nn.GlobalAvgPool2d, nn.Flatten, nn.Dropout,
)


def _spanned(fn: Callable, name: str) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with get_tracer().span(name):
            return fn(*args, **kwargs)

    return wrapper


def _spanned_conv(fn: Callable) -> Callable:
    @functools.wraps(fn)
    def forward(layer, x):
        with get_tracer().span("nn.conv") as span:
            out = fn(layer, x)
            k = layer.kernel_size
            span.set(
                kernel=k,
                flops=2 * out.size * (layer.in_channels // layer.groups) * k * k,
            )
            return out

    return forward


def _spanned_im2col(fn: Callable) -> Callable:
    @functools.wraps(fn)
    def im2col(*args, **kwargs):
        with get_tracer().span("nn.conv.im2col") as span:
            cols, out_h, out_w = fn(*args, **kwargs)
            span.set(bytes=cols.size * cols.itemsize)
            return cols, out_h, out_w

    return im2col


def _spanned_store(fn: Callable) -> Callable:
    # the first call inside every cold pool task; its absolute start on the
    # system-wide monotonic clock (perf_counter on Linux) marks when the task
    # left the queue, which span rebasing would otherwise hide
    @functools.wraps(fn)
    def compute_through_store(*args, **kwargs):
        with get_tracer().span("cache.store", started=time.perf_counter()):
            return fn(*args, **kwargs)

    return compute_through_store


class LayerTrace:
    """Installs the span wrappers on entry and restores the originals on exit."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def _patch(self, owner: Any, attribute: str, wrap: Callable[[Callable], Callable]) -> None:
        # an inherited method is wrapped on the listed class itself and the
        # wrapper deleted again on exit, so the base class stays untouched
        self._saved.append((owner, attribute, vars(owner).get(attribute)))
        setattr(owner, attribute, wrap(getattr(owner, attribute)))

    def __enter__(self) -> "LayerTrace":
        patch = self._patch
        patch(VerdictCache, "key_for", lambda fn: _spanned(fn, "cache.fingerprint"))
        patch(VerdictCache, "compute_through_store", _spanned_store)
        patch(runtime_workers, "resolve_detector", lambda fn: _spanned(fn, "pool.hydrate"))
        patch(VisualPrompt, "apply_many", lambda fn: _spanned(fn, "prompt.render"))
        patch(MetaClassifier, "score_from_source_proba", lambda fn: _spanned(fn, "meta.score"))
        patch(MNTDDefense, "score_model", lambda fn: _spanned(fn, "mntd.score"))
        patch(ImageClassifier, "predict_proba", lambda fn: _spanned(fn, "model.predict_proba"))
        patch(nn.Conv2d, "forward", _spanned_conv)
        patch(nn_conv, "im2col", _spanned_im2col)
        for classes, row in _FORWARD_ROWS:
            for cls in classes:
                patch(cls, "forward", lambda fn, row=row: _spanned(fn, row))
        for cls in _BACKWARD_CLASSES:
            patch(cls, "backward", lambda fn: _spanned(fn, "nn.backward"))
        return self

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            if original is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)


def _union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


class SpanIndex:
    """Spans grouped by name, with each span's children and self time."""

    def __init__(self, spans: List[SpanRecord]) -> None:
        self.spans = spans
        self.by_name: Dict[str, List[SpanRecord]] = defaultdict(list)
        children: Dict[str, List[SpanRecord]] = defaultdict(list)
        for span in spans:
            self.by_name[span.name].append(span)
            if span.parent_id is not None:
                children[span.parent_id].append(span)
        self.children = children

    def named(self, name: str) -> List[SpanRecord]:
        return self.by_name.get(name, [])

    def busy(self, name: str) -> float:
        return sum(span.duration for span in self.named(name))

    def self_time(self, span: SpanRecord) -> float:
        covered = _union_length(
            (max(c.start, span.start), min(c.end, span.end))
            for c in self.children.get(span.span_id, ())
            if c.end > span.start and c.start < span.end
        )
        return span.duration - covered

    def child_named(self, span: SpanRecord, name: str) -> Optional[SpanRecord]:
        for child in self.children.get(span.span_id, ()):
            if child.name == name:
                return child
        return None

    def table(self, wall: float) -> List[Dict[str, Any]]:
        """One row per span name: count, busy s, self s, share of wall, bytes, flops."""
        rows = []
        for name in sorted(self.by_name):
            spans = self.by_name[name]
            self_s = sum(self.self_time(s) for s in spans)
            rows.append(
                {
                    "layer": name,
                    "count": len(spans),
                    "busy_s": sum(s.duration for s in spans),
                    "self_s": self_s,
                    "share": self_s / wall if wall > 0 else 0.0,
                    "bytes": sum(s.attrs.get("bytes", 0) for s in spans),
                    "flops": sum(s.attrs.get("flops", 0) for s in spans),
                }
            )
        return rows


def render_table(title: str, rows: List[Dict[str, Any]]) -> str:
    lines = [
        title,
        f"  {'layer':24s} {'count':>8s} {'busy s':>10s} {'self s':>10s} "
        f"{'share':>7s} {'bytes':>12s} {'flops':>12s}",
    ]
    for row in sorted(rows, key=lambda r: -r["self_s"]):
        lines.append(
            f"  {row['layer']:24s} {row['count']:8d} {row['busy_s']:10.4f} "
            f"{row['self_s']:10.4f} {row['share']:7.1%} {row['bytes']:12.3g} "
            f"{row['flops']:12.3g}"
        )
    return "\n".join(lines)


def percentile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, math.ceil(q / 100.0 * len(ordered)) - 1))
    return ordered[index]


def tail_percentile(values: List[float]) -> float:
    """The highest of p99/p95/p90/p50 with >= 10 samples beyond it, or the
    maximum when no percentile has that many."""
    for q in (99.0, 95.0, 90.0, 50.0):
        if len(values) * (1.0 - q / 100.0) >= 10:
            return percentile(values, q)
    return max(values)


def setup_metrics(index: SpanIndex) -> Dict[str, float]:
    """Per-layer seconds of one traced tenant stand-up."""
    return {
        "registry.get_or_fit.s": index.busy("registry.get_or_fit"),
        "fit.shadow.s": index.busy("fit.shadow"),
        "fit.prompt.s": index.busy("fit.prompt"),
        "fit.meta.s": index.busy("fit.meta"),
        "nn.backward.s": index.busy("nn.backward"),
    }


def serving_metrics(
    index: SpanIndex, verdicts: int, wall: float, workers: int
) -> Dict[str, float]:
    """Per-layer metrics of the traced passes, as totals per verdict served."""
    per = 1.0 / max(verdicts, 1)
    audits = index.named("gateway.audit")
    latencies = [span.duration for span in audits]
    queue_wait = dispatch = 0.0
    for audit in audits:
        execute = index.child_named(audit, "pool.execute")
        if execute is None:
            continue  # a warm verdict: no pool task behind it
        dispatch += audit.duration - execute.duration
        store = index.child_named(execute, "cache.store")
        if store is not None:
            queue_wait += store.attrs["started"] - audit.start
    # a conv that unfolded (or has a spatial kernel) ran a GEMM; a 1x1 conv
    # that did not unfold ran the pointwise engine
    pointwise, gemm = [], []
    for conv in index.named("nn.conv"):
        unfolded = index.child_named(conv, "nn.conv.im2col") is not None
        (gemm if unfolded or conv.attrs["kernel"] != 1 else pointwise).append(conv)
    generations = {span.span_id for span in index.named("prompt.generation")}
    queries = [
        span for span in index.named("model.predict_proba") if span.parent_id in generations
    ]
    prompt_query = sum(span.duration for span in queries)
    prompts = index.named("inspect.prompt")
    return {
        "gateway.route.s": index.busy("gateway.route") * per,
        "gateway.route.calls": len(index.named("gateway.route")) * per,
        "gateway.audit.p50_s": percentile(latencies, 50.0) if latencies else 0.0,
        "gateway.audit.p99_s": tail_percentile(latencies) if latencies else 0.0,
        "gateway.queue_wait.s": queue_wait * per,
        "cache.fingerprint.s": index.busy("cache.fingerprint") * per,
        "cache.lookup.s": index.busy("cache.lookup") * per,
        "cache.store_write.s": sum(index.self_time(s) for s in index.named("cache.store")) * per,
        "pool.execute.s": index.busy("pool.execute") * per,
        "pool.busy_ratio": index.busy("pool.execute") / (workers * wall) if wall > 0 else 0.0,
        "pool.dispatch.s": dispatch * per,
        "pool.hydrate.s": index.busy("pool.hydrate") * per,
        "pool.hydrate.calls": len(index.named("pool.hydrate")) * per,
        "inspect.prompt.s": index.busy("inspect.prompt") * per,
        "inspect.score.s": index.busy("inspect.score") * per,
        "inspect.queries": sum(s.attrs.get("queries", 0) for s in prompts) * per,
        "inspect.query_calls": sum(s.attrs.get("calls", 0) for s in prompts) * per,
        "meta.score.s": index.busy("meta.score") * per,
        "prompt.generation.s": index.busy("prompt.generation") * per,
        "prompt.query.s": prompt_query * per,
        "prompt.render.s": index.busy("prompt.render") * per,
        "prompt.optimizer.s": (
            index.busy("inspect.prompt") - index.busy("prompt.render") - prompt_query
        ) * per,
        "mntd.score.s": index.busy("mntd.score") * per,
        "nn.conv.im2col.s": index.busy("nn.conv.im2col") * per,
        "nn.conv.im2col.bytes": sum(s.attrs["bytes"] for s in index.named("nn.conv.im2col")) * per,
        "nn.conv.gemm.s": sum(index.self_time(c) for c in gemm) * per,
        "nn.conv.gemm.flops": sum(c.attrs["flops"] for c in gemm) * per,
        "nn.conv.pointwise.s": sum(c.duration for c in pointwise) * per,
        "nn.batchnorm.s": index.busy("nn.batchnorm") * per,
        "nn.activation.s": index.busy("nn.activation") * per,
        "nn.linear.s": index.busy("nn.linear") * per,
        "nn.other.s": sum(index.self_time(s) for s in index.named("model.predict_proba")) * per,
    }


#: per-layer metric -> unit, reported by traced runs.  Serving metrics are
#: totals over the traced passes divided by the verdicts they served;
#: set-up metrics cover one traced stand-up.
PER_LAYER_UNITS = {
    "registry.get_or_fit.s": "s",
    "fit.shadow.s": "s",
    "fit.prompt.s": "s",
    "fit.meta.s": "s",
    "nn.backward.s": "s",
    "gateway.route.s": "s/verdict",
    "gateway.route.calls": "count/verdict",
    "gateway.audit.p50_s": "s",
    "gateway.audit.p99_s": "s",
    "gateway.queue_wait.s": "s/verdict",
    "cache.fingerprint.s": "s/verdict",
    "cache.lookup.s": "s/verdict",
    "cache.hit_ratio": "ratio",
    "cache.hit_ratio.base": "count",
    "cache.dedup_hits": "count/verdict",
    "cache.inspections": "count/verdict",
    "cache.store_write.s": "s/verdict",
    "pool.tasks": "count/verdict",
    "pool.execute.s": "s/verdict",
    "pool.busy_ratio": "ratio",
    "pool.dispatch.s": "s/verdict",
    "pool.hydrate.s": "s/verdict",
    "pool.hydrate.calls": "count/verdict",
    "inspect.prompt.s": "s/verdict",
    "inspect.score.s": "s/verdict",
    "inspect.queries": "count/verdict",
    "inspect.query_calls": "count/verdict",
    "meta.score.s": "s/verdict",
    "prompt.generation.s": "s/verdict",
    "prompt.query.s": "s/verdict",
    "prompt.render.s": "s/verdict",
    "prompt.optimizer.s": "s/verdict",
    "mntd.score.s": "s/verdict",
    "nn.conv.im2col.s": "s/verdict",
    "nn.conv.im2col.bytes": "B/verdict",
    "nn.conv.gemm.s": "s/verdict",
    "nn.conv.gemm.flops": "flop/verdict",
    "nn.conv.pointwise.s": "s/verdict",
    "nn.batchnorm.s": "s/verdict",
    "nn.activation.s": "s/verdict",
    "nn.linear.s": "s/verdict",
    "nn.other.s": "s/verdict",
    "detector.auroc": "ratio",
    "trace.overhead_ratio": "ratio",
}
