"""One benchmark run: stand tenants up, serve timed passes, check every verdict.

A run materialises its workload for the seed, then

1. **sets up**: stands every tenant up from an empty program store
   (``DetectorRegistry`` fit + ``AuditGateway.register_tenant``), several
   times, for the median ``setup_s``;
2. **computes the reference** verdict of every distinct catalogue model
   outside any timed region: ``BpromDetector.inspect(model, seed_key=key)``
   or ``MNTDDefense.score_model``;
3. **serves passes** until ``--seconds`` have elapsed.  A pass is one closed
   loop ``AuditGateway.stream`` over the workload's submissions through a
   fresh gateway with a fresh verdict store, so a pass's cold misses are cold
   again in the next pass, while the fitted detectors stay warm in the
   registry.  Every verdict's score, label, ``query_count`` and tenant must
   equal the reference bit for bit; a mismatch or an exception is a failed
   operation.

With ``trace`` the passes alternate untraced and traced (see
:mod:`layers`), the one set-up is traced, and the run reports per-layer
metrics instead of end-to-end ones.
"""

from __future__ import annotations

import copy
import contextlib
import ctypes
import glob
import multiprocessing
import os
import platform
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.ml.metrics import auroc
from repro.obs.trace import SpanRecord, get_tracer
from repro.runtime import AuditGateway, DetectorRegistry, VerdictCache
from repro.runtime.store import ArtifactStore

import layers
from workloads import SETUPS, WORKERS, Workload, build_workload

#: end-to-end metric -> unit, reported by untraced runs
END_TO_END_UNITS = {
    "verdicts_per_s": "verdicts/s",
    "setup_s": "s",
    "queries_per_verdict": "queries/verdict",
    "peak_rss_mb": "MB",
}


# -- environment ---------------------------------------------------------------

def _openblas() -> Optional[ctypes.CDLL]:
    """The OpenBLAS numpy bundles (``numpy.libs``), or ``None`` elsewhere."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "libscipy_openblas*.so*"))):
        try:
            return ctypes.CDLL(path)
        except OSError:
            continue
    return None


def _blas_call(lib: Optional[ctypes.CDLL], name: str, restype) -> Any:
    function = getattr(lib, name, None) if lib is not None else None
    if function is None:
        return None
    function.argtypes = []
    function.restype = restype
    return function()


def environment(workload: Workload) -> Dict[str, Any]:
    """What every number of this run was measured with."""
    lib = _openblas()
    config = _blas_call(lib, "scipy_openblas_get_config64_", ctypes.c_char_p)
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload.spec.name,
        "seed": workload.seed,
        "cpu_count": os.cpu_count(),
        "blas_library": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": config.decode() if config else None,
        "blas_threads": _blas_call(lib, "scipy_openblas_get_num_threads64_", ctypes.c_int),
        "blas_thread_env": {
            name: os.environ.get(name)
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "numpy": np.__version__,
        "python": platform.python_version(),
        "gateway_backend": workload.runtime.gateway_backend,
        "workers": WORKERS,
        "max_in_flight": 2 * WORKERS,
        "profile": "tiny",
        "precision": workload.runtime.precision,
        "models": len(workload.catalogue),
        "submissions_per_pass": len(workload.draws),
    }


# -- memory --------------------------------------------------------------------

def _peak_rss_kb(pid: Any = "self") -> int:
    """The process's resident-set high-water mark (``VmHWM``), in KiB."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _reset_peak_rss() -> None:
    """Restart this process's high-water mark (Linux ``clear_refs`` 5)."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass  # the peak then covers the process lifetime


# -- one pass --------------------------------------------------------------------

@dataclass
class Reference:
    score: float
    label: bool
    queries: int
    tenant_id: str


@dataclass
class PassResult:
    traced: bool
    wall_s: float
    verdicts: int
    failed: int
    first_verdict_s: float
    queries_per_verdict: float
    stats: Dict[str, Any]
    #: this process's peak RSS during the pass plus each live pool worker's
    peak_kb: int
    spans: List[SpanRecord] = field(default_factory=list)


def stand_up(workload: Workload, store_dir: Path) -> Tuple[DetectorRegistry, float]:
    """Fit and register every tenant against an empty store; returns the seconds."""
    runtime = workload.runtime.with_overrides(cache_dir=str(store_dir))
    start = time.perf_counter()
    registry = DetectorRegistry(runtime=runtime)
    with AuditGateway(registry=registry) as gateway:
        for tenant in workload.tenants:
            gateway.register_tenant(
                tenant.tenant_id, tenant.spec, tenant.reserved_clean,
                tenant.target_train, tenant.target_test,
            )
    return registry, time.perf_counter() - start


def reference_verdicts(workload: Workload, registry: DetectorRegistry) -> Dict[str, Reference]:
    """Each distinct submitted model's verdict, computed directly on its detector."""
    tenants = {tenant.tenant_id: tenant for tenant in workload.tenants}
    reference = {}
    for index in sorted(set(workload.draws)):
        vendor = workload.catalogue[index]
        tenant = tenants[vendor.tenant_id]
        detector = registry.get_or_fit(
            tenant.spec, tenant.reserved_clean, tenant.target_train, tenant.target_test
        ).detector
        # a copy, so the uploads stay as fresh as a vendor's upload
        model = copy.deepcopy(vendor.model)
        if tenant.spec.defense == "bprom":
            result = detector.inspect(model, seed_key=vendor.key)
            reference[vendor.key] = Reference(
                result.backdoor_score, result.is_backdoored, result.query_count, tenant.tenant_id
            )
        else:
            score = float(detector.score_model(model, tenant.reserved_clean))
            reference[vendor.key] = Reference(score, score >= detector.threshold, 0, tenant.tenant_id)
    return reference


def serve_pass(
    workload: Workload,
    registry: DetectorRegistry,
    reference: Dict[str, Reference],
    verdict_dir: Path,
    traced: bool,
) -> PassResult:
    """Stream one pass through a fresh gateway and check every verdict."""
    runtime = registry.runtime.with_overrides(telemetry=traced)
    cache = VerdictCache(store=ArtifactStore(verdict_dir), runtime=runtime)
    tracer = get_tracer()
    # fresh upload objects, built before the clock starts
    uploads = [
        (vendor.key, copy.copy(vendor.model), dict(vendor.metadata))
        for vendor in (workload.catalogue[i] for i in workload.draws)
    ]
    failed = 0
    verdicts = 0
    first = None
    _reset_peak_rss()
    with AuditGateway(registry=registry, runtime=runtime, verdict_cache=cache) as gateway:
        for tenant in workload.tenants:
            gateway.register_tenant(
                tenant.tenant_id, tenant.spec, tenant.reserved_clean,
                tenant.target_train, tenant.target_test,
            )
        tracer.drain()  # keep only the timed stream's spans
        start = time.perf_counter()
        try:
            for verdict in gateway.stream(uploads):
                if first is None:
                    first = time.perf_counter() - start
                verdicts += 1
                expected = reference.get(verdict.name)
                if (
                    expected is None
                    or verdict.backdoor_score != expected.score
                    or verdict.is_backdoored != expected.label
                    or verdict.query_count != expected.queries
                    or verdict.tenant != expected.tenant_id
                ):
                    failed += 1
        except Exception:  # a failing submission is a failed operation, not a crash
            traceback.print_exc(file=sys.stderr)
        wall = time.perf_counter() - start
        failed += len(uploads) - verdicts
        stats = gateway.stats()
        peak_kb = _peak_rss_kb() + sum(
            _peak_rss_kb(child.pid) for child in multiprocessing.active_children()
        )
    spans = tracer.drain() if traced else []
    tracer.disable()
    return PassResult(
        traced=traced,
        wall_s=wall,
        verdicts=verdicts,
        failed=failed,
        first_verdict_s=first if first is not None else wall,
        queries_per_verdict=stats["amortized_queries_per_verdict"] or 0.0,
        stats=stats,
        peak_kb=peak_kb,
        spans=spans,
    )


# -- the run ---------------------------------------------------------------------

@dataclass
class RunResult:
    attempted: int
    failed: int
    metrics: Dict[str, float]
    report: List[str]


def detection_auroc(workload: Workload, reference: Dict[str, Reference]) -> float:
    """AUROC of the reference scores, backdoored vs clean distinct models."""
    scored = [v for v in workload.catalogue if v.key in reference]
    labels = np.array([int(v.backdoored) for v in scored])
    scores = np.array([reference[v.key].score for v in scored])
    return float(auroc(scores, labels))


def run(workload_name: str, seed: int, seconds: float, trace: bool, cache_root: Path,
        models: Optional[int] = None, submissions: Optional[int] = None) -> RunResult:
    workload = build_workload(workload_name, seed, cache_root, models, submissions)
    report = [f"# environment {environment(workload)}"]
    cache_root.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="run-", dir=cache_root) as scratch:
        scratch_dir = Path(scratch)
        tracer = get_tracer()
        _reset_peak_rss()
        setup_times = []
        setup_spans: List[SpanRecord] = []
        for index in range(1 if trace else SETUPS):
            if trace:
                tracer.drain()
                tracer.enable()
                with layers.LayerTrace():
                    registry, seconds_taken = stand_up(workload, scratch_dir / f"store-{index}")
                setup_spans = tracer.drain()
                tracer.disable()
            else:
                registry, seconds_taken = stand_up(workload, scratch_dir / f"store-{index}")
            setup_times.append(seconds_taken)
        setup_peak_kb = _peak_rss_kb()

        reference = reference_verdicts(workload, registry)
        detection = detection_auroc(workload, reference)
        report.append(f"# auroc {detection:.4f} (seed {seed}, {len(reference)} distinct models)")

        passes: List[PassResult] = []
        deadline = time.perf_counter() + seconds
        while True:
            traced = trace and len(passes) % 2 == 1
            with layers.LayerTrace() if traced else contextlib.nullcontext():
                passes.append(
                    serve_pass(
                        workload, registry, reference,
                        scratch_dir / f"verdicts-{len(passes)}", traced,
                    )
                )
            enough = len(passes) >= (2 if trace else 1)
            if enough and time.perf_counter() >= deadline:
                break

    attempted = len(workload.draws) * len(passes)
    failed = sum(p.failed for p in passes)
    plain = [p for p in passes if not p.traced]
    serving_peak_kb = statistics.median(p.peak_kb for p in plain)
    report.append(
        f"# peak rss: set-up {setup_peak_kb / 1024:.1f} MB, "
        f"serving {serving_peak_kb / 1024:.1f} MB (median over passes)"
    )
    report.append(
        "# passes " + " ".join(
            f"{p.verdicts}v/{p.wall_s:.3f}s(first {p.first_verdict_s:.3f}s){'*' if p.traced else ''}"
            for p in passes
        )
    )
    if not trace:
        metrics = {
            "verdicts_per_s": statistics.median(p.verdicts / p.wall_s for p in plain),
            "setup_s": statistics.median(setup_times),
            "queries_per_verdict": statistics.median(p.queries_per_verdict for p in plain),
            "peak_rss_mb": max(setup_peak_kb, serving_peak_kb) / 1024.0,
        }
        return RunResult(attempted, failed, metrics, report)

    traced_passes = [p for p in passes if p.traced]
    spans = [span for p in traced_passes for span in p.spans]
    wall = sum(p.wall_s for p in traced_passes)
    served = sum(p.verdicts for p in traced_passes)
    serving = layers.SpanIndex(spans)
    setup = layers.SpanIndex(setup_spans)
    report.append(layers.render_table(
        f"# serving layers: {len(traced_passes)} traced pass(es), {served} verdicts, "
        f"{wall:.3f}s wall", serving.table(wall),
    ))
    report.append(layers.render_table(
        f"# set-up layers: one stand-up, {setup_times[0]:.3f}s wall", setup.table(setup_times[0])
    ))
    values = {**layers.setup_metrics(setup), **layers.serving_metrics(serving, served, wall, WORKERS)}
    caches = [p.stats["verdict_cache"] for p in traced_passes]
    hits = sum(c["memory_hits"] + c["store_hits"] + c["dedup_hits"] for c in caches)
    lookups = hits + sum(c["misses"] for c in caches)
    per = 1.0 / max(served, 1)
    values.update({
        "cache.hit_ratio": hits / lookups if lookups else 0.0,
        "cache.hit_ratio.base": float(lookups),
        "cache.dedup_hits": sum(c["dedup_hits"] for c in caches) * per,
        "cache.inspections": sum(c["inspections"] for c in caches) * per,
        "pool.tasks": sum(p.stats["worker_pool"]["tasks"] for p in traced_passes) * per,
        "detector.auroc": detection,
        "trace.overhead_ratio": (
            statistics.median(p.wall_s for p in traced_passes)
            / statistics.median(p.wall_s for p in plain) - 1.0
        ),
    })
    return RunResult(attempted, failed, values, report)

