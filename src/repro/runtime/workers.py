"""Tenant worker pools: the gateway's shared dispatch layer, process-capable.

This module is what turns "scales within one process" into "scales with the
machine":

* :class:`WorkerPool` — one persistent executor shared by every tenant of an
  :class:`~repro.runtime.gateway.AuditGateway`, with a ``"thread"`` (default),
  ``"process"`` (true multi-core) or ``"serial"`` (inline) backend.  The
  gateway submits every audit through its shared
  :class:`~repro.runtime.executor.ExecutorSession`.
* :class:`DetectorRef` — a pickle-cheap address of one fitted detector: the
  :func:`~repro.runtime.registry.registry_key` payload plus the spec and a
  runtime describing the shared store.  Process backends ship the *ref*, not
  the detector.
* :func:`resolve_detector` — worker-side hydration: the first task referencing
  a detector loads it from the shared (sharded) store by registry key —
  **warm-loading, never refitting** — and caches it in the worker process, so
  every later task on that worker serves from memory.

One audit is one pool task, nested as ``_traced_task`` (telemetry on) →
``_cached_audit_task`` (verdict cache on) → ``_audit_task``.  Every task
function here is module-level: process backends pickle tasks by qualified
name, so closures, lambdas and bound methods would fail at submit time
(repro-lint L201 guards this invariant across ``repro/runtime``).

Determinism: a hydrated detector round-trips with bit-identical scores
(the PR 1 save/load contract), the per-task seed still derives from the
catalogue key inside ``detector.inspect(seed_key=...)``, and query accounting
travels inside the pickled verdict — so process-backend verdicts are
bit-identical to the thread/serial backends.
"""

from __future__ import annotations

import threading
from concurrent.futures import BrokenExecutor, Future
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from repro.config import RuntimeConfig
from repro.models.classifier import ImageClassifier
from repro.obs.clock import now
from repro.obs.metrics import MetricsRegistry, counter_property
from repro.obs.trace import TraceContext, collect, get_tracer, relative_to
from repro.prompting.blackbox import QueryFunction
from repro.runtime import blas
from repro.runtime.executor import ExecutorSession, open_pool
from repro.runtime.registry import DETECTOR_KIND, DetectorSpec, load_detector_artifact
from repro.runtime.service import AuditVerdict
from repro.runtime.store import MISS, ArtifactStore
from repro.runtime.verdict_cache import VerdictCache


@dataclass(frozen=True)
class DetectorRef:
    """A store address of one fitted detector, cheap to pickle to workers.

    ``runtime`` describes how a worker reaches the shared store (cache/shard
    roots) and hydrates — the gateway hands out a serial, single-worker
    override so hydration inside a pool worker never opens a nested pool.
    """

    key_hash: str
    key: Dict[str, Any] = field(repr=False)
    spec: DetectorSpec = field(repr=False)
    runtime: RuntimeConfig = field(repr=False)


#: per-process hydrated-detector cache: key_hash -> detector.  Lives at module
#: level so every task dispatched to one worker process shares it; with the
#: fork start method a detector already hydrated in the parent is inherited.
_HYDRATED: Dict[str, Any] = {}
_HYDRATE_LOCK = threading.Lock()


def resolve_detector(ref: DetectorRef) -> Any:
    """The fitted detector a ref addresses, hydrated at most once per process.

    Warm-loading only: the artifact must already exist in the shared store
    (the gateway's ``register_tenant`` fitted-or-loaded it before any task
    could reference it), so a miss here is an environment error — e.g. a
    worker pointed at the wrong store — and never triggers a refit.
    """
    with _HYDRATE_LOCK:
        detector = _HYDRATED.get(ref.key_hash)
        if detector is not None:
            return detector
        store = ArtifactStore.from_config(ref.runtime)
        detector = store.try_load(
            DETECTOR_KIND,
            ref.key,
            lambda artifact: load_detector_artifact(artifact, ref.spec, ref.runtime),
        )
        if detector is MISS:
            raise RuntimeError(
                f"worker cannot hydrate detector {ref.key_hash}: no "
                f"{DETECTOR_KIND!r} artifact in the store at "
                f"{ref.runtime.cache_dir or ref.runtime.shard_dirs!r} — refitting "
                "in a pool worker is forbidden (the gateway fits before dispatch)"
            )
        # stamp last-use so the disk-budget GC never evicts a detector that
        # live workers are serving from
        store.touch(DETECTOR_KIND, ref.key)
        _HYDRATED[ref.key_hash] = detector
        return detector


# ---------------------------------------------------------------------------
# module-level pool tasks (process backends pickle these by qualified name)
# ---------------------------------------------------------------------------

def _audit_task(
    target: Any,
    key: str,
    model: ImageClassifier,
    query_function: Optional[QueryFunction],
) -> AuditVerdict:
    """One inspection of ``model`` by a tenant's detector (BPROM or MNTD).

    ``target`` is the fitted detector itself, or its :class:`DetectorRef` on
    the process backend, hydrated here through :func:`resolve_detector`.  The
    per-task seed derives from the catalogue key.
    """
    detector = resolve_detector(target) if isinstance(target, DetectorRef) else target
    result = detector.inspect(model, query_function=query_function, seed_key=key)
    return AuditVerdict(
        name=key,
        backdoor_score=result.backdoor_score,
        is_backdoored=result.is_backdoored,
        prompted_accuracy=result.prompted_accuracy,
        query_count=result.query_count,
        query_calls=result.query_calls,
    )


def _cached_audit_task(
    cache: VerdictCache, cache_key: Dict[str, Any], name: str, task: Callable[..., Any], *args: Any
) -> AuditVerdict:
    """Run one audit task through the cache's store tier, in the worker.

    The cache drops its in-memory/in-flight state when pickled, so process
    backends can ship it; the advisory-lock single flight inside
    :meth:`VerdictCache.compute_through_store` is what keeps two racing
    *processes* down to one inspection.
    """
    return cache.compute_through_store(cache_key, name, lambda: task(*args))


def _traced_task(ctx: TraceContext, fn: Callable[..., Any], *args: Any) -> Any:
    """Run a pool task under a per-task span sink parented on ``ctx``.

    Works on any backend: the sink is a ContextVar, so thread-backend tasks
    never interleave spans, and on the process backend the worker's globally
    *disabled* tracer still collects into the sink.  Spans ship back on the
    verdict as offsets from task entry (monotonic clocks do not compare
    across processes); the gateway rebases them onto its own clock at
    harvest.  Only a cold verdict carries spans — a memoised verdict's work
    happened in some earlier trace.
    """
    t0 = now()
    with collect(ctx) as spans:
        with get_tracer().span("pool.execute"):
            verdict = fn(*args)
    if getattr(verdict, "cache", "cold") == "cold" and hasattr(verdict, "spans"):
        verdict.spans = relative_to(spans, t0)
    return verdict


# ---------------------------------------------------------------------------
# the shared pool
# ---------------------------------------------------------------------------

class _CountingSession(ExecutorSession):
    """An :class:`ExecutorSession` that books every submit on its pool, and
    marks the pool broken when a submit or a task fails with
    :class:`~concurrent.futures.BrokenExecutor` (a dead process worker)."""

    def __init__(self, pool, owner: "WorkerPool") -> None:
        super().__init__(pool)
        self._owner = owner

    def submit(self, fn: Callable[..., Any], *args) -> Future:
        self._owner._count_task()
        try:
            future = super().submit(fn, *args)
        except BrokenExecutor:
            self._owner._mark_broken()
            raise
        future.add_done_callback(self._owner._watch)
        return future


class WorkerPool:
    """One persistent executor shared by every tenant of a gateway.

    The pool is created lazily on first :meth:`session` call and stays alive
    until :meth:`close`; every tenant's audits share its session, so the
    machine's parallelism is one dial (``workers``) rather than per-tenant
    pools multiplying.  ``backend="process"`` requires that submitted tasks
    be module-level callables with picklable arguments — the gateway ships a
    :class:`DetectorRef` instead of the detector for exactly this reason.

    Thread-safe: concurrent first submits race on one lock, so exactly one
    pool is ever created.
    """

    #: tasks submitted through the shared session (for :meth:`stats`);
    #: backed by the mergeable metrics registry
    tasks = counter_property("pool.tasks")

    def __init__(self, workers: int = 1, backend: str = "thread") -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if backend not in ("serial", "thread", "process"):
            raise ValueError(f"unknown worker-pool backend {backend!r}")
        self.workers = int(workers)
        self.backend = backend
        self._pool = None
        self._session: Optional[ExecutorSession] = None
        self._lock = threading.Lock()
        self._closed = False
        self._broken = False
        self.metrics = MetricsRegistry()
        self.tasks = 0

    @classmethod
    def from_config(cls, runtime: Optional[RuntimeConfig]) -> "WorkerPool":
        if runtime is None:
            return cls(1, "thread")
        return cls(
            workers=runtime.gateway_workers or runtime.workers,
            backend=runtime.gateway_backend,
        )

    @property
    def parallel(self) -> bool:
        """Whether submitted tasks actually run concurrently."""
        return self.backend != "serial" and self.workers > 1

    @property
    def started(self) -> bool:
        """Whether the shared session (and any pool behind it) exists yet."""
        with self._lock:
            return self._session is not None

    def _count_task(self) -> None:
        with self._lock:
            self.tasks += 1

    def _mark_broken(self) -> None:
        with self._lock:
            self._broken = True

    def _watch(self, future: Future) -> None:
        if not future.cancelled() and isinstance(future.exception(), BrokenExecutor):
            self._mark_broken()

    def _blas_threads(self) -> Optional[int]:
        """The BLAS thread count the pool's workers run with (lock held).

        Process workers inherit this process's count and lower it to the
        budget; an open thread pool and the inline session run at the
        process's live count.
        """
        if self.parallel and (self.backend == "process" or self._pool is None):
            return blas.capped(blas.budget(self.workers))
        return blas.threads()

    def session(self) -> ExecutorSession:
        """The shared session; created (with its pool) on first call."""
        with self._lock:
            if self._closed:
                raise RuntimeError("worker pool is closed")
            if self._session is None:
                if self.parallel:
                    self._pool = open_pool(self.backend, self.workers)
                # a serial/one-worker pool yields an inline (poolless) session,
                # preserving the old synchronous-submit behaviour exactly
                self._session = _CountingSession(self._pool, self)
            return self._session

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "backend": self.backend,
                "workers": self.workers,
                "started": self._session is not None,
                "broken": self._broken,
                "tasks": self.tasks,
                "cores": blas.usable_cores(),
                "blas_threads": self._blas_threads(),
            }

    def close(self) -> None:
        """Drain outstanding tasks and shut the pool down (idempotent)."""
        with self._lock:
            self._closed = True
            pool, self._pool, self._session = self._pool, None, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WorkerPool(workers={self.workers}, backend={self.backend!r}, "
            f"tasks={self.tasks})"
        )
