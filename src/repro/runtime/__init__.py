"""Staged pipeline runtime: persistence, parallelism and batch serving.

The runtime layer turns the BPROM pipeline into a production-shaped system:

* :class:`~repro.runtime.store.ArtifactStore` — a content-addressed,
  disk-backed cache for trained models, prompts and fitted detectors, keyed
  on profile/seed/config hashes so artefacts survive process restarts.
* :class:`~repro.runtime.executor.ParallelExecutor` — deterministic fan-out
  of the embarrassingly-parallel stages (shadow training, prompting,
  suspicious-model inspection) over thread or process pools.
* :mod:`~repro.runtime.blas` — the BLAS thread budget every pool runs
  under: ``max(1, cores // workers)`` OpenBLAS threads per worker.
* :class:`~repro.runtime.pipeline.StagedPipeline` — the stage graph
  (shadow -> prompt -> meta -> inspect) with per-stage caching and reports.
* :class:`~repro.runtime.sharding.ShardedArtifactStore` — one cache federated
  across several store roots: deterministic home-shard placement, read-through
  lookups across every shard, ``rebalance()``/``gc()`` maintenance.
* :class:`~repro.runtime.service.AuditService` — the batch serve-many API:
  load a saved detector once, screen whole model catalogues concurrently;
  the reference the gateway's streamed verdicts are compared against.
* :class:`~repro.runtime.registry.DetectorRegistry` — a store-backed
  catalogue of fitted detectors (BPROM and MNTD) with cross-process
  single-flight fitting (advisory lock files, stale takeover) and a
  byte-budgeted in-memory LRU.
* :class:`~repro.runtime.gateway.AuditGateway` — the one streaming audit
  engine: routes a mixed model stream to per-tenant detectors, dispatches
  each cold inspection as one pool task under one shared in-flight budget
  (``submit``/``as_completed``/``stream``), merges the verdicts in
  completion order and reports the whole serving picture in one ``stats()``
  snapshot; verdicts are bit-identical to the batch path.
* :class:`~repro.runtime.verdict_cache.VerdictCache` — fingerprint-keyed
  memoisation of audit verdicts: a weighted-LRU memory tier over store
  persistence, TTL/refit invalidation and in-flight dedup (futures
  in-process, advisory locks across processes), amortising the query budget
  over redundant fleet traffic.
* :class:`~repro.runtime.workers.WorkerPool` — the gateway's shared tenant
  worker pool (thread / process / serial backends); process workers hydrate
  detectors from the shared store through pickle-cheap
  :class:`~repro.runtime.workers.DetectorRef` addresses — warm-loading,
  never refitting — for true multi-core fleet throughput.

See ARCHITECTURE.md at the repository root for the full design.
"""

from repro.runtime.executor import ExecutorSession, ParallelExecutor
from repro.runtime.locks import AdvisoryLock, LockTimeout
from repro.runtime.pipeline import Stage, StagedPipeline, StageReport
from repro.runtime.sharding import ShardedArtifactStore
from repro.runtime.store import (
    Artifact,
    ArtifactStore,
    canonical_key,
    dataset_fingerprint,
    key_hash,
)

__all__ = [
    "AdvisoryLock",
    "Artifact",
    "ArtifactStore",
    "AuditGateway",
    "AuditJob",
    "AuditService",
    "AuditVerdict",
    "DetectorRef",
    "DetectorRegistry",
    "DetectorSpec",
    "ExecutorSession",
    "GatewayVerdict",
    "LockTimeout",
    "RegistryEntry",
    "ParallelExecutor",
    "ShardedArtifactStore",
    "Stage",
    "StagedPipeline",
    "StageReport",
    "TenantProvisioner",
    "VerdictCache",
    "WorkerPool",
    "canonical_key",
    "dataset_fingerprint",
    "detector_digest",
    "key_hash",
    "model_fingerprint",
    "verdict_cache_key",
]

#: service classes import the detector, which imports this package's
#: submodules; resolving them lazily keeps the import graph acyclic
_LAZY = {
    "AuditService": "repro.runtime.service",
    "AuditVerdict": "repro.runtime.service",
    "AuditJob": "repro.runtime.gateway",
    "DetectorRegistry": "repro.runtime.registry",
    "DetectorSpec": "repro.runtime.registry",
    "RegistryEntry": "repro.runtime.registry",
    "AuditGateway": "repro.runtime.gateway",
    "GatewayVerdict": "repro.runtime.gateway",
    "TenantProvisioner": "repro.runtime.gateway",
    "DetectorRef": "repro.runtime.workers",
    "WorkerPool": "repro.runtime.workers",
    "VerdictCache": "repro.runtime.verdict_cache",
    "model_fingerprint": "repro.runtime.verdict_cache",
    "verdict_cache_key": "repro.runtime.verdict_cache",
    "detector_digest": "repro.runtime.verdict_cache",
}


def __getattr__(name: str):
    if name in _LAZY:
        import importlib

        return getattr(importlib.import_module(_LAZY[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
