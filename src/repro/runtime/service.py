"""Serve-many audit API: one fitted detector screening a fleet of models.

This is the MLaaS-audit deployment story from the paper's introduction turned
into a batch service: fit (or load) a BPROM detector once, then submit whole
vendor catalogues for concurrent black-box screening.  Per-model prompting
seeds are derived from the *catalogue key* (not the model name, which vendors
may reuse), so a batch audit returns exactly the same verdicts as inspecting
each model alone under its key — and duplicate-named entries never share a
seed.  For streaming verdicts over the same detectors see
:class:`~repro.runtime.gateway.AuditGateway`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.config import RuntimeConfig
from repro.core.detector import BpromDetector, DetectionResult
from repro.datasets.base import ImageDataset
from repro.models.classifier import ImageClassifier
from repro.prompting.blackbox import QueryFunction
from repro.runtime.executor import ParallelExecutor
from repro.runtime.store import key_hash
from repro.runtime.verdict_cache import VerdictCache, detector_digest


@dataclass
class AuditVerdict:
    """One row of an audit report."""

    name: str
    backdoor_score: float
    is_backdoored: bool
    prompted_accuracy: float
    #: black-box query budget spent prompting this model (images queried)
    query_count: int = 0
    #: round-trips to the model's query endpoint
    query_calls: int = 0
    #: how this verdict was obtained: ``"cold"`` (inspected for this
    #: submission) or a :data:`~repro.runtime.verdict_cache.CACHE_PROVENANCES`
    #: cache tier (``"memory"``/``"store"``/``"dedup"``).  ``query_count``
    #: and ``query_calls`` always describe the *original* inspection; a warm
    #: serving spent none of them
    cache: str = "cold"
    #: task-relative telemetry spans a traced pool worker ships back with a
    #: cold verdict; the gateway consumes (rebases and clears) them at
    #: harvest.  Excluded from equality and repr — telemetry on/off must not
    #: change what a verdict *is* — and never persisted by the verdict cache
    spans: List = field(default_factory=list, repr=False, compare=False)

    @property
    def verdict(self) -> str:
        return "reject" if self.is_backdoored else "accept"


class AuditService:
    """Batch front-end over a fitted :class:`BpromDetector`.

    Typical usage::

        service = AuditService.from_saved("artifacts/detector", runtime=RuntimeConfig(workers=4))
        report = service.audit({"vendor-a": model_a, "vendor-b": model_b})
    """

    def __init__(
        self,
        detector: BpromDetector,
        runtime: Optional[RuntimeConfig] = None,
        verdict_cache: Optional[VerdictCache] = None,
    ) -> None:
        self.detector = detector
        #: the runtime's executor if one is given, else the detector's own
        self.executor = (
            ParallelExecutor.from_config(runtime) if runtime is not None else detector.executor
        )
        if verdict_cache is None and runtime is not None and runtime.verdict_cache:
            verdict_cache = VerdictCache(runtime=runtime)
        self.verdict_cache = verdict_cache
        #: content digest of the fitted detector, the cache-key coordinate
        #: that a refit bumps (gateway tenants use their registry key_hash)
        self.detector_digest = (
            detector_digest(detector) if verdict_cache is not None else None
        )

    @classmethod
    def from_saved(
        cls,
        path: Union[str, Path],
        runtime: Optional[RuntimeConfig] = None,
    ) -> "AuditService":
        """Stand up a service from a detector artifact written by ``save()``."""
        return cls(BpromDetector.load(path, runtime=runtime), runtime=runtime)

    def inspect_many(
        self,
        suspicious_models: Sequence[ImageClassifier],
        query_functions: Optional[Sequence[Optional[QueryFunction]]] = None,
        target_eval: Optional[ImageDataset] = None,
        keys: Optional[Sequence[Optional[str]]] = None,
    ) -> List[DetectionResult]:
        """Concurrently prompt and score a batch of suspicious models.

        ``keys`` carries each model's stable audit identity (the catalogue
        key) into the per-model seed derivation; without it seeds fall back
        to model names.
        """
        return self.detector.inspect_many(
            suspicious_models,
            query_functions=query_functions,
            target_eval=target_eval,
            executor=self.executor,
            keys=keys,
        )

    def audit(
        self,
        catalogue: Dict[str, ImageClassifier],
        query_functions: Optional[Dict[str, QueryFunction]] = None,
    ) -> List[AuditVerdict]:
        """Screen a named catalogue of models; returns one verdict per entry.

        With a :class:`~repro.runtime.verdict_cache.VerdictCache` configured,
        warm entries are served from the cache (zero queries spent), the
        same weights appearing under several catalogue keys are inspected
        once, and the remaining cold misses run as one parallel fan-out
        whose verdicts fill the cache.  Note the cached verdict keeps its
        *minting* submission's prompting seed: a warm serving under a new
        key returns the minting inspection's numbers, which is the point of
        memoisation (re-keyed cold inspections would re-derive seeds).
        """
        names = list(catalogue)
        cache = self.verdict_cache
        verdicts: Dict[str, AuditVerdict] = {}
        cold_names = names
        cache_keys: Dict[str, Dict] = {}
        followers: Dict[str, str] = {}
        if cache is not None and cache.enabled:
            precision = getattr(getattr(self.detector, "runtime", None), "precision", "float64")
            leaders: Dict[str, str] = {}
            cold_names = []
            for name in names:
                cache_keys[name] = cache.key_for(
                    catalogue[name], self.detector_digest, precision
                )
                hit = cache.lookup(cache_keys[name], name)
                if hit is not None:
                    verdicts[name] = hit
                    continue
                digest = key_hash(cache_keys[name])
                if digest in leaders:
                    followers[name] = leaders[digest]
                    cache.record_dedup()
                else:
                    leaders[digest] = name
                    cold_names.append(name)
                    cache.record_miss()
        functions = None
        if query_functions is not None:
            functions = [query_functions.get(name) for name in cold_names]
        # seed on the catalogue key, not model.name: vendors reuse names, and
        # duplicate-named entries must not share visual-prompt seeds
        models = [catalogue[name] for name in cold_names]
        results = self.inspect_many(models, query_functions=functions, keys=cold_names)
        for name, result in zip(cold_names, results):
            verdict = AuditVerdict(
                name=name,
                backdoor_score=result.backdoor_score,
                is_backdoored=result.is_backdoored,
                prompted_accuracy=result.prompted_accuracy,
                query_count=result.query_count,
                query_calls=result.query_calls,
            )
            if cache is not None and cache.enabled:
                cache.store_verdict(cache_keys[name], verdict)
            verdicts[name] = verdict
        for name, leader in followers.items():
            verdicts[name] = cache.served(verdicts[leader], name, "dedup")
        return [verdicts[name] for name in names]
