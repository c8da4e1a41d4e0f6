"""Tests for the tenant worker-pool layer: executor parity across backends,
:class:`WorkerPool` lifecycle, and :class:`DetectorRef` hydration.

The process backend's whole contract is that it is *invisible* to results:
per-task seeds derive from stable task identities, detectors hydrate from the
store bit-identically, and the only observable difference is wall-clock time.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import BrokenExecutor

import numpy as np
import pytest

from repro.config import RuntimeConfig
from repro.runtime import DetectorRegistry, ParallelExecutor, blas
from repro.runtime.registry import DetectorSpec
from repro.runtime.workers import _HYDRATED, DetectorRef, WorkerPool, resolve_detector
from repro.utils.rng import derive_seed

BACKENDS = ("serial", "thread", "process")


def _seeded_draw(item):
    """Module-level so process pools can pickle it by qualified name; the
    per-task seed derives from the task identity, like every runtime stage."""
    index, experiment_seed = item
    rng = np.random.default_rng(derive_seed(experiment_seed, "parity-task", index))
    return float(rng.random())


def _die(_):
    """Kill the worker process running it, as a crashing native call would."""
    os._exit(1)


# ---------------------------------------------------------------------------
# executor parity: serial / thread / process
# ---------------------------------------------------------------------------

def test_executor_map_results_identical_across_backends():
    items = [(index, 123) for index in range(6)]
    expected = [_seeded_draw(item) for item in items]
    for backend in BACKENDS:
        executor = ParallelExecutor(workers=2, backend=backend)
        assert executor.map(_seeded_draw, items) == expected, backend


def test_executor_session_results_identical_across_backends():
    items = [(index, 321) for index in range(6)]
    expected = [_seeded_draw(item) for item in items]
    for backend in BACKENDS:
        with WorkerPool(workers=2, backend=backend) as pool:
            session = pool.session()
            futures = [session.submit(_seeded_draw, item) for item in items]
            assert [future.result() for future in futures] == expected, backend


# ---------------------------------------------------------------------------
# WorkerPool lifecycle
# ---------------------------------------------------------------------------

def test_non_parallel_pool_runs_inline():
    with WorkerPool(workers=1, backend="thread") as pool:
        assert not pool.parallel and not pool.started
        session = pool.session()
        assert not session.parallel  # poolless: submits resolve synchronously
        future = session.submit(_seeded_draw, (0, 7))
        assert future.done() and future.result() == _seeded_draw((0, 7))
        assert pool.started


def test_parallel_pool_shares_one_session_and_counts_tasks():
    with WorkerPool(workers=2, backend="thread") as pool:
        assert pool.parallel
        session = pool.session()
        assert session is pool.session()  # every tenant shares the one session
        futures = [session.submit(_seeded_draw, (index, 9)) for index in range(4)]
        assert [f.result() for f in futures] == [_seeded_draw((i, 9)) for i in range(4)]
        stats = pool.stats()
        assert stats == {
            "backend": "thread", "workers": 2, "started": True, "broken": False, "tasks": 4,
            "cores": blas.usable_cores(), "blas_threads": blas.threads(),
        }


def test_process_pool_runs_module_level_tasks():
    with WorkerPool(workers=2, backend="process") as pool:
        session = pool.session()
        futures = [session.submit(_seeded_draw, (index, 11)) for index in range(3)]
        assert [f.result() for f in futures] == [_seeded_draw((i, 11)) for i in range(3)]


def test_dead_process_worker_marks_pool_broken():
    with WorkerPool(workers=2, backend="process") as pool:
        session = pool.session()
        assert session.submit(_seeded_draw, (0, 1)).result() == _seeded_draw((0, 1))
        assert not pool.stats()["broken"]
        future = session.submit(_die, None)
        # callbacks run in the order added, so ours fires after the pool's own
        harvested = threading.Event()
        future.add_done_callback(lambda _: harvested.set())
        with pytest.raises(BrokenExecutor):
            future.result(timeout=60)
        assert harvested.wait(timeout=60)
        stats = pool.stats()
        assert stats["started"] and stats["broken"]
        with pytest.raises(BrokenExecutor):  # every later submit fails too
            session.submit(_seeded_draw, (1, 1))
        assert pool.stats()["broken"]


def test_pool_close_is_idempotent_and_final():
    pool = WorkerPool(workers=2, backend="thread")
    pool.session()
    pool.close()
    pool.close()  # idempotent
    with pytest.raises(RuntimeError, match="closed"):
        pool.session()


def test_pool_rejects_bad_config():
    with pytest.raises(ValueError):
        WorkerPool(workers=0)
    with pytest.raises(ValueError):
        WorkerPool(backend="gpu")


def test_pool_from_config():
    assert WorkerPool.from_config(None).stats()["backend"] == "thread"
    runtime = RuntimeConfig(workers=3, gateway_backend="process")
    pool = WorkerPool.from_config(runtime)
    assert pool.backend == "process" and pool.workers == 3  # falls back to workers
    pool = WorkerPool.from_config(runtime.with_overrides(gateway_workers=5))
    assert pool.workers == 5  # gateway_workers wins when set


# ---------------------------------------------------------------------------
# DetectorRef hydration
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def hydration_setup(micro_profile, tiny_dataset, tiny_test_dataset, tmp_path_factory):
    """A fitted detector in a store, plus the ref a process worker would get."""
    runtime = RuntimeConfig(cache_dir=str(tmp_path_factory.mktemp("workers-store")))
    registry = DetectorRegistry(runtime=runtime)
    spec = DetectorSpec(defense="bprom", profile=micro_profile, architecture="mlp", seed=0)
    entry = registry.get_or_fit(spec, tiny_dataset, tiny_test_dataset, tiny_test_dataset)
    ref = DetectorRef(
        key_hash=entry.key_hash,
        key=entry.key,
        spec=spec,
        runtime=runtime.with_overrides(workers=1, backend="serial"),
    )
    return entry, ref


def test_resolve_detector_hydrates_once_and_scores_bit_identically(
    hydration_setup, trained_mlp
):
    entry, ref = hydration_setup
    _HYDRATED.clear()
    hydrated = resolve_detector(ref)
    assert hydrated is not entry.detector  # a fresh load, not the fitted object
    assert resolve_detector(ref) is hydrated  # per-process cache serves repeats
    reference = entry.detector.inspect(trained_mlp, seed_key="probe")
    warm = hydrated.inspect(trained_mlp, seed_key="probe")
    assert warm.backdoor_score == reference.backdoor_score  # exact, not approx
    assert warm.is_backdoored == reference.is_backdoored
    _HYDRATED.clear()


def test_resolve_detector_never_refits_on_miss(hydration_setup, tmp_path):
    _, ref = hydration_setup
    _HYDRATED.clear()
    pointed_at_empty_store = DetectorRef(
        key_hash=ref.key_hash,
        key=ref.key,
        spec=ref.spec,
        runtime=RuntimeConfig(cache_dir=str(tmp_path), workers=1, backend="serial"),
    )
    with pytest.raises(RuntimeError, match="refitting in a pool worker is forbidden"):
        resolve_detector(pointed_at_empty_store)
    assert not _HYDRATED  # a miss must not poison the cache
