"""Tests for the advisory lock and the detector registry.

The acceptance properties of the registry subsystem:

* a *second process* (modelled as a fresh registry instance over the same
  store) performs **zero training** for both a BPROM and an MNTD detector on
  a warm store — every stage report cached;
* two concurrent cold-store ``get_or_fit`` callers fit **exactly once**
  (cross-process single-flight via advisory lock files);
* the in-memory LRU respects its byte budget and reloads evicted detectors
  from the store.
"""

from __future__ import annotations

import json
import os
import threading
import time

import numpy as np
import pytest

from repro.config import RuntimeConfig
from repro.core.detector import BpromDetector
from repro.defenses.model_level import MNTDDefense
from repro.runtime import AdvisoryLock, LockTimeout
from repro.runtime.registry import DETECTOR_KIND, DetectorRegistry, DetectorSpec, registry_key
from repro.runtime.store import key_hash


# ---------------------------------------------------------------------------
# advisory lock
# ---------------------------------------------------------------------------

def test_lock_is_exclusive_and_releases(tmp_path):
    path = tmp_path / "locks" / "demo.lock"
    with AdvisoryLock(path) as lock:
        assert lock.held
        assert path.exists()
        with pytest.raises(LockTimeout):
            AdvisoryLock(path, wait_seconds=0.05).acquire()
    assert not path.exists()
    # free again: a second acquire succeeds immediately
    with AdvisoryLock(path, wait_seconds=0.05):
        pass


def test_lock_waits_for_release(tmp_path):
    path = tmp_path / "demo.lock"
    first = AdvisoryLock(path).acquire()
    acquired = []

    def waiter():
        with AdvisoryLock(path, wait_seconds=5.0, poll_seconds=0.01):
            acquired.append(time.monotonic())

    thread = threading.Thread(target=waiter)
    thread.start()
    time.sleep(0.1)
    assert not acquired  # still blocked on the holder
    first.release()
    thread.join(timeout=5.0)
    assert acquired


def test_stale_lock_takeover(tmp_path):
    path = tmp_path / "demo.lock"
    AdvisoryLock(path).acquire()  # never released: simulated crashed holder
    hour_ago = time.time() - 3600
    os.utime(path, (hour_ago, hour_ago))
    with AdvisoryLock(path, stale_seconds=60.0, wait_seconds=0.5) as lock:
        assert lock.held  # took the abandoned lock over
    assert not path.exists()


def test_release_after_takeover_spares_the_new_holder(tmp_path):
    path = tmp_path / "demo.lock"
    crashed = AdvisoryLock(path).acquire()
    hour_ago = time.time() - 3600
    os.utime(path, (hour_ago, hour_ago))
    successor = AdvisoryLock(path, stale_seconds=60.0, wait_seconds=0.5).acquire()
    crashed.release()  # late release by the evicted holder
    assert path.exists()  # the successor's lock file survives
    holder = successor.holder()
    assert holder is not None and holder["token"] == successor._token
    successor.release()
    assert not path.exists()


def test_lock_refresh_pushes_staleness_out(tmp_path):
    path = tmp_path / "demo.lock"
    with AdvisoryLock(path, stale_seconds=3600.0) as lock:
        hour_ago = time.time() - 3600
        os.utime(path, (hour_ago, hour_ago))
        lock.refresh()
        with pytest.raises(LockTimeout):  # no longer stale, so no takeover
            AdvisoryLock(path, stale_seconds=3600.0, wait_seconds=0.05).acquire()


# ---------------------------------------------------------------------------
# registry: addressing
# ---------------------------------------------------------------------------

def test_registry_key_tracks_every_knob(micro_profile, tiny_dataset, tiny_test_dataset):
    spec = DetectorSpec(defense="bprom", profile=micro_profile, architecture="mlp", seed=3)
    base = key_hash(registry_key(spec, tiny_dataset, tiny_test_dataset, tiny_test_dataset))
    for changed in (
        spec.with_overrides(seed=4),
        spec.with_overrides(defense="mntd"),
        spec.with_overrides(architecture="resnet18"),
        spec.with_overrides(threshold=0.7),
        spec.with_overrides(num_queries=5),
        spec.with_overrides(precision="float32"),
    ):
        other = key_hash(registry_key(changed, tiny_dataset, tiny_test_dataset, tiny_test_dataset))
        assert other != base, changed
    # different datasets change the address too
    assert key_hash(registry_key(spec, tiny_test_dataset, tiny_test_dataset, tiny_test_dataset)) != base


def test_spec_rejects_unknown_defense_and_architecture(micro_profile):
    with pytest.raises(ValueError):
        DetectorSpec(defense="strip", profile=micro_profile)
    with pytest.raises(ValueError):
        DetectorSpec(profile=micro_profile, architecture="vgg")
    with pytest.raises(ValueError, match="precision"):
        DetectorSpec(profile=micro_profile, precision="float16")


def test_precision_tiers_never_share_a_cache_address(
    micro_profile, tiny_dataset, tiny_test_dataset
):
    """float32 fits get their own store keys; float64 keys are unchanged.

    The back-compat half matters as much as the separation half: the default
    tier must produce byte-identical key payloads to the pre-precision-split
    registry, so stores warmed before the split keep serving hits.
    """
    spec = DetectorSpec(defense="bprom", profile=micro_profile, architecture="mlp", seed=3)
    reference = registry_key(spec, tiny_dataset, tiny_test_dataset, tiny_test_dataset)
    assert "precision" not in reference  # pre-split float64 hashes stay stable
    fast = registry_key(
        spec.with_overrides(precision="float32"),
        tiny_dataset,
        tiny_test_dataset,
        tiny_test_dataset,
    )
    assert fast["precision"] == "float32"
    assert key_hash(fast) != key_hash(reference)
    # spec normalisation: case-folded on construction, like the env knob
    assert DetectorSpec(profile=micro_profile, precision="FLOAT32").precision == "float32"


def test_bprom_spec_requires_target_datasets(micro_profile, tiny_dataset, tmp_path):
    registry = DetectorRegistry(runtime=RuntimeConfig(cache_dir=str(tmp_path)))
    with pytest.raises(ValueError, match="target_train"):
        registry.get_or_fit(DetectorSpec(profile=micro_profile, architecture="mlp"), tiny_dataset)


# ---------------------------------------------------------------------------
# registry: cross-process reuse (the ROADMAP acceptance item)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def shared_store_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("registry-store")


@pytest.fixture(scope="module")
def specs(micro_profile):
    return {
        "bprom": DetectorSpec(defense="bprom", profile=micro_profile, architecture="mlp", seed=0),
        "mntd": DetectorSpec(
            defense="mntd", profile=micro_profile, architecture="mlp", seed=0, num_queries=4
        ),
    }


def test_second_process_reuses_both_detector_kinds(
    specs, shared_store_dir, tiny_dataset, tiny_test_dataset, trained_mlp
):
    runtime = RuntimeConfig(cache_dir=str(shared_store_dir))
    first = DetectorRegistry(runtime=runtime)
    fitted_bprom = first.get_or_fit(
        specs["bprom"], tiny_dataset, tiny_test_dataset, tiny_test_dataset
    )
    fitted_mntd = first.get_or_fit(specs["mntd"], tiny_dataset)
    assert fitted_bprom.source == "fit" and fitted_bprom.trained
    assert fitted_mntd.source == "fit" and fitted_mntd.trained
    assert first.fits == 2

    # a fresh registry over the same store models a second process
    second = DetectorRegistry(runtime=runtime)
    warm_bprom = second.get_or_fit(
        specs["bprom"], tiny_dataset, tiny_test_dataset, tiny_test_dataset
    )
    warm_mntd = second.get_or_fit(specs["mntd"], tiny_dataset)
    # zero training: every stage report cached, no fits counted
    for entry in (warm_bprom, warm_mntd):
        assert entry.source == "store"
        assert entry.stage_reports and all(report.cached for report in entry.stage_reports)
        assert not entry.trained
    assert second.fits == 0 and second.store_hits == 2

    # and the reloaded detectors serve bit-identical scores
    assert isinstance(warm_bprom.detector, BpromDetector)
    assert isinstance(warm_mntd.detector, MNTDDefense)
    original = fitted_bprom.detector.inspect(trained_mlp, seed_key="probe")
    reloaded = warm_bprom.detector.inspect(trained_mlp, seed_key="probe")
    assert reloaded.backdoor_score == original.backdoor_score
    assert warm_mntd.detector.score_model(trained_mlp, tiny_dataset) == fitted_mntd.detector.score_model(
        trained_mlp, tiny_dataset
    )

    # third call in the same process: served from the in-memory LRU
    assert second.get_or_fit(specs["mntd"], tiny_dataset).source == "memory"
    assert second.hits == 1


def test_concurrent_cold_callers_fit_exactly_once(
    micro_profile, tiny_dataset, tiny_test_dataset, tmp_path
):
    runtime = RuntimeConfig(cache_dir=str(tmp_path))
    spec = DetectorSpec(defense="mntd", profile=micro_profile, architecture="mlp", num_queries=4)
    registries = [DetectorRegistry(runtime=runtime) for _ in range(2)]
    entries = [None, None]
    errors = []
    barrier = threading.Barrier(2)

    def caller(index):
        try:
            barrier.wait()
            entries[index] = registries[index].get_or_fit(spec, tiny_dataset)
        except BaseException as exc:  # pragma: no cover - diagnostic
            errors.append(exc)

    threads = [threading.Thread(target=caller, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not errors
    # single-flight: exactly one registry trained, the other loaded the
    # winner's artifact after waiting on the advisory lock
    assert sum(registry.fits for registry in registries) == 1
    assert sum(registry.store_hits for registry in registries) == 1
    assert all(entry is not None for entry in entries)
    # both callers hold the same fitted detector: the loser's copy came from
    # the winner's artifact, so the tuned query probes agree exactly
    np.testing.assert_array_equal(
        entries[0].detector._query_images, entries[1].detector._query_images
    )


@pytest.mark.parametrize("defense", ["bprom", "mntd"])
def test_detector_of_another_format_version_is_refit(
    defense, specs, tiny_dataset, tiny_test_dataset, tmp_path
):
    runtime = RuntimeConfig(cache_dir=str(tmp_path))
    spec = specs[defense]
    targets = (tiny_test_dataset, tiny_test_dataset) if defense == "bprom" else ()
    first = DetectorRegistry(runtime=runtime)
    fitted = first.get_or_fit(spec, tiny_dataset, *targets)
    # rewrite the saved detector's own format version (not the store
    # manifest's) to the one before it, as an older release would have left it
    directory = first.store.directory_for(DETECTOR_KIND, fitted.key)
    rewritten = 0
    for path in directory.glob("*.json"):
        document = json.loads(path.read_text())
        if path.name != "artifact.json" and "format_version" in document:
            document["format_version"] -= 1
            path.write_text(json.dumps(document))
            rewritten += 1
    assert rewritten == 1

    stale = DetectorRegistry(runtime=runtime)
    with pytest.warns(UserWarning, match="discarding"):
        entry = stale.get_or_fit(spec, tiny_dataset, *targets)
    assert entry.source == "fit"
    assert stale.fits == 1 and stale.store_hits == 0
    # the refit replaced the stale artifact: the next process is served it
    warm = DetectorRegistry(runtime=runtime)
    assert warm.get_or_fit(spec, tiny_dataset, *targets).source == "store"
    assert warm.fits == 0


# ---------------------------------------------------------------------------
# registry: LRU byte budget
# ---------------------------------------------------------------------------

def test_lru_byte_budget_evicts_and_reloads(specs, shared_store_dir, tiny_dataset, tiny_test_dataset):
    # budget of one byte: every insert evicts the previous entry (the most
    # recent entry is always retained even though it exceeds the budget)
    runtime = RuntimeConfig(cache_dir=str(shared_store_dir), registry_lru_bytes=1)
    registry = DetectorRegistry(runtime=runtime)
    first = registry.get_or_fit(specs["bprom"], tiny_dataset, tiny_test_dataset, tiny_test_dataset)
    assert first.nbytes > 1
    registry.get_or_fit(specs["mntd"], tiny_dataset)
    assert registry.evictions == 1
    assert registry.stats()["loaded"] == 1
    # the evicted detector reloads from the store, not via a refit
    again = registry.get_or_fit(specs["bprom"], tiny_dataset, tiny_test_dataset, tiny_test_dataset)
    assert again.source == "store"
    assert registry.fits == 0


def test_unbounded_lru_keeps_everything(specs, shared_store_dir, tiny_dataset, tiny_test_dataset):
    registry = DetectorRegistry(runtime=RuntimeConfig(cache_dir=str(shared_store_dir)))
    registry.get_or_fit(specs["bprom"], tiny_dataset, tiny_test_dataset, tiny_test_dataset)
    registry.get_or_fit(specs["mntd"], tiny_dataset)
    stats = registry.stats()
    assert stats["loaded"] == 2 and stats["evictions"] == 0
    assert stats["loaded_bytes"] > 0


def test_registry_without_store_fits_in_process(micro_profile, tiny_dataset):
    registry = DetectorRegistry(runtime=RuntimeConfig())  # no cache_dir: store disabled
    spec = DetectorSpec(defense="mntd", profile=micro_profile, architecture="mlp", num_queries=4)
    entry = registry.get_or_fit(spec, tiny_dataset)
    assert entry.source == "fit"
    # repeat requests still deduplicate through the in-memory LRU
    assert registry.get_or_fit(spec, tiny_dataset).source == "memory"
    assert registry.fits == 1


# ---------------------------------------------------------------------------
# disk-budget GC on the fit path
# ---------------------------------------------------------------------------

def _mntd_spec(micro_profile, seed: int) -> DetectorSpec:
    return DetectorSpec(
        defense="mntd", profile=micro_profile, architecture="mlp", seed=seed, num_queries=4
    )


def test_fit_path_gc_keeps_store_under_budget(micro_profile, tiny_dataset, tmp_path):
    """With ``detector_gc_bytes`` set, every fit runs an opportunistic GC pass
    that evicts idle detectors — but never the artifact the fit just wrote
    (its per-key advisory lock is still held during the pass)."""

    runtime = RuntimeConfig(cache_dir=str(tmp_path), detector_gc_bytes=1)
    registry = DetectorRegistry(runtime=runtime)
    entry_a = registry.get_or_fit(_mntd_spec(micro_profile, seed=0), tiny_dataset)
    # age A past the grace period, as a long-idle tenant's detector would be
    manifest = registry.store.directory_for(DETECTOR_KIND, entry_a.key) / "artifact.json"
    stamp = time.time() - 3600
    os.utime(manifest, (stamp, stamp))
    entry_b = registry.get_or_fit(_mntd_spec(micro_profile, seed=1), tiny_dataset)
    assert not registry.store.contains(DETECTOR_KIND, entry_a.key)
    assert registry.store.contains(DETECTOR_KIND, entry_b.key)
    assert registry.stats()["gc_evictions"] == 1


def test_maybe_gc_is_opportunistic_and_off_without_budget(
    micro_profile, tiny_dataset, tmp_path
):
    unbudgeted = DetectorRegistry(runtime=RuntimeConfig(cache_dir=str(tmp_path)))
    unbudgeted.get_or_fit(_mntd_spec(micro_profile, seed=0), tiny_dataset)
    assert unbudgeted.maybe_gc() is None  # no budget: GC never runs

    runtime = RuntimeConfig(cache_dir=str(tmp_path), detector_gc_bytes=1)
    registry = DetectorRegistry(runtime=runtime)
    with registry.store.maintenance_lock():
        # another node is already collecting: skip, don't block the fit path
        assert registry.maybe_gc(grace_seconds=0.0) is None
    result = registry.maybe_gc(grace_seconds=0.0)
    assert result is not None and result["evicted"] == 1
    assert result["bytes_after"] == 0  # the one fitted artifact is gone
    assert registry.gc_evictions == 1
    assert registry.stats()["gc_evictions"] == 1
