"""Tests for the sharded artifact store: home-shard placement, read-through
across shards, per-shard stats, rebalance/gc maintenance, and the acceptance
property that a warm multi-shard store skips all training regardless of which
shard holds each artefact."""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.config import RuntimeConfig
from repro.eval.harness import ExperimentContext
from repro.models.classifier import ImageClassifier
from repro.runtime import ArtifactStore, LockTimeout, ShardedArtifactStore
from repro.runtime.store import MISS


def _keys_for_every_shard(store: ShardedArtifactStore, per_shard: int = 1):
    """Key payloads covering each shard as home at least ``per_shard`` times."""
    found = {index: [] for index in range(len(store.shards))}
    probe = 0
    while any(len(keys) < per_shard for keys in found.values()):
        key = {"probe": probe}
        found[store.shard_index(key)].append(key)
        probe += 1
    return [key for keys in found.values() for key in keys[:per_shard]]


# ---------------------------------------------------------------------------
# placement and read-through
# ---------------------------------------------------------------------------

def test_writes_land_on_deterministic_home_shard(tmp_path):
    store = ShardedArtifactStore([tmp_path / "a", tmp_path / "b", tmp_path / "c"])
    for key in _keys_for_every_shard(store):
        with store.open_write("demo", key) as artifact:
            artifact.save_json("value", key)
        home = store.shard_for(key)
        assert home.contains("demo", key)
        assert sum(shard.contains("demo", key) for shard in store.shards) == 1
        # a fresh instance over the same roots agrees on placement
        again = ShardedArtifactStore([tmp_path / "a", tmp_path / "b", tmp_path / "c"])
        assert again.shard_index(key) == store.shard_index(key)


def test_read_through_finds_artifacts_on_any_shard(tmp_path):
    store = ShardedArtifactStore([tmp_path / "a", tmp_path / "b"])
    keys = _keys_for_every_shard(store, per_shard=2)
    for key in keys:
        with store.open_write("demo", key) as artifact:
            artifact.save_arrays("blob", {"x": np.full(3, float(key["probe"]))})
    # reversing the shard list flips every key's home directory, so every
    # lookup must fall through to the non-home shard
    reversed_store = ShardedArtifactStore([tmp_path / "b", tmp_path / "a"])
    for key in keys:
        assert reversed_store.contains("demo", key)
        value = reversed_store.try_load("demo", key, lambda a: a.load_arrays("blob"))
        assert value is not MISS
        np.testing.assert_array_equal(value["x"], np.full(3, float(key["probe"])))
    assert reversed_store.hits == len(keys)
    assert reversed_store.try_load("demo", {"absent": 1}, lambda a: None) is MISS
    assert reversed_store.misses == 1


def test_corrupt_home_copy_falls_through_to_intact_replica(tmp_path):
    """A corrupt copy on one shard must not mask a good replica on another."""
    store = ShardedArtifactStore([tmp_path / "a", tmp_path / "b"])
    key = {"k": 1}
    # replicate the artifact on both shards (two independently warmed roots)
    for shard in store.shards:
        with ArtifactStore(shard.root).open_write("demo", key) as artifact:
            artifact.save_arrays("blob", {"x": np.ones(3)})
    # corrupt the copy the home-first probe reaches first
    home = store.shard_for(key)
    (home.directory_for("demo", key) / "blob.npz").unlink()
    with pytest.warns(UserWarning, match="corrupt"):
        value = store.try_load("demo", key, lambda a: a.load_arrays("blob"))
    assert value is not MISS, "intact replica on the other shard must serve the read"
    np.testing.assert_array_equal(value["x"], np.ones(3))
    assert store.hits == 1
    assert not home.contains("demo", key)  # the corrupt copy was discarded


def test_per_shard_stats(tmp_path):
    store = ShardedArtifactStore([tmp_path / "a", tmp_path / "b"])
    keys = _keys_for_every_shard(store)
    for key in keys:
        with store.open_write("demo", key) as artifact:
            artifact.save_json("value", 1)
        assert store.try_load("demo", key, lambda a: a.load_json("value")) == 1
    stats = store.stats()
    assert set(stats) == {str(tmp_path / "a"), str(tmp_path / "b")}
    assert all(entry == {"hits": 1, "misses": 0, "artifacts": 1} for entry in stats.values())
    assert store.hits == 2 and store.misses == 0


def test_sharded_fetch_behaves_like_single_store(tmp_path):
    store = ShardedArtifactStore([tmp_path / "a", tmp_path / "b"])
    builds = []

    def fetch():
        return store.fetch(
            "numbers",
            {"k": 1},
            build=lambda: builds.append(1) or {"x": np.ones(3)},
            save=lambda artifact, value: artifact.save_arrays("value", value),
            load=lambda artifact: artifact.load_arrays("value"),
        )

    first = fetch()
    second = fetch()
    assert len(builds) == 1
    np.testing.assert_array_equal(first["x"], second["x"])
    assert store.hits == 1 and store.misses == 1


def test_sharded_store_rejects_bad_config(tmp_path):
    with pytest.raises(ValueError):
        ShardedArtifactStore([])
    with pytest.raises(ValueError):
        ShardedArtifactStore([tmp_path / "a", tmp_path / "a"])
    # two spellings of one directory would make rebalance() self-destruct
    with pytest.raises(ValueError):
        ShardedArtifactStore([tmp_path / "a", tmp_path / "b" / ".." / "a"])


def test_single_path_becomes_one_shard(tmp_path):
    """A bare string/Path is one root, not a per-character sequence."""
    store = ShardedArtifactStore(str(tmp_path / "only"))
    assert [str(shard.root) for shard in store.shards] == [str(tmp_path / "only")]
    runtime = RuntimeConfig(shard_dirs=str(tmp_path / "only"))
    assert runtime.shard_dirs == (str(tmp_path / "only"),)
    # a bare Path is accepted the same way a bare str is
    assert RuntimeConfig(shard_dirs=tmp_path / "only").shard_dirs == (str(tmp_path / "only"),)


# ---------------------------------------------------------------------------
# maintenance: rebalance and gc
# ---------------------------------------------------------------------------

def test_rebalance_moves_artifacts_home(tmp_path):
    store = ShardedArtifactStore([tmp_path / "a", tmp_path / "b"])
    keys = _keys_for_every_shard(store, per_shard=2)
    for key in keys:
        with store.open_write("demo", key) as artifact:
            artifact.save_json("value", key["probe"])
    # under the reversed order every artifact sits on the wrong shard
    reversed_store = ShardedArtifactStore([tmp_path / "b", tmp_path / "a"])
    summary = reversed_store.rebalance()
    assert summary == {"moved": len(keys), "kept": 0, "dropped_duplicates": 0}
    for key in keys:
        assert reversed_store.shard_for(key).contains("demo", key)
        assert reversed_store.try_load("demo", key, lambda a: a.load_json("value")) == key["probe"]
    # idempotent: a second pass keeps everything in place
    assert reversed_store.rebalance() == {
        "moved": 0,
        "kept": len(keys),
        "dropped_duplicates": 0,
    }


def test_rebalance_drops_duplicate_copies(tmp_path):
    store = ShardedArtifactStore([tmp_path / "a", tmp_path / "b"])
    key = {"k": 1}
    with store.open_write("demo", key) as artifact:
        artifact.save_json("value", "home")
    # plant a stray copy of the same artifact on the other shard
    stray = store.shards[1 - store.shard_index(key)]
    with ArtifactStore(stray.root).open_write("demo", key) as artifact:
        artifact.save_json("value", "stray")
    summary = store.rebalance()
    assert summary["dropped_duplicates"] == 1
    assert store.try_load("demo", key, lambda a: a.load_json("value")) == "home"
    assert sum(shard.contains("demo", key) for shard in store.shards) == 1


def test_gc_sweeps_temp_dirs_and_corrupt_artifacts(tmp_path):
    store = ShardedArtifactStore([tmp_path / "a", tmp_path / "b"])
    key = {"k": 1}
    with store.open_write("demo", key) as artifact:
        artifact.save_json("value", 1)
    (tmp_path / "a" / "demo" / ".tmp-crashed-writer").mkdir(parents=True)
    corpse = tmp_path / "b" / "demo" / "deadbeefdeadbeefdead"
    corpse.mkdir(parents=True)
    (corpse / "value.json").write_text("{}")  # no manifest -> corrupt
    # grace_seconds=0: collect even freshly created leftovers
    assert store.gc(grace_seconds=0.0) == {"temp_dirs": 1, "corrupt_artifacts": 1}
    assert not (tmp_path / "a" / "demo" / ".tmp-crashed-writer").exists()
    assert not corpse.exists()
    assert store.contains("demo", key)
    assert store.gc(grace_seconds=0.0) == {"temp_dirs": 0, "corrupt_artifacts": 0}


def test_gc_grace_period_spares_live_writers(tmp_path):
    """A temp dir younger than the grace period belongs to an in-flight
    ``open_write`` (e.g. a registry ``get_or_fit``) and must survive gc."""
    store = ShardedArtifactStore([tmp_path / "a", tmp_path / "b"])
    fresh = tmp_path / "a" / "demo" / ".tmp-in-flight-writer"
    fresh.mkdir(parents=True)
    stale = tmp_path / "b" / "demo" / ".tmp-abandoned-writer"
    stale.mkdir(parents=True)
    hour_ago = time.time() - 3600
    os.utime(stale, (hour_ago, hour_ago))
    assert store.gc(grace_seconds=300.0) == {"temp_dirs": 1, "corrupt_artifacts": 0}
    assert fresh.exists()
    assert not stale.exists()


def test_maintenance_takes_the_advisory_lock(tmp_path):
    """gc/rebalance are serialised by the store's maintenance lock: a pass
    cannot start while another maintenance holder is active."""
    store = ShardedArtifactStore([tmp_path / "a", tmp_path / "b"])
    with store.maintenance_lock():
        with pytest.raises(LockTimeout):
            store.gc(lock_wait_seconds=0.05)
        with pytest.raises(LockTimeout):
            store.rebalance(lock_wait_seconds=0.05)
    # released: both passes run (and leave their own lock released behind them)
    assert store.gc(grace_seconds=0.0) == {"temp_dirs": 0, "corrupt_artifacts": 0}
    assert store.rebalance() == {"moved": 0, "kept": 0, "dropped_duplicates": 0}


def test_maintenance_ignores_the_locks_directory(tmp_path):
    """Lock files under ``.locks`` are not artifacts: stats, gc and rebalance
    must neither count nor collect them."""
    store = ShardedArtifactStore([tmp_path / "a", tmp_path / "b"])
    key = {"k": 1}
    with store.open_write("demo", key) as artifact:
        artifact.save_json("value", 1)
    lock_path = store.lock_path("demo", key)
    lock_path.parent.mkdir(parents=True, exist_ok=True)
    lock_path.write_text("{}")
    assert store.gc(grace_seconds=0.0) == {"temp_dirs": 0, "corrupt_artifacts": 0}
    assert store.rebalance()["kept"] == 1
    assert lock_path.exists()
    for shard_stats in store.stats().values():
        assert shard_stats["artifacts"] <= 1


# ---------------------------------------------------------------------------
# disk-budget GC (byte-budgeted LRU eviction of whole artifacts)
# ---------------------------------------------------------------------------

def _write_blob(store, key, seed: int) -> None:
    with store.open_write("demo", key) as artifact:
        artifact.save_arrays("blob", {"x": np.random.default_rng(seed).random(256)})


def _age(store, key, seconds_ago: float) -> None:
    """Back-date an artifact's last-use stamp (the manifest mtime)."""
    stamp = time.time() - seconds_ago
    os.utime(store.directory_for("demo", key) / "artifact.json", (stamp, stamp))


def test_gc_kind_evicts_lru_until_under_budget(tmp_path):
    store = ArtifactStore(tmp_path)
    keys = [{"i": index} for index in range(4)]
    sizes = {}
    for index, key in enumerate(keys):
        _write_blob(store, key, index)
        _age(store, key, seconds_ago=4000 - 1000 * index)  # keys[0] is oldest
        sizes[index] = store._tree_nbytes(store.directory_for("demo", key))
    budget = sizes[2] + sizes[3]  # room for exactly the two newest
    result = store.gc_kind("demo", max_bytes=budget, grace_seconds=0.0)
    assert result["scanned"] == 4
    assert result["evicted"] == 2 and result["evicted_bytes"] == sizes[0] + sizes[1]
    assert result["bytes_after"] == result["bytes_before"] - result["evicted_bytes"]
    assert result["bytes_after"] <= budget
    assert not store.contains("demo", keys[0]) and not store.contains("demo", keys[1])
    assert store.contains("demo", keys[2]) and store.contains("demo", keys[3])
    # already under budget: a second pass is a no-op
    again = store.gc_kind("demo", max_bytes=budget, grace_seconds=0.0)
    assert again["evicted"] == 0 and again["bytes_after"] == result["bytes_after"]


def test_gc_touch_refreshes_lru_rank(tmp_path):
    """touch() is how serving paths vote: a just-served artifact must outlive
    an idle one even if it was written first."""
    store = ArtifactStore(tmp_path)
    old_but_hot, idle = {"i": 0}, {"i": 1}
    for index, key in enumerate((old_but_hot, idle)):
        _write_blob(store, key, index)
        _age(store, key, seconds_ago=4000 - 1000 * index)  # old_but_hot older
    assert store.touch("demo", old_but_hot)  # a worker just hydrated it
    size = store._tree_nbytes(store.directory_for("demo", idle))
    result = store.gc_kind("demo", max_bytes=size, grace_seconds=0.0)
    assert result["evicted"] == 1
    assert store.contains("demo", old_but_hot) and not store.contains("demo", idle)
    assert not store.touch("demo", idle)  # evicted: nothing left to stamp


def test_gc_never_evicts_locked_or_recently_used_artifacts(tmp_path):
    store = ArtifactStore(tmp_path)
    locked, graced, evictable = {"i": 0}, {"i": 1}, {"i": 2}
    for index, key in enumerate((locked, graced, evictable)):
        _write_blob(store, key, index)
    _age(store, locked, seconds_ago=10_000)
    _age(store, evictable, seconds_ago=9_000)
    # `locked` is under a fitter/loader's per-key advisory lock right now;
    # `graced` keeps its fresh write stamp (within the grace period)
    lock_path = store.lock_path("demo", locked)
    lock_path.parent.mkdir(parents=True, exist_ok=True)
    lock_path.write_text("held")
    result = store.gc_kind("demo", max_bytes=0, grace_seconds=300.0)
    assert result["skipped_locked"] == 1 and result["skipped_grace"] == 1
    assert result["evicted"] == 1
    assert store.contains("demo", locked) and store.contains("demo", graced)
    assert not store.contains("demo", evictable)
    assert result["bytes_after"] > 0  # protected artifacts may exceed the budget


def test_gc_kind_serialised_by_maintenance_lock(tmp_path):
    store = ArtifactStore(tmp_path)
    with store.maintenance_lock():
        with pytest.raises(LockTimeout):
            store.gc_kind("demo", max_bytes=0, lock_wait_seconds=0.05)
    assert store.gc_kind("demo", max_bytes=0)["scanned"] == 0  # released


def test_sharded_gc_kind_respects_home_shard_locks(tmp_path):
    """Fitters lock a key on its *home* shard; the sharded GC must check that
    same path for every candidate, wherever the artifact copy lives."""
    store = ShardedArtifactStore([tmp_path / "a", tmp_path / "b"])
    keys = _keys_for_every_shard(store, per_shard=2)
    for index, key in enumerate(keys):
        _write_blob(store, key, index)
        _age(store, key, seconds_ago=10_000)
    protected = keys[0]
    lock_path = store.lock_path("demo", protected)  # the home-shard lock
    lock_path.parent.mkdir(parents=True, exist_ok=True)
    lock_path.write_text("held")
    result = store.gc_kind("demo", max_bytes=0, grace_seconds=0.0)
    assert result["scanned"] == len(keys)
    assert result["skipped_locked"] == 1 and result["evicted"] == len(keys) - 1
    assert store.contains("demo", protected)
    assert sum(store.contains("demo", key) for key in keys) == 1


def test_sharded_touch_stamps_every_replica(tmp_path):
    store = ShardedArtifactStore([tmp_path / "a", tmp_path / "b"])
    key = {"k": 1}
    # replicate on both shards (two independently warmed roots)
    for shard in store.shards:
        with ArtifactStore(shard.root).open_write("demo", key) as artifact:
            artifact.save_json("value", 1)
        stamp = time.time() - 5000
        os.utime(shard.directory_for("demo", key) / "artifact.json", (stamp, stamp))
    assert store.touch("demo", key)
    for shard in store.shards:
        age = time.time() - (shard.directory_for("demo", key) / "artifact.json").stat().st_mtime
        assert age < 60, "every replica must carry the refreshed stamp"


# ---------------------------------------------------------------------------
# config wiring
# ---------------------------------------------------------------------------

def test_runtime_config_shard_dirs(tmp_path, monkeypatch):
    runtime = RuntimeConfig(shard_dirs=[str(tmp_path / "a"), str(tmp_path / "b")])
    assert runtime.shard_dirs == (str(tmp_path / "a"), str(tmp_path / "b"))
    assert runtime.persistent  # shard_dirs alone make the store persistent
    assert not runtime.with_overrides(cache=False).persistent
    store = ArtifactStore.from_config(runtime)
    assert isinstance(store, ShardedArtifactStore)
    assert [str(shard.root) for shard in store.shards] == list(runtime.shard_dirs)

    import os

    monkeypatch.setenv(
        "REPRO_SHARD_DIRS", os.pathsep.join([str(tmp_path / "x"), str(tmp_path / "y")])
    )
    from_env = RuntimeConfig.from_env()
    assert from_env.shard_dirs == (str(tmp_path / "x"), str(tmp_path / "y"))


# ---------------------------------------------------------------------------
# acceptance: warm two-shard store skips all training, wherever artefacts live
# ---------------------------------------------------------------------------

def test_warm_two_shard_store_skips_all_training(micro_profile, tmp_path, monkeypatch):
    shard_a, shard_b = str(tmp_path / "shard-a"), str(tmp_path / "shard-b")
    profile = micro_profile.with_overrides(name="micro-sharded")

    warm = ExperimentContext(
        profile, seed=0, runtime=RuntimeConfig(shard_dirs=(shard_a, shard_b))
    )
    assert isinstance(warm.store, ShardedArtifactStore)
    detector = warm.detector(
        "cifar10", "stl10", "mlp", num_clean_shadows=1, num_backdoor_shadows=1
    )
    probe = warm.suspicious_model("cifar10", None, 0, "mlp")
    baseline_score = detector.inspect(probe.classifier).backdoor_score
    # the warm run actually spread artefacts across both roots
    populated = [
        root for root, entry in warm.store.stats().items() if entry["artifacts"] > 0
    ]
    assert len(populated) == 2, f"expected both shards populated, got {warm.store.stats()}"

    fit_calls = []
    original_fit = ImageClassifier.fit

    def counting_fit(self, *args, **kwargs):
        fit_calls.append(self.name)
        return original_fit(self, *args, **kwargs)

    monkeypatch.setattr(ImageClassifier, "fit", counting_fit)
    import repro.prompting.trainer as trainer_module

    prompt_calls = []
    original_prompt = trainer_module.train_prompt_whitebox

    def counting_prompt(*args, **kwargs):
        prompt_calls.append(1)
        return original_prompt(*args, **kwargs)

    monkeypatch.setattr(trainer_module, "train_prompt_whitebox", counting_prompt)

    # a fresh context with the shard order *reversed*: every artefact's home
    # shard flips, so each read must fall through to the other shard —
    # training is skipped regardless of which shard holds each artefact
    cold = ExperimentContext(
        profile, seed=0, runtime=RuntimeConfig(shard_dirs=(shard_b, shard_a))
    )
    restored = cold.detector(
        "cifar10", "stl10", "mlp", num_clean_shadows=1, num_backdoor_shadows=1
    )
    probe_again = cold.suspicious_model("cifar10", None, 0, "mlp")
    assert fit_calls == [], "warm sharded store must skip classifier training entirely"
    assert prompt_calls == [], "warm sharded store must skip prompt training entirely"
    assert cold.store.hits >= 1
    assert restored.inspect(probe_again.classifier).backdoor_score == baseline_score
