"""Shared fixtures: a micro experiment profile and tiny datasets/models.

Everything here is sized so the full test suite runs in a few minutes on a
single CPU core; the micro profile uses the MLP architecture, which trains in
milliseconds, for the end-to-end pipeline tests.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.config import ExperimentProfile, PromptConfig, TrainingConfig
from repro.core.detector import BpromDetector, DetectionResult
from repro.datasets.base import ImageDataset
from repro.datasets.synthetic import SyntheticImageDistribution, SyntheticStyle
from repro.models.registry import build_classifier

MICRO_PROFILE = ExperimentProfile(
    name="micro",
    image_size=12,
    train_per_class=12,
    test_per_class=8,
    max_classes=5,
    reserved_fraction=0.10,
    clean_shadow_models=2,
    backdoor_shadow_models=2,
    clean_suspicious_models=2,
    backdoor_suspicious_models=2,
    query_samples=4,
    meta_trees=10,
    classifier=TrainingConfig(epochs=6, batch_size=16, learning_rate=1e-2),
    prompt=PromptConfig(
        source_size=12,
        inner_size=8,
        epochs=4,
        batch_size=16,
        learning_rate=5e-2,
        blackbox_iterations=5,
        blackbox_population=4,
    ),
)


@pytest.fixture(scope="session")
def micro_profile() -> ExperimentProfile:
    return MICRO_PROFILE


@pytest.fixture(scope="session")
def tiny_distribution() -> SyntheticImageDistribution:
    return SyntheticImageDistribution(
        num_classes=4,
        image_size=12,
        channels=3,
        style=SyntheticStyle(style_seed=7),
        name="tiny",
    )


@pytest.fixture(scope="session")
def tiny_dataset(tiny_distribution) -> ImageDataset:
    return tiny_distribution.sample(per_class=10, rng=0)


@pytest.fixture(scope="session")
def tiny_test_dataset(tiny_distribution) -> ImageDataset:
    return tiny_distribution.sample(per_class=6, rng=1)


@pytest.fixture(scope="session")
def trained_mlp(tiny_dataset):
    """A small MLP classifier trained on the tiny dataset (shared across tests)."""
    classifier = build_classifier(
        "mlp", tiny_dataset.num_classes, image_size=tiny_dataset.image_size, rng=0
    )
    classifier.fit(
        tiny_dataset, TrainingConfig(epochs=10, batch_size=16, learning_rate=1e-2), rng=1
    )
    return classifier


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


@pytest.fixture()
def inspect_concurrency(monkeypatch) -> dict:
    """Replace ``BpromDetector.inspect`` with a 20 ms stub that tallies calls
    and the peak number running at once; returns the live tally."""
    lock = threading.Lock()
    tally = {"active": 0, "peak": 0, "calls": 0}

    def slow_inspect(detector, model, query_function=None, target_eval=None, seed_key=None):
        with lock:
            tally["active"] += 1
            tally["calls"] += 1
            tally["peak"] = max(tally["peak"], tally["active"])
        time.sleep(0.02)
        with lock:
            tally["active"] -= 1
        return DetectionResult(backdoor_score=0.0, is_backdoored=False, prompted_accuracy=1.0)

    monkeypatch.setattr(BpromDetector, "inspect", slow_inspect)
    return tally


@pytest.fixture(scope="session")
def budget_submissions(tiny_dataset) -> list:
    """Eight untrained MLP uploads with distinct weights, so every one is a
    verdict-cache miss."""
    return [
        (
            f"budget-{index}",
            build_classifier(
                "mlp", tiny_dataset.num_classes, image_size=tiny_dataset.image_size,
                rng=900 + index, name=f"budget-{index}",
            ),
        )
        for index in range(8)
    ]
