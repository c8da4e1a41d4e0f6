"""Tests for the model zoo and the ImageClassifier wrapper."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import TrainingConfig
from repro.models import (
    ImageClassifier,
    available_architectures,
    build_classifier,
    build_model,
)
from repro.nn.functional import balanced_chunks, inference_rows
from repro.nn.stacked import stack_modules
from repro.runtime import blas

ARCHITECTURES = ["resnet18", "mobilenetv2", "mobilevit", "mlp"]


@pytest.mark.parametrize("architecture", ARCHITECTURES)
def test_model_forward_backward_shapes(architecture, rng):
    model = build_model(architecture, num_classes=4, image_size=12, rng=0)
    x = rng.random((3, 3, 12, 12))
    logits = model(x)
    assert logits.shape == (3, 4)
    grad = model.backward(np.ones_like(logits))
    assert grad.shape == x.shape


@pytest.mark.parametrize("architecture", ARCHITECTURES)
def test_model_features_shape(architecture, rng):
    model = build_model(architecture, num_classes=4, image_size=12, rng=0)
    features = model.features(rng.random((5, 3, 12, 12)))
    assert features.shape == (5, model.feature_dim)


@pytest.mark.parametrize("architecture", ARCHITECTURES)
def test_model_training_reduces_loss(architecture, tiny_dataset):
    classifier = build_classifier(architecture, tiny_dataset.num_classes, 12, rng=0)
    history = classifier.fit(
        tiny_dataset, TrainingConfig(epochs=4, batch_size=16, learning_rate=1e-2), rng=1
    )
    assert history.losses[-1] < history.losses[0]
    assert 0.0 <= history.final_train_accuracy <= 1.0


def test_registry_aliases_map_to_families():
    assert type(build_model("resnet", 3, 12)).__name__ == "TinyResNet"
    assert type(build_model("swin", 3, 12)).__name__ == "TinyViT"
    assert type(build_model("mobilenet", 3, 12)).__name__ == "TinyMobileNet"
    with pytest.raises(ValueError):
        build_model("alexnet", 3, 12)
    assert "resnet18" in available_architectures()


def test_classifier_predictions_are_consistent(trained_mlp, tiny_test_dataset):
    proba = trained_mlp.predict_proba(tiny_test_dataset.images)
    assert proba.shape == (len(tiny_test_dataset), tiny_test_dataset.num_classes)
    assert np.allclose(proba.sum(axis=1), 1.0)
    predictions = trained_mlp.predict(tiny_test_dataset.images)
    assert np.array_equal(predictions, np.argmax(proba, axis=1))
    accuracy = trained_mlp.evaluate(tiny_test_dataset)
    assert accuracy > 0.5  # the tiny task is learnable


def test_classifier_evaluate_attack_success(trained_mlp, tiny_test_dataset):
    target = 0
    asr_all = trained_mlp.evaluate_attack_success(tiny_test_dataset.images, target)
    asr_excluding = trained_mlp.evaluate_attack_success(
        tiny_test_dataset.images, target, tiny_test_dataset.labels
    )
    assert 0.0 <= asr_all <= 1.0
    assert 0.0 <= asr_excluding <= 1.0


def test_classifier_rejects_unknown_optimizer(tiny_dataset):
    classifier = build_classifier("mlp", tiny_dataset.num_classes, 12, rng=0)
    with pytest.raises(ValueError):
        classifier.fit(tiny_dataset, TrainingConfig(epochs=1, optimizer="lbfgs"))


def test_training_history_val_accuracy(tiny_dataset, tiny_test_dataset):
    classifier = build_classifier("mlp", tiny_dataset.num_classes, 12, rng=0)
    history = classifier.fit(
        tiny_dataset,
        TrainingConfig(epochs=2, batch_size=16, learning_rate=1e-2),
        rng=0,
        val_dataset=tiny_test_dataset,
    )
    assert len(history.val_accuracies) == 2


def test_classifier_batched_prediction_matches_single_batch(trained_mlp, tiny_test_dataset):
    full = trained_mlp.predict_logits(tiny_test_dataset.images, batch_size=1000)
    chunked = trained_mlp.predict_logits(tiny_test_dataset.images, batch_size=7)
    assert np.allclose(full, chunked)


def test_inference_rows_follow_model_geometry():
    shape = (1, 3, 16, 16)
    resnet = build_model("resnet18", num_classes=10, image_size=16, rng=0)
    # widest unfold: 16 channels x 3x3 = 144 columns; 8 MiB / (256 px * 8 B * 144)
    assert inference_rows(resnet, shape, np.float64) == 28
    assert inference_rows(resnet, shape, np.float32) == 56
    twin = build_model("resnet18", num_classes=10, image_size=16, rng=1)
    assert inference_rows(stack_modules([resnet, twin]), shape, np.float64) == 28
    mlp = build_model("mlp", num_classes=10, image_size=16, rng=0)
    assert inference_rows(mlp, shape, np.float64) == 256


def test_balanced_chunks_cover_n_and_differ_by_at_most_one():
    for rows in (1, 5, 28, 256):
        for n in (0, 1, 27, 28, 29, 37, 128, 1056):
            chunks = balanced_chunks(n, rows)
            assert len(chunks) == -(-n // rows)
            covered = [i for chunk in chunks for i in range(n)[chunk]]
            assert covered == list(range(n))
            sizes = [chunk.stop - chunk.start for chunk in chunks]
            if sizes:
                assert max(sizes) <= rows and max(sizes) - min(sizes) <= 1


def test_explicit_and_default_batch_sizes_share_the_balanced_split(rng):
    classifier = build_classifier("resnet18", 10, 16, rng=0)
    sizes = []
    forward = classifier.model.forward

    def recording_forward(x):
        sizes.append(x.shape[0])
        return forward(x)

    classifier.model.forward = recording_forward
    images = rng.random((29, 3, 16, 16))
    default = classifier.predict_logits(images)  # 28 rows for this geometry
    assert sizes == [14, 15]
    sizes.clear()
    explicit = classifier.predict_logits(images, batch_size=28)
    assert sizes == [14, 15]
    assert explicit.tobytes() == default.tobytes()
    sizes.clear()
    classifier.predict_logits(images, batch_size=7)
    assert sizes == [5, 6, 6, 6, 6]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize(
    "architecture,image_size", [("resnet18", 16), ("mobilenetv2", 32), ("mobilevit", 16)]
)
def test_default_inference_chunks_match_one_wide_chunk_bitwise(
    architecture, image_size, threads, rng
):
    classifier = build_classifier(architecture, 10, image_size, rng=0)
    with blas.ThreadScope(threads):
        for n in (128, 32, 37, 1):
            images = rng.random((n, 3, image_size, image_size))
            default = classifier.predict_logits(images)
            wide = classifier.predict_logits(images, batch_size=256)
            assert default.tobytes() == wide.tobytes(), n


@pytest.mark.parametrize("architecture", ARCHITECTURES)
def test_empty_batch_gives_empty_logits_and_features(architecture):
    classifier = build_classifier(architecture, 4, 12, rng=0)
    empty = np.empty((0, 3, 12, 12))
    assert classifier.predict_logits(empty).shape == (0, 4)
    assert classifier.features(empty).shape == (0, classifier.model.feature_dim)


def test_image_classifier_wraps_any_module(rng):
    from repro.models.mlp import MLPNet

    model = MLPNet(num_classes=3, input_dim=3 * 12 * 12, rng=0)
    classifier = ImageClassifier(model, num_classes=3, name="custom")
    logits = classifier.predict_logits(rng.random((2, 3, 12, 12)))
    assert logits.shape == (2, 3)
