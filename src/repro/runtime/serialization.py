"""Round-tripping pipeline components through artifact directories.

Everything is stored as ``.npz`` array blobs (via :mod:`repro.nn.serialization`
conventions) plus JSON metadata, so artifacts are portable, inspectable and
independent of pickle.  Loaders rebuild objects through the public registries
(:func:`repro.models.registry.build_classifier` etc.) and then restore exact
numeric state, which is what makes reloaded detectors produce bit-identical
scores.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.config import profile_from_dict, profile_to_dict
from repro.core.shadow import ShadowModel
from repro.datasets.base import ImageDataset
from repro.models.classifier import ImageClassifier
from repro.models.registry import build_classifier
from repro.prompting.output_mapping import LabelMapping
from repro.prompting.prompt import VisualPrompt
from repro.prompting.prompted import PromptedClassifier
from repro.runtime.store import Artifact


# -- classifiers --------------------------------------------------------------

def save_classifier(artifact: Artifact, classifier: ImageClassifier, name: str = "classifier") -> None:
    """Persist a classifier's weights plus the build spec needed to rebuild it."""
    if classifier.architecture is None or classifier.image_size is None:
        raise ValueError(
            f"classifier {classifier.name!r} has no recorded architecture/image_size; "
            "build it through repro.models.registry.build_classifier to make it persistable"
        )
    artifact.save_arrays(name, classifier.state_dict())
    artifact.save_json(
        f"{name}.meta",
        {
            "architecture": classifier.architecture,
            "num_classes": classifier.num_classes,
            "image_size": classifier.image_size,
            "in_channels": classifier.in_channels,
            "name": classifier.name,
        },
    )


def load_classifier(artifact: Artifact, name: str = "classifier") -> ImageClassifier:
    meta = artifact.load_json(f"{name}.meta")
    classifier = build_classifier(
        meta["architecture"],
        meta["num_classes"],
        image_size=meta["image_size"],
        in_channels=meta["in_channels"],
        rng=0,
        name=meta["name"],
    )
    classifier.load_state_dict(artifact.load_arrays(name))
    return classifier


# -- datasets -----------------------------------------------------------------

def save_dataset(artifact: Artifact, dataset: ImageDataset, name: str = "dataset") -> None:
    artifact.save_arrays(
        name,
        {
            "images": dataset.images,
            "labels": dataset.labels,
            "num_classes": np.asarray([dataset.num_classes], dtype=np.int64),
        },
    )
    artifact.save_json(f"{name}.meta", {"name": dataset.name})


def load_dataset(artifact: Artifact, name: str = "dataset") -> ImageDataset:
    arrays = artifact.load_arrays(name)
    meta = artifact.load_json(f"{name}.meta")
    return ImageDataset(
        arrays["images"],
        arrays["labels"],
        num_classes=int(arrays["num_classes"].ravel()[0]),
        name=meta["name"],
    )


# -- prompts / prompted classifiers -------------------------------------------

def save_prompted(artifact: Artifact, prompted: PromptedClassifier, name: str = "prompted") -> None:
    """Persist the prompt and label mapping of one prompted classifier.

    The frozen source classifier is *not* stored here — it is an independent
    artifact (or an in-memory object the caller already owns) that must be
    supplied again at load time.
    """
    artifact.save_arrays(
        name,
        {
            "theta": prompted.prompt.theta,
            "assignment": prompted.mapping.assignment,
        },
    )
    artifact.save_json(
        f"{name}.meta",
        {
            "name": prompted.name,
            "source_size": prompted.prompt.source_size,
            "inner_size": prompted.prompt.inner_size,
            "channels": prompted.prompt.channels,
            "num_source_classes": prompted.mapping.num_source_classes,
            "num_target_classes": prompted.mapping.num_target_classes,
            "mapping_mode": prompted.mapping.mode,
        },
    )


def load_prompted(
    artifact: Artifact,
    source_classifier: ImageClassifier,
    name: str = "prompted",
) -> PromptedClassifier:
    arrays = artifact.load_arrays(name)
    meta = artifact.load_json(f"{name}.meta")
    prompt = VisualPrompt(
        source_size=meta["source_size"],
        inner_size=meta["inner_size"],
        channels=meta["channels"],
        init_scale=0.0,
    )
    prompt.theta = np.asarray(arrays["theta"], dtype=np.float64)
    mapping = LabelMapping(
        num_source_classes=meta["num_source_classes"],
        num_target_classes=meta["num_target_classes"],
        mode=meta["mapping_mode"],
    )
    mapping.assignment = np.asarray(arrays["assignment"], dtype=np.int64)
    return PromptedClassifier(source_classifier, prompt, mapping, name=meta["name"])


# -- shadow pools -------------------------------------------------------------

def save_shadow_pool(artifact: Artifact, pool: List[ShadowModel]) -> None:
    entries = []
    for index, shadow in enumerate(pool):
        save_classifier(artifact, shadow.classifier, name=f"shadow-{index}")
        entries.append(
            {
                "is_backdoored": shadow.is_backdoored,
                "attack_name": shadow.attack_name,
                "target_class": shadow.target_class,
                "clean_accuracy": shadow.clean_accuracy,
            }
        )
    artifact.save_json("pool", {"size": len(pool), "entries": entries})


def load_shadow_pool(artifact: Artifact) -> List[ShadowModel]:
    manifest = artifact.load_json("pool")
    pool = []
    for index, entry in enumerate(manifest["entries"]):
        pool.append(
            ShadowModel(
                classifier=load_classifier(artifact, name=f"shadow-{index}"),
                is_backdoored=bool(entry["is_backdoored"]),
                attack_name=entry["attack_name"],
                target_class=entry["target_class"],
                clean_accuracy=float(entry["clean_accuracy"]),
            )
        )
    return pool


def save_prompted_pool(artifact: Artifact, prompted: List[PromptedClassifier]) -> None:
    for index, item in enumerate(prompted):
        save_prompted(artifact, item, name=f"prompt-{index}")
    artifact.save_json("prompts", {"size": len(prompted)})


def load_prompted_pool(
    artifact: Artifact, source_classifiers: List[ImageClassifier]
) -> List[PromptedClassifier]:
    manifest = artifact.load_json("prompts")
    if manifest["size"] != len(source_classifiers):
        raise ValueError(
            f"prompted-pool artifact holds {manifest['size']} prompts but "
            f"{len(source_classifiers)} source classifiers were supplied"
        )
    return [
        load_prompted(artifact, source, name=f"prompt-{index}")
        for index, source in enumerate(source_classifiers)
    ]


# -- meta-classifier ----------------------------------------------------------

def save_meta_classifier(artifact: Artifact, meta, name: str = "meta") -> None:
    """Persist a fitted :class:`repro.core.meta.MetaClassifier`."""
    state, info = meta.get_state()
    artifact.save_arrays(name, state)
    artifact.save_json(f"{name}.meta", info)


def load_meta_classifier(artifact: Artifact, name: str = "meta"):
    from repro.core.meta import MetaClassifier

    return MetaClassifier.from_state(
        artifact.load_json(f"{name}.meta"), artifact.load_arrays(name)
    )


# -- MNTD baseline -------------------------------------------------------------

#: bump when the on-disk MNTD layout, or the bits a fit computes, change;
#: a store artifact of another version is discarded and refitted
#: (2: inference chunks sized by model geometry, see nn.functional)
MNTD_FORMAT_VERSION = 2


def save_mntd_defense(artifact: Artifact, defense, name: str = "mntd") -> None:
    """Persist a fitted :class:`repro.defenses.model_level.MNTDDefense`.

    Stores everything :meth:`score_model` reads — the tuned query images and
    the fitted meta random forest — plus the construction parameters, so the
    reloaded defense produces bit-identical scores.  The shadow classifiers
    are training-time artefacts (cached separately by the artifact store) and
    are not part of this artifact, mirroring ``BpromDetector.save``.
    """
    if defense._meta is None or defense._query_images is None:
        raise ValueError("only a fitted MNTDDefense can be saved")
    artifact.save_arrays(name, {"query_images": defense._query_images})
    artifact.save_arrays(f"{name}.forest", defense._meta.get_state())
    artifact.save_json(
        f"{name}.meta",
        {
            "format_version": MNTD_FORMAT_VERSION,
            "profile": profile_to_dict(defense.profile),
            "architecture": defense.architecture,
            "shadow_attacks": list(defense.shadow_attacks),
            "num_queries": defense.num_queries,
            "threshold": defense.threshold,
            "seed": defense.seed,
            "precision": defense.precision,
            "shadow_labels": [int(s.is_backdoored) for s in defense.shadow_models],
        },
    )


def load_mntd_defense(artifact: Artifact, name: str = "mntd"):
    """Inverse of :func:`save_mntd_defense`; scores are bit-identical."""
    from repro.defenses.model_level import MNTDDefense
    from repro.ml.forest import RandomForestClassifier

    meta = artifact.load_json(f"{name}.meta")
    if meta["format_version"] != MNTD_FORMAT_VERSION:
        raise ValueError(
            f"saved MNTD defense has format {meta['format_version']}, "
            f"expected {MNTD_FORMAT_VERSION}"
        )
    defense = MNTDDefense(
        profile=profile_from_dict(meta["profile"]),
        architecture=meta["architecture"],
        shadow_attacks=tuple(meta["shadow_attacks"]),
        num_queries=meta["num_queries"],
        threshold=meta["threshold"],
        seed=meta["seed"],
        # artifacts saved before the precision split are float64 by definition
        precision=meta.get("precision", "float64"),
    )
    defense._query_images = np.asarray(
        artifact.load_arrays(name)["query_images"], dtype=np.float64
    )
    defense._meta = RandomForestClassifier.from_state(artifact.load_arrays(f"{name}.forest"))
    return defense
