"""The benchmark's workloads: seeded vendor catalogues, tenants and submissions.

A workload is everything one run feeds the gateway: the tenants to stand up
(detector specs plus the datasets they are fitted on), a catalogue of
distinct vendor models (half of them BadNets-backdoored, so detection
quality can be scored), and the sequence of submissions one timed pass
streams.  Everything derives from the workload seed.

Training the vendor models is the benchmark's own preparation, not work the
system under test does, so a seed's catalogue is trained once and kept under
``.bench_build/perfbench/`` in the checkout; later runs of that seed load the
weights back.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.attacks.registry import attack_defaults, build_attack
from repro.config import RuntimeConfig, get_profile
from repro.datasets.base import ImageDataset
from repro.datasets.registry import load_dataset
from repro.models.classifier import ImageClassifier
from repro.models.registry import build_classifier
from repro.runtime.registry import DetectorSpec
from repro.runtime.store import dataset_fingerprint
from repro.utils.rng import derive_seed

#: bump when the catalogue recipe changes, so stale cached weights are ignored
CATALOGUE_VERSION = 1

#: every workload runs the `tiny` profile on the float64 reference tier
PROFILE = get_profile("tiny")
#: pool workers, and the stream's in-flight cap is the default 2 x workers
WORKERS = 2
TARGET_DATASET = "stl10"
ZIPF_EXPONENT = 1.1
#: how many times one untraced run stands the tenants up, for setup's median
SETUPS = 3


@dataclass(frozen=True)
class WorkloadSpec:
    """The shape of one workload; sizes are per catalogue / per pass."""

    name: str
    architecture: str
    gateway_backend: str
    #: distinct vendor models in the catalogue
    models: int
    #: submissions per pass drawn zipf-distributed from the catalogue;
    #: ``None`` submits every catalogue model exactly once per pass
    zipf_submissions: Optional[int] = None
    #: (tenant id, defense, suspicious dataset) of every tenant
    tenants: Tuple[Tuple[str, str, str], ...] = ()


#: why each workload exists is recorded in BENCHMARK.json and LAYERS.md
WORKLOADS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        # every upload is a verdict-cache miss, so the resnet18 forward pass
        # of each inspection's prompted queries does nearly all the work
        WorkloadSpec(
            name="cold_cnn",
            architecture="resnet18",
            gateway_backend="thread",
            models=8,
            tenants=(("bprom-cifar10-cnn", "bprom", "cifar10"),),
        ),
        # mostly warm resubmissions: fingerprint, lookup, routing and harvest
        # dominate; the process backend keeps upload pickling, dispatch and
        # worker hydration on the path of every miss
        WorkloadSpec(
            name="fleet_zipf",
            architecture="mlp",
            gateway_backend="process",
            models=32,
            zipf_submissions=3000,
            tenants=(
                ("bprom-cifar10", "bprom", "cifar10"),
                ("bprom-svhn", "bprom", "svhn"),
                ("mntd-svhn", "mntd", "svhn"),
            ),
        ),
    )
}


@dataclass(frozen=True)
class TenantSetup:
    """One tenant's registration arguments."""

    tenant_id: str
    spec: DetectorSpec
    reserved_clean: ImageDataset
    target_train: Optional[ImageDataset]
    target_test: Optional[ImageDataset]


@dataclass
class VendorModel:
    """One distinct catalogue model and the routing metadata its uploads carry."""

    key: str
    model: ImageClassifier
    backdoored: bool
    tenant_id: str
    metadata: Dict[str, str]


@dataclass
class Workload:
    """A workload materialised for one seed."""

    spec: WorkloadSpec
    seed: int
    runtime: RuntimeConfig
    tenants: List[TenantSetup]
    catalogue: List[VendorModel]
    #: catalogue indices, in submission order, of one pass
    draws: List[int]


def zipf_draws(count: int, submissions: int, seed: int) -> List[int]:
    """``submissions`` catalogue indices with popularity ~ 1 / rank^ZIPF_EXPONENT."""
    ranks = np.arange(1, count + 1, dtype=np.float64)
    probabilities = ranks ** -ZIPF_EXPONENT
    probabilities /= probabilities.sum()
    rng = np.random.default_rng(derive_seed(seed, "perfbench", "zipf"))
    return [int(i) for i in rng.choice(count, size=submissions, p=probabilities)]


def _cache_path(cache_root: Path, spec: WorkloadSpec, seed: int) -> Path:
    return cache_root / f"catalogue-v{CATALOGUE_VERSION}-{spec.name}-{spec.models}-seed{seed}"


def _train_vendor(
    architecture: str, train: ImageDataset, backdoored: bool, seed: int, name: str
) -> ImageClassifier:
    """One vendor model: clean, or trained on a BadNets-poisoned split."""
    data = train
    if backdoored:
        attack = build_attack("badnets", target_class=0, seed=seed + 1)
        data = attack.poison(
            train, poison_rate=attack_defaults("badnets").poison_rate, rng=seed + 2
        ).dataset
    model = build_classifier(
        architecture, train.num_classes, image_size=PROFILE.image_size, rng=seed, name=name
    )
    model.fit(data, PROFILE.classifier, rng=seed + 3)
    return model


def _save_catalogue(path: Path, rows: List[Tuple[str, ImageClassifier, bool, str]]) -> None:
    arrays = {}
    manifest = []
    for index, (key, model, backdoored, tenant_id) in enumerate(rows):
        for name, value in model.state_dict().items():
            arrays[f"{index}/{name}"] = value
        manifest.append(
            {
                "key": key,
                "architecture": model.architecture,
                "num_classes": model.num_classes,
                "backdoored": backdoored,
                "tenant_id": tenant_id,
            }
        )
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_name(path.name + f".{os.getpid()}.partial.npz")
    np.savez(partial, **arrays)
    with open(partial.with_suffix(".json"), "w") as handle:
        json.dump(manifest, handle)
    # json first, npz last: the npz's presence marks a complete entry
    os.replace(partial.with_suffix(".json"), path.with_suffix(".json"))
    os.replace(partial, path.with_suffix(".npz"))


def _load_catalogue(path: Path) -> List[Tuple[str, ImageClassifier, bool, str]]:
    with open(path.with_suffix(".json")) as handle:
        manifest = json.load(handle)
    rows = []
    with np.load(path.with_suffix(".npz")) as arrays:
        for index, entry in enumerate(manifest):
            prefix = f"{index}/"
            state = {
                name[len(prefix):]: arrays[name] for name in arrays.files if name.startswith(prefix)
            }
            model = build_classifier(
                entry["architecture"],
                entry["num_classes"],
                image_size=PROFILE.image_size,
                rng=0,
                name=entry["key"],
            )
            model.load_state_dict(state)
            rows.append((entry["key"], model, bool(entry["backdoored"]), entry["tenant_id"]))
    return rows


def train_catalogue(name: str, models: int, seed: int, path: str) -> None:
    """Train workload ``name``'s ``models`` vendor models for ``seed``; save at ``path``."""
    spec = replace(WORKLOADS[name], models=models)
    train = {dataset: load_dataset(dataset, PROFILE, seed=seed)[0] for _, _, dataset in spec.tenants}
    rows = []
    for index in range(spec.models):
        # round-robin over tenants keeps each tenant's zipf popularity share
        # the same for every seed
        tenant_id, _defense, dataset = spec.tenants[index % len(spec.tenants)]
        backdoored = (index // len(spec.tenants)) % 2 == 1
        key = f"{spec.name}/{tenant_id}/{index}"
        model = _train_vendor(
            spec.architecture, train[dataset], backdoored,
            derive_seed(seed, "perfbench", spec.name, index), key,
        )
        rows.append((key, model, backdoored, tenant_id))
    _save_catalogue(Path(path), rows)


def build_workload(name: str, seed: int, cache_root: Path, models: Optional[int] = None,
                   submissions: Optional[int] = None) -> Workload:
    """Materialise workload ``name`` for ``seed``.

    ``models`` / ``submissions`` shrink the catalogue and the zipf pass (the
    smoke test runs every workload at minimal size).  The catalogue comes
    from ``cache_root`` when this seed and size were trained before.
    """
    spec = WORKLOADS[name]
    if models is not None:
        spec = replace(spec, models=models)
    if submissions is not None and spec.zipf_submissions is not None:
        spec = replace(spec, zipf_submissions=submissions)
    names = {TARGET_DATASET, *(dataset for _, _, dataset in spec.tenants)}
    datasets = {name: load_dataset(name, PROFILE, seed=seed) for name in names}
    target_train, target_test = datasets[TARGET_DATASET]
    tenants = []
    for tenant_id, defense, dataset in spec.tenants:
        detector = DetectorSpec(
            defense=defense, profile=PROFILE, architecture=spec.architecture, seed=seed
        )
        reserved = datasets[dataset][1]
        bprom = defense == "bprom"
        tenants.append(
            TenantSetup(
                tenant_id,
                detector,
                reserved,
                target_train if bprom else None,
                target_test if bprom else None,
            )
        )

    path = _cache_path(cache_root, spec, seed)
    if not path.with_suffix(".npz").exists():
        # trained in a child process, so training memory never shows in
        # this process's peak RSS, whether or not the seed was cached
        code = (
            "import sys, workloads; workloads.train_catalogue("
            "sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4])"
        )
        subprocess.run(
            [sys.executable, "-c", code, spec.name, str(spec.models), str(seed), str(path)],
            check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)},
        )
    rows = _load_catalogue(path)

    by_id = {t.tenant_id: t for t in tenants}
    catalogue = []
    for key, model, backdoored, tenant_id in rows:
        tenant = by_id[tenant_id]
        metadata = {"architecture": spec.architecture, "defense": tenant.spec.defense}
        if tenant.spec.defense == "bprom":
            # BPROM tenants share the architecture family, so the suspicious
            # task's data fingerprint is what routes them apart
            metadata["dataset_fingerprint"] = dataset_fingerprint(tenant.reserved_clean)
        catalogue.append(VendorModel(key, model, backdoored, tenant_id, metadata))

    if spec.zipf_submissions is None:
        order = np.random.default_rng(derive_seed(seed, "perfbench", "order"))
        draws = [int(i) for i in order.permutation(len(catalogue))]
    else:
        draws = zipf_draws(len(catalogue), spec.zipf_submissions, seed)
    # the store directory is set per stand-up
    runtime = RuntimeConfig(
        workers=WORKERS,
        backend="thread",
        gateway_backend=spec.gateway_backend,
        gateway_workers=WORKERS,
        verdict_cache=True,
        precision="float64",
    )
    return Workload(spec, seed, runtime, tenants, catalogue, draws)
