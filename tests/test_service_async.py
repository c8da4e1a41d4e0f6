"""Backpressure on the gateway's asynchronous audit paths: with the verdict
cache off, ``stream`` and ``submit`` + ``as_completed`` never run more than
``max_in_flight`` inspections at once, however many pool workers there are.
The cache-on case is in ``test_gateway``."""

from __future__ import annotations

import pytest

from repro.config import RuntimeConfig
from repro.runtime import AuditGateway, DetectorRegistry
from repro.runtime.registry import DetectorSpec


@pytest.fixture(scope="module")
def budget_gateway_args(micro_profile, tiny_dataset, tiny_test_dataset, tmp_path_factory):
    """A 4-worker thread runtime whose store already holds a fitted MLP
    detector, and the arguments that register it as the one tenant."""
    spec = DetectorSpec(defense="bprom", profile=micro_profile, architecture="mlp", seed=0)
    runtime = RuntimeConfig(
        cache_dir=str(tmp_path_factory.mktemp("budget-store")),
        workers=4,
        gateway_backend="thread",
    )
    DetectorRegistry(runtime=runtime).get_or_fit(
        spec, tiny_dataset, tiny_test_dataset, tiny_test_dataset
    )
    return runtime, ("tabular-mlp", spec, tiny_dataset, tiny_test_dataset, tiny_test_dataset)


def _budget_gateway(budget_gateway_args) -> AuditGateway:
    runtime, tenant = budget_gateway_args
    gateway = AuditGateway(runtime=runtime, max_in_flight=2)
    gateway.register_tenant(*tenant)
    return gateway


def test_stream_bounds_in_flight_jobs(
    budget_gateway_args, inspect_concurrency, budget_submissions
):
    with _budget_gateway(budget_gateway_args) as gateway:
        verdicts = list(gateway.stream(budget_submissions))
    assert sorted(v.name for v in verdicts) == sorted(k for k, _ in budget_submissions)
    assert inspect_concurrency["calls"] == len(budget_submissions)
    assert inspect_concurrency["peak"] <= 2, (
        f"in-flight exceeded the cap: {inspect_concurrency['peak']}"
    )


def test_submit_applies_backpressure(
    budget_gateway_args, inspect_concurrency, budget_submissions
):
    with _budget_gateway(budget_gateway_args) as gateway:
        for key, model in budget_submissions:
            gateway.submit(key, model)
        results = {v.name: v.backdoor_score for v in gateway.as_completed()}
    assert results == {key: 0.0 for key, _ in budget_submissions}
    assert inspect_concurrency["calls"] == len(budget_submissions)
    assert inspect_concurrency["peak"] <= 2
