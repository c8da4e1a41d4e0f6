"""Tests for the BLAS thread budget (:mod:`repro.runtime.blas`).

Two contracts: the thread count never changes a result (a bitwise sweep over
the GEMMs the nn layers issue, and one whole BPROM inspection), and the
budget's scopes cap, stack and restore the process's count as documented —
including inside process workers and with no OpenBLAS at all.
"""

from __future__ import annotations

import contextlib
import itertools

import numpy as np
import pytest

from repro.models.registry import build_classifier
from repro.runtime import blas
from repro.runtime.executor import ParallelExecutor
from repro.runtime.workers import WorkerPool

needs_openblas = pytest.mark.skipif(
    blas.threads() is None, reason="numpy's bundled OpenBLAS symbols are missing"
)


@contextlib.contextmanager
def blas_threads(count: int):
    """Run the block at exactly ``count`` BLAS threads, then restore."""
    original = blas.threads()
    blas._set(count)
    try:
        assert blas.threads() == count
        yield
    finally:
        blas._set(original)


@pytest.fixture()
def cores(monkeypatch):
    """Pin the usable-core count the budget divides."""

    def pin(count: int) -> None:
        monkeypatch.setattr(blas, "usable_cores", lambda: count)

    return pin


@pytest.fixture()
def count_of(monkeypatch):
    """Start the process at ``count`` BLAS threads; restored after the test."""
    if blas.threads() is None:
        pytest.skip("numpy's bundled OpenBLAS symbols are missing")
    original = blas.threads()

    def start_at(count: int) -> None:
        blas._set(count)

    yield start_at
    blas._set(original)


# ---------------------------------------------------------------------------
# bit identity across thread counts
# ---------------------------------------------------------------------------

#: (rows, inner, outer) of conv GEMMs at the tiny profile's widths: inner
#: K = C_in * 3 * 3 up to 144, outer N of 8 or 16, rows = batch * pixels
CONV_SHAPES = [(rows, k, n) for rows in (2304, 16384) for k in (27, 72, 144) for n in (8, 16)]
#: (batch, in, out) of Linear layers: a CNN head and an MLP hidden layer
LINEAR_SHAPES = [(256, 64, 10), (512, 3072, 128)]
#: the three GEMMs of a conv (im2col engine) or Linear layer, in the layers'
#: own operand layouts: ``cols @ w_mat.T`` / ``grad_flat.T @ cols`` /
#: ``grad_flat @ w_mat``, and the same for ``x2``, ``weight`` and ``grad2``
LAYOUTS = {
    "forward": lambda inputs, weight, grad: inputs @ weight.T,
    "weight_grad": lambda inputs, weight, grad: grad.T @ inputs,
    "grad_input": lambda inputs, weight, grad: grad @ weight,
}


@needs_openblas
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_layer_gemms_bitwise_equal_at_one_and_two_threads(dtype):
    rng = np.random.default_rng(0)
    for rows, inner, outer in CONV_SHAPES + LINEAR_SHAPES:
        inputs = rng.standard_normal((rows, inner)).astype(dtype)
        weight = rng.standard_normal((outer, inner)).astype(dtype)
        grad = rng.standard_normal((rows, outer)).astype(dtype)
        for name, gemm in LAYOUTS.items():
            with blas_threads(1):
                one = gemm(inputs, weight, grad)
            with blas_threads(2):
                two = gemm(inputs, weight, grad)
            assert one.dtype == two.dtype == dtype
            assert one.tobytes() == two.tobytes(), (name, rows, inner, outer)


@needs_openblas
def test_bprom_inspect_bitwise_equal_at_one_and_two_threads(
    micro_profile, tiny_dataset, tiny_test_dataset
):
    from repro.core.detector import BpromDetector

    detector = BpromDetector(profile=micro_profile, architecture="mlp", seed=0)
    detector.fit(tiny_test_dataset, tiny_dataset, tiny_test_dataset)
    # a CNN suspect, so the queries run the conv GEMMs at threaded sizes
    suspect = build_classifier(
        "resnet18", tiny_dataset.num_classes, image_size=tiny_dataset.image_size, rng=3
    )
    verdicts = []
    for count in (1, 2):
        with blas_threads(count):
            result = detector.inspect(suspect, seed_key="vendor-0")
        verdicts.append((
            np.float64(result.backdoor_score).tobytes(),
            np.float64(result.prompted_accuracy).tobytes(),
            result.is_backdoored,
            result.query_count,
            result.query_calls,
        ))
    assert verdicts[0] == verdicts[1]


# ---------------------------------------------------------------------------
# budget scopes
# ---------------------------------------------------------------------------

def test_budget_divides_cores_among_workers(cores):
    cores(8)
    assert [blas.budget(w) for w in (1, 2, 3, 4, 8, 16)] == [8, 4, 2, 2, 1, 1]
    cores(1)
    assert blas.budget(2) == 1


def test_thread_pool_caps_count_while_open_and_restores(cores, count_of):
    cores(4)
    count_of(4)
    with WorkerPool(workers=4, backend="thread") as pool:
        assert pool.stats()["blas_threads"] == 1  # planned before the pool opens
        assert pool.session().submit(blas.threads).result() == 1
        assert blas.threads() == 1
        stats = pool.stats()
        assert (stats["cores"], stats["blas_threads"]) == (4, 1)
    assert blas.threads() == 4


def test_parallel_executor_map_caps_count_inside_tasks(cores, count_of):
    cores(4)
    count_of(4)
    observed = ParallelExecutor(workers=2, backend="thread").map(
        lambda _: blas.threads(), range(4)
    )
    assert observed == [2, 2, 2, 2]
    assert blas.threads() == 4


@pytest.mark.parametrize("close_order", list(itertools.permutations(range(3))))
def test_overlapping_scopes_restore_in_any_close_order(count_of, close_order):
    count_of(4)
    # e.g. a gateway pool that stays open while registry fits map on their own
    limits = [3, 1, 2]
    scopes = [blas.ThreadScope(limit) for limit in limits]
    assert blas.threads() == 1
    remaining = list(range(3))
    for index in close_order:
        scopes[index].close()
        remaining.remove(index)
        assert blas.threads() == min([4, *(limits[i] for i in remaining)])
    assert blas.threads() == 4
    scopes[0].close()  # idempotent
    assert blas.threads() == 4


def test_lower_preset_count_is_never_raised(cores, count_of):
    cores(8)
    count_of(1)  # as under OPENBLAS_NUM_THREADS=1
    with blas.ThreadScope(blas.budget(2)):
        assert blas.threads() == 1
    assert blas.threads() == 1
    blas.apply_budget(4)
    assert blas.threads() == 1
    with WorkerPool(workers=2, backend="thread") as pool:
        assert pool.stats()["blas_threads"] == 1
        assert pool.session().submit(blas.threads).result() == 1


def test_process_worker_runs_with_the_budget(cores, count_of):
    cores(4)
    count_of(4)
    with WorkerPool(workers=2, backend="process") as pool:
        assert pool.session().submit(blas.threads).result() == 2
        assert pool.stats()["blas_threads"] == 2
        assert blas.threads() == 4  # the parent's own count is untouched
    assert blas.threads() == 4


def test_budget_is_a_noop_without_openblas(cores, monkeypatch):
    cores(4)
    monkeypatch.setattr(blas, "_openblas", lambda: None)
    assert blas.threads() is None and blas.capped(1) is None
    blas.apply_budget(1)
    with blas.ThreadScope(2) as scope:
        assert blas.threads() is None
    scope.close()
    with WorkerPool(workers=2, backend="thread") as pool:
        assert pool.session().submit(blas.threads).result() is None
        stats = pool.stats()
        assert (stats["cores"], stats["blas_threads"]) == (4, None)
