"""Deterministic parallel execution for the embarrassingly-parallel stages.

Shadow-model training, suspicious-model training and black-box prompting are
independent per model: every task derives its own seed from the experiment
seed and a stable task identity (see :func:`repro.utils.rng.derive_seed`), so
the results are identical whether tasks run sequentially, on a thread pool or
on a process pool — only wall-clock time changes.  Results are always returned
in submission order.

:func:`open_pool` is the one place a thread or process pool is built, so the
BLAS thread budget of :mod:`repro.runtime.blas` applies to every pool.
"""

from __future__ import annotations

from concurrent.futures import Executor, Future, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence, TypeVar

from repro.config import RuntimeConfig
from repro.runtime import blas

T = TypeVar("T")
R = TypeVar("R")


class _BudgetedThreadPool(ThreadPoolExecutor):
    """A thread pool that holds a BLAS thread scope until it shuts down."""

    def __init__(self, workers: int) -> None:
        super().__init__(max_workers=workers)
        self._blas_scope = blas.ThreadScope(blas.budget(workers))

    def shutdown(self, wait: bool = True, **kwargs) -> None:
        super().shutdown(wait, **kwargs)
        self._blas_scope.close()


def open_pool(backend: str, workers: int) -> Executor:
    """A ``workers``-wide thread or process pool running under the BLAS budget.

    Threads share the process's BLAS thread count, capped for as long as the
    pool is open; each process worker lowers its own count on start-up.
    """
    if backend == "thread":
        return _BudgetedThreadPool(workers)
    if backend == "process":
        return ProcessPoolExecutor(
            max_workers=workers,
            initializer=blas.apply_budget,
            initargs=(blas.budget(workers),),
        )
    raise ValueError(f"no pool for executor backend {backend!r}")


class ExecutorSession:
    """Incremental-submission view of a long-lived pool.

    ``ParallelExecutor.map`` is the right shape for fixed batches; the
    streaming gateway instead feeds tasks in as results drain out, through
    the session of its :class:`~repro.runtime.workers.WorkerPool`.  A session
    wraps the pool and exposes ``submit``, returning
    :class:`concurrent.futures.Future`s.  With no pool (serial backend or
    ``workers=1``) the task runs synchronously at submission time and the
    returned future is already resolved, so callers degrade gracefully to a
    plain ordered loop.
    """

    def __init__(self, pool=None) -> None:
        self._pool = pool

    @property
    def parallel(self) -> bool:
        """Whether submitted tasks actually run concurrently."""
        return self._pool is not None

    def submit(self, fn: Callable[..., R], *args) -> "Future[R]":
        if self._pool is not None:
            return self._pool.submit(fn, *args)
        future: Future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:  # surfaced via future.result(), like a pool;
            # KeyboardInterrupt/SystemExit propagate — a real pool's caller
            # would see those too, never a worker.  The broad catch is the
            # contract here (any task exception must reach the future), which
            # repro-lint L302 recognises by the set_exception call below
            future.set_exception(exc)
        return future


class ParallelExecutor:
    """Ordered map over independent tasks with a configurable worker pool.

    ``backend="thread"`` shares memory and overlaps work only where numpy
    releases the GIL, in its C loops and BLAS calls; ``backend="process"``
    achieves true parallelism at the cost of pickling tasks and results
    (every task function must be a module-level callable with picklable
    arguments).  Each :meth:`map` builds its pool through :func:`open_pool`,
    so the pool runs under the BLAS thread budget of
    :mod:`repro.runtime.blas`.  ``workers=1`` or ``backend="serial"`` degrade
    to a plain loop, which is also the fallback for single-item workloads.
    """

    def __init__(self, workers: int = 1, backend: str = "thread") -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if backend not in ("serial", "thread", "process"):
            raise ValueError(f"unknown executor backend {backend!r}")
        self.workers = int(workers)
        self.backend = backend

    @classmethod
    def from_config(cls, runtime: Optional[RuntimeConfig]) -> "ParallelExecutor":
        if runtime is None:
            return cls(1, "serial")
        return cls(runtime.workers, runtime.backend)

    @property
    def parallel(self) -> bool:
        return self.workers > 1 and self.backend != "serial"

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        """Apply ``fn`` to every item, preserving input order in the output."""
        items = list(items)
        if not self.parallel or len(items) <= 1:
            return [fn(item) for item in items]
        with open_pool(self.backend, min(self.workers, len(items))) as pool:
            return list(pool.map(fn, items))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ParallelExecutor(workers={self.workers}, backend={self.backend!r})"
