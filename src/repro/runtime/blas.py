"""BLAS thread budgets for the pools that run nn forward passes.

Every black-box query is one forward pass of the suspicious model, made of
tall-skinny float64 GEMMs (K <= 144, N of 8 or 16 output channels).  numpy's
bundled OpenBLAS starts one thread per core, so a pool of ``w`` workers on
``c`` cores runs ``w * c`` BLAS threads, and on small GEMMs the extra
threads cost far more than they save: a serial ``(32768x72)@(72x8)`` conv
GEMM took 2.7 ms at one thread and 16.0 ms at two on a 2-core x86-64 box.
The budget gives each pool worker ``max(1, usable_cores() // workers)``
threads.

The thread count is process-global state inside OpenBLAS, so the budget is
too:

* thread pools share the process's count.  A :class:`ThreadScope` is one
  refcounted cap on it: the live count is the minimum over open scopes, and
  the count the process had before the first scope comes back when the last
  one closes, in any close order;
* process pools set the count once per worker through :func:`apply_budget`,
  passed as the executor's ``initializer``.

A budget only ever lowers the count the process already has, so a user's
``OPENBLAS_NUM_THREADS=1`` is kept.  Where numpy does not bundle the
``scipy_openblas`` build (other BLAS libraries, other platforms) every
function here is a no-op and :func:`threads` returns ``None``.

The thread count does not change results: OpenBLAS partitions a GEMM over
output rows and columns, not over the reduction, so each output element
sums in the same order at any count.  ``tests/test_blas.py`` holds this bit
for bit over the nn layers' GEMM shapes and one whole BPROM inspection.
"""

from __future__ import annotations

import ctypes
import glob
import os
import threading
from functools import lru_cache
from pathlib import Path
from typing import Callable, List, Optional, Tuple

import numpy as np

_GET_THREADS = "scipy_openblas_get_num_threads64_"
_SET_THREADS = "scipy_openblas_set_num_threads64_"


@lru_cache(maxsize=None)
def _openblas() -> Optional[Tuple[Callable[[], int], Callable[[int], None]]]:
    """(get, set) thread-count functions of numpy's bundled OpenBLAS, or None.

    ``ctypes.CDLL`` on the library numpy already loaded returns that same
    loaded copy, so these functions act on the OpenBLAS numpy calls into.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "libscipy_openblas*.so*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        get = getattr(lib, _GET_THREADS, None)
        set_ = getattr(lib, _SET_THREADS, None)
        if get is None or set_ is None:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


def usable_cores() -> int:
    """Cores this process may run on (its affinity mask, else the machine's)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def budget(workers: int) -> int:
    """BLAS threads per worker of a ``workers``-wide pool."""
    return max(1, usable_cores() // max(1, workers))


def threads() -> Optional[int]:
    """The process's current BLAS thread count; ``None`` without OpenBLAS."""
    api = _openblas()
    return None if api is None else api[0]()


def _set(count: int) -> None:
    api = _openblas()
    if api is not None:
        api[1](count)


def capped(limit: int) -> Optional[int]:
    """The count a budget of ``limit`` leaves the process with, without setting it."""
    current = threads()
    return None if current is None else min(current, limit)


def apply_budget(limit: int) -> None:
    """Lower this process's BLAS thread count to ``limit`` (never raise it).

    Module-level so process pools can pickle it as their ``initializer``.
    """
    current = threads()
    if current is not None and limit < current:
        _set(limit)


#: the limits of open thread scopes, and the count from before the first one;
#: module-level because the count they govern is global to the process
_LOCK = threading.Lock()
_OPEN: List[int] = []
_ORIGINAL: Optional[int] = None


class ThreadScope:
    """One open thread-pool budget; :meth:`close` releases it (idempotent)."""

    def __init__(self, limit: int) -> None:
        global _ORIGINAL
        self.limit = limit
        self._active = _openblas() is not None
        if not self._active:
            return
        with _LOCK:
            if not _OPEN:
                _ORIGINAL = threads()
            _OPEN.append(limit)
            _set(min([_ORIGINAL, *_OPEN]))

    def close(self) -> None:
        with _LOCK:
            if not self._active:
                return
            self._active = False
            _OPEN.remove(self.limit)
            _set(min([_ORIGINAL, *_OPEN]))

    def __enter__(self) -> "ThreadScope":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

