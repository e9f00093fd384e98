"""Host cores and BLAS thread pools.

One place for the process's view of its cores and of numpy's BLAS pool:

* :data:`THREAD_ENV_VARS` — the environment variables that size the BLAS
  and OpenMP pools of a process *at start-up* (the spawn worker pool pins
  them to ``1`` before it creates its workers);
* :func:`usable_cores` — the cores this process may run on (its CPU
  affinity, not the machine's core count);
* :func:`blas_thread_limit` — cap the *already loaded* OpenBLAS pool for a
  ``with`` block through OpenBLAS's runtime setter, restoring the previous
  count afterwards.

The runtime setter is looked up through :mod:`ctypes` on every use (an
already loaded library re-opens for free): the wheel's bundled
``scipy_openblas`` in ``numpy.libs`` first, then a system ``libopenblas``.
Where neither is found — MKL, Accelerate, a static build — the limit is a
no-op and :func:`blas_threads` reports ``None``.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import os
from typing import Callable, Iterator, Optional, Tuple

import numpy as np

#: Environment variables that size a new process's BLAS/OpenMP pools.
THREAD_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: ``(get, set)`` symbol pairs of OpenBLAS's runtime thread API, in lookup
#: order: numpy wheels' ``scipy_openblas`` (64-bit ints), then system builds.
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def usable_cores() -> int:
    """Number of cores this process may run on (its CPU affinity)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # platforms without affinity support
        return os.cpu_count() or 1


def _openblas_libraries() -> Iterator[str]:
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    yield from sorted(glob.glob(os.path.join(libs, "*openblas*")))
    import ctypes.util  # only system builds get this far; it spawns ldconfig

    system = ctypes.util.find_library("openblas")
    if system:
        yield system


def _openblas_thread_api() -> Optional[Tuple[Callable[[], int], Callable[[int], None]]]:
    """OpenBLAS's ``(get_num_threads, set_num_threads)``, or ``None``."""
    for path in _openblas_libraries():
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_SYMBOLS:
            getter = getattr(library, get_name, None)
            setter = getattr(library, set_name, None)
            if getter is not None and setter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                setter.restype = None
                setter.argtypes = [ctypes.c_int]
                return getter, setter
    return None


def blas_threads() -> Optional[int]:
    """OpenBLAS's current thread count, or ``None`` without a runtime API."""
    api = _openblas_thread_api()
    return None if api is None else int(api[0]())


@contextlib.contextmanager
def blas_thread_limit(limit: int = 1) -> Iterator[None]:
    """Cap OpenBLAS at ``limit`` threads for the block; restore on exit.

    Changes nothing when no OpenBLAS runtime setter is found.  The count is
    process-wide: every thread's BLAS calls see the cap while the block runs.
    """
    api = _openblas_thread_api()
    if api is None:
        yield
        return
    getter, setter = api
    previous = int(getter())
    if previous > limit:
        setter(limit)
    try:
        yield
    finally:
        if previous > limit:
            setter(previous)
