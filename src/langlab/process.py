"""The process regime every langlab caller runs under, and the numerics a
run records.

Importing langlab (any of its modules) calls pin_one_thread and
keep_heap once, so the command, library callers, the tests and a
notebook compute with the same bytes at the same speed:

- Threaded BLAS can sum a product in another order, so numpy's bundled
  scipy-openblas runs on one thread; every run record names the numpy
  and scipy versions and the thread count it ran with (numerics).
- glibc keeps freed arrays in the heap for reuse (keep_heap).

Both setters are best-effort: a numpy without the scipy-openblas setter
or a C library without mallopt is left as it is, and a missing getter
reads as a thread count of None.  This is the one module that reaches
the C libraries through ctypes.
"""

from __future__ import annotations

import ctypes

import numpy
import scipy

# glibc mallopt parameters and the values keep_heap gives them
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 256 << 20
_TRIM_THRESHOLD_BYTES = 1 << 30


def _openblas(name: str):
    """The named function of numpy's bundled OpenBLAS, or None."""
    try:
        umath = ctypes.CDLL(numpy._core._multiarray_umath.__file__)
        return getattr(umath, name)
    except (OSError, AttributeError):
        return None


def pin_one_thread() -> None:
    """Run numpy's BLAS on one thread, where the setter exists."""
    set_threads = _openblas("scipy_openblas_set_num_threads64_")
    if set_threads is not None:
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        set_threads(1)


def keep_heap() -> None:
    """Keep freed arrays in the heap for reuse instead of returning them.

    By default glibc serves arrays above its (dynamic) mmap threshold
    with fresh mmaps and trims the heap once the gradient tape is freed,
    so every training step page-faults its working set in again.  Both
    thresholds are set: setting either alone freezes the mmap threshold
    at its 128 KiB start.  A libc without mallopt leaves the defaults.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


def thread_count() -> int | None:
    """numpy's BLAS thread count, or None where the getter is missing."""
    get_threads = _openblas("scipy_openblas_get_num_threads64_")
    if get_threads is None:
        return None
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    return int(get_threads())


def numerics() -> dict:
    """The numpy and scipy versions and the BLAS thread count."""
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": thread_count()}
