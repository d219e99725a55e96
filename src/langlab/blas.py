"""numpy's bundled OpenBLAS: the one-thread pin and the numerics a run
records.

Threaded BLAS can sum a product in another order, so the CLI runs BLAS
on one thread and every run record names the numpy and scipy versions
and the thread count it ran with.  The setter and getter are numpy's
bundled scipy-openblas ones; a numpy without them is left as it is, and
its thread count reads None.
"""

from __future__ import annotations

import ctypes

import numpy
import scipy


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
