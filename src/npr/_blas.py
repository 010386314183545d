"""Scipy's OpenBLAS on one thread for npr's small p x p solves.

numpy and scipy each bundle an OpenBLAS copy with its own thread pool, and
an OpenBLAS worker keeps spinning for a while after a threaded call.  A
threaded scipy call on a p x p matrix, where a second thread cannot help,
so leaves a core busy while numpy's n-row products run, and the reverse.
:func:`one_thread` runs a function with scipy's copy on one thread and then
restores the count it found; numpy's copy is never touched.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
import threading

import scipy.linalg  # loads scipy's OpenBLAS, so the lookup finds that copy

_lock = threading.Lock()
_depth = 0  # decorated calls running, over all Python threads
_saved = 0  # scipy's thread count before the outermost of them


@functools.cache
def _load():
    """``(get_num_threads, set_num_threads)`` of scipy's OpenBLAS, or None
    when scipy runs on another BLAS (MKL, Accelerate, a system library)."""
    libs = os.path.join(os.path.dirname(os.path.dirname(scipy.__file__)), "scipy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*"))):
        try:
            lib = ctypes.CDLL(path)  # the copy already loaded in this process
            return lib.scipy_openblas_get_num_threads, lib.scipy_openblas_set_num_threads
        except (OSError, AttributeError):
            continue
    return None


def one_thread(func):
    """Run ``func`` with scipy's OpenBLAS on one thread; the identity when
    that library is not found.  Nested and concurrent calls share one pin:
    the first entry saves the count, the last exit restores it."""
    pins = _load()
    if pins is None:
        return func
    get_threads, set_threads = pins

    @functools.wraps(func)
    def pinned(*args, **kwargs):
        global _depth, _saved
        with _lock:
            if _depth == 0:
                _saved = get_threads()
                set_threads(1)
            _depth += 1
        try:
            return func(*args, **kwargs)
        finally:
            with _lock:
                _depth -= 1
                if _depth == 0:
                    set_threads(_saved)

    return pinned
