"""OpenBLAS thread counts pinned to one around npr's small products.

numpy and scipy each bundle an OpenBLAS copy with its own thread pool, and
an OpenBLAS worker keeps spinning for a while after a threaded call, so
threads that cannot help still hold a core.  :func:`one_thread` runs npr's
p x p scipy solves with scipy's copy on one thread.  :func:`all_one_thread`
runs each simulation replicate, whose n x 90 products are too small for two
threads to pay, with both copies on one thread; logistic and cox fits, whose
bits depend on numpy's thread count, never run under it.

Each copy has one pin, shared by both decorators: over nested and concurrent
calls from all Python threads, the first entry saves the copy's count and the
last exit restores it.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
import threading

import numpy as np
import scipy.linalg  # loads scipy's OpenBLAS, so the lookup finds that copy


class _Copy:
    """One loaded OpenBLAS copy's thread count and its shared pin."""

    def __init__(self, lib, suffix: str):
        self.get_threads = getattr(lib, "scipy_openblas_get_num_threads" + suffix)
        self.get_threads.argtypes, self.get_threads.restype = [], ctypes.c_int
        self.set_threads = getattr(lib, "scipy_openblas_set_num_threads" + suffix)
        self.set_threads.argtypes, self.set_threads.restype = [ctypes.c_int], None
        self._lock = threading.Lock()
        self._depth = 0  # pinned calls running, over all Python threads
        self._saved = 0  # the count before the outermost of them

    def pin(self) -> None:
        with self._lock:
            if self._depth == 0:
                self._saved = self.get_threads()
                self.set_threads(1)
            self._depth += 1

    def unpin(self) -> None:
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                self.set_threads(self._saved)


def _find(package, suffix: str) -> _Copy | None:
    """The OpenBLAS copy bundled in ``<package>.libs``, or None when the
    package runs on another BLAS (MKL, Accelerate, a system library)."""
    root = os.path.dirname(os.path.dirname(package.__file__))
    libs = os.path.join(root, package.__name__ + ".libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*"))):
        try:
            return _Copy(ctypes.CDLL(path), suffix)  # the copy already loaded in this process
        except (OSError, AttributeError):
            continue
    return None


@functools.cache
def _load() -> _Copy | None:
    """scipy's OpenBLAS copy (32-bit integer interface)."""
    return _find(scipy, "")


@functools.cache
def _load_numpy() -> _Copy | None:
    """numpy's OpenBLAS copy (64-bit integer interface, symbols suffixed ``64_``)."""
    return _find(np, "64_")


def _pinned(func, copies):
    """``func`` run with each found copy in ``copies`` on one thread; the
    identity when none is found."""
    copies = [c for c in copies if c is not None]
    if not copies:
        return func

    @functools.wraps(func)
    def pinned(*args, **kwargs):
        for copy in copies:
            copy.pin()
        try:
            return func(*args, **kwargs)
        finally:
            for copy in reversed(copies):
                copy.unpin()

    return pinned


def one_thread(func):
    """Run ``func`` with scipy's OpenBLAS on one thread."""
    return _pinned(func, [_load()])


def all_one_thread(func):
    """Run ``func`` with numpy's and scipy's OpenBLAS on one thread."""
    return _pinned(func, [_load_numpy(), _load()])
