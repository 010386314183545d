"""numpy's OpenBLAS: npr's p x p LAPACK solves and its thread count.

Every LAPACK call npr makes outside the QR is a p x p triangular or
Cholesky solve.  :func:`solve_triangular`, :func:`cho_factor` and
:func:`cho_solve` make them through ctypes bindings to the OpenBLAS that
numpy bundles, with the arguments ``scipy.linalg`` passes, so they give its
bits without loading ``scipy.linalg`` or scipy's own OpenBLAS copy.  Each
runs on one thread of numpy's copy for that call only: an OpenBLAS worker
keeps spinning for a while after a threaded call, so threads that cannot
help still hold a core.  When numpy runs on another BLAS (an MKL or system
build, or a numpy 1.x wheel, whose library is not named as this lookup
expects), the three call ``scipy.linalg`` itself.

:func:`all_one_thread` runs each simulation replicate, whose n x 90
products are too small for two threads to pay, with numpy's copy on one
thread; logistic and cox fits, whose bits depend on numpy's thread count,
never run under it.  The copy has one pin, shared by the LAPACK calls and
the decorator: over nested and concurrent calls from all Python threads,
the first entry saves the copy's count and the last exit restores it.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
import threading

import numpy as np

_INT = ctypes.c_int64  # numpy's copy has the 64-bit integer interface
# each routine's arguments before info: f a character flag, i an integer, a a matrix
_ARGS = {"trtrs": "fffiiaiai", "potrf": "fiai", "potrs": "fiiaiai"}
_CTYPES = {"f": ctypes.c_char_p, "i": ctypes.POINTER(_INT), "a": ctypes.c_void_p}


class _Copy:
    """numpy's loaded OpenBLAS copy: its thread count, its shared pin and
    the three LAPACK routines npr calls."""

    def __init__(self, lib):
        self.get_threads = lib.scipy_openblas_get_num_threads64_
        self.get_threads.argtypes, self.get_threads.restype = [], ctypes.c_int
        self.set_threads = lib.scipy_openblas_set_num_threads64_
        self.set_threads.argtypes, self.set_threads.restype = [ctypes.c_int], None
        self._routines = {}
        for name, kinds in _ARGS.items():
            routine = self._routines[name] = getattr(lib, f"scipy_d{name}_64_")
            # then info, and the length of each flag, as Fortran passes them
            routine.argtypes = ([_CTYPES[k] for k in kinds] + [ctypes.POINTER(_INT)]
                                + [ctypes.c_size_t] * kinds.count("f"))
            routine.restype = None
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

    def lapack(self, name: str, *args) -> int:
        """LAPACK's ``d<name>`` on one thread, and its ``info`` if not
        negative; a negative one, an illegal argument, raises ``ValueError``.
        ``args`` are its arguments before ``info``, as ``_ARGS`` lists them:
        bytes for a flag, int for an integer, a Fortran-ordered float64
        array for a matrix, which the routine reads or overwrites."""
        refs = []
        for kind, a in zip(_ARGS[name], args, strict=True):
            if kind == "a" and not (a.dtype == np.float64 and a.flags.f_contiguous):
                raise ValueError(f"{name} takes Fortran-ordered float64 matrices")
            refs.append(a.ctypes.data if kind == "a" else ctypes.byref(_INT(a)) if kind == "i" else a)
        info = _INT(0)
        self.pin()
        try:
            self._routines[name](*refs, ctypes.byref(info), *[1] * _ARGS[name].count("f"))
        finally:
            self.unpin()
        if info.value < 0:
            raise ValueError(f"illegal value in {-info.value}-th argument of internal {name}")
        return info.value


@functools.cache
def _load_numpy() -> _Copy | None:
    """numpy's OpenBLAS copy, bundled in ``numpy.libs`` (symbols suffixed
    ``64_``), or None when numpy runs on another BLAS."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*"))):
        try:
            return _Copy(ctypes.CDLL(path))  # the copy already loaded in this process
        except (OSError, AttributeError):
            continue
    return None


def _checked(a: np.ndarray, b: np.ndarray | None = None) -> int:
    """The order of ``a``, once ``a`` is found square and finite, and ``b``
    finite with as many rows: what ``scipy.linalg`` checks before a call."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected square matrix")
    if b is not None and (b.ndim not in (1, 2) or b.shape[0] != a.shape[0]):
        raise ValueError(f"shapes of a {a.shape} and b {b.shape} are incompatible")
    if not all(np.isfinite(x).all() for x in (a, b) if x is not None):
        raise ValueError("array must not contain infs or NaNs")
    return a.shape[0]


def solve_triangular(r, b) -> np.ndarray:
    """``scipy.linalg.solve_triangular(r, b)``: ``x`` with ``r @ x = b``,
    for an upper triangular ``r`` and a vector or matrix ``b``; a matrix
    ``x`` is F-ordered.  A zero on the diagonal raises ``LinAlgError``."""
    copy = _load_numpy()
    if copy is None:
        from scipy import linalg
        return linalg.solve_triangular(r, b)
    r, x = np.asarray(r, dtype=np.float64), np.array(b, dtype=np.float64, order="F")
    n = _checked(r, x)
    # LAPACK reads an F-ordered r; scipy solves any other r through the lower r.T
    uplo, trans, a = (b"U", b"N", r) if r.flags.f_contiguous else (b"L", b"T", np.asfortranarray(r.T))
    info = copy.lapack("trtrs", uplo, trans, b"N", n, x.shape[1] if x.ndim == 2 else 1, a, max(1, n), x, max(1, n))
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    return x


def cho_factor(a) -> np.ndarray:
    """``scipy.linalg.cho_factor(a)[0]``: the upper Cholesky factor of
    ``a`` on an F-ordered copy whose strict lower triangle keeps ``a``'s
    entries.  An ``a`` that is not positive definite raises ``LinAlgError``."""
    copy = _load_numpy()
    if copy is None:
        from scipy import linalg
        return linalg.cho_factor(a)[0]
    c = np.array(a, dtype=np.float64, order="F")
    n = _checked(c)
    info = copy.lapack("potrf", b"U", n, c, max(1, n))
    if info > 0:
        raise np.linalg.LinAlgError(f"{info}-th leading minor of the array is not positive definite")
    return c


def cho_solve(c, b) -> np.ndarray:
    """``scipy.linalg.cho_solve((c, False), b)``: ``x`` with ``a @ x = b``,
    where ``c`` is :func:`cho_factor`'s factor of ``a``."""
    copy = _load_numpy()
    if copy is None:
        from scipy import linalg
        return linalg.cho_solve((c, False), b)
    c, x = np.asfortranarray(c, dtype=np.float64), np.array(b, dtype=np.float64, order="F")
    n = _checked(c, x)
    copy.lapack("potrs", b"U", n, x.shape[1] if x.ndim == 2 else 1, c, max(1, n), x, max(1, n))
    return x


def all_one_thread(func):
    """Run ``func`` with numpy's OpenBLAS on one thread; the identity when
    numpy runs on another BLAS."""
    copy = _load_numpy()
    if copy is None:
        return func

    @functools.wraps(func)
    def pinned(*args, **kwargs):
        copy.pin()
        try:
            return func(*args, **kwargs)
        finally:
            copy.unpin()

    return pinned
