"""Run numpy's BLAS on the calling thread only.

numpy's bundled OpenBLAS splits a large matrix product over
``OPENBLAS_NUM_THREADS`` threads.  That is faster while the other CPUs are
idle and much slower while they are not, so the time of an
``ops.contract`` call would depend on what else the machine runs.  On a
2-vCPU virtual machine, the benchmark's ``models`` request (batched
``transformer_lm``, ``lenet``, ``beam_step`` and ``mvn_density``) took a
median 56 to 67 ms on two BLAS threads in quiet spells and 158 ms
(quartiles 130 to 184) next to one busy process; on one thread it took 91
to 93 ms and 110 ms (quartiles 107 to 113).  Two threads also kept the
second CPU busy, 1.94 CPUs against 0.99, because OpenBLAS's workers spin
after each call.  ntensor takes the steady time.

``one_thread()`` sets OpenBLAS's thread count to one for the duration of a
``with`` block and then restores it.  The count is process-wide, so BLAS
calls made by other Python threads inside the block also run on one thread.
When numpy's BLAS is not the OpenBLAS bundled with its wheels, the block
does nothing.  ``core_name()`` names the CPU core whose kernels OpenBLAS
runs: each core's kernels round in their own order.
"""

from __future__ import annotations

import ctypes
import glob
import os

import numpy as np

# Name suffixes of the functions in numpy's scipy-openblas builds: 64-bit
# integers, then 32-bit.
_SUFFIXES = ("64_", "")


def _openblas():
    """The OpenBLAS numpy has loaded and the name suffix of its functions,
    or ``(None, "")``."""
    root = os.path.dirname(np.__file__)
    paths = glob.glob(os.path.join(root + ".libs", "*openblas*"))
    paths += glob.glob(os.path.join(root, ".dylibs", "*openblas*"))
    for path in paths:
        try:
            # RTLD_NOLOAD: only a library numpy has already loaded.
            lib = ctypes.CDLL(path, mode=getattr(os, "RTLD_NOLOAD", 0))
        except OSError:
            continue
        for suffix in _SUFFIXES:
            if hasattr(lib, f"scipy_openblas_get_num_threads{suffix}"):
                return lib, suffix
    return None, ""


def _function(name: str, restype, *argtypes):
    """The loaded OpenBLAS's ``scipy_openblas_<name>``, or ``None``."""
    fn = getattr(_LIB, f"scipy_openblas_{name}{_SUFFIX}", None)
    if fn is not None:
        fn.restype, fn.argtypes = restype, argtypes
    return fn


_LIB, _SUFFIX = _openblas()
_THREADS = (_function("get_num_threads", ctypes.c_int),
            _function("set_num_threads", None, ctypes.c_int))
if None in _THREADS:
    _THREADS = None


def core_name():
    """The CPU core OpenBLAS picked its kernels for (such as ``SkylakeX`` or
    ``Haswell``), or ``None`` when numpy's BLAS is not its OpenBLAS."""
    get = _function("get_corename", ctypes.c_char_p)
    return None if get is None else get().decode()


class one_thread:
    """Context manager: OpenBLAS runs on one thread inside the block."""

    __slots__ = ("_saved",)

    def __enter__(self):
        if _THREADS is not None:
            get, set_ = _THREADS
            self._saved = get()
            set_(1)
        return self

    def __exit__(self, *exc):
        if _THREADS is not None:
            _THREADS[1](self._saved)
        return False
