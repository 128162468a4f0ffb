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
does nothing.
"""

from __future__ import annotations

import ctypes
import glob
import os

import numpy as np

# Name suffixes of the thread-count functions in numpy's scipy-openblas
# builds: 64-bit integers, then 32-bit.
_SUFFIXES = ("64_", "")


def _openblas_threads():
    """The get/set thread-count functions of the OpenBLAS numpy has loaded,
    or ``None``."""
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
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


_THREADS = _openblas_threads()


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
