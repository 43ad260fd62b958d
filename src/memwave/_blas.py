"""One BLAS thread for the set-up's small BLAS and LAPACK calls.

numpy's bundled OpenBLAS runs a call above its size threshold on every
thread, and a worker it wakes then spins idle for about 0.13 s of CPU
(2-core x86).  The set-up's calls (the mode compression, the mode check,
`fem.assemble` and `to_modal` of the initial data) are small enough that
one thread does them as fast, so `one_thread` runs them on one, and also
makes their bits independent of the thread count.  So does `to_nodal`, the
map of the states a caller reads back, such as a run's checkpoints.  The
step loop keeps every thread.
"""

from __future__ import annotations

import contextlib
import ctypes
from functools import cache

import numpy as np


@cache
def _setter():
    """OpenBLAS's `openblas_set_num_threads_local`, which sets the thread
    count and returns the count before; None where numpy links another BLAS.

    Looked up through numpy's own extension module, whose dependencies
    include the OpenBLAS it was built with."""
    try:
        setter = ctypes.CDLL(np._core._multiarray_umath.__file__).openblas_set_num_threads_local
    except (AttributeError, OSError):
        return None
    setter.argtypes = [ctypes.c_int]
    setter.restype = ctypes.c_int
    return setter


@contextlib.contextmanager
def one_thread():
    """Run the body, or the decorated function, on one BLAS thread, and
    restore the previous count on the way out, also after an exception.
    Does nothing where `_setter` finds no OpenBLAS."""
    setter = _setter()
    if setter is None:
        yield
        return
    previous = setter(1)
    try:
        yield
    finally:
        setter(previous)
