"""Thread count of the OpenBLAS that numpy links, for the dense frame-bound solves.

OpenBLAS splits each level-2/3 call and eigen-solve over every core it found
at load.  The split moves the last bits of the results with the core count,
and on a shared host a worker waiting for a busy core makes every solve slower
and its timing erratic.  numpy has no call for the thread count, so this
reaches OpenBLAS's own
`openblas_set_num_threads` through ctypes.  With any other BLAS it does nothing.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import cache


@cache
def _openblas():
    """(set, get) thread-count functions of numpy's OpenBLAS, or None."""
    import ctypes

    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath
    try:
        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except OSError:
        return None
    # numpy's wheels bundle scipy-openblas, whose symbols carry a prefix and,
    # in the 64-bit-integer build, a suffix
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            try:
                set_threads = getattr(lib, f"{prefix}_set_num_threads{suffix}")
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
            except AttributeError:
                continue
            # void set(int), int get(void) in every OpenBLAS integer width
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            return set_threads, get_threads
    return None


@contextmanager
def blas_threads(limit: int):
    """Run the block with at most `limit` OpenBLAS threads."""
    funcs = _openblas()
    if funcs is None or funcs[1]() <= limit:
        yield
        return
    set_threads, get_threads = funcs
    before = get_threads()
    set_threads(limit)
    try:
        yield
    finally:
        set_threads(before)
