"""Pin the BLAS that NumPy loaded to one thread for the length of a run.

At the sizes run here a threaded SVD is slower than a serial one, its idle
threads spin, and its rounding depends on the thread count, so outputs
would differ between hosts.  NumPy's wheels bundle OpenBLAS as
``numpy.libs/libscipy_openblas*.so``; its thread count is read and set
through ``ctypes``.  When no known OpenBLAS is found, nothing is pinned.
"""

from __future__ import annotations

import contextlib
import ctypes
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

GET_THREADS = "scipy_openblas_get_num_threads64_"
SET_THREADS = "scipy_openblas_set_num_threads64_"


def library_paths() -> list[Path]:
    """The OpenBLAS libraries bundled with the NumPy in use."""
    return sorted(Path(np.__file__).parents[1].glob("numpy.libs/libscipy_openblas*.so*"))


def thread_controls() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """The (get, set) thread-count functions of NumPy's OpenBLAS, or None."""
    for path in library_paths():
        try:
            library = ctypes.CDLL(str(path))  # the copy NumPy already loaded
        except OSError:
            continue
        if hasattr(library, GET_THREADS) and hasattr(library, SET_THREADS):
            get, set_ = getattr(library, GET_THREADS), getattr(library, SET_THREADS)
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@contextlib.contextmanager
def single_thread() -> Iterator[None]:
    """Run the body with BLAS on one thread, then restore the previous count."""
    controls = thread_controls()
    if controls is None:
        yield
        return
    get, set_ = controls
    previous = get()
    set_(1)
    try:
        yield
    finally:
        set_(previous)
