"""Shared fixtures."""

import ctypes
from pathlib import Path

import numpy as np
import pytest


def bundled_openblas_threads():
    """(get, set) of the thread count of the OpenBLAS bundled beside numpy.

    Found by its file name in numpy.libs, not the way numerics finds it, so
    the tests read the count independently of the code under test.  None
    when numpy bundles no scipy-openblas.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for suffix in ("64_", ""):
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@pytest.fixture
def blas2():
    """The bundled OpenBLAS at 2 threads for the test, back to its old count
    after; yields the (get, set) pair."""
    found = bundled_openblas_threads()
    if found is None:
        pytest.skip("numpy bundles no scipy-openblas")
    get, put = found
    old = get()
    put(2)
    try:
        yield get, put
    finally:
        put(old)
