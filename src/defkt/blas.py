"""One BLAS thread for a run, and the key naming what decides a run's float64 bits.

A run's bits are fixed only for one numpy build, one OpenBLAS kernel and
one BLAS thread count: a product split over two threads can sum in another
order. The run's pool already puts one computing thread on each CPU (see
metrics), so `defkt run` pins numpy's bundled OpenBLAS to one thread
before any run (pin). Importing defkt as a library pins nothing. Where the
library is not found, a run stays unpinned and environment_key says so.
"""

from __future__ import annotations

import ctypes
import functools
import glob
from pathlib import Path

import numpy as np


@functools.cache
def _openblas():
    """numpy's bundled OpenBLAS (libscipy_openblas), or None; looked up once per process."""
    for path in sorted(glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "libscipy_openblas*.so*"))):
        try:
            lib = ctypes.CDLL(path)
            set_threads, get_threads = lib.scipy_openblas_set_num_threads64_, lib.scipy_openblas_get_num_threads64_
            get_config = lib.scipy_openblas_get_config64_
        except (OSError, AttributeError):
            continue
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        get_config.argtypes, get_config.restype = [], ctypes.c_char_p
        return lib
    return None


def pin() -> None:
    """Set OpenBLAS to one thread, if its library is found."""
    lib = _openblas()
    if lib is not None:
        lib.scipy_openblas_set_num_threads64_(1)


def environment_key() -> str:
    """The numpy version, OpenBLAS's runtime configuration and the BLAS thread count it reports.

    At one thread the key reads "...; OPENBLAS_NUM_THREADS=1", the form the
    stored digests are filed under.
    """
    lib = _openblas()
    if lib is None:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
        return (f"numpy {np.__version__}; {blas.get('name')} {blas.get('version')}; "
                f"BLAS threads not pinned (libscipy_openblas not found)")
    config = lib.scipy_openblas_get_config64_().decode()
    return f"numpy {np.__version__}; {config}; OPENBLAS_NUM_THREADS={lib.scipy_openblas_get_num_threads64_()}"
