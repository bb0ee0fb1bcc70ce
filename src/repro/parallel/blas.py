"""One BLAS thread in every study process.

OpenBLAS starts one thread per core by default, and a threaded GP
solve sums in a different order, so without a pin a BO GP result at
large sample sizes depends on the machine that ran it (and pool workers
fight over the cores).  The ``OPENBLAS_NUM_THREADS`` variable cannot do
the job: NumPy and SciPy read it when they are imported.  So
:func:`pin_blas_threads` finds every ``libscipy_openblas*`` mapped into
this process and sets its thread count through its own setter.  It is
idempotent; forked pool workers inherit the setting.
"""

from __future__ import annotations

import ctypes
import os
from typing import Union

__all__ = ["pin_blas_threads"]

#: Symbol suffixes: NumPy's ILP64 build (``64_``) and SciPy's LP64 one.
_SUFFIXES = ("64_", "")


def _mapped_openblas():
    """Paths of the ``libscipy_openblas*`` libraries in this process."""
    paths = set()
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            for line in maps:
                path = line.split(maxsplit=5)[-1].strip()
                if os.path.basename(path).startswith("libscipy_openblas"):
                    paths.add(path)
    except OSError:  # no procfs: nothing to find
        pass
    return sorted(paths)


def pin_blas_threads() -> Union[int, str]:
    """Set every loaded OpenBLAS to one thread.

    Returns the thread count the libraries report afterwards, or
    ``"unpinned"`` when no library (or no setter) is found; a study
    still runs then, on the library's default threads.
    """
    counts = set()
    for path in _mapped_openblas():
        lib = ctypes.CDLL(path)
        for suffix in _SUFFIXES:
            setter = getattr(lib, f"scipy_openblas_set_num_threads{suffix}",
                             None)
            getter = getattr(lib, f"scipy_openblas_get_num_threads{suffix}",
                             None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter(1)
                counts.add(getter())
                break
    return counts.pop() if len(counts) == 1 else "unpinned"
