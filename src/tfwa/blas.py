"""One BLAS thread per run.

numpy's wheels bundle OpenBLAS as ``libscipy_openblas64_``, which exports a
setter and a getter for its thread count.  Every run sets one thread on entry
and restores the previous count on exit, for two reasons: at d >= 100
OpenBLAS gives different bits at different thread counts, which would make a
run's result depend on the machine, and where a burst is costly the
generation driver explodes fireworks on threads of its own.

The library is looked up on the first run, not at import.  Where it or its
symbols are missing, :func:`threads` returns ``None`` and the pin does
nothing.
"""

from __future__ import annotations

import ctypes
import glob
import os
from contextlib import contextmanager

_GETTER = "scipy_openblas_get_num_threads64_"
_SETTER = "scipy_openblas_set_num_threads64_"

_api = None  # (getter, setter) once found, () when there is none


def _load():
    global _api
    if _api is None:
        import numpy

        root = os.path.dirname(numpy.__file__)
        # Linux and Windows wheels keep their libraries beside the package,
        # macOS wheels inside it
        paths = glob.glob(os.path.join(root, os.pardir, "numpy.libs", "*openblas*"))
        paths += glob.glob(os.path.join(root, ".dylibs", "*openblas*"))
        _api = ()
        for path in sorted(paths):
            try:
                lib = ctypes.CDLL(path)
                get, put = getattr(lib, _GETTER), getattr(lib, _SETTER)
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = (), ctypes.c_int
            put.argtypes, put.restype = (ctypes.c_int,), None
            _api = (get, put)
            break
    return _api


def threads() -> int | None:
    """The bundled OpenBLAS's thread count, or ``None`` without one."""
    api = _load()
    return api[0]() if api else None


def set_threads(count: int) -> None:
    """Set the bundled OpenBLAS's thread count; a no-op without one."""
    api = _load()
    if api:
        api[1](count)


@contextmanager
def single_thread():
    """Run the body with one BLAS thread, then restore the previous count."""
    previous = threads()
    set_threads(1)
    try:
        yield
    finally:
        if previous is not None:
            set_threads(previous)
