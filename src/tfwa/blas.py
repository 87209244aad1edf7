"""One BLAS thread per run, and a heap that keeps its freed memory.

numpy's wheels bundle OpenBLAS as ``libscipy_openblas64_``, which exports a
setter and a getter for its thread count (the ``scipy_openblas`` prefix names
that OpenBLAS build; the scipy package is not needed).  Every run holds one
thread (:func:`one_thread`), for two reasons: at d >= 100 OpenBLAS gives
different bits at different thread counts, which would make a run's result
depend on the machine, and where a burst is costly the generation driver
explodes fireworks on threads of its own.  A problem's rotation is built at
one thread too, since from d >= 300 its bits depend on the count as well.

The library is looked up on first use, not at import.  Where it or its
symbols are missing, :func:`threads` returns ``None`` and the pin does
nothing.  :func:`kernel` names the core OpenBLAS picked for this CPU; a
run's bits depend on its rounding.

The first run in a process also tells glibc's allocator to keep freed
memory in one heap (:func:`keep_heap`).  Otherwise glibc trims the heap and
grows it again around the temporaries of about 400 KB that a d=100
explosion allocates every generation, which faults their pages in again
each time, and gives each thread that explodes fireworks an arena of its
own, which is never trimmed either.  The setting is process-wide and glibc
cannot report the values it replaces, so it is never undone.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import threading
import warnings
from contextlib import contextmanager

_GETTER = "scipy_openblas_get_num_threads64_"
_SETTER = "scipy_openblas_set_num_threads64_"
_CORENAME = "scipy_openblas_get_corename64_"

# mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8
# glibc's ceiling for its dynamic mmap threshold on 64-bit
# (DEFAULT_MMAP_THRESHOLD_MAX); blocks below it come from the heap
MMAP_THRESHOLD = 32 * 2**20

_lib = None  # the bundled OpenBLAS once found, False when there is none
_heap_kept = False  # keep_heap has run in this process

_pin_lock = threading.Lock()
_pins = 0  # bodies inside one_thread, in all threads of this process
_unpinned = None  # the thread count the first of them found
if hasattr(os, "register_at_fork"):  # so no fork copies the lock while held
    os.register_at_fork(before=_pin_lock.acquire, after_in_parent=_pin_lock.release)
    os.register_at_fork(after_in_child=_pin_lock.release)


def _load():
    """The bundled OpenBLAS, its thread getter and setter typed, or ``None``;
    looked up on the first call."""
    global _lib
    if _lib is None:
        import numpy

        root = os.path.dirname(numpy.__file__)
        # Linux and Windows wheels keep their libraries beside the package,
        # macOS wheels inside it
        paths = glob.glob(os.path.join(root, os.pardir, "numpy.libs", "*openblas*"))
        paths += glob.glob(os.path.join(root, ".dylibs", "*openblas*"))
        _lib = False
        for path in sorted(paths):
            try:
                lib = ctypes.CDLL(path)
                get, put = getattr(lib, _GETTER), getattr(lib, _SETTER)
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = (), ctypes.c_int
            put.argtypes, put.restype = (ctypes.c_int,), None
            _lib = lib
            break
    return _lib or None


def threads() -> int | None:
    """The bundled OpenBLAS's thread count, or ``None`` without one."""
    lib = _load()
    return getattr(lib, _GETTER)() if lib else None


def set_threads(count: int) -> None:
    """Set the bundled OpenBLAS's thread count; a no-op without one."""
    lib = _load()
    if lib:
        getattr(lib, _SETTER)(count)


def kernel() -> str | None:
    """The name of the core the bundled OpenBLAS runs (``SkylakeX``, say), or
    ``None`` without the library or its core-name getter."""
    corename = getattr(_load(), _CORENAME, None)
    if corename is None:
        return None
    corename.argtypes, corename.restype = (), ctypes.c_char_p
    return corename().decode()


def keep_heap() -> None:
    """Have glibc keep freed memory in one heap; once per process.

    Sets the mmap threshold to :data:`MMAP_THRESHOLD` and the trim
    threshold to twice that, as glibc's dynamic rule would.  Both must be
    set: setting either switches the dynamic rule off, and the trim
    threshold alone leaves blocks from 128 KB to ``mmap``.  Then caps glibc
    at one arena, so every thread that has not allocated yet allocates from
    the main heap and reuses what other threads freed there; a thread that
    has keeps its own arena.  Off glibc, or without ``mallopt``, it does
    nothing; if glibc refuses a value it warns and sets nothing more.
    """
    global _heap_kept
    if _heap_kept:
        return
    _heap_kept = True
    if platform.libc_ver()[0] != "glibc":
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    for param, value in (
        (_M_MMAP_THRESHOLD, MMAP_THRESHOLD),
        (_M_TRIM_THRESHOLD, 2 * MMAP_THRESHOLD),
        (_M_ARENA_MAX, 1),
    ):
        if mallopt(param, value) != 1:
            warnings.warn(f"mallopt({param}, {value}) failed; it and the rest keep glibc's defaults")
            return


@contextmanager
def one_thread():
    """Run the body with one BLAS thread.  The count is process-wide, so the
    bodies of all threads share one pin: the first to enter saves the count
    and sets one thread, and the last to leave restores it."""
    global _pins, _unpinned
    with _pin_lock:
        if not _pins:
            _unpinned = threads()
            set_threads(1)
        _pins += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pins -= 1
            if not _pins:
                set_threads(_unpinned)


@contextmanager
def run_settings():
    """A run's settings: :func:`keep_heap`, which is never undone, then
    :func:`one_thread` for the body."""
    keep_heap()
    with one_thread():
        yield
