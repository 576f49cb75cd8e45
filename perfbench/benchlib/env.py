"""Environment record attached to every result, and the BLAS thread pin.

`pin_blas_threads` must run before numpy is first imported: OpenBLAS reads
its thread count from the environment when it loads.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def pin_blas_threads(n: int = 1):
    if "numpy" in sys.modules:
        raise RuntimeError("pin BLAS threads before numpy is imported")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(n)


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if unknown."""
    import numpy as np
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                          "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def mem_available_mb():
    """MemAvailable from /proc/meminfo in MiB, or None if unreadable."""
    try:
        with open("/proc/meminfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) / 1024.0
    except (OSError, ValueError, IndexError):
        pass
    return None


def record():
    """Static facts about the interpreter, numpy/BLAS and the machine."""
    import numpy as np
    blas = {}
    try:
        blas = dict(np.__config__.CONFIG["Build Dependencies"]["blas"])
    except (AttributeError, KeyError, TypeError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": blas_threads(),
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model(),
        "mem_available_mb": mem_available_mb(),
    }


def loadavg():
    try:
        return list(os.getloadavg())
    except OSError:
        return None
