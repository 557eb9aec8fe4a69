"""Print the run record as one JSON line: machine, interpreter, numpy and BLAS.

The benchmark runs this with the same environment as the timed commands, so
the BLAS thread count shown is the one the commands use.
"""

import ctypes
import json
import os
import platform
import sys

import numpy as np


def blas_threads() -> int | None:
    """Thread count of the loaded OpenBLAS, read through its own API."""
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def record() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
    }


if __name__ == "__main__":
    json.dump(record(), sys.stdout)
    print()
