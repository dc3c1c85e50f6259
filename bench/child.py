"""One timed CLI run in a fresh interpreter.

    python3 bench/child.py [--spans FILE] -- <sawmollow CLI argv>

Imports ``sawmollow.cli`` (``bench/run.py`` puts the checkout's ``src/`` on
``PYTHONPATH``) before anything else, times ``cli.main(argv)`` from entry to
return, and prints one JSON line: the exit code, ``imported_at`` (the
``time.perf_counter()`` reading when the import finished; the parent
subtracts the moment it started the process, on the same monotonic clock),
``wall_s``, ``cpu_s`` (user + system of every thread of the process),
``peak_rss_mb`` (high-water resident memory of the process) and the library
versions and BLAS thread count in effect.  With
``--spans`` the layer tracer is installed first, the spans are written to
FILE when the run ends, and the per-layer metrics are added to the JSON line.
"""

from __future__ import annotations

import json
import os
import sys
import time


def blas_threads() -> int | None:
    """Threads OpenBLAS will use in this process, or None if unknown."""
    import ctypes
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        dll = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return min(fn(), len(os.sched_getaffinity(0)))
    return None


def main() -> None:
    args = sys.argv[1:]
    spans_path = None
    if args[:1] == ["--spans"]:
        spans_path, args = args[1], args[2:]
    if args[:1] != ["--"]:
        sys.exit("usage: child.py [--spans FILE] -- <sawmollow argv>")
    argv = args[1:]

    import sawmollow.cli as cli
    imported_at = time.perf_counter()
    import platform
    import resource

    import numpy
    import scipy

    tracer = None
    if spans_path:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    code = cli.main(argv)
    t1 = time.perf_counter()
    r1 = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "exit_code": code,
        "imported_at": imported_at,
        "wall_s": t1 - t0,
        "cpu_s": (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime),
        "peak_rss_mb": r1.ru_maxrss / 1024.0,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics(t1 - t0)
        tracer.write(spans_path)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
