"""One benchmark invocation, run in a fresh interpreter by ``run.py``.

    python3 perfbench/child.py --src SRC --result OUT.json [--env]
        [--spans SPANS.json] [--probe qg3d|numpy] -- <qg3d CLI arguments>

Imports ``qg3d`` from SRC, records when it is ready, calls
``qg3d.cli.main(argv)`` and writes one JSON result: the exit code, the
``CLOCK_MONOTONIC`` instant at which the import finished (the parent
compares it with the instant it started this process; that clock is
system-wide on Linux), the duration of ``cli.main`` and the peak resident
memory.  ``--spans`` wraps the library layers (see ``spans.py``), writes
the spans after ``cli.main`` returns and adds the ``F_n`` branch probe.
``--probe`` only imports (``qg3d``, or ``numpy`` alone as the reference
start-up) and records when that is done.
"""

import argparse
import json
import resource
import sys
import time


def _environment() -> dict:
    """Versions and numeric facts that a result depends on."""
    import ctypes
    import glob
    import os
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            try:
                getter = getattr(ctypes.CDLL(lib), sym)
            except (OSError, AttributeError):
                continue
            getter.restype = ctypes.c_int
            threads = int(getter())
            break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "longdouble_mantissa_bits": int(np.finfo(np.longdouble).nmant),
        "longdouble_wider_than_double": bool(np.finfo(np.longdouble).nmant > np.finfo(np.float64).nmant),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans")
    ap.add_argument("--env", action="store_true")
    ap.add_argument("--probe", choices=("qg3d", "numpy"))
    ap.add_argument("argv", nargs="*")
    args = ap.parse_args()

    if args.probe == "numpy":
        import numpy  # noqa: F401
    else:
        sys.path.insert(0, args.src)
        import qg3d.cli

    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    result = {"ready": ready}
    if args.probe is None:
        tracer = None
        if args.spans:
            import spans

            tracer = spans.Tracer()
            spans.install(tracer)
        t0 = time.perf_counter()
        rc = qg3d.cli.main(args.argv)
        result["main_s"] = time.perf_counter() - t0
        result["rc"] = rc
        if tracer is not None:
            tracer.dump(args.spans)
            result["probe"] = spans.specfun_probe()
    result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.env:
        result["env"] = _environment()
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
