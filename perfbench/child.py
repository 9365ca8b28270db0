"""One `gpmg solve` in a fresh interpreter, started by run.py.

usage: child.py ROOT MODE CONFIG CSV RESULT

MODE is `solve` (end-to-end timers only), `traced` (every hook in
tracer.HOOKS; the spans go to RESULT's directory as spans.json) or `setup`
(stops `main` once the levels are built, to time set-up alone). Imports
happen before the clock starts. RESULT receives one JSON object.
"""

import json
import os
import resource
import sys
import time


class _SetupDone(Exception):
    """Raised in place of the driver call by `setup` mode."""


def _blas_threads():
    """Thread count of each OpenBLAS loaded into this process."""
    import ctypes

    threads = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return threads
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                threads[os.path.basename(path)] = getter()
                break
    return threads


def main():
    root, mode, config, csv_path, result_path = sys.argv[1:6]
    sys.path.insert(0, os.path.join(root, "src"))
    import numpy
    import scipy
    import scipy.sparse.linalg  # noqa: F401  (import cost stays untimed)
    from gpmg import cli

    import tracer

    tr = tracer.Tracer()
    tr.install(tracer.HOOKS if mode == "traced" else tracer.E2E_HOOKS)
    if mode == "setup":
        def stop(*args, **kwargs):
            raise _SetupDone()
        for name in ("multigrid_newton", "multigrid_mixing"):
            if not hasattr(cli, name):
                raise SystemExit(f"gpmg.cli has no {name}; cannot stop "
                                 "after set-up")
            setattr(cli, name, stop)

    error = None
    t0 = time.perf_counter()
    try:
        code = cli.main(["solve", "--config", config, "--out", csv_path])
    except _SetupDone:
        code = 0
    except Exception as err:  # an escaped exception is a failed run
        code, error = 1, f"{type(err).__name__}: {err}"
    elapsed = time.perf_counter() - t0

    result = {
        "exit_code": code,
        "error": error,
        "time_to_solution_s": elapsed,
        "setup_s": tr.top_level_seconds(tracer.SETUP_SPANS),
        "solve_s": tr.top_level_seconds([tracer.DRIVER_SPAN]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "absent_hooks": tr.absent,
        "env": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_threads": _blas_threads(),
        },
    }
    if mode == "traced":
        result["layers"] = tracer.layer_metrics(tr.spans)
        spans_path = os.path.join(os.path.dirname(result_path), "spans.json")
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tr.spans, fh)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
