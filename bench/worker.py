"""One benchmark pass in a fresh interpreter.

    python3 bench/worker.py --src SRC --workload NAME --seed N [--trace]
                            [--tiny] [--ladder] [--setup-only]

Imports `entlink.cli` from SRC, generates the workload's inputs from the
seed, then (unless --setup-only) runs one pass with no warm-up, checks the
outputs and prints one JSON object as the last line of stdout.  `t_ready`
is the monotonic clock when set-up ended; the parent subtracts its own
clock reading at spawn to get set-up time.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import sys
import time


def blas_info():
    """Name, build and thread count of each OpenBLAS that numpy and scipy
    loaded; thread counts come from the libraries themselves."""
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's BLAS)

    out = []
    for pkg in (numpy, scipy):
        libdir = os.path.join(os.path.dirname(pkg.__file__), os.pardir, pkg.__name__ + ".libs")
        build = pkg.show_config(mode="dicts")["Build Dependencies"]["blas"]
        entry = {"package": pkg.__name__, "name": build.get("name"),
                 "version": build.get("version"), "threads": None}
        for path in sorted(glob.glob(os.path.join(libdir, "*openblas*.so*"))):
            lib = ctypes.CDLL(path)
            for prefix in ("scipy_openblas_", "openblas_"):
                for suffix in ("64_", ""):
                    fn = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                    if fn is not None and entry["threads"] is None:
                        entry["threads"] = int(fn())
                        cfg = getattr(lib, f"{prefix}get_config{suffix}", None)
                        if cfg is not None:
                            cfg.restype = ctypes.c_char_p
                            entry["config"] = cfg().decode()
        out.append(entry)
    return out


def environment():
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                "MKL_NUM_THREADS") if k in os.environ},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--ladder", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    src = os.path.realpath(args.src)
    sys.path.insert(0, src)
    import entlink.cli  # noqa: F401  (the set-up every CLI call pays)
    import entlink
    if not os.path.realpath(entlink.__file__).startswith(src + os.sep):
        sys.exit(f"worker: imported entlink from {entlink.__file__}, not {src}")

    import workloads
    make_inputs, run = workloads.WORKLOADS[args.workload]
    inputs = make_inputs(args.seed, args.tiny)
    t_ready = time.perf_counter()
    result = {"t_ready": t_ready}
    if args.setup_only:
        print(json.dumps(result))
        return

    tracer = None
    label = lambda text: contextlib.nullcontext()  # noqa: E731
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        label = tracer.label

    checks = workloads.Checks()
    t0 = time.perf_counter()
    run(entlink, inputs, checks, label, ladder=args.ladder)
    wall_s = time.perf_counter() - t0

    result.update({
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failures": checks.failures[:20],
        "instance_sha256": workloads.instance_hash(inputs),
        "env": environment(),
    })
    if tracer is not None:
        from metrics import layer_metrics
        names = [fn.__name__ for fn in entlink.selftest.CRITERIA]
        result["layers"] = layer_metrics(tracer, wall_s, names)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
