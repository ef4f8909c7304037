"""Run one threadsum benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {pretrain,generate,text_cli} \
        --seed N --seconds S --trace {0,1}

Run from the repository root; the package is imported from ``src/``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` spends half of the time untraced and half
traced, and reports the per-layer metrics plus the tracing overhead (traced
minus untraced end-to-end figures).  The line before it is a JSON record of
the named workload figures with their sample counts and the environment.
"""

import argparse
import os
import sys
import time

_START = time.perf_counter()
BLAS_THREADS = 2
SETUP_REPEATS = 3
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _pin_blas_threads() -> int:
    # must happen before numpy loads OpenBLAS, which reads these once
    threads = max(1, min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def _blas_threads_in_use():
    """OpenBLAS's own thread count, asked through its C API; None if unknown."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def _environment(threads_set: int) -> dict:
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_set": threads_set,
        "blas_threads_in_use": _blas_threads_in_use(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "dtype": "float64",
    }


def _measure(workload, seconds: float) -> list:
    """Closed loop: one caller, next round only after the last returned."""
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(workload.round())
    return rounds


def _end_to_end(rounds: list) -> dict:
    from statistics import median

    from workloads import items_per_s

    ops = [op for r in rounds for op in r.ops]
    return {
        "op_s.p50": median(ops) if ops else float("nan"),
        "items_per_s": items_per_s(rounds),
        "samples": len(ops),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "threadsum", "__init__.py")):
        print(f"error: no threadsum package under {src}", file=sys.stderr)
        return 2
    threads = _pin_blas_threads()
    sys.path[:0] = [src, os.path.dirname(os.path.abspath(__file__))]

    import json
    import resource
    import shutil
    import warnings
    from statistics import median

    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _START

    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            setups = []
            workload = None
            for _ in range(SETUP_REPEATS):
                workload = None  # never hold two set-ups at once
                t = time.perf_counter()
                workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
                setups.append(time.perf_counter() - t)
            setup_s = import_s + median(setups)

            tracer = None
            if args.trace:
                untraced = _measure(workload, args.seconds / 2)
                tracer = Tracer()
                workload.install(tracer)
                del caught[:]
                try:
                    rounds = _measure(workload, args.seconds / 2)
                finally:
                    tracer.uninstall()
                tracer.counts["bce_clamped"] = sum(
                    str(w.message).startswith("binary_cross_entropy clamped") for w in caught)
            else:
                rounds = _measure(workload, args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            problems = workload.check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    e2e = _end_to_end(rounds)
    every_round = rounds + (untraced if args.trace else [])
    attempted = sum(r.attempted for r in every_round)
    failed = sum(r.failed for r in every_round)
    named = {
        "setup_s": {"value": setup_s, "unit": "s", "samples": SETUP_REPEATS},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB", "samples": 1},
        "failed_share": {"value": failed / attempted, "unit": "failed/attempted",
                         "samples": attempted},
    }
    named.update(workload.named(rounds))
    if args.trace:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
        items = workload.items(rounds)
        layers = workload.layers(tracer, items)
        unknown = sorted(set(layers) - set(units))
        if unknown:
            raise KeyError(f"per-layer metrics missing from BENCHMARK.json: {unknown}")
        base = _end_to_end(untraced)
        layers["trace.spans"] = len(tracer.spans) / items if items else 0.0
        # layers another workload exercises read 0 here
        metrics = {name: {"value": layers.get(name, 0.0), "unit": unit}
                   for name, unit in units.items()}
        metrics["trace.overhead.op_s.p50"]["value"] = e2e["op_s.p50"] - base["op_s.p50"]
        metrics["trace.overhead.items_per_s"]["value"] = e2e["items_per_s"] - base["items_per_s"]
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
            "op_s.p50": {"value": e2e["op_s.p50"], "unit": "s"},
            "items_per_s": {"value": e2e["items_per_s"], "unit": "items/s"},
        }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "item": workload.item, "op_samples": e2e["samples"],
        "op_s": [op for r in rounds for op in r.ops],
        "round_items": [r.items for r in rounds], "round_busy_s": [r.busy for r in rounds],
        "setup_repeats_s": setups, "named": named, "problems": problems,
        "environment": _environment(threads),
    }
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
