"""One fresh process of the rookposet benchmark.

run.py starts this script, always with the checkout root as the working
directory:

    python3 rookbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --t0 T [--setup-only]

It imports `rookposet` from the checkout's `src` and generates the
seeded inputs.  `--t0` is the spawn time on CLOCK_MONOTONIC, which all
processes share, so set-up time includes interpreter start.  With
`--setup-only` it stops there.  Otherwise it repeats the workload's job
list for about S seconds.  With `--trace 1` it then repeats it for about
S more seconds under the tracer, and once more under tracemalloc if the
workload builds posets.  It prints one JSON object as its last stdout
line.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPAN_DIR = os.path.join(ROOT, "rookbench", "out")
MIN_PASSES = 3
# Operation times are reported as on a machine where the calibration loop
# takes this long, about the typical speed of the 2-core Xeon the
# benchmark was written on.
NOMINAL_CALIBRATION_S = 0.0018


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def import_package():
    """rookposet from this checkout's src, never an installed copy."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import rookposet
    import rookposet.cli  # noqa: F401  (the oracle workload calls it)

    if not os.path.abspath(rookposet.__file__).startswith(src + os.sep):
        raise ImportError(f"rookposet came from {rookposet.__file__}, not {src}")
    return rookposet


def blas_threads() -> int | None:
    """Threads OpenBLAS will use, read from the library numpy loaded."""
    import numpy

    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": blas_threads(),
    }


def input_hash(name: str, raw: list) -> str:
    text = json.dumps([name, raw], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def measure(workload, rp, prepared, seconds: float):
    """Repeat the job list, at least MIN_PASSES times, and after that start
    a pass only if it should end within `seconds`.  One recorder per pass."""
    walls: list[float] = []
    passes: list[workloads.Recorder] = []
    start = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - start + max(walls) <= seconds:
        rec = workloads.Recorder()
        began = time.perf_counter()
        workload.run_pass(rp, prepared, rec)
        walls.append(time.perf_counter() - began)
        rec.calibrate()
        passes.append(rec)
    return walls, passes


def scaled(rec: workloads.Recorder) -> list[float]:
    """Each latency rescaled to NOMINAL_CALIBRATION_S, by the calibration
    time interpolated at the operation's midpoint."""
    stamps, durations = zip(*rec.calibrations)
    local = np.interp(rec.midpoints, stamps, durations)
    return [t * NOMINAL_CALIBRATION_S / c for t, c in zip(rec.latencies, local)]


def end_to_end(walls: list[float], passes: list[workloads.Recorder]) -> dict:
    """Every pass runs the same operations in the same order.  Each
    operation's latency is rescaled to the nominal machine speed and then
    taken at its median over the passes; the job list's wall time is the
    sum of those medians.  The raw figures are reported beside them."""
    def per_op(latencies):
        return sorted(1e3 * statistics.median(times) for times in zip(*latencies))

    ms = per_op([scaled(p) for p in passes])
    raw = per_op([p.latencies for p in passes])
    cuts = statistics.quantiles(ms, n=100, method="inclusive")
    wall_s = sum(ms) / 1e3
    calibration = [d for p in passes for _, d in p.calibrations]
    return {
        "wall_s": wall_s,
        "raw_wall_s": sum(raw) / 1e3,
        "passes": len(walls),
        "pass_wall_s": walls,
        "calibration_ms": 1e3 * statistics.median(calibration),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "op_p50_ms": cuts[49],
        "op_p95_ms": cuts[94],
        "raw_op_p50_ms": statistics.quantiles(raw, n=100, method="inclusive")[49],
        "ops": len(ms),
        "beyond_p95": sum(1 for t in ms if t > cuts[94]),
        "ops_per_s": len(ms) / wall_s,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    rp = import_package()
    workload = workloads.WORKLOADS[args.workload]
    raw = workload.generate(args.seed)
    prepared = workload.prepare(rp, raw)
    raw_setup_s = now() - args.t0
    speed = NOMINAL_CALIBRATION_S / statistics.median(workloads.calibration_s() for _ in range(3))
    setup = {"setup_s": raw_setup_s * speed, "raw_setup_s": raw_setup_s}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    report = {
        **setup,
        "inputs": {"sha256": input_hash(args.workload, raw), "count": len(raw)},
        "machine": machine(),
    }
    walls, passes = measure(workload, rp, prepared, args.seconds)
    report["end_to_end"] = end_to_end(walls, passes)
    if args.trace:
        import spans

        with spans.Tracer(rp) as tracer:
            tracer.recording = True
            traced_walls, traced = measure(workload, rp, prepared, args.seconds)
            tracer.recording = False
            if any(tracer.called(name) for name in spans.MEMORY_TARGETS):
                tracer.measure_memory(
                    lambda: workload.run_pass(rp, prepared, workloads.Recorder())
                )
        os.makedirs(SPAN_DIR, exist_ok=True)
        span_file = os.path.join(SPAN_DIR, f"spans-{args.workload}.npz")
        tracer.save(span_file)
        layers = tracer.metrics(len(traced_walls), sum(traced_walls))
        layers["trace.wall_s"] = end_to_end(traced_walls, traced)["wall_s"]
        layers["trace.overhead_s"] = layers["trace.wall_s"] - report["end_to_end"]["wall_s"]
        report["per_layer"] = layers
        report["spans"] = {"file": os.path.relpath(span_file, ROOT), "count": len(tracer.span_start)}
        passes += traced
    report["attempted"] = sum(p.attempted for p in passes)
    report["failed"] = sum(p.failed for p in passes)
    report["errors"] = [e for p in passes for e in p.errors][:10]
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
