"""Benchmark of rookposet: one workload, one seed, one result line.

Run from the root of a checkout:

    python3 rookbench/run.py --workload hasse --seed 1 --seconds 20 --trace 0

Workloads: hasse, oracle, beyond-horizon, chain-walk (see workloads.py and
BENCHMARK.json for what each one stresses and why).  The script measures
set-up in several fresh processes and takes the median.  It then runs
the workload in one more fresh process, so that peak RSS is the
workload's own.  It prints every metric by name and unit, and ends with
one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The host this was written on changes speed by up to 2x within seconds,
as other tenants load the cores.  So every time it reports is rescaled
to a nominal speed.  A short pure-Python calibration loop runs every
0.1 s, and each operation's time is multiplied by the nominal loop time
over the loop time measured around it.  Each operation is then taken at
its median over the passes of the job list.  The unscaled figures are
printed too.  See workloads.calibration_s and worker.end_to_end.

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json;
with --trace 1 they are its per-layer ones, from a traced run whose
spans are saved under rookbench/out/.  The exit code is nonzero if any
operation failed or the package cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "rookbench", "worker.py")
SETUP_SAMPLES = 7
TIMEOUT_S = 170

# One compute thread: numpy's BLAS would otherwise start one per core,
# and a second thread makes the matmul in build_poset depend on what
# else the machine runs.
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def spawn(args: argparse.Namespace, deadline: float, setup_only: bool) -> dict:
    cmd = [
        sys.executable, WORKER,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--t0", repr(time.clock_gettime(time.CLOCK_MONOTONIC)),
    ]
    if setup_only:
        cmd.append("--setup-only")
    done = subprocess.run(
        cmd,
        cwd=ROOT,
        env={**os.environ, **CHILD_ENV},
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
        check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="rookposet benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIMEOUT_S

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    # A discarded first process fills the bytecode cache, which an
    # installed package would already have.
    spawn(args, deadline, setup_only=True)
    setups = [spawn(args, deadline, setup_only=True) for _ in range(SETUP_SAMPLES - 1)]
    report = spawn(args, deadline, setup_only=False)
    setups.append(report)
    raw_setup_s = statistics.median(s["raw_setup_s"] for s in setups)

    e2e = report["end_to_end"]
    values = {**e2e, "setup_s": statistics.median(s["setup_s"] for s in setups),
              **report.get("per_layer", {})}
    attempted, failed = report["attempted"], report["failed"]

    print(f"workload {args.workload}, seed {args.seed}, seconds {args.seconds:g}, trace {args.trace}")
    unscaled = {"setup_s": raw_setup_s, "wall_s": e2e["raw_wall_s"],
                "op_p50_ms": e2e["raw_op_p50_ms"], "calibration_ms": e2e["calibration_ms"]}
    print("info: " + json.dumps({"inputs": report["inputs"], "machine": report["machine"],
                                 "unscaled": unscaled, "spans": report.get("spans")}))
    print(f"setup_s {values['setup_s']:.4f} s  (median of {len(setups)} fresh processes; "
          f"unscaled {raw_setup_s:.4f} s)")
    print(f"passes: {e2e['passes']}, wall " + ", ".join(f"{t:.3f}" for t in e2e["pass_wall_s"])
          + f" s; calibration loop median {e2e['calibration_ms']:.3f} ms")
    print(f"unscaled: wall_s {e2e['raw_wall_s']:.4f} s, op_p50_ms {e2e['raw_op_p50_ms']:.4f} ms")
    print(f"op latency: {e2e['ops']} operations, each the median of {e2e['passes']} passes; "
          f"{e2e['beyond_p95']} beyond p95")
    print(f"error_rate {failed / attempted:g}  ({failed} failed of {attempted} operations)")
    for message in report["errors"]:
        print(f"  failure: {message}")
    metrics = {}
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{name} = {values[name]:.6g} {unit}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, RuntimeError, subprocess.TimeoutExpired, KeyError, ValueError) as exc:
        print(f"rookbench: {exc!r}", file=sys.stderr)
        sys.exit(2)
