"""Run the benchmark over many seeds and report how steady each metric is.

    python3 rookbench/spread.py --seeds 1-10 [--workloads hasse,oracle]
                                [--trace 0|1] [--out FILE]

For every workload and seed it runs run.py for BENCHMARK.json's
run_seconds.  For each metric it prints the median and the spread:
the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median.  A
spread should stay below a third of the metric's bound.  With --out it
writes the values, the input hash of every seed, and the machine to a
JSON file; comparing those hashes shows that two commits ran identical
inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_range(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, os.path.join("rookbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited with {done.returncode}:\n{done.stdout}")
    info = next(json.loads(line[len("info: "):]) for line in lines if line.startswith("info: "))
    return info, json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {"run_seconds": spec["run_seconds"], "trace": args.trace, "seeds": args.seeds,
               "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        hashes = {}
        for seed in args.seeds:
            info, result = run_once(workload, seed, spec["run_seconds"], args.trace)
            if not result["correct"]:
                raise RuntimeError(f"{workload} seed {seed}: {result}")
            summary["machine"] = info["machine"]
            hashes[seed] = info["inputs"]["sha256"]
            for name, value in info["unscaled"].items():
                values.setdefault(f"unscaled.{name}", []).append(value)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in list(result["metrics"].items())[:6]), flush=True)
        stats = {}
        for name, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median,) * 3
            spread = (q3 - q1) / median if median else 0.0
            stats[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            if name in bounds:
                bound = bounds[name]
                verdict = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "OVER")
                steady &= verdict == "ok" or name == "setup_s"
                print(f"  {name:12s} median {median:10.4f}  spread {spread:.3f}  "
                      f"bound {bound}  {verdict}")
        summary["workloads"][workload] = {"input_sha256": hashes, "metrics": stats}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
