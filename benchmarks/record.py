"""Record a baseline: every workload over several seeds, untraced, plus one
traced run each, with the environment the numbers were taken in.

    python3 benchmarks/record.py --out benchmarks/baseline.json --seeds 1-10

Each run measures BENCHMARK.json's run_seconds.  Prints, per workload and
end-to-end metric, the median, the quartiles and their distance as a share
of the median, and writes all of it, every run's values and the unscaled
times included, to a fresh ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """(result object, unscaled times) of one run."""
    scratch = os.path.join(ROOT, ".bench_tmp", f"record-{os.getpid()}")
    try:
        result, _, unscaled = run.run(workload, seed, seconds, trace, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return result, unscaled


def src_lines() -> int:
    total = 0
    for dirpath, _, names in os.walk(os.path.join(ROOT, "src", "sandpiles")):
        for name in names:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as fh:
                    total += sum(1 for _ in fh)
    return total


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", default="1-10", help="first-last")
    args = parser.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    report = {
        "recorded": time.strftime("%Y-%m-%d", time.gmtime()),
        "environment": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "src_lines": src_lines(),
        },
        "seconds": seconds,
        "seeds": seeds,
        "workloads": {},
    }
    for name in workloads.WORKLOADS:
        runs = [run_once(name, seed, seconds, 0) for seed in seeds]
        metrics = {}
        for metric, entry in runs[0][0]["metrics"].items():
            metrics[metric] = dict(unit=entry["unit"], **summarize(
                [result["metrics"][metric]["value"] for result, _ in runs]))
            m = metrics[metric]
            print(f"{name:<14} {metric:<16} median {m['median']:.6g} {m['unit']:<4} "
                  f"q1 {m['q1']:.6g} q3 {m['q3']:.6g} spread {m['spread']:.4f}", flush=True)
        unscaled = {metric: summarize([u[metric] for _, u in runs]) for metric in runs[0][1]}
        traced, _ = run_once(name, seeds[0], seconds, 1)
        report["workloads"][name] = {
            "correct": all(result["correct"] for result, _ in runs) and traced["correct"],
            "attempted": sum(result["attempted"] for result, _ in runs),
            "failed": sum(result["failed"] for result, _ in runs),
            "end_to_end": metrics,
            "unscaled": unscaled,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
