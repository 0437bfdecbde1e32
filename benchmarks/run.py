"""Benchmark of the sandpiles CLI: one workload per run, seeded inputs,
end-to-end metrics (or, with --trace 1, per-layer metrics), every output
checked.  Run from the root of a checkout:

    python3 benchmarks/run.py --workload survey-small --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checker  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from calibration import calibrate  # noqa: E402

SETUP_REPEATS = 9
WORKER_TIMEOUT_S = 150
# About calibration.calibrate() on the baseline machine.  Times are reported
# at this interpreter speed: each is scaled by REFERENCE_CALIBRATION_S over
# the calibration measured next to it, because machines of this class change
# speed by a third within minutes while the ratio stays put.
REFERENCE_CALIBRATION_S = 0.014
END_TO_END = [
    ("setup_s", "s"),
    ("requests_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("sandpiles_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
]


def nearest_rank(sorted_values: list[float], q: float) -> tuple[float, int]:
    """(value at percentile q by nearest rank, samples beyond it)."""
    rank = max(1, math.ceil(q * len(sorted_values) - 1e-9))
    return sorted_values[rank - 1], len(sorted_values) - rank


def worker_command(workload, seed, seconds, trace, directory, setup_only=False):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT, "--dir", directory,
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    return cmd + (["--setup-only"] if setup_only else [])


def start_worker(cmd, directory):
    """Start a worker; return (process, seconds from start to READY)."""
    os.makedirs(directory)
    err = open(os.path.join(directory, "worker-stderr.txt"), "w")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, text=True)
    err.close()
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker failed before READY: {stderr_of(directory)}")
    return proc, ready


def stderr_of(directory) -> str:
    with open(os.path.join(directory, "worker-stderr.txt")) as fh:
        return fh.read()[-2000:]


def finish(proc, directory):
    """Wait for a worker to exit; kill it after WORKER_TIMEOUT_S."""
    try:
        proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker ran over {WORKER_TIMEOUT_S} s: {stderr_of(directory)}")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {stderr_of(directory)}")


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def check_records(records: list[dict]) -> tuple[int, int, list[dict]]:
    """Check every record; return (failed, wrong, details of the failures).
    Identical requests (the verify suites) are checked once and their
    repeats compared with the first output."""
    failed = wrong = 0
    problems = []
    verdict_of: dict[tuple, tuple[str, str | None]] = {}
    inputs: dict[str, object] = {}

    def load(path):
        if path not in inputs:
            inputs[path] = read_json(path)
        return inputs[path]

    for r in records:
        if r["code"] != 0:
            problem, is_wrong = r["error"] or f"exit code {r['code']}", False
        else:
            argv = r["argv"]
            graph = load(argv[argv.index("--graph") + 1]) if "--graph" in argv else None
            sigma = (load(argv[argv.index("--sandpile") + 1])["values"]
                     if "--sandpile" in argv else None)
            key = tuple(argv)
            seen = verdict_of.get(key)
            if seen is not None and seen[0] == r["stdout"]:
                problem = seen[1]
            else:
                try:
                    problem = checker.output_problem(argv, graph, sigma, r["stdout"])
                except (checker.CheckError, ValueError, KeyError, TypeError,
                        IndexError, AttributeError) as exc:
                    problem = f"output could not be checked: {type(exc).__name__}: {exc}"
                verdict_of.setdefault(key, (r["stdout"], problem))
            is_wrong = problem is not None
        r["ok"] = problem is None
        if problem is not None:
            failed += 1
            wrong += is_wrong
            problems.append({"argv": r["argv"], "problem": problem})
    return failed, wrong, problems


def sandpiles_in(record: dict) -> int:
    """Sandpiles the program examined in a successful request."""
    command = record["argv"][0]
    if command == "survey":
        return json.loads(record["stdout"])["total"]
    if command == "verify":
        summary = json.loads(record["stdout"].splitlines()[-1])
        return summary["checks"] if summary["suite"] == "fixtures" else 0
    return 0 if command == "info" else 1


def oracle_checks_in(record: dict) -> int:
    if record["argv"][0] != "verify":
        return 0
    return json.loads(record["stdout"].splitlines()[-1])["checks"]


def end_to_end(records, summary, setup_samples, tail_q) -> tuple[dict, dict, list[str]]:
    """End-to-end metrics of the untraced requests: (values at the reference
    speed, the same unscaled, report lines).

    Each latency is scaled by the calibration timed on either side of it.
    Throughput is the requests served over the time of all requests, so a
    slowdown of any request shows in it; unscaled, it is the requests served
    over the measured wall time."""
    ok = [r for r in records if r["ok"]]

    def scaled(r):
        return r["latency_s"] * REFERENCE_CALIBRATION_S / r["calibration_s"]

    def sorted_ms(latency_of):
        return sorted(latency_of(r) * 1000 for r in ok) or [0.0]

    busy_s = sum(scaled(r) for r in records) or math.inf
    latencies = sorted_ms(scaled)
    tail, beyond = nearest_rank(latencies, tail_q)
    values = {
        "setup_s": statistics.median(s for s, _ in setup_samples),
        "requests_per_s": len(ok) / busy_s,
        "latency_p50_ms": statistics.median(latencies),
        "latency_tail_ms": tail,
        "sandpiles_per_s": sum(sandpiles_in(r) for r in ok) / busy_s,
        "peak_rss_mib": summary["peak_rss_kib"] / 1024,
    }
    raw_latencies = sorted_ms(lambda r: r["latency_s"])
    unscaled = {
        "setup_s": statistics.median(r for _, r in setup_samples),
        "requests_per_s": len(ok) / summary["window_s"],
        "latency_p50_ms": statistics.median(raw_latencies),
        "latency_tail_ms": nearest_rank(raw_latencies, tail_q)[0],
    }
    calibrations = [r["calibration_s"] for r in records]
    notes = [
        f"times at the reference speed: scaled by {REFERENCE_CALIBRATION_S * 1000:.1f} ms over "
        f"the calibration next to them (median here {statistics.median(calibrations) * 1000:.2f}"
        " ms); unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in unscaled.items()),
        f"setup_s: median of {len(setup_samples)} set-ups "
        f"({', '.join(f'{s:.3f}' for s, _ in setup_samples)})",
        f"requests_per_s: {len(ok)} requests served in {busy_s:.3f} s at the reference speed "
        f"({summary['window_s']:.3f} s measured)",
        f"latency_tail_ms: p{tail_q * 100:.1f} of {len(latencies)} samples, {beyond} beyond it",
        f"checks_per_s {sum(oracle_checks_in(r) for r in ok) / busy_s:.6g} 1/s "
        "(oracle checks; verify requests only)",
        f"error_rate {(len(records) - len(ok)) / max(1, len(records)):.4f} ratio "
        f"({len(records) - len(ok)} failed of {len(records)} attempted)",
    ]
    return values, unscaled, notes


def run(workload: str, seed: int, seconds: float, trace: int, scratch: str):
    """Run one workload; return (result object, report lines, the unscaled
    end-to-end times)."""
    spec = workloads.WORKLOADS[workload]
    setup_samples = []  # (scaled, unscaled) seconds
    before = calibrate()
    for k in range(SETUP_REPEATS):  # processes that set up and exit
        directory = os.path.join(scratch, f"setup-{k}")
        proc, ready = start_worker(worker_command(
            workload, seed, seconds, trace, directory, setup_only=True), directory)
        finish(proc, directory)
        after = calibrate()
        setup_samples.append((ready * 2 * REFERENCE_CALIBRATION_S / (before + after), ready))
        before = after
    directory = os.path.join(scratch, "run")
    proc, _ = start_worker(worker_command(workload, seed, seconds, trace, directory), directory)
    finish(proc, directory)

    summary = read_json(os.path.join(directory, "summary.json"))
    with open(os.path.join(directory, "results.jsonl")) as fh:
        records = [json.loads(line) for line in fh]
    checked = time.perf_counter()
    failed, wrong, problems = check_records(records)
    checked = time.perf_counter() - checked
    untraced = [r for r in records if r["phase"] == "untraced"]
    values, unscaled, notes = end_to_end(untraced, summary, setup_samples, spec.tail_q)
    lines = [f"workload {workload} (seed {seed}): {spec.why}",
             f"closed loop, 1 client, {len(untraced)} requests in {summary['blocks']} blocks, "
             f"{summary['window_s']:.3f} s measured; outputs checked in {checked:.3f} s"]
    lines += [f"{name:<18} {values[name]:.6g} {unit}" for name, unit in END_TO_END] + notes
    lines += [f"FAILED {p['problem']}: {' '.join(p['argv'])}" for p in problems[:20]]
    if trace:
        layer = summary["per_layer"]
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in tracing.PER_LAYER}
        lines += [f"traced: {summary['traced_window_s']:.3f} s for the same requests, "
                  f"overhead {layer['trace.overhead_share']:.4f}; "
                  f"absent functions: {', '.join(summary['absent']) or 'none'}"]
        lines += [f"{name:<48} {layer[name]:.6g} {unit}" for name, unit in tracing.PER_LAYER]
    else:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    result = {"correct": wrong == 0, "attempted": len(records), "failed": failed,
              "metrics": metrics}
    return result, lines, unscaled


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "sandpiles", "cli.py")):
        print(f"error: no sandpiles sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    scratch = os.path.join(ROOT, ".bench_tmp", f"{os.getpid()}")
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            result, lines, _ = run(name, args.seed, args.seconds, args.trace,
                                os.path.join(scratch, name))
            print("\n".join(lines), flush=True)
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            prefix = f"{name}." if len(names) > 1 else ""
            combined["metrics"].update(
                {prefix + k: v for k, v in result["metrics"].items()})
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):  # only when empty: other runs may use it
            os.rmdir(os.path.dirname(scratch))
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
