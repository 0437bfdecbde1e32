"""The workload process: one client driving ``sandpiles.cli.main`` in a closed
loop, in process, until the measured time reaches the target.

Run by run.py; prints READY once the first block's inputs are written, then
appends one JSON record per request to ``results.jsonl`` and writes
``summary.json`` in the working directory.

    python3 benchmarks/worker.py --root . --dir DIR --workload NAME --seed N \\
        --seconds S --trace 0|1 [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
from time import perf_counter

import tracing
import workloads
from calibration import Calibrator


def run_request(main, argv: list[str]) -> dict:
    """Call the CLI once.  A non-zero exit, an argparse exit or an escaped
    exception is recorded, never raised."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse; sys.exit() without a code is success
            code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a traceback the CLI let escape
            code, error = None, f"{type(exc).__name__}: {exc}"
        latency = perf_counter() - start
    return {"argv": argv, "code": code, "error": error, "latency_s": latency,
            "stdout": out.getvalue()}


def closed_loop(main, requests: list[tuple[str, list[str]]]) -> list[dict]:
    """Send each (slot, argv) request after the previous one returns."""
    records = [run_request(main, argv) for _, argv in requests]
    for record, (slot, _) in zip(records, requests):
        record["slot"] = slot
    return records


def measure(cli, blocks, next_block, seconds: float, tracer, results, calibrate) -> dict:
    """Run whole blocks until the measured time reaches ``seconds``; write one
    JSON line per request to ``results``; return the run summary.
    ``calibrate()`` is timed before the first request of a block and after
    each request, outside the measured time; a request's calibration is the
    mean of the two on either side of it, so that it follows the machine's
    speed from one request to the next.

    With a tracer, each block is repeated at once with tracing on, so both
    runs see the same machine state, and half the time is measured untraced
    to stay within the budget."""

    def record(records, block, phase):
        for r in records:
            r.update(block=block, phase=phase)
            results.write(json.dumps(r) + "\n")

    target = seconds / 2 if tracer is not None else seconds
    window = traced_window = 0.0
    stdout_bytes = traced_requests = 0
    while True:
        index = len(blocks) - 1
        before = calibrate()
        records = []
        for request in blocks[-1]:
            start = perf_counter()
            records += closed_loop(cli.main, [request])
            window += perf_counter() - start
            after = calibrate()
            records[-1]["calibration_s"] = (before + after) / 2
            before = after
        record(records, index, "untraced")
        if tracer is not None:
            tracer.install()
            try:
                start = perf_counter()
                # look main up per call so that the wrapped version is used
                records = closed_loop(lambda a: cli.main(a), blocks[-1])
                traced_window += perf_counter() - start
            finally:
                tracer.uninstall()
            traced_requests += len(records)
            stdout_bytes += sum(len(r["stdout"].encode()) for r in records)
            record(records, index, "traced")
        if window >= target:
            break
        blocks.append(next_block(len(blocks)))
    summary = {
        "window_s": window,
        "blocks": len(blocks),
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        metrics, absent = tracing.per_layer(
            tracer, traced_requests, stdout_bytes, traced_window / window - 1)
        summary.update(traced_window_s=traced_window, per_layer=metrics, absent=absent,
                       observer_errors=tracer.observer_errors)
    return summary


def load_package(root: str):
    """Import sandpiles from the checkout's src/, never from elsewhere."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import sandpiles.cli

    if not os.path.abspath(sandpiles.cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"sandpiles was imported from {sandpiles.cli.__file__}, not {src}")
    return sandpiles.cli


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    for name in ("--root", "--dir", "--workload"):
        parser.add_argument(name, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    cli = load_package(args.root)
    source = workloads.blocks(args.workload, args.seed)

    def next_block(index: int) -> list[tuple[str, list[str]]]:
        directory = os.path.join(args.dir, f"b{index:03d}")
        os.makedirs(directory)
        return [(r.meta["slot"], workloads.materialize(r, directory, i))
                for i, r in enumerate(next(source))]

    blocks = [next_block(0)]
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = tracing.Tracer() if args.trace else None
    with open(os.path.join(args.dir, "results.jsonl"), "w") as results, Calibrator() as calibrate:
        summary = measure(cli, blocks, next_block, args.seconds, tracer, results, calibrate)
    with open(os.path.join(args.dir, "summary.json"), "w") as fh:
        json.dump(summary, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
