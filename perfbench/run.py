"""ntensor benchmark: one workload, end-to-end or per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload language --seed 1 --seconds 50 --trace 0

Set-up is timed ``SETUP_REPEATS`` times, each in a fresh interpreter, from
process start until the workload's inputs are ready, and the median is
reported.  The middle one of these interpreters goes on to run the closed
loop for ``--seconds``, so the set-up samples straddle the measurement.
BLAS and OpenMP threads are pinned to the CPUs this process may use.  The
last line of standard output is the result as one JSON object; the line
before it records the environment.  The full record, and with ``--trace 1``
every span, is also written under ``perfbench/results/``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import THREAD_VARS

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
WORKLOADS = ("language", "models")
SETUP_REPEATS = 7
# The whole run, set-up and verification included, must end well inside
# 180 seconds.
BUDGET_S = 170.0


def percentile(values, q: int) -> float:
    """The q-th percentile (exclusive method) of at least one value."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def _spawn(argv, env, deadline):
    """Run one worker; return its set-up seconds and its last output line."""
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv],
        stdout=subprocess.PIPE, text=True, env=env,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit("worker did not finish within the time budget")
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    lines = out.splitlines()
    ready = [line for line in lines if line.startswith("ready ")]
    if not ready:
        raise SystemExit("worker never reported ready")
    return float(ready[0].split()[1]) - start, lines[-1]


def _end_to_end(record: dict, setup: list) -> dict:
    lat = record["latencies_s"]
    return {
        "latency_p50_ms": {"value": 1e3 * percentile(lat, 50), "unit": "ms"},
        "latency_p90_ms": {"value": 1e3 * percentile(lat, 90), "unit": "ms"},
        "requests_per_s": {"value": len(lat) / sum(lat), "unit": "1/s"},
        # The median, not the minimum: README.md, "Stability".
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MB"},
    }


def _per_layer(record: dict) -> dict:
    return {name: {"value": v, "unit": u} for name, (v, u) in record["layers"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--heldout-seed", type=int, default=None,
        help="also verify requests built from this second seed, one not "
             "used while tuning a change",
    )
    args = parser.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S

    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        env[var] = threads
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)

    common = ["--workload", args.workload, "--seed", str(args.seed)]

    def setup_only():
        return _spawn([*common, "--seconds", "0", "--setup-only"], env, deadline)[0]

    setup = [setup_only() for _ in range(SETUP_REPEATS // 2)]
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    worker_args = [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.heldout_seed is not None:
        worker_args += ["--heldout-seed", str(args.heldout_seed)]
    if args.trace:
        worker_args += ["--spans-out", str(RESULTS / f"{args.workload}.spans.tsv")]
    setup_s, line = _spawn(worker_args, env, deadline)
    setup.append(setup_s)
    setup += [setup_only() for _ in range(SETUP_REPEATS - len(setup))]
    record = json.loads(line)
    record["setup_s"] = setup
    lat = record["latencies_s"]
    if not lat:
        raise SystemExit("no request completed; see the errors above")
    record["latency_ms"] = {
        "requests": len(lat),
        **{f"p{q}": 1e3 * percentile(lat, q) for q in (10, 25, 50, 75, 90)},
    }

    metrics = _per_layer(record) if args.trace else _end_to_end(record, setup)
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }
    record["result"] = result
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print("# env " + json.dumps(record["env"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
