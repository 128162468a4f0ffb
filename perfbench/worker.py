"""One workload in a fresh interpreter.

``run.py`` starts this script.  It imports ntensor from the checkout's
``src``, builds the workload's inputs from the seed and prints ``ready``
with the system-wide monotonic clock, so that ``run.py`` can time set-up
from process start.  Unless ``--setup-only`` is given it then runs the
closed loop, verifies sampled requests against the oracles and prints its
result record as one JSON line: raw latencies, counts, peak RSS, the
environment and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Requests made on the held-out seed's inputs, each verified against the oracles.
HELDOUT_REQUESTS = 2
# Checked but untimed requests before timing starts, so that lazy imports and
# first-call costs inside the package are paid before measuring.
WARMUP_REQUESTS = 1


def _import_package():
    sys.path.insert(0, str(SRC))
    import ntensor

    if not Path(ntensor.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"ntensor was imported from {ntensor.__file__}, not from {SRC}")


def _environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_pins": {k: os.environ.get(k) for k in THREAD_VARS},
        "seed": args.seed,
        "heldout_seed": args.heldout_seed,
    }


class Loop:
    """The closed loop: one client, the next request sent when the previous
    one returns.  Inputs are prepared and outputs checked outside the timed
    call; a request that raises or fails a check counts as failed."""

    def __init__(self, workload):
        self.workload = workload
        self.next = 0
        self.attempted = 0
        self.failed = 0
        self.kept = []  # (inputs, output) of the first and the latest request

    def _fail(self, message: str):
        self.failed += 1
        print(f"request failed: {message}", file=sys.stderr)

    def run(self, seconds: float, tracer=None, count: int = None):
        """Latencies in seconds of the requests made until ``seconds`` have
        passed or ``count`` requests were made, as
        ``(untraced, traced)``.  With a tracer every other request is traced,
        so that both kinds meet the same machine conditions."""
        wl = self.workload
        clock = time.perf_counter
        latencies = ([], [])
        deadline = clock() + seconds
        stop = math.inf if count is None else self.next + count
        while self.next < stop and clock() < deadline:
            inputs = wl.prepare(self.next)
            traced = tracer is not None and self.next % 2 == 1
            self.next += 1
            self.attempted += 1
            if traced:
                tracer.install()
            t0 = clock()
            span = tracer.begin() if traced else None
            try:
                out = wl.request(inputs)
            except Exception:  # the loop must go on; the failure is counted
                self._fail(traceback.format_exc())
                continue
            finally:
                if traced:
                    tracer.end(span)
                elapsed = clock() - t0
                if traced:
                    tracer.uninstall()
            latencies[traced].append(elapsed)
            error = wl.check(inputs, out)
            if error:
                self._fail(error)
            elif len(self.kept) < 2:
                self.kept.append((inputs, out))
            else:
                self.kept[1] = (inputs, out)
        return latencies

    def verify_kept(self):
        """Verify the kept requests, each distinct input once."""
        verified = []
        for inputs, out in self.kept:
            if any(inputs == seen for seen in verified):
                continue
            verified.append(inputs)
            error = self.workload.verify(inputs, out)
            if error:
                self._fail(error)


def _p50_ms(latencies) -> float:
    return 1e3 * statistics.median(latencies)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--heldout-seed", type=int, default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)

    _import_package()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    # Set-up objects live for the whole run; keep the collector off them.
    gc.collect()
    gc.freeze()
    print(f"ready {time.clock_gettime(time.CLOCK_MONOTONIC)!r}", flush=True)
    if args.setup_only:
        return 0

    loop = Loop(workload)
    loop.run(math.inf, count=WARMUP_REQUESTS)
    record = {"workload": args.workload, "env": _environment(args)}
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        t0 = time.perf_counter()
        untraced, traced = loop.run(args.seconds, tracer)
        record["layers"] = tracer.metrics(_p50_ms(untraced), _p50_ms(traced))
        if args.spans_out:
            tracer.write(args.spans_out, t0)
        record["latencies_s"] = untraced
        record["traced_latencies_s"] = traced
    else:
        record["latencies_s"] = loop.run(args.seconds)[0]
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    loop.verify_kept()

    if args.heldout_seed is not None:
        heldout = Loop(WORKLOADS[args.workload](args.heldout_seed))
        record["heldout_latencies_s"] = heldout.run(math.inf, count=HELDOUT_REQUESTS)[0]
        heldout.verify_kept()
        loop.attempted += heldout.attempted
        loop.failed += heldout.failed

    record.update(attempted=loop.attempted, failed=loop.failed)
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
