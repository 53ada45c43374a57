"""One run of one workload in a fresh interpreter; run.py starts it.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 \
        --spawned-at T [--setup-only]

T is CLOCK_MONOTONIC just before the parent started this process, so
setup_s covers interpreter start, `import fscat` and the workload's set-up.
Prints one JSON line: timings, peak RSS, the output digest and, when traced,
the per-layer metrics and the tracer's self-checks.  --setup-only stops
after set-up and prints setup_s alone.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import fscat  # noqa: E402,F401  (imported inside the set-up window)
from tracer import Tracer  # noqa: E402
from workloads import LAYERS_REACHED, WORKLOADS  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    workload = WORKLOADS[args.workload]

    state = workload.setup(args.seed)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    if args.setup_only:
        print(json.dumps({"setup_s": ready - args.spawned_at}))
        return

    tracer = Tracer().install() if args.trace else None
    try:
        start = time.perf_counter()
        out = workload.solve(state)
        wall = time.perf_counter() - start
    finally:
        unrestored = tracer.close() if tracer else []

    result = {
        "wall_s": wall,
        "setup_s": ready - args.spawned_at,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "digest": hashlib.sha256(out.encode()).hexdigest(),
    }
    if tracer:
        result["layers"] = tracer.metrics(wall)
        result["unrestored"] = unrestored
        result["missing"] = tracer.missing
        result["unreached"] = [layer for layer in LAYERS_REACHED[args.workload]
                               if not tracer.entries[layer]]
        result["span_calls"] = {span: tracer.calls[span]
                                for span in tracer.spans}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
