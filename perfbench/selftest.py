"""Self-test of the benchmark's tracing, one traced run per workload.

    python3 perfbench/selftest.py

Checks that every wrapped function exists and sees at least one call on some
workload, that tracing leaves every output digest unchanged, that every
wrapped attribute is restored afterwards, and that the layers' self times
explain the traced wall time.  Prints the calls per span and workload.
Exits 1 on any failure.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import ROOT, _check, _clean_env  # noqa: E402
from workloads import LAYERS_REACHED, WORKLOADS  # noqa: E402


def main() -> int:
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        digests = json.load(fh)
    problems: list[str] = []
    calls: dict[str, dict[str, int]] = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, "-s", os.path.join(HERE, "worker.py"),
             "--workload", workload, "--seed", "1", "--trace", "1",
             "--spawned-at", repr(time.clock_gettime(time.CLOCK_MONOTONIC))],
            cwd=ROOT, env=_clean_env(), capture_output=True, text=True)
        if proc.returncode != 0:
            problems.append(f"{workload}: worker failed: {proc.stderr.strip()}")
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failure = _check(result, digests[workload], traced=True)
        if failure:
            problems.append(f"{workload}: {failure}")
        if result["missing"]:
            problems.append(f"{workload}: targets missing {result['missing']}")
        for span, n in result["span_calls"].items():
            calls.setdefault(span, {})[workload] = n
        print(f"{workload}: traced wall {result['wall_s']:.3f} s, explained "
              f"{result['layers']['trace.explained_frac']:.4f}, layers "
              f"{', '.join(LAYERS_REACHED[workload])}")

    print(f"\n{'span':42s} " + " ".join(f"{w:>12s}" for w in WORKLOADS))
    for span, per in calls.items():
        print(f"{span:42s} "
              + " ".join(f"{per.get(w, 0):12d}" for w in WORKLOADS))
        if not any(per.values()):
            problems.append(f"{span}: no call on any workload")
    for line in problems:
        print(f"FAIL {line}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
