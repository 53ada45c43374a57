"""The fscat benchmark: one workload, timed end to end or layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each run of the workload happens in a fresh
single-threaded interpreter (worker.py), as a closed loop with one client: the
next run starts only when the previous one has ended.  Runs are started
until the next one would end after S seconds, and at least MIN_RUNS of them.
Untraced, each full run is preceded by SETUP_RUNS_PER_SOLVE runs that stop
after set-up, so that setup_s has more samples spread over the S seconds.
Runs alternate between the Dixon seeds N and N + 1; every output must match
the digest recorded in digests.json, whatever the seed.

--trace 0 reports the end-to-end metrics (medians over the runs).  --trace 1
alternates untraced and traced runs and reports the per-layer metrics
(medians over the traced runs) plus trace.overhead_s, the traced minus the
untraced median wall time.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

MIN_RUNS = {0: 3, 1: 4}
SETUP_RUNS_PER_SOLVE = 2  # untraced: set-up-only runs before each full run
DEADLINE_S = 165        # no run starts after this; all must end within 180 s
EXPLAINED_TOLERANCE = 0.03

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER_UNITS = {"_s": "s", "_frac": "ratio", "_ratio": "ratio"}


def _unit(metric: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if metric.endswith(suffix):
            return unit
    return "count"


def _clean_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "FSCAT_"))}
    env["PYTHONHASHSEED"] = "0"
    return env


def _environment() -> str:
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    return (f"python {sys.version.split()[0]}, nproc {os.cpu_count()}, "
            f"loadavg {load}")


def _run_child(workload: str, seed: int, trace: int, env, timeout: float,
               setup_only: bool = False):
    """One run in a fresh interpreter; returns (result dict, failure text)."""
    cmd = [sys.executable, "-s", os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)] + (["--setup-only"] if setup_only else [])
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned)],
                              cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        return None, f"exit {proc.returncode}: {tail[0]}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), None
    except (json.JSONDecodeError, IndexError):
        return None, "no result line"


def _check(result: dict, expected: str, traced: bool) -> str | None:
    if result["digest"] != expected:
        return f"digest {result['digest'][:12]} != recorded {expected[:12]}"
    if not traced:
        return None
    if result["unrestored"]:
        return f"attributes left wrapped: {result['unrestored']}"
    if result["unreached"]:
        return f"no span recorded in layers {result['unreached']}"
    explained = result["layers"]["trace.explained_frac"]
    if abs(explained - 1) > EXPLAINED_TOLERANCE:
        return f"layer self times explain {explained:.3f} of the traced wall"
    return None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "fscat", "__init__.py")):
        print(f"error: no fscat sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        expected = json.load(fh)[args.workload]
    env = _clean_env()
    start = time.monotonic()

    # compile the bytecode caches once, as an installed package has them
    warm = subprocess.run(
        [sys.executable, "-s", "-c",
         "import sys; sys.path[:0] = sys.argv[1:]; "
         "import fscat, fscat.cli, tracer, workloads",
         os.path.join(ROOT, "src"), HERE],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    if warm.returncode != 0:
        print(f"error: cannot import fscat: {warm.stderr.strip()}",
              file=sys.stderr)
        return 2

    seeds = (args.seed, args.seed + 1)
    plain: list[dict] = []
    traced: list[dict] = []
    setups: list[float] = []
    failures: list[str] = []
    missing: set[str] = set()
    last = 0.0
    k = solves = 0
    while not failures:
        elapsed = time.monotonic() - start
        if solves >= MIN_RUNS[args.trace] and elapsed + last > args.seconds:
            break
        if elapsed > DEADLINE_S:
            failures.append(f"run {k + 1}: not started, {elapsed:.0f} s in")
            break
        trace = args.trace and solves % 2
        seed = seeds[(solves // (1 + args.trace)) % 2]
        for _ in range(0 if args.trace else SETUP_RUNS_PER_SOLVE):
            result, failure = _run_child(args.workload, seed, 0, env,
                                         timeout=60, setup_only=True)
            k += 1
            if failure is not None:
                failures.append(f"run {k} (set-up only): {failure}")
                break
            setups.append(result["setup_s"])
        if failures:
            break
        result, failure = _run_child(args.workload, seed, trace, env,
                                     timeout=175 - elapsed)
        last = time.monotonic() - start - elapsed
        k += 1
        solves += 1
        if failure is None:
            missing.update(result.get("missing", ()))
            failure = _check(result, expected, bool(trace))
        if failure is not None:
            failures.append(f"run {k} (seed {seed}, trace {trace}): {failure}")
            continue
        (traced if trace else plain).append(result)

    attempted = k
    failed = len(failures)
    for span in sorted(missing):
        print(f"warning: {span} no longer exists; not traced", file=sys.stderr)
    for line in failures:
        print(f"failed: {line}", file=sys.stderr)

    metrics: dict[str, dict] = {}
    if args.trace:
        if traced and plain:
            names = traced[0]["layers"]
            for name in names:
                value = statistics.median(r["layers"][name] for r in traced)
                metrics[name] = {"value": value, "unit": _unit(name)}
            overhead = (statistics.median(r["wall_s"] for r in traced)
                        - statistics.median(r["wall_s"] for r in plain))
            metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    elif plain:
        setups += [r["setup_s"] for r in plain]
        for name, unit in END_TO_END.items():
            samples = setups if name == "setup_s" else [r[name] for r in plain]
            metrics[name] = {"value": statistics.median(samples),
                             "unit": unit}

    print(f"workload {args.workload}, seeds {seeds[0]} and {seeds[1]}, "
          f"{attempted} runs in {time.monotonic() - start:.1f} s "
          f"(closed loop, one client, {len(traced)} traced)")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(f"  failed_frac {failed}/{attempted} = {failed / attempted:.3g}")
    print(f"  env: {_environment()}")
    print(json.dumps({"correct": failed == 0 and bool(metrics),
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
