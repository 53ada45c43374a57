"""Repeat the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --seeds 1-10 [--workloads a,b] \
        [--seconds S] [--out perfbench/baseline.json --label NAME]

For every workload, runs run.py once per seed (untraced) and reports, per
end-to-end metric, the median, the quartiles from statistics.quantiles(n=4)
and the spread (third minus first quartile, over the median) next to the
metric's bound in BENCHMARK.json.  With --out, the set is appended to that
file together with the Python version, nproc and the load average before
and after it.
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


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _env() -> dict:
    return {"python": sys.version.split()[0], "nproc": os.cpu_count(),
            "loadavg": [round(x, 2) for x in os.getloadavg()]}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    ap.add_argument("--label", default="")
    args = ap.parse_args()
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}

    record = {"label": args.label, "seconds": args.seconds,
              "trace": args.trace, "env_before": _env(), "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        runs = []
        for seed in _seeds(args.seeds):
            began = time.monotonic()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            took = time.monotonic() - began
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and proc.returncode == 0 and last["correct"]
            runs.append({"seed": seed, "seconds": round(took, 1),
                         "attempted": last["attempted"],
                         "failed": last["failed"]})
            for name in bounds:
                values[name].append(last["metrics"][name]["value"])
        summary = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (med, med, med))
            spread = (q3 - q1) / med if med else float("nan")
            summary[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": spread, "bound": bounds[name],
                             "values": vals}
            bound = bounds[name]
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  over a third of the bound"
            print(f"{workload:13s} {name:30s} median {med:.6g} "
                  f"spread {spread:.4f} bound {bound}{flag}")
        record["workloads"][workload] = {"runs": runs, "metrics": summary}
        print(f"{workload:13s} runs took {[r['seconds'] for r in runs]} s, "
              f"failed {[r['failed'] for r in runs]}")
    record["env_after"] = _env()

    if args.out:
        sets = []
        if os.path.exists(args.out):
            with open(args.out, encoding="utf-8") as fh:
                sets = json.load(fh)
        sets.append(record)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(sets, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
