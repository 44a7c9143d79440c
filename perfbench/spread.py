"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload betti --seeds 1-10 --seconds 30

Runs `run.py --trace 0` once per seed, one run at a time, and prints for each
metric its median, its quartiles (`statistics.quantiles(values, n=4)`)
and the distance between them as a share of the median, together with
each run's wall time and failed share. The raw figures, before the
rescaling by the reference kernel, are listed as `raw_*`. The figures are also written to
`.perfbench-out/spread-<workload>-<first seed>-<last seed>.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, required=True, help="e.g. 1-10 or 3,7,11")
    parser.add_argument("--seconds", default="30")
    args = parser.parse_args()

    runs = []
    for seed in args.seeds:
        t0 = time.perf_counter()
        child = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        wall = time.perf_counter() - t0
        if child.returncode != 0:
            print(child.stderr, file=sys.stderr)
            return 1
        result = json.loads(child.stdout.strip().splitlines()[-1])
        result["seed"], result["wall_s"] = seed, wall
        raw = re.search(r"raw ops/s ([\d.]+), p50 ([\d.]+) ms, p90 ([\d.]+) ms", child.stderr)
        if raw:
            for name, value in zip(("raw_ops_per_s", "raw_latency_p50_ms", "raw_latency_p90_ms"),
                                   raw.groups()):
                result["metrics"][name] = {"value": float(value), "unit": "raw"}
        runs.append(result)
        share = result["failed"] / result["attempted"]
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed share={share:.6f} wall {wall:.1f} s "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)

    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med if med else 0.0}
        print(f"{name:>28}: median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"iqr/median {summary[name]['iqr_share']:.4f}")
    print(f"wall per run: max {max(r['wall_s'] for r in runs):.1f} s, "
          f"mean {statistics.mean(r['wall_s'] for r in runs):.1f} s; "
          f"failed shares {sorted({r['failed'] / r['attempted'] for r in runs})}")
    os.makedirs(os.path.join(ROOT, ".perfbench-out"), exist_ok=True)
    path = os.path.join(ROOT, ".perfbench-out",
                        f"spread-{args.workload}-{args.seeds[0]}-{args.seeds[-1]}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"runs": runs, "summary": summary}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
