"""Steadiness check: run workloads over many seeds and report the spread.

    python3 perfbench/steady.py --seeds 1-10 --out perfbench/out/set-a.json
    python3 perfbench/steady.py --compare perfbench/out/set-a.json perfbench/out/set-b.json
    python3 perfbench/steady.py --traced-twice --seeds 1

For each workload and end-to-end metric it prints the median over the seeds
and the distance between the first and third quartile as a share of the
median, next to the bound in BENCHMARK.json.  --compare prints how far the
second set's medians moved from the first's.  --traced-twice runs every
workload traced twice per seed and reports any count that differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m for m in SPEC["end_to_end"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace),
    ]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["wall_s"] = time.perf_counter() - start
    if not trace:  # keep the summary line: raw figures and reference pass
        result["summary"] = json.loads(lines[-2])
    return result


def spread(values: list[float]) -> float:
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def summarize(results: dict) -> None:
    for workload, runs in results.items():
        shares = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        wall = max(r["wall_s"] for r in runs)
        print(f"{workload}: {len(runs)} runs, correct={correct}, failed shares {sorted(shares)}, "
              f"longest run {wall:.1f} s")
        for name, spec in BOUNDS.items():
            values = [r["metrics"][name]["value"] for r in runs]
            print(f"  {name:14s} median {statistics.median(values):12.6g} {spec['unit']:5s} "
                  f"IQR/median {spread(values):.3f} (bound {spec['bound']})")


def compare(path_a: str, path_b: str) -> None:
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    for workload in a:
        for name, spec in BOUNDS.items():
            ma = statistics.median(r["metrics"][name]["value"] for r in a[workload])
            mb = statistics.median(r["metrics"][name]["value"] for r in b[workload])
            worse = (mb - ma) / ma if spec["better"] == "lower" else (ma - mb) / ma
            flag = "ok" if worse <= spec["bound"] else "WORSE THAN BOUND"
            print(f"{workload:14s} {name:14s} {ma:12.6g} -> {mb:12.6g}  worse by {worse:+.3f}  {flag}")


def traced_twice(seeds: list[int]) -> bool:
    same = True
    for workload in WORKLOADS:
        for seed in seeds:
            first, second = (run_once(workload, seed, 1)["metrics"] for _ in range(2))
            counts = [k for k, m in first.items() if m["unit"] == "count"]
            diff = [k for k in counts if first[k]["value"] != second[k]["value"]]
            same &= not diff
            print(f"{workload} seed {seed}: {len(counts)} counts, differing: {diff or 'none'}")
            for k, m in first.items():
                print(f"  {k:40s} {m['value']:14.6g} {second[k]['value']:14.6g} {m['unit']}")
    return same


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar="SET")
    parser.add_argument("--traced-twice", action="store_true")
    args = parser.parse_args()
    if args.compare:
        compare(*args.compare)
        return 0
    seeds = parse_seeds(args.seeds)
    if args.traced_twice:
        return 0 if traced_twice(seeds) else 1
    results = {}
    for workload in args.workloads.split(","):
        results[workload] = []
        for seed in seeds:
            results[workload].append(run_once(workload, seed, 0))
            print(f"{workload} seed {seed}: {json.dumps(results[workload][-1]['metrics'])}", flush=True)
    if args.out:
        Path(args.out).parent.mkdir(exist_ok=True)
        Path(args.out).write_text(json.dumps(results, indent=1))
    summarize(results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
