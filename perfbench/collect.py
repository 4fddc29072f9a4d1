"""Run the benchmark over several seeds and summarise the run-to-run spread.

    python3 perfbench/collect.py --seeds 1-10 --out perfbench/results/baseline.json

Each run is a fresh process (``run.py``), one after another. For every
end-to-end metric the summary gives the median and the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a share
of the median, next to the metric's bound from ``BENCHMARK.json``. One traced
run per workload (on the first seed) records the per-layer breakdown.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    start = perf_counter()
    result = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = perf_counter() - start
    if result.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {result.returncode}:\n{result.stderr}")
    lines = result.stdout.splitlines()
    record = json.loads(next(ln for ln in lines if ln.startswith("record "))[len("record "):])
    return {"seed": seed, "wall_s": wall, "result": json.loads(lines[-1]), "record": record}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--out")
    args = p.parse_args(argv)
    seeds = seed_range(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    out = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seeds:
            runs.append(run_once(workload, seed, seconds, 0))
            print(f"{workload} seed={seed} wall={runs[-1]['wall_s']:.1f}s"
                  f" {json.dumps(runs[-1]['result']['metrics'])}", file=sys.stderr)
        summary = {}
        for name, bound in bounds.items():
            stats = spread([r["result"]["metrics"][name]["value"] for r in runs])
            summary[name] = {**stats, "bound": bound,
                             "within_third_of_bound": stats["spread"] < bound / 3}
            print(f"  {workload:14s} {name:16s} median={stats['median']:.6g}"
                  f" spread={stats['spread']:.4f} bound={bound}")
        traced = run_once(workload, seeds[0], seconds, 1)
        out["workloads"][workload] = {"summary": summary, "runs": runs, "traced": traced}
        out["stamps"] = {k: v for k, v in runs[0]["record"]["stamps"].items()
                         if k not in ("seed", "workload")}
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
