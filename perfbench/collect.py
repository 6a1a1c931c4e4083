"""Run the benchmark over many seeds and summarize the runs in one JSON file.

Run from the repository root, for example:

    python3 perfbench/collect.py --seeds 1-10 --heldout 1000 --out perfbench/baseline.json

For each workload it runs `run.py --trace 0` once per seed, one after the
other, and reports each end-to-end metric's median, quartiles and
quartile spread as a share of the median. It then runs the held-out seed
untraced, and the first seed traced for the per-layer metrics. Every run's
raw result is kept in the output file.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    *log, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    result["wall_s"] = wall
    result["log"] = log[:2]  # counts, raw pass wall times and machine speed
    print(f"{workload} seed {seed} trace {trace}: {wall:.1f} s wall", flush=True)
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / statistics.median(values)}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=None, help="comma-separated; default: all in BENCHMARK.json")
    p.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    p.add_argument("--heldout", type=int, default=None, help="one extra seed, reported on its own")
    p.add_argument("--seconds", type=int, default=None, help="default: run_seconds in BENCHMARK.json")
    p.add_argument("--out", required=True)
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    summary = {"run_seconds": seconds, "seeds": args.seeds, "heldout_seed": args.heldout, "workloads": {}}
    for workload in workloads:
        runs = [bench(workload, seed, seconds, 0) for seed in args.seeds]
        entry = {
            "end_to_end": {m["name"]: spread([r["metrics"][m["name"]]["value"] for r in runs])
                           for m in spec["end_to_end"]},
            "runs": runs,
        }
        if args.heldout is not None:
            entry["heldout"] = bench(workload, args.heldout, seconds, 0)
        entry["traced"] = bench(workload, args.seeds[0], seconds, 1)
        summary["workloads"][workload] = entry
        for name, s in entry["end_to_end"].items():
            print(f"  {workload} {name}: median {s['median']:.6g}, spread {s['iqr_over_median']:.4f}", flush=True)
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
