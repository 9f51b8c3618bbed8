"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workloads finite_carrier,symbolic --seeds 1-5
    python3 bench/spread.py --seeds 1-10 --sets 2 --trace-seed 1 --out baseline.json

Every run uses BENCHMARK.json's run_seconds.  For every workload and
end-to-end metric it prints the median, the first and third quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median, next to the
metric's bound from BENCHMARK.json; the spread should stay below a third of
the bound.  For comparison it also gives the spread of the unscaled median
pass time that run.py prints on stderr (see hostspeed.py).  --sets 2 runs
everything a second time and prints how far each median moved,
(second - first) / first, against the bound.  --trace-seed
adds one --trace 1 run per workload.  --out writes every value to a JSON
file together with the Python version and the CPU count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
    took = time.monotonic() - start
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["run_s"] = took
    unscaled = re.search(r"unscaled median pass (\S+) s", proc.stderr)
    if unscaled:
        result["raw_wall_s"] = float(unscaled.group(1))
    return result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def run_set(workloads: list[str], seeds: list[int], seconds: int, bounds: dict) -> dict:
    """Every seed on each workload in turn; each metric's median, quartiles and spread."""
    out = {}
    for workload in workloads:
        runs = []
        for seed in seeds:
            result = run_once(workload, seed, seconds, 0)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: incorrect answers")
            runs.append({"seed": seed, "run_s": result["run_s"], "raw_wall_s": result["raw_wall_s"],
                         **{k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v:.4g}" for k, v in runs[-1].items() if k != "seed"), file=sys.stderr)
        entry = {"runs": runs, "metrics": {}}
        for name, bound in bounds.items():
            s = summary([r[name] for r in runs])
            s["bound"] = bound
            entry["metrics"][name] = s
            flag = "" if s["spread"] < bound / 3 else "  <-- above a third of the bound"
            print(f"{workload:15s} {name:14s} median {s['median']:.4g}  q1 {s['q1']:.4g}  "
                  f"q3 {s['q3']:.4g}  spread {s['spread']:.3f}  bound {bound}{flag}", flush=True)
        # the unscaled pass time, to set the host-speed scaling against
        entry["raw_wall_s"] = summary([r["raw_wall_s"] for r in runs])
        print(f"{workload:15s} {'unscaled':14s} median {entry['raw_wall_s']['median']:.4g}  "
              f"spread {entry['raw_wall_s']['spread']:.3f}", flush=True)
        out[workload] = entry
    return out


def agreement(first: dict, later: dict, bounds: dict) -> dict:
    """Each later set's median against the first set's, as a share of the first."""
    out = {}
    for workload, entry in later.items():
        out[workload] = {}
        for name, bound in bounds.items():
            before = first[workload]["metrics"][name]["median"]
            change = entry["metrics"][name]["median"] / before - 1
            out[workload][name] = {"change": change, "bound": bound, "within": change <= bound}
            flag = "" if change <= bound else "  <-- worse by more than the bound"
            print(f"{workload:15s} {name:14s} median change {change:+.3f}  bound {bound}{flag}")
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=1,
                        help="run every workload this many times over; later sets are compared with the first")
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--out")
    args = parser.parse_args()
    workloads = args.workloads.split(",")

    report = {"python": platform.python_version(), "nproc": os.cpu_count(), "run_seconds": seconds, "sets": []}
    for number in range(args.sets):
        print(f"set {number + 1} of {args.sets}", file=sys.stderr)
        report["sets"].append(run_set(workloads, parse_seeds(args.seeds), seconds, bounds))
    if args.sets > 1:
        report["agreement"] = [agreement(report["sets"][0], later, bounds) for later in report["sets"][1:]]
    if args.trace_seed is not None:
        report["per_layer"] = {}
        for workload in workloads:
            traced = run_once(workload, args.trace_seed, seconds, 1)
            report["per_layer"][workload] = {"seed": args.trace_seed, "run_s": traced["run_s"],
                                             **{k: v["value"] for k, v in traced["metrics"].items()}}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
