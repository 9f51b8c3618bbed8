"""Benchmark command for commprob: one workload, one seed, one JSON result.

    python3 bench/run.py --workload finite_table --seed 1 --seconds 20 --trace 0

Run from the repository root.  Each workload runs in fresh single-threaded
worker processes (worker.py) as a closed loop: one job after another.

--trace 0 prints the end-to-end metrics: setup_s (median of several
set-ups, each interpreter start, imports and workloads.setup), wall_s
(median pass time over about --seconds of passes), slowest_job_s
(the largest per-job median over those passes) and peak_rss_mb.  The times
are scaled to a reference host speed (hostspeed.py).  --trace 1
prints the per-layer metrics: self times from a traced pass and exact
counts from a separate count pass.  BENCHMARK.json names the metrics and
their units.  Every answer is checked against reference.json; failed_frac
= failed / attempted.  The last stdout line is the JSON result; exit code 2
means the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# set-up probes: at least MIN, then more while they take under PROBE_BUDGET_S
MIN_SETUP_PROBES, MAX_SETUP_PROBES, PROBE_BUDGET_S = 3, 15, 1.0
WORKER_TIMEOUT_S = 170
SPANS_DIR = ROOT / ".bench_out"


def declared_units(trace: int) -> dict:
    """BENCHMARK.json's metrics for this kind of run: name -> unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


class WorkerError(RuntimeError):
    pass


def spawn(workload: str, seed: int, mode: str, seconds: float, extra=()) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--seconds", str(seconds), *extra, "--t0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd + [repr(t0)], capture_output=True, text=True, env=env,
                          timeout=WORKER_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tally(passes) -> tuple[int, int, list[str]]:
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    return attempted, failed, failures


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, list]:
    setups, begin = [], time.monotonic()
    while len(setups) < MIN_SETUP_PROBES or (
        len(setups) < MAX_SETUP_PROBES and time.monotonic() - begin < PROBE_BUDGET_S
    ):
        setups.append(spawn(workload, seed, "setup", 0)["setup_s"])
    measured = spawn(workload, seed, "measure", seconds)
    passes = measured["passes"]
    setups.append(measured["setup_s"])
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        # the hardest job: each job's median over the passes, then the largest
        "slowest_job_s": max(map(statistics.median, zip(*(p["job_s"] for p in passes)))),
        "peak_rss_mb": measured["peak_rss_mb"],
    }
    print(f"{workload}: {len(passes)} passes of {passes[0]['attempted']} jobs, "
          f"{len(setups)} set-ups; unscaled median pass "
          f"{statistics.median(p['raw_wall_s'] for p in passes):.4g} s at host-speed scale "
          f"{statistics.median(p['scale'] for p in passes):.4g}", file=sys.stderr)
    return metrics, passes


def per_layer(workload: str, seed: int) -> tuple[dict, list]:
    SPANS_DIR.mkdir(exist_ok=True)
    spans_out = SPANS_DIR / f"spans-{workload}-{seed}.jsonl"
    traced = spawn(workload, seed, "spans", 0, ("--spans-out", str(spans_out)))
    counted = spawn(workload, seed, "counts", 0)
    metrics = {k: v for k, v in traced["metrics"].items() if k.endswith("_s")}
    metrics.update(counted["metrics"])
    print(f"{workload}: traced pass {traced['passes'][0]['wall_s']:.3f} s, count pass "
          f"{counted['passes'][0]['wall_s']:.3f} s; spans in {spans_out.relative_to(ROOT)}",
          file=sys.stderr)
    return metrics, traced["passes"] + counted["passes"]


def _terminate(signum, _frame):
    # An exception inside subprocess.run kills and reaps the running worker.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    if not (ROOT / "src" / "commprob" / "__init__.py").is_file():
        print(f"error: no commprob sources under {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]
    import workloads

    parser = argparse.ArgumentParser(description="commprob benchmark: one workload, one seed.")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="time budget of the measured passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        if args.trace:
            measured, passes = per_layer(args.workload, args.seed)
        else:
            measured, passes = end_to_end(args.workload, args.seed, args.seconds)
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    units = declared_units(args.trace)
    missing = sorted(set(units) - set(measured))
    if missing:
        print(f"error: no measurement for {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {name: (measured[name], unit) for name, unit in units.items()}

    attempted, failed, failures = tally(passes)
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} failed_frac = {failed / attempted:.6g} ratio ({failed}/{attempted})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
