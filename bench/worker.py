"""One benchmark process: set up a workload, run its jobs, report as JSON.

Started by run.py, one fresh single-threaded process per use:

    python3 bench/worker.py --workload W --seed N --mode M --seconds S --t0 T

Modes: ``setup`` stops once set-up is done; ``measure`` runs passes over
the jobs for about ``--seconds`` (see ``more_passes``); ``spans`` and
``counts`` run one instrumented pass (tracing.py).  ``--t0`` is the
parent's time.monotonic() just before the process was started.  setup_s is
the time from then until the imports are done, plus ``workloads.setup``;
making the seeded inputs and reading reference.json fall outside it.  In
the ``setup`` and ``measure`` modes every time is scaled to the reference
host speed (hostspeed.py); ``raw_setup_s`` and ``raw_wall_s`` keep the
unscaled times.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import hostspeed  # noqa: E402
import workloads  # noqa: E402


def run_pass(jobs, state, reference, probe=None) -> dict:
    """One closed-loop pass: each job starts when the previous one ended.

    Answers are checked after the pass, outside the timed jobs.  A cold
    group job leaves its group as cyclic garbage (the cached matrix refers
    back to the group); it is collected before the next job starts, so peak
    memory does not depend on the job order.  With a running ``probe`` the
    job times exclude the probe's own time and are scaled to the reference
    speed by the probe samples of this pass (hostspeed.py); ``raw_wall_s``
    keeps the unscaled sum.
    """
    spans, results = [], []
    cpu_start = time.process_time()
    for job in jobs:
        start = time.perf_counter()
        try:
            results.append((job, workloads.run_job(job, state), None))
        except Exception as exc:  # a raising job counts as failed, the pass goes on
            results.append((job, None, exc))
        spans.append((start, time.perf_counter()))
        if job.kind == "finite":
            gc.collect()
    cpu_s = time.process_time() - cpu_start
    if probe is None:
        scale, times = 1.0, [t1 - t0 for t0, t1 in spans]
    else:
        scale = probe.scale(spans[0][0], spans[-1][1])
        times = [t1 - t0 - probe.probe_time(t0, t1) for t0, t1 in spans]
    answers, failures = {}, []
    for job, answer, exc in results:
        if exc is not None:
            failures.append(f"{job.key}: raised {type(exc).__name__}: {exc}")
            continue
        answers[job.key] = workloads.digest(answer)
        if not workloads.matches(job, answer, reference):
            failures.append(f"{job.key}: answer differs from the reference")
    return {
        "wall_s": sum(times) * scale,
        "job_s": [t * scale for t in times],
        "raw_wall_s": sum(times),
        "scale": scale,
        "cpu_s": cpu_s,
        "attempted": len(jobs),
        "failed": len(failures),
        "failures": failures[:10],
        "answers": answers,
    }


def more_passes(last_s: float, elapsed_s: float, seconds: float) -> bool:
    """Whether a measuring worker starts another pass.

    A run measures about ``seconds``: another pass starts while it would end
    nearer to ``seconds`` than the run stands now.
    """
    return elapsed_s + last_s / 2 < seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "spans", "counts"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--spans-out", help="write the spans here as JSON lines")
    args = parser.parse_args(argv)
    started_s = time.monotonic() - args.t0

    # The benchmark's own inputs are made outside the set-up interval.
    jobs = workloads.make_jobs(args.workload, args.seed)
    context = workloads.make_context(args.workload, args.seed)
    tracer = None
    if args.mode in ("spans", "counts"):
        import tracing

        tracer = tracing.Tracer(args.mode)
        tracer.install()
    setup_begin = time.monotonic()
    state = workloads.setup(context)
    setup_s = started_s + time.monotonic() - setup_begin
    result = {"setup_s": setup_s, "raw_setup_s": setup_s, "passes": []}

    if args.mode in ("setup", "measure"):
        # every end-to-end time is scaled to the reference host speed
        probe = hostspeed.Probe()
        burst_begin = time.perf_counter()
        probe.burst()
        result["setup_s"] = setup_s * probe.scale(burst_begin, time.perf_counter())
    if args.mode != "setup":
        reference = workloads.load_reference()
        if args.mode == "measure":
            probe.start()
        begin = time.monotonic()
        while True:
            summary = run_pass(jobs, state, reference, probe if args.mode == "measure" else None)
            result["passes"].append(summary)
            elapsed = time.monotonic() - begin
            if args.mode != "measure" or not more_passes(summary["raw_wall_s"], elapsed, args.seconds):
                break
        if args.mode == "measure":
            probe.stop()
    if tracer is not None:
        tracer.uninstall()
        result["metrics"] = tracer.count_metrics()
        if args.mode == "spans":
            result["metrics"].update(
                {f"{name}_s": value for name, value in tracer.self_times().items()}
            )
            if args.spans_out:
                tracer.write_spans(args.spans_out)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
