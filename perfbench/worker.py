"""One workload run in a fresh interpreter; started by run.py.

Builds the workload (which imports ``localfourier`` from ``src/``), then,
unless ``--setup-only`` is given, runs whole cycles of operations one at
a time in a closed loop: each call returns before the next one starts.
Only ``op.run()`` is timed; input building and result checks fall
outside the timed intervals.  The loop stops at the first cycle boundary
after ``--seconds`` of wall time, or after ``--cycles`` cycles.

Prints one JSON line.  ``ready`` is the ``time.monotonic()`` reading at
the end of set-up, so the parent can measure set-up from before it
started this interpreter.
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402  (imports localfourier)


def main(argv) -> int:
    import argparse

    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--cycles", type=int, default=None)
    ap.add_argument("--ops", type=int, default=None, help="stop after this many operations")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    wl = workloads.make(args.workload, args.seed, ROOT)
    ops = wl.cycle()
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    latencies = []
    cycle_stats = []  # (attempted, completed, timed seconds) per whole cycle
    failed = 0
    started = time.perf_counter()
    while True:
        first, failed_before = len(latencies), failed
        for op in ops:
            if args.ops is not None and len(latencies) >= args.ops:
                break
            if tracer:
                tracer.enabled = True
            t0 = time.perf_counter()
            try:
                result = op.run()
                ok = True
            except Exception:
                ok = False
                error = traceback.format_exc()
            latencies.append(time.perf_counter() - t0)
            if tracer:
                tracer.enabled = False
                tracer.fold()
            if ok:
                error = f"check failed on {op.kind}"
                try:
                    ok = bool(op.check(result))
                except Exception:
                    ok = False
                    error = traceback.format_exc()
            if not ok:
                failed += 1
                if failed <= 3:
                    print(f"[{args.workload}] operation {len(latencies)} ({op.kind}): {error}",
                          file=sys.stderr)
        done = len(latencies) - first
        cycle_stats.append((done, done - (failed - failed_before), sum(latencies[first:])))
        if args.ops is not None and len(latencies) >= args.ops:
            break
        if args.cycles is not None:
            if len(cycle_stats) >= args.cycles:
                break
        elif time.perf_counter() - started >= args.seconds:
            break
        ops = wl.cycle()

    out = {
        "ready": ready,
        "latencies": latencies,
        "cycles": cycle_stats,
        "attempted": len(latencies),
        "failed": failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        out["layers"] = tracer.metrics()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
