"""Benchmark of localfourier: one seeded workload, checked exactly.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``.
Workloads (see workloads.py): population, deep_ramification, structure,
corpus_cli.  The load is a closed loop with one single-threaded client.

``--trace 0`` measures the end-to-end metrics.  Set-up is measured in
SETUP_PROBES fresh interpreters plus the measuring one, and reported as
the median; the measuring interpreter then runs whole cycles of the
workload for about S seconds.  The first cycle is a warm-up: it is
checked, but left out of the timings.

``--trace 1`` runs a fixed number of cycles twice, each time in a fresh
interpreter: once plain and once with every function in tracing.LAYERS
wrapped.  It reports per-function call counts and self times from the
traced run, exceptions leaving each layer, and the ratio of the two
runs' timed totals.  Call counts repeat exactly for a fixed seed.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Failed operations (a wrong
result or an unexpected exception) count in ``failed``; they do not stop
the run.  NOTES.md records the machine, the observed spread and which
end-to-end metric each layer metric should move.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

WORKLOADS = ("population", "deep_ramification", "structure", "corpus_cli")
SETUP_PROBES = 6
# cycles of the traced run, chosen so the plain run takes a few seconds
TRACE_CYCLES = {"population": 2, "deep_ramification": 1, "structure": 12, "corpus_cli": 1}
DEADLINE_S = 170


class BenchError(Exception):
    pass


def _spawn(args, deadline):
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.monotonic()
    left = deadline - started
    if left <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=left,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} ran past the deadline")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    out = json.loads(lines[-1])
    out["setup_s"] = out["ready"] - started
    return out


def end_to_end(base, seconds, ops, deadline):
    setups = [_spawn(base + ["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    limit = ["--ops", str(ops)] if ops else ["--seconds", str(seconds)]
    run = _spawn(base + limit, deadline)
    setups.append(run["setup_s"])
    cycles = run["cycles"]
    # the first cycle warms the interpreter and, in corpus_cli, the value
    # caches; it is checked but left out of the timings
    if len(cycles) > 1:
        cycles = cycles[1:]
    lat = run["latencies"][run["attempted"] - sum(n for n, _, _ in cycles):]
    # over the whole run, not a median of per-cycle rates: the host's slow
    # phases last several cycles, and a median over cycles jumps when a
    # phase covers half the run, where the total moves with its share
    completed = sum(done for _, done, _ in cycles)
    timed = sum(t for _, _, t in cycles)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (completed / timed, "ops/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    return run["attempted"], run["failed"], metrics


def per_layer(base, workload, ops, deadline):
    limit = ["--ops", str(ops)] if ops else ["--cycles", str(TRACE_CYCLES[workload])]
    plain = _spawn(base + limit, deadline)
    traced = _spawn(base + limit + ["--trace"], deadline)
    metrics = {k: tuple(v) for k, v in traced["layers"].items()}
    metrics["trace.overhead_ratio"] = (sum(traced["latencies"]) / sum(plain["latencies"]), "ratio")
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    return attempted, failed, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ops", type=int, default=None,
                    help="run only this many operations (self-test size)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "localfourier" / "__init__.py").is_file():
        print(f"no localfourier sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        if args.trace:
            attempted, failed, metrics = per_layer(base, args.workload, args.ops, deadline)
        else:
            attempted, failed, metrics = end_to_end(base, args.seconds, args.ops, deadline)
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
