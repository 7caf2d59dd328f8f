"""Self-test of the benchmark harness at tiny size.

    python3 perfbench/selftest.py

Runs every workload for two operations, plain and traced, and checks
that the result line carries exactly the metrics BENCHMARK.json names,
each with its unit, and that no operation failed.  It also checks that
the benchmark refuses to run without the library sources.  Takes well
under a minute.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, cwd=ROOT, ops=2):
    cmd = [sys.executable, str(Path(cwd) / SPEC["command"][1]),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--ops", str(ops)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, (workload, trace, proc.stderr)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == wanted, f"{workload} trace={trace}: metrics differ: {set(got) ^ set(wanted)}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), (name, m)


def check_refuses_without_sources():
    with tempfile.TemporaryDirectory(dir=ROOT) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, Path(bare) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(SPEC["workloads"][0]["name"], 0, cwd=bare)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout


def main() -> int:
    # every workload run.py accepts, including those BENCHMARK.json leaves out
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_result(workload, trace)
            print(f"ok {workload} trace={trace}")
    check_refuses_without_sources()
    print("ok refuses to run without src/localfourier")
    return 0


if __name__ == "__main__":
    sys.exit(main())
