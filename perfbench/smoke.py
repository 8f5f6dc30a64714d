#!/usr/bin/env python3
"""Smoke check of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/smoke.py

For every workload, with tracing off and on, it asserts that the last
output line is a result with exactly the contract's keys, that the run
is correct, and that every metric BENCHMARK.json names is emitted with
its unit.  It also asserts that metrics.json annotates exactly the
per-layer metrics of BENCHMARK.json, and that the benchmark refuses to
run, without printing a result, where there are no sechain sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    table = json.loads((HERE / "metrics.json").read_text())
    annotated = [(m["name"], m["unit"]) for m in table["per_layer"]]
    assert annotated == [(m["name"], m["unit"]) for m in bench["per_layer"]], \
        "metrics.json and BENCHMARK.json name different per-layer metrics"

    for workload in (w["name"] for w in bench["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, workload, trace)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] is True, proc.stdout.splitlines()[-2]
            assert result["attempted"] >= 1
            wanted = {m["name"]: m["unit"] for m in bench[kind]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == wanted, f"{workload} trace {trace}: {set(wanted) ^ set(got)}"
            assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
            print(f"ok  {workload:9s} trace={trace}  {len(got)} metrics, "
                  f"{result['attempted']} ops, {result['failed']} failed")

    bare = ROOT / ".perfbench_out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(bare, "construct", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), "ran without sources"
    print("ok  refuses to run without sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
