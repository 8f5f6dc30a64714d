#!/usr/bin/env python3
"""Benchmark of the sechain CLI: construct, audit and search workloads.

    python3 perfbench/run.py --workload construct --seed 1 --seconds 25 --trace 0

Closed loop, one client: one CLI op at a time, each in a fresh
`python -m sechain.cli` interpreter with PYTHONPATH=src, so every op pays
interpreter start and import as a user does.  `--trace 0` reports the
end-to-end metrics; `--trace 1` runs one such pass untraced and then the
same ops in process with spans around every layer, and reports the
per-layer metrics.  The last stdout line is the JSON result; earlier
lines are the run header and summary.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
from inputs import Fixtures, Op, Result  # noqa: E402

WORKLOADS = ("construct", "audit", "search")
SETUP_REPEATS = 5
STARTUP_REPEATS = 5
OP_TIMEOUT_S = 150.0
TRACEBACK = "Traceback (most recent call last)"

# The machine is shared: its speed moves by up to 2x over seconds to
# minutes, alike for every process.  So each timed step runs right after
# this fixed stdlib-only program (imports like the CLI's, then Fraction
# arithmetic) and is reported scaled by CALIBRATION_REF_S / (that
# program's time): seconds on a machine where the program takes
# CALIBRATION_REF_S.  Raw times are kept in the run summary.
CALIBRATION = """import argparse, dataclasses, json, re
from fractions import Fraction
acc = Fraction(0)
for i in range(1, 4000):
    acc += Fraction(i, i + 1) * Fraction(i + 2, 2 * i + 3)
"""
CALIBRATION_REF_S = 0.16


def read_loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    """sha256 over the package sources; identifies the code in a non-git checkout."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sechain").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


class CliRunner:
    """Runs `python -m sechain.cli ARGV` as a child and reaps it with wait4,
    which gives that child's own peak RSS."""

    def __init__(self, scratch: Path) -> None:
        self.scratch = scratch
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def run(self, argv: list[str], module: tuple[str, ...] = ("-m", "sechain.cli")) -> Result:
        out_path, err_path = self.scratch / "stdout", self.scratch / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *module, *argv], stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                timer.join()
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Result(proc.returncode, out_path.read_text(errors="replace"),
                      err_path.read_text(errors="replace"), seconds, usage.ru_maxrss / 1024)

    def calibrate(self) -> float:
        """Seconds the calibration program takes now."""
        res = self.run(["-c", CALIBRATION], module=())
        if res.code != 0:
            raise SystemExit(f"error: calibration program failed: {res.err.strip()}")
        return res.seconds



def scaled(seconds: float, cal_s: float) -> float:
    return seconds * CALIBRATION_REF_S / cal_s


class Ledger:
    """Every op outcome of a run.  An op *failed* when it crashed (an
    uncaught traceback) or its check rejected the result; a rejected
    result is also a *wrong answer*, which makes the run incorrect."""

    def __init__(self) -> None:
        self.failures: list[dict] = []
        self.wrong = 0

    def judge(self, op: Op, res: Result) -> bool:
        """Check one result; returns True when the op succeeded."""
        try:
            if TRACEBACK in res.err:
                lines = res.err.strip().splitlines()
                self.failures.append({"op": op.name, "crash": lines[-1][:200]})
                return False
            try:
                reason = op.check(op, res)
            except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
                reason = f"check could not read the output: {exc!r}"
            if reason is None:
                return True
            self.wrong += 1
            self.failures.append({"op": op.name, "wrong": reason})
            return False
        finally:
            if op.output is not None and not op.keep:
                op.output.unlink(missing_ok=True)


def run_ops(ops: list[Op], run, ledger: Ledger) -> tuple[list[Result], int]:
    """One pass over `ops`: (results, failed ops)."""
    results, failed = [], 0
    for op in ops:
        res = run(op.argv)
        failed += not ledger.judge(op, res)
        results.append(res)
    return results, failed


def run_calibrated(cli: CliRunner, argv: list[str]) -> Result:
    """One op, right after the calibration program."""
    cal_s = cli.calibrate()
    res = cli.run(argv)
    res.cal_s = cal_s
    return res


def setup_once(args, prof, expected, fx, work: Path, cli: CliRunner, ledger: Ledger):
    """Import in a fresh interpreter, write the seeded inputs and run the
    warm-up op; returns (scaled seconds, raw seconds, pass ops, rng)."""
    cal_s = cli.calibrate()
    start = time.perf_counter()
    res = cli.run(["-c", "import sechain.cli"], module=())
    if res.code != 0:
        raise SystemExit(f"error: cannot import sechain: {res.err.strip()}")
    rng = random.Random(args.seed)
    ops, warm = inputs.build(args.workload, prof, expected, fx, work, rng)
    ledger.judge(warm, cli.run(warm.argv))
    raw = time.perf_counter() - start
    return scaled(raw, cal_s), raw, ops, rng


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(inputs.PROFILES), default="full",
                        help="problem sizes; 'tiny' is for the smoke check")
    args = parser.parse_args()

    if not (ROOT / "src" / "sechain" / "cli.py").is_file():
        print(f"error: no sechain sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    prof = inputs.PROFILES[args.size]
    expected = json.loads((HERE / "expected.json").read_text())[args.size]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}

    header = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "python": platform.python_version(),
        "cpu_count": os.cpu_count(), "git_sha": git_sha(), "src_sha256": source_digest(),
        "loop": "closed, 1 client", "loadavg_start": read_loadavg(),
    }
    print(json.dumps({"header": header}), flush=True)

    out_dir = ROOT / ".perfbench_out"
    work = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    ledger = Ledger()
    try:
        summary, values, attempted, failed = measure(args, prof, expected, work, ledger)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    summary.update(loadavg_end=read_loadavg(), failures=ledger.failures)
    print(json.dumps({"summary": summary}), flush=True)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    record = {"header": header, "summary": summary, "metrics": metrics}
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": ledger.wrong == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def measure(args, prof, expected, work: Path, ledger: Ledger):
    """Run the workload; returns (summary, metric values, attempted, failed)."""
    cli = CliRunner(work)
    # Fixtures depend only on the sources and sizes, so a checkout makes
    # them once; a cached file is used only while it passes its check.
    fx = Fixtures(ROOT / ".perfbench_out" / f"fixtures-{args.size}-{source_digest()[:16]}")
    fx.dir.mkdir(parents=True, exist_ok=True)
    fixture_ops = inputs.fixture_ops(args.workload, prof, expected, fx)
    start = time.perf_counter()
    for op in fixture_ops:
        if not (op.output.is_file() and op.check(op, Result(0, "", "", 0.0)) is None):
            ledger.judge(op, cli.run(op.argv))
    summary: dict = {"fixture_s": time.perf_counter() - start}

    setups = [setup_once(args, prof, expected, fx, work / f"inputs{rep}", cli, ledger)
              for rep in range(1 if args.trace else SETUP_REPEATS)]
    _, _, ops, rng = setups[-1]
    summary.update(setup_scaled_s=[s[0] for s in setups], setup_raw_s=[s[1] for s in setups],
                   ops_per_pass=len(ops))
    if args.trace:
        return (summary, *trace_run(args, prof, ops, rng, cli, ledger, fixture_ops, summary))

    passes: list[list[Result]] = []
    by_op: dict[str, list[float]] = {}
    failed = 0
    while True:
        rng.shuffle(ops)
        results, bad = run_ops(ops, functools.partial(run_calibrated, cli), ledger)
        passes.append(results)
        for op, res in zip(ops, results):
            by_op.setdefault(op.name, []).append(round(scaled(res.seconds, res.cal_s), 4))
        failed += bad
        # Whole passes only, as many as come nearest to --seconds of
        # calibrated time (ops plus their calibration runs), so the pass
        # count does not depend on how busy the machine is.
        pass_s = [sum(scaled(r.seconds, r.cal_s) for r in p) for p in passes]
        elapsed = sum(pass_s) + len(passes) * len(ops) * CALIBRATION_REF_S
        if elapsed >= args.seconds - elapsed / len(passes) / 2:
            break
    results = [r for p in passes for r in p]
    op_s = [scaled(r.seconds, r.cal_s) for r in results]
    attempted = len(results)
    summary.update(
        passes=len(passes), ops=attempted, fail_ratio=failed / attempted,
        pass_scaled_s=pass_s, pass_raw_s=[sum(r.seconds for r in p) for p in passes],
        op_p50_raw_s=statistics.median(r.seconds for r in results),
        calibration_s=statistics.median(r.cal_s for r in results), op_scaled_s=by_op,
        quality={op.name: op.quality for op in fixture_ops + ops if op.quality},
    )
    values = {
        "setup_s": statistics.median(s[0] for s in setups),
        "wall_s": statistics.median(pass_s),
        "op_p50_s": statistics.median(op_s),
        "peak_rss_mb": max(r.rss_mb for r in results),
        "ok_ratio": (attempted - failed) / attempted,
    }
    return summary, values, attempted, failed


def trace_run(args, prof, ops, rng, cli: CliRunner, ledger: Ledger, fixture_ops, summary):
    """One untraced CLI pass, the same ops traced in process, then the
    reference microbenchmarks; returns (metric values, attempted, failed).
    Times here are raw seconds: per-layer metrics have no bound."""
    import layers

    rng.shuffle(ops)
    start = time.perf_counter()
    _, failed = run_ops(ops, cli.run, ledger)
    cli_pass_s = time.perf_counter() - start

    sys.path.insert(0, str(ROOT / "src"))
    import sechain.cli  # noqa: F401  (the traced pass calls into it)

    tracer = layers.Tracer()
    tracer.install()
    start = time.perf_counter()
    try:
        _, bad = run_ops(ops, layers.run_inprocess, ledger)
    finally:
        traced_pass_s = time.perf_counter() - start
        tracer.remove()
    failed += bad

    reference, quality = layers.reference_metrics(prof.operand_k, prof.witness_k)
    startup = statistics.median(cli.run(["--help"]).seconds for _ in range(STARTUP_REPEATS))

    self_s = tracer.self_times()
    calls = tracer.calls()
    counts = tracer.counts
    by_name = {op.name: op.quality for op in ops}
    brute = [n for n in by_name if n.startswith("ci-brute")]
    agree = sum(by_name[n].get("ci_size") == by_name[n.replace("brute", "dp")].get("ci_size")
                for n in brute)
    levels = [q for q in by_name.values() if "witness_bound" in q]
    values = dict(reference)
    values.update({
        "geometry.is_south_east_chain.s": self_s["geometry.is_south_east_chain"],
        "geometry.is_south_east_chain.calls": calls["geometry.is_south_east_chain"],
        "geometry.is_south_east_chain.points": counts["geometry.is_south_east_chain.points"],
        "geometry.transform_chains.s": self_s["geometry.transform_chains"],
        "geometry.convex_hull.s": self_s["geometry.convex_hull"],
        "geometry.convex_hull.calls": calls["geometry.convex_hull"],
        "geometry.midpoint_set.s": self_s["geometry.midpoint_set"],
        "geometry.midpoint_set.points": counts["geometry.midpoint_set.points"],
        "construction.find_epsilon.s": self_s["construction.find_epsilon"],
        "construction.step.s": self_s["construction.step"],
        "construction.step.calls": calls["construction.step"],
        "construction.step.rejected": counts["construction.step.rejected"],
        "construction.Level.validate.s": self_s["construction.Level.validate"],
        "document.encode.s": sum(self_s[n] for n in (
            "document.dumps", "document.construction_to_document", "document.graph_to_document")),
        "document.bytes": counts["document.bytes"],
        "document.loads.s": self_s["document.loads"] + self_s["document.load_path"],
        "graphs.drawing_from_level.s": self_s["graphs.drawing_from_level"],
        "graphs.verify_drawing.s": self_s["graphs.verify_drawing"],
        "render.render_construction.s": self_s["render.render_construction"],
        "convex_subsets.ci_dp.s": self_s["convex_subsets.ci_dp"],
        "convex_subsets.ci_dp.points": counts["convex_subsets.ci_dp.points"],
        "convex_subsets.ci_bruteforce.s": self_s["convex_subsets.ci_bruteforce"],
        "convex_subsets.ci_bruteforce.calls": calls["convex_subsets.ci_bruteforce"],
        "convex_subsets.oracle_agree_ratio": agree / len(brute) if brute else 1.0,
        "convex_subsets.level_ci_size": sum(q.get("ci_size") or 0 for q in levels),
        "convex_subsets.level_witness_bound": sum(q["witness_bound"] for q in levels),
        "cli.startup_s": startup,
        "cli.main.s": self_s["cli.main"],
        "trace.pass_s": traced_pass_s,
        "trace.overhead_ratio": traced_pass_s / cli_pass_s,
    })
    spans_path = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-spans.json"
    spans_path.write_text(json.dumps(
        {"fields": ["name", "start", "end", "parent"], "spans": tracer.spans}) + "\n")
    summary.update(
        ops=2 * len(ops), cli_pass_s=cli_pass_s, traced_pass_s=traced_pass_s,
        fail_ratio=failed / (2 * len(ops)), spans=len(tracer.spans), spans_file=str(spans_path),
        self_s=dict(sorted(self_s.items())), reference=quality,
        quality={op.name: op.quality for op in fixture_ops + ops if op.quality},
    )
    return values, 2 * len(ops), failed


if __name__ == "__main__":
    sys.exit(main())
