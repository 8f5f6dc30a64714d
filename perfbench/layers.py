"""Per-layer measurements: an in-process traced pass and microbenchmarks.

The traced pass runs a workload's ops by calling `sechain.cli.main` in
this process.  Before it runs, every traced function is replaced, in
every `sechain` module namespace that holds it, by a wrapper that
records a span (name, start, end, parent) in memory.  Self time of a
span is its duration minus the durations of its direct children.
Nothing under `src/` is modified; the wrappers are removed afterwards.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from typing import Callable, Optional

from inputs import Result

# span name -> (module, attribute, counter hook).  A dotted attribute is a
# method.  A hook adds counts from (args, result) at the same boundary.
Hook = Optional[Callable[[Counter, tuple, object], None]]


def _count_points(counts: Counter, args: tuple, result) -> None:
    counts["geometry.is_south_east_chain.points"] += len(args[0])


def _count_midpoints(counts: Counter, args: tuple, result) -> None:
    counts["geometry.midpoint_set.points"] += len(result)


def _count_rejected(counts: Counter, args: tuple, result) -> None:
    counts["construction.step.rejected"] += result is None


def _count_dp_points(counts: Counter, args: tuple, result) -> None:
    counts["convex_subsets.ci_dp.points"] += len(args[0])


def _count_bytes(counts: Counter, args: tuple, result) -> None:
    counts["document.bytes"] += len(result.encode("utf-8"))


TARGETS: dict[str, tuple[str, str, Hook]] = {
    "cli.main": ("sechain.cli", "main", None),
    "construction.build": ("sechain.construction", "build", None),
    "construction.find_epsilon": ("sechain.construction", "find_epsilon", None),
    "construction.step": ("sechain.construction", "step", _count_rejected),
    "construction.Level.validate": ("sechain.construction", "Level.validate", None),
    "geometry.is_south_east_chain": ("sechain.geometry", "is_south_east_chain", _count_points),
    "geometry.transform_chains": ("sechain.geometry", "transform_chains", None),
    "geometry.convex_hull": ("sechain.geometry", "convex_hull", None),
    "geometry.is_convexly_independent": ("sechain.geometry", "is_convexly_independent", None),
    "geometry.midpoint_set": ("sechain.geometry", "midpoint_set", _count_midpoints),
    "document.load_path": ("sechain.document", "load_path", None),
    "document.loads": ("sechain.document", "loads", None),
    "document.construction_to_document": ("sechain.document", "construction_to_document", None),
    "document.graph_to_document": ("sechain.document", "graph_to_document", None),
    "document.dumps": ("sechain.document", "dumps", _count_bytes),
    "graphs.family": ("sechain.graphs", "family", None),
    "graphs.drawing_from_level": ("sechain.graphs", "drawing_from_level", None),
    "graphs.verify_drawing": ("sechain.graphs", "verify_drawing", None),
    "render.render_construction": ("sechain.render", "render_construction", None),
    "convex_subsets.ci_dp": ("sechain.convex_subsets", "ci_dp", _count_dp_points),
    "convex_subsets.ci_bruteforce": ("sechain.convex_subsets", "ci_bruteforce", None),
}


class Tracer:
    """Spans and counts recorded in memory while the wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, hook: Hook) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
            if hook is not None:
                hook(counts, args, result)
            return result

        return traced

    def install(self, targets: dict[str, tuple[str, str, Hook]] = TARGETS) -> None:
        """Replace each target in every `sechain` namespace that holds it."""
        namespaces = [m for n, m in sys.modules.items() if n == "sechain" or n.startswith("sechain.")]
        for name, (module_name, attr, hook) in targets.items():
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, hook)
            holders = [owner] + [m for m in namespaces if m is not owner]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._undo.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def remove(self) -> None:
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()

    def self_times(self) -> dict[str, float]:
        children = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _), child in zip(self.spans, children):
            totals[name] += end - start - child
        return totals

    def calls(self) -> Counter:
        return Counter(span[0] for span in self.spans)


def run_inprocess(argv: list[str]) -> Result:
    """Run one CLI op by calling `sechain.cli.main`; an uncaught exception
    becomes exit 1 with its traceback on stderr, as in a real interpreter."""
    cli = sys.modules["sechain.cli"]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = 1
    return Result(code, out.getvalue(), err.getvalue(), time.perf_counter() - start)


def _ns_per_item(fn: Callable[[], object], items: int, repeats: int = 5) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        fn()
        samples.append((time.perf_counter_ns() - start) / items)
    return statistics.median(samples)


def reference_metrics(operand_k: int, witness_k: int) -> tuple[dict[str, float], dict]:
    """Arithmetic microbenchmarks and quality counts of reference levels.

    Operands for `*` and `+` are consecutive coordinates of the level
    `operand_k` chains; `sign` is timed on the cross products the chain
    predicate decides along that level's witness.  The predicate timing,
    denominator size, mixed-sign share, eps exponents and step usefulness
    come from building level `witness_k`.
    """
    construction = importlib.import_module("sechain.construction")
    geometry = importlib.import_module("sechain.geometry")

    operand_level = construction.build(operand_k)
    coords = [c for chain in (operand_level.a, operand_level.b) for p in chain for c in (p.x, p.y)]
    pairs = list(zip(coords, coords[1:]))
    mids = operand_level.witness_midpoints()
    crosses = [geometry.cross(a, b, c) for a, b, c in zip(mids, mids[1:], mids[2:])]
    metrics = {
        "numbers.mul_ns": _ns_per_item(lambda: [u * v for u, v in pairs], len(pairs)),
        "numbers.add_ns": _ns_per_item(lambda: [u + v for u, v in pairs], len(pairs)),
        "numbers.sign_ns": _ns_per_item(lambda: [v.sign() for v in crosses], len(crosses)),
    }

    steps = Tracer()
    steps.install({"construction.step": TARGETS["construction.step"]})
    try:
        level = construction.build(witness_k)
    finally:
        steps.remove()
    step_calls = steps.calls()["construction.step"]

    mids = level.witness_midpoints()
    chain_s = []
    for _ in range(3):
        start = time.perf_counter()
        geometry.is_south_east_chain(mids)
        chain_s.append(time.perf_counter() - start)
    crosses = [geometry.cross(a, b, c) for a, b, c in zip(mids, mids[1:], mids[2:])]
    exponents = [e.denominator.bit_length() - 1 for e in level.eps_history]
    metrics.update({
        "geometry.chain_witness9_s": statistics.median(chain_s),
        "numbers.den_bits_max": max(
            c.denominator.bit_length() for p in mids for c in (p.x.p, p.x.q, p.y.p, p.y.q)
        ),
        "numbers.mixed_sign_ratio": sum(1 for v in crosses if v.p * v.q < 0) / len(crosses),
        "construction.eps_exponent_sum": sum(exponents),
        "construction.step.useful_ratio": (level.k - 1) / step_calls,
    })
    quality = {
        "reference_level": level.k,
        "witness_points": len(mids),
        "eps_exponents": exponents,
        "steps_run": step_calls,
        "levels_kept": level.k - 1,
    }
    return metrics, quality
