"""Seeded inputs and the fixed operation list of each workload.

Everything a workload feeds the program is a file written here, derived
from `--seed` and from documents the program itself produced (the
fixtures).  Each operation carries its own check, so every op of every
pass is verified.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import exact

FORMAT = "sechain/1"


@dataclass(frozen=True)
class Profile:
    """Problem sizes; `full` is the benchmark, `tiny` the smoke check."""

    construct_k: int  # construct -k in the construct workload
    graph_k: int  # graph -k --placements (construct) and the audit graph doc
    audit_k: int  # level of the document audit verifies and corrupts
    render_k: int  # level of the document audit renders
    malformed_k: int  # level of the document the malformed files derive from
    warm_k: int  # construct -k of the construct warm-up op
    ci_levels: tuple[int, ...]  # construction documents search runs ci on
    random_sizes: tuple[int, ...]  # sizes of the random points documents
    brute_n: int  # points per exhaustive-search set
    brute_sets: int  # exhaustive-search sets per pass
    brute_work: tuple[int, int]  # accepted range of subsets tested per set
    operand_k: int  # level whose coordinates feed the arithmetic microbench
    witness_k: int  # level whose witness feeds the chain predicate timing


PROFILES = {
    "full": Profile(
        construct_k=8, graph_k=7, audit_k=8, render_k=7, malformed_k=3,
        warm_k=4, ci_levels=(3, 4), random_sizes=(100, 104, 108, 112, 116, 120, 124, 128),
        brute_n=10, brute_sets=8, brute_work=(180, 240), operand_k=8, witness_k=9,
    ),
    "tiny": Profile(
        construct_k=3, graph_k=3, audit_k=3, render_k=3, malformed_k=2,
        warm_k=2, ci_levels=(2, 3), random_sizes=(16, 20), brute_n=7,
        brute_sets=2, brute_work=(1, 200), operand_k=3, witness_k=4,
    ),
}


def witness_size(k: int) -> int:
    """(k + 2) * 2**(k - 1), the size of the level-k witness."""
    return (k + 2) * 2 ** (k - 1)


@dataclass
class Result:
    """What one operation returned."""

    code: int
    out: str
    err: str
    seconds: float
    rss_mb: float = 0.0
    cal_s: float = 0.0  # time of the calibration program run just before, if any


@dataclass
class Op:
    """One CLI invocation and the check of its outcome."""

    name: str
    argv: list[str]
    check: "Check"
    output: Optional[Path] = None  # file the op writes with -o
    keep: bool = False  # keep `output` after the check (fixtures)
    quality: dict = field(default_factory=dict)  # quality counts the check read


# A check returns None when the result is right, else the reason.
Check = Callable[[Op, Result], Optional[str]]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _fail(cond: bool, reason: str) -> Optional[str]:
    return None if cond else reason


# -- checks ----------------------------------------------------------------


def check_document(expected_sha: str, kind: str, k: int) -> Check:
    """Pinned bytes plus the witness count (construction) or edge count (graph)."""

    def check(op: Op, res: Result) -> Optional[str]:
        if res.code != 0:
            return f"exit {res.code}"
        assert op.output is not None
        digest = sha256(op.output)
        if digest != expected_sha:
            return f"sha256 {digest[:12]} differs from the pinned {expected_sha[:12]}"
        doc = json.loads(op.output.read_text(encoding="utf-8"))
        objects = doc["objects"]
        if kind == "construct":
            count = len(objects["witness_pairs"]["pairs"])
            exps = [int(e["den"]).bit_length() - 1 for e in doc["metadata"]["eps_history"]]
            op.quality.update(eps_exponents=exps, document_bytes=op.output.stat().st_size)
        else:
            count = len(objects["graph"]["edges"])
            op.quality.update(document_bytes=op.output.stat().st_size)
        return _fail(count == witness_size(k), f"{count} witness pairs, expected {witness_size(k)}")

    return check


def check_svg(expected_sha: str) -> Check:
    def check(op: Op, res: Result) -> Optional[str]:
        if res.code != 0:
            return f"exit {res.code}"
        assert op.output is not None
        digest = sha256(op.output)
        return _fail(digest == expected_sha, f"svg sha256 {digest[:12]} is not the pinned one")

    return check


def check_verify_pass(as_json: bool) -> Check:
    def check(op: Op, res: Result) -> Optional[str]:
        if res.code != 0:
            return f"exit {res.code}, expected 0"
        if as_json:
            report = json.loads(res.out)
            ok = report["all_pass"] and all(c["pass"] for c in report["checks"])
            return _fail(ok, "a check did not pass")
        return _fail(res.out.rstrip().endswith("all checks passed"), "no 'all checks passed' line")

    return check


def check_verify_fail(failing_check: str) -> Check:
    def check(op: Op, res: Result) -> Optional[str]:
        if res.code != 1:
            return f"exit {res.code}, expected 1"
        report = json.loads(res.out)
        states = {c["name"]: c["pass"] for c in report["checks"]}
        if report["all_pass"] or states.get(failing_check) is not False:
            return f"check {failing_check} not marked FAIL"
        return None

    return check


def check_rejected(op: Op, res: Result) -> Optional[str]:
    """Unusable input: exit 2 with an `error:` line."""
    if res.code != 2:
        return f"exit {res.code}, expected 2"
    lines = res.err.splitlines()
    return _fail(any(line.startswith("error:") for line in lines), "no 'error:' line on stderr")


def check_ci_size(expected: int) -> Check:
    def check(op: Op, res: Result) -> Optional[str]:
        if res.code != 0:
            return f"exit {res.code}"
        words = res.out.split()
        size = int(words[words.index("subset:") + 1]) if "subset:" in words else None
        op.quality["ci_size"] = size
        return _fail(size == expected, f"ci size {size}, expected {expected}")

    return check


def parse_witness(report: dict) -> list[tuple[int, int, int, int]]:
    def comp(c: dict) -> int:
        return exact.to_grid(Fraction(int(c["num"]), int(c["den"])))

    return [
        (comp(p["x"]["p"]), comp(p["x"]["q"]), comp(p["y"]["p"]), comp(p["y"]["q"]))
        for p in report["witness"]
    ]


def check_ci_witness(points: set, expected: Optional[int], sizes: dict, key: str) -> Check:
    """`ci --json`: the witness is a subset in convex position of the stated size.

    With `expected` None (inputs too large for the exhaustive oracle) the
    size must instead repeat whenever the same file is searched again.
    """

    def check(op: Op, res: Result) -> Optional[str]:
        if res.code != 0:
            return f"exit {res.code}"
        report = json.loads(res.out)
        size = report["size"]
        op.quality["ci_size"] = size
        witness = parse_witness(report)
        if len(set(witness)) != size or not set(witness) <= points:
            return "witness is not a subset of the input of the stated size"
        if exact.hull_size(exact.sort_points(set(witness))) != size:
            return "witness points are not in convex position"
        if expected is not None:
            return _fail(size == expected, f"ci size {size}, oracle says {expected}")
        first = sizes.setdefault(key, size)
        return _fail(size == first, f"ci size {size} differs from the earlier {first}")

    return check


# -- documents written by the benchmark --------------------------------------


def _fraction(value: Fraction) -> dict:
    return {"num": str(value.numerator), "den": str(value.denominator)}


def _point(p: tuple[int, int, int, int]) -> dict:
    g = exact.GRID
    return {
        "x": {"p": _fraction(Fraction(p[0], g)), "q": _fraction(Fraction(p[1], g))},
        "y": {"p": _fraction(Fraction(p[2], g)), "q": _fraction(Fraction(p[3], g))},
    }


def dumps(doc) -> str:
    """The program's canonical text form: sorted keys, indent 2, newline."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def write_points(path: Path, points) -> None:
    doc = {
        "version": FORMAT,
        "kind": "points",
        "objects": {"points": {"type": "point_set", "points": [_point(p) for p in points]}},
    }
    path.write_text(dumps(doc), encoding="utf-8")


def random_points(rng: random.Random, n: int) -> set:
    """n distinct points (a/8 + (b/4)*sqrt(3), c/8 + (d/4)*sqrt(3)).

    Both components take both signs, so sign decisions of mixed-sign
    values p + q*sqrt(3) occur throughout.
    """
    points: set = set()
    while len(points) < n:
        points.add(
            (rng.randint(-64, 64), 2 * rng.randint(-16, 16),
             rng.randint(-64, 64), 2 * rng.randint(-16, 16))
        )
    return points


def brute_set(rng: random.Random, prof: Profile) -> tuple[set, int]:
    """A random set whose exhaustive search tests a number of subsets in
    `prof.brute_work`, so that every seed asks the same amount of work.
    Returns the points and their largest convex subset size."""
    lo, hi = prof.brute_work
    while True:
        points = random_points(rng, prof.brute_n)
        size, tested = exact.largest_convex_subset(points)
        if lo <= tested <= hi:
            return points, size


# -- corruptions and malformed files -------------------------------------------


def corrupt_chain(doc: dict, chain: str, rng: random.Random) -> dict:
    """Swap two adjacent points of a chain: the file parses but must fail."""
    bad = json.loads(json.dumps(doc))
    pts = bad["objects"][chain]["points"]
    i = rng.randrange(len(pts) - 1)
    pts[i], pts[i + 1] = pts[i + 1], pts[i]
    return bad


def malformed_files(base_text: str, rng: random.Random) -> dict[str, str]:
    """Unusable documents, each of which the CLI must reject with exit 2.

    The last two are hostile: a numerator longer than Python's default
    int-parsing limit, and nesting deeper than the recursion limit.
    """
    base = json.loads(base_text)
    pts = base["objects"]["a_chain"]["points"]
    pairs = base["objects"]["witness_pairs"]["pairs"]

    def edit(change) -> str:
        doc = json.loads(base_text)
        change(doc)
        return dumps(doc)

    def coord(doc: dict) -> dict:
        point = doc["objects"]["a_chain"]["points"][rng.randrange(len(pts))]
        return point[rng.choice("xy")][rng.choice("pq")]

    cut = rng.randrange(len(base_text) // 4, 3 * len(base_text) // 4)
    bad_pair = rng.randrange(len(pairs))
    digits = str(rng.randint(1, 9)) + "".join(rng.choice("0123456789") for _ in range(4999))
    return {
        "truncated": base_text[:cut],
        "version": edit(lambda d: d.update(version="sechain/0")),
        "kind": edit(lambda d: d.update(kind="polygon")),
        "zero-den": edit(lambda d: coord(d).update(den="0")),
        "not-decimal": edit(lambda d: coord(d).update(num="0x1f")),
        "index": edit(lambda d: d["objects"]["witness_pairs"]["pairs"][bad_pair].__setitem__(0, len(pts) + bad_pair)),
        "missing": edit(lambda d: d["objects"].pop("b_chain")),
        "not-object": "[" + dumps(base).rstrip() + "]\n",
        "hostile-digits": edit(lambda d: coord(d).update(num=digits)),
        "hostile-depth": "[" * 100_000 + "]" * 100_000 + "\n",
    }


# -- workloads -------------------------------------------------------------------


@dataclass
class Fixtures:
    """Documents the program produced once per run, by its own CLI."""

    dir: Path
    docs: dict[str, Path] = field(default_factory=dict)


def fixture_ops(workload: str, prof: Profile, expected: dict, fx: Fixtures) -> list[Op]:
    """The CLI ops that write this workload's fixture documents."""
    wanted: list[tuple[str, int]] = []
    if workload == "audit":
        wanted = [("construct", prof.audit_k), ("construct", prof.render_k),
                  ("construct", prof.malformed_k), ("graph", prof.graph_k)]
    elif workload == "search":
        wanted = [("construct", k) for k in prof.ci_levels]
    ops = []
    for kind, k in dict.fromkeys(wanted):
        path = fx.dir / f"{kind}{k}.json"
        fx.docs[f"{kind}{k}"] = path
        ops.append(document_op(kind, k, path, expected, keep=True))
    return ops


def document_op(kind: str, k: int, path: Path, expected: dict, keep: bool = False) -> Op:
    """`construct -k` or `graph -k --placements`, checked against the pinned bytes."""
    extra = ["--placements"] if kind == "graph" else []
    return Op(f"{kind}-k{k}", [kind, "-k", str(k), *extra, "-o", str(path)],
              check_document(expected[kind][str(k)], kind, k), output=path, keep=keep)


def build(workload: str, prof: Profile, expected: dict, fx: Fixtures,
          work: Path, rng: random.Random) -> tuple[list[Op], Op]:
    """Write the seeded inputs into `work`; return (pass ops, warm-up op)."""
    work.mkdir(parents=True, exist_ok=True)
    if workload == "construct":
        ops = [document_op("construct", prof.construct_k, work / "construct.json", expected)]
        ops += [document_op("graph", prof.graph_k, work / f"graph{t}.json", expected) for t in range(4)]
        warm = document_op("construct", prof.warm_k, work / "warm.json", expected)
        return ops, warm

    if workload == "audit":
        valid = fx.docs[f"construct{prof.audit_k}"]
        graph = fx.docs[f"graph{prof.graph_k}"]
        level = json.loads(valid.read_text(encoding="utf-8"))
        ops = [
            Op("verify", ["verify", str(valid)], check_verify_pass(False)),
            Op("verify-json", ["verify", "--json", str(valid)], check_verify_pass(True)),
            Op("verify-graph", ["verify", str(graph)], check_verify_pass(False)),
        ]
        for chain, check_name in (("a_chain", "chain-a"), ("b_chain", "chain-b")):
            path = work / f"corrupt-{chain}.json"
            path.write_text(dumps(corrupt_chain(level, chain, rng)), encoding="utf-8")
            ops.append(Op(f"verify-corrupt-{chain}", ["verify", "--json", str(path)],
                          check_verify_fail(check_name)))
        svg = work / "render.svg"
        ops.append(Op("render", ["render", str(fx.docs[f"construct{prof.render_k}"]), "-o", str(svg)],
                      check_svg(expected["render"][str(prof.render_k)]), output=svg))
        base = fx.docs[f"construct{prof.malformed_k}"].read_text(encoding="utf-8")
        for name, text in malformed_files(base, rng).items():
            path = work / f"malformed-{name}.json"
            path.write_text(text, encoding="utf-8")
            ops.append(Op(f"malformed-{name}", ["verify", str(path)], check_rejected))
        warm = Op("warm-verify-graph", ["verify", str(graph)], check_verify_pass(False))
        return ops, warm

    if workload == "search":
        ops = []
        for k in prof.ci_levels:
            doc = fx.docs[f"construct{k}"]
            want = expected["ci_size"][str(k)]
            ops.append(Op(f"ci-k{k}", ["ci", str(doc)], check_ci_size(want),
                          quality={"witness_bound": witness_size(k)}))
        sizes: dict = {}
        for n in prof.random_sizes:
            points = random_points(rng, n)
            path = work / f"random{n}.json"
            write_points(path, sorted(points))
            ops.append(Op(f"ci-random{n}", ["ci", "--json", str(path)],
                          check_ci_witness(points, None, sizes, path.name)))
        for t in range(prof.brute_sets):
            points, size = brute_set(rng, prof)
            path = work / f"brute{t}.json"
            write_points(path, sorted(points))
            for algo in ("brute", "dp"):
                ops.append(Op(f"ci-{algo}{t}", ["ci", "--algo", algo, "--json", str(path)],
                              check_ci_witness(points, size, sizes, path.name)))
        warm = Op("warm-ci", ["ci", str(fx.docs[f"construct{prof.ci_levels[0]}"])],
                  check_ci_size(expected["ci_size"][str(prof.ci_levels[0])]))
        return ops, warm

    raise ValueError(f"unknown workload {workload!r}")
