"""Command line interface.

Subcommands: construct, verify, ci, graph, render.  Exit codes follow
one contract everywhere: 0 on success (for verify: every check passed),
1 when verification ran and failed, 2 for unusable input (bad flags,
unwritable outputs, unreadable or malformed documents, guard violations,
a flattening-factor search past `find_epsilon`'s cap) and for running
out of memory.  Every refusal of input raises `InputError`, and `main`
is the one place that prints its `error:` line and returns 2; an
unwritable output (`OSError`) and a `MemoryError` are reported beside
it.

Each handler imports the modules it runs, so an op loads, and without a
bytecode cache compiles, only those: `reader` only to read a document,
the record `level` to read a level, the builder `construction` only to
build one, and `writer` only to write a document or `--json`.  Both
sides' names are imported from `document`, which serves them.  Every op
stays on integer rows and loads none of `numbers`, `fractions` and
`decimal`, `--help` loads no other package module, and a malformed
document is refused having loaded only `document` and `reader`, which
imports the geometry kernel once a document is well-formed.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Optional, Sequence

from . import InputError

# construct -k 12 takes about 0.6 s at 46 MiB peak RSS (a 6.4 MB document
# written from rows, 2 cores, Python 3.11) and runs to exit 0 under an
# 80 MiB RLIMIT_AS; each further level about doubles both.
_DEFAULT_MAX_K = 12


def _write_output(make_text: Callable[[], str], path: Optional[str]) -> None:
    """Write make_text() to path, or to stdout for None or "-".

    The path is opened before make_text runs, so an unwritable one fails
    before any work.  A file that this opening created is removed again
    if making or writing the text raises.  The text is encoded before the
    file is truncated, so running out of memory keeps an earlier file.
    """
    if path is None or path == "-":
        sys.stdout.write(make_text())
        return
    created = not os.path.lexists(path)
    open(path, "a").close()
    try:
        data = make_text().encode("utf-8")
        with open(path, "wb") as handle:
            handle.write(data)
    except BaseException:
        if created:
            os.remove(path)
        raise


def _check_level_options(args: argparse.Namespace) -> None:
    """Refuse -k outside [1, --max-k]."""
    if not 1 <= args.k <= args.max_k:
        raise InputError(f"k must be between 1 and {args.max_k} (raise --max-k to go higher)")


def _cmd_construct(args: argparse.Namespace) -> int:
    from .construction import build
    from .document import construction_to_document, dumps

    _check_level_options(args)

    def text() -> str:
        return dumps(construction_to_document(build(args.k)))

    _write_output(text, args.output)
    return 0


def _graph_checks(graph, placements) -> list[tuple[str, bool, str]]:
    from .graphs import placement_defect

    checks: list[tuple[str, bool, str]] = [
        ("graph-structure", True, f"{graph.vertex_count} vertices, "
         f"{graph.edge_count} edges")
    ]
    if placements is not None:
        names, rows = placements
        missing = (set(graph.u) | set(graph.v)) - set(names)
        if missing:
            checks.append(("placements-complete", False, f"{len(missing)} missing"))
            return checks
        checks.append(("placements-complete", True, ""))
        at = {name: t for t, name in enumerate(names)}
        defect = placement_defect(graph, rows.take([at[x] for x in graph.u + graph.v]))
        checks.append(("drawing-chains", not defect, defect))
    return checks


def _report(checks: list[tuple[str, bool, str]], as_json: bool) -> int:
    all_pass = all(ok for _, ok, _ in checks)
    if as_json:
        from .document import dumps

        rows = [{"name": name, "pass": ok, "detail": detail} for name, ok, detail in checks]
        payload = {"all_pass": all_pass, "checks": rows}
        sys.stdout.write(dumps(payload))
    else:
        for name, ok, detail in checks:
            suffix = f"  ({detail})" if detail else ""
            print(f"{'PASS' if ok else 'FAIL'}  {name}{suffix}")
        print("all checks passed" if all_pass else "verification failed")
    return 0 if all_pass else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    from .document import load_path

    kind, payload = load_path(args.input)
    if kind == "construction":
        return _report(payload.checks(), args.json)
    if kind == "graph":
        return _report(_graph_checks(*payload), args.json)
    # A bare point set has no invariants beyond being well-formed.
    return _report([("parsed", True, f"{len(payload)} points")], args.json)


def _cmd_ci(args: argparse.Namespace) -> int:
    from .convex_subsets import DP_MAX_POINTS, ci_bruteforce, ci_dp
    from .document import load_path

    kind, payload = load_path(args.input)  # a point set as its rows
    if kind == "construction":
        # Past the larger solver cap either solver refuses: stop there.
        points = payload.chains.midpoint_set(payload.n, DP_MAX_POINTS)
    elif kind == "points":
        points = payload.distinct()
    else:
        raise InputError("ci needs a construction or points document")
    result = (ci_dp if args.algo == "dp" else ci_bruteforce)(points)
    if args.json:
        from .document import dumps, encode_points

        witness = encode_points(result.witness_rows)
        payload_out = {"algo": args.algo, "size": result.size, "witness": witness}
        sys.stdout.write(dumps(payload_out))
    else:
        print(f"largest convexly independent subset: {result.size} "
              f"(algo={args.algo}, input={len(points)} points)")
    return 0


def _cmd_graph(args: argparse.Namespace) -> int:
    from .graphs import edge_list_text, family

    _check_level_options(args)

    def text() -> str:
        if not args.placements:
            return edge_list_text(family(args.k))
        from .construction import build
        from .document import dumps, graph_to_document
        from .graphs import level_graph

        # family(k), checked against the level's witness, placed on its rows.
        level = build(args.k)
        return dumps(graph_to_document(level_graph(level), level.chains, k=args.k))

    _write_output(text, args.output)
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    from .document import load_path
    from .render import render_construction

    kind, payload = load_path(args.input)
    if kind != "construction":
        raise InputError("render needs a construction document")
    try:
        _write_output(lambda: render_construction(payload), args.output)
    except (OverflowError, InputError) as exc:  # beyond floats, no points, or too many
        raise InputError(f"cannot render: {exc}") from exc
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sechain",
        description="Exact south-east chain constructions and checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # -k, -o and the level cap, shared by construct and graph.
    level_options = argparse.ArgumentParser(add_help=False)
    level_options.add_argument("-k", type=int, required=True, help="level index")
    level_options.add_argument("-o", "--output", default=None, help="output path")
    level_options.add_argument("--max-k", type=int, default=_DEFAULT_MAX_K)

    p_construct = sub.add_parser(
        "construct", parents=[level_options],
        help="build a level and write it as a document",
    )
    p_construct.set_defaults(func=_cmd_construct)

    p_verify = sub.add_parser("verify", help="re-check a document's invariants")
    p_verify.add_argument("input")
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=_cmd_verify)

    p_ci = sub.add_parser("ci", help="largest convexly independent subset of a document")
    p_ci.add_argument("input")
    p_ci.add_argument("--algo", choices=("dp", "brute"), default="dp")
    p_ci.add_argument("--json", action="store_true")
    p_ci.set_defaults(func=_cmd_ci)

    p_graph = sub.add_parser(
        "graph", parents=[level_options], help="emit a family graph"
    )
    p_graph.add_argument(
        "--placements",
        action="store_true",
        help="JSON document with exact vertex placements (builds level k)",
    )
    p_graph.set_defaults(func=_cmd_graph)

    p_render = sub.add_parser("render", help="render a construction as SVG")
    p_render.add_argument("input")
    p_render.add_argument("-o", "--output", required=True, help="output path")
    p_render.set_defaults(func=_cmd_render)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0
    except OSError as exc:  # an unwritable -o path
        print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
