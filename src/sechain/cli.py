"""Command line interface.

Subcommands: construct, verify, ci, graph, render.  Exit codes follow
one contract everywhere: 0 on success (for verify: every check passed),
1 when verification ran and failed, 2 for unusable input (bad flags,
unwritable outputs, unreadable or malformed documents, guard violations).

Each handler imports the modules it runs, so an op loads, and without a
bytecode cache compiles, only those: `ci` of a points document never
loads the construction, `--help` loads no other package module, and a
malformed document is refused having loaded only `document`, which
imports the geometry kernel once a document is well-formed.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Optional, Sequence

# construct -k 12 takes about 1.1 s at 78 MB peak RSS (a 6.4 MB document,
# 2 cores, Python 3.11) and runs to exit 0 under a 192 MiB RLIMIT_AS; each
# further level about doubles both.
_DEFAULT_MAX_K = 12
_DEFAULT_MAX_EPS_EXPONENT = 256


def _write_output(make_text: Callable[[], str], path: Optional[str]) -> None:
    """Write make_text() to path, or to stdout for None or "-".

    The path is opened before make_text runs, so an unwritable one fails
    before any work.  A file that this opening created is removed again
    if make_text raises.
    """
    if path is None or path == "-":
        sys.stdout.write(make_text())
        return
    created = not os.path.lexists(path)
    open(path, "a").close()
    try:
        text = make_text()
    except BaseException:
        if created:
            os.remove(path)
        raise
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def _level_options_refused(args: argparse.Namespace) -> bool:
    """True, after an error line on stderr, when -k is outside [1, --max-k]
    or --max-eps-exponent leaves no flattening factor to try."""
    if not 1 <= args.k <= args.max_k:
        message = f"k must be between 1 and {args.max_k} (raise --max-k to go higher)"
    elif args.max_eps_exponent < 1:
        message = f"--max-eps-exponent must be at least 1, not {args.max_eps_exponent}"
    else:
        return False
    print(f"error: {message}", file=sys.stderr)
    return True


def _cmd_construct(args: argparse.Namespace) -> int:
    from .construction import build
    from .document import construction_to_document, dumps

    if _level_options_refused(args):
        return 2

    def text() -> str:
        level = build(args.k, max_eps_exponent=args.max_eps_exponent)
        return dumps(construction_to_document(level))

    _write_output(text, args.output)
    return 0


def _graph_checks(graph, placements) -> list[tuple[str, bool, str]]:
    from .graphs import BipartiteDrawing, drawing_defect, verify_drawing

    checks: list[tuple[str, bool, str]] = [
        ("graph-structure", True, f"{graph.vertex_count} vertices, "
         f"{graph.edge_count} edges")
    ]
    if placements is not None:
        missing = (set(graph.u) | set(graph.v)) - set(placements)
        if missing:
            checks.append(("placements-complete", False, f"{len(missing)} missing"))
            return checks
        checks.append(("placements-complete", True, ""))
        drawing = BipartiteDrawing(graph=graph, placement=placements)
        # A passing drawing costs one check; only a failure is located.
        ok = verify_drawing(drawing)
        checks.append(("drawing-chains", ok, "" if ok else drawing_defect(drawing)))
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
        graph, placements = payload
        return _report(_graph_checks(graph, placements), args.json)
    # A bare point set has no invariants beyond being well-formed.
    return _report([("parsed", True, f"{len(payload)} points")], args.json)


def _cmd_ci(args: argparse.Namespace) -> int:
    from .convex_subsets import DP_MAX_POINTS, ci_bruteforce, ci_dp
    from .document import dumps, encode_points, load_path
    from .geometry import Scaled

    kind, payload = load_path(args.input)
    if kind == "construction":
        # Past the larger solver cap either solver refuses: stop there.
        points = payload.chains.midpoint_set(payload.n, DP_MAX_POINTS)
    elif kind == "points":
        points = Scaled(payload).distinct()  # on integer rows: no Point is hashed
    else:
        print("error: ci needs a construction or points document",
              file=sys.stderr)
        return 2
    solver = ci_dp if args.algo == "dp" else ci_bruteforce
    try:
        result = solver(points)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        witness = encode_points(Scaled(result.witness))
        payload_out = {"algo": args.algo, "size": result.size, "witness": witness}
        sys.stdout.write(dumps(payload_out))
    else:
        print(f"largest convexly independent subset: {result.size} "
              f"(algo={args.algo}, input={len(points)} points)")
    return 0


def _cmd_graph(args: argparse.Namespace) -> int:
    from .graphs import edge_list_text, family

    if _level_options_refused(args):
        return 2

    def text() -> str:
        if not args.placements:
            return edge_list_text(family(args.k))
        from .construction import build
        from .document import dumps, graph_to_document
        from .graphs import level_graph

        # family(k), checked against the level's witness, placed on its rows.
        level = build(args.k, max_eps_exponent=args.max_eps_exponent)
        return dumps(graph_to_document(level_graph(level), level.chains, k=args.k))

    _write_output(text, args.output)
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    from .document import load_path
    from .render import render_construction

    kind, payload = load_path(args.input)
    if kind != "construction":
        print("error: render needs a construction document", file=sys.stderr)
        return 2
    try:
        _write_output(lambda: render_construction(payload), args.output)
    except (OverflowError, ValueError) as exc:  # beyond floats, or no points
        print(f"error: cannot render: {exc}", file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sechain",
        description="Exact south-east chain constructions and checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # -k, -o and the two search caps, shared by construct and graph.
    level_options = argparse.ArgumentParser(add_help=False)
    level_options.add_argument("-k", type=int, required=True, help="level index")
    level_options.add_argument("-o", "--output", default=None, help="output path")
    level_options.add_argument("--max-k", type=int, default=_DEFAULT_MAX_K)
    level_options.add_argument(
        "--max-eps-exponent", type=int, default=_DEFAULT_MAX_EPS_EXPONENT
    )

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


def _input_error(exc: Exception) -> bool:
    """True for a malformed document or a failed epsilon search: exit 2.

    Their classes are looked up among the loaded modules, not imported:
    an op that never loaded a module cannot have raised its error.
    """
    for module, name in (("document", "DocumentError"),
                         ("construction", "EpsilonSearchError")):
        loaded = sys.modules.get(f"{__package__}.{module}")
        if loaded is not None and isinstance(exc, getattr(loaded, name)):
            return True
    return False


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except (ValueError, RuntimeError) as exc:
        if not _input_error(exc):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0
    except OSError as exc:  # an unwritable -o path
        print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
