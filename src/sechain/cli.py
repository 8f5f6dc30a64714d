"""Command line interface.

One table, `_VERBS`, holds each verb's handler, help line and
arguments; `_parse` reads argv from it as argparse read it and makes
-h/--help from it, so no op loads argparse, gettext or locale.  Exit
codes follow one contract: 0 on success (for verify: every check
passed), 1 when verification ran and failed, 2 for unusable input (bad
arguments, unwritable outputs, unreadable or malformed documents, guard
violations, a flattening-factor search past `find_epsilon`'s cap) and
for running out of memory.  Every refusal of input raises `InputError`,
and `main` is the one place that prints its `error:` line and returns
2; a failed write (`OSError`, of stdout too, which `main` flushes) and
a `MemoryError` are reported beside it, and a closed stdout pipe exits 0.

Each handler imports the modules it runs, so an op loads, and without a
bytecode cache compiles, only those: `reader` only to read a document,
the record `level` to read a level, the builder `construction` only to
build one, and `writer` only to write a document or `--json`, each from
`document`, which serves them.  No op loads `numbers`, `fractions` or
`decimal`, `--help` and a refused argv load no other package module,
and a malformed document is refused having loaded only `document` and
`reader`, which imports the geometry kernel once it is well-formed.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace
from typing import Callable, Optional, Sequence

from . import InputError


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
    except BaseException as exc:
        if created:
            os.remove(path)
        if isinstance(exc, OSError) and exc.filename is None:  # write() names no file
            exc.filename = path
        raise


def _check_level_options(args: SimpleNamespace) -> None:
    """Refuse -k outside [1, --max-k]."""
    if not 1 <= args.k <= args.max_k:
        raise InputError(f"k must be between 1 and {args.max_k} (raise --max-k to go higher)")


def _cmd_construct(args: SimpleNamespace) -> int:
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


def _cmd_verify(args: SimpleNamespace) -> int:
    from .document import load_path

    kind, payload = load_path(args.input)
    if kind == "construction":
        return _report(payload.checks(), args.json)
    if kind == "graph":
        return _report(_graph_checks(*payload), args.json)
    # A bare point set has no invariants beyond being well-formed.
    return _report([("parsed", True, f"{len(payload)} points")], args.json)


def _cmd_ci(args: SimpleNamespace) -> int:
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


def _cmd_graph(args: SimpleNamespace) -> int:
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


def _cmd_render(args: SimpleNamespace) -> int:
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


# Each verb's handler, help line and arguments: (option strings, dest, kind,
# default, required), a kind being bool for a flag, int, str or a tuple of
# choices.  The one positional is `_INPUT`; -h/--help goes without saying.
# The default --max-k: construct -k 12 takes about 0.6 s at 46 MiB peak RSS
# (a 6.4 MB document written from rows, 2 cores, Python 3.11) and runs to
# exit 0 under an 80 MiB RLIMIT_AS; each further level about doubles both.
_LEVEL = ((("-k",), "k", int, None, True), (("-o", "--output"), "output", str, None, False),
          (("--max-k",), "max_k", int, 12, False))
_INPUT, _JSON = ((), "input", str, None, True), (("--json",), "json", bool, False, False)
_VERBS = {
    "construct": (_cmd_construct, "build a level and write it as a document", _LEVEL),
    "verify": (_cmd_verify, "re-check a document's invariants", (_INPUT, _JSON)),
    "ci": (_cmd_ci, "largest convexly independent subset of a document",
           (_INPUT, (("--algo",), "algo", ("dp", "brute"), "dp", False), _JSON)),
    "graph": (_cmd_graph, "emit a family graph (--placements: a document placing it on level k)",
              _LEVEL + ((("--placements",), "placements", bool, False, False),)),
    "render": (_cmd_render, "render a construction as SVG",
               (_INPUT, (("-o", "--output"), "output", str, None, True))),
}


def _option(token: str, options: dict) -> Optional[tuple]:
    """As argparse read token: None for a value, else (argument or None, inline value)."""
    if token[:1] != "-" or token == "-":
        return None
    name, eq, inline = token.partition("=")
    if token[1] != "-" and name not in options:  # -kVALUE
        name, eq, inline = token[:2], "=", token[2:]
    found = [name] if name in options else [s for s in options if s.startswith(name)]
    if len(found) == 1:  # an option, or a unique prefix of a long one
        return options[found[0]], (inline if eq else None)
    if token[1:].replace(".", "", 1).isdecimal() and token[-1] != "." or " " in token:
        return None  # a negative number, or a value with a space
    return None, None


def _help(verb: Optional[str]) -> str:
    if verb is None:
        return "\n".join(["usage: sechain [-h|--help] VERB ...", "",
                          "Exact south-east chain constructions and checks.", "",
                          *(f"  {name:<11}{line}" for name, (_, line, _) in _VERBS.items())])
    words = []
    for names, dest, kind, _, required in _VERBS[verb][2]:
        meta = f" {{{','.join(kind)}}}" if isinstance(kind, tuple) else f" {dest.upper()}"
        word = "|".join(names) + (meta if kind is not bool else "") if names else dest
        words.append(word if required else f"[{word}]")
    return f"usage: sechain {verb} [-h|--help] {' '.join(words)}\n\n{_VERBS[verb][1]}"


def _parse(argv: Sequence[str]) -> tuple[Callable, object]:
    """argv's handler and arguments, read as argparse read them, or `print` and -h's text."""
    verb, arguments, values, extras, ended, tokens = None, (), {}, [], False, iter(argv)
    options = dict.fromkeys(("-h", "--help"), (("-h", "--help"), "help", None, None, False))
    for token in tokens:
        found = None if ended or token == "--" else _option(token, options)
        if token == "--" and not ended:
            ended = True
        elif found is None and verb is None:
            if token not in _VERBS:
                raise InputError(f"invalid verb {token!r} (choose from {', '.join(_VERBS)})")
            verb, arguments = token, _VERBS[token][2]
            options.update((s, argument) for argument in arguments for s in argument[0])
            values = {argument[1]: argument[3] for argument in arguments}
        elif found is None and values.get(_INPUT[1], "") is None:  # the positional, once
            values[_INPUT[1]] = token
        elif found is None or found[0] is None:  # a value too many, or an unknown option
            extras.append(token)
        else:
            (names, dest, kind, _, _), text = found
            if kind in (bool, None) and text is not None:
                raise InputError(f"argument {names[-1]}: ignored explicit argument {text!r}")
            if kind is None:
                return print, _help(verb)
            if text is None and kind is not bool:
                text = next(tokens, "--")
                if text == "--" or _option(text, options) is not None:
                    raise InputError(f"argument {names[-1]}: expected one argument")
            try:  # int() raises ValueError, and so does tuple.index() for a bad choice
                values[dest] = kind is bool or (kind(text) if kind in (int, str) else
                                                kind[kind.index(text)])
            except ValueError:
                raise InputError(f"argument {names[-1]}: invalid value {text!r}") from None
    missing = [(names or (dest,))[-1] for names, dest, _, _, required in arguments
               if required and values[dest] is None]
    if verb is None or missing:
        raise InputError(f"the following arguments are required: {', '.join(missing) or 'VERB'}")
    if extras:
        raise InputError(f"unrecognized arguments: {' '.join(extras)}")
    return _VERBS[verb][0], SimpleNamespace(**values)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        handler, args = _parse(sys.argv[1:] if argv is None else argv)
        code = handler(args) or 0  # print, for -h, returns None
        sys.stdout.flush()  # here, so a failed write is reported below
        return code
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except OSError as exc:  # a closed pipe, an unwritable -o path or stdout
        if exc.filename is None:  # stdout: exit then flushes it to os.devnull, which cannot fail
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            return 0
        print(f"error: cannot write {exc.filename or 'stdout'}: {exc.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
