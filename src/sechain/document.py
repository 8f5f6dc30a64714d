"""Exact JSON documents for constructions, point sets, and graphs.

Every coordinate travels as four decimal strings (numerator and
denominator of the rational part and of the sqrt(3) coefficient), so
files are loss-free and reruns are byte-identical.  All documents carry
the format tag "sechain/1".

Parsing is strict about structure (types, integer syntax, positive
denominators, index ranges) and raises `DocumentError` with a dotted
path to the offending field.  Parsing does NOT re-prove the geometric
invariants: a well-formed file whose chains are broken parses fine and
is rejected later by verification, which keeps "unreadable input" and
"readable but wrong" distinguishable.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Any, Optional

from .construction import Level
from .geometry import Point
from .graphs import BipartiteGraph
from .numbers import QSqrt3

FORMAT_VERSION = "sechain/1"

_INT_RE = re.compile(r"^-?[0-9]+$")


class DocumentError(ValueError):
    """Malformed document; `context` points at the offending field."""

    def __init__(self, message: str, context: str = "") -> None:
        self.context = context
        super().__init__(f"{context}: {message}" if context else message)


# -- encoding --------------------------------------------------------------


def encode_fraction(value: Fraction) -> dict[str, str]:
    return {"num": str(value.numerator), "den": str(value.denominator)}


def encode_coord(value: QSqrt3) -> dict[str, Any]:
    return {"p": encode_fraction(value.p), "q": encode_fraction(value.q)}


def encode_point(point: Point) -> dict[str, Any]:
    return {"x": encode_coord(point.x), "y": encode_coord(point.y)}


def dumps(document: dict[str, Any]) -> str:
    """Canonical text form: sorted keys, two-space indent, newline end."""
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


# -- decoding helpers -------------------------------------------------------


def _expect(obj: Any, kind: type, context: str) -> Any:
    if not isinstance(obj, kind):
        raise DocumentError(f"expected {kind.__name__}", context)
    return obj


def _get(obj: dict[str, Any], key: str, context: str) -> Any:
    if key not in obj:
        raise DocumentError(f"missing field '{key}'", context)
    return obj[key]


def _decode_int(obj: Any, context: str) -> int:
    text = _expect(obj, str, context)
    if not _INT_RE.match(text):
        raise DocumentError("not a decimal integer", context)
    try:
        return int(text)
    except ValueError as exc:  # longer than the interpreter's digit limit
        raise DocumentError(
            f"{len(text)} digits, more than this interpreter parses", context
        ) from exc


def decode_fraction(obj: Any, context: str) -> Fraction:
    _expect(obj, dict, context)
    numerator = _decode_int(_get(obj, "num", context), f"{context}.num")
    denominator = _decode_int(_get(obj, "den", context), f"{context}.den")
    if denominator <= 0:
        raise DocumentError("denominator must be positive", f"{context}.den")
    return Fraction(numerator, denominator)


def decode_coord(obj: Any, context: str) -> QSqrt3:
    _expect(obj, dict, context)
    return QSqrt3(
        decode_fraction(_get(obj, "p", context), f"{context}.p"),
        decode_fraction(_get(obj, "q", context), f"{context}.q"),
    )


def decode_point(obj: Any, context: str) -> Point:
    _expect(obj, dict, context)
    return Point(
        decode_coord(_get(obj, "x", context), f"{context}.x"),
        decode_coord(_get(obj, "y", context), f"{context}.y"),
    )


def _decode_points(obj: Any, context: str) -> list[Point]:
    _expect(obj, list, context)
    return [decode_point(item, f"{context}[{t}]") for t, item in enumerate(obj)]


# -- construction documents -------------------------------------------------


def construction_to_document(level: Level) -> dict[str, Any]:
    return {
        "version": FORMAT_VERSION,
        "kind": "construction",
        "metadata": {
            "k": level.k,
            "eps_history": [encode_fraction(e) for e in level.eps_history],
            "counts": {
                "a": len(level.a),
                "b": len(level.b),
                "witness": len(level.witness),
            },
        },
        "objects": {
            "a_chain": {
                "type": "chain",
                "points": [encode_point(p) for p in level.a],
            },
            "b_chain": {
                "type": "chain",
                "points": [encode_point(p) for p in level.b],
            },
            "witness_pairs": {
                "type": "index_pairs",
                "pairs": [[i, j] for i, j in level.witness],
            },
        },
    }


def _decode_construction(document: dict[str, Any]) -> Level:
    meta = _expect(_get(document, "metadata", "document"), dict, "metadata")
    k = _expect(_get(meta, "k", "metadata"), int, "metadata.k")
    if isinstance(k, bool) or k < 1:
        raise DocumentError("k must be an integer >= 1", "metadata.k")
    eps_raw = _expect(
        _get(meta, "eps_history", "metadata"), list, "metadata.eps_history"
    )
    eps_history = tuple(
        decode_fraction(item, f"metadata.eps_history[{t}]")
        for t, item in enumerate(eps_raw)
    )
    objects = _expect(_get(document, "objects", "document"), dict, "objects")

    def chain_points(name: str) -> list[Point]:
        entry = _expect(_get(objects, name, "objects"), dict, f"objects.{name}")
        return _decode_points(
            _get(entry, "points", f"objects.{name}"), f"objects.{name}.points"
        )

    a, b = (tuple(chain_points(name)) for name in ("a_chain", "b_chain"))
    entry = _expect(
        _get(objects, "witness_pairs", "objects"), dict, "objects.witness_pairs"
    )
    pairs_raw = _expect(
        _get(entry, "pairs", "objects.witness_pairs"),
        list,
        "objects.witness_pairs.pairs",
    )
    witness: list[tuple[int, int]] = []
    for t, item in enumerate(pairs_raw):
        context = f"objects.witness_pairs.pairs[{t}]"
        _expect(item, list, context)
        if len(item) != 2:
            raise DocumentError("expected a pair", context)
        i, j = item
        if isinstance(i, bool) or isinstance(j, bool):
            raise DocumentError("expected integers", context)
        i = _expect(i, int, f"{context}[0]")
        j = _expect(j, int, f"{context}[1]")
        if not (0 <= i < len(a) and 0 <= j < len(b)):
            raise DocumentError("index out of range", context)
        witness.append((i, j))
    return Level(k=k, a=a, b=b, witness=tuple(witness), eps_history=eps_history)


# -- point set documents ----------------------------------------------------


def points_to_document(points: list[Point]) -> dict[str, Any]:
    return {
        "version": FORMAT_VERSION,
        "kind": "points",
        "objects": {
            "points": {
                "type": "point_set",
                "points": [encode_point(p) for p in points],
            }
        },
    }


def _decode_points_doc(document: dict[str, Any]) -> list[Point]:
    objects = _expect(_get(document, "objects", "document"), dict, "objects")
    entry = _expect(_get(objects, "points", "objects"), dict, "objects.points")
    return _decode_points(
        _get(entry, "points", "objects.points"), "objects.points.points"
    )


# -- graph documents --------------------------------------------------------


def graph_to_document(
    graph: BipartiteGraph,
    placements: Optional[dict[str, Point]] = None,
    k: Optional[int] = None,
) -> dict[str, Any]:
    document: dict[str, Any] = {
        "version": FORMAT_VERSION,
        "kind": "graph",
        "metadata": {} if k is None else {"k": k},
        "objects": {
            "graph": {
                "type": "bipartite_graph",
                "u": list(graph.u),
                "v": list(graph.v),
                "edges": [[a, b] for a, b in graph.edges],
            }
        },
    }
    if placements is not None:
        document["objects"]["placements"] = {
            "type": "placement",
            "points": {
                name: encode_point(point) for name, point in placements.items()
            },
        }
    return document


def _decode_graph(
    document: dict[str, Any]
) -> tuple[BipartiteGraph, Optional[dict[str, Point]]]:
    objects = _expect(_get(document, "objects", "document"), dict, "objects")
    entry = _expect(_get(objects, "graph", "objects"), dict, "objects.graph")

    def names(key: str) -> tuple[str, ...]:
        raw = _expect(
            _get(entry, key, "objects.graph"), list, f"objects.graph.{key}"
        )
        out = []
        for t, item in enumerate(raw):
            out.append(_expect(item, str, f"objects.graph.{key}[{t}]"))
        return tuple(out)

    u, v = names("u"), names("v")
    edges_raw = _expect(
        _get(entry, "edges", "objects.graph"), list, "objects.graph.edges"
    )
    edges = []
    for t, item in enumerate(edges_raw):
        context = f"objects.graph.edges[{t}]"
        _expect(item, list, context)
        if len(item) != 2:
            raise DocumentError("expected a pair", context)
        edges.append(
            (
                _expect(item[0], str, f"{context}[0]"),
                _expect(item[1], str, f"{context}[1]"),
            )
        )
    try:
        graph = BipartiteGraph(u=u, v=v, edges=tuple(edges))
    except ValueError as exc:
        raise DocumentError(str(exc), "objects.graph") from exc
    placements: Optional[dict[str, Point]] = None
    if "placements" in objects:
        entry = _expect(objects["placements"], dict, "objects.placements")
        raw = _expect(
            _get(entry, "points", "objects.placements"),
            dict,
            "objects.placements.points",
        )
        placements = {
            _expect(name, str, "objects.placements.points"): decode_point(
                item, f"objects.placements.points[{name}]"
            )
            for name, item in raw.items()
        }
    return graph, placements


# -- entry points ------------------------------------------------------------


ParsedDocument = tuple[str, Any]


def loads(text: str) -> ParsedDocument:
    """Parse any known document kind from text.

    Returns (kind, payload) where payload is an unverified `Level`, a
    list of Points, or a (BipartiteGraph, placements-or-None) pair.
    """
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(
            f"invalid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer longer than the digit limit
        raise DocumentError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise DocumentError("invalid JSON: nested too deeply") from exc
    _expect(document, dict, "document")
    version = _get(document, "version", "document")
    if version != FORMAT_VERSION:
        raise DocumentError(
            f"unsupported version {version!r} (expected {FORMAT_VERSION!r})",
            "version",
        )
    kind = _get(document, "kind", "document")
    if kind == "construction":
        return kind, _decode_construction(document)
    if kind == "points":
        return kind, _decode_points_doc(document)
    if kind == "graph":
        return kind, _decode_graph(document)
    raise DocumentError(f"unknown kind {kind!r}", "kind")


def load_path(path: str) -> ParsedDocument:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc.strerror}") from exc
    return loads(text)
