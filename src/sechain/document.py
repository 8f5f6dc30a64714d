"""Exact JSON documents for constructions, point sets, and graphs.

Every coordinate travels as four decimal strings (numerator and
denominator of the rational part and of the sqrt(3) coefficient), so
files are loss-free and reruns are byte-identical.  All documents carry
the format tag "sechain/1".  There is one coordinate codec, on
`geometry.Scaled` rows: `encode_points` writes every point of a
construction, a point set, a graph's placements and `ci --json`'s
witness, one gcd per component, and `_scaled` decodes every document
kind into rows over the lcm of its denominators.  `dumps` writes the
canonical text (sorted keys, two-space indent) itself.

Parsing is strict about structure (types, integer syntax, positive
denominators, index ranges) and raises `DocumentError` with a dotted
path to the offending field.  Every coordinate is checked as plain ints,
a numerator and a positive denominator, and only a well-formed document
imports the geometry kernel, once, to turn its coordinates into rows: a
construction keeps them (`Level.from_rows` brings them to the least
scale), and point sets and placements become their `Point`s
(`Scaled.points`).  So a malformed file is refused having loaded no
other package module.  Parsing does NOT re-prove the geometric
invariants: a well-formed file whose chains are broken parses fine and
is rejected later by verification, which keeps "unreadable input" and
"readable but wrong" distinguishable.
"""

from __future__ import annotations

import json
import re
from json.encoder import encode_basestring_ascii
from math import gcd, lcm
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional

if TYPE_CHECKING:  # the decoders import these once a document is well-formed
    from fractions import Fraction

    from .construction import Level
    from .geometry import Point, Scaled
    from .graphs import BipartiteGraph

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


def encode_points(points: Scaled) -> list[dict[str, Any]]:
    """Each point as its four components, x.p, x.q, y.p and y.q, each a
    reduced fraction: one gcd with the scale per component."""
    s = points.s

    def part(c: int) -> dict[str, str]:
        g = gcd(c, s)
        return {"num": str(c // g), "den": str(s // g)}

    return [{"x": {"p": part(xa), "q": part(xb)}, "y": {"p": part(ya), "q": part(yb)}}
            for xa, xb, ya, yb in points.rows]


def dumps(document: Any) -> str:
    """Canonical text form: sorted keys, two-space indent, newline end.

    The bytes of `json.dumps(document, sort_keys=True, indent=2) + "\\n"`,
    whose indented encode CPython runs in pure Python.  Only str-keyed
    dicts, lists, strs, ints, bools and None are written; anything else
    raises TypeError.
    """
    chunks: list[str] = []
    put = chunks.append

    def write(value: Any, indent: str) -> None:
        kind = type(value)
        if kind is str:
            put(encode_basestring_ascii(value))
        elif kind is dict or kind is list:
            if not value:
                put("{}" if kind is dict else "[]")
                return
            inner, sep = indent + "  ", "{" if kind is dict else "["
            for key in sorted(value) if kind is dict else range(len(value)):
                if kind is list:
                    put(sep + inner)
                elif type(key) is str:
                    put(f"{sep}{inner}{encode_basestring_ascii(key)}: ")
                else:
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
                write(value[key], inner)
                sep = ","
            put(indent + ("}" if kind is dict else "]"))
        elif value is None or kind is bool:
            put("null" if value is None else "true" if value else "false")
        elif kind is int:
            put(str(value))
        else:
            raise TypeError(f"cannot write a {kind.__name__}")

    write(document, "\n")
    put("\n")
    return "".join(chunks)


# -- decoding helpers -------------------------------------------------------


def _expect(obj: Any, kind: type, context: str) -> Any:
    if not isinstance(obj, kind):
        raise DocumentError(f"expected {kind.__name__}", context)
    return obj


def _field(
    obj: dict, key: str, kind: type, path: str = "", decode: Optional[Callable] = None
) -> Any:
    """`obj[key]` checked to be a `kind`, or `decode(obj[key], "path.key")`.

    A missing key is reported at `path`, or at "document" when `path` is "";
    a wrong type at `path.key`.  So `decode` gets a value of type `kind`."""
    if key not in obj:
        raise DocumentError(f"missing field '{key}'", path or "document")
    value = obj[key]
    context = f"{path}.{key}" if path else key
    if not isinstance(value, kind):
        raise DocumentError(f"expected {kind.__name__}", context)
    return value if decode is None else decode(value, context)


def _items(
    obj: dict, key: str, kind: type, path: str, decode: Optional[Callable] = None
) -> Iterator:
    """`_field` for each item of a list field, at "path.key[t]"."""
    for t, item in enumerate(_field(obj, key, list, path)):
        context = f"{path}.{key}[{t}]"
        _expect(item, kind, context)
        yield item if decode is None else decode(item, context)


def _pair(item: list, context: str, kind: type = str) -> tuple[Any, Any]:
    """A list of exactly two `kind`s; a JSON bool never passes for an int."""
    if len(item) != 2:
        raise DocumentError("expected a pair", context)
    first, second = item
    if kind is int and (isinstance(first, bool) or isinstance(second, bool)):
        raise DocumentError("expected integers", context)
    return _expect(first, kind, f"{context}[0]"), _expect(second, kind, f"{context}[1]")


def _decode_int(text: str, context: str) -> int:
    if not _INT_RE.match(text):
        raise DocumentError("not a decimal integer", context)
    try:
        return int(text)
    except ValueError as exc:  # longer than the interpreter's digit limit
        raise DocumentError(
            f"{len(text)} digits, more than this interpreter parses", context
        ) from exc


def _decode_denominator(text: str, context: str) -> int:
    value = _decode_int(text, context)
    if value <= 0:
        raise DocumentError("denominator must be positive", context)
    return value


Ratio = tuple[int, int]  # a numerator and a positive denominator, as written
Decoded = tuple[int, ...]  # x.p, x.q, y.p and y.q as Ratios: eight ints


def _decode_ratio(obj: dict, context: str) -> Ratio:
    return (
        _field(obj, "num", str, context, _decode_int),
        _field(obj, "den", str, context, _decode_denominator),
    )


def _decode_coord(obj: dict, context: str) -> tuple[int, int, int, int]:
    return (*_field(obj, "p", dict, context, _decode_ratio),
            *_field(obj, "q", dict, context, _decode_ratio))


def _decode_point(obj: dict, context: str) -> Decoded:
    return (*_field(obj, "x", dict, context, _decode_coord),
            *_field(obj, "y", dict, context, _decode_coord))


def _decode_chain(entry: dict, context: str) -> list[Decoded]:
    return list(_items(entry, "points", dict, context, _decode_point))


def _scaled(decoded: list[Decoded]) -> Scaled:
    """A well-formed document's decoded points as integer rows over the
    lcm of their denominators."""
    from .geometry import Scaled

    dens = {d for point in decoded for d in point[1::2]}
    s = lcm(*dens)
    up = {d: s // d for d in dens}
    return Scaled.from_rows([(xp * up[xpd], xq * up[xqd], yp * up[ypd], yq * up[yqd])
                             for xp, xpd, xq, xqd, yp, ypd, yq, yqd in decoded], s)


# -- construction documents -------------------------------------------------


def construction_to_document(level: Level) -> dict[str, Any]:
    points, n, witness = encode_points(level.chains), level.n, level.witness
    return {
        "version": FORMAT_VERSION,
        "kind": "construction",
        "metadata": {
            "k": level.k,
            "eps_history": [encode_fraction(e) for e in level.eps_history],
            "counts": {"a": n, "b": len(points) - n, "witness": len(witness)},
        },
        "objects": {
            "a_chain": {"type": "chain", "points": points[:n]},
            "b_chain": {"type": "chain", "points": points[n:]},
            "witness_pairs": {"type": "index_pairs", "pairs": [[i, j] for i, j in witness]},
        },
    }


def _decode_construction(document: dict[str, Any]) -> Level:
    meta = _field(document, "metadata", dict)
    k = _field(meta, "k", int, "metadata")
    if isinstance(k, bool) or k < 1:
        raise DocumentError("k must be an integer >= 1", "metadata.k")
    eps_history = list(_items(meta, "eps_history", dict, "metadata", _decode_ratio))
    objects = _field(document, "objects", dict)
    a = _field(objects, "a_chain", dict, "objects", _decode_chain)
    b = _field(objects, "b_chain", dict, "objects", _decode_chain)

    def index_pair(item: list, context: str) -> tuple[int, int]:
        i, j = _pair(item, context, int)
        if not (0 <= i < len(a) and 0 <= j < len(b)):
            raise DocumentError("index out of range", context)
        return i, j

    pairs = _field(objects, "witness_pairs", dict, "objects")
    witness = tuple(_items(pairs, "pairs", list, "objects.witness_pairs", index_pair))

    from fractions import Fraction

    from .construction import Level

    return Level.from_rows(k, _scaled(a + b), len(a), witness,
                           tuple(Fraction(num, den) for num, den in eps_history))


# -- point set documents ----------------------------------------------------


def points_to_document(points: list[Point]) -> dict[str, Any]:
    from .geometry import Scaled

    return {
        "version": FORMAT_VERSION,
        "kind": "points",
        "objects": {
            "points": {"type": "point_set", "points": encode_points(Scaled(points))}
        },
    }


# -- graph documents --------------------------------------------------------


def graph_to_document(
    graph: BipartiteGraph,
    placements: Optional[Scaled] = None,
    k: Optional[int] = None,
) -> dict[str, Any]:
    """The graph, and the placements of its vertices in `graph.u + graph.v`
    order if given."""
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
        names = graph.u + graph.v
        if len(placements) != len(names):
            raise ValueError(f"{len(placements)} placements for {len(names)} vertices")
        document["objects"]["placements"] = {
            "type": "placement",
            "points": dict(zip(names, encode_points(placements))),
        }
    return document


def _decode_graph(
    document: dict[str, Any]
) -> tuple[BipartiteGraph, Optional[dict[str, Point]]]:
    objects = _field(document, "objects", dict)
    entry = _field(objects, "graph", dict, "objects")
    u, v = (tuple(_items(entry, key, str, "objects.graph")) for key in ("u", "v"))
    edges = tuple(_items(entry, "edges", list, "objects.graph", _pair))
    from .graphs import BipartiteGraph  # which checks the structure

    try:
        graph = BipartiteGraph(u=u, v=v, edges=edges)
    except ValueError as exc:
        raise DocumentError(str(exc), "objects.graph") from exc
    if "placements" not in objects:
        return graph, None
    entry = _field(objects, "placements", dict, "objects")
    placed = {}
    for name, item in _field(entry, "points", dict, "objects.placements").items():
        context = f"objects.placements.points[{name}]"
        placed[name] = _decode_point(_expect(item, dict, context), context)
    return graph, dict(zip(placed, _scaled(list(placed.values())).points()))


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
    version = _field(document, "version", object)
    if version != FORMAT_VERSION:
        raise DocumentError(
            f"unsupported version {version!r} (expected {FORMAT_VERSION!r})",
            "version",
        )
    kind = _field(document, "kind", object)
    if kind == "construction":
        return kind, _decode_construction(document)
    if kind == "points":
        objects = _field(document, "objects", dict)
        return kind, _scaled(_field(objects, "points", dict, "objects", _decode_chain)).points()
    if kind == "graph":
        return kind, _decode_graph(document)
    raise DocumentError(f"unknown kind {kind!r}", "kind")


def load_path(path: str) -> ParsedDocument:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise DocumentError(f"cannot read {path}: not UTF-8 ({exc.reason})") from exc
    return loads(text)
