"""Exact JSON documents for constructions, point sets, and graphs.

Every coordinate travels as four decimal strings (numerator and
denominator of the rational part and of the sqrt(3) coefficient), so
files are loss-free and reruns are byte-identical.  All documents carry
the format tag "sechain/1".  One builder per document kind lays it out,
its points and pairs in an encoding: `plain` gives JSON values, and
`Items` keeps the fields for `dumps`, which writes the canonical text
(sorted keys, two-space indent) itself, each item as one fill of a `%`
template made from its layout.  So one point template is the coordinate
codec: filled from `geometry.Scaled` rows, one gcd per component, it
writes every point of a construction, a point set, a graph's placements
and `ci --json`'s witness; `_scaled` decodes every document kind into
rows over the lcm of its denominators.

Parsing is strict about structure (types, integer syntax, positive
denominators, index ranges) and raises `DocumentError` with a dotted
path to the offending field, carried as a tuple and written out only
when a check fails.  One reader, `_ratios`, reads every point's eight
decimal strings (chains, point sets, placements) as plain ints, x then
y, p then q, num then den, and checks each denominator where it reads
it.  Every field of a document is read before any other package module
is imported, and a graph's structure is checked on names alone
(`structure_defect`, which `BipartiteGraph` runs too), so a malformed
file of any kind, a graph with a bad edge or placement or an invalid
structure too, is refused having loaded no other package module.  Then
the document imports the geometry kernel, once, to turn its coordinates
into rows, and `load_path`, which the CLI reads, keeps every coordinate
on them: a construction's (`Level.from_rows`
brings them to the least scale; its factors are (num, den) pairs
reduced by their gcd), a point set's and a graph's placements.  `loads`
makes their `Point`s at its own boundary, so no CLI op loads `numbers`
or `fractions`.  Parsing does NOT re-prove the geometric invariants: a
well-formed file whose chains are broken parses fine and is rejected
later by verification, which keeps "unreadable input" and "readable
but wrong" distinguishable.
"""

from __future__ import annotations

import json
import re
from itertools import chain
from json.encoder import encode_basestring_ascii
from math import gcd, lcm
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Optional

if TYPE_CHECKING:  # the decoders import these once a document is well-formed
    from .construction import Level
    from .geometry import Point, Scaled
    from .graphs import BipartiteGraph

FORMAT_VERSION = "sechain/1"

_INT_RE = re.compile(r"-?[0-9]+")


class DocumentError(ValueError):
    """Malformed document; `context` points at the offending field."""

    def __init__(self, message: str, context: str = "") -> None:
        self.context = context
        super().__init__(f"{context}: {message}" if context else message)


# -- encoding --------------------------------------------------------------


class _Slot(str):
    """A sample item's field, "%s": `dumps` writes it bare, its `str` in quotes."""


def _point(parts: tuple) -> dict[str, Any]:
    """A point's layout from its eight components in sorted-key order: den
    and num of x.p, x.q, y.p and y.q, each written as a string."""
    xpd, xpn, xqd, xqn, ypd, ypn, yqd, yqn = map(str, parts)
    return {"x": {"p": {"den": xpd, "num": xpn}, "q": {"den": xqd, "num": xqn}},
            "y": {"p": {"den": ypd, "num": ypn}, "q": {"den": yqd, "num": yqn}}}


def plain(make: Callable[[tuple], Any], items: Iterable[tuple], keys: Any = None) -> Any:
    """Items of one layout, each `make` of its fields, in a list or in a
    dict under `keys`: the encoding of plain JSON values."""
    made = [make(fields) for fields in items]
    return made if keys is None else dict(zip(keys, made))


class Items:
    """The encoding that `dumps` writes by template, one `%` fill per item:
    `plain`'s arguments, kept; `items` is read once."""

    __slots__ = ("make", "items", "keys")

    def __init__(self, make: Callable[[tuple], Any], items: Iterable[tuple], keys: Any = None):
        self.make, self.items, self.keys = make, items, keys


def encode_points(points: Scaled, encode: Callable[..., Any] = plain, keys: Any = None) -> Any:
    """The points in the encoding `encode`, each a `_point` whose fractions
    are reduced by one gcd with the scale each."""
    s = points.s
    return encode(_point, ((s // (g := gcd(xa, s)), xa // g, s // (h := gcd(xb, s)), xb // h,
                            s // (i := gcd(ya, s)), ya // i, s // (j := gcd(yb, s)), yb // j)
                           for xa, xb, ya, yb in points.rows), keys)


def dumps(document: Any) -> str:
    """Canonical text form: sorted keys, two-space indent, newline end.

    The bytes of `json.dumps(document, sort_keys=True, indent=2) + "\\n"`,
    whose indented encode CPython runs in pure Python, with each `Items`
    node written as its plain form.  Only str-keyed dicts, lists, strs,
    ints, bools and None are written; anything else raises TypeError.
    """
    chunks: list[str] = []
    put = chunks.append
    templates: dict[tuple, str] = {}

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
        elif kind is Items:
            items, inner, keyed = iter(value.items), indent + "  ", value.keys is not None
            first = next(items, None)
            if first is None:
                put("{}" if keyed else "[]")
                return
            template = templates.get((value.make, inner))
            if template is None:  # an item's text at this indent, `%s` per field
                mark = len(chunks)
                write(value.make((_Slot("%s"),) * len(first)), inner)
                template = templates[value.make, inner] = "".join(chunks[mark:])
                del chunks[mark:]
            items = chain((first,), items)
            if type(first[0]) is str:  # names, escaped as a str is written
                items = [tuple(map(encode_basestring_ascii, fields)) for fields in items]
            texts = [template % fields for fields in items]
            if keyed:
                texts = [f"{encode_basestring_ascii(key)}: {text}"
                         for key, text in sorted(zip(value.keys, texts))]
            put(("{" if keyed else "[") + inner)
            put(f",{inner}".join(texts))
            put(indent + ("}" if keyed else "]"))
        elif kind is _Slot:
            put("%s")
        else:
            raise TypeError(f"cannot write a {kind.__name__}")

    write(document, "\n")
    put("\n")
    return "".join(chunks)


# -- decoding helpers -------------------------------------------------------


def _fail(message: str, path: tuple) -> DocumentError:
    """The error for a check failed at `path`, the steps from the document
    to the field: a key is written after a dot, an int index or a
    placement's name (a 1-tuple) in brackets, and no step as "document"."""
    text = "".join(f".{step}" if type(step) is str else "[%s]" % step for step in path)
    return DocumentError(message, text[1:] or "document")


def _expect(obj: Any, kind: type, path: tuple) -> Any:
    if not isinstance(obj, kind):
        raise _fail(f"expected {kind.__name__}", path)
    return obj


def _field(obj: dict, key: str, kind: type, path: tuple = ()) -> Any:
    """`obj[key]` checked to be a `kind`.  A missing key is reported at
    `path`, the path of `obj`, and a wrong type at `path` and `key`."""
    if key not in obj:
        raise _fail(f"missing field '{key}'", path)
    value = obj[key]
    if not isinstance(value, kind):
        raise _fail(f"expected {kind.__name__}", (*path, key))
    return value


def _items(obj: dict, key: str, kind: type, path: tuple) -> Iterator[tuple[Any, tuple]]:
    """Each item of the list field `obj[key]`, checked to be a `kind`, and its path."""
    for t, item in enumerate(_field(obj, key, list, path)):
        at = (*path, key, t)
        yield _expect(item, kind, at), at


def _pair(item: list, path: tuple, kind: type = str) -> tuple[Any, Any]:
    """A list of exactly two `kind`s; a JSON bool never passes for an int."""
    if len(item) != 2:
        raise _fail("expected a pair", path)
    first, second = item
    if kind is int and (isinstance(first, bool) or isinstance(second, bool)):
        raise _fail("expected integers", path)
    return _expect(first, kind, (*path, 0)), _expect(second, kind, (*path, 1))


_POINT = (("x", "p"), ("x", "q"), ("y", "p"), ("y", "q"))  # the routes to a point's ratios


def _ratios(obj: dict, path: tuple, routes: tuple = _POINT) -> list[int]:
    """The one coordinate reader: the ratio at the end of each route of
    keys from `obj` as ints, a numerator, then a denominator checked
    positive where it is read.  A point's routes run x.p, x.q, y.p, y.q,
    so x.p is read in full before x.q is looked up; the one route `()`
    reads `obj` itself as a ratio (an eps_history entry)."""
    ints: list[int] = []
    for route in routes:
        ratio, at = obj, path
        for key in route:
            ratio = _field(ratio, key, dict, at)
            at = (*at, key)
        for key in ("num", "den"):
            text = _field(ratio, key, str, at)
            if not _INT_RE.fullmatch(text):
                raise _fail("not a decimal integer", (*at, key))
            try:
                value = int(text)
            except ValueError as exc:  # longer than the interpreter's digit limit
                raise _fail(f"{len(text)} digits, more than this interpreter parses",
                            (*at, key)) from exc
            if value <= 0 and key == "den":
                raise _fail("denominator must be positive", (*at, key))
            ints.append(value)
    return ints


def _points(obj: dict, key: str, path: tuple) -> list[list[int]]:
    """The points of the chain or point set `obj[key]`, eight ints each."""
    entry = _field(obj, key, dict, path)
    return [_ratios(point, at) for point, at in _items(entry, "points", dict, (*path, key))]


def _scaled(decoded: list[list[int]]) -> Scaled:
    """A well-formed document's decoded points as integer rows over the
    lcm of their denominators."""
    from .geometry import Scaled

    dens = {d for point in decoded for d in point[1::2]}
    s = lcm(*dens)
    up = {d: s // d for d in dens}
    return Scaled.from_rows([(xp * up[xpd], xq * up[xqd], yp * up[ypd], yq * up[yqd])
                             for xp, xpd, xq, xqd, yp, ypd, yq, yqd in decoded], s)


# -- construction documents -------------------------------------------------


def construction_to_document(level: Level, encode: Callable[..., Any] = plain) -> dict[str, Any]:
    """The level's document, its points and pairs in the encoding `encode`."""
    chains, n, witness = level.chains, level.n, level.witness
    a, b = (encode_points(chains.take(r), encode) for r in (range(n), range(n, len(chains))))
    return {
        "version": FORMAT_VERSION,
        "kind": "construction",
        "metadata": {
            "k": level.k,
            "eps_history": [{"num": str(p), "den": str(q)} for p, q in level.eps_pairs],
            "counts": {"a": n, "b": len(chains) - n, "witness": len(witness)},
        },
        "objects": {
            "a_chain": {"type": "chain", "points": a},
            "b_chain": {"type": "chain", "points": b},
            "witness_pairs": {"type": "index_pairs", "pairs": encode(list, witness)},
        },
    }


def _decode_construction(document: dict[str, Any]) -> Level:
    meta = _field(document, "metadata", dict)
    k = _field(meta, "k", int, ("metadata",))
    if isinstance(k, bool) or k < 1:
        raise DocumentError("k must be an integer >= 1", "metadata.k")
    eps_history = [_ratios(entry, at, ((),))
                   for entry, at in _items(meta, "eps_history", dict, ("metadata",))]
    objects = _field(document, "objects", dict)
    a = _points(objects, "a_chain", ("objects",))
    b = _points(objects, "b_chain", ("objects",))
    pairs = _field(objects, "witness_pairs", dict, ("objects",))
    witness = []
    for item, at in _items(pairs, "pairs", list, ("objects", "witness_pairs")):
        i, j = _pair(item, at, int)
        if not (0 <= i < len(a) and 0 <= j < len(b)):
            raise _fail("index out of range", at)
        witness.append((i, j))

    from .construction import Level

    return Level.from_rows(k, _scaled(a + b), len(a), tuple(witness),  # factors reduced
                           tuple((p // (g := gcd(p, q)), q // g) for p, q in eps_history))


# -- point set documents ----------------------------------------------------


def points_to_document(points: list[Point], encode: Callable[..., Any] = plain) -> dict[str, Any]:
    from .geometry import Scaled

    return {
        "version": FORMAT_VERSION,
        "kind": "points",
        "objects": {
            "points": {"type": "point_set", "points": encode_points(Scaled(points), encode)}
        },
    }


# -- graph documents --------------------------------------------------------


def graph_to_document(
    graph: BipartiteGraph,
    placements: Optional[Scaled] = None,
    k: Optional[int] = None,
    encode: Callable[..., Any] = plain,
) -> dict[str, Any]:
    """The graph, and the placements of its vertices in `graph.u + graph.v`
    order if given; edges and placements in the encoding `encode`."""
    document: dict[str, Any] = {
        "version": FORMAT_VERSION,
        "kind": "graph",
        "metadata": {} if k is None else {"k": k},
        "objects": {
            "graph": {
                "type": "bipartite_graph",
                "u": list(graph.u),
                "v": list(graph.v),
                "edges": encode(list, graph.edges),
            }
        },
    }
    if placements is not None:
        names = graph.u + graph.v
        if len(placements) != len(names):
            raise ValueError(f"{len(placements)} placements for {len(names)} vertices")
        document["objects"]["placements"] = {
            "type": "placement",
            "points": encode_points(placements, encode, names),
        }
    return document


def structure_defect(u: tuple[str, ...], v: tuple[str, ...],
                     edges: tuple[tuple[str, str], ...]) -> str:
    """The first structure defect of a bipartite graph, "" if none: the
    three checks need only sets of names, so a document's graph is
    refused before `graphs` loads, and `BipartiteGraph` runs them too."""
    u_set, v_set = set(u), set(v)
    if len(u_set) != len(u) or len(v_set) != len(v):
        return "duplicate vertex name inside a part"
    if u_set & v_set:
        return "parts must be disjoint"
    if len(set(edges)) != len(edges):
        return "duplicate edge"
    for a, b in edges:
        if a not in u_set or b not in v_set:
            return f"edge ({a}, {b}) does not match the parts"
    return ""


def _decode_graph(
    document: dict[str, Any]
) -> tuple[BipartiteGraph, Optional[tuple[list[str], Scaled]]]:
    objects = _field(document, "objects", dict)
    entry = _field(objects, "graph", dict, ("objects",))
    path = ("objects", "graph")
    u, v = (tuple(name for name, _ in _items(entry, key, str, path)) for key in ("u", "v"))
    edges = tuple(_pair(item, at) for item, at in _items(entry, "edges", list, path))
    placed = None
    if "placements" in objects:
        entry = _field(objects, "placements", dict, ("objects",))
        placed = {}
        for name, item in _field(entry, "points", dict, ("objects", "placements")).items():
            at = ("objects", "placements", "points", (name,))
            placed[name] = _ratios(_expect(item, dict, at), at)
    defect = structure_defect(u, v, edges)
    if defect:
        raise DocumentError(defect, "objects.graph")
    from .graphs import BipartiteGraph

    graph = BipartiteGraph(u=u, v=v, edges=edges)
    return graph, None if placed is None else ([*placed], _scaled([*placed.values()]))


# -- entry points ------------------------------------------------------------


ParsedDocument = tuple[str, Any]


def _decode(text: str) -> ParsedDocument:
    """`loads` on rows: a point set is a `Scaled`, placements (names, `Scaled`)."""
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
    _expect(document, dict, ())
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
        return kind, _scaled(_points(objects, "points", ("objects",)))
    if kind == "graph":
        return kind, _decode_graph(document)
    raise DocumentError(f"unknown kind {kind!r}", "kind")


def loads(text: str) -> ParsedDocument:
    """Parse any known document kind from text.

    Returns (kind, payload) where payload is an unverified `Level`, a
    list of Points, or a (BipartiteGraph, placements-or-None) pair.
    """
    kind, payload = _decode(text)
    if kind == "graph" and payload[1] is not None:
        names, rows = payload[1]
        return kind, (payload[0], dict(zip(names, rows.points())))
    return kind, payload.points() if kind == "points" else payload


def load_path(path: str) -> ParsedDocument:
    """Read and parse a document file: `loads`, except that coordinates
    stay on rows, as in `_decode`, which is what the CLI computes on."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise DocumentError(f"cannot read {path}: not UTF-8 ({exc.reason})") from exc
    return _decode(text)
