"""Exact JSON documents for constructions, point sets, and graphs: the reader.

`loads` and `load_path` parse every document kind; `document` serves
both names, imported on first access and kept there, so an op that only
writes never compiles this module.

Parsing is strict about structure (types, integer syntax, positive
denominators, index ranges) and raises `DocumentError` with a dotted
path to the offending field, carried as a tuple and written out only
when a check fails.  One reader, `_ratios`, reads every point's eight
decimal strings (chains, point sets, placements) as plain ints, x then
y, p then q, num then den, and checks each denominator where it reads
it.  Every field of a document is read, and a graph's structure is
checked on names alone (`document.structure_defect`, which
`BipartiteGraph` runs too), as is each placed name being a vertex,
before any module past `document` and this one is imported, so a
malformed file of any kind, an invalid graph structure too, is refused
having loaded no other package module.  Then
`_scaled` imports the geometry kernel, once, and puts the points on rows
over the lcm of their denominators, where `loads` and `load_path` keep
them: a construction's, which `Level` brings to the least scale (its
factors are (num, den) pairs reduced by their gcd), a point set's and a
graph's placements.  No `Point` is built, so no CLI op loads `numbers`
or `fractions`.  Parsing does NOT re-prove the geometric invariants: a
well-formed file whose chains are broken parses fine and is rejected
later by verification, which keeps "unreadable input" and "readable but
wrong" distinguishable.  A key repeated in one object is refused.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from math import gcd, lcm
from typing import TYPE_CHECKING, Any, Iterator, Optional

from .document import FORMAT_VERSION, DocumentError, structure_defect

if TYPE_CHECKING:  # the decoders import these once a document is well-formed
    from .geometry import Scaled
    from .graphs import BipartiteGraph
    from .level import Level

_INT_RE = re.compile(r"-?[0-9]+")


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


def _check_types(objects: dict, tags: dict[str, str]) -> None:
    """Refuse an object of `objects` whose `type` is not its tag in `tags`."""
    for key, tag in tags.items():
        found = _field(objects[key], "type", object, ("objects", key))
        if found != tag:
            raise _fail(f"expected type {tag!r}, not {found!r}", ("objects", key, "type"))


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
    counts = _field(meta, "counts", dict, ("metadata",))
    for key, size in (("a", len(a)), ("b", len(b)), ("witness", len(witness))):
        value = _field(counts, key, int, ("metadata", "counts"))
        if isinstance(value, bool) or value != size:
            raise _fail(f"says {value}, but the document has {size}", ("metadata", "counts", key))
    _check_types(objects, {"a_chain": "chain", "b_chain": "chain", "witness_pairs": "index_pairs"})

    from .level import Level

    return Level(k, _scaled(a + b), len(a), tuple(witness),  # factors reduced
                 tuple((p // (g := gcd(p, q)), q // g) for p, q in eps_history))


# -- graph documents --------------------------------------------------------


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
    vertices = {*u, *v}
    for name in placed or ():  # in document order
        if name not in vertices:
            raise _fail("not a vertex of the graph", ("objects", "placements", "points", (name,)))
    _check_types(objects, {"graph": "bipartite_graph"} if placed is None
                 else {"graph": "bipartite_graph", "placements": "placement"})
    from .graphs import BipartiteGraph

    graph = BipartiteGraph(u=u, v=v, edges=edges)
    return graph, None if placed is None else ([*placed], _scaled([*placed.values()]))


# -- entry points ------------------------------------------------------------


ParsedDocument = tuple[str, Any]


def _object(pairs: list[tuple[str, Any]]) -> dict:
    """A JSON object, refused at its first key that repeats: `json` alone
    keeps the key's last value and drops the others unseen."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        counts = Counter(key for key, _ in pairs)
        raise DocumentError(f"repeated key {next(key for key in obj if counts[key] > 1)!r}")
    return obj


def loads(text: str) -> ParsedDocument:
    """Parse any known document kind from text.

    Returns (kind, payload) where payload is an unverified `Level`, a
    point set's `Scaled`, or a (BipartiteGraph, placements-or-None) pair
    whose placements are the placed names and one `Scaled` of their rows.
    """
    try:
        document = json.loads(text, object_pairs_hook=_object)
    except DocumentError:
        raise
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
        points = _points(objects, "points", ("objects",))
        _check_types(objects, {"points": "point_set"})
        return kind, _scaled(points)
    if kind == "graph":
        return kind, _decode_graph(document)
    raise DocumentError(f"unknown kind {kind!r}", "kind")


def load_path(path: str) -> ParsedDocument:
    """Read and parse a document file: `loads` of its text."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise DocumentError(f"cannot read {path}: not UTF-8 ({exc.reason})") from exc
    from . import document  # `loads` as `document` serves it: a wrapper set there sees the call

    return document.loads(text)
